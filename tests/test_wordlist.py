"""Wordlist loading, normalization, and report round-trip tests."""

import json

import pytest
from hypothesis import example, given, strategies as st

from loandetect.cli import main
from loandetect.ipa import GAP
from loandetect.wordlist import (
    EmptyTranscriptionError,
    LexicalEntry,
    MalformedRowError,
    ReportRow,
    UnknownPOSError,
    Wordlist,
    WordlistError,
    language_rows,
    load_wordlist,
    normalize_ipa,
    read_report,
    strip_gold,
    write_report,
    write_table,
    write_wordlist,
)

HEADER = "orthography\tipa\tlanguage\tpos\tlabel\tconcept"


def write_tsv(tmp_path, rows, header=HEADER, name="words.tsv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_load_basic_row(tmp_path):
    path = write_tsv(tmp_path, ["full\tfʊl\tenglish\tadjective\t0\t"])
    wl = load_wordlist(path)
    assert len(wl) == 1
    entry = wl.entries[0]
    assert entry.orthography == "full"
    assert entry.ipa == ("f", "ʊ", "l")
    assert entry.pos == "adjective"
    assert entry.gold_label == 0
    assert wl.language == "english"


def test_load_strips_length_marker(tmp_path):
    path = write_tsv(tmp_path, ["fool\tfuːl\tenglish\tnoun\t\t"])
    wl = load_wordlist(path)
    assert wl.entries[0].ipa == ("f", "u", "l")


def test_load_space_segmented_row(tmp_path):
    # CLDF FormTable "Segments" style: one space between segments
    path = write_tsv(
        tmp_path,
        ["pata\tp a t a\tenglish\tnoun\t\tc1", "kiki\tˈk iː . k i\tenglish\tnoun\t\tc2"],
    )
    wl = load_wordlist(path)
    assert wl.entries[0].ipa == ("p", "a", "t", "a")
    assert wl.entries[1].ipa == ("k", "i", "k", "i")


def test_load_bom_header_matches_plain_file(tmp_path):
    rows = ["full\tfʊl\tenglish\tadjective\t0\tc1", "kaːta\tkaːta\tenglish\tnoun\t1\tc2"]
    plain = write_tsv(tmp_path, rows, name="plain.tsv")
    bom = tmp_path / "bom.tsv"
    bom.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_wordlist(bom).entries == load_wordlist(plain).entries


def test_read_report_skips_bom(tmp_path):
    wl = Wordlist([LexicalEntry("ab", ("a", "b"), "x", "noun", 1)])
    path = tmp_path / "report.tsv"
    write_report(wl, [0.75], [1], path)
    bom = tmp_path / "bom.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_report(bom) == read_report(path)


def test_load_empty_file(tmp_path):
    path = write_tsv(tmp_path, [])
    wl = load_wordlist(path)
    assert len(wl) == 0


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_wordlist("/nonexistent/words.tsv")


def test_load_missing_ipa_collects_row_indices(tmp_path):
    path = write_tsv(
        tmp_path,
        [
            "good\tgʊd\tenglish\tnoun\t\t",
            "bad\t\tenglish\tnoun\t\t",
            "worse\t\tenglish\tnoun\t\t",
        ],
    )
    with pytest.raises(MalformedRowError) as err:
        load_wordlist(path)
    assert [row for row, _ in err.value.rows] == [2, 3]


def test_load_unknown_pos_strict_vs_lenient(tmp_path):
    path = write_tsv(tmp_path, ["x\tks\tenglish\tparticle\t\t"])
    with pytest.raises(UnknownPOSError):
        load_wordlist(path)
    wl = load_wordlist(path, lenient_pos=True)
    assert wl.entries[0].pos == "function"


def test_load_short_row_reads_missing_cells_as_empty(tmp_path):
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\t1", "b\tta\tenglish\tnoun"])
    first, second = load_wordlist(path).entries
    assert (first.gold_label, first.concept_id) == (1, None)
    assert (second.gold_label, second.concept_id) == (None, None)


def test_load_long_row_ignores_extra_cells(tmp_path):
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\t0\tc1\textra\t9"])
    assert load_wordlist(path).entries == (
        LexicalEntry(orthography="a", ipa=("p", "a"), language="english", pos="noun",
                     gold_label=0, concept_id="c1"),
    )
    # an extra cell is not read as an optional column the header lacks
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\t1\tc1"],
                     header="orthography\tipa\tlanguage\tpos")
    assert load_wordlist(path).entries == (
        LexicalEntry(orthography="a", ipa=("p", "a"), language="english", pos="noun"),
    )


def test_load_row_of_orthography_only_is_missing_ipa(tmp_path):
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\t\t", "lonely"])
    with pytest.raises(MalformedRowError) as err:
        load_wordlist(path)
    assert err.value.rows == [(2, "missing IPA")]


def test_load_row_without_pos_cell_is_unknown_pos(tmp_path):
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\t\t", "b\tta\tenglish"])
    with pytest.raises(UnknownPOSError) as err:
        load_wordlist(path)
    assert (err.value.row, err.value.value) == (2, "")
    assert str(err.value) == "row 2: unknown POS ''"


def test_load_rejects_duplicate_entries(tmp_path):
    path = write_tsv(
        tmp_path,
        ["a\tpa\tenglish\tnoun\t\t", "b\tpa\tenglish\tverb\t\t"],
    )
    with pytest.raises(WordlistError, match="at rows 1 and 2$"):
        load_wordlist(path)
    # rows count the non-blank lines after the header, as every load error does
    path = write_tsv(
        tmp_path,
        ["a\tpa\tenglish\tnoun\t\t", "", "b\tta\tenglish\tnoun\t\t",
         "c\tta\tenglish\tverb\t\t"],
    )
    with pytest.raises(WordlistError, match="duplicate entry english/ta/None at rows 2 and 3$"):
        load_wordlist(path)


def test_language_rows_sorts_languages_and_keeps_input_order():
    entries = [
        LexicalEntry(orthography=w, ipa=tuple(w), language=lang, pos="noun")
        for w, lang in [("pa", "zz"), ("ta", "aa"), ("ka", "zz"), ("ma", "mm"), ("na", "aa")]
    ]
    rows = language_rows(Wordlist(entries))
    assert list(rows.items()) == [("aa", [1, 4]), ("mm", [3]), ("zz", [0, 2])]


def test_load_csv_flag(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text(
        "orthography,ipa,language,pos,label,concept\nfull,fʊl,english,adjective,0,\n",
        encoding="utf-8",
    )
    wl = load_wordlist(path, delimiter=",")
    assert wl.entries[0].ipa == ("f", "ʊ", "l")


def test_multilingual_requires_concepts(tmp_path, capsys):
    # only detect-xl reads concepts: the list loads and detect runs on it
    path = write_tsv(
        tmp_path,
        ["a\tpa\tenglish\tnoun\t\tc1", "b\tba\tgerman\tnoun\t\t",
         "c\tta\tgerman\tnoun\t\t"],
    )
    assert [e.concept_id for e in load_wordlist(path)] == ["c1", None, None]
    assert main(["detect", "--input", str(path), "--output", str(tmp_path / "r.tsv")]) == 0
    capsys.readouterr()
    assert main(["detect-xl", "--input", str(path), "--output", str(tmp_path / "x.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rows [2, 3]" in err


@pytest.mark.parametrize("pos, message", [("noun", "rows [2]"), ("particle", "row 2:")])
def test_row_numbers_skip_blank_lines(tmp_path, capsys, pos, message):
    # the parser and detect-xl number the line after the blank one alike
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\t\tc1", "", f"b\tba\tgerman\t{pos}\t\t"])
    assert main(["detect-xl", "--input", str(path), "--output", str(tmp_path / "x.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_load_reports_missing_language_with_other_malformed_rows(tmp_path, capsys):
    path = write_tsv(
        tmp_path,
        ["a\tpa\t\tnoun\t\t", "b\tba\t  \tnoun\t\t", "c\t\tenglish\tnoun\t\t",
         "d\tda\tenglish\tnoun\t\t"],
    )
    with pytest.raises(MalformedRowError) as err:
        load_wordlist(path)
    assert err.value.rows == [(1, "missing language"), (2, "missing language"),
                              (3, "missing IPA")]
    # a nameless group would have named its trace file "t..tsv"
    trace = tmp_path / "t.tsv"
    args = ["detect", "--input", str(path), "--output", str(tmp_path / "r.tsv"),
            "--trace", str(trace)]
    assert main(args) == 1
    assert "missing language" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["words.tsv"]


@pytest.mark.parametrize("language", ["", " ", "\t"])
def test_entry_refuses_blank_language(language):
    with pytest.raises(WordlistError, match="^missing language$"):
        LexicalEntry("pa", ("p", "a"), language, "noun")


@pytest.mark.parametrize(
    "token, message",
    [
        (GAP, f"entry 'pa' holds the token {GAP!r}, which the aligner reserves"),
        ("", "entry 'pa' holds an empty token"),
    ],
)
def test_entry_refuses_the_gap_symbol_and_an_empty_token(token, message, tmp_path, capsys):
    with pytest.raises(WordlistError) as err:
        LexicalEntry("pa", ("p", token, "a"), "en", "noun")
    assert str(err.value) == message
    grammar = tmp_path / "grammar.json"
    grammar.write_text(
        json.dumps({"language": "reca", "consonants": ["p", token], "vowels": ["a"]}),
        encoding="utf-8",
    )
    out = tmp_path / "fixture.tsv"
    argv = ["synth", "--native-grammar", str(grammar), "--donor-grammar", str(grammar),
            "--seed", "1", "--output", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: entry ") and message.removeprefix("entry 'pa' ") in err
    assert not out.exists()


def test_entry_names_the_first_rule_broken():
    # each step mends the rule the previous step named, and the next is named
    fields = dict(orthography="p\ta", ipa=(), language=" ", pos="x", gold_label=5)
    steps = [
        ("missing language", dict(language="en")),
        ("tab or line break in orthography", dict(orthography="pa")),
        ("entry 'pa' has an empty IPA transcription", dict(ipa=("p", GAP))),
        (f"entry 'pa' holds the token {GAP!r}, which the aligner reserves",
         dict(ipa=("p", "a"))),
        ("unknown POS 'x'", dict(pos="noun")),
        ("label must be 0/1, got 5", dict(gold_label=True)),
        # written back, True or 1.0 would be a label cell the loader refuses
        ("label must be 0/1, got True", dict(gold_label=1.0)),
        ("label must be 0/1, got 1.0", dict(gold_label=1)),
    ]
    for message, mend in steps:
        with pytest.raises(WordlistError) as err:
            LexicalEntry(**fields)
        assert str(err.value) == message
        fields.update(mend)
    assert LexicalEntry(**fields).gold_label == 1


@pytest.mark.parametrize("brk", ["\t", "\r", "\n"])
@pytest.mark.parametrize("field", ["orthography", "language", "concept", "IPA"])
def test_entry_refuses_tab_or_line_break(field, brk):
    text = dict(orthography="pa", language="en", concept="c1", IPA="a")
    text[field] = f"x{brk}y"
    with pytest.raises(WordlistError) as err:
        LexicalEntry(text["orthography"], ("p", text["IPA"]), text["language"], "noun",
                     None, text["concept"])
    assert str(err.value) == f"tab or line break in {field}"


@pytest.mark.parametrize("pad", [" {}", "{}\u00a0", "\u3000{} "])
@pytest.mark.parametrize("field", ["orthography", "language", "concept"])
def test_entry_refuses_outer_whitespace(field, pad):
    # the loader strips every cell, so such an entry would load back as another
    text = dict(orthography="pa", language="en", concept="c1")
    text[field] = pad.format("x y")
    with pytest.raises(WordlistError) as err:
        LexicalEntry(text["orthography"], ("p", "a"), text["language"], "noun",
                     None, text["concept"])
    assert str(err.value) == f"leading or trailing whitespace in {field}"
    text[field] = "x y"  # inner whitespace is kept as it is
    LexicalEntry(text["orthography"], ("p", "a"), text["language"], "noun", None, text["concept"])


@pytest.mark.parametrize("grammar, broken", [
    ({"language": "re\tca", "consonants": ["p", "t"], "vowels": ["a"]}, "language"),
    ({"language": "reca", "consonants": ["p", "t\nx"], "vowels": ["a"]}, "orthography, IPA"),
])
def test_synth_writes_no_row_its_loader_refuses(grammar, broken, tmp_path, capsys):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps(grammar), encoding="utf-8")
    out = tmp_path / "fixture.tsv"
    argv = ["synth", "--native-grammar", str(path), "--donor-grammar", str(path),
            "--seed", "1", "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: tab or line break in {broken}\n"
    assert not out.exists()


def test_synth_refuses_a_language_the_loader_would_strip(tmp_path, capsys):
    path = tmp_path / "grammar.json"
    grammar = {"language": " reca", "consonants": ["p", "t"], "vowels": ["a", "i"]}
    path.write_text(json.dumps(grammar), encoding="utf-8")
    out = tmp_path / "fixture.tsv"
    argv = ["synth", "--native-grammar", str(path), "--donor-grammar", str(path),
            "--seed", "1", "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: leading or trailing whitespace in language\n"
    assert not out.exists()


def test_loaded_entries_hold_no_reserved_token(tmp_path):
    # the loader drops hyphens, and every token it makes holds a codepoint
    path = write_tsv(tmp_path, ["a\tpa-ta\ten\tnoun\t\t", "b\tp a - t a\ten\tnoun\t\tc1"])
    assert [e.ipa for e in load_wordlist(path)] == [("p", "a", "t", "a")] * 2


def test_unknown_pos_names_a_row_only_when_loaded(tmp_path):
    with pytest.raises(UnknownPOSError) as err:
        LexicalEntry("pa", ("p", "a"), "english", "x")
    assert (err.value.row, str(err.value)) == (None, "unknown POS 'x'")
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\t\t", "b\tba\tenglish\tx\t\t"])
    with pytest.raises(UnknownPOSError) as err:
        load_wordlist(path)
    assert (err.value.row, str(err.value)) == (2, "row 2: unknown POS 'x'")


def test_unknown_pos_is_named_with_the_other_malformed_rows(tmp_path, capsys):
    path = write_tsv(
        tmp_path, ["a\t\tenglish\tnoun\t\t", "b\tba\tenglish\tparticle\t\t", "c\tca\t\tnoun\t\t"]
    )
    with pytest.raises(MalformedRowError) as err:
        load_wordlist(path)
    assert err.value.rows == [(1, "missing IPA"), (2, "unknown POS 'particle'"),
                              (3, "missing language")]
    with pytest.raises(MalformedRowError) as err:
        load_wordlist(path, lenient_pos=True)
    assert [row for row, _ in err.value.rows] == [1, 3]
    # two unknown POS values and nothing else are two malformed rows
    path = write_tsv(tmp_path, ["a\tpa\tenglish\tx\t\t", "b\tba\tenglish\ty\t\t"])
    with pytest.raises(MalformedRowError) as err:
        load_wordlist(path)
    assert err.value.rows == [(1, "unknown POS 'x'"), (2, "unknown POS 'y'")]
    assert main(["detect", "--input", str(path), "--output", str(tmp_path / "r.tsv")]) == 1
    assert "2 malformed row(s)" in capsys.readouterr().err


def test_empty_transcription_says_what_is_wrong():
    with pytest.raises(EmptyTranscriptionError) as err:
        LexicalEntry("pa", (), "en", "noun")
    assert str(err.value) == "entry 'pa' has an empty IPA transcription"
    with pytest.raises(EmptyTranscriptionError) as err:
        normalize_ipa("ː.")
    assert str(err.value) == "IPA 'ː.' has nothing left after stripping markers and separators"
    for blank in ("", " \t"):
        with pytest.raises(EmptyTranscriptionError, match="^missing IPA$"):
            normalize_ipa(blank)


def test_load_names_normalize_ipa_faults(tmp_path):
    path = write_tsv(tmp_path, ["a\tˈː\ten\tnoun\t\t", "b\t \ten\tnoun\t\t"])
    with pytest.raises(MalformedRowError) as err:
        load_wordlist(path)
    assert err.value.rows == [
        (1, "IPA 'ˈː' has nothing left after stripping markers and separators"),
        (2, "missing IPA"),
    ]


def test_load_rejects_repeated_column(tmp_path):
    for header in ("orthography\tipa\tlanguage\tpos\tipa",
                   "orthography\tipa\tlanguage\tpos\t ipa ",
                   "ipa\torthography\tipa\tlanguage\tpos"):
        path = write_tsv(tmp_path, ["a\tpa\tenglish\tnoun\tta"], header=header)
        with pytest.raises(WordlistError) as err:
            load_wordlist(path)
        assert "'ipa' appears twice" in str(err.value) and str(path) in str(err.value)
    # a column the loader does not read may repeat
    path = write_tsv(tmp_path, ["a\tx\tpa\tenglish\ty\tnoun"],
                     header="orthography\tnote\tipa\tlanguage\tnote\tpos")
    assert load_wordlist(path).entries == (
        LexicalEntry(orthography="a", ipa=("p", "a"), language="english", pos="noun"),
    )


def test_load_reads_tsv_quotes_literally_and_csv_quoted(tmp_path):
    path = write_tsv(
        tmp_path,
        ['"ti\tti\tenglish\tnoun\t\t', '"a" b\tpa\tenglish\tnoun\t\t',
         'ku\tku\tenglish\tnoun\t\tc"3'],
    )
    wl = load_wordlist(path)
    assert [e.orthography for e in wl] == ['"ti', '"a" b', "ku"]
    assert [e.concept_id for e in wl] == [None, None, 'c"3']
    # quoting still applies to CSV
    path = tmp_path / "words.csv"
    path.write_text('orthography,ipa,language,pos\n"a, ""b""",pa,english,noun\n', encoding="utf-8")
    assert [e.orthography for e in load_wordlist(path, delimiter=",")] == ['a, "b"']


def test_normalize_ipa_examples():
    assert normalize_ipa("ˈrestorã") == ("r", "e", "s", "t", "o", "r", "ã")
    assert normalize_ipa("fʊl") == ("f", "ʊ", "l")
    # character filter over the marker codepoints, then tokenize
    assert normalize_ipa("aːˈb") == ("a", "b")
    assert normalize_ipa("ˌaˈb:c") == ("a", "b", "c")


def test_normalize_ipa_drops_separators():
    assert normalize_ipa("p a t a") == ("p", "a", "t", "a")
    assert normalize_ipa("ˈkiː.ki") == ("k", "i", "k", "i")
    assert normalize_ipa("mor+fem") == normalize_ipa("morfem")
    assert normalize_ipa(" t\ta .+ ") == ("t", "a")
    assert normalize_ipa("pa-ta") == normalize_ipa("pata")


@given(st.text(alphabet="pat-ˈː.+ \u0303\u0361ʃ", min_size=1, max_size=12))
@example("pa-ta")
@example("t͡-ʃ")
def test_no_normalized_token_is_the_gap_symbol(raw):
    try:
        ipa = normalize_ipa(raw)
    except EmptyTranscriptionError:
        return
    # the aligner's gap symbol, and the empty token
    assert GAP not in ipa and "" not in ipa


def test_normalize_ipa_empty_after_stripping():
    with pytest.raises(EmptyTranscriptionError):
        normalize_ipa("ːˈ")


@given(st.text(min_size=1, max_size=12))
@example("0\r:")  # a marker hid the trailing whitespace from strip()
@example("p a t a")  # space-segmented (CLDF "Segments")
@example("ˈkiː.ki")  # syllable boundary
@example("mor+fem")  # morpheme boundary
@example("mor-fem")  # morpheme boundary
def test_normalize_ipa_idempotent(raw):
    try:
        once = normalize_ipa(raw)
    except EmptyTranscriptionError:
        return
    assert normalize_ipa("".join(once)) == once


@given(st.text(min_size=1, max_size=12))
def test_normalized_entries_satisfy_invariants(raw):
    try:
        ipa = normalize_ipa(raw)
    except EmptyTranscriptionError:
        return
    assert len(ipa) >= 1
    for marker in ("ː", ":", "ˈ", "ˌ"):
        assert all(marker not in sym for sym in ipa)
    for separator in (".", "+"):
        assert all(separator not in sym for sym in ipa)
    assert all(not any(ch.isspace() for ch in sym) for sym in ipa)


def entry(ipa, label=None, language="english", pos="noun", concept=None):
    tokens = normalize_ipa(ipa) if isinstance(ipa, str) else tuple(ipa)
    return LexicalEntry(
        orthography="".join(tokens),
        ipa=tokens,
        language=language,
        pos=pos,
        gold_label=label,
        concept_id=concept,
    )


def test_write_report_threshold_and_columns(tmp_path):
    wl = Wordlist([entry("pa", label=1), entry("ti", label=0)])
    path = tmp_path / "report.tsv"
    write_report(wl, [0.8, 0.0], [1, 0], path, header_meta={"tau": 0.3})
    text = path.read_text(encoding="utf-8")
    assert "# tau = 0.3" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "word\tlanguage\tprobability\tpredicted_label\tgold_label"
    assert lines[1] == "pa\tenglish\t0.800000\t1\t1"
    assert lines[2] == "ti\tenglish\t0.000000\t0\t0"


def test_report_roundtrip_preserves_values(tmp_path):
    wl = Wordlist(
        [entry("pa", label=1), entry("ti", label=0), entry("ku")]
    )
    probs = [0.123456789, 0.5, 0.000001]
    labels = [1, 1, 0]
    path = tmp_path / "report.tsv"
    write_report(wl, probs, labels, path)
    rows = read_report(path)
    assert [r.word for r in rows] == ["pa", "ti", "ku"]
    assert [r.predicted_label for r in rows] == labels
    assert [r.gold_label for r in rows] == [1, 0, None]
    for got, expected in zip(rows, probs):
        assert got.probability == pytest.approx(expected, abs=5e-7)


def test_read_report_refuses_labels_other_than_0_1(tmp_path):
    header = "word\tlanguage\tprobability\tpredicted_label\tgold_label\n"
    good = "pa\ten\t0.9\t1\t1\n"
    for row, message in [("ta\ten\t0.1\t5\t0\n", "line 3: predicted_label must be 0/1, got '5'"),
                         ("ta\ten\t0.1\t0\t2\n", "line 3: gold_label must be 0/1, got '2'"),
                         ("ta\ten\t0.1\t\t0\n", "line 3: predicted_label must be 0/1, got ''")]:
        path = tmp_path / "report.tsv"
        path.write_text(header + good + row, encoding="utf-8")
        with pytest.raises(WordlistError) as err:
            read_report(path)
        assert str(err.value) == f"{path} {message}"


def test_read_report_names_a_line_of_another_width(tmp_path):
    # a short line used to lose its last cells and blame the header
    header = "word\tlanguage\tprobability\tpredicted_label\tgold_label\n"
    good = "pa\ten\t0.9\t1\t1\n"
    path = tmp_path / "report.tsv"
    for row, count in [("ta\ten\t0.1\n", 3), ("ta\ten\t0.1\t0\t1\tx\n", 6)]:
        path.write_text(header + good + row, encoding="utf-8")
        with pytest.raises(WordlistError) as err:
            read_report(path)
        assert str(err.value) == f"{path} line 3: {count} cells, the header has 5"


def test_read_report_checks_the_header_for_its_columns(tmp_path):
    path = tmp_path / "report.tsv"
    for text, missing in [
        ("word\tS\nab\t0.5\n", "language, predicted_label"),
        ("word\tlanguage\tpredicted_label\n", "probability or S"),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(WordlistError) as err:
            read_report(path)
        assert str(err.value) == f"{path}: report has no column {missing}"
    path.write_text("word\tlanguage\tS\tpredicted_label\nab\ten\t0.25\t1\n", encoding="utf-8")
    assert read_report(path) == [ReportRow("ab", "en", 0.25, 1, None)]


def test_write_table_formats_each_cell_by_its_type(tmp_path):
    path = tmp_path / "t.tsv"
    rows = [(0.5, None, 3, "x"), (1e-7, "", True, "0.2500")]
    write_table(path, ["a", "b", "c", "d"], rows, meta={"z": 1, "a": 0.25})
    assert path.read_text(encoding="utf-8") == (
        "# a = 0.25\n# z = 1\na\tb\tc\td\n0.500000\t\t3\tx\n0.000000\t\tTrue\t0.2500\n"
    )


def test_load_rejects_tab_or_line_break_in_text_cells(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text(
        "orthography,ipa,language,pos,label,concept\n"
        '"p\ta",pa,english,noun,,c1\n'
        'ti,ti,english,noun,,"c\r2"\n'
        "ku,ku,english,noun,,c3\n"
        '"m\na",ma,"engl\tish",noun,,c4\n',
        encoding="utf-8",
    )
    with pytest.raises(MalformedRowError) as info:
        load_wordlist(path, delimiter=",")
    assert info.value.rows == [
        (1, "tab or line break in orthography"),
        (2, "tab or line break in concept"),
        (4, "tab or line break in orthography, language"),
    ]


def test_write_report_refuses_empty(tmp_path):
    wl = Wordlist(())
    with pytest.raises(ValueError):
        write_report(wl, [], [], tmp_path / "r.tsv")


def test_wordlist_roundtrip_via_writer(tmp_path):
    wl = Wordlist(
        [
            entry("pat͡ʃi", label=0, concept="c1"),
            entry("zdra", label=1, language="german", concept="c1"),
            # TSV cells are literal: quotes come back as written
            LexicalEntry('"a" b', ("p", "a"), 'x"y', "noun", None, '"c2'),
        ]
    )
    path = tmp_path / "words.tsv"
    write_wordlist(wl, path)
    again = load_wordlist(path)
    assert again.entries == wl.entries
    assert again.language == "multi"


@pytest.mark.parametrize(
    "tokens, read",
    [
        (("p", " a"), ("p", "a")),  # whitespace is a separator
        (("pa",), ("p", "a")),  # one token of two symbols splits
        (("p", "a."), ("p", "a")),  # a syllable dot is stripped
        (("t\u0361", "ʃ"), ("t\u0361ʃ",)),  # a tie bar joins its neighbour
        (("p", "ˈ"), ("p",)),  # a stress mark vanishes
    ],
)
def test_write_wordlist_refuses_an_entry_that_loads_back_as_other_tokens(tokens, read, tmp_path):
    good = LexicalEntry("ta", ("t", "a"), "en", "noun")
    bad = LexicalEntry("pa", tokens, "en", "noun")
    path = tmp_path / "words.tsv"
    with pytest.raises(WordlistError) as err:
        write_wordlist(Wordlist([good, bad]), path)
    assert str(err.value) == (
        f"entry 'pa' has the IPA tokens {tokens!r}, which load back as {read!r}"
    )
    assert not path.exists()
    # the read-back is what the loader gives the written cell
    path.write_text(f"{HEADER}\npa\t{''.join(tokens)}\ten\tnoun\t\t\n", encoding="utf-8")
    assert load_wordlist(path).entries[0].ipa == read


def test_write_wordlist_escapes_a_token_that_nfc_changes(tmp_path):
    decomposed = "e\u0301"  # é as e + combining acute, which NFC composes
    bad = LexicalEntry("e", (decomposed,), "en", "noun")
    with pytest.raises(WordlistError) as err:
        write_wordlist(Wordlist([bad]), tmp_path / "words.tsv")
    assert str(err.value) == (
        "entry 'e' has the IPA tokens ('e\\u0301',), which load back as ('\\xe9',)"
    )


def test_wordlist_derives_its_language():
    pa = entry("pa")
    assert Wordlist([pa]).language == "english"
    assert Wordlist([pa, entry("ta", language="german")]).language == "multi"
    assert Wordlist(()).language == "empty"
    # any sequence of entries is stored as a tuple
    assert Wordlist([pa]) == Wordlist((pa,))
    assert Wordlist([pa]).entries == (pa,)
    with pytest.raises(TypeError):
        Wordlist([pa], language="german")


def test_strip_gold():
    wl = Wordlist([entry("pa", label=1)])
    blind = strip_gold(wl)
    assert blind.entries[0].gold_label is None


@given(
    st.lists(
        st.tuples(
            st.text(min_size=0, max_size=8),
            st.sampled_from(["noun", "verb", "adjective", "adverb", "function"]),
            st.sampled_from(["", "0", "1"]),
        ),
        min_size=0,
        max_size=8,
    )
)
def test_loaded_entries_satisfy_invariants(tmp_path_factory, rows):
    # random Unicode rows either load into valid entries or are rejected
    # with row-indexed errors; loaded entries always satisfy the entry
    # invariants
    path = tmp_path_factory.mktemp("fuzz") / "words.tsv"
    lines = [HEADER]
    for i, (ipa, pos, label) in enumerate(rows):
        ipa = ipa.replace("\t", " ").replace("\n", " ").replace("\r", " ")
        lines.append(f"w{i}\t{ipa}\tfuzz\t{pos}\t{label}\t")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        wl = load_wordlist(path)
    except (MalformedRowError, WordlistError):
        return
    for e in wl:
        assert len(e.ipa) >= 1
        assert e.pos in ("noun", "verb", "adjective", "adverb", "function")
        assert e.gold_label in (None, 0, 1)
        for marker in ("ː", "ˈ", "ˌ"):
            assert all(marker not in sym for sym in e.ipa)


def test_cell_past_the_csv_field_limit_is_refused(tmp_path):
    path = write_tsv(tmp_path, ["p" * 131_073 + "\tpa\ttoy\tnoun\t\t"])
    with pytest.raises(WordlistError, match="^unparseable delimited file .*field larger than "
                                            "field limit \\(131072\\)"):
        load_wordlist(path)


def test_zero_byte_file_loads_as_an_empty_wordlist(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_bytes(b"")
    assert load_wordlist(path) == Wordlist(())


def test_missing_required_column_is_refused(tmp_path):
    path = write_tsv(tmp_path, ["pa\tpa\ttoy"], header="orthography\tipa\tlanguage")
    with pytest.raises(WordlistError, match=f"^missing required column 'pos' in {path}$"):
        load_wordlist(path)


def test_report_columns_must_align_with_the_wordlist(tmp_path):
    wl = Wordlist([LexicalEntry("pa", ("p", "a"), "toy", "noun"),
                   LexicalEntry("ta", ("t", "a"), "toy", "noun")])
    path = tmp_path / "report.tsv"
    with pytest.raises(ValueError, match="^report columns do not align with the wordlist$"):
        write_report(wl, [0.5], [1, 0], path)
    assert not path.exists()


def test_read_report_refusals(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_report(tmp_path / "missing.tsv")
    header = "word\tlanguage\tprobability\tpredicted_label\n"
    latin = tmp_path / "latin.tsv"
    latin.write_bytes((header + "café\ttoy\t0.5\t1\n").encode("latin-1"))
    with pytest.raises(WordlistError, match=f"^{latin} is not UTF-8 text"):
        read_report(latin)
    wordy = tmp_path / "wordy.tsv"
    wordy.write_text(header + "pa\ttoy\t0.5\t1\nta\ttoy\thigh\t0\n", encoding="utf-8")
    with pytest.raises(WordlistError, match=f"^{wordy} line 3: could not convert string "
                                            "to float: 'high'$"):
        read_report(wordy)
