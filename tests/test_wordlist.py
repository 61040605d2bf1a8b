"""Wordlist loading, normalization, and report round-trip tests."""

import pytest
from hypothesis import example, given, strategies as st

from loandetect.wordlist import (
    EmptyTranscriptionError,
    LexicalEntry,
    MalformedRowError,
    UnknownPOSError,
    Wordlist,
    WordlistError,
    load_wordlist,
    make_wordlist,
    normalize_ipa,
    read_report,
    strip_gold,
    write_report,
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


def test_load_bom_header_matches_plain_file(tmp_path):
    rows = ["full\tfʊl\tenglish\tadjective\t0\tc1", "kaːta\tkaːta\tenglish\tnoun\t1\tc2"]
    plain = write_tsv(tmp_path, rows, name="plain.tsv")
    bom = tmp_path / "bom.tsv"
    bom.write_text("\n".join([HEADER] + rows) + "\n", encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_wordlist(bom).entries == load_wordlist(plain).entries


def test_read_report_skips_bom(tmp_path):
    wl = make_wordlist([LexicalEntry("ab", ("a", "b"), "x", "noun", 1)])
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


def test_load_rejects_duplicate_entries(tmp_path):
    path = write_tsv(
        tmp_path,
        ["a\tpa\tenglish\tnoun\t\t", "b\tpa\tenglish\tverb\t\t"],
    )
    with pytest.raises(WordlistError):
        load_wordlist(path)


def test_load_csv_flag(tmp_path):
    path = tmp_path / "words.csv"
    path.write_text(
        "orthography,ipa,language,pos,label,concept\nfull,fʊl,english,adjective,0,\n",
        encoding="utf-8",
    )
    wl = load_wordlist(path, delimiter=",")
    assert wl.entries[0].ipa == ("f", "ʊ", "l")


def test_multilingual_requires_concepts(tmp_path):
    path = write_tsv(
        tmp_path,
        ["a\tpa\tenglish\tnoun\t\tc1", "b\tba\tgerman\tnoun\t\t"],
    )
    with pytest.raises(MalformedRowError):
        load_wordlist(path)


def test_schema_remap(tmp_path):
    path = write_tsv(
        tmp_path,
        ["full\tfʊl\tenglish\tadjective"],
        header="word\ttranscription\tlang\tcategory",
    )
    wl = load_wordlist(
        path,
        schema={
            "orthography": "word",
            "ipa": "transcription",
            "language": "lang",
            "pos": "category",
        },
    )
    assert wl.entries[0].ipa == ("f", "ʊ", "l")


def test_normalize_ipa_examples():
    assert normalize_ipa("ˈrestorã") == ("r", "e", "s", "t", "o", "r", "ã")
    assert normalize_ipa("fʊl") == ("f", "ʊ", "l")
    # character filter over the marker codepoints, then tokenize
    assert normalize_ipa("aːˈb") == ("a", "b")
    assert normalize_ipa("ˌaˈb:c") == ("a", "b", "c")


def test_normalize_ipa_empty_after_stripping():
    with pytest.raises(EmptyTranscriptionError):
        normalize_ipa("ːˈ")


@given(st.text(min_size=1, max_size=12))
@example("0\r:")  # a marker hid the trailing whitespace from strip()
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
    wl = make_wordlist([entry("pa", label=1), entry("ti", label=0)])
    path = tmp_path / "report.tsv"
    write_report(wl, [0.8, 0.0], [1, 0], path, header_meta={"tau": 0.3})
    text = path.read_text(encoding="utf-8")
    assert "# tau = 0.3" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "word\tlanguage\tprobability\tpredicted_label\tgold_label"
    assert lines[1] == "pa\tenglish\t0.800000\t1\t1"
    assert lines[2] == "ti\tenglish\t0.000000\t0\t0"


def test_report_roundtrip_preserves_values(tmp_path):
    wl = make_wordlist(
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


def test_write_report_refuses_empty(tmp_path):
    wl = Wordlist(entries=(), language="empty")
    with pytest.raises(ValueError):
        write_report(wl, [], [], tmp_path / "r.tsv")


def test_wordlist_roundtrip_via_writer(tmp_path):
    wl = make_wordlist(
        [
            entry("pat͡ʃi", label=0, concept="c1"),
            entry("zdra", label=1, language="german", concept="c1"),
        ]
    )
    path = tmp_path / "words.tsv"
    write_wordlist(wl, path)
    again = load_wordlist(path)
    assert again.entries == wl.entries
    assert again.language == "multi"


def test_strip_gold():
    wl = make_wordlist([entry("pa", label=1)])
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
