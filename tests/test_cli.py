"""CLI surface tests: exit codes, outputs, config round-trips, determinism."""

import json

import pytest

from loandetect.cli import main
from loandetect.config import RunConfig, load_config, parse_config_text
from loandetect.evaluation import generate_synthetic, generate_synthetic_multilingual
from loandetect.wordlist import load_wordlist, read_report, write_wordlist

from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR


@pytest.fixture()
def vocab_file(tmp_path):
    wl = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 20, 6, seed=3)
    path = tmp_path / "words.tsv"
    write_wordlist(wl, path)
    return path


@pytest.fixture()
def multi_file(tmp_path):
    wl = generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 12, 4, seed=3)
    path = tmp_path / "multi.tsv"
    write_wordlist(wl, path)
    return path


def grammar_files(tmp_path):
    native = tmp_path / "native.json"
    donor = tmp_path / "donor.json"
    native.write_text(
        json.dumps(
            {
                "language": "reca",
                "consonants": list(NATIVE_GRAMMAR.consonants),
                "vowels": list(NATIVE_GRAMMAR.vowels),
                "templates": list(NATIVE_GRAMMAR.templates),
                "min_syllables": 2,
                "max_syllables": 3,
            }
        ),
        encoding="utf-8",
    )
    donor.write_text(
        json.dumps(
            {
                "language": "donb",
                "consonants": list(DONOR_GRAMMAR.consonants),
                "vowels": list(DONOR_GRAMMAR.vowels),
                "templates": list(DONOR_GRAMMAR.templates),
                "min_syllables": 3,
                "max_syllables": 4,
            }
        ),
        encoding="utf-8",
    )
    return native, donor


def test_detect_writes_report(vocab_file, tmp_path, capsys):
    out = tmp_path / "report.tsv"
    code = main(["detect", "--input", str(vocab_file), "--output", str(out)])
    assert code == 0
    rows = read_report(out)
    assert len(rows) == 26
    text = out.read_text(encoding="utf-8")
    assert "# tau = 0.3" in text  # resolved config echoed


def test_detect_missing_input_file(tmp_path):
    code = main(
        ["detect", "--input", str(tmp_path / "nope.tsv"), "--output", str(tmp_path / "r")]
    )
    assert code == 1


def test_detect_mode_flag_changes_output(vocab_file, tmp_path):
    full = tmp_path / "full.tsv"
    ablated = tmp_path / "ablated.tsv"
    assert main(["detect", "--input", str(vocab_file), "--output", str(full)]) == 0
    assert (
        main(
            [
                "detect", "--input", str(vocab_file), "--output", str(ablated),
                "--mode", "no_ngram",
            ]
        )
        == 0
    )
    assert "# mode = no_ngram" in ablated.read_text(encoding="utf-8")


def test_detect_uns_model(vocab_file, tmp_path):
    out = tmp_path / "uns.tsv"
    code = main(
        ["detect", "--input", str(vocab_file), "--output", str(out), "--model", "uns"]
    )
    assert code == 0
    assert len(read_report(out)) == 26


def test_print_config_roundtrip(vocab_file, tmp_path, capsys):
    code = main(
        [
            "detect", "--input", str(vocab_file), "--output", str(tmp_path / "x"),
            "--set", "tau=0.42", "--print-config",
        ]
    )
    assert code == 0
    dumped = capsys.readouterr().out
    values = parse_config_text(dumped)
    cfg = RunConfig().with_overrides(values)
    assert cfg.tau == 0.42
    # feeding the dump back as a config file reproduces the same resolution
    cfg_file = tmp_path / "resolved.cfg"
    cfg_file.write_text(dumped, encoding="utf-8")
    assert load_config(cfg_file).dump() == dumped


def test_config_file_and_flag_precedence(vocab_file, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("tau = 0.25\nmax_iterations = 3\n", encoding="utf-8")
    code = main(
        [
            "detect", "--input", str(vocab_file), "--output", str(tmp_path / "x"),
            "--config", str(cfg_file), "--set", "tau=0.6", "--print-config",
        ]
    )
    assert code == 0
    values = parse_config_text(capsys.readouterr().out)
    assert values["tau"] == "0.6"  # flag beats file
    assert values["max_iterations"] == "3"  # file beats default


def test_bad_config_key_exit_code(vocab_file, tmp_path):
    code = main(
        [
            "detect", "--input", str(vocab_file), "--output", str(tmp_path / "x"),
            "--set", "bogus_key=1",
        ]
    )
    assert code == 1


def test_detect_xl_extended_report(multi_file, tmp_path, capsys):
    out = tmp_path / "scaled.tsv"
    code = main(["detect-xl", "--input", str(multi_file), "--output", str(out)])
    assert code == 0
    lines = [
        l for l in out.read_text(encoding="utf-8").splitlines()
        if not l.startswith("#")
    ]
    header = lines[0].split("\t")
    for column in ("B", "C", "S", "theta", "predicted_label"):
        assert column in header
    assert "asymmetry diagnostic" in capsys.readouterr().out


def test_detect_xl_single_language_fallback(vocab_file, tmp_path):
    out = tmp_path / "scaled.tsv"
    # monolingual file without concepts: surfaced as an input error
    code = main(["detect-xl", "--input", str(vocab_file), "--output", str(out)])
    assert code == 1


def test_eval_command(vocab_file, tmp_path, capsys):
    report = tmp_path / "report.tsv"
    main(["detect", "--input", str(vocab_file), "--output", str(report)])
    summary = tmp_path / "summary.tsv"
    code = main(["eval", "--input", str(report), "--output", str(summary)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PRECISION" in out and "OVERALL" in out
    lines = summary.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("scope\tprecision")


def test_ablate_command(vocab_file, tmp_path, capsys):
    table = tmp_path / "modes.tsv"
    code = main(["ablate", "--input", str(vocab_file), "--output", str(table)])
    assert code == 0
    lines = table.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5  # header + four modes
    assert lines[1].startswith("full\t")


def test_experiment_command(vocab_file, tmp_path):
    table = tmp_path / "curve.tsv"
    code = main(
        [
            "experiment", "--input", str(vocab_file), "--output", str(table),
            "--seed", "5", "--proportions", "0.5,1.0",
        ]
    )
    assert code == 0
    lines = table.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


def test_experiment_requires_seed(vocab_file, tmp_path, capsys):
    code = main(
        ["experiment", "--input", str(vocab_file), "--output", str(tmp_path / "t")]
    )
    assert code == 1  # usage errors count as input errors
    assert "--seed" in capsys.readouterr().err


def test_detect_trace_flag(vocab_file, tmp_path):
    trace = tmp_path / "trace.tsv"
    code = main(
        [
            "detect", "--input", str(vocab_file),
            "--output", str(tmp_path / "r.tsv"), "--trace", str(trace),
        ]
    )
    assert code == 0
    assert trace.exists()
    assert trace.read_text(encoding="utf-8").startswith("iteration\tword")


def test_synth_deterministic_files(tmp_path):
    native, donor = grammar_files(tmp_path)
    out1, out2 = tmp_path / "fix1.tsv", tmp_path / "fix2.tsv"
    args = [
        "synth", "--native-grammar", str(native), "--donor-grammar", str(donor),
        "--n-native", "15", "--n-loans", "5", "--seed", "7",
    ]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    wl = load_wordlist(out1)
    assert len(wl) == 20


def test_synth_multilingual(tmp_path):
    native, donor = grammar_files(tmp_path)
    out = tmp_path / "multi.tsv"
    code = main(
        [
            "synth", "--native-grammar", str(native), "--donor-grammar", str(donor),
            "--n-native", "8", "--n-loans", "3", "--seed", "2",
            "--multilingual", "--output", str(out),
        ]
    )
    assert code == 0
    wl = load_wordlist(out)
    assert wl.language == "multi"
    assert all(e.concept_id for e in wl)


def test_threads_below_one_exit_code(vocab_file, tmp_path):
    for threads in ("0", "-3"):
        code = main(
            [
                "detect", "--input", str(vocab_file), "--output", str(tmp_path / "x"),
                "--threads", threads,
            ]
        )
        assert code == 1


def _bad_inputs(tmp_path, vocab_file):
    """(label, argv) pairs that are bad input, each reaching a different check."""
    out = str(tmp_path / "out")
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes(vocab_file.read_bytes() + "x\txé\ttoy\tnoun\t\t\n".encode("latin-1"))
    header_only = tmp_path / "header.tsv"
    header_only.write_text("orthography\tipa\tlanguage\tpos\n", encoding="utf-8")
    no_column = tmp_path / "report.tsv"
    no_column.write_text("word\tlanguage\nab\ttoy\n", encoding="utf-8")
    bad_json = tmp_path / "grammar.json"
    bad_json.write_text("{not json", encoding="utf-8")
    json_list = tmp_path / "list.json"
    json_list.write_text("[]", encoding="utf-8")
    detect = ["detect", "--input", str(vocab_file), "--output", out]
    return [
        ("non-UTF-8 wordlist", ["detect", "--input", str(latin1), "--output", out]),
        ("wordlist without entries", ["detect", "--input", str(header_only), "--output", out]),
        ("pos weight above 1", detect + ["--set", "pos_weight_noun=2"]),
        ("mode weights all zero", detect + ["--mode", "no_ngram", "--set", "weight_len_z=0",
                                            "--set", "weight_rare_transition_score=0",
                                            "--set", "weight_trans_entropy=0",
                                            "--set", "weight_avg_trans_prob=0"]),
        ("proportion not a number", ["experiment", "--input", str(vocab_file), "--output", out,
                                     "--seed", "1", "--proportions", "0.5,half"]),
        ("proportion above 1", ["experiment", "--input", str(vocab_file), "--output", out,
                                "--seed", "1", "--proportions", "1.5"]),
        ("report without a column", ["eval", "--input", str(no_column)]),
        ("grammar not JSON", ["synth", "--native-grammar", str(bad_json),
                              "--donor-grammar", str(bad_json), "--seed", "1",
                              "--output", out]),
        ("grammar not an object", ["synth", "--native-grammar", str(json_list),
                                   "--donor-grammar", str(json_list), "--seed", "1",
                                   "--output", out]),
    ]


def test_bad_input_exit_code(vocab_file, tmp_path, capsys):
    for label, argv in _bad_inputs(tmp_path, vocab_file):
        assert main(argv) == 1, label
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err, label


def test_internal_value_error_exit_code(vocab_file, tmp_path, monkeypatch, capsys):
    from loandetect import cli

    def broken(*args, **kwargs):
        raise ValueError("bug in the detector")

    monkeypatch.setattr(cli, "detect_wordlist", broken)
    code = main(["detect", "--input", str(vocab_file), "--output", str(tmp_path / "x")])
    assert code == 2
    assert "internal error: bug in the detector" in capsys.readouterr().err
