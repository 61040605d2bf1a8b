"""CLI surface tests: exit codes, outputs, config round-trips, determinism."""

import csv
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import loandetect
from loandetect.cli import main
from loandetect.config import RunConfig, load_config, parse_config_text
from loandetect.evaluation import generate_synthetic, generate_synthetic_multilingual
from loandetect.features import CORE_FEATURES
from loandetect.refiner import detect_wordlist
from loandetect.wordlist import Wordlist, load_wordlist, read_report, write_wordlist

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


def test_non_finite_setting_exit_code(vocab_file, tmp_path):
    out = tmp_path / "report.tsv"
    code = main(
        ["detect", "--input", str(vocab_file), "--output", str(out), "--set", "center=nan"]
    )
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "settings",
    [
        ["polarity_avg_trans_prob=0"],
        ["mode=aug"] + [f"weight_{n}=0" for n in CORE_FEATURES],
        ["threshold_beta=10"],
        ["threshold_beta=-3"],
        ["context_smoothing=0.1"],
        ["divergence_lambda=1"],
        ["composite_w1=1e308", "composite_w2=1e308"],
        ["rare_ngram_c1=1.7e308", "rare_ngram_eps1=0.9", "rare_ngram_eps2=0.95"],
        ["weight_rare_ngram_scor=5"],
    ],
)
@pytest.mark.parametrize("command", ["detect", "detect-xl"])
def test_out_of_range_setting_exit_code(command, settings, vocab_file, multi_file, tmp_path,
                                        capsys):
    out = tmp_path / "report.tsv"
    source = multi_file if command == "detect-xl" else vocab_file
    argv = [command, "--input", str(source), "--output", str(out)]
    for item in settings:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    assert not out.exists()


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


def test_boosts_near_float_max_yield_finite_report(vocab_file, tmp_path):
    # every probability underflows to 0 and the boost factors overflow to inf
    out = tmp_path / "report.tsv"
    argv = ["detect", "--input", str(vocab_file), "--output", str(out),
            "--set", "gamma=1e308", "--set", "center=100"]
    for name in CORE_FEATURES:
        argv += ["--set", f"anomaly_boost_{name}=1e308"]
    assert main(argv) == 0
    assert all(r.probability == 0.0 for r in read_report(out))


def run_cli(*argv):
    """The CLI in a fresh process, as a user runs it."""
    src = str(Path(loandetect.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "loandetect", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )


def test_detect_xl_prints_asymmetry_diagnostic_once(multi_file, tmp_path):
    proc = run_cli("detect-xl", "--input", str(multi_file), "--output", str(tmp_path / "x.tsv"))
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout + proc.stderr).count("asymmetry diagnostic") == 1
    assert "asymmetry diagnostic" in proc.stdout
    assert "no concept spans two languages" not in proc.stderr


def test_detect_xl_warns_when_no_concept_spans_two_languages(tmp_path):
    wl = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 10, 3, seed=3)
    path = tmp_path / "words.tsv"
    write_wordlist(Wordlist([e._replace(concept_id=f"c{i}") for i, e in enumerate(wl)]), path)
    proc = run_cli("detect-xl", "--input", str(path), "--output", str(tmp_path / "x.tsv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("no concept spans two languages") == 1


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


def test_eval_writes_its_table_when_stdout_closes_early(vocab_file, tmp_path, capsys,
                                                       monkeypatch):
    report, summary = tmp_path / "report.tsv", tmp_path / "summary.tsv"
    assert main(["detect", "--input", str(vocab_file), "--output", str(report)]) == 0

    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["eval", "--input", str(report), "--output", str(summary)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line.lower()]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert summary.read_text(encoding="utf-8").startswith("scope\tprecision")


def test_tab_or_line_break_in_a_cell_is_bad_input(multi_file, tmp_path, capsys):
    with open(multi_file, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    language, concept = rows[0].index("language"), rows[0].index("concept")
    bad = [list(row) for row in rows]
    bad[1][language] += "\tx"
    bad[2][concept] = bad[2][concept][:1] + "\n" + bad[2][concept][1:]
    for name, table in (("bad.csv", bad), ("good.csv", rows)):
        with open(tmp_path / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(table)
    report = tmp_path / "scaled.tsv"
    argv = ["detect-xl", "--csv", "--output", str(report), "--input"]
    assert main(argv + [str(tmp_path / "bad.csv")]) == 1
    err = capsys.readouterr().err
    assert "row 1: tab or line break in language" in err
    assert "row 2: tab or line break in concept" in err
    assert not report.exists()
    assert main(argv + [str(tmp_path / "good.csv")]) == 0
    assert len(read_report(report)) == len(rows) - 1


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


def test_detect_trace_rejects_language_unfit_for_a_file_name(vocab_file, tmp_path, capsys):
    entries = load_wordlist(vocab_file).entries
    mixed = Wordlist(
        [e._replace(language="de" if i % 2 else "en/gb") for i, e in enumerate(entries)]
    )
    source = tmp_path / "v.tsv"
    write_wordlist(mixed, source)
    report, trace = tmp_path / "r.tsv", tmp_path / "tr.tsv"
    argv = ["detect", "--input", str(source), "--output", str(report)]
    assert main(argv + ["--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "en/gb" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.tsv", "words.tsv"]
    assert main(argv) == 0
    assert report.exists()


@pytest.mark.parametrize("command", ["detect", "detect-xl", "ablate", "experiment", "eval"])
def test_output_over_an_input_is_refused(command, vocab_file, multi_file, tmp_path,
                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source = {"detect-xl": multi_file}.get(command, vocab_file)
    extra = ["--seed", "5", "--proportions", "1.0"] if command == "experiment" else []
    if command == "eval":
        assert main(["detect", "--input", str(vocab_file), "--output", "r.tsv"]) == 0
        source = tmp_path / "r.tsv"
    config = tmp_path / "run.cfg"
    config.write_text("tau = 0.3\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    link = tmp_path / "link.tsv"
    os.link(source, link)
    before = {p: p.read_bytes() for p in (source, config)}
    clashes = [
        ["--input", source.name, "--output", f"sub/../{source.name}"],
        ["--input", source.name, "--output", str(link)],  # a hard link: the same file
    ]
    if command != "eval":
        clashes.append(["--input", source.name, "--output", str(config),
                        "--config", str(config)])
    for argv in clashes:
        assert main([command, *argv, *extra]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "both read and written" in err
        assert {p: p.read_bytes() for p in (source, config)} == before
    assert main([command, "--input", source.name, "--output", "out.tsv", *extra]) == 0


def test_report_over_a_language_trace_is_refused(vocab_file, tmp_path, capsys):
    entries = load_wordlist(vocab_file).entries
    mixed = Wordlist(
        [e._replace(language="de" if i % 2 else "en") for i, e in enumerate(entries)]
    )
    source = tmp_path / "v.tsv"
    write_wordlist(mixed, source)
    cases = [(source, "r.de.tsv", "r.tsv"), (source, "r.en.tsv", "r.tsv"),
             (vocab_file, "r.tsv", "r.tsv")]  # the last has one language
    for words, report, trace in cases:
        argv = ["detect", "--input", str(words), "--output", str(tmp_path / report),
                "--trace", str(tmp_path / trace)]
        assert main(argv) == 1
        assert "written twice" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.tsv", "words.tsv"]
    argv = ["detect", "--input", str(source), "--output", str(tmp_path / "r.en.tsv"),
            "--trace", str(tmp_path / "t.tsv")]
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r.en.tsv", "t.de.tsv", "t.en.tsv", "v.tsv", "words.tsv"
    ]


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


def test_threads_rejected_exit_code(vocab_file, tmp_path, capsys):
    # no setting is called threads: neither the flag nor a config key exists
    argv = ["detect", "--input", str(vocab_file), "--output", str(tmp_path / "x")]
    assert main(argv + ["--threads", "4"]) == 1
    capsys.readouterr()
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("threads = 2\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


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
    misspelt = tmp_path / "misspelt.json"
    misspelt.write_text(
        '{"language": "toy", "consonants": ["p"], "vowels": ["a"], "max_syllable": 1}',
        encoding="utf-8",
    )
    unlabelled = tmp_path / "unlabelled.tsv"
    unlabelled.write_text(
        "orthography\tipa\tlanguage\tpos\n" + "".join(
            f"{w}\t{w}\ttoy\tnoun\n" for w in ("pata", "kisu", "mela", "tori")
        ),
        encoding="utf-8",
    )
    unscored = tmp_path / "unscored.tsv"
    unscored.write_text(
        "word\tlanguage\tprobability\tpredicted_label\nab\ttoy\t0.5\t1\n", encoding="utf-8"
    )
    bad_labels = tmp_path / "bad_labels.tsv"
    bad_labels.write_text(
        "word\tlanguage\tprobability\tpredicted_label\tgold_label\n"
        "pa\ttoy\t0.9\t1\t1\nta\ttoy\t0.1\t5\t0\nka\ttoy\t0.1\t0\t2\n",
        encoding="utf-8",
    )
    report_header = "word\tlanguage\tprobability\tpredicted_label\tgold_label\n"
    short_line = tmp_path / "short_line.tsv"
    short_line.write_text(report_header + "ta\ten\t0.1\n", encoding="utf-8")
    long_line = tmp_path / "long_line.tsv"
    long_line.write_text(report_header + "ta\ten\t0.1\t0\t1\tx\n", encoding="utf-8")
    native, donor = grammar_files(tmp_path)
    synth = ["synth", "--native-grammar", str(native), "--donor-grammar", str(donor),
             "--seed", "1", "--output", out]
    grammar = json.loads(native.read_text(encoding="utf-8"))
    unusable = []
    for name, extra in [
        ("zero_templates", {"template_weights": [0] * len(grammar["templates"])}),
        ("short_pos", {"pos_choices": ["noun", "verb"], "pos_weights": [1]}),
        ("string_transition", {"transitions": {grammar["consonants"][0]: {"a": "x"}}}),
        ("float_syllables", {"min_syllables": 1.7}),
        ("string_symbols", {"consonants": "t͡ʃk"}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**grammar, **extra}), encoding="utf-8")
        unusable.append((f"grammar with {name}", ["synth", "--native-grammar", str(path),
                                                  "--donor-grammar", str(donor), "--seed", "1",
                                                  "--output", out]))
    for name, symbols in [("split_symbol", {"consonants": ["t͡ʃk", "p"]}),
                          ("decomposed_symbol", {"vowels": ["a\u0303", "i"]})]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**grammar, **symbols}), encoding="utf-8")
        unusable.append((f"grammar with a {name} that loads back otherwise",
                         ["synth", "--native-grammar", str(path), "--donor-grammar",
                          str(donor), "--seed", "1", "--output", out]))
    padded = tmp_path / "padded_language.json"
    padded.write_text(json.dumps({**grammar, "language": " reca"}), encoding="utf-8")
    unusable.append(("grammar language with outer whitespace",
                     ["synth", "--native-grammar", str(padded), "--donor-grammar", str(donor),
                      "--seed", "1", "--output", out]))
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("tau = 0.4\ntau = 0.2\n", encoding="utf-8")
    folder = tmp_path / "folder"
    folder.mkdir()
    detect = ["detect", "--input", str(vocab_file), "--output", out]
    detect_xl = ["detect-xl", "--input", str(vocab_file), "--output"]
    return [
        ("non-UTF-8 wordlist", ["detect", "--input", str(latin1), "--output", out]),
        ("wordlist without entries", ["detect", "--input", str(header_only), "--output", out]),
        ("pos weight above 1", detect + ["--set", "pos_weight_noun=2"]),
        ("config key set twice", detect + ["--config", str(repeated)]),
        ("config key given twice", detect + ["--set", "tau=0.2", "--set", "tau=0.25"]),
        ("config key given by --set and a flag", detect + ["--set", "mode=aug", "--mode", "full"]),
        ("seed config key", detect + ["--set", "seed=1"]),
        ("mode weights all zero", detect + ["--mode", "no_ngram", "--set", "weight_len_z=0",
                                            "--set", "weight_rare_transition_score=0",
                                            "--set", "weight_trans_surprisal=0",
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
        ("grammar with an unknown key", ["synth", "--native-grammar", str(misspelt),
                                         "--donor-grammar", str(misspelt), "--seed", "1",
                                         "--output", out]),
        ("report without gold labels", ["eval", "--input", str(unscored)]),
        ("report label other than 0/1", ["eval", "--input", str(bad_labels)]),
        ("report line shorter than its header", ["eval", "--input", str(short_line)]),
        ("report line longer than its header", ["eval", "--input", str(long_line)]),
        ("integration above 1", synth + ["--integration", "1.5"]),
        ("integration below 0", synth + ["--integration", "-3"]),
        ("integration NaN", synth + ["--integration", "nan"]),
        ("ablate without gold labels", ["ablate", "--input", str(unlabelled), "--output", out]),
        ("experiment without gold labels", ["experiment", "--input", str(unlabelled),
                                            "--output", out, "--seed", "1"]),
        ("empty trace path", detect + ["--trace", ""]),
        ("trace path without a name", detect + ["--trace", "."]),
        ("detect output without a name", detect[:-1] + ["."]),
        ("detect output a directory", detect[:-1] + [str(folder)]),
        ("detect-xl empty output", detect_xl + [""]),
        ("detect-xl output without a name", detect_xl + ["."]),
        ("detect-xl output a directory", detect_xl + [str(folder)]),
        *unusable,
    ]


def test_bad_input_exit_code(vocab_file, tmp_path, capsys):
    for label, argv in _bad_inputs(tmp_path, vocab_file):
        assert main(argv) == 1, label
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err, label
        assert err.count("\n") == 1, label
    # a refused run writes no report, table or trace
    assert not (tmp_path / "out").exists()
    assert list((tmp_path / "folder").iterdir()) == []


def test_write_path_is_checked_before_the_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.tsv")
    cases = [
        (["detect", "--input", missing, "--output", "."], "names no file"),
        (["detect", "--input", missing, "--output", str(tmp_path / "r.tsv"),
          "--trace", str(tmp_path)], "is a directory"),
        (["detect-xl", "--input", missing, "--output", str(tmp_path)], "is a directory"),
        (["eval", "--input", missing, "--output", ""], "names no file"),
    ]
    for argv, message in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "missing.tsv" not in err, argv


def test_internal_value_error_exit_code(vocab_file, tmp_path, monkeypatch, capsys):
    from loandetect import cli

    def broken(*args, **kwargs):
        raise ValueError("bug in the detector")

    monkeypatch.setattr(cli, "detect_wordlist", broken)
    code = main(["detect", "--input", str(vocab_file), "--output", str(tmp_path / "x")])
    assert code == 2
    assert "internal error: bug in the detector" in capsys.readouterr().err


def test_unusable_user_path_exit_code(vocab_file, multi_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    # the second language's trace path (languages run in sorted order)
    second_trace = tmp_path / "t.reca.tsv"
    second_trace.mkdir()
    cases = [
        ("detect output is a directory",
         ["detect", "--input", str(vocab_file), "--output", str(taken)]),
        ("detect-xl output is a directory",
         ["detect-xl", "--input", str(multi_file), "--output", str(taken)]),
        ("trace is a directory",
         ["detect", "--input", str(vocab_file), "--output", str(tmp_path / "r.tsv"),
          "--trace", str(taken)]),
        ("a per-language trace is a directory",
         ["detect", "--input", str(multi_file), "--output", str(tmp_path / "r.tsv"),
          "--trace", str(tmp_path / "t.tsv")]),
        ("input is a directory",
         ["detect", "--input", str(taken), "--output", str(tmp_path / "r.tsv")]),
        ("output directory missing",
         ["detect", "--input", str(vocab_file), "--output", str(tmp_path / "no" / "r.tsv")]),
    ]
    for label, argv in cases:
        assert main(argv) == 1, label
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err, label
    # a failed write leaves neither a partial report nor its temporary file,
    # and a refused trace path leaves no other language's trace
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["multi.tsv", "t.reca.tsv", "taken", "words.tsv"]
    )
    assert list(taken.iterdir()) == list(second_trace.iterdir()) == []


def test_failed_detect_leaves_no_trace(vocab_file, tmp_path, monkeypatch, capsys):
    from loandetect import refiner

    entries = load_wordlist(vocab_file).entries
    mixed = Wordlist(
        [e._replace(language="de" if i % 2 else "en") for i, e in enumerate(entries)]
    )
    source = tmp_path / "v.tsv"
    write_wordlist(mixed, source)
    detect, calls = refiner.detect, []

    def second_group_fails(*args, **kwargs):
        calls.append(args[0].language)
        if len(calls) > 1:
            raise RuntimeError("bug in the second group")
        return detect(*args, **kwargs)

    monkeypatch.setattr(refiner, "detect", second_group_fails)
    argv = ["detect", "--input", str(source), "--output", str(tmp_path / "r.tsv"),
            "--trace", str(tmp_path / "t.tsv")]
    assert main(argv) == 2
    assert "internal error: bug in the second group" in capsys.readouterr().err
    # the first group was detected, but a trace is only written once every group is
    assert calls == ["de", "en"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.tsv", "words.tsv"]


def test_internal_os_error_exit_code(vocab_file, tmp_path, monkeypatch, capsys):
    from loandetect import cli

    def broken(*args, **kwargs):
        raise PermissionError(13, "Permission denied", "/nonexistent/cache/state")

    monkeypatch.setattr(cli, "detect_wordlist", broken)
    code = main(["detect", "--input", str(vocab_file), "--output", str(tmp_path / "x")])
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_module_entry_point_help():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import loandetect

    src = str(Path(loandetect.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "loandetect", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "detect-xl" in proc.stdout


def test_fallback_warning_logged_once(vocab_file, tmp_path, caplog):
    argv = ["detect", "--input", str(vocab_file), "--output", str(tmp_path / "r.tsv"),
            "--set", "tau=0.0001", "--set", "max_iterations=2"]
    assert main(argv) == 0
    fallbacks = [r for r in caplog.records if "falling back" in r.getMessage()]
    assert len(fallbacks) == 1
    assert fallbacks[0].getMessage().startswith("[")  # tagged with the language


PASS_LINE = re.compile(r"\[(\w+)\] iteration (\d+): \|B\|=(\d+), converged=(True|False)")


@pytest.mark.parametrize("command", ["detect", "detect-xl"])
def test_pass_lines_tagged_by_language(command, multi_file, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="loandetect.cli")
    assert main([command, "--input", str(multi_file), "--output", str(tmp_path / "r.tsv")]) == 0
    lines = [PASS_LINE.fullmatch(r.getMessage()) for r in caplog.records]
    logged = [m.groups() for m in lines if m]
    states = detect_wordlist(load_wordlist(multi_file))[2]
    assert list(states) == sorted(states) and len(states) == 2  # language_rows order
    expected = [
        (lang, str(s.iteration), str(len(s.loans)),
         str(state.converged and s is state.snapshots[-1]))
        for lang, state in states.items()
        for s in state.snapshots
    ]
    assert logged == expected
    assert all(r.name == "loandetect.cli" for r in caplog.records)


def test_fallback_warning_precedes_its_pass_line(multi_file, tmp_path, caplog):
    # every word is a loan at pass 0, so pass 1 of each language falls back
    caplog.set_level(logging.INFO, logger="loandetect.cli")
    argv = ["detect", "--input", str(multi_file), "--output", str(tmp_path / "r.tsv"),
            "--set", "tau=0.0001", "--set", "max_iterations=2"]
    assert main(argv) == 0
    tagged = [r for r in caplog.records if r.getMessage().startswith("[")]
    assert [(r.levelname, r.getMessage().split(":")[0]) for r in tagged] == [
        (level, f"[{lang}] iteration {t}")
        for lang in ("donb", "reca")
        for level, t in (("INFO", 0), ("WARNING", 1), ("INFO", 1))
    ]


@pytest.mark.parametrize("command", ["detect-xl", "ablate", "experiment"])
def test_autbor_only_commands_reject_uns(command, vocab_file, multi_file, tmp_path, capsys):
    # these commands run the iterative detector whatever the model key says
    argv = _accepted_argv(command, tmp_path, vocab_file, multi_file)
    assert main(argv + ["--model", "uns"]) == 1  # a flag only detect has
    capsys.readouterr()
    assert main(argv + ["--set", "model=uns"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and command in err


@pytest.mark.parametrize("command", ["detect", "detect-xl", "ablate", "experiment"])
def test_seed_is_no_config_key(command, vocab_file, multi_file, tmp_path, capsys):
    argv = _accepted_argv(command, tmp_path, vocab_file, multi_file)
    config = tmp_path / "seed.cfg"
    config.write_text("seed = 1\n", encoding="utf-8")
    for extra in (["--set", "seed=1"], ["--config", str(config)]):
        assert main(argv + extra) == 1
        assert capsys.readouterr().err == "error: unknown config key 'seed'\n"


@pytest.mark.parametrize("given, key", [
    (["--set", "tau=0.2", "--set", "tau=0.25"], "tau"),
    (["--set", "tau=0.2", "--set", "tau=0.2"], "tau"),
    (["--set", "mode=aug", "--mode", "full"], "mode"),
    (["--mode", "aug", "--set", "mode=aug"], "mode"),
    (["--set", "model=uns", "--model", "autbor"], "model"),
])
def test_key_given_twice_on_the_command_line_rejected(given, key, vocab_file, tmp_path, capsys):
    report = tmp_path / "r.tsv"
    argv = ["detect", "--input", str(vocab_file), "--output", str(report)]
    assert main(argv + given) == 1
    err = capsys.readouterr().err
    assert err == f"error: config key {key!r} is given twice on the command line\n"
    assert not report.exists()
    # a flag over a config-file value is precedence, not a repeat
    config = tmp_path / "run.cfg"
    config.write_text("tau = 0.4\nmode = aug\n", encoding="utf-8")
    assert main(argv + ["--config", str(config), "--set", "tau=0.25", "--mode", "full"]) == 0
    header = [line for line in report.read_text(encoding="utf-8").splitlines() if line[:1] == "#"]
    assert "# tau = 0.25" in header and "# mode = full" in header


def _accepted_argv(command, tmp_path, vocab_file, multi_file):
    """An argv for ``command`` that exits 0."""
    out = str(tmp_path / f"{command}.out")
    if command == "eval":
        report = tmp_path / "report.tsv"
        if not report.exists():
            assert main(["detect", "--input", str(vocab_file), "--output", str(report)]) == 0
        return ["eval", "--input", str(report), "--output", out]
    if command == "synth":
        native, donor = grammar_files(tmp_path)
        return ["synth", "--native-grammar", str(native), "--donor-grammar", str(donor),
                "--n-native", "8", "--n-loans", "3", "--seed", "2", "--output", out]
    source = multi_file if command == "detect-xl" else vocab_file
    argv = [command, "--input", str(source), "--output", out]
    if command == "experiment":
        argv += ["--seed", "5", "--proportions", "1.0"]
    return argv


@pytest.mark.parametrize(
    "command, flag",
    [
        ("detect-xl", ["--trace", "TRACE"]),
        ("eval", ["--trace", "TRACE"]),
        ("ablate", ["--trace", "TRACE"]),
        ("experiment", ["--trace", "TRACE"]),
        ("synth", ["--trace", "TRACE"]),
        ("detect", ["--model", "uns", "--trace", "TRACE"]),
        ("eval", ["--csv"]),
        ("eval", ["--lenient-pos"]),
        ("synth", ["--csv"]),
        ("synth", ["--lenient-pos"]),
        ("synth", ["--input", "VOCAB"]),
        ("synth", ["--mode", "aug"]),
        ("synth", ["--model", "autbor"]),
        ("ablate", ["--mode", "no_ngram"]),
        ("eval", ["--config", "CONFIG"]),
        ("eval", ["--set", "tau=0.2"]),
        ("eval", ["--mode", "full"]),
        ("eval", ["--model", "autbor"]),
        ("eval", ["--seed", "1"]),
        ("eval", ["--print-config"]),
        ("detect", ["--seed", "1"]),
        ("detect-xl", ["--seed", "1"]),
        ("ablate", ["--seed", "1"]),
        ("detect-xl", ["--model", "autbor"]),
        ("ablate", ["--model", "autbor"]),
        ("experiment", ["--model", "autbor"]),
        ("synth", ["--config", "CONFIG"]),
        ("synth", ["--set", "tau=0.2"]),
        ("synth", ["--print-config"]),
    ],
)
def test_unread_flag_rejected(command, flag, vocab_file, multi_file, tmp_path, capsys):
    argv = _accepted_argv(command, tmp_path, vocab_file, multi_file)
    config = tmp_path / "run.cfg"
    config.write_text("tau = 0.2\n", encoding="utf-8")
    values = {"TRACE": str(tmp_path / "trace.tsv"), "VOCAB": str(vocab_file), "CONFIG": str(config)}
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [values.get(f, f) for f in flag]) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "trace.tsv").exists()


@pytest.mark.parametrize("flag", ["-v", "--verbose"])
def test_verbose_flag_is_refused(flag, vocab_file, tmp_path, capsys):
    # nothing logs below INFO, so no flag lowers the level
    out = tmp_path / "r.tsv"
    argv = ["detect", "--input", str(vocab_file), "--output", str(out)]
    for refused in ([flag] + argv, argv + [flag]):
        assert main(refused) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_usage_refusals_name_the_fault(vocab_file, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("word\tlanguage\tprobability\tpredicted_label\tgold_label\n",
                     encoding="utf-8")
    out = str(tmp_path / "out.tsv")
    detect = ["detect", "--input", str(vocab_file), "--output", out]
    for argv, message in [
        (detect + ["--set", "tau"], "--set expects KEY=VALUE, got 'tau'"),
        (["detect", "--output", out], "--input is required"),
        (["eval", "--output", out], "--input is required"),
        (["eval", "--input", str(empty), "--output", out], "report is empty"),
    ]:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    assert not Path(out).exists()
