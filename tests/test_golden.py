"""Pinned sha256 of detection reports on fixed generated corpora.

A change meant to keep behaviour (a speed-up, a refactor) must leave every
byte of these reports as it was: the ``detect`` report and ``--trace`` file
of a ``generate_synthetic`` corpus in each mode and, in mode ``full``,
with the n-gram ranges 1..10 and 3..4, and the ``detect-xl``
report of a ``generate_synthetic_multilingual`` corpus at the gap penalties
0.5 (the default), 0.3 and 1.0. Both run with
``convergence_fraction = 0``, so every pass runs. A change that alters
behaviour on purpose updates these hashes and says so in CHANGES.md.

``REPEATING`` pins a third pair of corpora on which passes repeat their
reference rows: the ``detect`` corpus's pass 2 reads the same rows as
pass 1 but is the first to refine by patterns, and later passes read the
rows of the pass before them, so ``refiner.detect`` reuses their
probabilities.

``TABLES`` pins every other file the commands write, on the same two
corpora: the ``eval`` table of the ``detect-xl`` report, the ``ablate``
and ``experiment`` tables of the ``detect`` corpus, and the wordlists
``synth`` writes from the same two grammars.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from loandetect import refiner
from loandetect.cli import main
from loandetect.evaluation import generate_synthetic, generate_synthetic_multilingual
from loandetect.wordlist import write_wordlist

from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR

DETECT = {  # mode: (report, trace)
    "aug": (
        "866bb3ace86ac4d765d8be6a8968a13a8a4debff14a83be0ada43d16c0452383",
        "4d20d4984b391712cbab671d1b4d7da3afdf461d116e5b6739b2d031387fce72",
    ),
    "full": (
        "aae872b5fefc3e79ba4a7ca637eac5764b875530938cfbd62ca54d7b241a2c97",
        "80d1ea4ab7ddc48b901c885fdcbb2e5d92807f6dc982500d8393180c5f784bea",
    ),
    "no_ngram": (
        "f1dcc07f9635b10e6678bacde135f581a456af91e6bf196602835dae6075cf48",
        "e17e7e6845cfbad24bf8f799e48c48b2da6c2225f3f3e4fa91bc050936878f33",
    ),
    "no_transition": (
        "c28271a15c917181088c270096e63416b150c26f600c64158284d59d0915d1b7",
        "20cf879995e30328cf2d9ff9b6fe8892bdf41864e1c265fc80d79acdffcc440d",
    ),
}
NGRAM_RANGES = {  # --set overrides: (report, trace), in mode full
    ("ngram_min=1",): (
        "ee5a22264707bfb6f6c7ec4a3c8ed928eb0cb7fefdc048368902742ba3330edc",
        "005eec459c7ac1ef1d77f2179a2d1635d9a940aa5d1abed70e96d1a7af7a22fd",
    ),
    ("ngram_min=3", "ngram_max=4"): (
        "ab4e70807f8fd8ef6d87794b2fa435e0998def32e37b60bcc101417f6dbcc6db",
        "fb2eed6421a8549a112243779917e3ef43e7a9623052ee4490273fea1fbf9374",
    ),
    # past the corpus's longest word (12 symbols); the second range holds no n-gram
    ("ngram_max=1000",): (
        "157390dc12a91d9b256d83ebfe52a184cfb6620e395fbb249c67488af50b86a9",
        "cfede7499956efe7a7de694a73c8a4146ef988147c1661bc4faca70cf134d871",
    ),
    ("ngram_min=13", "ngram_max=20"): (
        "7d8858f8d8ca2a800c35a69b6ca94f4364af60c00a0b3d442cb427a68e83e429",
        "012735a29cfa9f6e42cfcd9adfd23c55ddbcf3782f4b264215a4ffd02b16e488",
    ),
}
DETECT_XL = "b10e9ddd18633a2999fc89a206177b99bd45ce8a324682f835798039c67d9d69"
GAP_PENALTIES = {  # --set gap_penalty: detect-xl report
    "0.3": "0f6635fe7dbe2e7d6b03b11329aaad9eb09229fff194f7aaf5932447c7e7ce1c",
    "1.0": "53bd7deb130b00ea4e5fbedcb3cc4e152147b3fa024c357df08a20e801e717ff",
}
REPEATING = {
    "report": "303239a3a0367267f7940929fac79252b8e7dc1266521ae1397d3a4ad9fa6aeb",
    "trace": "bbb5bf33330568926dd5d4c96c6c4ecd860add88e556204bed582aa3485f26d3",
    "scaled": "f7a7597fc0f4a8abec0be75692a38ae820e462fd3a5a0d4f1f44749cdffcceba",
}
TABLES = {
    "eval": "701bc98785efd1a05d75e3fe21b601b28010ed6d67530028e5720f3f90b7cf90",
    "ablate": "200da985940c8e50861fde30c11701546bfde1faadd7b44f1e57d5e29549125c",
    "experiment": "3697fc65710a6a774caa77023d2843608748938f666294bbe038b7be126e63a8",
    "synth": "6ef4b365f65e70f84d35f3d5e8fb47d1ece5303deb5af2c22174e10aa766ef04",
    "synth_multilingual": "1ba073d449ed03479c2b248664dd9940f18347b1394c56af79f0b554a7479076",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode", sorted(DETECT))
def test_detect_report_and_trace_are_pinned(tmp_path, mode):
    words = tmp_path / "words.tsv"
    write_wordlist(
        generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 150, 40, seed=11, integration=0.3),
        words,
    )
    report, trace = tmp_path / "report.tsv", tmp_path / "trace.tsv"
    assert main(["detect", "--input", str(words), "--output", str(report),
                 "--trace", str(trace), "--mode", mode,
                 "--set", "convergence_fraction=0"]) == 0
    assert (sha256(report), sha256(trace)) == DETECT[mode]


@pytest.mark.parametrize("overrides", sorted(NGRAM_RANGES))
def test_detect_off_the_default_ngram_range_is_pinned(tmp_path, overrides):
    words = tmp_path / "words.tsv"
    write_wordlist(
        generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 150, 40, seed=11, integration=0.3),
        words,
    )
    report, trace = tmp_path / "report.tsv", tmp_path / "trace.tsv"
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(["detect", "--input", str(words), "--output", str(report),
                 "--trace", str(trace), "--set", "convergence_fraction=0", *sets]) == 0
    assert (sha256(report), sha256(trace)) == NGRAM_RANGES[overrides]


def detect_xl(tmp_path, *sets):
    """sha256 of the ``detect-xl`` report of the pinned multilingual corpus."""
    words = tmp_path / "multi.tsv"
    write_wordlist(
        generate_synthetic_multilingual(
            NATIVE_GRAMMAR, DONOR_GRAMMAR, 60, 20, seed=11, integration=0.3
        ),
        words,
    )
    report = tmp_path / "scaled.tsv"
    assert main(["detect-xl", "--input", str(words), "--output", str(report),
                 "--set", "convergence_fraction=0", *sets]) == 0
    return sha256(report)


def test_detect_xl_report_is_pinned(tmp_path):
    assert detect_xl(tmp_path) == DETECT_XL


@pytest.mark.parametrize("penalty", sorted(GAP_PENALTIES))
def test_detect_xl_off_the_default_gap_penalty_is_pinned(tmp_path, penalty):
    # 0.3 is not a binary fraction, so a float sum of its gap scores is inexact
    assert detect_xl(tmp_path, "--set", f"gap_penalty={penalty}") == GAP_PENALTIES[penalty]


def test_reports_with_repeated_references_are_pinned(tmp_path, monkeypatch):
    computed = []
    build = refiner.build_statistics
    monkeypatch.setattr(refiner, "build_statistics",
                        lambda *a: computed.append(a[1]) or build(*a))
    words, multi = tmp_path / "words.tsv", tmp_path / "multi.tsv"
    write_wordlist(
        generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 80, 20, seed=6, integration=0.5),
        words,
    )
    write_wordlist(
        generate_synthetic_multilingual(
            NATIVE_GRAMMAR, DONOR_GRAMMAR, 40, 12, seed=6, integration=0.5
        ),
        multi,
    )
    report, trace, scaled = (tmp_path / name for name in ("r.tsv", "t.tsv", "s.tsv"))
    assert main(["detect", "--input", str(words), "--output", str(report),
                 "--trace", str(trace), "--set", "convergence_fraction=0"]) == 0
    # passes 0, 1, 2 (same rows as pass 1, first to refine) and 3 compute
    assert len(computed) == 4 and computed[1] == computed[2] != computed[3]
    computed.clear()
    assert main(["detect-xl", "--input", str(multi), "--output", str(scaled),
                 "--set", "convergence_fraction=0"]) == 0
    assert len(computed) < 14  # two languages of seven passes each
    assert {name: sha256(path) for name, path in
            [("report", report), ("trace", trace), ("scaled", scaled)]} == REPEATING


def test_tables_and_synthetic_wordlists_are_pinned(tmp_path):
    words, multi, scaled = (tmp_path / name for name in ("words.tsv", "multi.tsv", "s.tsv"))
    write_wordlist(
        generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 150, 40, seed=11, integration=0.3),
        words,
    )
    write_wordlist(
        generate_synthetic_multilingual(
            NATIVE_GRAMMAR, DONOR_GRAMMAR, 60, 20, seed=11, integration=0.3
        ),
        multi,
    )
    grammars = []
    for grammar in (NATIVE_GRAMMAR, DONOR_GRAMMAR):
        grammars.append(tmp_path / f"{grammar.language}.json")
        grammars[-1].write_text(json.dumps(asdict(grammar)), encoding="utf-8")
    tables = {name: tmp_path / f"{name}.tsv" for name in TABLES}
    assert main(["detect-xl", "--input", str(multi), "--output", str(scaled),
                 "--set", "convergence_fraction=0"]) == 0
    assert main(["eval", "--input", str(scaled), "--output", str(tables["eval"])]) == 0
    assert main(["ablate", "--input", str(words), "--output", str(tables["ablate"])]) == 0
    assert main(["experiment", "--input", str(words), "--output", str(tables["experiment"]),
                 "--seed", "5", "--proportions", "0.5,1.0"]) == 0
    synth = ["synth", "--native-grammar", str(grammars[0]), "--donor-grammar",
             str(grammars[1]), "--seed", "11", "--integration", "0.3"]
    assert main(synth + ["--output", str(tables["synth"])]) == 0
    assert main(synth + ["--multilingual", "--output", str(tables["synth_multilingual"])]) == 0
    assert {name: sha256(path) for name, path in tables.items()} == TABLES
