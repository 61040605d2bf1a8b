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
``synth`` writes from the same two grammars. Those grammars have one POS
and no transitions, so ``SYNTH_POS`` pins ``synth`` and ``synth
--multilingual`` on a pair whose POS choices and weights differ and whose
draws follow transition rows.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from loandetect import refiner
from loandetect.cli import main
from loandetect.evaluation import generate_synthetic, generate_synthetic_multilingual
from loandetect.wordlist import write_wordlist

from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR, POS_DONOR_GRAMMAR, POS_NATIVE_GRAMMAR

DETECT = {  # mode: (report, trace)
    "aug": (
        "12010ac922d8b4b6fbff44a6e186f64a310bbaf8afc81451b4bd937393fa2517",
        "4d20d4984b391712cbab671d1b4d7da3afdf461d116e5b6739b2d031387fce72",
    ),
    "full": (
        "9d8955d5501d78f44ac42aaded4bc5ba1aff89bc912d4367bd63ef95e6941e20",
        "80d1ea4ab7ddc48b901c885fdcbb2e5d92807f6dc982500d8393180c5f784bea",
    ),
    "no_ngram": (
        "cf0d06c9b3e8b52dbbe5ea12f328ff4d0c2580088050f8c5771d661ebefc20a0",
        "e17e7e6845cfbad24bf8f799e48c48b2da6c2225f3f3e4fa91bc050936878f33",
    ),
    "no_transition": (
        "d65404034febb718a0dec5a106e370de5234d998e3570f69283845eb745333b8",
        "20cf879995e30328cf2d9ff9b6fe8892bdf41864e1c265fc80d79acdffcc440d",
    ),
}
NGRAM_RANGES = {  # --set overrides: (report, trace), in mode full
    ("ngram_min=1",): (
        "8e6a63b86a6a51441c14a1a298113f740396122ffd57e8ed370086d730924863",
        "005eec459c7ac1ef1d77f2179a2d1635d9a940aa5d1abed70e96d1a7af7a22fd",
    ),
    ("ngram_min=3", "ngram_max=4"): (
        "f2a992900f7838abd9b15fada8991487ea876d4b0dbc1bbe9ceca6bc9f9f227a",
        "fb2eed6421a8549a112243779917e3ef43e7a9623052ee4490273fea1fbf9374",
    ),
    # past the corpus's longest word (12 symbols); the second range holds no n-gram
    ("ngram_max=1000",): (
        "c9baf12672a96a3a889ce5fa12f58d40eb63beb92ec0713a7dc85af7d562ec32",
        "cfede7499956efe7a7de694a73c8a4146ef988147c1661bc4faca70cf134d871",
    ),
    ("ngram_min=13", "ngram_max=20"): (
        "c55b931d10c93f8a19dd0bab77a9a8a23bab729b1afee4b2b913080ae20e3dc1",
        "012735a29cfa9f6e42cfcd9adfd23c55ddbcf3782f4b264215a4ffd02b16e488",
    ),
}
DETECT_XL = "fc77842c29ea1b1209ec90021503cd55c855ede5e2545fa7322dcb26b18bdec3"
GAP_PENALTIES = {  # --set gap_penalty: detect-xl report
    "0.3": "7c1f7b252bafb9f546a3e21156359f8b0f24896efb070ee2df25bba91cc9e568",
    "1.0": "ab71bcbc59a39ff269c032cc4317a2d20d51e6689d0b778d5b23346149a4e162",
}
REPEATING = {
    "report": "81ca9abc615844d68b0050d9aae0927eaded58d1fb85a05eed005ed55161554a",
    "trace": "bbb5bf33330568926dd5d4c96c6c4ecd860add88e556204bed582aa3485f26d3",
    "scaled": "08ab120bbe33381725b675644831b7e5dd26a5e9d803b66ab235bdb2c6475d51",
}
TABLES = {
    "eval": "701bc98785efd1a05d75e3fe21b601b28010ed6d67530028e5720f3f90b7cf90",
    "ablate": "200da985940c8e50861fde30c11701546bfde1faadd7b44f1e57d5e29549125c",
    "experiment": "3697fc65710a6a774caa77023d2843608748938f666294bbe038b7be126e63a8",
    "synth": "6ef4b365f65e70f84d35f3d5e8fb47d1ece5303deb5af2c22174e10aa766ef04",
    "synth_multilingual": "1ba073d449ed03479c2b248664dd9940f18347b1394c56af79f0b554a7479076",
}
SYNTH_POS = {  # synth --integration 0.5 from grammars with POS weights and transitions
    "synth": "fe00cf03a32e5d6737a30315e700284f14d158650ba78b4675b4807ec982f479",
    "synth_multilingual": "2214e978e9bea6b7be5081b8717b0125f89940e28f7079890e04fb876bf6c576",
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


def test_synth_pos_and_transition_draws_are_pinned(tmp_path):
    grammars = []
    for grammar in (POS_NATIVE_GRAMMAR, POS_DONOR_GRAMMAR):
        grammars.append(tmp_path / f"{grammar.language}.json")
        grammars[-1].write_text(json.dumps(asdict(grammar)), encoding="utf-8")
    out = {name: tmp_path / f"{name}.tsv" for name in SYNTH_POS}
    synth = ["synth", "--native-grammar", str(grammars[0]), "--donor-grammar",
             str(grammars[1]), "--seed", "5", "--n-native", "60", "--n-loans", "30",
             "--integration", "0.5"]
    assert main(synth + ["--output", str(out["synth"])]) == 0
    assert main(synth + ["--multilingual", "--output", str(out["synth_multilingual"])]) == 0
    assert {name: sha256(path) for name, path in out.items()} == SYNTH_POS
