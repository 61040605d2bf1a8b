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
        "8be0565121143aa5c6a8913367c07fd4167bf2d241c28ee452f9794ab0700ad4",
        "af35622248db5076d533c72174555dc40b3cba5b8d27825604c7861b575e8879",
    ),
    "full": (
        "b05979d5f87e1e6926448cbd5c79ff8488347223b450a62c0d44b903cec16aa1",
        "585cae928993c8aabf6e306a4efb28b0cf49dbe59d91e85dbcd19f51d03fb0e6",
    ),
    "no_ngram": (
        "a02fa800f218d8b7feced48ef3d8bfea5703d27d834a6325783dce030fd8a664",
        "77d9710109caa254035b30487affa1932349e0215675a03f6b195f1bd18656d3",
    ),
    "no_transition": (
        "04a4643b4d6626045048ab85819e9f9b10a3c0c50f918d32b4803c26691bf0e6",
        "a83ae141eee065dc304bed5fc8b9e480c0786ddbc1a3d6806dd3f8801d357813",
    ),
}
NGRAM_RANGES = {  # --set overrides: (report, trace), in mode full
    ("ngram_min=1",): (
        "cb6d7a16e005944817fa1f4d855816f546214465fa57162952d4d15d8c3fc52a",
        "5318bd913f5d2d0891ebf0ecfb7d801dd6aae4be4eebfb518dc9881f5b3112e0",
    ),
    ("ngram_min=3", "ngram_max=4"): (
        "9f4d377a832432569061f8f486b55098c53ba7faf51dbbf3a2a58ad9f67b580a",
        "37fe8f7112cf1c64f48ca6001074dd554c99026cc00be7fc2d5f597b742beb3f",
    ),
    # past the corpus's longest word (12 symbols); the second range holds no n-gram
    ("ngram_max=1000",): (
        "0d1725c4109b97118db46a313c32c10a86d291b9cef153db516014e263e415c9",
        "e7514127e62fe8249b6e73b01fe6724243f611cf71156103d9226e67500df138",
    ),
    ("ngram_min=13", "ngram_max=20"): (
        "a46e6a8ad1165a80f88d131afbc099ce047425225919ce08c2e5111300325b2b",
        "3fb5a69c5d874a09e556c7fe4225eb345001d9a14d17e58d3b032f561ce9197b",
    ),
}
DETECT_XL = "5f676c7dd03a1232082e93fb018e4616cdcd90ee1beae6398cb512fc17cba250"
GAP_PENALTIES = {  # --set gap_penalty: detect-xl report
    "0.3": "173abec774e0deb8a10d71fc24e4f1befd84624f1a7064c17eab1ff7e84d1aa3",
    "1.0": "fb2566c3b9c89dcfb4291b6dcc4159b039de283eecfcbeb7c55e01821da284ea",
}
REPEATING = {
    "report": "387eb30b88a0158760a8ed6c038d24b91be045716e92cf6a025e6c476fa5d255",
    "trace": "652aedb0117d9bf40d0e3b3dddb4559c66073915624812495b6d9f82d83231f7",
    "scaled": "89ddfe77c845d715202546e808c07f7dcdfe950cdf39ad86da0dfb12cba9d344",
}
TABLES = {
    "eval": "6a9c9f7607961c71d8f29ef81aa85aa0aaaf359731ab587961d7fa35a95df0a4",
    "ablate": "0c3ca7d4d3dbb3597080478ced15e0e91e6db06078bfa2f6b0d5960737cfcafa",
    "experiment": "064663bef0ce6bf8aed7f504e21e7f60ae65b44f19ac32ffc9107f216fe24a36",
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
        generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 80, 20, seed=5, integration=0.9),
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
