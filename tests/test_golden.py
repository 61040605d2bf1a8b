"""Pinned sha256 of detection reports on fixed generated corpora.

A change meant to keep behaviour (a speed-up, a refactor) must leave every
byte of these reports as it was: the ``detect`` report and ``--trace`` file
of a ``generate_synthetic`` corpus in each mode, and the ``detect-xl``
report of a ``generate_synthetic_multilingual`` corpus. Both run with
``convergence_fraction = 0``, so every pass runs. A change that alters
behaviour on purpose updates these hashes and says so in CHANGES.md.
"""

import hashlib

import pytest

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
DETECT_XL = "b10e9ddd18633a2999fc89a206177b99bd45ce8a324682f835798039c67d9d69"


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


def test_detect_xl_report_is_pinned(tmp_path):
    words = tmp_path / "multi.tsv"
    write_wordlist(
        generate_synthetic_multilingual(
            NATIVE_GRAMMAR, DONOR_GRAMMAR, 60, 20, seed=11, integration=0.3
        ),
        words,
    )
    report = tmp_path / "scaled.tsv"
    assert main(["detect-xl", "--input", str(words), "--output", str(report),
                 "--set", "convergence_fraction=0"]) == 0
    assert sha256(report) == DETECT_XL
