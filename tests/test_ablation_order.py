"""The paper's ablation order, on corpora where word length gives nothing away.

The paper's benchmark table ranks its feature sets full > augmented >
transition-ablated > n-gram-ablated, and puts the cross-linguistically
scaled model above the per-language basic one. On half-size corpora of
the benchmark's generator (``perfbench/corpus.py``, loaded read-only),
seeds 1-3, with ``convergence_fraction = 0`` as the benchmark runs,
``run_ablations`` must give that order on ``mono`` and the scaled model
must beat the basic one in F1 on ``xl``. Run with ``-s`` to print every
row, the stem-diversity baseline (``uns``) as well.
"""


import pytest

from loandetect import RunConfig, baseline, detect_scaled, load_wordlist
from loandetect.evaluation import evaluate_wordlist, run_ablations
from loandetect.wordlist import Wordlist

SCALE = 0.5
SEEDS = (1, 2, 3)
ORDER = ("full", "aug", "no_transition", "no_ngram")
CFG = RunConfig(convergence_fraction=0.0)


def labelled(corpus, workload, seed, tmp_path):
    """The corpus as the loader reads it, with the generator's gold labels."""
    entries = corpus.generate(workload, seed, SCALE)
    path = tmp_path / "input.tsv"
    corpus.write_tsv(entries, path)
    vocab = load_wordlist(path)
    return Wordlist([e._replace(gold_label=g.gold) for e, g in zip(vocab, entries)])


@pytest.mark.parametrize("seed", SEEDS)
def test_mono_ablations_fall_in_the_paper_order(corpus, tmp_path, seed):
    vocab = labelled(corpus, "mono", seed, tmp_path)
    reports = run_ablations(vocab, CFG)
    uns = evaluate_wordlist(vocab, baseline.detect_wordlist(vocab, CFG)[1])
    for name, report in [*reports.items(), ("uns", uns)]:
        print(f"mono seed {seed} {name:13s} P {report.precision:.3f} R {report.recall:.3f} "
              f"F1 {report.f1:.3f}")
    f1 = [reports[mode].f1 for mode in ORDER]
    assert all(a > b for a, b in zip(f1, f1[1:])), dict(zip(ORDER, f1))


@pytest.mark.parametrize("seed", SEEDS)
def test_xl_scaled_beats_basic(corpus, tmp_path, seed):
    vocab = labelled(corpus, "xl", seed, tmp_path)
    result = detect_scaled(vocab, CFG)
    basic = evaluate_wordlist(vocab, result.basic_predicted)
    scaled = evaluate_wordlist(vocab, result.predicted)
    for name, report in (("basic", basic), ("scaled", scaled)):
        print(f"xl seed {seed} {name:13s} P {report.precision:.3f} R {report.recall:.3f} "
              f"F1 {report.f1:.3f}")
    assert scaled.f1 > basic.f1
