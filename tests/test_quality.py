"""Detection quality on corpora where word length gives nothing away.

The benchmark's generator (``perfbench/corpus.py``, loaded read-only)
gives loans the recipient's word shapes, so word length alone ranks loans
no better than chance. On quarter-size corpora of seeds 1-3, with the
default configuration, the detection score must rank loans above natives
better than word length does, and F1 must not fall below its recorded
floor. The floors are the F1 of the code that last raised them, rounded
down to six decimals; a change that raises F1 on purpose raises them. Run
with ``-s`` to print the numbers.
"""

import pytest

from loandetect import RunConfig, detect_scaled, detect_wordlist, load_wordlist
from loandetect.evaluation import evaluate

SCALE = 0.25
F1_FLOOR = {  # (workload, seed): F1 of the default configuration, rounded down
    ("mono", 1): 0.633720,
    ("mono", 2): 0.595870,
    ("mono", 3): 0.575851,
    ("xl", 1): 0.414565,
    ("xl", 2): 0.396449,
    ("xl", 3): 0.441791,
}


def rank_auc(scores, gold):
    """The chance that a random loan outscores a random native, ties counting half."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and scores[order[end + 1]] == scores[order[start]]:
            end += 1
        for k in range(start, end + 1):
            ranks[order[k]] = (start + end) / 2 + 1
        start = end + 1
    n_loans = sum(gold)
    n_natives = len(gold) - n_loans
    loan_ranks = sum(r for r, g in zip(ranks, gold) if g)
    return (loan_ranks - n_loans * (n_loans + 1) / 2) / (n_loans * n_natives)


@pytest.mark.parametrize("workload, seed", sorted(F1_FLOOR))
def test_score_beats_word_length(corpus, tmp_path, workload, seed):
    entries = corpus.generate(workload, seed, SCALE)
    path = tmp_path / "input.tsv"
    corpus.write_tsv(entries, path)
    vocab = load_wordlist(path)
    gold = [e.gold for e in entries]
    if workload == "mono":
        scores, predicted, _ = detect_wordlist(vocab, RunConfig())
    else:
        result = detect_scaled(vocab, RunConfig())
        scores, predicted = result.composite, result.predicted
    f1 = evaluate(predicted, gold).f1
    auc = rank_auc(scores, gold)
    length_auc = rank_auc([len(e.ipa) for e in vocab], gold)
    print(f"{workload} seed {seed}: F1 {f1:.6f}, AUC {auc:.3f}, length-only AUC {length_auc:.3f}")
    assert auc > length_auc
    assert f1 >= F1_FLOOR[workload, seed]
