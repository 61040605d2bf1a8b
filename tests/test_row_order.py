"""The order of the input rows changes no value (metamorphic).

Detection keys nothing on a row's position: permuting the rows of a
wordlist must give every entry bit-identical probabilities, scores and
labels, for ``detect_wordlist`` in every mode and for ``detect_scaled``.
Two float reductions once added in row order (the length variance of
``build_statistics`` and each word's divergence sum in
``crossling.comparability``) and moved results in the last bit; at full
size such a bit can flip a word across ``tau`` in one pass and spread to
every later pass. The corpora are the smallest that the benchmark's
generator (``perfbench/corpus.py``, loaded read-only) makes on which those
reductions moved a value under the reversed order: ``mono`` seed 3 (20
words) and ``xl`` seed 1 (70 words over four languages, so a concept
holds up to four words and a word's divergences have up to three terms).
"""

import random

import pytest

from loandetect import RunConfig, detect_scaled, detect_wordlist, load_wordlist
from loandetect.features import MODES
from loandetect.wordlist import Wordlist

SCALE = 0.005


def load(corpus, tmp_path, workload, seed):
    path = tmp_path / f"{workload}.tsv"
    corpus.write_tsv(corpus.generate(workload, seed, SCALE), path)
    return load_wordlist(path)


def permutations(vocab):
    """The rows reversed and three shuffles of them."""
    yield Wordlist(reversed(vocab.entries))
    for seed in range(3):
        entries = list(vocab.entries)
        random.Random(seed).shuffle(entries)
        yield Wordlist(entries)


def exact(values):
    """Each value with its floats as hex, so -0.0 and 0.0 differ too."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def by_entry(vocab, *columns):
    return {(e.language, e.ipa, e.concept_id): exact(row) for e, row in zip(vocab, zip(*columns))}


@pytest.mark.parametrize("mode", MODES)
def test_detect_wordlist_ignores_row_order(corpus, tmp_path, mode):
    vocab = load(corpus, tmp_path, "mono", 3)
    cfg = RunConfig(mode=mode)
    expected = by_entry(vocab, *detect_wordlist(vocab, cfg)[:2])
    for permuted in permutations(vocab):
        assert by_entry(permuted, *detect_wordlist(permuted, cfg)[:2]) == expected


def test_detect_scaled_ignores_row_order(corpus, tmp_path):
    vocab = load(corpus, tmp_path, "xl", 1)

    def scaled(wordlist):
        r = detect_scaled(wordlist, RunConfig())
        return by_entry(wordlist, r.basic, r.comparability, r.composite, r.thresholds,
                        r.predicted, r.basic_predicted)

    expected = scaled(vocab)
    assert len({e.language for e in vocab}) == 4
    for permuted in permutations(vocab):
        assert scaled(permuted) == expected
