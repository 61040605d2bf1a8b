"""Diversity-based comparison system: stem follower variety as nativeness.

Each word's stem is the concatenation of its first two syllables (the
whole word when shorter). The number of distinct syllables that follow a
stem anywhere in the vocabulary is its diversity; min-max normalized
diversity is the nativeness score, and words under the threshold are
predicted loanwords.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from .config import RunConfig
from .ipa import syllabify
from .scoring import min_max
from .wordlist import Wordlist, language_rows

Word = tuple[str, ...]


def stem_of(word: Word) -> tuple[str, list[str]]:
    """Split a word into (stem, following syllables).

    The stem is the first two syllables joined; words with fewer than two
    syllables contribute their whole form.
    """
    syllables = ["".join(s) for s in syllabify(word)]
    stem = "".join(syllables[:2])
    return stem, syllables[2:]


def build_stem_index(words: Sequence[Word]) -> dict[str, frozenset[str]]:
    """Each stem of ``words`` with the distinct syllables that follow it."""
    following: dict[str, set[str]] = defaultdict(set)
    for w in words:
        stem, rest = stem_of(w)
        following[stem].update(rest)
    return {s: frozenset(f) for s, f in following.items()}


def nativeness_scores(words: Sequence[Word]) -> list[float]:
    """Min-max normalized stem-follower diversity per word, in [0, 1]."""
    if not words:
        raise ValueError("empty vocabulary")
    index = build_stem_index(words)
    return min_max([len(index[stem_of(w)[0]]) for w in words], 0.0)


def detect_wordlist(
    vocab: Wordlist, cfg: RunConfig | None = None
) -> tuple[list[float], list[int]]:
    """Score per language; returns (borrowing probability, label) per entry.

    The report-facing probability is 1 - nativeness so that, as in the
    main model, higher means more loan-like. A word is predicted borrowed
    when its nativeness score falls below the baseline threshold.
    """
    cfg = cfg or RunConfig()
    probabilities = [0.0] * len(vocab)
    labels = [0] * len(vocab)
    for indices in language_rows(vocab).values():
        scores = nativeness_scores([vocab.entries[i].ipa for i in indices])
        for local, global_i in enumerate(indices):
            probabilities[global_i] = 1.0 - scores[local]
            labels[global_i] = int(scores[local] < cfg.baseline_threshold)
    return probabilities, labels
