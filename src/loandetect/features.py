"""Distributional statistics and per-word feature extraction.

All features are computed against a reference word set's statistics:
n-gram probabilities (n in [2, 10], normalized per n-gram length), bigram
transition probabilities (row-normalized per left symbol), and word-length
mean/standard deviation. N-grams or transitions absent from the reference
take probability 0, which is the maximum-penalty convention: during
iterative refinement the reference shrinks to native candidates, so
absence itself is the signal.

A language group is compiled once (``CompiledGroup``): every distinct
n-gram and transition of its words gets an integer id, and each word keeps
the ids of its n-grams and transitions and its CV pattern. Statistics of a
reference subset are plain lists indexed by those ids, so a refinement pass
counts ids and reads each word's probabilities by id instead of hashing
symbol tuples again. The tuple-keyed mappings of ``VocabStatistics``
(``ngram_prob``, ``ngram_count``, ``trans_prob``) are views built on first
read, for callers outside the detection loop.

Each feature formula is one kernel over a word's list of probabilities
(or its CV pattern); the per-word functions (``rare_ngram_score``, ...)
and ``extract_all`` call the same kernels.
"""

from __future__ import annotations

import copy
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .ipa import SymbolInventory, cv_pattern

Word = Sequence[str]

# Canonical feature names. The first six are the core set; the segmental
# block is added in "aug" mode only.
CORE_FEATURES = (
    "rare_ngram_score",
    "ngram_entropy",
    "rare_transition_score",
    "trans_entropy",
    "avg_trans_prob",
    "len_z",
)
SEGMENTAL_FEATURES = (
    "cv_anomaly",
    "char_dist_anomaly",
    "cluster_score",
    "vowel_ratio",
)
NGRAM_FEATURES = ("rare_ngram_score", "ngram_entropy")
TRANSITION_FEATURES = ("rare_transition_score", "trans_entropy", "avg_trans_prob")

MODES = ("full", "no_ngram", "no_transition", "aug")

NGRAM_MIN = 2
NGRAM_MAX = 10


class EmptyReferenceError(ValueError):
    pass


def _spans(length: int, nmin: int, nmax: int) -> Iterator[tuple[int, int]]:
    """(start, n) of every contiguous n-gram of a word of ``length`` symbols."""
    for n in range(nmin, min(nmax, length) + 1):
        for i in range(length - n + 1):
            yield i, n


def word_ngrams(
    word: Word, nmin: int = NGRAM_MIN, nmax: int = NGRAM_MAX
) -> list[tuple[str, ...]]:
    """Multiset of the word's contiguous n-grams for n in [nmin, min(nmax, |w|)]."""
    return [tuple(word[i : i + n]) for i, n in _spans(len(word), nmin, nmax)]


def word_transitions(word: Word) -> list[tuple[str, str]]:
    return [(word[i], word[i + 1]) for i in range(len(word) - 1)]


class CompiledGroup:
    """A word list interned once for repeated statistics and feature passes.

    Every distinct n-gram (n in [ngram_min, ngram_max]) and transition of
    the words gets an integer id. Word ``i`` keeps the ids of its n-grams
    (in ``word_ngrams`` order) in ``word_grams[i]``, of its transitions in
    ``word_trans[i]``, and its CV pattern in ``cv[i]``. ``rows`` are the
    words the group stands for: all of them, or those picked by
    ``subset``, which shares the id tables so that statistics of any
    subset index the same ids.

    Ids are kept in arrays and the n-gram tuples are dropped after
    interning (``gram_tuples`` rebuilds them): a tuple and an int object
    per distinct n-gram, held for a whole run, would cost more memory
    than the per-pass statistics they replace.
    """

    def __init__(
        self,
        words: Iterable[Word],
        ngram_min: int = NGRAM_MIN,
        ngram_max: int = NGRAM_MAX,
        inventory: SymbolInventory | None = None,
    ):
        self.words = [tuple(w) for w in words]
        self.ngram_min, self.ngram_max = ngram_min, ngram_max
        self.rows: Sequence[int] = range(len(self.words))
        gram_ids: dict[tuple[str, ...], int] = {}
        trans_ids: dict[tuple[str, str], int] = {}
        self.word_grams = [
            array("i", [
                gram_ids.setdefault(g, len(gram_ids))
                for g in word_ngrams(w, ngram_min, ngram_max)
            ])
            for w in self.words
        ]
        self.word_trans = [
            array("i", [trans_ids.setdefault(t, len(trans_ids)) for t in word_transitions(w)])
            for w in self.words
        ]
        self.gram_len = array("i", map(len, gram_ids))
        self.transitions = list(trans_ids)
        self.cv = [cv_pattern(w, inventory) for w in self.words]

    def gram_tuples(self) -> list[tuple[str, ...]]:
        """The n-gram of every id."""
        grams: list[tuple[str, ...]] = [()] * len(self.gram_len)
        for w, ids in zip(self.words, self.word_grams):
            for g, (i, n) in zip(ids, _spans(len(w), self.ngram_min, self.ngram_max)):
                grams[g] = w[i : i + n]
        return grams

    def subset(self, rows: Sequence[int]) -> "CompiledGroup":
        """The same compiled words, standing for ``rows`` only."""
        view = copy.copy(self)
        view.rows = rows
        return view


def _compiled(
    words: Iterable[Word] | CompiledGroup,
    ngram_min: int,
    ngram_max: int,
    inventory: SymbolInventory | None,
) -> CompiledGroup:
    if not isinstance(words, CompiledGroup):
        return CompiledGroup(words, ngram_min, ngram_max, inventory)
    if (words.ngram_min, words.ngram_max) != (ngram_min, ngram_max):
        raise ValueError(
            f"group compiled for n-grams {words.ngram_min}..{words.ngram_max}, "
            f"asked for {ngram_min}..{ngram_max}"
        )
    return words


@dataclass(frozen=True, eq=False)
class VocabStatistics:
    """Distributional statistics of a reference word set.

    ``ngram_counts``, ``ngram_probs`` and ``trans_probs`` are indexed by
    the ids of ``group``; ids absent from the reference count 0 and have
    probability 0. The tuple-keyed mappings and the segmental statistics
    are computed on first read; the detection loop reads none of them
    outside ``aug`` mode.
    """

    group: CompiledGroup
    ngram_counts: Sequence[int]
    ngram_probs: Sequence[float]
    trans_probs: Sequence[float]
    length_mean: float
    length_std: float
    word_count: int

    @cached_property
    def ngram_count(self) -> Mapping[tuple[str, ...], int]:
        grams = self.group.gram_tuples()
        return {grams[g]: c for g, c in enumerate(self.ngram_counts) if c}

    @cached_property
    def ngram_prob(self) -> Mapping[tuple[str, ...], float]:
        grams, counts = self.group.gram_tuples(), self.ngram_counts
        return {grams[g]: p for g, p in enumerate(self.ngram_probs) if counts[g]}

    @cached_property
    def trans_prob(self) -> Mapping[tuple[str, str], float]:
        transitions, probs = self.group.transitions, self.trans_probs
        return {transitions[t]: p for t, p in enumerate(probs) if p > 0.0}

    @cached_property
    def cv_templates(self) -> frozenset[str]:
        cvs = self.group.cv
        return frozenset(
            cvs[r][i : i + 3] for r in self.group.rows for i in range(len(cvs[r]) - 2)
        )

    @cached_property
    def symbol_freq(self) -> Mapping[str, float]:
        words = self.group.words
        symbol_count = Counter(chain.from_iterable(words[r] for r in self.group.rows))
        total = sum(symbol_count.values())
        return {s: c / total for s, c in symbol_count.items()}


def build_statistics(
    reference: Iterable[Word] | CompiledGroup,
    *,
    ngram_min: int = NGRAM_MIN,
    ngram_max: int = NGRAM_MAX,
    inventory: SymbolInventory | None = None,
) -> VocabStatistics:
    """Count n-grams, transitions, and lengths over a reference word set.

    ``reference`` is a word sequence or the rows of a ``CompiledGroup``
    (compiled for the same n-gram range; its inventory was fixed when it
    was compiled). N-gram probabilities are normalized within each n-gram
    length, so for every n the probabilities of the observed n-grams of
    that length sum to 1. The length standard deviation is
    population-based and replaced by 1 when fewer than two words are
    available or the variance is zero.
    """
    group = _compiled(reference, ngram_min, ngram_max, inventory)
    rows = group.rows
    if not rows:
        raise EmptyReferenceError("reference word set is empty")

    lengths = [len(group.words[r]) for r in rows]
    # each word of length L has L - n + 1 n-grams of every length n <= L
    totals_by_len = [0] * (ngram_max + 1)
    for length, count in Counter(lengths).items():
        for n in range(ngram_min, min(ngram_max, length) + 1):
            totals_by_len[n] += count * (length - n + 1)
    ngram_counts = _count_ids(group.word_grams, rows, len(group.gram_len))
    ngram_probs = [
        c / totals_by_len[n] if c else 0.0 for c, n in zip(ngram_counts, group.gram_len)
    ]

    trans_counts = _count_ids(group.word_trans, rows, len(group.transitions))
    out_count: Counter[str] = Counter()
    for (a, _), c in zip(group.transitions, trans_counts):
        out_count[a] += c
    trans_probs = [
        c / out_count[a] if c else 0.0 for (a, _), c in zip(group.transitions, trans_counts)
    ]

    mean = sum(lengths) / len(lengths)
    if len(lengths) < 2:
        std = 1.0
    else:
        var = sum((x - mean) ** 2 for x in lengths) / len(lengths)
        std = math.sqrt(var) if var > 0 else 1.0

    return VocabStatistics(
        group=group,
        ngram_counts=ngram_counts,
        ngram_probs=ngram_probs,
        trans_probs=trans_probs,
        length_mean=mean,
        length_std=std,
        word_count=len(lengths),
    )


def _count_ids(word_ids: Sequence[Sequence[int]], rows: Iterable[int], size: int) -> list[int]:
    counts = [0] * size
    for r in rows:
        for i in word_ids[r]:
            counts[i] += 1
    return counts


# --- Feature kernels --------------------------------------------------------------
# Each takes what one word contributes: the probabilities of its n-grams or
# transitions, in order, or its CV pattern.


def _rarity(probs: Sequence[float], eps1: float, eps2: float, c1: float, c2: float) -> float:
    """Mean two-tier rarity penalty over a word's n-gram or transition probabilities.

    Each probability p contributes c1*(eps1-p) when p < eps1, else
    c2*(eps2-p) when p < eps2, else nothing; no probabilities score 0.
    """
    if not probs:
        return 0.0
    total = 0.0
    for p in probs:
        if p < eps1:
            total += c1 * (eps1 - p)
        elif p < eps2:
            total += c2 * (eps2 - p)
    return total / len(probs)


def _entropy(probs: Sequence[float]) -> float:
    """-sum p log2 p over the probabilities (0 log 0 = 0)."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _mean(probs: Sequence[float]) -> float:
    """Arithmetic mean; no probabilities give 0."""
    if not probs:
        return 0.0
    return sum(probs) / len(probs)


def _cv_anomaly(cv: str, templates: frozenset[str]) -> float:
    """Fraction of the CV 3-templates of a pattern missing from ``templates``."""
    grams = [cv[i : i + 3] for i in range(len(cv) - 2)]
    if not grams:
        return 0.0
    missing = sum(1 for t in grams if t not in templates)
    return missing / len(grams)


def _char_dist(word: Word, ref_freq: Sequence[float]) -> float:
    """Mean |in-word symbol frequency - reference frequency| over the word's symbols."""
    if not word:
        return 0.0
    counts = Counter(word)
    return sum(abs(counts[s] / len(word) - q) for s, q in zip(word, ref_freq)) / len(word)


def _cluster(cv: str) -> float:
    """(longest consonant run - 1) / length of a CV pattern, floored at 0."""
    longest = max(len(run) for run in cv.split("V"))
    return max(longest - 1, 0) / len(cv)


def _vowel_ratio(cv: str) -> float:
    return cv.count("V") / len(cv)


def _check_tiers(eps1: float, eps2: float) -> None:
    if eps1 >= eps2:
        raise ValueError("eps1 must be below eps2")


# --- Per-word features --------------------------------------------------------------


def _ngram_probs(word: Word, stats: VocabStatistics, nmin: int, nmax: int) -> list[float]:
    return [stats.ngram_prob.get(g, 0.0) for g in word_ngrams(word, nmin, nmax)]


def _transition_probs(word: Word, stats: VocabStatistics) -> list[float]:
    return [stats.trans_prob.get(t, 0.0) for t in word_transitions(word)]


def rare_ngram_score(
    word: Word,
    stats: VocabStatistics,
    eps1: float = 0.005,
    eps2: float = 0.02,
    c1: float = 100.0,
    c2: float = 20.0,
    *,
    ngram_min: int = NGRAM_MIN,
    ngram_max: int = NGRAM_MAX,
) -> float:
    """Mean two-tier rarity penalty over the word's n-grams.

    Each n-gram with probability p contributes c1*(eps1-p) when p < eps1,
    else c2*(eps2-p) when p < eps2, else nothing. Words too short to have
    any n-gram score 0.
    """
    _check_tiers(eps1, eps2)
    return _rarity(_ngram_probs(word, stats, ngram_min, ngram_max), eps1, eps2, c1, c2)


def ngram_entropy(
    word: Word,
    stats: VocabStatistics,
    *,
    ngram_min: int = NGRAM_MIN,
    ngram_max: int = NGRAM_MAX,
) -> float:
    """-sum p(g) log2 p(g) over the word's n-gram multiset (0 log 0 = 0)."""
    return _entropy(_ngram_probs(word, stats, ngram_min, ngram_max))


def rare_transition_score(
    word: Word,
    stats: VocabStatistics,
    eps1: float = 0.01,
    eps2: float = 0.05,
    c1: float = 100.0,
    c2: float = 20.0,
) -> float:
    """Mean two-tier rarity penalty over the word's symbol transitions."""
    return _rarity(_transition_probs(word, stats), eps1, eps2, c1, c2)


def transition_entropy(word: Word, stats: VocabStatistics) -> float:
    return _entropy(_transition_probs(word, stats))


def avg_transition_prob(word: Word, stats: VocabStatistics) -> float:
    """Arithmetic mean transition probability; unseen transitions count 0."""
    return _mean(_transition_probs(word, stats))


def length_z(word: Word, stats: VocabStatistics) -> float:
    return (len(word) - stats.length_mean) / stats.length_std


# --- Segmental block (aug mode) ------------------------------------------------


def cv_anomaly(
    word: Word, stats: VocabStatistics, inventory: SymbolInventory | None = None
) -> float:
    """Fraction of the word's CV 3-templates unattested in the reference."""
    return _cv_anomaly(cv_pattern(word, inventory), stats.cv_templates)


def char_dist_anomaly(word: Word, stats: VocabStatistics) -> float:
    """Mean |in-word symbol frequency - reference symbol frequency|."""
    return _char_dist(word, [stats.symbol_freq.get(s, 0.0) for s in word])


def cluster_score(
    word: Word, inventory: SymbolInventory | None = None
) -> float:
    """(longest consonant run - 1) / |w|, floored at 0 for vowel-only words."""
    return _cluster(cv_pattern(word, inventory))


def vowel_ratio(word: Word, inventory: SymbolInventory | None = None) -> float:
    return _vowel_ratio(cv_pattern(word, inventory))


# --- Mode dispatch --------------------------------------------------------------


@dataclass(frozen=True)
class FeatureParams:
    """Constants governing the rarity penalties and n-gram range."""

    rare_ngram_eps1: float = 0.005
    rare_ngram_eps2: float = 0.02
    rare_ngram_c1: float = 100.0
    rare_ngram_c2: float = 20.0
    rare_trans_eps1: float = 0.01
    rare_trans_eps2: float = 0.05
    rare_trans_c1: float = 100.0
    rare_trans_c2: float = 20.0
    ngram_min: int = NGRAM_MIN
    ngram_max: int = NGRAM_MAX


def feature_names(mode: str) -> tuple[str, ...]:
    """The feature set extracted in a given mode."""
    if mode == "full":
        return CORE_FEATURES
    if mode == "no_ngram":
        return tuple(f for f in CORE_FEATURES if f not in NGRAM_FEATURES)
    if mode == "no_transition":
        return tuple(f for f in CORE_FEATURES if f not in TRANSITION_FEATURES)
    if mode == "aug":
        return CORE_FEATURES + SEGMENTAL_FEATURES
    raise ValueError(f"unknown mode {mode!r}")


def extract(
    word: Word,
    stats: VocabStatistics,
    mode: str = "full",
    params: FeatureParams | None = None,
    inventory: SymbolInventory | None = None,
) -> dict[str, float]:
    """Compute the feature vector for one word under the given mode.

    Words of length 1 have no n-grams or transitions; their sequence
    features are 0 by convention.
    """
    return extract_all([word], stats, mode, params, inventory)[0]


def extract_all(
    words: Sequence[Word] | CompiledGroup,
    stats: VocabStatistics,
    mode: str = "full",
    params: FeatureParams | None = None,
    inventory: SymbolInventory | None = None,
) -> list[dict[str, float]]:
    """Feature vectors of ``words`` (a sequence, or a group's rows) against ``stats``.

    A group sharing the id tables of ``stats`` reads probabilities by id;
    other words are compiled here and read the tuple-keyed views once per
    distinct n-gram and transition.
    """
    p = params or FeatureParams()
    names = feature_names(mode)
    with_ngrams = "rare_ngram_score" in names
    with_trans = "rare_transition_score" in names
    if with_ngrams:
        _check_tiers(p.rare_ngram_eps1, p.rare_ngram_eps2)
    group = _compiled(words, p.ngram_min, p.ngram_max, inventory)
    if group.word_grams is stats.group.word_grams:
        gram_p, trans_p = stats.ngram_probs, stats.trans_probs
    else:
        gram_p = [stats.ngram_prob.get(g, 0.0) for g in group.gram_tuples()]
        trans_p = [stats.trans_prob.get(t, 0.0) for t in group.transitions]
    mean, std = stats.length_mean, stats.length_std
    if mode == "aug":
        templates, freq = stats.cv_templates, stats.symbol_freq

    out: list[dict[str, float]] = []
    for r in group.rows:
        word = group.words[r]
        vec: dict[str, float] = {}
        if with_ngrams:
            probs = [gram_p[g] for g in group.word_grams[r]]
            vec["rare_ngram_score"] = _rarity(
                probs, p.rare_ngram_eps1, p.rare_ngram_eps2, p.rare_ngram_c1, p.rare_ngram_c2
            )
            vec["ngram_entropy"] = _entropy(probs)
        if with_trans:
            probs = [trans_p[t] for t in group.word_trans[r]]
            vec["rare_transition_score"] = _rarity(
                probs, p.rare_trans_eps1, p.rare_trans_eps2, p.rare_trans_c1, p.rare_trans_c2
            )
            vec["trans_entropy"] = _entropy(probs)
            vec["avg_trans_prob"] = _mean(probs)
        vec["len_z"] = (len(word) - mean) / std
        if mode == "aug":
            cv = group.cv[r]
            vec["cv_anomaly"] = _cv_anomaly(cv, templates)
            vec["char_dist_anomaly"] = _char_dist(word, [freq.get(s, 0.0) for s in word])
            vec["cluster_score"] = _cluster(cv)
            vec["vowel_ratio"] = _vowel_ratio(cv)
        out.append(vec)
    return out
