"""Distributional statistics and feature extraction.

All features are computed against a reference word set's statistics:
n-gram probabilities (n in [2, 10], normalized per n-gram length), bigram
transition probabilities (row-normalized per left symbol), and word-length
mean/standard deviation. N-grams or transitions absent from the reference
take probability 0, which is the maximum-penalty convention: during
iterative refinement the reference shrinks to native candidates, so
absence itself is the signal.

A language group is compiled once (``CompiledGroup``): every distinct
n-gram and transition of its words gets an integer id, and each word keeps
the ids of its n-grams and transitions and its CV pattern. A reference is
a list of the group's rows, whose ids ``build_statistics`` counts into
plain lists indexed by id, so a refinement pass reads each word's
probabilities by id instead of hashing symbol tuples again. The
tuple-keyed mappings of ``VocabStatistics`` (``ngram_prob``,
``trans_prob``) are views built on first read; detection reads none.
N-grams and transitions are interned as slices of a per-word string of
one character per symbol, not as symbol tuples (see ``CompiledGroup``).

``extract_all`` is the one feature path. It scores every word of the
statistics' group and reads the rarity constants from a ``RunConfig``,
whose ``validate`` is the only place they are checked. The n-gram block
and the transition block are one call each of ``_rarity_entropy``: one
loop per word over the word's ids reads each probability once and adds
its rarity term and its ``-p log2 p`` term to two running totals.
``avg_trans_prob`` is ``sum()`` of the word's transition probabilities,
and the segmental features of ``aug`` mode are one kernel per word over
its CV pattern or symbols. It returns feature columns, one list per
feature of the mode in ``feature_names`` order, which is the form
``scoring.score_all`` reads.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .ipa import cv_pattern

if TYPE_CHECKING:
    from .config import RunConfig

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
    """Multiset of the word's contiguous n-grams for n in [nmin, min(nmax, |w|)].

    ``CompiledGroup`` keeps their ids in this order, interning the same
    spans of the word's symbol string instead of building these tuples.
    """
    return [tuple(word[i : i + n]) for i, n in _spans(len(word), nmin, nmax)]


def _split(ids: array, sizes: list[int]) -> list[array]:
    """``ids`` cut into consecutive arrays of ``sizes``."""
    return [ids[end - k : end] for k, end in zip(sizes, accumulate(sizes))]


class CompiledGroup:
    """A word list interned once for repeated statistics and feature passes.

    Every distinct n-gram (n in [ngram_min, ngram_max]) and transition of
    the words gets an integer id. Word ``i`` keeps the ids of its n-grams
    (in ``word_ngrams`` order) in ``word_grams[i]``, of its transitions in
    ``word_trans[i]``, and its CV pattern in ``cv[i]`` (computed on first
    read). A group is built once per word list and never copied: statistics
    of any reference rows index the same ids.

    Each distinct symbol, unknown tokens included, is one character
    (``chr`` of its first-occurrence number), and a word is the string of
    its symbols' characters. An n-gram is interned as a slice of it, one
    ``setdefault`` per occurrence over the (start, stop) spans of the
    word's length in ``word_ngrams`` order, so ids number n-grams by first
    occurrence and ``gram_len`` is each key's length; transitions are the
    2-character slices. No tuple is built per occurrence: a dict keyed by
    n-gram tuples set the peak memory of a whole detection run.

    All ids are collected in flat lists and packed into arrays once the
    interning dict is dropped (``gram_tuples`` rebuilds the n-grams from
    word order): arrays made beside its keys scatter over the heap and
    raise the run's peak, and the dict, held for a whole run, would cost
    more memory than the per-pass statistics it serves.
    """

    def __init__(
        self,
        words: Iterable[Word],
        ngram_min: int = NGRAM_MIN,
        ngram_max: int = NGRAM_MAX,
    ):
        self.words = [tuple(w) for w in words]
        self.ngram_min, self.ngram_max = ngram_min, ngram_max
        code: dict[str, str] = {}
        strings = [
            "".join([code.setdefault(s, chr(len(code))) for s in w]) for w in self.words
        ]
        # spans[k]: the (start, stop) of every n-gram of a k-symbol word
        spans = [
            [(i, i + n) for i, n in _spans(k, ngram_min, ngram_max)]
            for k in range(max(map(len, strings), default=0) + 1)
        ]
        ids: dict[str, int] = {}
        grams = [ids.setdefault(s[a:b], len(ids)) for s in strings for a, b in spans[len(s)]]
        self.gram_len = array("i", map(len, ids))
        ids = {}
        trans = [
            ids.setdefault(s[i : i + 2], len(ids)) for s in strings for i in range(len(s) - 1)
        ]
        symbols = list(code)
        self.transitions = [(symbols[ord(a)], symbols[ord(b)]) for a, b in ids]
        del ids, code
        grams, trans = array("i", grams), array("i", trans)
        self.word_grams = _split(grams, [len(spans[len(s)]) for s in strings])
        self.word_trans = _split(trans, [max(len(s) - 1, 0) for s in strings])

    @cached_property
    def cv(self) -> list[str]:
        """The CV pattern of every word; only ``aug`` mode reads them."""
        return [cv_pattern(w) for w in self.words]

    def gram_tuples(self) -> list[tuple[str, ...]]:
        """The n-gram of every id."""
        grams: list[tuple[str, ...]] = [()] * len(self.gram_len)
        for w, ids in zip(self.words, self.word_grams):
            for g, (i, n) in zip(ids, _spans(len(w), self.ngram_min, self.ngram_max)):
                grams[g] = w[i : i + n]
        return grams


@dataclass(frozen=True, eq=False)
class VocabStatistics:
    """Distributional statistics of the reference ``rows`` of ``group``.

    ``ngram_counts``, ``ngram_probs`` and ``trans_probs`` are indexed by
    the ids of ``group``; ids absent from the reference count 0 and have
    probability 0. The tuple-keyed mappings and the segmental statistics
    are computed on first read; the detection loop reads none of them
    outside ``aug`` mode.
    """

    group: CompiledGroup
    rows: Sequence[int]
    ngram_counts: Sequence[int]
    ngram_probs: Sequence[float]
    trans_probs: Sequence[float]
    length_mean: float
    length_std: float

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
            cvs[r][i : i + 3] for r in self.rows for i in range(len(cvs[r]) - 2)
        )

    @cached_property
    def symbol_freq(self) -> Mapping[str, float]:
        words = self.group.words
        symbol_count = Counter(chain.from_iterable(words[r] for r in self.rows))
        total = sum(symbol_count.values())
        return {s: c / total for s, c in symbol_count.items()}


def build_statistics(group: CompiledGroup, rows: Sequence[int] | None = None) -> VocabStatistics:
    """Count n-grams, transitions, and lengths over the words ``rows`` of ``group``.

    ``None`` counts every word. The n-gram range is the group's, fixed
    when it was compiled. N-gram probabilities are normalized within each
    n-gram length, so for every n the probabilities of the observed
    n-grams of that length sum to 1. The length standard deviation is
    population-based and replaced by 1 when fewer than two words are
    available or the variance is zero.
    """
    rows = range(len(group.words)) if rows is None else rows
    if not rows:
        raise EmptyReferenceError("reference word set is empty")

    lengths = [len(group.words[r]) for r in rows]
    nmin, nmax = group.ngram_min, group.ngram_max
    # each word of length L has L - n + 1 n-grams of every length n <= L
    totals_by_len = [0] * (nmax + 1)
    for length, count in Counter(lengths).items():
        for n in range(nmin, min(nmax, length) + 1):
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
        rows=rows,
        ngram_counts=ngram_counts,
        ngram_probs=ngram_probs,
        trans_probs=trans_probs,
        length_mean=mean,
        length_std=std,
    )


def _count_ids(word_ids: Sequence[Sequence[int]], rows: Iterable[int], size: int) -> list[int]:
    counts = [0] * size
    for r in rows:
        for i in word_ids[r]:
            counts[i] += 1
    return counts


# --- Feature kernels --------------------------------------------------------------


def _rarity_entropy(
    word_ids: Sequence[Sequence[int]],
    probs: Sequence[float],
    eps1: float,
    eps2: float,
    c1: float,
    c2: float,
) -> tuple[list[float], list[float]]:
    """Rarity and entropy columns of the words whose ids are ``word_ids``.

    One loop per word reads each id's probability p once. The rarity is
    the mean two-tier penalty: p adds c1*(eps1-p) when p < eps1, else
    c2*(eps2-p) when p < eps2, else nothing. The entropy is -sum p log2 p
    (0 log 0 = 0). A word without ids scores 0 on both. The columns are
    allocated at their final size, not grown by appends, whose
    reallocations leave freed buffers in the heap and raise a run's peak
    RSS.
    """
    rarity = [0.0] * len(word_ids)
    entropy = [0.0] * len(word_ids)
    log2 = math.log2
    for k, ids in enumerate(word_ids):
        total = h = 0.0
        for i in ids:
            p = probs[i]
            if p < eps1:
                total += c1 * (eps1 - p)
            elif p < eps2:
                total += c2 * (eps2 - p)
            if p > 0.0:
                h -= p * log2(p)
        if ids:
            rarity[k] = total / len(ids)
        entropy[k] = h
    return rarity, entropy


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


# --- Mode dispatch --------------------------------------------------------------


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


def extract_all(stats: VocabStatistics, cfg: RunConfig) -> dict[str, list[float]]:
    """Feature columns of every word of ``stats.group`` against ``stats``.

    One column per feature of ``cfg.mode``, in ``feature_names`` order,
    each holding one value per word of the group. The group must be
    compiled for ``cfg``'s n-gram range. Each block (n-grams, transitions)
    is one ``_rarity_entropy`` pass over the words' ids, which reads each
    probability once by id; ``avg_trans_prob`` is ``sum()`` over the
    word's transition probabilities in id order, as from Python 3.12 on
    ``sum()`` is compensated and a running total would change its bits.
    Words of length 1 have no n-grams or transitions; their sequence
    features are 0.
    """
    group = stats.group
    if (group.ngram_min, group.ngram_max) != (cfg.ngram_min, cfg.ngram_max):
        raise ValueError(
            f"group compiled for n-grams {group.ngram_min}..{group.ngram_max}, "
            f"asked for {cfg.ngram_min}..{cfg.ngram_max}"
        )
    names = feature_names(cfg.mode)
    words = group.words
    columns: dict[str, list[float]] = {}
    if "rare_ngram_score" in names:
        columns["rare_ngram_score"], columns["ngram_entropy"] = _rarity_entropy(
            group.word_grams, stats.ngram_probs,
            cfg.rare_ngram_eps1, cfg.rare_ngram_eps2, cfg.rare_ngram_c1, cfg.rare_ngram_c2,
        )
    if "rare_transition_score" in names:
        trans_p = stats.trans_probs
        columns["rare_transition_score"], columns["trans_entropy"] = _rarity_entropy(
            group.word_trans, trans_p,
            cfg.rare_trans_eps1, cfg.rare_trans_eps2, cfg.rare_trans_c1, cfg.rare_trans_c2,
        )
        columns["avg_trans_prob"] = [
            sum(map(trans_p.__getitem__, ids)) / len(ids) if ids else 0.0
            for ids in group.word_trans
        ]
    mean, std = stats.length_mean, stats.length_std
    columns["len_z"] = [(len(w) - mean) / std for w in words]
    if cfg.mode == "aug":
        templates, freq = stats.cv_templates, stats.symbol_freq
        columns["cv_anomaly"] = [_cv_anomaly(cv, templates) for cv in group.cv]
        columns["char_dist_anomaly"] = [
            _char_dist(w, [freq.get(s, 0.0) for s in w]) for w in words
        ]
        columns["cluster_score"] = list(map(_cluster, group.cv))
        columns["vowel_ratio"] = list(map(_vowel_ratio, group.cv))
    return columns
