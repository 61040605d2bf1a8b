"""Distributional statistics and feature extraction.

All features are computed against a reference word set's statistics:
n-gram probabilities (n in [2, 10], normalized per n-gram length), bigram
transition probabilities (row-normalized per left symbol), and word-length
mean/standard deviation. N-grams or transitions absent from the reference
take probability 0, which is the maximum-penalty convention: during
iterative refinement the reference shrinks to native candidates, so
absence itself is the signal.

The two surprisal features are a word's mean of ``-log2 max(p, floor)``
over its n-grams and over its transitions. The floor is half the
smallest probability the reference can give: ``0.5 / T_n`` for an n-gram
of length n, with T_n the reference's number of n-grams of that length,
and ``0.5 / T_2`` for a transition, with T_2 its number of transitions.
Every seen probability is at least ``1 / T_n``, so the floor moves only
the unseen ones, which all take it. A length of which the reference
holds no n-gram (T_n = 0) takes the floor 0.5, as a reference of one
n-gram would.

A language group is compiled once (``CompiledGroup``): every distinct
n-gram and transition of its words gets an integer id, and each word keeps
the ids of its n-grams and transitions and its CV pattern. N-grams and
transitions are interned as slices of a per-word string of one character
per symbol, not as symbol tuples (see ``CompiledGroup``).

Most n-grams occur in one word of the group only (about 87% of the
distinct n-grams of a 4,000-word list). Such an n-gram counts 1 in a
reference that holds its word and 0 in one that does not, so its
probability is 1/T_n or 0, where T_n is the reference's number of n-grams
of length n. The group therefore folds them: the n-grams that occur more
than once keep dense ids 0..k-1, and every once-seen n-gram of length n
shares the slot id k + n - ngram_min. A pass then computes one
probability per shared id and per slot instead of one per n-gram.

A reference is a set of the group's rows, whose folded n-gram ids and
transition ids ``build_statistics`` counts into plain lists indexed by id.
Given the statistics of an earlier reference of the same group, it starts
from their counts, adds the rows that entered and subtracts the rows that
left: exact integer arithmetic, so a refinement pass, whose reference
moves by a few rows, counts only those. The folded ids are the group's
only n-gram numbering. The tuple-keyed mappings of ``VocabStatistics``
(``ngram_prob``, ``trans_prob``) are built from them on first read;
detection reads neither.

``extract_all`` is the one feature path. It scores every word of the
statistics' group and reads the rarity constants from a ``RunConfig``,
whose ``validate`` is the only place they are checked. Each block
(n-grams, transitions) computes the rarity term and ``log2 max(p,
floor)`` of every id's probability once (``_terms``), reading the floor
of the id's length from a table built once per length; for n-grams that
is one table for the reference rows, whose slots read 1/T_n, and one for
the other rows, whose slots read 0. ``_rarity_surprisal`` then adds up
each word's table entries in one loop per word. ``avg_trans_prob`` is
``sum()`` of the word's transition probabilities, and the segmental
features of ``aug`` mode are one kernel per word over its CV pattern or
symbols. It returns feature columns, one list per feature of the mode in
``feature_names`` order, which is the form ``scoring.score_all`` reads.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .ipa import cv_pattern
from .records import FrozenRecord, _set

if TYPE_CHECKING:
    from .config import RunConfig

Word = Sequence[str]

# Canonical feature names. The first six are the core set; the segmental
# block is added in "aug" mode only.
CORE_FEATURES = (
    "rare_ngram_score",
    "ngram_surprisal",
    "rare_transition_score",
    "trans_surprisal",
    "avg_trans_prob",
    "len_z",
)
SEGMENTAL_FEATURES = (
    "cv_anomaly",
    "char_dist_anomaly",
    "cluster_score",
    "vowel_ratio",
)
NGRAM_FEATURES = ("rare_ngram_score", "ngram_surprisal")
TRANSITION_FEATURES = ("rare_transition_score", "trans_surprisal", "avg_trans_prob")

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
    the words gets an integer id. Word ``i`` keeps its folded n-gram ids
    (in ``word_ngrams`` order) in ``word_folded[i]``, its transition ids in
    ``word_trans[i]``, and its CV pattern in ``cv[i]`` (computed on first
    read). A group is built once per word list and never copied: statistics
    of any reference rows index the same ids.

    Each distinct symbol, unknown tokens included, is one character
    (``chr`` of its first-occurrence number), and a word is the string of
    its symbols' characters. An n-gram is interned as a slice of it, one
    ``setdefault`` per occurrence over the (start, stop) spans of the
    word's length in ``word_ngrams`` order, so ids number n-grams by first
    occurrence; transitions are the 2-character slices. No tuple is built
    per occurrence: a dict keyed by n-gram tuples set the peak memory of a
    whole detection run.

    The n-gram ids are then folded. The ``shared`` n-grams, which occur
    more than once in the group, are renumbered 0..shared-1 in id order,
    and every n-gram that occurs once takes the slot ``shared + n -
    ngram_min`` of its length n; ``fold_len`` is the length of each folded
    id. There is one slot per length n from ``ngram_min`` to
    ``min(ngram_max, longest word)``, as no n-gram is longer than its word.
    The folded ids are the group's only n-gram numbering; an n-gram's
    symbols are the span of its word at its position in ``word_ngrams``
    order.

    All ids are collected in flat lists and packed into arrays once the
    interning dict is dropped: arrays made beside its keys scatter over the
    heap and raise the run's peak, and the dict, held for a whole run,
    would cost more memory than the per-pass statistics it serves. For the
    same reason the folded arrays replace the unfolded ones rather than
    sit beside them.
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
        longest = max(map(len, strings), default=0)
        # spans[k]: the (start, stop) of every n-gram of a k-symbol word
        spans = [
            [(i, i + n) for i, n in _spans(k, ngram_min, ngram_max)] for k in range(longest + 1)
        ]
        ids: dict[str, int] = {}
        grams = [ids.setdefault(s[a:b], len(ids)) for s in strings for a, b in spans[len(s)]]
        lengths = list(map(len, ids))
        ids = {}
        trans = [
            ids.setdefault(s[i : i + 2], len(ids)) for s in strings for i in range(len(s) - 1)
        ]
        symbols = list(code)
        self.transitions = [(symbols[ord(a)], symbols[ord(b)]) for a, b in ids]
        del ids, code
        # fold the n-grams seen once into one slot per length
        seen = [0] * len(lengths)
        for g in grams:
            seen[g] += 1
        shared = [c > 1 for c in seen]
        self.shared = k = sum(shared)
        fold = [
            dense - 1 if repeated else k + n - ngram_min
            for repeated, dense, n in zip(shared, accumulate(shared), lengths)
        ]
        self.fold_len = array(
            "i", [n for repeated, n in zip(shared, lengths) if repeated]
        ) + array("i", range(ngram_min, min(ngram_max, longest) + 1))
        del seen, shared, lengths
        grams, trans = array("i", map(fold.__getitem__, grams)), array("i", trans)
        del fold
        self.word_folded = _split(grams, [len(spans[len(s)]) for s in strings])
        self.word_trans = _split(trans, [max(len(s) - 1, 0) for s in strings])

    @cached_property
    def cv(self) -> list[str]:
        """The CV pattern of every word; only ``aug`` mode reads them."""
        return [cv_pattern(w) for w in self.words]


class VocabStatistics(FrozenRecord):
    """Distributional statistics of the reference ``rows`` of ``group``.

    ``members[r]`` is 1 when row ``r`` is a reference row. ``gram_counts``
    is indexed by the folded ids of ``group``: a shared id's reference
    count, and for a slot the number of the reference's once-seen n-grams
    of its length. ``gram_totals[n]`` is T_n, the reference's number of
    n-grams of length n. ``trans_counts`` and ``trans_probs`` are indexed
    by transition id. Ids absent from the reference count 0 and have
    probability 0. The tuple-keyed mappings and the segmental statistics
    are computed on first read; the detection loop reads none of them
    outside ``aug`` mode.
    """

    group: CompiledGroup
    rows: Sequence[int]
    members: bytes
    gram_counts: Sequence[int]
    gram_totals: Sequence[int]
    trans_counts: Sequence[int]
    trans_probs: Sequence[float]
    length_mean: float
    length_std: float

    # compared and hashed by identity, not by their counts
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        group: CompiledGroup,
        rows: Sequence[int],
        members: bytes,
        gram_counts: Sequence[int],
        gram_totals: Sequence[int],
        trans_counts: Sequence[int],
        trans_probs: Sequence[float],
        length_mean: float,
        length_std: float,
    ) -> None:
        _set(self, "group", group)
        _set(self, "rows", rows)
        _set(self, "members", members)
        _set(self, "gram_counts", gram_counts)
        _set(self, "gram_totals", gram_totals)
        _set(self, "trans_counts", trans_counts)
        _set(self, "trans_probs", trans_probs)
        _set(self, "length_mean", length_mean)
        _set(self, "length_std", length_std)

    def gram_probs(self) -> list[float]:
        """The probability of every folded id, computed on each call.

        A shared id's is its count over T_n. A slot's is 1/T_n, which each
        once-seen n-gram of a reference row has; a once-seen n-gram of any
        other row has probability 0. Detection keeps each pass's statistics
        for the next, so the probabilities are not kept with them.
        """
        totals, group = self.gram_totals, self.group
        shared = self.gram_counts[: group.shared]
        probs = [c / totals[n] if c else 0.0 for c, n in zip(shared, group.fold_len)]
        return probs + [1 / t if t else 0.0 for t in totals[group.ngram_min :]]

    @cached_property
    def ngram_prob(self) -> Mapping[tuple[str, ...], float]:
        """The probability of every n-gram of the reference, keyed by its symbols.

        A word's n-gram is in the reference when its id is shared and
        counts, or is a slot and the word is a reference row.
        """
        group, counts, probs = self.group, self.gram_counts, self.gram_probs()
        k, nmin, nmax = group.shared, group.ngram_min, group.ngram_max
        prob: dict[tuple[str, ...], float] = {}
        for w, member, folded in zip(group.words, self.members, group.word_folded):
            for (i, n), f in zip(_spans(len(w), nmin, nmax), folded):
                if counts[f] if f < k else member:
                    prob[w[i : i + n]] = probs[f]
        return prob

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


def build_statistics(
    group: CompiledGroup,
    rows: Sequence[int] | None = None,
    previous: VocabStatistics | None = None,
) -> VocabStatistics:
    """Count n-grams, transitions, and lengths over the words ``rows`` of ``group``.

    ``None`` counts every word. ``rows`` are distinct row indices of the
    group; a repeated or out-of-range row is a ``ValueError`` naming it.
    The n-gram range is the group's, fixed when it was compiled. N-gram
    probabilities are normalized within each n-gram length, so for every n
    the probabilities of the observed n-grams of that length sum to 1. The
    length standard deviation is population-based and replaced by 1 when
    fewer than two words are available or the variance is zero.

    The n-gram and transition counts start from those of ``previous``,
    statistics of an earlier reference of the same group, or from zero,
    and move by the rows that entered and the rows that left since. The
    counts of ``previous`` are copied, never changed.
    """
    rows = range(len(group.words)) if rows is None else rows
    if not rows:
        raise EmptyReferenceError("reference word set is empty")
    members = _members(rows, len(group.words))
    if previous is None:
        entered, left = rows, ()
        gram_counts, trans_counts = [0] * len(group.fold_len), [0] * len(group.transitions)
    elif previous.group is not group:
        raise ValueError("previous statistics are of another group")
    else:
        entered = [r for r in rows if not previous.members[r]]
        left = [r for r in previous.rows if not members[r]]
        gram_counts, trans_counts = previous.gram_counts, previous.trans_counts
    gram_counts = _recount(group.word_folded, gram_counts, entered, left)
    trans_counts = _recount(group.word_trans, trans_counts, entered, left)

    lengths = [len(group.words[r]) for r in rows]
    nmin, nmax = group.ngram_min, group.ngram_max
    # each word of length L has L - n + 1 n-grams of every length n <= L;
    # T_n is kept up to the longest slot length, which no word exceeds
    totals_by_len = [0] * (nmin + len(group.fold_len) - group.shared)
    for length, count in Counter(lengths).items():
        for n in range(nmin, min(nmax, length) + 1):
            totals_by_len[n] += count * (length - n + 1)

    out_count: Counter[str] = Counter()
    for (a, _), c in zip(group.transitions, trans_counts):
        out_count[a] += c
    trans_probs = [
        c / out_count[a] if c else 0.0 for (a, _), c in zip(group.transitions, trans_counts)
    ]

    n, total = len(lengths), sum(lengths)
    mean = total / n
    # the population variance, formed exactly over the int lengths before one
    # rounding division, so the order of the rows changes no bit; one word gives 0
    var = (n * sum(map(mul, lengths, lengths)) - total * total) / (n * n)
    std = math.sqrt(var) if var > 0 else 1.0

    return VocabStatistics(
        group=group,
        rows=rows,
        members=members,
        gram_counts=gram_counts,
        gram_totals=totals_by_len,
        trans_counts=trans_counts,
        trans_probs=trans_probs,
        length_mean=mean,
        length_std=std,
    )


def _members(rows: Iterable[int], size: int) -> bytes:
    """One byte per row of a group of ``size`` rows: 1 for each of ``rows``.

    ``rows`` must be distinct indices in ``range(size)``: counts that move
    by the rows entering and leaving a set cannot hold a row twice.
    """
    members = bytearray(size)
    for r in rows:
        if not 0 <= r < size:
            raise ValueError(f"row {r} is not a row of a group of {size} words")
        if members[r]:
            raise ValueError(f"row {r} is given twice")
        members[r] = 1
    return bytes(members)


def _recount(
    word_ids: Sequence[Sequence[int]],
    counts: Sequence[int],
    entered: Iterable[int],
    left: Iterable[int],
) -> list[int]:
    """A copy of ``counts`` plus the ids of the words ``entered``, minus those of ``left``."""
    counts = list(counts)
    for r in entered:
        for i in word_ids[r]:
            counts[i] += 1
    for r in left:
        for i in word_ids[r]:
            counts[i] -= 1
    return counts


# --- Feature kernels --------------------------------------------------------------


def surprisal_floor(total: int) -> float:
    """The probability an unseen n-gram or transition takes: half of one
    count of a reference that holds ``total`` of them, or of one when it
    holds none."""
    return 0.5 / total if total else 0.5


def _terms(
    probs: Sequence[float],
    log_floors: Iterable[float],
    eps1: float,
    eps2: float,
    c1: float,
    c2: float,
) -> tuple[list[float], list[float]]:
    """The rarity term and ``log2 max(p, floor)`` of every probability p of ``probs``.

    The rarity term is the two-tier penalty: c1*(eps1-p) when p < eps1,
    else c2*(eps2-p) when p < eps2, else 0. ``log_floors`` gives each
    probability the ``log2`` of its floor, which a probability of 0 takes;
    any other probability is at least its floor.
    """
    log2 = math.log2
    rarity = [
        c1 * (eps1 - p) if p < eps1 else c2 * (eps2 - p) if p < eps2 else 0.0 for p in probs
    ]
    return rarity, [log2(p) if p > 0.0 else f for p, f in zip(probs, log_floors)]


def _rarity_surprisal(
    word_ids: Sequence[Sequence[int]],
    word_terms: Iterable[tuple[Sequence[float], Sequence[float]]],
) -> tuple[list[float], list[float]]:
    """Rarity and surprisal columns of the words whose ids are ``word_ids``.

    ``word_terms`` gives each word the ``_terms`` tables, indexed by id,
    that its ids read. One loop per word adds its ids' two table entries
    in id order: the rarity is the mean of the rarity terms and the
    surprisal the mean of -log2 max(p, floor). A rarity term that the
    penalty skips is 0.0 in the table, and adding 0.0 to a running total
    leaves its bits as they are. A word without ids scores 0 on both. The
    columns are allocated at their final size, not grown by appends, whose
    reallocations leave freed buffers in the heap and raise a run's peak
    RSS.
    """
    rarity = [0.0] * len(word_ids)
    surprisal = [0.0] * len(word_ids)
    for k, (ids, (rare, logp)) in enumerate(zip(word_ids, word_terms)):
        total = h = 0.0
        for i in ids:
            total += rare[i]
            h -= logp[i]
        if ids:
            rarity[k] = total / len(ids)
            surprisal[k] = h / len(ids)
    return rarity, surprisal


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
    computes its ids' ``_terms`` once and adds them up per word in one
    ``_rarity_surprisal`` loop; a reference row reads the n-gram slots at
    1/T_n, any other row at 0, and so at the floor of their length.
    ``avg_trans_prob`` is ``sum()`` over the word's transition
    probabilities in id order, as from Python 3.12 on ``sum()`` is
    compensated and a running total would change its bits.
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
    log2 = math.log2
    if "rare_ngram_score" in names:
        tiers = cfg.rare_ngram_eps1, cfg.rare_ngram_eps2, cfg.rare_ngram_c1, cfg.rare_ngram_c2
        k = group.shared
        # log2 of the floor of each n-gram length, indexed by length
        log_floor = [log2(surprisal_floor(t)) for t in stats.gram_totals]
        slot_lens = group.fold_len[k:]
        inside = _terms(stats.gram_probs(), map(log_floor.__getitem__, group.fold_len), *tiers)
        slots_outside = _terms(
            [0.0] * len(slot_lens), map(log_floor.__getitem__, slot_lens), *tiers
        )
        outside = tuple(t[:k] + slots for t, slots in zip(inside, slots_outside))
        columns["rare_ngram_score"], columns["ngram_surprisal"] = _rarity_surprisal(
            group.word_folded, [inside if m else outside for m in stats.members]
        )
    if "rare_transition_score" in names:
        trans_p = stats.trans_probs
        tiers = cfg.rare_trans_eps1, cfg.rare_trans_eps2, cfg.rare_trans_c1, cfg.rare_trans_c2
        log_floor = repeat(log2(surprisal_floor(sum(stats.trans_counts))))
        columns["rare_transition_score"], columns["trans_surprisal"] = _rarity_surprisal(
            group.word_trans, repeat(_terms(trans_p, log_floor, *tiers))
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
