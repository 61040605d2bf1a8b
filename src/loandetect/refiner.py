"""Iterative self-training loop: rescore against native candidates until stable.

``detect`` runs every pass in one loop over ``range(max_iterations)``.
Pass ``t``'s reference is a list of row indices into the group: every
row at pass 0, the previous pass's native candidates (averaged
probability below ``tau``) after that, or every row again, with a
warning, when every word is a loan. It builds statistics from those
rows, rescores all words against them, applies pattern-based
probability refinement from pass ``pattern_from_iteration`` on (it reads
only whether a word's anomaly mask from ``score_all`` is set), averages
each word's probabilities over all passes so far and thresholds the
averages into the loan set. The loop stops early once the loan set
changes by less than ``convergence_fraction`` of its previous size.
Each pass leaves one ``IterationSnapshot``; that list is the loop's one
record, and the final ``DetectionState`` values are the last snapshot's.

A pass whose reference rows and refinement flag (and, when it refines,
native rows) are those of the last pass that computed takes that pass's
probabilities unchanged: statistics, features, scores and pattern
likeness would all come out the same. It still logs the all-loans
warning when it falls back and still leaves its snapshot. From pass 2
on, such a pass follows a pass whose loan set did not change, so under
the default early stop (any ``convergence_fraction`` above 0), which
ends the loop there, it never runs; only pass 1 can repeat pass 0, when
pass 0 found no loan or only loans, and the loop then stops after it.

What never changes between passes is computed once per language group
and never copied: the n-gram and transition ids
(``features.CompiledGroup``) and every word's surface patterns
(``PatternIndex``: 2-symbol prefix, 2-symbol suffix and trigrams, read
off the group's transition ids, with their counts over the whole group).
A pass counts the pattern ids of the native rows only; the loans are the
rest of the group, so a pattern's loan count is its full count minus its
native count and is never built. Pattern likeness comes back as one
column per pass.

Counts move by difference. A computed pass hands the statistics of the
last computed pass to ``build_statistics`` and the native rows and counts
of the last pass that refined to ``build_pattern_db``; each starts from
those counts, adds the rows that entered and subtracts the rows that
left. After pass 1 the loan set moves by a few dozen rows or fewer, so a
pass counts those instead of every reference row. Pass 0 counts from
zero through the same code. Earlier counts are copied, never changed.

Detection writes nothing: the command line writes the traces from the
returned states.
"""

from __future__ import annotations

import logging
import math
from array import array
from typing import NamedTuple, Sequence

from .config import RunConfig
from .features import CompiledGroup, _members, _recount, build_statistics, extract_all
from .records import Record
from .scoring import score_all
from .wordlist import Wordlist, WordlistError, language_rows

log = logging.getLogger(__name__)


class PatternIndex:
    """The typed surface patterns of a language group's words, interned once.

    A word of two or more symbols has a 2-symbol prefix, a 2-symbol suffix
    and its trigrams (3-symbol segments); shorter words have none. Read off
    ``group``'s transition ids, the prefix is a word's first transition, the
    suffix its last and a trigram two consecutive ones. Every distinct
    (kind, pattern) gets an integer id in an id space of its own, so the
    index does not depend on the n-gram range of the features.
    ``patterns[i]`` holds word ``i``'s ids, prefix, suffix, then its
    trigrams in order, as a multiset (a repeated trigram repeats);
    ``distinct[i]`` holds each of them once; ``full_counts`` counts every
    id over the whole group.
    """

    def __init__(self, group: CompiledGroup):
        base = len(group.transitions)
        ids: dict[int, int] = {}
        self.patterns = [
            array("i", [ids.setdefault(k, len(ids)) for k in _pattern_keys(t, base)])
            for t in group.word_trans
        ]
        self.distinct = [array("i", dict.fromkeys(p)) for p in self.patterns]
        self.full_counts = _recount(self.patterns, [0] * len(ids), range(len(self.patterns)), ())


def _pattern_keys(trans: Sequence[int], base: int) -> list[int]:
    """Keys of the prefix, suffix and trigrams of a word with transition ids
    ``trans``: t, ``base + t`` and, for transitions (a, b), ``(2 + a) * base + b``."""
    if not trans:
        return []
    return [trans[0], base + trans[-1]] + [(2 + a) * base + b for a, b in zip(trans, trans[1:])]


def build_pattern_db(
    index: PatternIndex,
    rows: Sequence[int],
    previous: tuple[Sequence[int], Sequence[int]] | None = None,
) -> list[int]:
    """Count the prefixes, suffixes and trigrams of the words ``rows``, by pattern id.

    ``rows`` are distinct rows of the group. ``previous`` is the rows and
    the counts of an earlier call on ``index``: the counts then start from
    a copy of its counts and move by the rows that entered and left.
    """
    members = _members(rows, len(index.patterns))
    if previous is None:
        return _recount(index.patterns, [0] * len(index.full_counts), rows, ())
    before, counts = previous
    was = _members(before, len(index.patterns))
    entered = [r for r in rows if not was[r]]
    return _recount(index.patterns, counts, entered, [r for r in before if not members[r]])


def pattern_likeness(
    index: PatternIndex, native_counts: Sequence[int], epsilon: float = 1.0
) -> list[float]:
    """Smoothed native-likeness of every word's patterns, in [0, 1], in word order.

    Mean over the word's distinct patterns p of N(p) / (N(p) + B(p) + epsilon),
    where N counts p over the native rows (``native_counts``) and B over
    the loans. Natives and loans partition the group, so the int sum
    N(p) + B(p) is p's count over the whole group. The mean is summed
    exactly, so it does not depend on the order of the patterns. Words too
    short to have any pattern are neutral (0.5).
    """
    if epsilon <= 0:
        raise ValueError("smoothing epsilon must be positive")
    share = [n / (full + epsilon) for n, full in zip(native_counts, index.full_counts)]
    return [
        math.fsum(map(share.__getitem__, ids)) / len(ids) if ids else 0.5
        for ids in index.distinct
    ]


def refine_probability(
    prob: float, likeness: float, anomalous: bool, cfg: RunConfig
) -> float:
    """Resolve conflicts between surface patterns and feature anomaly.

    Non-anomalous words that look strongly native-patterned are scaled
    down; anomalous words that look strongly loan-patterned are scaled up
    (clamped to 1). Everything else passes through unchanged.
    """
    if not anomalous and likeness > cfg.pattern_high_cut:
        return prob * cfg.pattern_down_factor
    if anomalous and likeness < cfg.pattern_low_cut:
        return min(prob * cfg.pattern_up_factor, 1.0)
    return prob


def average_probabilities(history: Sequence[float]) -> float:
    if not history:
        raise ValueError("empty probability history")
    return sum(history) / len(history)


def check_convergence(
    prev: frozenset[int] | set[int],
    curr: frozenset[int] | set[int],
    fraction: float = 0.01,
) -> bool:
    """True when the loan set changed by less than ``fraction`` of its size.

    The size floor is one word, so at any ``fraction`` above 0 identical
    sets converge. At ``fraction`` 0 nothing converges, identical sets
    included, and the loop runs every pass.
    """
    delta = len(set(prev).symmetric_difference(curr))
    return delta < fraction * max(1, len(prev))


class IterationSnapshot(NamedTuple):
    iteration: int
    probabilities: tuple[float, ...]
    averaged: tuple[float, ...]
    loans: frozenset[int]


class DetectionState(Record):
    """The refinement loop's passes, indexed by entry position: ``iteration``,
    ``averaged`` and ``loans`` are the last snapshot's own values."""

    snapshots: list[IterationSnapshot]
    converged: bool
    warnings: list[str]

    def __init__(
        self,
        snapshots: list[IterationSnapshot] | None = None,
        converged: bool = False,
        warnings: list[str] | None = None,
    ) -> None:
        self.snapshots = [] if snapshots is None else snapshots
        self.converged = converged
        self.warnings = [] if warnings is None else warnings

    @property
    def iteration(self) -> int:
        return self.snapshots[-1].iteration

    @property
    def averaged(self) -> tuple[float, ...]:
        return self.snapshots[-1].averaged

    @property
    def loans(self) -> frozenset[int]:
        return self.snapshots[-1].loans


def detect(vocab: Wordlist, cfg: RunConfig | None = None) -> DetectionState:
    """Run the full unsupervised detection loop on one vocabulary."""
    cfg = cfg or RunConfig()
    if len(vocab) == 0:
        raise WordlistError("cannot detect on an empty wordlist")
    words = [e.ipa for e in vocab]
    pos_tags = [e.pos for e in vocab]
    # n-grams, transitions and CV patterns never change between passes;
    # only the reference rows do
    group = CompiledGroup(words, cfg.ngram_min, cfg.ngram_max)
    patterns = PatternIndex(group) if cfg.pattern_refinement else None
    state = DetectionState()
    every_row = list(range(len(words)))
    # what the last computed pass read: its reference rows and, when it
    # refined, its native rows; a pass that reads the same takes its probabilities
    last_read = None
    # the counts that the next computed pass moves from
    stats = pattern_db = None

    for t in range(cfg.max_iterations):
        native_rows = every_row
        if t:
            previous_loans = state.loans
            native_rows = [i for i in every_row if i not in previous_loans]
            if not native_rows:
                state.warnings.append(
                    f"iteration {t}: all words classified as borrowed; "
                    "falling back to full-vocabulary statistics"
                )
                log.warning("[%s] %s", vocab.language, state.warnings[-1])
        reference = native_rows or every_row
        refine = patterns is not None and t >= cfg.pattern_from_iteration
        read = (reference, native_rows if refine else None)
        if read != last_read:
            last_read = read
            stats = build_statistics(group, reference, stats)
            # the feature columns are freed as soon as they are scored
            probs, masks = score_all(extract_all(stats, cfg), pos_tags, cfg)
            if refine:
                # the loans are the rest of the group: their counts are never built
                native_counts = build_pattern_db(patterns, native_rows, pattern_db)
                pattern_db = (native_rows, native_counts)
                likeness = pattern_likeness(patterns, native_counts, cfg.pattern_smoothing)
                probs = [
                    refine_probability(p, like, bool(mask), cfg)
                    for p, like, mask in zip(probs, likeness, masks)
                ]
            probs = tuple(probs)
        history = zip(*(s.probabilities for s in state.snapshots), probs)
        averaged = tuple(map(average_probabilities, history))
        loans = frozenset(i for i, p in enumerate(averaged) if p >= cfg.tau)
        if t:
            state.converged = check_convergence(state.loans, loans, cfg.convergence_fraction)
        state.snapshots.append(IterationSnapshot(t, probs, averaged, loans))
        log.info("iteration %d: |B|=%d, converged=%s", t, len(loans), state.converged)
        if state.converged:
            break
    return state


def detect_wordlist(
    vocab: Wordlist, cfg: RunConfig | None = None
) -> tuple[list[float], list[int], dict[str, DetectionState]]:
    """Detect per language and pool results back into input order.

    Monolingual wordlists run as a single group. Returns the final
    averaged probability and binary label per entry, plus the per-language
    detection states, in ``language_rows`` order.
    """
    cfg = cfg or RunConfig()
    probabilities = [0.0] * len(vocab)
    labels = [0] * len(vocab)
    states: dict[str, DetectionState] = {}
    for lang, indices in language_rows(vocab).items():
        sub = Wordlist([vocab.entries[i] for i in indices])
        state = states[lang] = detect(sub, cfg)
        averaged, loans = state.averaged, state.loans
        for local, global_i in enumerate(indices):
            probabilities[global_i] = averaged[local]
            labels[global_i] = int(local in loans)
    return probabilities, labels, states
