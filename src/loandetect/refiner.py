"""Iterative self-training loop: rescore against native candidates until stable.

Pass 0 scores every word against statistics from the full vocabulary and
thresholds the probabilities into loan/native candidate sets. Each later
pass rebuilds the statistics from the current native candidates, rescores
all words, applies pattern-based probability refinement (from the second
refinement pass on), and re-partitions on the running average of all
probabilities so far. The loop stops early once the loan set changes by
less than ``convergence_fraction`` of its previous size, and always within
``max_iterations`` total passes.

What never changes between passes is computed once per language group:
the n-gram and transition ids (``features.CompiledGroup``) and every
word's surface patterns (``PatternIndex``: 2-symbol prefix, 2-symbol
suffix and trigrams, interned to ids of their own, with their counts over
the whole group). A pass counts the pattern ids of the native rows only;
the loans are the rest of the group, so a pattern's loan count is its
full count minus its native count and is never built. Pattern likeness
comes back as one column per pass.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .config import RunConfig
from .features import CompiledGroup, _count_ids, build_statistics, extract_all
from .ipa import SymbolInventory
from .scoring import ScoreResult, score_all
from .wordlist import Wordlist, WordlistError, make_wordlist

log = logging.getLogger(__name__)

Word = tuple[str, ...]


class PatternIndex:
    """The typed surface patterns of a language group's words, interned once.

    A word of two or more symbols has a 2-symbol prefix, a 2-symbol suffix
    and its trigrams (3-symbol segments); shorter words have none. Every
    distinct (kind, pattern) gets an integer id in an id space of its own,
    so the index does not depend on the n-gram range of the features.
    ``patterns[i]`` holds word ``i``'s ids, prefix, suffix, then its
    trigrams in order, as a multiset (a repeated trigram repeats);
    ``distinct[i]`` holds each of them once; ``full_counts`` counts every
    id over the whole group.
    """

    def __init__(self, words: Iterable[Word]):
        ids: dict[tuple[str, Word], int] = {}
        self.patterns = [
            array("i", [ids.setdefault(p, len(ids)) for p in _typed_patterns(tuple(w))])
            for w in words
        ]
        self.distinct = [array("i", dict.fromkeys(p)) for p in self.patterns]
        self.full_counts = _count_ids(self.patterns, range(len(self.patterns)), len(ids))


def _typed_patterns(word: Word) -> list[tuple[str, Word]]:
    if len(word) < 2:
        return []
    trigrams = [("trigram", word[i : i + 3]) for i in range(len(word) - 2)]
    return [("prefix", word[:2]), ("suffix", word[-2:])] + trigrams


def build_pattern_db(index: PatternIndex, rows: Iterable[int]) -> list[int]:
    """Count the prefixes, suffixes and trigrams of the words ``rows``, by pattern id."""
    return _count_ids(index.patterns, rows, len(index.full_counts))


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

    The size floor is one word, so identical sets always converge.
    """
    delta = len(set(prev).symmetric_difference(curr))
    return delta < fraction * max(1, len(prev))


@dataclass(frozen=True)
class IterationSnapshot:
    iteration: int
    probabilities: tuple[float, ...]
    averaged: tuple[float, ...]
    loans: frozenset[int]


@dataclass
class DetectionState:
    """Final state of the refinement loop, indexed by entry position."""

    iteration: int
    averaged: list[float]
    loans: set[int]
    natives: set[int]
    converged: bool
    warnings: list[str] = field(default_factory=list)
    snapshots: list[IterationSnapshot] = field(default_factory=list)


def detect(
    vocab: Wordlist,
    cfg: RunConfig | None = None,
    *,
    inventory: SymbolInventory | None = None,
    trace_path: str | Path | None = None,
) -> DetectionState:
    """Run the full unsupervised detection loop on one vocabulary."""
    cfg = cfg or RunConfig()
    if len(vocab) == 0:
        raise WordlistError("cannot detect on an empty wordlist")
    words = [e.ipa for e in vocab]
    pos_tags = [e.pos for e in vocab]
    params = cfg.feature_params()
    scoring_cfg = cfg.scoring()
    all_indices = frozenset(range(len(words)))
    warnings: list[str] = []
    # n-grams, transitions and CV patterns never change between passes;
    # only the reference rows do
    group = CompiledGroup(words, cfg.ngram_min, cfg.ngram_max, inventory)
    patterns = PatternIndex(words) if cfg.pattern_refinement else None

    def rescore(reference: CompiledGroup) -> list[ScoreResult]:
        stats = build_statistics(
            reference,
            ngram_min=cfg.ngram_min,
            ngram_max=cfg.ngram_max,
            inventory=inventory,
        )
        vectors = extract_all(group, stats, cfg.mode, params, inventory)
        return score_all(vectors, pos_tags, scoring_cfg)

    def partition(averaged: Sequence[float]) -> tuple[set[int], set[int]]:
        loans = {i for i, p in enumerate(averaged) if p >= cfg.tau}
        return loans, set(all_indices) - loans

    # pass 0: statistics from the full vocabulary
    results = rescore(group)
    probs = [r.boosted for r in results]
    history = [[p] for p in probs]
    averaged = [h[0] for h in history]
    loans, natives = partition(averaged)
    snapshots = [
        IterationSnapshot(
            iteration=0,
            probabilities=tuple(probs),
            averaged=tuple(averaged),
            loans=frozenset(loans),
        )
    ]
    converged = False
    iteration = 0

    for t in range(1, cfg.max_iterations):
        if converged:
            break
        iteration = t
        prev_loans = frozenset(loans)
        native_rows = sorted(natives)
        reference = group.subset(native_rows)
        if not reference.rows:
            warnings.append(
                f"iteration {t}: all words classified as borrowed; "
                "falling back to full-vocabulary statistics"
            )
            log.warning(warnings[-1])
            reference = group
        results = rescore(reference)
        probs = [r.boosted for r in results]
        if patterns is not None and t >= cfg.pattern_from_iteration:
            # the loans are the rest of the group: their counts are never built
            native_counts = build_pattern_db(patterns, native_rows)
            likeness = pattern_likeness(patterns, native_counts, cfg.pattern_smoothing)
            probs = [
                refine_probability(p, like, bool(r.anomalies), cfg)
                for p, like, r in zip(probs, likeness, results)
            ]
        for i, p in enumerate(probs):
            history[i].append(p)
        averaged = [average_probabilities(h) for h in history]
        loans, natives = partition(averaged)
        converged = check_convergence(prev_loans, loans, cfg.convergence_fraction)
        log.info("iteration %d: |B|=%d, converged=%s", t, len(loans), converged)
        snapshots.append(
            IterationSnapshot(
                iteration=t,
                probabilities=tuple(probs),
                averaged=tuple(averaged),
                loans=frozenset(loans),
            )
        )

    state = DetectionState(
        iteration=iteration,
        averaged=averaged,
        loans=loans,
        natives=natives,
        converged=converged,
        warnings=warnings,
        snapshots=snapshots,
    )
    if trace_path is not None:
        _write_trace(vocab, state, trace_path)
    return state


def _write_trace(vocab: Wordlist, state: DetectionState, path: str | Path) -> None:
    lines = ["\t".join(["iteration", "word", "P", "P_avg", "in_B"])]
    for snap in state.snapshots:
        for i, entry in enumerate(vocab):
            lines.append(
                "\t".join(
                    [
                        str(snap.iteration),
                        entry.ipa_text,
                        f"{snap.probabilities[i]:.6f}",
                        f"{snap.averaged[i]:.6f}",
                        str(int(i in snap.loans)),
                    ]
                )
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def detect_wordlist(
    vocab: Wordlist,
    cfg: RunConfig | None = None,
    *,
    inventory: SymbolInventory | None = None,
    trace_path: str | Path | None = None,
) -> tuple[list[float], list[int], dict[str, DetectionState]]:
    """Detect per language and pool results back into input order.

    Monolingual wordlists run as a single group. Returns the final
    averaged probability and binary label per entry, plus the per-language
    detection states.
    """
    cfg = cfg or RunConfig()
    groups: dict[str, list[int]] = {}
    for i, entry in enumerate(vocab):
        groups.setdefault(entry.language, []).append(i)
    probabilities = [0.0] * len(vocab)
    labels = [0] * len(vocab)
    states: dict[str, DetectionState] = {}
    for lang in sorted(groups):
        indices = groups[lang]
        sub = make_wordlist([vocab.entries[i] for i in indices])
        trace = None
        if trace_path is not None:
            base = Path(trace_path)
            trace = base if len(groups) == 1 else base.with_name(
                f"{base.stem}.{lang}{base.suffix}"
            )
        state = detect(sub, cfg, inventory=inventory, trace_path=trace)
        states[lang] = state
        for local, global_i in enumerate(indices):
            probabilities[global_i] = state.averaged[local]
            labels[global_i] = int(local in state.loans)
    return probabilities, labels, states
