"""Iterative self-training loop: rescore against native candidates until stable.

Pass 0 scores every word against statistics from the full vocabulary and
thresholds the probabilities into loan/native candidate sets. Each later
pass rebuilds the statistics from the current native candidates, rescores
all words, applies pattern-based probability refinement (from the second
refinement pass on), and re-partitions on the running average of all
probabilities so far. The loop stops early once the loan set changes by
less than ``convergence_fraction`` of its previous size, and always within
``max_iterations`` total passes.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .config import RunConfig
from .features import CompiledGroup, build_statistics, extract_all
from .ipa import SymbolInventory
from .scoring import ScoreResult, score_all
from .wordlist import Wordlist, make_wordlist

log = logging.getLogger(__name__)

Word = tuple[str, ...]


@dataclass(frozen=True)
class PatternDatabase:
    """Frequency index of 2-symbol prefixes/suffixes and internal trigrams."""

    prefix_freq: Mapping[Word, int]
    suffix_freq: Mapping[Word, int]
    trigram_freq: Mapping[Word, int]

    def lookup(self, kind: str, pattern: Word) -> int:
        table = getattr(self, f"{kind}_freq")
        return table.get(pattern, 0)


def build_pattern_db(words: Sequence[Word]) -> PatternDatabase:
    """Count every word's 2-symbol prefix, 2-symbol suffix, and 3-symbol segments."""
    prefixes: Counter[Word] = Counter()
    suffixes: Counter[Word] = Counter()
    trigrams: Counter[Word] = Counter()
    for w in words:
        if len(w) < 2:
            continue
        prefixes[tuple(w[:2])] += 1
        suffixes[tuple(w[-2:])] += 1
        for i in range(len(w) - 2):
            trigrams[tuple(w[i : i + 3])] += 1
    return PatternDatabase(dict(prefixes), dict(suffixes), dict(trigrams))


def word_patterns(word: Word) -> set[tuple[str, Word]]:
    """The word's typed pattern set: prefix, suffix, and internal trigrams."""
    pats: set[tuple[str, Word]] = set()
    if len(word) >= 2:
        pats.add(("prefix", tuple(word[:2])))
        pats.add(("suffix", tuple(word[-2:])))
        for i in range(len(word) - 2):
            pats.add(("trigram", tuple(word[i : i + 3])))
    return pats


def pattern_likeness(
    word: Word,
    native_db: PatternDatabase,
    loan_db: PatternDatabase,
    epsilon: float = 1.0,
) -> float:
    """Smoothed native-likeness of the word's patterns, in [0, 1].

    Mean over the word's patterns p of N(p) / (N(p) + B(p) + epsilon),
    summed exactly, so the result does not depend on the order in which
    the pattern set iterates. Words too short to have any pattern are
    neutral (0.5).
    """
    if epsilon <= 0:
        raise ValueError("smoothing epsilon must be positive")
    pats = word_patterns(word)
    if not pats:
        log.debug("word %r has no patterns; neutral likeness", word)
        return 0.5
    terms = []
    for kind, pat in pats:
        n = native_db.lookup(kind, pat)
        b = loan_db.lookup(kind, pat)
        terms.append(n / (n + b + epsilon))
    return math.fsum(terms) / len(pats)


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
    anomalies: tuple[frozenset[str], ...]


@dataclass
class DetectionState:
    """Final state of the refinement loop, indexed by entry position."""

    iteration: int
    prob_history: list[list[float]]
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
        raise ValueError("cannot detect on an empty wordlist")
    words = [e.ipa for e in vocab]
    pos_tags = [e.pos for e in vocab]
    params = cfg.feature_params()
    scoring_cfg = cfg.scoring()
    all_indices = frozenset(range(len(words)))
    warnings: list[str] = []
    # n-grams, transitions and CV patterns never change between passes;
    # only the reference rows do
    group = CompiledGroup(words, cfg.ngram_min, cfg.ngram_max, inventory)

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
    history: list[list[float]] = [[r.boosted] for r in results]
    averaged = [h[0] for h in history]
    loans, natives = partition(averaged)
    snapshots = [
        IterationSnapshot(
            iteration=0,
            probabilities=tuple(r.boosted for r in results),
            averaged=tuple(averaged),
            loans=frozenset(loans),
            anomalies=tuple(r.anomalies for r in results),
        )
    ]
    converged = False
    iteration = 0

    for t in range(1, cfg.max_iterations):
        if converged:
            break
        iteration = t
        prev_loans, prev_natives = frozenset(loans), frozenset(natives)
        reference = group.subset(sorted(prev_natives))
        if not reference.rows:
            warnings.append(
                f"iteration {t}: all words classified as borrowed; "
                "falling back to full-vocabulary statistics"
            )
            log.warning(warnings[-1])
            reference = group
        results = rescore(reference)
        probs = [r.boosted for r in results]
        if cfg.pattern_refinement and t >= cfg.pattern_from_iteration:
            native_db = build_pattern_db([words[i] for i in sorted(prev_natives)])
            loan_db = build_pattern_db([words[i] for i in sorted(prev_loans)])
            probs = [
                refine_probability(
                    p,
                    pattern_likeness(
                        tuple(words[i]), native_db, loan_db, cfg.pattern_smoothing
                    ),
                    bool(results[i].anomalies),
                    cfg,
                )
                for i, p in enumerate(probs)
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
                anomalies=tuple(r.anomalies for r in results),
            )
        )

    state = DetectionState(
        iteration=iteration,
        prob_history=history,
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
