"""Cross-linguistic scaling: alignment, divergence, and composite classification.

Words sharing a concept across languages are pairwise aligned with a
Needleman-Wunsch-style global aligner whose column score is 1 minus the
phonological feature distance of the aligned symbols (gaps cost a flat
penalty). A context model over aligned symbol pairs and their 4-symbol
context windows turns alignments into log-probabilities; combining those
with mean feature distance yields a divergence, whose per-concept min-max
normalized average is the comparability score C. The composite score
fuses C with the basic model's borrowing probability B, and a dynamic
per-word threshold decides the label.

Each unordered word pair of a concept is aligned twice: once for the
context model and once for its divergence, which is symmetric and so
computed once per pair. Alignments are not kept between the two stages.
The aligner tables the column scores of a pair before its DP, from
symbol distances memoised per inventory (``ipa.symbol_distance``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .config import RunConfig
from .ipa import GAP, SymbolInventory, symbol_distance
from .refiner import detect_wordlist
from .wordlist import Wordlist

log = logging.getLogger(__name__)

Word = tuple[str, ...]
Context = tuple[str, str, str, str]

# Boundary sentinel padding context windows at word edges.
BOUNDARY = "#"


class EmptyDatasetError(ValueError):
    pass


class MissingConceptError(ValueError):
    def __init__(self, rows: Sequence[int]):
        self.rows = list(rows)
        super().__init__(f"entries without concept id at rows {self.rows[:10]}")


@dataclass(frozen=True)
class Alignment:
    """Global alignment of two words: (a, b, context) per column."""

    pairs: tuple[tuple[str, str, Context], ...]

    @property
    def length(self) -> int:
        return len(self.pairs)

    def track_a(self) -> Word:
        return tuple(a for a, _, _ in self.pairs if a != GAP)

    def track_b(self) -> Word:
        return tuple(b for _, b, _ in self.pairs if b != GAP)


def align(
    x: Word,
    y: Word,
    gap_penalty: float = 0.5,
    inventory: SymbolInventory | None = None,
) -> Alignment:
    """Needleman-Wunsch global alignment maximizing summed column scores.

    Column score is 1 - dist(a, b) for a symbol pair and -gap_penalty for
    a gap. Traceback ties prefer substitution, then a gap on the first
    word's track, then a gap on the second's, making the result
    deterministic.
    """
    if not x or not y:
        raise ValueError("cannot align empty words")
    n, m = len(x), len(y)
    # substitution score of every cell, one row per distinct symbol of x
    rows: dict[str, list[float]] = {}
    for a in x:
        if a not in rows:
            rows[a] = [1.0 - symbol_distance(a, b, inventory) for b in y]
    sub = [rows[a] for a in x]
    score = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = -gap_penalty * i
    for j in range(1, m + 1):
        score[0][j] = -gap_penalty * j
    for i in range(1, n + 1):
        prev, cur, sub_row = score[i - 1], score[i], sub[i - 1]
        for j in range(1, m + 1):
            match = prev[j - 1] + sub_row[j - 1]
            gap_a = cur[j - 1] - gap_penalty  # consume y, gap on a-track
            gap_b = prev[j] - gap_penalty  # consume x, gap on b-track
            cur[j] = max(match, gap_a, gap_b)

    columns: list[tuple[str, str]] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            current = score[i][j]
            match = score[i - 1][j - 1] + sub[i - 1][j - 1]
            if math.isclose(current, match, abs_tol=1e-12):
                columns.append((x[i - 1], y[j - 1]))
                i, j = i - 1, j - 1
                continue
            if math.isclose(current, score[i][j - 1] - gap_penalty, abs_tol=1e-12):
                columns.append((GAP, y[j - 1]))
                j -= 1
                continue
            columns.append((x[i - 1], GAP))
            i -= 1
            continue
        if j > 0:
            columns.append((GAP, y[j - 1]))
            j -= 1
        else:
            columns.append((x[i - 1], GAP))
            i -= 1
    columns.reverse()
    return Alignment(pairs=tuple(_with_contexts(columns)))


def _with_contexts(
    columns: Sequence[tuple[str, str]],
) -> list[tuple[str, str, Context]]:
    # Context = the two column representatives on each side, boundary-padded.
    # A column's representative is its non-gap symbol (a-track preferred).
    reps = [a if a != GAP else b for a, b in columns]

    def rep(k: int) -> str:
        return reps[k] if 0 <= k < len(reps) else BOUNDARY

    out: list[tuple[str, str, Context]] = []
    for k, (a, b) in enumerate(columns):
        ctx: Context = (rep(k - 2), rep(k - 1), rep(k + 1), rep(k + 2))
        out.append((a, b, ctx))
    return out


def alignment_score(al: Alignment, gap_penalty: float = 0.5,
                    inventory: SymbolInventory | None = None) -> float:
    """Total column score of an alignment (for oracle comparisons)."""
    total = 0.0
    for a, b, _ in al.pairs:
        if a == GAP or b == GAP:
            total -= gap_penalty
        else:
            total += 1.0 - symbol_distance(a, b, inventory)
    return total


@dataclass
class ContextModel:
    """Smoothed co-occurrence model P(a, b | context) over aligned pairs."""

    counts: dict[tuple[str, str, Context], int] = field(default_factory=dict)
    marginals: dict[Context, int] = field(default_factory=dict)
    pair_types: set[tuple[str, str]] = field(default_factory=set)
    smoothing: float = 0.1

    def observe(self, a: str, b: str, ctx: Context) -> None:
        self.counts[(a, b, ctx)] = self.counts.get((a, b, ctx), 0) + 1
        if a != b:
            self.counts[(b, a, ctx)] = self.counts.get((b, a, ctx), 0) + 1
        self.marginals[ctx] = self.marginals.get(ctx, 0) + 1
        self.pair_types.add((a, b) if a <= b else (b, a))

    def probability(self, a: str, b: str, ctx: Context) -> float:
        k = max(len(self.pair_types), 1)
        count = self.counts.get((a, b, ctx), 0)
        marginal = self.marginals.get(ctx, 0)
        return (count + self.smoothing) / (marginal + self.smoothing * k)


def build_context_model(
    concepts: Mapping[str, Sequence[Word]],
    cfg: RunConfig | None = None,
    inventory: SymbolInventory | None = None,
) -> ContextModel:
    """Align every unordered word pair within every concept and tally columns."""
    cfg = cfg or RunConfig()
    model = ContextModel(smoothing=cfg.context_smoothing)
    any_pair = False
    for concept in sorted(concepts):
        words = [tuple(w) for w in concepts[concept]]
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                any_pair = True
                first, second = sorted((words[i], words[j]))
                al = align(first, second, cfg.gap_penalty, inventory)
                for a, b, ctx in al.pairs:
                    model.observe(a, b, ctx)
    if not any_pair:
        raise EmptyDatasetError("no concept contains at least two words")
    return model


def alignment_logprob(al: Alignment, model: ContextModel) -> float:
    """Sum of per-column natural-log probabilities; finite thanks to smoothing."""
    return sum(
        math.log(model.probability(a, b, ctx)) for a, b, ctx in al.pairs
    )


def feature_distance(
    al: Alignment, inventory: SymbolInventory | None = None
) -> float:
    """Mean Hamming feature distance over alignment columns (gaps count 1)."""
    if al.length == 0:
        return 0.0
    return sum(symbol_distance(a, b, inventory) for a, b, _ in al.pairs) / al.length


def divergence(
    x: Word,
    y: Word,
    model: ContextModel,
    lam: float = 0.5,
    gap_penalty: float = 0.5,
    inventory: SymbolInventory | None = None,
) -> float:
    """Weighted blend of feature distance and alignment improbability.

    D = lam * D_feat - (1 - lam) * (1/L) * log P_align. Computed on the
    canonically ordered pair (lexicographically smaller word first), so D
    is exactly symmetric.
    """
    if not 0 <= lam <= 1:
        raise ValueError("lambda weight must be in [0, 1]")
    first, second = sorted((tuple(x), tuple(y)))
    al = align(first, second, gap_penalty, inventory)
    d_feat = feature_distance(al, inventory)
    logp = alignment_logprob(al, model)
    return lam * d_feat - (1.0 - lam) * logp / al.length


def comparability(
    concept_words: Sequence[Word],
    model: ContextModel,
    lam: float = 0.5,
    gap_penalty: float = 0.5,
    inventory: SymbolInventory | None = None,
) -> list[float]:
    """Per-word comparability C: min-max normalized mean divergence.

    Requires at least two words. When every word has the same raw
    divergence, all C values collapse to 0. ``divergence`` is symmetric,
    so each unordered pair is computed once.
    """
    if len(concept_words) < 2:
        raise ValueError("comparability needs at least two words in the concept")
    words = [tuple(w) for w in concept_words]
    k = len(words)
    div = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            div[i][j] = div[j][i] = divergence(
                words[i], words[j], model, lam, gap_penalty, inventory
            )
    raws = [sum(div[i][j] for j in range(k) if j != i) / (k - 1) for i in range(k)]
    lo, hi = min(raws), max(raws)
    if hi - lo == 0:
        return [0.0] * len(raws)
    return [(r - lo) / (hi - lo) for r in raws]


def composite(basic: float, comp: float, w1: float = 1.0, w2: float = 1.0) -> float:
    """S = (w1 * B + w2 * (1 - C)) / (w1 + w2)."""
    if w1 <= 0 or w2 <= 0:
        raise ValueError("composite weights must be positive")
    return (w1 * basic + w2 * (1.0 - comp)) / (w1 + w2)


def dynamic_threshold(
    basic: float, comp: float, alpha: float = 0.5, beta: float = 0.2
) -> float:
    """theta = alpha + beta * ((1 - C) - B)."""
    return alpha + beta * ((1.0 - comp) - basic)


def classify(score: float, threshold: float) -> int:
    return int(score >= threshold)


@dataclass
class ScaledResult:
    """Per-entry outputs of the scaled model, in wordlist order."""

    basic: list[float]
    comparability: list[float | None]
    composite: list[float]
    thresholds: list[float]
    predicted: list[int]
    basic_predicted: list[int]
    fallback_concepts: list[str]
    # words the basic model calls loans but the scaled model calls native,
    # and the reverse (scaled-only loans)
    basic_only_loans: list[int] = field(default_factory=list)
    scaled_only_loans: list[int] = field(default_factory=list)

    def asymmetry_summary(self) -> str:
        return (
            "asymmetry diagnostic: "
            f"{len(self.basic_only_loans)} word(s) loan under the basic model "
            "but native under the scaled model; "
            f"{len(self.scaled_only_loans)} word(s) loan under the scaled model only"
        )


def detect_scaled(
    multi: Wordlist,
    cfg: RunConfig | None = None,
    *,
    inventory: SymbolInventory | None = None,
) -> ScaledResult:
    """Run basic detection per language, then rescale with concept evidence.

    Words whose concept spans fewer than two languages keep their basic
    classification (S = B, threshold = tau); their comparability is None.
    """
    cfg = cfg or RunConfig()
    if len(multi) == 0:
        raise EmptyDatasetError("empty wordlist")
    missing = [i + 1 for i, e in enumerate(multi) if e.concept_id is None]
    if missing:
        raise MissingConceptError(missing)

    # the per-language states (every pass's probabilities) are not kept
    # through the alignment work below
    basic_probs, basic_labels = detect_wordlist(multi, cfg, inventory=inventory)[:2]

    concept_indices: dict[str, list[int]] = {}
    for i, entry in enumerate(multi):
        concept_indices.setdefault(entry.concept_id, []).append(i)

    # context model over every concept with at least two entries
    alignable = {
        c: [multi.entries[i].ipa for i in idxs]
        for c, idxs in concept_indices.items()
        if len(idxs) >= 2
    }
    model = None
    if alignable:
        model = build_context_model(alignable, cfg, inventory)

    comp_values: list[float | None] = [None] * len(multi)
    fallback: list[str] = []
    for concept in sorted(concept_indices):
        idxs = concept_indices[concept]
        langs = {multi.entries[i].language for i in idxs}
        if len(idxs) < 2 or len(langs) < 2 or model is None:
            fallback.append(concept)
            continue
        cs = comparability(
            [multi.entries[i].ipa for i in idxs],
            model,
            cfg.divergence_lambda,
            cfg.gap_penalty,
            inventory,
        )
        for i, c in zip(idxs, cs):
            comp_values[i] = c
    if fallback:
        log.info(
            "%d concept(s) lack cross-linguistic counterparts; "
            "falling back to basic classification",
            len(fallback),
        )

    composites: list[float] = []
    thresholds: list[float] = []
    predicted: list[int] = []
    for i in range(len(multi)):
        c = comp_values[i]
        b = basic_probs[i]
        if c is None:
            composites.append(b)
            thresholds.append(cfg.tau)
            predicted.append(int(b >= cfg.tau))
        else:
            s = composite(b, c, cfg.composite_w1, cfg.composite_w2)
            theta = dynamic_threshold(b, c, cfg.threshold_alpha, cfg.threshold_beta)
            composites.append(s)
            thresholds.append(theta)
            predicted.append(classify(s, theta))

    result = ScaledResult(
        basic=basic_probs,
        comparability=comp_values,
        composite=composites,
        thresholds=thresholds,
        predicted=predicted,
        basic_predicted=basic_labels,
        fallback_concepts=fallback,
        basic_only_loans=[
            i
            for i in range(len(multi))
            if basic_labels[i] == 1 and predicted[i] == 0
        ],
        scaled_only_loans=[
            i
            for i in range(len(multi))
            if basic_labels[i] == 0 and predicted[i] == 1
        ],
    )
    log.info(result.asymmetry_summary())
    return result
