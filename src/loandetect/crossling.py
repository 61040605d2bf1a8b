"""Cross-linguistic scaling: alignment, divergence, and composite classification.

Words sharing a concept across languages are pairwise aligned with a
Needleman-Wunsch-style global aligner whose column score is 1 minus the
phonological feature distance of the aligned symbols (gaps cost a flat
penalty). A context model over aligned symbol pairs and their 4-symbol
context windows turns alignments into log-probabilities; combining those
with mean feature distance yields a divergence, whose per-concept min-max
normalized average is the comparability score C. The composite score
fuses C with the basic model's borrowing probability B, and a dynamic
per-word threshold decides the label. ``detect_scaled`` alone decides
which words get this evidence: those whose concept spans two or more
languages; every other word keeps its basic classification.

Each distinct unordered word pair of a concept is aligned once; a pair
that occurs again in the concept (a word two languages share) reuses the
column keys of its first alignment. That memo is kept per concept, so it
never grows past one concept's pairs. Each column gets an int key (its
context id and the id of its sorted symbol pair) when its pair is
aligned, and the keys are counted once, after every pair is aligned, a
repeated pair's keys as often as the pair occurs. The model keeps per
pair only its mean feature distance and its column keys; one table of
per-key log-probabilities replaces the interning tables, and
comparability sums a pair's log-probability from that table in column
order. The aligner scores in integers, so its traceback finds ties
exactly at any gap penalty. It tables the column scores of a pair before
its DP, from a memo of each symbol pair's integer score (the feature
slots on which the two agree, scaled to the penalty's denominator), which
calls ``ipa.symbol_distance`` once for each symbol pair it has not seen at
that denominator, and fills each DP cell with plain comparisons.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .config import RunConfig
from .ipa import FEATURE_DIM, GAP, symbol_distance
from .refiner import detect_wordlist
from .wordlist import Wordlist

log = logging.getLogger(__name__)

Word = tuple[str, ...]
Context = tuple[str, str, str, str]

# Boundary sentinel padding context windows at word edges: the empty string,
# which no token can be (every codepoint group holds a codepoint), so an
# input "#" never reads as a word edge.
BOUNDARY = ""


class EmptyDatasetError(ValueError):
    pass


class MissingConceptError(ValueError):
    def __init__(self, rows: Sequence[int]):
        self.rows = list(rows)
        super().__init__(f"entries without concept id at rows {self.rows[:10]}")


# the aligner's column score of a and b, the number of feature slots on which
# they agree times the gap penalty's denominator, by that denominator, then by
# a, then by b: scaled once per symbol pair, not once per pair of words
_SIMILARITIES: dict[int, dict[str, dict[str, int]]] = {}


@dataclass(frozen=True)
class Alignment:
    """Global alignment of two words: (a, b, context) per column."""

    pairs: tuple[tuple[str, str, Context], ...]


def align(x: Word, y: Word, gap_penalty: float = 0.5) -> Alignment:
    """Needleman-Wunsch global alignment maximizing summed column scores.

    Column score is 1 - dist(a, b) for a symbol pair and -gap_penalty for
    a gap. Traceback ties prefer substitution, then a gap on the first
    word's track, then a gap on the second's, making the result
    deterministic.

    Scores are exact integers: every column score times ``FEATURE_DIM *
    den``, where ``gap_penalty`` is ``num / den`` in lowest terms. A symbol
    pair scores its agreeing feature slots times ``den`` and a gap scores
    ``-num * FEATURE_DIM``, so equal totals compare equal however large
    the penalty and whether or not it is a binary fraction.
    """
    if not x or not y:
        raise ValueError("cannot align empty words")
    n, m = len(x), len(y)
    num, den = gap_penalty.as_integer_ratio()
    gap_score = num * FEATURE_DIM
    # substitution score of every cell, one row per distinct symbol of x
    rows: dict[str, list[int]] = {}
    scores = _SIMILARITIES.setdefault(den, {})
    for a in x:
        if a not in rows:
            sim = scores.get(a)
            if sim is None:
                sim = scores[a] = {}
            for b in y:
                if b not in sim:
                    sim[b] = den * (FEATURE_DIM - round(FEATURE_DIM * symbol_distance(a, b)))
            rows[a] = list(map(sim.__getitem__, y))
    sub = [rows[a] for a in x]
    # each cell takes the first best of match, gap on a-track, gap on b-track
    score = [[-gap_score * j for j in range(m + 1)]]
    for i in range(1, n + 1):
        left = -gap_score * i
        cur = [left]
        for diag, up, s in zip(score[-1], score[-1][1:], sub[i - 1]):
            best = diag + s
            gap = left - gap_score  # consume y, gap on a-track
            if gap > best:
                best = gap
            gap = up - gap_score  # consume x, gap on b-track
            if gap > best:
                best = gap
            cur.append(best)
            left = best
        score.append(cur)

    columns: list[tuple[str, str]] = []
    i, j = n, m
    while i and j:
        current = score[i][j]
        if current == score[i - 1][j - 1] + sub[i - 1][j - 1]:
            i, j = i - 1, j - 1
            columns.append((x[i], y[j]))
        elif current == score[i][j - 1] - gap_score:
            j -= 1
            columns.append((GAP, y[j]))
        else:
            i -= 1
            columns.append((x[i], GAP))
    # what is left of the longer word goes against gaps
    lead = [(a, GAP) for a in x[:i]] + [(GAP, b) for b in y[:j]]
    return Alignment(pairs=tuple(_with_contexts(lead + columns[::-1])))


def _with_contexts(
    columns: Sequence[tuple[str, str]],
) -> list[tuple[str, str, Context]]:
    # Context = the two column representatives on each side, boundary-padded.
    # A column's representative is its non-gap symbol (a-track preferred).
    reps = [BOUNDARY, BOUNDARY]
    reps += [a if a != GAP else b for a, b in columns]
    reps += [BOUNDARY, BOUNDARY]
    return [
        (a, b, (r0, r1, r3, r4))
        for (a, b), r0, r1, r3, r4 in zip(columns, reps, reps[1:], reps[3:], reps[4:])
    ]


@dataclass
class ContextModel:
    """Smoothed co-occurrence model P(a, b | context) over aligned columns.

    A column key stands for an unordered symbol pair in one context
    window: both orders share a key, because every column is counted in
    both orders. Keys are counted once, after every pair is aligned.
    ``logp[key]`` is its natural-log probability,
    ``log((count + s) / (marginal + s * k))`` with ``s`` the smoothing, the
    marginal the column count of its context and ``k`` the number of
    distinct unordered symbol pairs. ``rows[concept][i][j - i - 1]`` is
    the aligned pair of that concept's words ``i < j``: its mean feature
    distance and its column keys in column order.
    """

    logp: array
    rows: dict[str, list[list[tuple[float, array]]]]


def build_context_model(
    concepts: Mapping[str, Sequence[Word]],
    cfg: RunConfig | None = None,
) -> ContextModel:
    """Align each distinct unordered word pair of each concept once, then
    count the columns of every pair.

    A pair that repeats within its concept shares the column keys of its
    first occurrence, and its columns count again. A column's key interns
    its context id and the id of its sorted symbol pair. Once every pair is
    aligned, the keys of all pair occurrences are counted in one pass; the
    interning tables are dropped before the log-probability table is built,
    and each pair's mean feature distance is filled in last.
    """
    cfg = cfg or RunConfig()
    ctx_of: dict[Context, int] = {}
    pair_of: dict[tuple[str, str], int] = {}  # sorted symbol pair -> pair id
    key_of: dict[int, int] = {}  # context id << 32 | pair id -> key
    keys = array("i")  # the keys of every pair occurrence, a repeated pair's too
    rows: dict[str, list[list]] = {}
    for concept in sorted(concepts):
        words = [tuple(w) for w in concepts[concept]]
        aligned: dict[tuple[Word, Word], array] = {}  # sorted word pair -> its keys
        concept_rows = rows[concept] = []
        for i, x in enumerate(words):
            row = []
            for y in words[i + 1 :]:
                pair = (x, y) if x <= y else (y, x)
                ids = aligned.get(pair)
                if ids is None:
                    ids = aligned[pair] = array("i", [
                        key_of.setdefault(
                            ctx_of.setdefault(ctx, len(ctx_of)) << 32
                            | pair_of.setdefault((a, b) if a <= b else (b, a), len(pair_of)),
                            len(key_of),
                        )
                        for a, b, ctx in align(*pair, cfg.gap_penalty).pairs
                    ])
                keys.extend(ids)
                row.append(ids)
            concept_rows.append(row)
    if not keys:
        raise EmptyDatasetError("no concept contains at least two words")
    k = len(pair_of)
    marginals = array("i", [0]) * len(ctx_of)  # context id -> columns
    del ctx_of
    pair_dist = [symbol_distance(a, b) for a, b in pair_of]
    key_dist = array("d", (pair_dist[column & 0xFFFFFFFF] for column in key_of))
    key_ctx = array("i", (column >> 32 for column in key_of))
    del pair_of, key_of, pair_dist
    counts = array("i", [0]) * len(key_ctx)  # key -> columns
    for key in keys:
        counts[key] += 1
        marginals[key_ctx[key]] += 1
    s = cfg.context_smoothing
    logp = array(
        "d",
        [
            math.log((count + s) / (marginals[c] + s * k))
            for count, c in zip(counts, key_ctx)
        ],
    )
    for concept_rows in rows.values():
        for row in concept_rows:
            row[:] = [(sum([key_dist[key] for key in ids]) / len(ids), ids) for ids in row]
    return ContextModel(logp=logp, rows=rows)


def comparability(
    concept_rows: Sequence[Sequence[tuple[float, array]]],
    model: ContextModel,
    lam: float = 0.5,
) -> list[float]:
    """Per-word comparability C: min-max normalized mean divergence.

    ``concept_rows`` is one concept's ``model.rows`` entry. The divergence
    of a pair is D = lam * D_feat - (1 - lam) * (1/L) * log P_align, with
    log P_align the sum of its columns' log-probabilities. Requires at
    least two words. When every word has the same raw divergence, all C
    values collapse to 0.
    """
    k = len(concept_rows)
    if k < 2:
        raise ValueError("comparability needs at least two words in the concept")
    logp = model.logp
    # each word's divergences; fsum rounds their exact sum once, in any row order
    divs: list[list[float]] = [[] for _ in range(k)]
    for i, row in enumerate(concept_rows):
        for j, (d_feat, ids) in enumerate(row, start=i + 1):
            total = sum([logp[key] for key in ids])
            d = lam * d_feat - (1.0 - lam) * total / len(ids)
            divs[i].append(d)
            divs[j].append(d)
    raws = [math.fsum(d) / (k - 1) for d in divs]
    lo, hi = min(raws), max(raws)
    if hi - lo == 0:
        return [0.0] * len(raws)
    return [(r - lo) / (hi - lo) for r in raws]


def composite(basic: float, comp: float, w1: float = 1.0, w2: float = 1.0) -> float:
    """S = (w1 * B + w2 * (1 - C)) / (w1 + w2)."""
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

    def asymmetry_summary(self) -> str:
        pairs = Counter(zip(self.basic_predicted, self.predicted))
        return (
            "asymmetry diagnostic: "
            f"{pairs[1, 0]} word(s) loan under the basic model "
            "but native under the scaled model; "
            f"{pairs[0, 1]} word(s) loan under the scaled model only"
        )


def detect_scaled(multi: Wordlist, cfg: RunConfig | None = None) -> ScaledResult:
    """Run basic detection per language, then rescale with concept evidence.

    The one place that decides concepts: every entry needs a concept id
    (``MissingConceptError`` names the rows from 1, as ``load_wordlist``
    numbers them). Each word starts at the basic model's values (S = B,
    threshold = tau, the basic label, no C); one loop over the sorted
    concepts writes C, S, theta and the label of every word whose concept
    spans two or more languages. The other concepts fall back, with a
    warning when none spans two languages.
    """
    cfg = cfg or RunConfig()
    if len(multi) == 0:
        raise EmptyDatasetError("empty wordlist")
    missing = [i + 1 for i, e in enumerate(multi) if e.concept_id is None]
    if missing:
        raise MissingConceptError(missing)

    # the per-language states (every pass's probabilities) are not kept
    # through the alignment work below
    basic, basic_labels = detect_wordlist(multi, cfg)[:2]

    members: dict[str, list[int]] = {}
    for i, entry in enumerate(multi):
        members.setdefault(entry.concept_id, []).append(i)
    # context model over every concept with at least two entries
    alignable = {
        c: [multi.entries[i].ipa for i in idxs] for c, idxs in members.items() if len(idxs) >= 2
    }
    model = build_context_model(alignable, cfg) if alignable else None

    n = len(multi)
    comp: list[float | None] = [None] * n
    scores, thresholds, predicted = list(basic), [cfg.tau] * n, list(basic_labels)
    fallback: list[str] = []
    for concept in sorted(members):
        idxs = members[concept]
        if len({multi.entries[i].language for i in idxs}) < 2:
            fallback.append(concept)
            continue
        # two languages imply two entries, so the model holds the concept
        cs = comparability(model.rows[concept], model, cfg.divergence_lambda)
        for i, c in zip(idxs, cs):
            b = basic[i]
            s = composite(b, c, cfg.composite_w1, cfg.composite_w2)
            theta = dynamic_threshold(b, c, cfg.threshold_alpha, cfg.threshold_beta)
            comp[i], scores[i], thresholds[i], predicted[i] = c, s, theta, classify(s, theta)
    if len(fallback) == len(members):
        log.warning("no concept spans two languages; scaled output equals basic output")
    elif fallback:
        log.info("%d concept(s) lack cross-linguistic counterparts; "
                 "falling back to basic classification", len(fallback))
    return ScaledResult(
        basic=basic, comparability=comp, composite=scores, thresholds=thresholds,
        predicted=predicted, basic_predicted=basic_labels, fallback_concepts=fallback,
    )
