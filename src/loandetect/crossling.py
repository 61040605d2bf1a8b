"""Cross-linguistic scaling: alignment, divergence, and composite classification.

Words sharing a concept across languages are pairwise aligned with a
Needleman-Wunsch-style global aligner whose column score is 1 minus the
phonological feature distance of the aligned symbols (gaps cost a flat
penalty). The divergence of two words is their mean feature distance
D_feat over the aligned columns, a gap column counting 1; each word's
mean divergence to its concept-mates, min-max normalized per concept, is
the comparability score C. The composite score fuses C with the basic
model's borrowing probability B, and a dynamic per-word threshold decides
the label. ``detect_scaled`` alone decides which words get this evidence:
those whose concept spans two or more languages; every other word keeps
its basic classification, and its concept is never aligned.

Each distinct unordered word pair of a concept is aligned once; a pair
that occurs again in the concept reuses the D_feat of its first
alignment, and a word paired with itself (a word two languages share)
is not aligned at all: its D_feat is 0. That memo is kept per concept,
so it never grows past one concept's pairs. The aligner scores in integers, so its
traceback finds ties exactly at any gap penalty, and each column's
feature distance is read back off the integer score it tabled. It tables
the column scores of a pair before its DP, from a memo of each symbol
pair's integer score (the feature slots on which the two agree, scaled to
the penalty's denominator), which calls ``ipa.symbol_distance`` once for
each symbol pair it has not seen at that denominator, and fills each DP
cell with plain comparisons.

Detection writes and logs nothing: ``ScaledResult.passes`` holds what
each language's detection noticed, and the command line logs it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .config import RunConfig
from .ipa import FEATURE_DIM, GAP, symbol_distance
from .refiner import PassRecord, detect_wordlist
from .scoring import min_max
from .wordlist import Wordlist

Word = tuple[str, ...]


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


class Alignment(NamedTuple):
    """Global alignment of two words: (a, b, d) per column, with d the
    column's feature distance, ``symbol_distance(a, b)`` or 1.0 for a gap."""

    pairs: tuple[tuple[str, str, float], ...]


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
    the penalty and whether or not it is a binary fraction. A symbol
    pair's distance is a multiple of ``1 / FEATURE_DIM``, so its column's
    ``(FEATURE_DIM * den - s) / (FEATURE_DIM * den)`` is that distance bit
    for bit.
    """
    if not x or not y:
        raise ValueError("cannot align empty words")
    n, m = len(x), len(y)
    num, den = gap_penalty.as_integer_ratio()
    gap_score, full = num * FEATURE_DIM, den * FEATURE_DIM
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

    columns: list[tuple[str, str, float]] = []
    i, j = n, m
    while i and j:
        current = score[i][j]
        s = sub[i - 1][j - 1]
        if current == score[i - 1][j - 1] + s:
            i, j = i - 1, j - 1
            columns.append((x[i], y[j], (full - s) / full))
        elif current == score[i][j - 1] - gap_score:
            j -= 1
            columns.append((GAP, y[j], 1.0))
        else:
            i -= 1
            columns.append((x[i], GAP, 1.0))
    # what is left of the longer word goes against gaps
    lead = [(a, GAP, 1.0) for a in x[:i]] + [(GAP, b, 1.0) for b in y[:j]]
    return Alignment(pairs=tuple(lead + columns[::-1]))


def build_context_model(
    concepts: Mapping[str, Sequence[Word]],
    cfg: RunConfig | None = None,
) -> dict[str, list[list[float]]]:
    """The D_feat of every word pair of each concept: ``rows[concept][i][j - i - 1]``
    for its words ``i < j``.

    D_feat is the mean of the columns' feature distances. Each distinct
    unordered word pair of a concept is aligned once, smaller word first;
    a pair that repeats within its concept takes its first alignment's
    value. Two identical words are not aligned: their D_feat is 0.0. The
    name is kept from the context model this table replaced, because the
    benchmark's instrument wraps it by name; it goes once that instrument
    reads spans from the package.
    """
    cfg = cfg or RunConfig()
    rows: dict[str, list[list[float]]] = {}
    for concept in sorted(concepts):
        words = [tuple(w) for w in concepts[concept]]
        d_feat: dict[tuple[Word, Word], float] = {}  # sorted word pair -> its D_feat
        concept_rows = rows[concept] = []
        for i, x in enumerate(words):
            row = []
            for y in words[i + 1 :]:
                if x == y:
                    # the diagonal scores 1 a column and a gap column at most 0
                    # (gap_penalty >= 0), so it is the one optimum, at distance 0
                    row.append(0.0)
                    continue
                pair = (x, y) if x <= y else (y, x)
                d = d_feat.get(pair)
                if d is None:
                    columns = align(*pair, cfg.gap_penalty).pairs
                    d = d_feat[pair] = sum([c[2] for c in columns]) / len(columns)
                row.append(d)
            concept_rows.append(row)
    if not any(len(r) > 1 for r in rows.values()):
        raise EmptyDatasetError("no concept contains at least two words")
    return rows


def comparability(concept_rows: Sequence[Sequence[float]]) -> list[float]:
    """Per-word comparability C: min-max normalized mean divergence.

    ``concept_rows`` is one concept's ``build_context_model`` entry: the
    divergence D_feat of each of its word pairs. Requires at least two
    words. When every word has the same mean divergence, all C values
    collapse to 0.
    """
    k = len(concept_rows)
    if k < 2:
        raise ValueError("comparability needs at least two words in the concept")
    # each word's divergences; fsum rounds their exact sum once, in any row order
    divs: list[list[float]] = [[] for _ in range(k)]
    for i, row in enumerate(concept_rows):
        for j, d in enumerate(row, start=i + 1):
            divs[i].append(d)
            divs[j].append(d)
    return min_max([math.fsum(d) / (k - 1) for d in divs], 0.0)


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


class ScaledResult(NamedTuple):
    """Per-entry outputs of the scaled model, in wordlist order; ``passes``
    is each language's ``PassRecord``, in ``language_rows`` order."""

    basic: list[float]
    comparability: list[float | None]
    composite: list[float]
    thresholds: list[float]
    predicted: list[int]
    basic_predicted: list[int]
    fallback_concepts: list[str]
    passes: dict[str, PassRecord]

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
    concepts that span two or more languages writes C, S, theta and the
    label of each of their words. Only those concepts are aligned. The
    other concepts fall back (``fallback_concepts``); when none spans two
    languages, every word keeps its basic values.
    """
    cfg = cfg or RunConfig()
    if len(multi) == 0:
        raise EmptyDatasetError("empty wordlist")
    missing = [i + 1 for i, e in enumerate(multi) if e.concept_id is None]
    if missing:
        raise MissingConceptError(missing)

    # the per-language states (every pass's probabilities) are not kept
    # through the alignment work below: only their pass records are
    basic, basic_labels, states = detect_wordlist(multi, cfg)
    passes = {lang: state.record() for lang, state in states.items()}
    del states

    members: dict[str, list[int]] = {}
    for i, entry in enumerate(multi):
        members.setdefault(entry.concept_id, []).append(i)
    entries = multi.entries
    spanning = {
        c: idxs for c, idxs in members.items() if len({entries[i].language for i in idxs}) >= 2
    }
    # two languages imply two entries, so every spanning concept holds a pair
    words = {c: [entries[i].ipa for i in idxs] for c, idxs in spanning.items()}
    d_feat = build_context_model(words, cfg) if words else {}

    n = len(multi)
    comp: list[float | None] = [None] * n
    scores, thresholds, predicted = list(basic), [cfg.tau] * n, list(basic_labels)
    fallback = sorted(members.keys() - spanning.keys())
    for concept in sorted(spanning):
        for i, c in zip(spanning[concept], comparability(d_feat[concept])):
            b = basic[i]
            s = composite(b, c, cfg.composite_w1, cfg.composite_w2)
            theta = dynamic_threshold(b, c, cfg.threshold_alpha, cfg.threshold_beta)
            comp[i], scores[i], thresholds[i], predicted[i] = c, s, theta, classify(s, theta)
    return ScaledResult(
        basic=basic, comparability=comp, composite=scores, thresholds=thresholds,
        predicted=predicted, basic_predicted=basic_labels, fallback_concepts=fallback,
        passes=passes,
    )
