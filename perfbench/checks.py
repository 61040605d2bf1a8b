"""Output checks made apart from the program.

Every check here compares a report (or, in the traced run, an intermediate
result) against the generator's own record of the input or against a
property of the method, recomputed with plain code. None of them compares
against a stored copy of an earlier report.
"""

from __future__ import annotations

import math
from collections import defaultdict

# Reports print every float with 6 decimals; a recomputed value may differ
# from the printed one by the rounding of each printed input.
ROUND = 0.5e-6


def parse_report(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header ``# key = value`` lines, then one dict per TSV row."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[dict[str, str]] = []
    for line in text.split("\n"):
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split("\t")
        else:
            rows.append(dict(zip(header, line.split("\t"))))
    return meta, rows


def f1_score(predicted: list[int], gold: list[int]) -> float:
    tp = sum(1 for p, g in zip(predicted, gold) if p and g)
    fp = sum(1 for p, g in zip(predicted, gold) if p and not g)
    fn = sum(1 for p, g in zip(predicted, gold) if g and not p)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def check_report(entries, text: str, scaled: bool) -> tuple[list[str], float]:
    """Failures found in a report, and the F1 of its labels against the gold."""
    failures: list[str] = []

    def fail(msg: str) -> None:
        if len(failures) < 20:
            failures.append(msg)

    meta, rows = parse_report(text)
    if len(rows) != len(entries):
        fail(f"report has {len(rows)} rows for {len(entries)} input entries")
        return failures, 0.0
    try:
        tau = float(meta["tau"])
        alpha, beta = float(meta["threshold_alpha"]), float(meta["threshold_beta"])
        w1, w2 = float(meta["composite_w1"]), float(meta["composite_w2"])
    except (KeyError, ValueError) as exc:
        fail(f"report header lacks the run configuration: {exc}")
        return failures, 0.0

    predicted: list[int] = []
    by_concept: dict[str, list[tuple[int, dict[str, str]]]] = defaultdict(list)
    for i, (entry, row) in enumerate(zip(entries, rows)):
        if row.get("word") != entry.word or row.get("language") != entry.language:
            fail(f"row {i}: {row.get('word')!r}/{row.get('language')!r}, "
                 f"expected {entry.word!r}/{entry.language!r}")
            continue
        try:
            label = int(row["predicted_label"])
            prob = float(row["S" if scaled else "probability"])
        except (KeyError, ValueError):
            fail(f"row {i}: unreadable label or probability")
            continue
        predicted.append(label)
        if label not in (0, 1) or not 0.0 <= prob <= 1.0:
            fail(f"row {i}: label {label} or probability {prob} out of range")
        if scaled:
            by_concept[row.get("concept", "")].append((i, row))
        elif abs(prob - tau) > ROUND and label != int(prob >= tau):
            fail(f"row {i}: label {label} but probability {prob} against tau {tau}")
    if failures:
        return failures, 0.0

    if scaled:
        for concept, members in by_concept.items():
            for msg in _check_concept(concept, members, tau, alpha, beta, w1, w2):
                fail(msg)
    return failures, f1_score(predicted, [e.gold for e in entries])


def _check_concept(concept, members, tau, alpha, beta, w1, w2) -> list[str]:
    out: list[str] = []
    languages = {row["language"] for _, row in members}
    try:
        cols = [
            (i, float(r["B"]), None if r["C"] == "" else float(r["C"]), float(r["S"]),
             float(r["theta"]), int(r["predicted_label"]))
            for i, r in members
        ]
    except (KeyError, ValueError):
        return [f"concept {concept}: unreadable B/C/S/theta columns"]
    if len(members) < 2 or len(languages) < 2:
        for i, b, c, s, theta, label in cols:
            if c is not None or s != b or theta != tau or label != int(b >= tau):
                out.append(f"row {i}: single-language concept {concept} is not the basic result")
        return out
    cs = [c for _, _, c, _, _, _ in cols]
    if any(c is None for c in cs):
        return [f"concept {concept}: comparability missing for a multi-language concept"]
    if not (all(c == 0.0 for c in cs) or (min(cs) == 0.0 and max(cs) == 1.0)):
        out.append(f"concept {concept}: C spans [{min(cs)}, {max(cs)}], not [0, 1]")
    for i, b, c, s, theta, label in cols:
        tol = 4 * ROUND
        if abs(s - (w1 * b + w2 * (1.0 - c)) / (w1 + w2)) > tol:
            out.append(f"row {i}: S={s} is not (B + 1 - C)/2 for B={b}, C={c}")
        if abs(theta - (alpha + beta * ((1.0 - c) - b))) > tol:
            out.append(f"row {i}: theta={theta} is not alpha + beta((1 - C) - B)")
        if abs(s - theta) > 2 * ROUND and label != int(s >= theta):
            out.append(f"row {i}: label {label} but S={s}, theta={theta}")
    return out


# --- traced-run checks -------------------------------------------------------


def plain_ngram_probs(words, nmin: int, nmax: int) -> dict[tuple, float]:
    counts: dict[tuple, int] = {}
    totals: dict[int, int] = {}
    for w in words:
        for n in range(nmin, min(nmax, len(w)) + 1):
            for start in range(len(w) - n + 1):
                g = tuple(w[start:start + n])
                counts[g] = counts.get(g, 0) + 1
                totals[n] = totals.get(n, 0) + 1
    return {g: c / totals[len(g)] for g, c in counts.items()}


def plain_transition_probs(words) -> dict[tuple, float]:
    pairs: dict[tuple, int] = {}
    left: dict[str, int] = {}
    for w in words:
        for a, b in zip(w, w[1:]):
            pairs[(a, b)] = pairs.get((a, b), 0) + 1
            left[a] = left.get(a, 0) + 1
    return {p: c / left[p[0]] for p, c in pairs.items()}


def _same_probs(label: str, got, want) -> list[str]:
    if set(got) != set(want):
        return [f"{label}: {len(set(got) ^ set(want))} keys differ from the plain count"]
    bad = [k for k in want if not math.isclose(got[k], want[k], rel_tol=1e-12, abs_tol=1e-15)]
    return [f"{label}: {len(bad)} probabilities differ, e.g. {bad[0]}"] if bad else []


def check_statistics(group: str, words, stats, nmin: int, nmax: int) -> list[str]:
    """The first statistics of a group against n-grams and transitions counted plainly."""
    return _same_probs(
        f"{group} n-grams", stats.ngram_prob, plain_ngram_probs(words, nmin, nmax)
    ) + _same_probs(f"{group} transitions", stats.trans_prob, plain_transition_probs(words))


def plain_distance(features, gap: str):
    """Share of the 8 feature slots on which two symbols differ. A gap
    differs from everything; a symbol outside the table equals only itself."""

    def distance(a: str, b: str) -> float:
        if a == b and a != gap:
            return 0.0
        fa, fb = features.get(a), features.get(b)
        if a == gap or b == gap or fa is None or fb is None:
            return 1.0
        return sum(x != y for x, y in zip(fa, fb)) / len(fa)

    return distance


def best_alignment_score(x, y, distance, gap_penalty: float) -> float:
    """Needleman-Wunsch optimum of the summed column scores, by a plain DP."""
    prev = [-gap_penalty * j for j in range(len(y) + 1)]
    for i in range(1, len(x) + 1):
        row = [-gap_penalty * i]
        for j in range(1, len(y) + 1):
            row.append(max(
                prev[j - 1] + 1.0 - distance(x[i - 1], y[j - 1]),
                prev[j] - gap_penalty,
                row[j - 1] - gap_penalty,
            ))
        prev = row
    return prev[-1]


def check_alignment(x, y, gap_penalty, pairs, distance, gap: str) -> list[str]:
    """Both tracks reproduce the input words and the columns score the optimum."""
    out = []
    if tuple(a for a, _, _ in pairs if a != gap) != tuple(x):
        out.append(f"alignment of {x}/{y}: first track does not reproduce {x}")
    if tuple(b for _, b, _ in pairs if b != gap) != tuple(y):
        out.append(f"alignment of {x}/{y}: second track does not reproduce {y}")
    total = sum(
        -gap_penalty if gap in (a, b) else 1.0 - distance(a, b) for a, b, _ in pairs
    )
    best = best_alignment_score(x, y, distance, gap_penalty)
    if not math.isclose(total, best, abs_tol=1e-9):
        out.append(f"alignment of {x}/{y}: column score {total} below the optimum {best}")
    return out
