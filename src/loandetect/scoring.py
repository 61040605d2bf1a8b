"""Composite scoring: weighted features to borrowing probabilities.

The pipeline per word is:

    min-max normalize features over the vocabulary
    -> s  = weighted linear combination (weights rescaled per mode)
    -> s' = s * length modifier * part-of-speech modifier
    -> P  = scaled sigmoid of s'
    -> P' = anomaly-boosted probability, clamped to 1

Feature polarity: ``avg_trans_prob`` enters inverted (low average
transition probability is loan-like); every other feature enters as-is.
The polarity map is configurable per feature.

``score_all`` works on columns, one per feature in the order of the
first vector's keys. Each column is read once, normalized with one min
and one max, and flipped where its polarity is negative (its *signal*).
The weight of each feature times the mode's rescale factor is folded into
one coefficient per feature, once per call (``_coefficients``, the only
place the rescaling rule lives). A word's raw score is ``sum()`` of its
``coefficient * signal`` terms in feature order; the anomaly boosts are
multiplied per column in the same order, and the features that fired are
kept as a per-word bitmask until the results are built.
``composite_score`` and ``boost`` score one word by the same rules.

Every stage reads its constants (``weights``, ``pos_weights``,
``polarity``, ``gamma``, ``center``, ``anomaly_thresholds``,
``anomaly_boosts``) from a ``RunConfig``; ``RunConfig.validate`` is the
only place they are checked. The scorer never reads ``mode``: the
features present in the vectors decide what is weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .features import CORE_FEATURES, SEGMENTAL_FEATURES

if TYPE_CHECKING:
    from .config import RunConfig

DEFAULT_WEIGHTS: dict[str, float] = {
    "rare_ngram_score": 0.30,
    "rare_transition_score": 0.20,
    "trans_entropy": 0.15,
    "ngram_entropy": 0.15,
    "avg_trans_prob": 0.10,
    "len_z": 0.10,
    # segmental block, used in aug mode only
    "cv_anomaly": 0.10,
    "char_dist_anomaly": 0.10,
    "cluster_score": 0.10,
    "vowel_ratio": 0.10,
}

DEFAULT_POS_WEIGHTS: dict[str, float] = {
    "noun": 1.0,
    "adjective": 0.5,
    "verb": 0.3,
    "adverb": 0.2,
    "function": 0.05,
}

# Features whose normalized value is flipped before weighting/boosting.
DEFAULT_POLARITY: dict[str, int] = {name: 1 for name in DEFAULT_WEIGHTS}
DEFAULT_POLARITY["avg_trans_prob"] = -1

ALL_FEATURES = CORE_FEATURES + SEGMENTAL_FEATURES

_NO_ANOMALIES: frozenset[str] = frozenset()


class MissingWeightError(KeyError):
    pass


@dataclass(frozen=True)
class ScoreResult:
    raw: float
    adjusted: float
    probability: float
    boosted: float
    anomalies: frozenset[str]


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _normalize(values: Sequence[float]) -> list[float]:
    """Min-max normalization of one feature column; a constant column maps to 0.5."""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        return [0.5] * len(values)
    return [(v - lo) / span for v in values]


def normalize_features(
    vectors: Sequence[Mapping[str, float]],
) -> list[dict[str, float]]:
    """Per-feature min-max normalization over the vocabulary.

    Constant features map to 0.5 for every word (a single-word vocabulary
    therefore normalizes to all 0.5s).
    """
    if not vectors:
        raise ValueError("no feature vectors to normalize")
    names = list(vectors[0])
    columns = [_normalize([v[n] for v in vectors]) for n in names]
    return [{n: col[i] for n, col in zip(names, columns)} for i in range(len(vectors))]


def _signals(
    columns: Mapping[str, list[float]], polarity: Mapping[str, int]
) -> list[list[float]]:
    """Normalized feature columns as loan signals: flipped where polarity is negative."""
    return [
        col if polarity.get(n, 1) >= 0 else [1.0 - x for x in col]
        for n, col in columns.items()
    ]


def _coefficients(names: Sequence[str], cfg: RunConfig) -> list[float]:
    """Weight times rescale factor of each of the present features ``names``.

    The weights of the present features are rescaled so their sum equals
    the full core-feature weight mass, preserving total weight across
    ablation/augmentation modes while keeping relative importance.
    """
    missing = [n for n in names if n not in cfg.weights]
    if missing:
        raise MissingWeightError(missing[0])
    base_total = sum(cfg.weights[n] for n in CORE_FEATURES if n in cfg.weights)
    present_total = sum(cfg.weights[n] for n in names)
    if present_total <= 0:
        raise ValueError("present-feature weights sum to zero")
    factor = base_total / present_total
    return [cfg.weights[n] * factor for n in names]


def composite_score(normed: Mapping[str, float], cfg: RunConfig) -> float:
    """Weighted sum of the present features, with mode-rescaled weights."""
    coefficients = _coefficients(list(normed), cfg)
    signals = _signals({n: [x] for n, x in normed.items()}, cfg.polarity)
    return sum(c * s for c, (s,) in zip(coefficients, signals))


def length_modifier(len_z: float) -> float:
    """Amplify scores for length outliers: 1 + 0.5*(logistic(3(|z|-1.5)) - 0.5).

    Neutral (exactly 1) at |z| = 1.5; approaches 0.75 for average-length
    words and 1.25 for extreme outliers.
    """
    return 1.0 + 0.5 * (_logistic(3.0 * (abs(len_z) - 1.5)) - 0.5)


def pos_modifier(pos: str, cfg: RunConfig) -> float:
    try:
        return cfg.pos_weights[pos]
    except KeyError:
        raise MissingWeightError(pos) from None


def to_probability(adjusted: float, cfg: RunConfig) -> float:
    """Scaled sigmoid: 1 / (1 + exp(-gamma * (s' - center)))."""
    return _logistic(cfg.gamma * (adjusted - cfg.center))


def _anomaly_factors(
    names: Sequence[str], signals: Sequence[Sequence[float]], size: int, cfg: RunConfig
) -> tuple[list[float], list[int]]:
    """Each word's boost factor and the bitmask of its anomalous features.

    A feature is anomalous for a word when its signal exceeds the
    feature's threshold; the factor multiplies (1 + eta_f * excess) over
    those features in column order, and bit k of the mask is ``names[k]``.
    """
    factors = [1.0] * size
    masks = [0] * size
    for bit, (name, column) in enumerate(zip(names, signals)):
        threshold = cfg.anomaly_thresholds.get(name)
        if threshold is None:
            continue
        eta = cfg.anomaly_boosts.get(name, 0.0)
        flag = 1 << bit
        for i in [i for i, s in enumerate(column) if s > threshold]:
            factors[i] *= 1.0 + eta * (column[i] - threshold)
            masks[i] |= flag
    return factors, masks


def _anomaly_names(names: Sequence[str], mask: int) -> frozenset[str]:
    if not mask:
        return _NO_ANOMALIES
    return frozenset(n for bit, n in enumerate(names) if mask >> bit & 1)


def boost(
    prob: float, normed: Mapping[str, float], cfg: RunConfig
) -> tuple[float, frozenset[str]]:
    """Multiply P by (1 + eta_f * excess) per feature over its anomaly threshold.

    The excess is measured on the polarity-adjusted normalized value, so
    an anomaly always means "strongly loan-indicating". Returns the
    boosted probability (clamped to 1) and the set of triggered features.
    """
    names = list(normed)
    signals = _signals({n: [x] for n, x in normed.items()}, cfg.polarity)
    (factor,), (mask,) = _anomaly_factors(names, signals, 1, cfg)
    return min(prob * factor, 1.0), _anomaly_names(names, mask)


def score_all(
    vectors: Sequence[Mapping[str, float]],
    pos_tags: Sequence[str],
    cfg: RunConfig,
) -> list[ScoreResult]:
    """Run the full scoring pipeline over a vocabulary, input order preserved.

    Equal, bit for bit, to ``composite_score``, the modifiers,
    ``to_probability`` and ``boost`` applied word by word to
    ``normalize_features(vectors)``.
    """
    if len(vectors) != len(pos_tags):
        raise ValueError("need one POS tag per feature vector")
    if not vectors:
        raise ValueError("no feature vectors to normalize")
    names = list(vectors[0])
    coefficients = _coefficients(names, cfg)
    signals = _signals({n: _normalize([v[n] for v in vectors]) for n in names}, cfg.polarity)
    # sum() per word rather than a running column total: from Python 3.12
    # on, sum() of floats is compensated, and this must stay equal to
    # composite_score on every supported version
    raw = list(map(sum, zip(*[[c * s for s in col] for c, col in zip(coefficients, signals)])))
    adjusted = [
        r * length_modifier(v.get("len_z", 0.0)) * pos_modifier(pos, cfg)
        for r, v, pos in zip(raw, vectors, pos_tags)
    ]
    probs = [to_probability(a, cfg) for a in adjusted]
    factors, masks = _anomaly_factors(names, signals, len(vectors), cfg)
    boosted = [min(p * f, 1.0) for p, f in zip(probs, factors)]
    anomalies = [_anomaly_names(names, m) for m in masks]
    return list(map(ScoreResult, raw, adjusted, probs, boosted, anomalies))
