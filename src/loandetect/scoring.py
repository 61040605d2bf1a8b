"""Composite scoring: feature columns to borrowing probabilities.

The pipeline per word is:

    min-max normalize features over the vocabulary
    -> s  = weighted linear combination (weights rescaled per mode)
    -> s' = s * length modifier * part-of-speech modifier
    -> P  = scaled sigmoid of s'
    -> P' = anomaly-boosted probability, clamped to 1

Feature polarity: ``avg_trans_prob`` enters inverted (low average
transition probability is loan-like); every other feature enters as-is.
The polarity map is configurable per feature.

``score_all`` takes the feature columns ``features.extract_all`` returns,
one list per feature in the mode's feature order, and returns two
columns: each word's boosted probability and the bitmask of its
anomalous features (bit k is the k-th column). Each column is normalized
with one min and one max and flipped where its polarity is negative (its
*signal*). The weight of each feature times the mode's rescale factor is
folded into one coefficient per feature, once per call (``_coefficients``,
the only place the rescaling rule lives). A word's raw score is ``sum()``
of its ``coefficient * signal`` terms in feature order; the anomaly
boosts are multiplied per column in the same order. ``bf_score`` in
``tests/oracles.py`` scores word by word by the same rules and is the
reference the columns are tested against.

Every stage reads its constants (``weights``, ``pos_weights``,
``polarity``, ``gamma``, ``center``, ``anomaly_thresholds``,
``anomaly_boosts``) from a ``RunConfig``; ``RunConfig.validate`` is the
only place they are checked: it requires a weight for every feature of
the mode and every POS category, core-feature weights that sum above 0
and polarities of -1 or 1. The scorer never reads ``mode``: the columns
present decide what is weighted.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .features import CORE_FEATURES, SEGMENTAL_FEATURES

if TYPE_CHECKING:
    from .config import RunConfig

DEFAULT_WEIGHTS: dict[str, float] = {
    "rare_ngram_score": 0.30,
    "rare_transition_score": 0.20,
    "trans_surprisal": 0.15,
    "ngram_surprisal": 0.15,
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


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def min_max(values: Sequence[float], constant: float) -> list[float]:
    """Min-max normalization into [0, 1]; a constant column maps to ``constant``."""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        return [constant] * len(values)
    return [(v - lo) / span for v in values]


def _coefficients(names: Sequence[str], cfg: RunConfig) -> list[float]:
    """Weight times rescale factor of each of the present features ``names``.

    The weights of the present features are rescaled so their sum equals
    the full core-feature weight mass, preserving total weight across
    ablation/augmentation modes while keeping relative importance.
    """
    base_total = sum(cfg.weights[n] for n in CORE_FEATURES if n in cfg.weights)
    factor = base_total / sum(cfg.weights[n] for n in names)
    return [cfg.weights[n] * factor for n in names]


def length_modifier(len_z: float) -> float:
    """Amplify scores for length outliers: 1 + 0.5*(logistic(3(|z|-1.5)) - 0.5).

    Neutral (exactly 1) at |z| = 1.5; approaches 0.75 for average-length
    words and 1.25 for extreme outliers.
    """
    return 1.0 + 0.5 * (_logistic(3.0 * (abs(len_z) - 1.5)) - 0.5)


def pos_modifier(pos: str, cfg: RunConfig) -> float:
    return cfg.pos_weights[pos]


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


def score_all(
    columns: Mapping[str, Sequence[float]],
    pos_tags: Sequence[str],
    cfg: RunConfig,
) -> tuple[list[float], list[int]]:
    """Each word's boosted probability and anomaly bitmask, input order preserved.

    ``columns`` maps each feature to its column, one value per word; bit
    k of a mask is set when the k-th column's feature fired for the word.
    """
    if not pos_tags:
        raise ValueError("no words to score")
    if any(len(column) != len(pos_tags) for column in columns.values()):
        raise ValueError("need one POS tag per word")
    names = list(columns)
    coefficients = _coefficients(names, cfg)
    signals = []
    for name, column in columns.items():
        normed = min_max(column, 0.5)
        signals.append(normed if cfg.polarity.get(name, 1) >= 0 else [1.0 - x for x in normed])
    # sum() per word rather than a running column total: from Python 3.12
    # on, sum() of floats is compensated, and the reports keep the bits of
    # the plain per-word sum on every supported version
    raw = list(map(sum, zip(*[[c * s for s in col] for c, col in zip(coefficients, signals)])))
    probs = [
        to_probability(r * length_modifier(z) * pos_modifier(pos, cfg), cfg)
        for r, z, pos in zip(raw, columns["len_z"], pos_tags)
    ]
    factors, masks = _anomaly_factors(names, signals, len(pos_tags), cfg)
    # a boost cannot lift a zero probability, also when it overflows (0 * inf is nan)
    return [min(p * f, 1.0) if p else 0.0 for p, f in zip(probs, factors)], masks
