"""Every configuration that ``RunConfig.validate`` accepts yields finite outputs.

A Hypothesis property draws every field from inside the range that
``validate`` accepts, in all four modes, runs ``detect`` and ``detect-xl``
on small generated wordlists, and requires every written probability,
comparability, composite and threshold to be finite and in [0, 1] and every
label to be 0 or 1. Every float field without a tighter ``validate``
bound is drawn over the whole float range its sign allows: ``gamma``, the
anomaly boosts, ``gap_penalty``, the composite weights,
``pattern_up_factor`` and ``pattern_smoothing`` up to the float maximum,
and the weights, ``center`` and the anomaly thresholds over ±the float
maximum. ``context_smoothing`` and the four rarity constants
``rare_*_c*`` are drawn up to their ``validate`` bound.

Every drawn config is one that ``validate`` accepts, so Hypothesis filters
none. ``composite_w2`` is drawn up to the room that ``composite_w1`` leaves
below the float maximum. One core weight of the mode, the pivot, is drawn
positive (full mode's largest weight is the pivot); when the weights'
sums cancel to 0 or below or overflow, every other weight that
``validate`` sums is halved until it accepts them, which it does at the
latest once they are too small to move the sums off the pivot.
"""

import math
import sys
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from loandetect.config import (
    _WEIGHT_ORDER,
    MAX_CONTEXT_SMOOTHING,
    MAX_RARITY_C,
    ConfigError,
    RunConfig,
)
from loandetect.crossling import detect_scaled
from loandetect.evaluation import generate_synthetic, generate_synthetic_multilingual
from loandetect.features import CORE_FEATURES, MODES, SEGMENTAL_FEATURES, feature_names
from loandetect.refiner import detect_wordlist
from loandetect.scoring import ALL_FEATURES
from loandetect.wordlist import POS_CATEGORIES

from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR

UNIT = st.floats(0.0, 1.0)
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
FLOAT_MAX = sys.float_info.max


FINITE = st.floats(-FLOAT_MAX, FLOAT_MAX)


def positive(cap):
    return st.floats(0.0, cap, exclude_min=True)


def per_feature(values):
    return st.fixed_dictionaries({name: values for name in ALL_FEATURES})


def headroom(x):
    """The largest positive float that adds to the positive float ``x`` without overflow."""
    room = FLOAT_MAX - x
    while not math.isfinite(x + room):
        room = math.nextafter(room, 0.0)
    return max(room, math.ulp(0.0))


@st.composite
def weights(draw, mode):
    """Every feature's weight, and the pivot: a core weight of the mode drawn positive."""
    if mode == "full":
        # validate requires rare_ngram >= rare_transition >= ... >= len_z > 0
        core = sorted(draw(st.lists(positive(FLOAT_MAX), min_size=6, max_size=6)), reverse=True)
        out = dict(zip(_WEIGHT_ORDER, core))
        out.update({name: draw(FINITE) for name in SEGMENTAL_FEATURES})
        return out, _WEIGHT_ORDER[0]
    out = draw(per_feature(FINITE))
    pivot = draw(st.sampled_from([n for n in feature_names(mode) if n in CORE_FEATURES]))
    out[pivot] = draw(positive(FLOAT_MAX))
    return out, pivot


def halved(weights, mode, pivot):
    """``weights`` with every weight that validate sums, but the pivot, halved;
    full mode's stay positive."""
    floor = math.ulp(0.0) if mode == "full" else 0.0
    summed = set(feature_names(mode)) | set(CORE_FEATURES)
    return {
        name: max(w / 2, floor) if name in summed and name != pivot else w
        for name, w in weights.items()
    }


@st.composite
def accepted_configs(draw):
    mode = draw(st.sampled_from(MODES))
    ngram_min = draw(st.integers(1, 4))
    ngram_eps = sorted(draw(st.lists(UNIT, min_size=2, max_size=2, unique=True)))
    trans_eps = sorted(draw(st.lists(UNIT, min_size=2, max_size=2, unique=True)))
    alpha = draw(UNIT)
    spread = min(alpha, 1.0 - alpha)
    feature_weights, pivot = draw(weights(mode))
    composite_w1 = draw(positive(FLOAT_MAX))
    fields = dict(
        mode=mode,
        ngram_min=ngram_min,
        ngram_max=draw(st.integers(ngram_min, ngram_min + 8)),
        rare_ngram_eps1=ngram_eps[0],
        rare_ngram_eps2=ngram_eps[1],
        rare_trans_eps1=trans_eps[0],
        rare_trans_eps2=trans_eps[1],
        rare_ngram_c1=draw(st.floats(0.0, MAX_RARITY_C)),
        rare_ngram_c2=draw(st.floats(0.0, MAX_RARITY_C)),
        rare_trans_c1=draw(st.floats(0.0, MAX_RARITY_C)),
        rare_trans_c2=draw(st.floats(0.0, MAX_RARITY_C)),
        weights=feature_weights,
        pos_weights=draw(st.fixed_dictionaries(
            {pos: st.floats(0.0, 1.0, exclude_min=True) for pos in POS_CATEGORIES}
        )),
        polarity=draw(per_feature(st.sampled_from([-1, 1]))),
        gamma=draw(positive(FLOAT_MAX)),
        center=draw(FINITE),
        anomaly_thresholds=draw(per_feature(FINITE)),
        anomaly_boosts=draw(per_feature(st.floats(0.0, FLOAT_MAX))),
        tau=draw(OPEN_UNIT),
        max_iterations=draw(st.integers(1, 4)),
        convergence_fraction=draw(UNIT),
        pattern_refinement=draw(st.booleans()),
        pattern_from_iteration=draw(st.integers(1, 4)),
        pattern_high_cut=draw(UNIT),
        pattern_low_cut=draw(UNIT),
        pattern_down_factor=draw(st.floats(0.0, 1.0, exclude_min=True)),
        pattern_up_factor=draw(positive(FLOAT_MAX)),
        pattern_smoothing=draw(positive(FLOAT_MAX)),
        gap_penalty=draw(st.floats(0.0, FLOAT_MAX)),
        divergence_lambda=draw(UNIT),
        composite_w1=composite_w1,
        composite_w2=draw(positive(headroom(composite_w1))),
        threshold_alpha=alpha,
        threshold_beta=draw(st.floats(-spread, spread)),
        context_smoothing=draw(positive(MAX_CONTEXT_SMOOTHING)),
        baseline_threshold=draw(UNIT),
    )
    # Only the weights can still be rejected: their sums cancel to 0 or below
    # or overflow. Halving the others settles the sums on the positive pivot
    # by the time they reach 0 (FLOAT_MAX is 2,098 halvings from it).
    for _ in range(2100):
        try:
            return RunConfig(**fields)
        except ConfigError:
            fields["weights"] = halved(fields["weights"], mode, pivot)
    return RunConfig(**fields)


@lru_cache(maxsize=None)
def wordlists(seed):
    mono = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 12, 4, seed=seed)
    multi = generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 8, 4, seed=seed)
    return mono, multi


def in_unit_interval(values):
    return all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


@settings(max_examples=100, deadline=None)
@given(accepted_configs(), st.integers(0, 2))
def test_every_accepted_config_yields_probabilities_in_unit_interval(cfg, seed):
    mono, multi = wordlists(seed)

    probs, labels, states = detect_wordlist(mono, cfg)
    assert in_unit_interval(probs)
    assert set(labels) <= {0, 1}
    for state in states.values():  # the per-pass values the trace writes
        for snap in state.snapshots:
            assert in_unit_interval(snap.probabilities)
            assert in_unit_interval(snap.averaged)

    r = detect_scaled(multi, cfg)
    assert in_unit_interval(r.basic)
    assert in_unit_interval([c for c in r.comparability if c is not None])
    assert in_unit_interval(r.composite)
    assert in_unit_interval(r.thresholds)
    assert set(r.predicted) <= {0, 1} and set(r.basic_predicted) <= {0, 1}
