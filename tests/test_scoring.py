"""Scoring engine tests: normalization, modifiers, sigmoid, boost, pipeline.

``score_all`` returns two columns, the boosted probabilities and the
anomaly bitmasks. The intermediate stages (raw score, adjusted score,
probability) are read off ``oracles.bf_score``, the per-word reference,
and every call through ``score`` checks that ``score_all`` agrees with it
bit for bit.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from loandetect.config import ConfigError, RunConfig
from loandetect.features import MODES, feature_names
from loandetect.scoring import (
    ALL_FEATURES,
    DEFAULT_POS_WEIGHTS,
    DEFAULT_WEIGHTS,
    length_modifier,
    pos_modifier,
    score_all,
    to_probability,
)

import oracles


def fired(names, mask):
    """The features whose bits are set in ``mask``; bit k is ``names[k]``."""
    return frozenset(n for k, n in enumerate(names) if mask >> k & 1)


def score(columns, pos_tags, cfg):
    """``bf_score``'s records, after checking ``score_all`` against them."""
    expected = oracles.bf_score(columns, pos_tags, cfg)
    boosted, masks = score_all(columns, pos_tags, cfg)
    assert boosted == [r.boosted for r in expected]
    assert [fired(list(columns), m) for m in masks] == [r.fired for r in expected]
    return expected


def probe(normed, cfg, pos="noun"):
    """The record of a word whose normalized features are ``normed``.

    Two more words pin every column's minimum at 0 and maximum at 1, so
    the probe's values pass min-max normalization unchanged. A ``len_z``
    column of zeros (constant, so normalized to 0.5) is added when
    ``normed`` has none.
    """
    columns = {name: [0.0, 1.0, x] for name, x in normed.items()}
    columns.setdefault("len_z", [0.0, 0.0, 0.0])
    return score(columns, ["noun", "noun", pos], cfg)[2]


def _cfg(weights, polarity=None):
    # aug mode has no weight-order rule; the features a test leaves out
    # weigh 0, and the scorer never reads the mode
    return RunConfig(
        mode="aug",
        weights={**dict.fromkeys(ALL_FEATURES, 0.0), **weights},
        polarity=polarity or {name: 1 for name in weights},
        anomaly_thresholds={},
        anomaly_boosts={},
    )


def normalized(values):
    """The min-max normalization of one column, read off the raw score.

    With one feature weighing the whole core mass, a word's raw score is
    its normalized value.
    """
    columns = {"rare_ngram_score": list(values), "len_z": [0.0] * len(values)}
    cfg = _cfg({"rare_ngram_score": 1.0})
    return [r.raw for r in score(columns, ["noun"] * len(values), cfg)]


def test_normalize_minmax():
    assert normalized([0.0, 5.0, 10.0]) == [0.0, 0.5, 1.0]


def test_normalize_constant_feature():
    assert normalized([3.0, 3.0, 3.0]) == [0.5, 0.5, 0.5]


def test_normalize_single_word():
    assert normalized([2.0]) == [0.5]
    assert normalized([-1.0]) == [0.5]


def test_composite_single_feature():
    cfg = _cfg({"rare_ngram_score": 1.0})
    assert probe({"rare_ngram_score": 0.7}, cfg).raw == pytest.approx(0.7)


def test_composite_zero_vector():
    cfg = RunConfig()
    normed = {name: 0.0 for name in DEFAULT_WEIGHTS if name != "avg_trans_prob"}
    assert probe(normed, cfg).raw == pytest.approx(0.0)


def test_composite_missing_weight():
    # validate requires a weight for every feature the mode extracts, so the
    # composite never meets a feature without one
    with pytest.raises(ConfigError, match="trans_entropy"):
        RunConfig(mode="no_ngram", weights={"rare_transition_score": 1.0})
    for mode in MODES:
        for name in feature_names(mode):
            weights = {n: w for n, w in DEFAULT_WEIGHTS.items() if n != name}
            with pytest.raises(ConfigError, match=name):
                RunConfig(mode=mode, weights=weights)
    # a feature the mode does not extract needs no weight
    weights = {n: w for n, w in DEFAULT_WEIGHTS.items() if n != "rare_ngram_score"}
    RunConfig(mode="no_ngram", weights=weights)


def test_composite_ablation_rescale():
    # weights {a: 0.3 (dropped), b: 0.4, c: 0.3} -> effective {b: 4/7, c: 3/7}
    weights = {"rare_ngram_score": 0.3, "rare_transition_score": 0.4, "len_z": 0.3}
    cfg = _cfg(weights)
    full = probe(
        {"rare_ngram_score": 0.0, "rare_transition_score": 1.0, "len_z": 0.0}, cfg
    ).raw
    assert full == pytest.approx(0.4)
    dropped = probe({"rare_transition_score": 1.0, "len_z": 0.0}, cfg).raw
    assert dropped == pytest.approx(0.4 * (1.0 / 0.7))
    assert dropped == pytest.approx(0.5714285714285714)
    both = probe({"rare_transition_score": 1.0, "len_z": 1.0}, cfg).raw
    assert both == pytest.approx(1.0)  # total mass preserved


def test_composite_polarity_inversion():
    cfg = _cfg({"avg_trans_prob": 1.0}, polarity={"avg_trans_prob": -1})
    assert probe({"avg_trans_prob": 0.2}, cfg).raw == pytest.approx(0.8)


def test_length_modifier_midpoint_exact():
    assert length_modifier(1.5) == 1.0
    assert length_modifier(-1.5) == 1.0


def test_length_modifier_saturation():
    assert length_modifier(50.0) == pytest.approx(1.25, abs=1e-9)
    assert 0.75 < length_modifier(0.0) < 1.0
    assert 1.0 < length_modifier(3.0) <= 1.25


def test_length_modifier_at_zero():
    # 1 + 0.5*(logistic(-4.5) - 0.5)
    expected = 1.0 + 0.5 * (1.0 / (1.0 + math.exp(4.5)) - 0.5)
    assert length_modifier(0.0) == pytest.approx(expected)
    assert length_modifier(0.0) == pytest.approx(0.7555, abs=1e-4)


def test_length_modifier_symmetric():
    for z in (0.0, 0.3, 1.0, 2.7):
        assert length_modifier(z) == length_modifier(-z)


def test_pos_modifier_defaults():
    cfg = RunConfig()
    assert pos_modifier("noun", cfg) == 1.0
    assert pos_modifier("adjective", cfg) == 0.5
    assert pos_modifier("verb", cfg) == 0.3
    assert pos_modifier("adverb", cfg) == 0.2
    assert pos_modifier("function", cfg) == 0.05


def test_to_probability_center_and_saturation():
    cfg = RunConfig()
    assert to_probability(0.5, cfg) == pytest.approx(0.5)
    assert to_probability(1e6, cfg) == pytest.approx(1.0)
    # gamma=8, center=0.5, s'=0.75 -> 1/(1+e^-2)
    assert to_probability(0.75, cfg) == pytest.approx(1.0 / (1.0 + math.exp(-2)))
    assert to_probability(0.75, cfg) == pytest.approx(0.8808, abs=1e-4)


def test_boost_no_anomaly_is_identity():
    cfg = RunConfig()
    r = probe({"rare_ngram_score": 0.5}, cfg)
    assert r.boosted == r.probability
    assert r.fired == frozenset()
    # an anomaly lies strictly above its threshold
    r = probe({"rare_ngram_score": 0.8}, cfg)
    assert r.boosted == r.probability
    assert r.fired == frozenset()


def test_boost_clamps_at_one():
    cfg = RunConfig(
        center=0.0,
        anomaly_thresholds={"rare_ngram_score": 0.5},
        anomaly_boosts={"rare_ngram_score": 2.0},
    )
    # delta = 0.8 - 0.5 = 0.3 -> factor 1.6 -> min(P*1.6, 1) = 1
    r = probe({"rare_ngram_score": 0.8}, cfg)
    assert r.probability * 1.6 > 1.0
    assert r.boosted == 1.0
    assert r.fired == frozenset({"rare_ngram_score"})


def test_boost_hand_value():
    cfg = RunConfig(
        anomaly_thresholds={"rare_ngram_score": 0.6},
        anomaly_boosts={"rare_ngram_score": 0.5},
    )
    r = probe({"rare_ngram_score": 0.8}, cfg)
    assert r.boosted == pytest.approx(r.probability * (1 + 0.5 * 0.2))
    assert r.boosted == pytest.approx(r.probability * 1.1)


def test_boost_uses_polarity_adjusted_signal():
    cfg = RunConfig(
        polarity={"avg_trans_prob": -1},
        anomaly_thresholds={"avg_trans_prob": 0.8},
        anomaly_boosts={"avg_trans_prob": 0.5},
    )
    # normalized 0.1, inverted signal 0.9 > 0.8 -> anomaly
    r = probe({"avg_trans_prob": 0.1}, cfg)
    assert r.fired == frozenset({"avg_trans_prob"})
    assert r.boosted == pytest.approx(r.probability * 1.05)


def test_score_all_three_word_pipeline_by_hand():
    """Stage-by-stage hand computation of a 3-word toy vocabulary."""
    cfg = RunConfig(
        mode="aug",
        weights={**dict.fromkeys(ALL_FEATURES, 0.0), "rare_ngram_score": 0.6, "len_z": 0.4},
        polarity={"rare_ngram_score": 1, "len_z": 1},
        gamma=8.0,
        center=0.5,
        anomaly_thresholds={"rare_ngram_score": 0.9},
        anomaly_boosts={"rare_ngram_score": 0.5},
    )
    columns = {"rare_ngram_score": [0.0, 0.2, 0.4], "len_z": [0.0, 1.0, 2.0]}
    pos_tags = ["noun", "adjective", "noun"]
    results = score(columns, pos_tags, cfg)

    # normalization: rare -> 0, .5, 1; len_z -> 0, .5, 1
    # base mass: weights cover core features rare_ngram(0.6) + len_z(0.4) = 1.0
    expected_s = [0.0, 0.5 * 0.6 + 0.5 * 0.4, 1.0]
    lam_len = [length_modifier(0.0), length_modifier(1.0), length_modifier(2.0)]
    lam_pos = [1.0, 0.5, 1.0]
    for i, r in enumerate(results):
        assert r.raw == pytest.approx(expected_s[i], abs=1e-12)
        s_prime = expected_s[i] * lam_len[i] * lam_pos[i]
        assert r.adjusted == pytest.approx(s_prime, abs=1e-12)
        p = 1.0 / (1.0 + math.exp(-8.0 * (s_prime - 0.5)))
        assert r.probability == pytest.approx(p, abs=1e-12)
    # only word 3 has normalized rare=1.0 > 0.9 -> boosted by 1 + 0.5*0.1
    assert results[0].boosted == results[0].probability
    assert results[1].fired == frozenset()
    assert results[2].fired == frozenset({"rare_ngram_score"})
    assert results[2].boosted == pytest.approx(
        min(results[2].probability * 1.05, 1.0)
    )
    # bit 0 is the first column
    assert score_all(columns, pos_tags, cfg)[1] == [0, 0, 1]


def test_score_all_identical_words_identical_output():
    cfg = RunConfig()
    columns = {name: [0.3, 0.3] for name in DEFAULT_WEIGHTS}
    boosted, masks = score_all(columns, ["noun", "noun"], cfg)
    assert boosted[0] == boosted[1]
    assert masks[0] == masks[1]


def test_score_all_pos_monotonicity():
    cfg = RunConfig()
    columns = {name: [0.4, 0.4, 0.4] for name in DEFAULT_WEIGHTS}
    boosted, _ = score_all(columns, ["noun", "verb", "function"], cfg)
    assert boosted[0] >= boosted[1] >= boosted[2]


def test_boosted_bounds_and_dominance():
    cfg = RunConfig()
    columns = {
        name: [float(i * j % 7) for i in range(8)]
        for j, name in enumerate(DEFAULT_WEIGHTS, 1)
    }
    for r in score(columns, ["noun"] * 8, cfg):
        assert 0.0 <= r.probability <= 1.0
        assert r.probability <= r.boosted <= 1.0


def test_weight_scaling_preserves_ranking():
    base = {"rare_ngram_score": 0.5, "len_z": 0.5}
    cfg1 = _cfg(base)
    cfg2 = _cfg({k: 3.0 * v for k, v in base.items()})
    columns = {"rare_ngram_score": [0.1, 0.8, 0.4], "len_z": [0.9, 0.2, 0.4]}
    s1 = [r.raw for r in score(columns, ["noun"] * 3, cfg1)]
    s2 = [r.raw for r in score(columns, ["noun"] * 3, cfg2)]
    assert sorted(range(3), key=lambda i: s1[i]) == sorted(
        range(3), key=lambda i: s2[i]
    )
    # uniform scaling multiplies every raw score by the same k
    for a, b in zip(s1, s2):
        assert b == pytest.approx(3.0 * a)


def test_boost_all_zero_eta_identity():
    cfg = RunConfig(anomaly_boosts={name: 0.0 for name in DEFAULT_WEIGHTS})
    r = probe({name: 0.95 for name in DEFAULT_WEIGHTS}, cfg)
    assert r.boosted == pytest.approx(r.probability)
    assert len(r.fired) > 0  # thresholds still trip, boosts are null


@given(st.floats(min_value=-10, max_value=10))
def test_length_modifier_range(z):
    lam = length_modifier(z)
    assert 0.75 < lam < 1.25 or lam == pytest.approx(1.25, abs=1e-9)


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=len(DEFAULT_WEIGHTS),
            max_size=len(DEFAULT_WEIGHTS),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_normalized_values_in_unit_interval(rows):
    for column in zip(*rows):
        for value in normalized(column):
            assert -1e-12 <= value <= 1.0 + 1e-12


# default thresholds, and low ones under which most words have several anomalies
SCORING_CONFIGS = (
    RunConfig(),
    RunConfig(
        anomaly_thresholds={name: 0.3 for name in DEFAULT_WEIGHTS},
        anomaly_boosts={name: 0.9 for name in DEFAULT_WEIGHTS},
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MODES), st.sampled_from(SCORING_CONFIGS), st.data())
def test_score_all_equals_per_word_composition(mode, cfg, data):
    names = feature_names(mode)
    # the sampled values normalize to the thresholds themselves in columns
    # whose minimum is 0 and maximum 1
    value = st.one_of(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.sampled_from((0.0, 0.3, 0.8, 1.0)),
    )
    rows = data.draw(st.lists(st.tuples(*[value] * len(names)), min_size=1, max_size=8))
    columns = {name: list(column) for name, column in zip(names, zip(*rows))}
    constant = data.draw(st.sampled_from((None,) + names))
    if constant is not None:
        columns[constant] = [0.25] * len(rows)
    pos_tags = data.draw(
        st.lists(st.sampled_from(sorted(DEFAULT_POS_WEIGHTS)),
                 min_size=len(rows), max_size=len(rows))
    )
    boosted, masks = score_all(columns, pos_tags, cfg)
    expected = oracles.bf_score(columns, pos_tags, cfg)
    # == word by word: the columns must keep the bits of the per-word pipeline
    for p, mask, r in zip(boosted, masks, expected, strict=True):
        assert p == r.boosted
        assert fired(names, mask) == r.fired


@pytest.mark.parametrize("mode", MODES)
def test_score_all_single_word_equals_per_word_composition(mode):
    names = feature_names(mode)
    columns = {name: [0.1 * k] for k, name in enumerate(names, 1)}
    for cfg in SCORING_CONFIGS:
        (r,) = score(columns, ["verb"], cfg)
        # a single word normalizes to 0.5 everywhere
        assert r.fired == (frozenset(names) if cfg is SCORING_CONFIGS[1] else frozenset())
