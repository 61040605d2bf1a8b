"""Scoring engine tests: normalization, modifiers, sigmoid, boost, pipeline."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from loandetect.config import RunConfig
from loandetect.features import MODES, feature_names
from loandetect.scoring import (
    DEFAULT_POS_WEIGHTS,
    DEFAULT_WEIGHTS,
    MissingWeightError,
    ScoreResult,
    boost,
    composite_score,
    length_modifier,
    normalize_features,
    pos_modifier,
    score_all,
    to_probability,
)


def test_normalize_minmax():
    vecs = [{"f": 0.0}, {"f": 5.0}, {"f": 10.0}]
    normed = normalize_features(vecs)
    assert [v["f"] for v in normed] == [0.0, 0.5, 1.0]


def test_normalize_constant_feature():
    normed = normalize_features([{"f": 3.0}, {"f": 3.0}, {"f": 3.0}])
    assert [v["f"] for v in normed] == [0.5, 0.5, 0.5]


def test_normalize_single_word():
    normed = normalize_features([{"f": 2.0, "g": -1.0}])
    assert normed == [{"f": 0.5, "g": 0.5}]


def _cfg(weights, polarity=None):
    # aug mode admits partial weight maps; the scorer never reads the mode
    return RunConfig(
        mode="aug",
        weights=weights,
        polarity=polarity or {name: 1 for name in weights},
        anomaly_thresholds={},
        anomaly_boosts={},
    )


def test_composite_single_feature():
    cfg = _cfg({"rare_ngram_score": 1.0})
    assert composite_score({"rare_ngram_score": 0.7}, cfg) == pytest.approx(0.7)


def test_composite_zero_vector():
    cfg = RunConfig()
    normed = {name: 0.0 for name in DEFAULT_WEIGHTS if name != "avg_trans_prob"}
    assert composite_score(normed, cfg) == pytest.approx(0.0)


def test_composite_missing_weight():
    cfg = _cfg({"rare_ngram_score": 1.0})
    with pytest.raises(MissingWeightError):
        composite_score({"mystery": 0.5}, cfg)


def test_composite_ablation_rescale():
    # weights {a: 0.3 (dropped), b: 0.4, c: 0.3} -> effective {b: 4/7, c: 3/7}
    weights = {"rare_ngram_score": 0.3, "rare_transition_score": 0.4, "len_z": 0.3}
    cfg = _cfg(weights)
    full = composite_score(
        {"rare_ngram_score": 0.0, "rare_transition_score": 1.0, "len_z": 0.0}, cfg
    )
    assert full == pytest.approx(0.4)
    dropped = composite_score({"rare_transition_score": 1.0, "len_z": 0.0}, cfg)
    assert dropped == pytest.approx(0.4 * (1.0 / 0.7))
    assert dropped == pytest.approx(0.5714285714285714)
    both = composite_score({"rare_transition_score": 1.0, "len_z": 1.0}, cfg)
    assert both == pytest.approx(1.0)  # total mass preserved


def test_composite_polarity_inversion():
    cfg = _cfg({"avg_trans_prob": 1.0}, polarity={"avg_trans_prob": -1})
    assert composite_score({"avg_trans_prob": 0.2}, cfg) == pytest.approx(0.8)


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
    prob, anomalies = boost(0.7, {"rare_ngram_score": 0.5}, cfg)
    assert prob == 0.7
    assert anomalies == frozenset()


def test_boost_clamps_at_one():
    cfg = RunConfig(
        anomaly_thresholds={"rare_ngram_score": 0.5},
        anomaly_boosts={"rare_ngram_score": 2.0},
    )
    # delta = 0.8 - 0.5 = 0.3 -> factor 1.6 -> min(0.9*1.6, 1) = 1
    prob, anomalies = boost(0.9, {"rare_ngram_score": 0.8}, cfg)
    assert prob == 1.0
    assert anomalies == frozenset({"rare_ngram_score"})


def test_boost_hand_value():
    cfg = RunConfig(
        anomaly_thresholds={"rare_ngram_score": 0.6},
        anomaly_boosts={"rare_ngram_score": 0.5},
    )
    prob, _ = boost(0.5, {"rare_ngram_score": 0.8}, cfg)
    assert prob == pytest.approx(0.5 * (1 + 0.5 * 0.2))
    assert prob == pytest.approx(0.55)


def test_boost_uses_polarity_adjusted_signal():
    cfg = RunConfig(
        polarity={"avg_trans_prob": -1},
        anomaly_thresholds={"avg_trans_prob": 0.8},
        anomaly_boosts={"avg_trans_prob": 0.5},
    )
    # normalized 0.1, inverted signal 0.9 > 0.8 -> anomaly
    prob, anomalies = boost(0.5, {"avg_trans_prob": 0.1}, cfg)
    assert anomalies == frozenset({"avg_trans_prob"})
    assert prob == pytest.approx(0.5 * 1.05)


def test_score_all_three_word_pipeline_by_hand():
    """Stage-by-stage hand computation of a 3-word toy vocabulary."""
    weights = {"rare_ngram_score": 0.6, "len_z": 0.4}
    cfg = RunConfig(
        mode="aug",
        weights=weights,
        polarity={"rare_ngram_score": 1, "len_z": 1},
        gamma=8.0,
        center=0.5,
        anomaly_thresholds={"rare_ngram_score": 0.9},
        anomaly_boosts={"rare_ngram_score": 0.5},
    )
    vectors = [
        {"rare_ngram_score": 0.0, "len_z": 0.0},
        {"rare_ngram_score": 0.2, "len_z": 1.0},
        {"rare_ngram_score": 0.4, "len_z": 2.0},
    ]
    pos_tags = ["noun", "adjective", "noun"]
    results = score_all(vectors, pos_tags, cfg)

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
    assert results[1].anomalies == frozenset()
    assert results[2].anomalies == frozenset({"rare_ngram_score"})
    assert results[2].boosted == pytest.approx(
        min(results[2].probability * 1.05, 1.0)
    )


def test_score_all_identical_words_identical_output():
    cfg = RunConfig()
    vec = {name: 0.3 for name in DEFAULT_WEIGHTS}
    results = score_all([dict(vec), dict(vec)], ["noun", "noun"], cfg)
    assert results[0] == results[1]


def test_score_all_pos_monotonicity():
    cfg = RunConfig()
    vec = {name: 0.4 for name in DEFAULT_WEIGHTS}
    vecs = [dict(vec), dict(vec), dict(vec)]
    results = score_all(vecs, ["noun", "verb", "function"], cfg)
    assert results[0].boosted >= results[1].boosted >= results[2].boosted


def test_boosted_bounds_and_dominance():
    cfg = RunConfig()
    vecs = [
        {name: float(i * j % 7) for j, name in enumerate(DEFAULT_WEIGHTS, 1)}
        for i in range(8)
    ]
    results = score_all(vecs, ["noun"] * 8, cfg)
    for r in results:
        assert 0.0 <= r.probability <= 1.0
        assert r.probability <= r.boosted <= 1.0


def test_weight_scaling_preserves_ranking():
    base = {"rare_ngram_score": 0.5, "len_z": 0.5}
    cfg1 = _cfg(base)
    cfg2 = _cfg({k: 3.0 * v for k, v in base.items()})
    vecs = [
        {"rare_ngram_score": 0.1, "len_z": 0.9},
        {"rare_ngram_score": 0.8, "len_z": 0.2},
        {"rare_ngram_score": 0.4, "len_z": 0.4},
    ]
    s1 = [composite_score(v, cfg1) for v in vecs]
    s2 = [composite_score(v, cfg2) for v in vecs]
    assert sorted(range(3), key=lambda i: s1[i]) == sorted(
        range(3), key=lambda i: s2[i]
    )
    # uniform scaling multiplies every raw score by the same k
    for a, b in zip(s1, s2):
        assert b == pytest.approx(3.0 * a)


def test_boost_all_zero_eta_identity():
    cfg = RunConfig(anomaly_boosts={name: 0.0 for name in DEFAULT_WEIGHTS})
    prob, anomalies = boost(0.6, {name: 0.95 for name in DEFAULT_WEIGHTS}, cfg)
    assert prob == pytest.approx(0.6)
    assert len(anomalies) > 0  # thresholds still trip, boosts are null


@given(st.floats(min_value=-10, max_value=10))
def test_length_modifier_range(z):
    lam = length_modifier(z)
    assert 0.75 < lam < 1.25 or lam == pytest.approx(1.25, abs=1e-9)


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(sorted(DEFAULT_WEIGHTS)),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=len(DEFAULT_WEIGHTS),
            max_size=len(DEFAULT_WEIGHTS),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_normalized_values_in_unit_interval(vectors):
    # pad any missing keys so all vectors share the same feature set
    for v in vectors:
        for name in DEFAULT_WEIGHTS:
            v.setdefault(name, 0.0)
    for v in normalize_features(vectors):
        for value in v.values():
            assert -1e-12 <= value <= 1.0 + 1e-12


def per_word(vectors, pos_tags, cfg):
    """The scoring pipeline composed word by word from the public stages."""
    results = []
    for vec, nvec, pos in zip(vectors, normalize_features(vectors), pos_tags):
        raw = composite_score(nvec, cfg)
        adjusted = raw * length_modifier(vec.get("len_z", 0.0)) * pos_modifier(pos, cfg)
        prob = to_probability(adjusted, cfg)
        boosted, anomalies = boost(prob, nvec, cfg)
        results.append(ScoreResult(raw, adjusted, prob, boosted, anomalies))
    return results


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
    value = st.floats(min_value=-50, max_value=50, allow_nan=False)
    rows = data.draw(st.lists(st.tuples(*[value] * len(names)), min_size=1, max_size=8))
    vectors = [dict(zip(names, row)) for row in rows]
    constant = data.draw(st.sampled_from((None,) + names))
    for v in vectors:
        if constant is not None:
            v[constant] = 0.25
    pos_tags = data.draw(
        st.lists(st.sampled_from(sorted(DEFAULT_POS_WEIGHTS)),
                 min_size=len(rows), max_size=len(rows))
    )
    # == on every float field: the columns must keep the bits
    assert score_all(vectors, pos_tags, cfg) == per_word(vectors, pos_tags, cfg)


@pytest.mark.parametrize("mode", MODES)
def test_score_all_single_word_equals_per_word_composition(mode):
    vectors = [{name: 0.1 * k for k, name in enumerate(feature_names(mode), 1)}]
    for cfg in SCORING_CONFIGS:
        results = score_all(vectors, ["verb"], cfg)
        assert results == per_word(vectors, ["verb"], cfg)
        # a single word normalizes to 0.5 everywhere
        assert results[0].anomalies == (
            frozenset(feature_names(mode)) if cfg is SCORING_CONFIGS[1] else frozenset()
        )
