"""Configuration defaults, validation, and flat-file round-trips."""

import re
from pathlib import Path

import pytest

import loandetect
from loandetect.config import (
    _MAP_PREFIXES,
    ConfigError,
    RunConfig,
    load_config,
    parse_config_text,
)
from loandetect.crossling import dynamic_threshold
from loandetect.features import CORE_FEATURES, NGRAM_FEATURES, TRANSITION_FEATURES


def test_published_defaults():
    cfg = RunConfig()
    assert cfg.tau == 0.3
    assert cfg.max_iterations == 7
    assert cfg.convergence_fraction == 0.01
    assert (cfg.ngram_min, cfg.ngram_max) == (2, 10)
    assert (cfg.rare_ngram_eps1, cfg.rare_ngram_eps2) == (0.005, 0.02)
    assert (cfg.rare_trans_eps1, cfg.rare_trans_eps2) == (0.01, 0.05)
    assert (cfg.rare_trans_c1, cfg.rare_trans_c2) == (100.0, 20.0)
    assert cfg.pos_weights == {
        "noun": 1.0,
        "adjective": 0.5,
        "verb": 0.3,
        "adverb": 0.2,
        "function": 0.05,
    }
    assert cfg.gamma == 8.0 and cfg.center == 0.5
    assert cfg.mode == "full" and cfg.model == "autbor"


def test_full_mode_weight_ordering_enforced():
    # rare_ngram >= rare_transition >= trans_surprisal >= ngram_surprisal
    # >= avg_trans_prob >= len_z > 0
    weights = dict(RunConfig().weights)
    weights["rare_ngram_score"] = 0.05  # now below rare_transition_score
    with pytest.raises(ConfigError):
        RunConfig(weights=weights)
    # the same weights are fine outside full mode
    RunConfig(weights=weights, mode="no_ngram")


def test_scalar_validation():
    with pytest.raises(ConfigError):
        RunConfig(tau=0.0)
    with pytest.raises(ConfigError):
        RunConfig(tau=1.0)
    with pytest.raises(ConfigError):
        RunConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        RunConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        RunConfig(rare_ngram_eps1=0.03)  # above eps2
    with pytest.raises(ConfigError):
        RunConfig(mode="bogus")
    with pytest.raises(ConfigError):
        RunConfig(model="bogus")
    with pytest.raises(ConfigError):
        RunConfig(composite_w1=0.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"ngram_min": 5, "ngram_max": 3},
        {"ngram_min": 0},
        {"pos_weights": dict(RunConfig().pos_weights, noun=2.0)},
        {"mode": "no_ngram", "weights": {n: 0.0 for n in RunConfig().weights}},
        # a negative penalty rewards gaps: align(pata, pta, -1) pairs no symbol
        {"gap_penalty": -1.0},
        {"gap_penalty": -1e-9},
    ],
)
def test_execution_and_range_validation(overrides):
    with pytest.raises(ConfigError):
        RunConfig(**overrides)


def test_execution_and_range_limits_accepted():
    RunConfig(ngram_min=3, ngram_max=3)
    RunConfig(ngram_min=1, ngram_max=1)
    RunConfig(gap_penalty=0.0)
    RunConfig(gap_penalty=0.5)


@pytest.mark.parametrize(
    "overrides",
    [
        {"pattern_down_factor": 0.0},
        {"pattern_down_factor": -1.0},
        {"pattern_down_factor": 1.5},
        {"pattern_up_factor": 0.0},
        {"pattern_up_factor": -2.0},
        {"pattern_up_factor": float("nan")},
        {"anomaly_boosts": dict(RunConfig().anomaly_boosts, rare_ngram_score=-10.0)},
        {"anomaly_boosts": dict(RunConfig().anomaly_boosts, len_z=float("nan"))},
        {"pattern_from_iteration": 0},
        {"pattern_from_iteration": -1},
    ],
)
def test_refinement_settings_outside_unit_interval_rejected(overrides):
    # each would write probabilities outside [0, 1], or (pattern_from_iteration)
    # ask for refinement at pass 0, which has no native split
    with pytest.raises(ConfigError):
        RunConfig(**overrides)


def test_refinement_setting_limits_accepted():
    RunConfig(pattern_down_factor=1.0, pattern_up_factor=0.5, pattern_from_iteration=1)
    RunConfig(anomaly_boosts={name: 0.0 for name in RunConfig().anomaly_boosts})


FLOAT_FIELDS = [name for name in RunConfig._fields if type(getattr(RunConfig, name)) is float]


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_rejected(name, text):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        RunConfig().with_overrides({name: text})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("prefix", sorted(_MAP_PREFIXES))
def test_non_finite_map_value_rejected(prefix, value):
    attr = _MAP_PREFIXES[prefix]
    current = getattr(RunConfig(), attr)
    key = next(iter(current))
    with pytest.raises(ConfigError, match=f"{prefix}{key} must be finite"):
        RunConfig(**{attr: {**current, key: value}})


@pytest.mark.parametrize("sign", ["0", "2", "7", "-2"])
def test_polarity_other_than_one_rejected(sign):
    # score_all reads only the sign, so 0 or 7 would silently mean +1
    with pytest.raises(ConfigError, match="polarity of avg_trans_prob must be -1 or 1"):
        RunConfig().with_overrides({"polarity_avg_trans_prob": sign})
    for accepted in ("-1", "1"):
        assert RunConfig().with_overrides({"polarity_avg_trans_prob": accepted})


@pytest.mark.parametrize(
    "mode, weights",
    [
        # the segmental weights keep the aug mode's own sum above 0
        ("aug", {n: "0" for n in CORE_FEATURES}),
        # the dropped core features pull the core mass below 0
        ("no_ngram", {n: "-1" for n in NGRAM_FEATURES}),
        ("no_transition", {n: "-1" for n in TRANSITION_FEATURES}),
    ],
)
def test_core_weight_mass_must_be_positive(mode, weights):
    # score_all rescales every mode's weights to the core mass
    overrides = {"mode": mode, **{f"weight_{n}": v for n, v in weights.items()}}
    with pytest.raises(ConfigError, match="core-feature weights must sum above 0"):
        RunConfig().with_overrides(overrides)


@pytest.mark.parametrize(
    "alpha, beta",
    [(0.5, 10.0), (0.5, -3.0), (0.5, 0.51), (0.5, -0.51), (0.2, 0.25), (0.9, -0.11),
     (0.0, 0.01), (1.0, -0.01)],
)
def test_threshold_beta_outside_alpha_bound_rejected(alpha, beta):
    with pytest.raises(ConfigError, match="threshold_beta must satisfy"):
        RunConfig(threshold_alpha=alpha, threshold_beta=beta)


@pytest.mark.parametrize(
    "alpha, beta",
    [(0.5, 0.2), (0.35, 0.2), (0.5, 0.0), (0.5, 0.5), (0.5, -0.5), (0.2, -0.2), (0.8, 0.2),
     (0.0, 0.0), (1.0, 0.0)],
)
def test_threshold_beta_inside_alpha_bound_accepted(alpha, beta):
    cfg = RunConfig(threshold_alpha=alpha, threshold_beta=beta)
    for b in (0.0, 1.0):
        for c in (0.0, 1.0):
            assert 0.0 <= dynamic_threshold(b, c, cfg.threshold_alpha, cfg.threshold_beta) <= 1.0


def test_with_overrides_coercion():
    cfg = RunConfig().with_overrides(
        {
            "tau": "0.45",
            "max_iterations": "3",
            "pattern_refinement": "false",
            "weight_len_z": "0.01",
            "polarity_ngram_surprisal": "-1",
            "pos_weight_noun": "0.9",
            "anomaly_threshold_len_z": "0.6",
        }
    )
    assert cfg.tau == 0.45
    assert cfg.max_iterations == 3
    assert cfg.pattern_refinement is False
    assert cfg.weights["len_z"] == 0.01
    assert cfg.polarity["ngram_surprisal"] == -1
    assert cfg.pos_weights["noun"] == 0.9
    assert cfg.anomaly_thresholds["len_z"] == 0.6


def test_config_maps_are_read_only():
    cfg = RunConfig()
    for attr in ("weights", "pos_weights", "polarity", "anomaly_thresholds", "anomaly_boosts"):
        mapping = getattr(cfg, attr)
        with pytest.raises(TypeError):
            mapping[next(iter(mapping))] = -5.0
    # the caller's dict is copied, so changing it later changes nothing
    weights = dict(cfg.weights)
    frozen = RunConfig(weights=weights)
    weights["len_z"] = -5.0
    assert frozen.weights["len_z"] == cfg.weights["len_z"]


def test_every_field_is_read():
    """Every config field is read somewhere outside config.py: no dead knobs."""
    package = Path(loandetect.__file__).parent
    sources = "".join(
        p.read_text(encoding="utf-8") for p in package.glob("*.py") if p.name != "config.py"
    )
    unread = [
        name for name in RunConfig._fields if not re.search(rf"\bcfg\.{name}\b", sources)
    ]
    assert unread == []


def test_with_overrides_rejects_unknown_key():
    with pytest.raises(ConfigError):
        RunConfig().with_overrides({"not_a_key": "1"})
    with pytest.raises(ConfigError):
        RunConfig().with_overrides({"pattern_refinement": "maybe"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("weight_rare_ngram_scor", "5"),
        ("polarity_avg_trans_pro", "1"),
        ("pos_weight_nounn", "0.5"),
        ("anomaly_threshold_lenz", "0.1"),
    ],
)
def test_misspelt_map_key_rejected(key, value, tmp_path):
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        RunConfig().with_overrides({key: value})
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        load_config(path)


def test_dump_parse_roundtrip():
    cfg = RunConfig().with_overrides({"tau": "0.37", "weight_len_z": "0.02"})
    values = parse_config_text(cfg.dump())
    again = RunConfig().with_overrides(values)
    assert again == cfg
    assert again.dump() == cfg.dump()


def test_config_hashes_by_its_values(tmp_path):
    cfg = RunConfig().with_overrides({"tau": "0.37", "weight_len_z": "0.02", "polarity_len_z": -1})
    assert hash(RunConfig()) == hash(RunConfig())
    assert hash(cfg) == hash(RunConfig().with_overrides({"polarity_len_z": -1, "tau": 0.37,
                                                         "weight_len_z": 0.02}))
    # a map given in another key order is the same config
    assert hash(RunConfig(weights=dict(reversed(list(RunConfig().weights.items()))))) == hash(
        RunConfig()
    )
    runs = {RunConfig(): "default", cfg: "tuned"}
    assert runs[RunConfig()] == "default" and len({cfg, RunConfig(), cfg}) == 2
    path = tmp_path / "run.cfg"
    path.write_text(cfg.dump(), encoding="utf-8")
    again = load_config(path)
    assert again == cfg and hash(again) == hash(cfg) and runs[again] == "tuned"


def test_parse_config_text_syntax():
    parsed = parse_config_text("# comment\n\ntau = 0.4  # trailing\nseed=9\n")
    assert parsed == {"tau": "0.4", "seed": "9"}
    with pytest.raises(ConfigError):
        parse_config_text("tau 0.4")


def test_key_set_twice_rejected(tmp_path):
    text = "tau = 0.4\nseed = 5\n\n tau=0.2  # again\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == "line 4: key 'tau' is already set on line 1"
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="line 4: key 'tau'"):
        load_config(path)


def test_load_config_layering(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tau = 0.2\ngamma = 5\n", encoding="utf-8")
    cfg = load_config(path, {"gamma": 9})
    assert cfg.tau == 0.2  # file beats default
    assert cfg.gamma == 9.0  # override beats file
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "missing.cfg")


def test_load_config_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\ufefftau = 0.4\ngamma = 5\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.tau, cfg.gamma) == (0.4, 5.0)
    # a BOM anywhere but the start is still no key
    path.write_text("gamma = 5\n\ufefftau = 0.4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=re.escape(repr("\ufefftau"))):
        load_config(path)


UNIT_FIELDS = ("rare_ngram_eps1", "rare_ngram_eps2", "rare_trans_eps1", "rare_trans_eps2",
               "convergence_fraction", "pattern_high_cut", "pattern_low_cut",
               "threshold_alpha", "baseline_threshold")


@pytest.mark.parametrize("value", [-0.5, 1.5])
@pytest.mark.parametrize("name", UNIT_FIELDS)
def test_unit_interval_field_out_of_range_rejected(name, value):
    with pytest.raises(ConfigError, match=re.escape(f"{name} must be in [0, 1]")):
        RunConfig(**{name: value})


@pytest.mark.parametrize("overrides, message", [
    ({"bogus": 1}, "RunConfig() got an unexpected keyword argument 'bogus'"),
    ({"rare_trans_eps1": 0.05}, "rare_trans_eps1 must be below rare_trans_eps2"),
    ({"rare_trans_eps1": 0.06}, "rare_trans_eps1 must be below rare_trans_eps2"),
    ({"pattern_smoothing": 0.0}, "pattern_smoothing must be positive"),
    ({"pos_weights": {"noun": 1.0, "adjective": 0.5, "verb": 0.3, "adverb": 0.2}},
     "missing pos weight for function"),
])
def test_constructor_refusals_name_the_fault(overrides, message):
    with pytest.raises((ConfigError, TypeError), match=f"^{re.escape(message)}$"):
        RunConfig(**overrides)


@pytest.mark.parametrize("key, text, message", [
    ("tau", "high", "cannot parse float from 'high'"),
    ("max_iterations", "7.5", "cannot parse int from '7.5'"),
])
def test_unparsable_override_rejected(key, text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig().with_overrides({key: text})


def test_config_file_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("tau = 0.4  # café\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=f"^config file {re.escape(str(path))} is not UTF-8"):
        load_config(path)


def test_ngram_range_defaults_are_the_feature_defaults():
    from loandetect.features import NGRAM_MAX, NGRAM_MIN

    assert (RunConfig.ngram_min, RunConfig.ngram_max) == (NGRAM_MIN, NGRAM_MAX) == (2, 10)
    assert "ngram_max = 10\nngram_min = 2\n" in RunConfig().dump()
