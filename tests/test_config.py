"""Configuration defaults, validation, and flat-file round-trips."""

import pytest

from loandetect.config import ConfigError, RunConfig, load_config, parse_config_text


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
    # rare_ngram >= rare_transition >= trans_entropy >= ngram_entropy
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
        RunConfig(divergence_lambda=1.5)
    with pytest.raises(ConfigError):
        RunConfig(composite_w1=0.0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"threads": 0},
        {"threads": -3},
        {"ngram_min": 5, "ngram_max": 3},
        {"ngram_min": 0},
        {"pos_weights": dict(RunConfig().pos_weights, noun=2.0)},
        {"mode": "no_ngram", "weights": {n: 0.0 for n in RunConfig().weights}},
    ],
)
def test_execution_and_range_validation(overrides):
    with pytest.raises(ConfigError):
        RunConfig(**overrides)


def test_execution_and_range_limits_accepted():
    RunConfig(threads=1, ngram_min=3, ngram_max=3)
    RunConfig(ngram_min=1, ngram_max=1)


def test_with_overrides_coercion():
    cfg = RunConfig().with_overrides(
        {
            "tau": "0.45",
            "max_iterations": "3",
            "pattern_refinement": "false",
            "weight_len_z": "0.01",
            "polarity_ngram_entropy": "-1",
            "pos_weight_noun": "0.9",
            "anomaly_threshold_len_z": "0.6",
        }
    )
    assert cfg.tau == 0.45
    assert cfg.max_iterations == 3
    assert cfg.pattern_refinement is False
    assert cfg.weights["len_z"] == 0.01
    assert cfg.polarity["ngram_entropy"] == -1
    assert cfg.pos_weights["noun"] == 0.9
    assert cfg.anomaly_thresholds["len_z"] == 0.6


def test_with_overrides_rejects_unknown_key():
    with pytest.raises(ConfigError):
        RunConfig().with_overrides({"not_a_key": "1"})
    with pytest.raises(ConfigError):
        RunConfig().with_overrides({"pattern_refinement": "maybe"})


def test_dump_parse_roundtrip():
    cfg = RunConfig().with_overrides({"tau": "0.37", "weight_len_z": "0.02"})
    values = parse_config_text(cfg.dump())
    again = RunConfig().with_overrides(values)
    assert again == cfg
    assert again.dump() == cfg.dump()


def test_parse_config_text_syntax():
    parsed = parse_config_text("# comment\n\ntau = 0.4  # trailing\nseed=9\n")
    assert parsed == {"tau": "0.4", "seed": "9"}
    with pytest.raises(ConfigError):
        parse_config_text("tau 0.4")


def test_load_config_layering(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("tau = 0.2\nseed = 5\n", encoding="utf-8")
    cfg = load_config(path, {"seed": 9})
    assert cfg.tau == 0.2  # file beats default
    assert cfg.seed == 9  # override beats file
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "missing.cfg")
