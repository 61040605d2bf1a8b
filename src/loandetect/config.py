"""Run configuration: every tunable constant in one flat, overridable record.

Configuration resolves in three layers: built-in defaults, then a flat
``key = value`` config file, then explicit overrides (CLI flags). Mapping
fields are addressed with prefixed keys, e.g. ``weight_rare_ngram_score``,
``pos_weight_noun``, ``anomaly_threshold_len_z``, ``polarity_avg_trans_prob``.
``dump()`` emits the fully resolved configuration in the same format, so
its output can be fed back in to reproduce a run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping

from .features import FeatureParams, MODES, feature_names
from .scoring import (
    ALL_FEATURES,
    DEFAULT_POLARITY,
    DEFAULT_POS_WEIGHTS,
    DEFAULT_WEIGHTS,
    ScoringConfig,
)
from .wordlist import POS_CATEGORIES

log = logging.getLogger(__name__)

MODELS = ("autbor", "uns")

# Ordering constraint on core feature weights in full mode, strongest first.
_WEIGHT_ORDER = (
    "rare_ngram_score",
    "rare_transition_score",
    "trans_entropy",
    "ngram_entropy",
    "avg_trans_prob",
    "len_z",
)

_MAP_PREFIXES = {
    "weight_": "weights",
    "pos_weight_": "pos_weights",
    "polarity_": "polarity",
    "anomaly_threshold_": "anomaly_thresholds",
    "anomaly_boost_": "anomaly_boosts",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """All constants of the detection pipeline, with published defaults."""

    mode: str = "full"
    model: str = "autbor"
    seed: int = 0
    threads: int = 1

    # feature extraction
    ngram_min: int = 2
    ngram_max: int = 10
    rare_ngram_eps1: float = 0.005
    rare_ngram_eps2: float = 0.02
    rare_ngram_c1: float = 100.0
    rare_ngram_c2: float = 20.0
    rare_trans_eps1: float = 0.01
    rare_trans_eps2: float = 0.05
    rare_trans_c1: float = 100.0
    rare_trans_c2: float = 20.0

    # scoring
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    pos_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_POS_WEIGHTS)
    )
    polarity: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_POLARITY))
    gamma: float = 8.0
    center: float = 0.5
    anomaly_thresholds: dict[str, float] = field(
        default_factory=lambda: {name: 0.8 for name in ALL_FEATURES}
    )
    anomaly_boosts: dict[str, float] = field(
        default_factory=lambda: {name: 0.5 for name in ALL_FEATURES}
    )

    # iterative refinement
    tau: float = 0.3
    max_iterations: int = 7
    convergence_fraction: float = 0.01
    pattern_refinement: bool = True
    pattern_from_iteration: int = 2
    pattern_high_cut: float = 0.7
    pattern_low_cut: float = 0.3
    pattern_down_factor: float = 0.7
    pattern_up_factor: float = 1.3
    pattern_smoothing: float = 1.0

    # cross-linguistic scaling
    gap_penalty: float = 0.5
    divergence_lambda: float = 0.5
    composite_w1: float = 1.0
    composite_w2: float = 1.0
    threshold_alpha: float = 0.5
    threshold_beta: float = 0.2
    context_smoothing: float = 0.1

    # baseline
    baseline_threshold: float = 0.5

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if not 0 < self.tau < 1:
            raise ConfigError("tau must be in (0, 1)")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ConfigError("n-gram range must satisfy 1 <= ngram_min <= ngram_max")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        for name in ("rare_ngram_c1", "rare_ngram_c2", "rare_trans_c1", "rare_trans_c2"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in (
            "rare_ngram_eps1",
            "rare_ngram_eps2",
            "rare_trans_eps1",
            "rare_trans_eps2",
            "convergence_fraction",
            "pattern_high_cut",
            "pattern_low_cut",
            "threshold_alpha",
            "baseline_threshold",
        ):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.rare_ngram_eps1 >= self.rare_ngram_eps2:
            raise ConfigError("rare_ngram_eps1 must be below rare_ngram_eps2")
        if self.rare_trans_eps1 >= self.rare_trans_eps2:
            raise ConfigError("rare_trans_eps1 must be below rare_trans_eps2")
        if not 0 <= self.divergence_lambda <= 1:
            raise ConfigError("divergence_lambda must be in [0, 1]")
        if self.composite_w1 <= 0 or self.composite_w2 <= 0:
            raise ConfigError("composite weights must be positive")
        if self.context_smoothing <= 0:
            raise ConfigError("context_smoothing must be positive")
        if self.pattern_smoothing <= 0:
            raise ConfigError("pattern_smoothing must be positive")
        for pos in POS_CATEGORIES:
            if pos not in self.pos_weights:
                raise ConfigError(f"missing pos weight for {pos}")
        for pos, beta in self.pos_weights.items():
            if not 0 < beta <= 1:
                raise ConfigError(f"pos weight for {pos} must be in (0, 1]")
        if sum(self.weights.get(n, 0.0) for n in feature_names(self.mode)) <= 0:
            raise ConfigError(f"the weights of the {self.mode} mode features must sum above 0")
        if self.mode == "full":
            order = [self.weights.get(n, 0.0) for n in _WEIGHT_ORDER]
            if order[-1] <= 0 or any(a < b for a, b in zip(order, order[1:])):
                raise ConfigError(
                    "full-mode weights must satisfy "
                    "rare_ngram >= rare_transition >= trans_entropy >= "
                    "ngram_entropy >= avg_trans_prob >= len_z > 0"
                )

    # -- derived views --

    def feature_params(self) -> FeatureParams:
        return FeatureParams(
            rare_ngram_eps1=self.rare_ngram_eps1,
            rare_ngram_eps2=self.rare_ngram_eps2,
            rare_ngram_c1=self.rare_ngram_c1,
            rare_ngram_c2=self.rare_ngram_c2,
            rare_trans_eps1=self.rare_trans_eps1,
            rare_trans_eps2=self.rare_trans_eps2,
            rare_trans_c1=self.rare_trans_c1,
            rare_trans_c2=self.rare_trans_c2,
            ngram_min=self.ngram_min,
            ngram_max=self.ngram_max,
        )

    def scoring(self) -> ScoringConfig:
        return ScoringConfig(
            weights=dict(self.weights),
            pos_weights=dict(self.pos_weights),
            polarity=dict(self.polarity),
            gamma=self.gamma,
            center=self.center,
            anomaly_thresholds=dict(self.anomaly_thresholds),
            anomaly_boosts=dict(self.anomaly_boosts),
        )

    # -- flat-key serialization --

    def to_flat(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                prefix = _prefix_for(f.name)
                for key in sorted(value):
                    out[f"{prefix}{key}"] = value[key]
            else:
                out[f.name] = value
        return out

    def dump(self) -> str:
        lines = [f"{key} = {_format_value(v)}" for key, v in sorted(self.to_flat().items())]
        return "\n".join(lines) + "\n"

    def with_overrides(self, overrides: Mapping[str, object]) -> "RunConfig":
        """Apply flat-key overrides, returning a new validated config."""
        simple: dict[str, object] = {}
        maps: dict[str, dict] = {}
        scalar_fields = {f.name: f for f in fields(self) if f.name not in _MAP_PREFIXES.values()}
        for key, raw in overrides.items():
            mapped = False
            for prefix, attr in _MAP_PREFIXES.items():
                if key.startswith(prefix):
                    sub = key[len(prefix):]
                    current = maps.setdefault(attr, dict(getattr(self, attr)))
                    current[sub] = _coerce(raw, int if attr == "polarity" else float)
                    mapped = True
                    break
            if mapped:
                continue
            if key not in scalar_fields:
                raise ConfigError(f"unknown config key {key!r}")
            target_type = _field_type(scalar_fields[key].type)
            simple[key] = _coerce(raw, target_type)
        return replace(self, **simple, **maps)


def _prefix_for(attr: str) -> str:
    for prefix, name in _MAP_PREFIXES.items():
        if name == attr:
            return prefix
    raise KeyError(attr)


def _field_type(annotation: object) -> type:
    text = str(annotation)
    if "bool" in text:
        return bool
    if "int" in text:
        return int
    if "float" in text:
        return float
    return str


def _coerce(value: object, target: type) -> object:
    if isinstance(value, target) and not (target is int and isinstance(value, bool)):
        return value
    text = str(value).strip()
    if target is bool:
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean from {text!r}")
    try:
        return target(text)
    except ValueError:
        raise ConfigError(f"cannot parse {target.__name__} from {text!r}") from None


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(
    path: str | Path | None = None, overrides: Mapping[str, object] | None = None
) -> RunConfig:
    """Resolve defaults -> config file -> explicit overrides, in that order."""
    cfg = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(p)
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from None
        file_values = parse_config_text(text)
        log.info("config file %s supplies %d keys", p, len(file_values))
        cfg = cfg.with_overrides(file_values)
    if overrides:
        log.info("explicit overrides: %s", sorted(overrides))
        cfg = cfg.with_overrides(overrides)
    return cfg
