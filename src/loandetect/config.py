"""Run configuration: every tunable constant in one flat, overridable record.

Configuration resolves in three layers: built-in defaults, then a flat
``key = value`` config file, then explicit overrides (CLI flags). Mapping
fields are addressed with prefixed keys, e.g. ``weight_rare_ngram_score``,
``pos_weight_noun``, ``anomaly_threshold_len_z``, ``polarity_avg_trans_prob``.
``dump()`` emits the fully resolved configuration in the same format, so
its output can be fed back in to reproduce a run.

``RunConfig`` is the one config type: feature extraction
(``features.extract_all``, which returns feature columns), scoring
(``scoring.score_all``, which turns them into probabilities and anomaly
masks), refinement and cross-linguistic scaling all read their constants
off it, and ``RunConfig.validate`` is the only place those constants are
checked. It rejects NaN and infinite values in every float field and
every mapping, and map keys that name no feature or POS category. It
requires a weight for every feature of the mode and for every POS
category, so the pipeline never meets a missing, misspelt or non-finite
constant. It also keeps every probability, composite and threshold in
[0, 1]: polarities are -1 or 1, the core-feature weights sum above 0,
``threshold_beta`` is bounded by ``threshold_alpha`` and the two
composite weights have a finite sum. The mapping fields are read-only
views, so a validated config stays valid.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .features import CORE_FEATURES, MODES, NGRAM_MAX, NGRAM_MIN, feature_names
from .records import FrozenRecord, _set
from .scoring import (
    ALL_FEATURES, DEFAULT_POLARITY, DEFAULT_POS_WEIGHTS, DEFAULT_WEIGHTS, _coefficients,
)
from .wordlist import POS_CATEGORIES

MODELS = ("autbor", "uns")

# Ordering constraint on core feature weights in full mode, strongest first.
_WEIGHT_ORDER = (
    "rare_ngram_score",
    "rare_transition_score",
    "trans_surprisal",
    "ngram_surprisal",
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
_PREFIX_OF = {attr: prefix for prefix, attr in _MAP_PREFIXES.items()}

# Fewer than 2**31 terms of at most this size sum to a finite float: a
# word's rarity total adds one term of at most rare_*_c1 or rare_*_c2 per
# n-gram or transition, and a word has fewer than 2**31 of them.
MAX_RARITY_C = sys.float_info.max / 2**31


class ConfigError(ValueError):
    pass


class RunConfig(FrozenRecord):
    """All constants of the detection pipeline, with published defaults.

    The fields below, with their defaults, are the keywords of
    ``RunConfig(...)``; the mapping fields are kept as read-only copies.
    """

    mode: str = "full"
    model: str = "autbor"

    # feature extraction
    ngram_min: int = NGRAM_MIN
    ngram_max: int = NGRAM_MAX
    rare_ngram_eps1: float = 0.005
    rare_ngram_eps2: float = 0.02
    rare_ngram_c1: float = 100.0
    rare_ngram_c2: float = 20.0
    rare_trans_eps1: float = 0.01
    rare_trans_eps2: float = 0.05
    rare_trans_c1: float = 100.0
    rare_trans_c2: float = 20.0

    # scoring
    weights: Mapping[str, float] = DEFAULT_WEIGHTS
    pos_weights: Mapping[str, float] = DEFAULT_POS_WEIGHTS
    polarity: Mapping[str, int] = DEFAULT_POLARITY
    gamma: float = 8.0
    center: float = 0.5
    anomaly_thresholds: Mapping[str, float] = dict.fromkeys(ALL_FEATURES, 0.8)
    anomaly_boosts: Mapping[str, float] = dict.fromkeys(ALL_FEATURES, 0.5)

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
    composite_w1: float = 1.0
    composite_w2: float = 1.0
    threshold_alpha: float = 0.5
    threshold_beta: float = 0.2

    # baseline
    baseline_threshold: float = 0.5

    def __init__(self, **values: object) -> None:
        super().__init__(**values)
        for name in _PREFIX_OF:
            # a read-only copy: nobody can change a map after validation
            _set(self, name, MappingProxyType(dict(getattr(self, name))))
        self.validate()

    def __hash__(self) -> int:
        # by the flat items, the values == compares: the mapping fields are
        # unhashable views, and to_flat lists their keys sorted
        return hash(tuple(self.to_flat().items()))

    def validate(self) -> None:
        for key, value in self.to_flat().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for attr, prefix in _PREFIX_OF.items():
            known = POS_CATEGORIES if attr == "pos_weights" else ALL_FEATURES
            for key in getattr(self, attr):
                if key not in known:
                    raise ConfigError(f"unknown config key {prefix + key!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if not 0 < self.tau < 1:
            raise ConfigError("tau must be in (0, 1)")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not 1 <= self.ngram_min <= self.ngram_max:
            raise ConfigError("n-gram range must satisfy 1 <= ngram_min <= ngram_max")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        for name in ("rare_ngram_c1", "rare_ngram_c2", "rare_trans_c1", "rare_trans_c2"):
            if not 0 <= getattr(self, name) <= MAX_RARITY_C:
                raise ConfigError(f"{name} must be in [0, {MAX_RARITY_C!r}]")
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
        # theta = alpha + beta * ((1 - C) - B) with (1 - C) - B in [-1, 1]: in
        # floating point too, theta then lies between alpha - |beta| and alpha + |beta|
        spread = abs(self.threshold_beta)
        if self.threshold_alpha - spread < 0 or self.threshold_alpha + spread > 1:
            raise ConfigError(
                "threshold_beta must satisfy "
                "|threshold_beta| <= min(threshold_alpha, 1 - threshold_alpha)"
            )
        if self.rare_ngram_eps1 >= self.rare_ngram_eps2:
            raise ConfigError("rare_ngram_eps1 must be below rare_ngram_eps2")
        if self.rare_trans_eps1 >= self.rare_trans_eps2:
            raise ConfigError("rare_trans_eps1 must be below rare_trans_eps2")
        if self.composite_w1 <= 0 or self.composite_w2 <= 0:
            raise ConfigError("composite weights must be positive")
        if not math.isfinite(self.composite_w1 + self.composite_w2):
            raise ConfigError("composite_w1 + composite_w2 must be finite")
        if self.gap_penalty < 0:  # a negative penalty rewards gaps over any match
            raise ConfigError("gap_penalty must be >= 0")
        if self.pattern_smoothing <= 0:
            raise ConfigError("pattern_smoothing must be positive")
        if self.pattern_from_iteration < 1:  # pass 0 has no native split to refine against
            raise ConfigError("pattern_from_iteration must be >= 1")
        # probabilities stay in [0, 1]: the up factor is clamped, the down factor is not
        if not 0 < self.pattern_down_factor <= 1:
            raise ConfigError("pattern_down_factor must be in (0, 1]")
        if not self.pattern_up_factor > 0:
            raise ConfigError("pattern_up_factor must be positive")
        for name, eta in self.anomaly_boosts.items():
            if not eta >= 0:
                raise ConfigError(f"anomaly boost for {name} must be >= 0")
        for name, sign in self.polarity.items():
            if sign not in (-1, 1):
                raise ConfigError(f"polarity of {name} must be -1 or 1, got {sign!r}")
        for pos in POS_CATEGORIES:
            if pos not in self.pos_weights:
                raise ConfigError(f"missing pos weight for {pos}")
        for pos, beta in self.pos_weights.items():
            if not 0 < beta <= 1:
                raise ConfigError(f"pos weight for {pos} must be in (0, 1]")
        names = feature_names(self.mode)
        missing = [n for n in names if n not in self.weights]
        if missing:
            raise ConfigError(f"no weight for the {self.mode} mode feature {missing[0]}")
        if sum(self.weights[n] for n in names) <= 0:
            raise ConfigError(f"the weights of the {self.mode} mode features must sum above 0")
        # the mass scoring rescales every mode's weights to
        if sum(self.weights[n] for n in CORE_FEATURES if n in self.weights) <= 0:
            raise ConfigError("the core-feature weights must sum above 0")
        if not all(map(math.isfinite, _coefficients(names, self))):
            raise ConfigError(f"the {self.mode} mode weights rescale beyond the float range")
        if self.mode == "full":
            order = [self.weights[n] for n in _WEIGHT_ORDER]
            if order[-1] <= 0 or any(a < b for a, b in zip(order, order[1:])):
                raise ConfigError(
                    "full-mode weights must satisfy "
                    "rare_ngram >= rare_transition >= trans_surprisal >= "
                    "ngram_surprisal >= avg_trans_prob >= len_z > 0"
                )

    # -- flat-key serialization --

    def to_flat(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Mapping):
                prefix = _PREFIX_OF[name]
                for key in sorted(value):
                    out[f"{prefix}{key}"] = value[key]
            else:
                out[name] = value
        return out

    def dump(self) -> str:
        lines = [f"{key} = {_format_value(v)}" for key, v in sorted(self.to_flat().items())]
        return "\n".join(lines) + "\n"

    def with_overrides(self, overrides: Mapping[str, object]) -> "RunConfig":
        """Apply flat-key overrides, returning a new validated config.

        A scalar value is parsed to the type of its field's default.
        """
        simple: dict[str, object] = {}
        maps: dict[str, dict] = {}
        defaults = {n: getattr(RunConfig, n) for n in self._fields if n not in _PREFIX_OF}
        for key, raw in overrides.items():
            prefix = next((p for p in _MAP_PREFIXES if key.startswith(p)), None)
            if prefix is not None:
                attr = _MAP_PREFIXES[prefix]
                current = maps.setdefault(attr, dict(getattr(self, attr)))
                current[key[len(prefix):]] = _coerce(raw, int if attr == "polarity" else float)
            elif key in defaults:
                simple[key] = _coerce(raw, type(defaults[key]))
            else:
                raise ConfigError(f"unknown config key {key!r}")
        return self._replace(**simple, **maps)


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
    """Parse flat ``key = value`` lines; '#' starts a comment, and a key set
    twice is a ``ConfigError``."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {lines[key]}")
        out[key], lines[key] = value, lineno
    return out


def read_config_file(path: str | Path) -> dict[str, str]:
    """The ``key = value`` pairs of the UTF-8 config file at ``path``."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(p)
    try:
        text = p.read_text(encoding="utf-8-sig")  # a leading BOM is no part of a key
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from None
    return parse_config_text(text)


def load_config(
    path: str | Path | None = None, overrides: Mapping[str, object] | None = None
) -> RunConfig:
    """Resolve defaults -> config file -> explicit overrides, in that order."""
    cfg = RunConfig()
    if path is not None:
        cfg = cfg.with_overrides(read_config_file(path))
    return cfg.with_overrides(overrides) if overrides else cfg
