"""Unsupervised loanword detection over IPA-transcribed wordlists.

The names from ``evaluation`` (metrics, experiment harnesses and the
synthetic-corpus generator) load on first use, so a detection run never
imports that module.
"""

from .config import RunConfig, load_config
from .crossling import detect_scaled
from .refiner import DetectionState, detect, detect_wordlist
from .wordlist import LexicalEntry, Wordlist, load_wordlist, normalize_ipa

__version__ = "0.1.0"

_EVALUATION_NAMES = frozenset({
    "EvalReport",
    "Grammar",
    "evaluate",
    "generate_synthetic",
    "generate_synthetic_multilingual",
    "run_ablations",
    "run_proportion_experiment",
})


def __getattr__(name: str) -> object:
    if name in _EVALUATION_NAMES:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DetectionState",
    "EvalReport",
    "Grammar",
    "LexicalEntry",
    "RunConfig",
    "Wordlist",
    "detect",
    "detect_scaled",
    "detect_wordlist",
    "evaluate",
    "generate_synthetic",
    "generate_synthetic_multilingual",
    "load_config",
    "load_wordlist",
    "normalize_ipa",
    "run_ablations",
    "run_proportion_experiment",
    "__version__",
]
