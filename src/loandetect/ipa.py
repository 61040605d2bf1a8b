"""IPA symbol table, phonological feature vectors, and syllabification.

One built-in table covers the standard pulmonic consonants and vowels
(plus nasalized vowels, rounded front vowels, and the common tie-bar
affricates) needed for English, German, French, Italian, Spanish, and
Portuguese transcriptions; every lookup in the package reads it. It is
built once, at import, into three module constants:

  * ``FEATURES`` maps each symbol to its 8 categorical phonological
    features (voicing, place, manner, height, backness, rounding,
    nasality, length class), used for symbol-to-symbol distances;
  * ``SYMBOLS`` maps each symbol to itself, the string object every
    token of that symbol is;
  * ``VOWELS`` holds the symbols of ``vowel`` manner, which the
    syllabifier and the CV templates read; every other token, unknown
    ones included, is a consonant.

The tokenizer splits a transcription into codepoint groups, as grapheme
clusters are formed in orthography profiles: a base codepoint plus the
combining marks, tie-bar partners and attaching modifier letters that
follow it. Every table symbol is exactly one such group (``_check_table``
runs on the table at import), so a group is either a table symbol or one
unknown token.

Unknown symbols never abort a run: tokenization keeps them, so the
pipeline stays usable on unanticipated transcription conventions. No
lookup changes any state; ``unknown_symbols`` counts the unknown tokens of
a run on demand.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

FEATURE_NAMES = (
    "voicing",
    "place",
    "manner",
    "height",
    "backness",
    "rounding",
    "nasality",
    "length",
)
FEATURE_DIM = len(FEATURE_NAMES)

# Symbol assigned to alignment gaps: distinct from every real symbol in
# every feature slot, so dist(symbol, gap) is always 1.
GAP = "-"
GAP_FEATURES = ("gap",) * FEATURE_DIM

# Tie bars joining affricate components (U+0361 above, U+035C below).
TIE_BARS = frozenset({"͡", "͜"})

# Modifier letters that attach to the preceding base symbol when grouping
# multi-codepoint symbols (aspiration, secondary articulations, ...).
# Stress and length marks are deliberately excluded; they are stripped
# upstream by the wordlist normalizer.
ATTACHING_MODIFIERS = frozenset(
    {
        "ʰ",  # ʰ aspirated
        "ʱ",  # ʱ breathy
        "ʲ",  # ʲ palatalized
        "ʷ",  # ʷ labialized
        "˞",  # ˞ rhotacized
        "ˠ",  # ˠ velarized
        "ˡ",  # ˡ lateral release
        "ˤ",  # ˤ pharyngealized
        "ⁿ",  # ⁿ nasal release
    }
)


# --- Static feature tables ---------------------------------------------------
# Consonants: symbol -> (voicing, place, manner[, nasality]).

_CONSONANTS: dict[str, tuple[str, str, str]] = {
    # plosives
    "p": ("voiceless", "bilabial", "plosive"),
    "b": ("voiced", "bilabial", "plosive"),
    "t": ("voiceless", "alveolar", "plosive"),
    "d": ("voiced", "alveolar", "plosive"),
    "ʈ": ("voiceless", "retroflex", "plosive"),
    "ɖ": ("voiced", "retroflex", "plosive"),
    "c": ("voiceless", "palatal", "plosive"),
    "ɟ": ("voiced", "palatal", "plosive"),
    "k": ("voiceless", "velar", "plosive"),
    "ɡ": ("voiced", "velar", "plosive"),
    "g": ("voiced", "velar", "plosive"),  # ASCII alias for ɡ
    "q": ("voiceless", "uvular", "plosive"),
    "ɢ": ("voiced", "uvular", "plosive"),
    "ʔ": ("voiceless", "glottal", "plosive"),
    # fricatives
    "ɸ": ("voiceless", "bilabial", "fricative"),
    "β": ("voiced", "bilabial", "fricative"),
    "f": ("voiceless", "labiodental", "fricative"),
    "v": ("voiced", "labiodental", "fricative"),
    "θ": ("voiceless", "dental", "fricative"),
    "ð": ("voiced", "dental", "fricative"),
    "s": ("voiceless", "alveolar", "fricative"),
    "z": ("voiced", "alveolar", "fricative"),
    "ʃ": ("voiceless", "postalveolar", "fricative"),
    "ʒ": ("voiced", "postalveolar", "fricative"),
    "ʂ": ("voiceless", "retroflex", "fricative"),
    "ʐ": ("voiced", "retroflex", "fricative"),
    "ç": ("voiceless", "palatal", "fricative"),
    "ʝ": ("voiced", "palatal", "fricative"),
    "x": ("voiceless", "velar", "fricative"),
    "ɣ": ("voiced", "velar", "fricative"),
    "χ": ("voiceless", "uvular", "fricative"),
    "ʁ": ("voiced", "uvular", "fricative"),
    "ħ": ("voiceless", "pharyngeal", "fricative"),
    "ʕ": ("voiced", "pharyngeal", "fricative"),
    "h": ("voiceless", "glottal", "fricative"),
    "ɦ": ("voiced", "glottal", "fricative"),
    "ɬ": ("voiceless", "alveolar", "lateral-fricative"),
    "ɮ": ("voiced", "alveolar", "lateral-fricative"),
    # trills, taps
    "ʙ": ("voiced", "bilabial", "trill"),
    "r": ("voiced", "alveolar", "trill"),
    "ʀ": ("voiced", "uvular", "trill"),
    "ɾ": ("voiced", "alveolar", "tap"),
    "ɽ": ("voiced", "retroflex", "tap"),
    # approximants (glides included: j, w pattern as consonants)
    "ʋ": ("voiced", "labiodental", "approximant"),
    "ɹ": ("voiced", "alveolar", "approximant"),
    "ɻ": ("voiced", "retroflex", "approximant"),
    "j": ("voiced", "palatal", "approximant"),
    "ɰ": ("voiced", "velar", "approximant"),
    "w": ("voiced", "labiovelar", "approximant"),
    "ɥ": ("voiced", "labiopalatal", "approximant"),
    "l": ("voiced", "alveolar", "lateral"),
    "ɫ": ("voiced", "alveolar", "lateral"),
    "ɭ": ("voiced", "retroflex", "lateral"),
    "ʎ": ("voiced", "palatal", "lateral"),
    "ʟ": ("voiced", "velar", "lateral"),
    # affricates (tie-bar joined)
    "t͡ʃ": ("voiceless", "postalveolar", "affricate"),
    "d͡ʒ": ("voiced", "postalveolar", "affricate"),
    "t͡s": ("voiceless", "alveolar", "affricate"),
    "d͡z": ("voiced", "alveolar", "affricate"),
    "t͡ɕ": ("voiceless", "palatal", "affricate"),
    "d͡ʑ": ("voiced", "palatal", "affricate"),
    "p͡f": ("voiceless", "labiodental", "affricate"),
    "t͡ɬ": ("voiceless", "alveolar", "affricate"),
    # alveolo-palatal fricatives (loan transcriptions)
    "ɕ": ("voiceless", "palatal", "fricative"),
    "ʑ": ("voiced", "palatal", "fricative"),
}

_NASAL_CONSONANTS: dict[str, tuple[str, str]] = {
    "m": ("voiced", "bilabial"),
    "ɱ": ("voiced", "labiodental"),
    "n": ("voiced", "alveolar"),
    "ɳ": ("voiced", "retroflex"),
    "ɲ": ("voiced", "palatal"),
    "ŋ": ("voiced", "velar"),
    "ɴ": ("voiced", "uvular"),
}

# Vowels: symbol -> (height, backness, rounding).
_VOWELS: dict[str, tuple[str, str, str]] = {
    "i": ("close", "front", "unrounded"),
    "y": ("close", "front", "rounded"),
    "ɨ": ("close", "central", "unrounded"),
    "ʉ": ("close", "central", "rounded"),
    "ɯ": ("close", "back", "unrounded"),
    "u": ("close", "back", "rounded"),
    "ɪ": ("near-close", "front", "unrounded"),
    "ʏ": ("near-close", "front", "rounded"),
    "ʊ": ("near-close", "back", "rounded"),
    "e": ("close-mid", "front", "unrounded"),
    "ø": ("close-mid", "front", "rounded"),
    "ɘ": ("close-mid", "central", "unrounded"),
    "ɵ": ("close-mid", "central", "rounded"),
    "ɤ": ("close-mid", "back", "unrounded"),
    "o": ("close-mid", "back", "rounded"),
    "ə": ("mid", "central", "unrounded"),
    "ɛ": ("open-mid", "front", "unrounded"),
    "œ": ("open-mid", "front", "rounded"),
    "ɜ": ("open-mid", "central", "unrounded"),
    "ɞ": ("open-mid", "central", "rounded"),
    "ʌ": ("open-mid", "back", "unrounded"),
    "ɔ": ("open-mid", "back", "rounded"),
    "æ": ("near-open", "front", "unrounded"),
    "ɐ": ("near-open", "central", "unrounded"),
    "a": ("open", "front", "unrounded"),
    "ɶ": ("open", "front", "rounded"),
    "ɑ": ("open", "back", "unrounded"),
    "ɒ": ("open", "back", "rounded"),
}


def _build_default_features() -> dict[str, tuple[str, ...]]:
    table: dict[str, tuple[str, ...]] = {}
    for sym, (voi, place, manner) in _CONSONANTS.items():
        table[sym] = (voi, place, manner, "none", "none", "none", "oral", "short")
    for sym, (voi, place) in _NASAL_CONSONANTS.items():
        table[sym] = (voi, place, "nasal", "none", "none", "none", "nasal", "short")
    for sym, (height, back, rnd) in _VOWELS.items():
        table[sym] = ("voiced", "none", "vowel", height, back, rnd, "oral", "short")
        # nasalized counterpart: base vowel + combining tilde, NFC-composed
        # where a precomposed codepoint exists (ã, õ, ...)
        nasal = unicodedata.normalize("NFC", sym + "̃")
        table[nasal] = ("voiced", "none", "vowel", height, back, rnd, "nasal", "short")
    return table


def _codepoint_groups(text: str) -> Sequence[str]:
    """Split ``text`` into codepoint groups (the rule of ``tokenize``).

    When no codepoint can attach, every codepoint is its own group and
    ``text`` itself is returned.
    """
    combining = unicodedata.combining
    if ATTACHING_MODIFIERS.isdisjoint(text) and not any(map(combining, text)):
        return text
    groups: list[str] = []
    start = 0
    for p in range(1, len(text)):
        ch = text[p]
        if not (combining(ch) or ch in ATTACHING_MODIFIERS or text[p - 1] in TIE_BARS):
            groups.append(text[start:p])
            start = p
    groups.append(text[start:])
    return groups


def _check_table(features: Mapping[str, tuple[str, ...]]) -> None:
    """Refuse a table symbol the tokenizer could never produce."""
    for s in features:
        if unicodedata.normalize("NFC", s) != s or len(_codepoint_groups(s)) != 1:
            raise ValueError(
                f"table symbol {s!r} is not one NFC codepoint group, "
                "so the tokenizer could never produce it"
            )


# symbol -> its FEATURE_DIM categorical codes
FEATURES: dict[str, tuple[str, ...]] = _build_default_features()
_check_table(FEATURES)
# each symbol mapped to itself: tokens are these string objects, so a
# symbol's text and hash are stored once however many words hold it
SYMBOLS: dict[str, str] = {s: s for s in FEATURES}
# the symbols of ``vowel`` manner; every other token is a consonant
VOWELS: frozenset[str] = frozenset(s for s, f in FEATURES.items() if f[2] == "vowel")


def default_inventory() -> SimpleNamespace:
    """``FEATURES`` as ``.features``: kept only for the benchmark's
    ``perfbench/child.py``, which reads ``default_inventory().features``."""
    return SimpleNamespace(features=FEATURES)


def tokenize(text: str) -> list[str]:
    """Split a codepoint string (NFC-composed first) into symbol tokens.

    Each token is one codepoint group: a base codepoint plus the
    codepoints after it that attach to it, which are combining marks (tie
    bars included), ``ATTACHING_MODIFIERS`` and any codepoint right after a
    tie bar. A group that is a table symbol becomes that symbol's own
    string object, shared by every word; any other group is one unknown
    token, the group itself.
    """
    groups = _codepoint_groups(unicodedata.normalize("NFC", text))
    return list(map(SYMBOLS.get, groups, groups))


def unknown_symbols(tokens: Iterable[str]) -> Counter[str]:
    """Count the tokens that are not symbols of the table, in first-seen order."""
    return Counter(t for t in tokens if t not in SYMBOLS)


# symbol_distance results, by symbol pair
_DISTANCES: dict[tuple[str, str], float] = {}


def symbol_distance(a: str, b: str) -> float:
    """Fraction of feature slots on which two symbols disagree.

    The gap symbol compares as different in every slot. Symbols outside
    the table get a synthetic all-identity vector so that identical
    unknowns are distance 0 and anything else is distance 1. Results are
    memoised by symbol pair.
    """
    key = (a, b)
    d = _DISTANCES.get(key)
    if d is None:
        d = _DISTANCES[key] = _slot_distance(a, b)
    return d


def _slot_distance(a: str, b: str) -> float:
    def vec(sym: str) -> tuple[str, ...]:
        if sym == GAP:
            return GAP_FEATURES
        return FEATURES.get(sym) or (f"?{sym}",) * FEATURE_DIM

    fa, fb = vec(a), vec(b)
    return sum(x != y for x, y in zip(fa, fb)) / FEATURE_DIM


def syllabify(word: Sequence[str]) -> list[tuple[str, ...]]:
    """Split a symbol sequence into syllables by onset maximization.

    Each maximal contiguous vowel run is a nucleus; consonants before a
    nucleus attach forward to it, trailing consonants attach to the final
    syllable. A word with no vowels is returned as a single syllable.
    """
    if not word:
        raise ValueError("cannot syllabify an empty word")
    is_v = [s in VOWELS for s in word]
    last = max((i for i, v in enumerate(is_v) if v), default=0)
    # a syllable ends where a vowel run does, unless no vowel follows
    cuts = [0, *(i for i in range(1, last) if is_v[i - 1] and not is_v[i]), len(word)]
    return [tuple(word[a:b]) for a, b in zip(cuts, cuts[1:])]


def cv_pattern(word: Iterable[str]) -> str:
    """Map a symbol sequence to its consonant/vowel template string."""
    return "".join("V" if s in VOWELS else "C" for s in word)
