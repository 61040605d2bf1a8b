"""IPA symbol table, phonological feature vectors, and syllabification.

One built-in table covers the standard pulmonic consonants and vowels
(plus nasalized vowels, rounded front vowels, and the common tie-bar
affricates) needed for English, German, French, Italian, Spanish, and
Portuguese transcriptions; every lookup in the package reads it. Every
symbol carries:

  * a class (``vowel`` or ``consonant``), used by the syllabifier and the
    consonant/vowel template features, and
  * a fixed-length vector of 8 categorical phonological features
    (voicing, place, manner, height, backness, rounding, nasality,
    length class), used for symbol-to-symbol distances.

The tokenizer splits a transcription into codepoint groups, as grapheme
clusters are formed in orthography profiles: a base codepoint plus the
combining marks, tie-bar partners and attaching modifier letters that
follow it. Every table symbol is exactly one such group (checked when a
table is built), so a group is either a table symbol or one unknown token.

Unknown symbols never abort a run: tokenization and classification keep
them (classification as ``consonant``), so the pipeline stays usable on
unanticipated transcription conventions. No lookup changes any state;
``unknown_symbols`` counts the unknown tokens of a run on demand.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
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


class UnknownSymbolError(KeyError):
    """Raised when a feature vector is requested for an uncovered symbol."""


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


class SymbolInventory:
    """Symbol set with class and feature lookups plus a tokenizer.

    ``features`` maps each symbol (possibly multi-codepoint, NFC form) to
    a tuple of ``FEATURE_DIM`` categorical codes. The class map is derived
    from the manner slot: ``vowel`` manner means vowel, everything else is
    a consonant.
    """

    def __init__(self, features: Mapping[str, tuple[str, ...]]):
        self.features: dict[str, tuple[str, ...]] = {
            unicodedata.normalize("NFC", s): tuple(f) for s, f in features.items()
        }
        # each symbol mapped to itself: tokens are these string objects, so
        # a symbol's text and hash are stored once however many words hold it
        self.symbols: dict[str, str] = {s: s for s in self.features}
        self.classes: dict[str, str] = {
            s: "vowel" if f[2] == "vowel" else "consonant"
            for s, f in self.features.items()
        }
        for s in self.symbols:
            if len(_codepoint_groups(s)) != 1:
                raise ValueError(
                    f"table symbol {s!r} is not one codepoint group, "
                    "so the tokenizer could never produce it"
                )

    # -- lookups --

    def classify(self, symbol: str) -> str:
        """Return ``vowel`` or ``consonant``; unknown symbols count as consonants."""
        return self.classes.get(symbol, "consonant")

    def feature_vector(self, symbol: str) -> tuple[str, ...]:
        try:
            return self.features[symbol]
        except KeyError:
            raise UnknownSymbolError(symbol) from None

    def is_vowel(self, symbol: str) -> bool:
        return self.classify(symbol) == "vowel"

    # -- tokenization --

    def tokenize(self, text: str) -> list[str]:
        """Split a codepoint string (NFC-composed first) into symbol tokens.

        Each token is one codepoint group: a base codepoint plus the
        codepoints after it that attach to it, which are combining marks
        (tie bars included), ``ATTACHING_MODIFIERS`` and any codepoint right
        after a tie bar. A group that is a table symbol becomes that
        symbol's own string object, shared by every word; any other group
        is one unknown token, the group itself.
        """
        groups = _codepoint_groups(unicodedata.normalize("NFC", text))
        return list(map(self.symbols.get, groups, groups))


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


_DEFAULT_INVENTORY = SymbolInventory(_build_default_features())


def default_inventory() -> SymbolInventory:
    return _DEFAULT_INVENTORY


# --- Module-level lookups over the one symbol table ---------------------------


def classify(symbol: str) -> str:
    return _DEFAULT_INVENTORY.classify(symbol)


def feature_vector(symbol: str) -> tuple[str, ...]:
    return _DEFAULT_INVENTORY.feature_vector(symbol)


def tokenize(text: str) -> list[str]:
    return _DEFAULT_INVENTORY.tokenize(text)


def unknown_symbols(tokens: Iterable[str]) -> Counter[str]:
    """Count the tokens that are not symbols of the table, in first-seen order."""
    symbols = _DEFAULT_INVENTORY.symbols
    return Counter(t for t in tokens if t not in symbols)


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
        return _DEFAULT_INVENTORY.features.get(sym) or (f"?{sym}",) * FEATURE_DIM

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
    is_v = [_DEFAULT_INVENTORY.is_vowel(s) for s in word]

    runs: list[tuple[int, int]] = []
    i = 0
    while i < len(word):
        if is_v[i]:
            j = i
            while j < len(word) and is_v[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1

    if not runs:
        return [tuple(word)]

    syllables: list[tuple[str, ...]] = []
    prev_end = 0
    for _, end in runs:
        syllables.append(tuple(word[prev_end:end]))
        prev_end = end
    if prev_end < len(word):
        syllables[-1] = syllables[-1] + tuple(word[prev_end:])
    return syllables


def cv_pattern(word: Iterable[str]) -> str:
    """Map a symbol sequence to its consonant/vowel template string."""
    return "".join("V" if _DEFAULT_INVENTORY.is_vowel(s) else "C" for s in word)
