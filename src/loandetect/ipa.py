"""IPA symbol inventory, phonological feature vectors, and syllabification.

The inventory covers the standard pulmonic consonants and vowels (plus
nasalized vowels, rounded front vowels, and the common tie-bar affricates)
needed for English, German, French, Italian, Spanish, and Portuguese
transcriptions. Every symbol carries:

  * a class (``vowel`` or ``consonant``), used by the syllabifier and the
    consonant/vowel template features, and
  * a fixed-length vector of 8 categorical phonological features
    (voicing, place, manner, height, backness, rounding, nasality,
    length class), used for symbol-to-symbol distances.

Unknown symbols never abort a run: classification falls back to
``consonant`` and a per-inventory warning counter is incremented, so the
pipeline stays usable on unanticipated transcription conventions.
"""

from __future__ import annotations

import csv
import logging
import unicodedata
from collections import Counter
from typing import Iterable, Mapping, Sequence

log = logging.getLogger(__name__)

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
        bad = [s for s, f in features.items() if len(f) != FEATURE_DIM]
        if bad:
            raise ValueError(f"feature rows with wrong arity: {bad[:5]}")
        self.features: dict[str, tuple[str, ...]] = {
            unicodedata.normalize("NFC", s): tuple(f) for s, f in features.items()
        }
        self.symbols = frozenset(self.features)
        self.classes: dict[str, str] = {
            s: "vowel" if f[2] == "vowel" else "consonant"
            for s, f in self.features.items()
        }
        self._max_len = max(len(s) for s in self.features)
        self.unknown_seen: Counter[str] = Counter()
        # symbol_distance results under this feature table, by symbol pair
        self._distances: dict[tuple[str, str], float] = {}

    # -- lookups --

    def classify(self, symbol: str) -> str:
        """Return ``vowel`` or ``consonant``; unknown symbols count as consonants."""
        cls = self.classes.get(symbol)
        if cls is None:
            self.unknown_seen[symbol] += 1
            return "consonant"
        return cls

    def feature_vector(self, symbol: str) -> tuple[str, ...]:
        try:
            return self.features[symbol]
        except KeyError:
            raise UnknownSymbolError(symbol) from None

    def is_vowel(self, symbol: str) -> bool:
        return self.classify(symbol) == "vowel"

    # -- tokenization --

    def tokenize(self, text: str) -> list[str]:
        """Group a codepoint string into symbol tokens.

        Greedy longest match against the inventory; a match is rejected if
        it would orphan a following combining mark, tie bar, or attaching
        modifier. Codepoint runs that match nothing become single unknown
        tokens (base plus its marks) and are tallied in ``unknown_seen``.
        """
        text = unicodedata.normalize("NFC", text)
        out: list[str] = []
        i, n = 0, len(text)
        while i < n:
            match = None
            for k in range(min(self._max_len, n - i), 0, -1):
                cand = text[i : i + k]
                if cand in self.symbols and not self._attaches(text, i + k):
                    match = cand
                    break
            if match is None:
                j = i + 1
                while j < n and self._attaches(text, j):
                    j += 1
                match = text[i:j]
                self.unknown_seen[match] += 1
                log.debug("unknown IPA token %r", match)
            out.append(match)
            i += len(match)
        return out

    @staticmethod
    def _attaches(text: str, pos: int) -> bool:
        # True when the codepoint at `pos` continues the preceding symbol.
        if pos <= 0 or pos >= len(text):
            return False
        ch = text[pos]
        if unicodedata.combining(ch):
            return True
        if ch in TIE_BARS or text[pos - 1] in TIE_BARS:
            return True
        return ch in ATTACHING_MODIFIERS


_DEFAULT_INVENTORY = SymbolInventory(_build_default_features())


def default_inventory() -> SymbolInventory:
    return _DEFAULT_INVENTORY


def load_feature_table(path: str) -> SymbolInventory:
    """Build an inventory from a TSV resource (symbol + 8 feature columns)."""
    table: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header is None or len(header) != FEATURE_DIM + 1:
            raise ValueError(
                f"feature table needs a header with {FEATURE_DIM + 1} columns"
            )
        for row in reader:
            if not row or not row[0]:
                continue
            if len(row) != FEATURE_DIM + 1:
                raise ValueError(f"feature row for {row[0]!r} has {len(row)} columns")
            table[row[0]] = tuple(row[1:])
    if not table:
        raise ValueError("feature table is empty")
    return SymbolInventory(table)


# --- Module-level conveniences over the default inventory --------------------


def classify(symbol: str, inventory: SymbolInventory | None = None) -> str:
    return (inventory or _DEFAULT_INVENTORY).classify(symbol)


def feature_vector(
    symbol: str, inventory: SymbolInventory | None = None
) -> tuple[str, ...]:
    return (inventory or _DEFAULT_INVENTORY).feature_vector(symbol)


def tokenize(text: str, inventory: SymbolInventory | None = None) -> list[str]:
    return (inventory or _DEFAULT_INVENTORY).tokenize(text)


def symbol_distance(
    a: str, b: str, inventory: SymbolInventory | None = None
) -> float:
    """Fraction of feature slots on which two symbols disagree.

    The gap symbol compares as different in every slot. Symbols outside
    the inventory get a synthetic all-identity vector so that identical
    unknowns are distance 0 and anything else is distance 1. Results are
    memoised per inventory.
    """
    inv = inventory or _DEFAULT_INVENTORY
    key = (a, b)
    d = inv._distances.get(key)
    if d is None:
        d = inv._distances[key] = _slot_distance(a, b, inv)
    return d


def _slot_distance(a: str, b: str, inv: SymbolInventory) -> float:
    def vec(sym: str) -> tuple[str, ...]:
        if sym == GAP:
            return GAP_FEATURES
        try:
            return inv.feature_vector(sym)
        except UnknownSymbolError:
            return tuple(f"?{sym}" for _ in range(FEATURE_DIM))

    fa, fb = vec(a), vec(b)
    return sum(x != y for x, y in zip(fa, fb)) / FEATURE_DIM


def syllabify(
    word: Sequence[str], inventory: SymbolInventory | None = None
) -> list[tuple[str, ...]]:
    """Split a symbol sequence into syllables by onset maximization.

    Each maximal contiguous vowel run is a nucleus; consonants before a
    nucleus attach forward to it, trailing consonants attach to the final
    syllable. A word with no vowels is returned as a single syllable.
    """
    if not word:
        raise ValueError("cannot syllabify an empty word")
    inv = inventory or _DEFAULT_INVENTORY
    is_v = [inv.is_vowel(s) for s in word]

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
    for _, (start, end) in enumerate(runs):
        syllables.append(tuple(word[prev_end:end]))
        prev_end = end
    if prev_end < len(word):
        syllables[-1] = syllables[-1] + tuple(word[prev_end:])
    return syllables


def cv_pattern(word: Iterable[str], inventory: SymbolInventory | None = None) -> str:
    """Map a symbol sequence to its consonant/vowel template string."""
    inv = inventory or _DEFAULT_INVENTORY
    return "".join("V" if inv.is_vowel(s) else "C" for s in word)
