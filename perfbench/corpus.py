"""Seeded input generator for the benchmark, written with stdlib ``random`` only.

It shares no code with ``loandetect.evaluation``, so a change there cannot
change the benchmark's inputs. Every word is built from syllables (optional
onset, vowel, optional coda) drawn from a toy grammar; the generator keeps
the symbol tokens it emitted, and the IPA written to the TSV adds stress
marks, length marks and aspiration on top of them. A report's ``word``
column must equal the join of those tokens.

Loans take their segments from a donor grammar but their shape (syllable
count, onset and coda rates) from the recipient, so natives and loans have
the same length distribution and word length alone does not separate them.
Foreign segments are nativized with a fixed per-segment probability.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mono", "xl")

NATIVE_POS = (("noun", 40), ("adjective", 20), ("verb", 25), ("adverb", 10), ("function", 5))
LOAN_POS = (("noun", 80), ("adjective", 10), ("verb", 10))


@dataclass(frozen=True)
class Grammar:
    """Syllable inventory plus the way the language writes its IPA."""

    name: str
    onsets: tuple[str, ...]
    vowels: tuple[str, ...]
    codas: tuple[str, ...]
    onset_rate: float = 0.9
    coda_rate: float = 0.3
    syllables: tuple[int, ...] = (2, 2, 3, 3, 3, 4)
    stress: str = "none"  # none | initial | penult | final
    long_rate: float = 0.0  # share of stressed vowels written with a length mark
    aspirated: tuple[str, ...] = ()  # word-initial onsets written with ʰ

    def consonants(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.onsets) | set(self.codas)))


def _g(name: str, onsets: str, vowels: str, codas: str, **kw) -> Grammar:
    nfc = lambda s: tuple(unicodedata.normalize("NFC", x) for x in s.split())  # noqa: E731
    return Grammar(name, nfc(onsets), nfc(vowels), nfc(codas), **kw)


MONO = _g(
    "mono",
    "p t k b d m n s l r j w f h",
    "a e i o u",
    "n s l r m t k",
    coda_rate=0.35,
    syllables=(2, 2, 3, 3, 3, 4, 4),
)
MONO_DONOR = _g(
    "donor",
    "ʃ ʒ z v ɡ x ʁ ç t k m n s l",
    "y ø ɛ ɔ ə a i",
    "ʁ ŋ ʃ s n x",
)

# the four languages of `xl`, with the marks their IPA is written with
XL_GRAMMARS = {
    "en": _g(
        "en",
        "p t k b d ɡ f v θ ð s z ʃ h m n l ɹ w j t͡ʃ d͡ʒ",
        "ɪ ɛ æ ʌ ʊ ə i u ɑ ɔ",
        "t d k s z n m ŋ l ɹ θ ʃ",
        onset_rate=0.85, coda_rate=0.45, syllables=(1, 2, 2, 2, 3, 3, 4),
        stress="initial", long_rate=0.3, aspirated=("p", "t", "k"),
    ),
    "de": _g(
        "de",
        "p t k b d ɡ f v s z ʃ ç x h m n l ʁ j t͡s p͡f",
        "i ɪ e ɛ a o ɔ u ʊ y ʏ ø œ ə",
        "t k s n m ŋ l x ç ʁ f ʃ",
        coda_rate=0.5, syllables=(1, 2, 2, 2, 3, 3, 4),
        stress="initial", long_rate=0.35,
    ),
    "fr": _g(
        "fr",
        "p t k b d ɡ f v s z ʃ ʒ m n ɲ l ʁ j w",
        "i e ɛ a ɑ o ɔ u y ø œ ə ɛ̃ ɑ̃ ɔ̃",
        "ʁ l t s k",
        coda_rate=0.25, syllables=(1, 2, 2, 3, 3, 3, 4),
        stress="final", long_rate=0.1,
    ),
    "es": _g(
        "es",
        "p t k b d ɡ f θ s x m n ɲ l ʎ r ɾ j w t͡ʃ β ð ɣ",
        "i e a o u",
        "n l ɾ s d θ",
        stress="penult",
    ),
}

MONO_SIZE = 4_000
LOAN_SHARE = 0.15
INTEGRATION = 0.3

XL_LANGUAGES = tuple(XL_GRAMMARS)
XL_CONCEPTS = 800
XL_LOAN_SHARE = 0.4
# how many of the four languages a concept is attested in, with shares in %
XL_PRESENCE = ((4, 70), (3, 15), (2, 8), (1, 7))


@dataclass(frozen=True)
class Entry:
    """One generated row, with the tokens the generator emitted and its gold label."""

    tokens: tuple[str, ...]
    raw: str
    language: str
    pos: str
    gold: int
    concept: str | None = None

    @property
    def word(self) -> str:
        return "".join(self.tokens)


def write_tsv(entries: list[Entry], path: Path) -> None:
    """The program's input: no gold labels, only what a user would supply."""
    lines = ["orthography\tipa\tlanguage\tpos\tconcept"]
    for i, e in enumerate(entries):
        lines.append(f"{e.language}{i:05d}\t{e.raw}\t{e.language}\t{e.pos}\t{e.concept or ''}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


Syllable = tuple[str, str, str]  # onset, vowel, coda ("" when absent)


def _weighted(rng: random.Random, table) -> str:
    return rng.choices([k for k, _ in table], weights=[w for _, w in table])[0]


def _syllables(shape: Grammar, segs: Grammar, n: int, rng: random.Random) -> list[Syllable]:
    out = []
    for _ in range(n):
        onset = rng.choice(segs.onsets) if rng.random() < shape.onset_rate else ""
        vowel = rng.choice(segs.vowels)
        coda = rng.choice(segs.codas) if rng.random() < shape.coda_rate else ""
        out.append((onset, vowel, coda))
    return out


def _integrate(
    syls: list[Syllable], donor: Grammar, recipient: Grammar, rng: random.Random
) -> list[Syllable]:
    cons, vows = recipient.consonants(), tuple(sorted(recipient.vowels))
    d_cons, d_vows = donor.consonants(), donor.vowels

    def adapt(sym: str, pool, d_pool) -> str:
        if not sym or sym in pool or rng.random() >= INTEGRATION:
            return sym
        # a fixed substitute per foreign symbol, chosen by its rank in the donor pool
        return pool[sorted(d_pool).index(sym) % len(pool)]

    return [
        (adapt(o, cons, d_cons), adapt(v, vows, d_vows), adapt(c, cons, d_cons))
        for o, v, c in syls
    ]


def _write(syls: list[Syllable], g: Grammar, rng: random.Random) -> tuple[tuple[str, ...], str]:
    """Tokens of the word, and its IPA as the language writes it."""
    n = len(syls)
    stressed = {"initial": 0, "penult": max(n - 2, 0), "final": n - 1}.get(g.stress)
    tokens: list[str] = []
    parts: list[str] = []
    for k, (onset, vowel, coda) in enumerate(syls):
        if k == 0 and onset in g.aspirated:
            onset += "ʰ"
        syl_tokens = [s for s in (onset, vowel, coda) if s]
        tokens.extend(syl_tokens)
        text = onset + vowel + ("ː" if k == stressed and rng.random() < g.long_rate else "") + coda
        if k == stressed and n > 1:
            text = "ˈ" + text
        elif k == 0 and n >= 4 and stressed not in (None, 0, 1):
            text = "ˌ" + text
        parts.append(text)
    return tuple(tokens), "".join(parts)


def _unique_word(g: Grammar, n: int, rng: random.Random, taken: set[str], donor=None):
    """Sample n-syllable words of ``g`` (segments from ``donor`` when given)
    until the joined word is new to the language."""
    for _ in range(10_000):
        syls = _syllables(g, donor or g, n, rng)
        if donor is not None:
            syls = _integrate(syls, donor, g, rng)
        tokens, raw = _write(syls, g, rng)
        word = "".join(tokens)
        if word not in taken:
            taken.add(word)
            return tokens, raw
    raise RuntimeError(f"grammar {g.name!r} ran out of distinct words")


def _monolingual(g: Grammar, donor: Grammar, size: int, rng: random.Random) -> list[Entry]:
    # syllable counts cycle through the grammar's list for natives and loans
    # alike, so both groups have the same length distribution
    n_loans = round(size * LOAN_SHARE)
    taken: set[str] = set()
    entries = []
    for i in range(size):
        loan = i < n_loans
        n = g.syllables[i % len(g.syllables)]
        tokens, raw = _unique_word(g, n, rng, taken, donor if loan else None)
        pos = _weighted(rng, LOAN_POS if loan else NATIVE_POS)
        entries.append(Entry(tokens, raw, g.name, pos, int(loan)))
    return entries


def _xl(n_concepts: int, rng: random.Random) -> list[Entry]:
    # exact shares of concepts per language count and of loan concepts, so
    # that only the words, not the amount of alignment work, vary by seed
    presence = [k for k, w in XL_PRESENCE for _ in range(round(n_concepts * w / 100))]
    presence = (presence + [XL_PRESENCE[0][0]] * n_concepts)[:n_concepts]
    rng.shuffle(presence)
    multi = [c for c, k in enumerate(presence) if k >= 2]
    loan_concepts = set(rng.sample(multi, round(len(multi) * XL_LOAN_SHARE)))
    entries = []
    for c, k in enumerate(presence):
        langs = sorted(rng.sample(XL_LANGUAGES, k))
        words: dict[str, list[Syllable]] = {}
        gold = dict.fromkeys(langs, 0)
        if c in loan_concepts:
            donor = rng.choice(langs)
            g = XL_GRAMMARS[donor]
            words[donor] = _syllables(g, g, g.syllables[c % len(g.syllables)], rng)
            others = [lang for lang in langs if lang != donor]
            for lang in rng.sample(others, min(len(others), 1 + c % 2)):
                words[lang] = _integrate(words[donor], g, XL_GRAMMARS[lang], rng)
                gold[lang] = 1
        for j, lang in enumerate(langs):
            g = XL_GRAMMARS[lang]
            syls = words.get(lang) or _syllables(g, g, g.syllables[(c + j) % len(g.syllables)], rng)
            tokens, raw = _write(syls, g, rng)
            pos = _weighted(rng, LOAN_POS if gold[lang] else NATIVE_POS)
            entries.append(Entry(tokens, raw, lang, pos, gold[lang], f"c{c:04d}"))
    return entries


def generate(workload: str, seed: int, scale: float = 1.0) -> list[Entry]:
    """The workload's corpus for this seed; ``scale`` shrinks it for smoke runs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mono":
        entries = _monolingual(MONO, MONO_DONOR, max(20, round(MONO_SIZE * scale)), rng)
        rng.shuffle(entries)
    elif workload == "xl":
        entries = _xl(max(20, round(XL_CONCEPTS * scale)), rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return entries
