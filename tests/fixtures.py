"""Frozen synthetic fixtures for the acceptance suite, and feature helpers.

All builders are deterministic in their seed. The expected performance
bands asserted in the acceptance tests were established by running the
full pipeline on these exact fixtures over multiple seeds before the
assertions were frozen.
"""

from __future__ import annotations

import random

from loandetect.config import RunConfig
from loandetect.evaluation import Grammar
from loandetect.features import CompiledGroup, build_statistics, extract_all
from loandetect.wordlist import LexicalEntry, Wordlist

import oracles

# POS profile for synthetic native vocabulary (loans are nouns, the most
# borrowable class).
POS_MIX = (
    ["noun"] * 8 + ["adjective"] * 4 + ["verb"] * 5 + ["adverb"] * 2 + ["function"]
)

# --- separable basic-detection fixture (tight natives, foreign donor) --------

NATIVE_GRAMMAR = Grammar(
    language="reca",
    consonants=("p", "t", "k"),
    vowels=("a", "i", "u"),
    templates=("CV",),
    min_syllables=2,
    max_syllables=3,
)

DONOR_GRAMMAR = Grammar(
    language="donb",
    consonants=("b", "d", "ɡ", "z", "ʒ", "ʁ"),
    vowels=("ø", "y", "ɛ"),
    templates=("CVC", "CV"),
    min_syllables=3,
    max_syllables=4,
)

# a pair whose POS sets and weights differ and whose draws follow transition
# rows, so a POS drawn from the wrong grammar or a skipped row shows
POS_NATIVE_GRAMMAR = Grammar(
    language="reca",
    consonants=("p", "t", "k", "m"),
    vowels=("a", "i", "u"),
    templates=("CV", "CVC"),
    template_weights=(3, 1),
    min_syllables=2,
    max_syllables=3,
    transitions={"p": {"a": 4.0, "i": 0.5}, "a": {"t": 0.2, "m": 3}},
    pos_choices=("noun", "verb", "adjective"),
    pos_weights=(5, 3, 2),
)

POS_DONOR_GRAMMAR = Grammar(
    language="donb",
    consonants=("b", "d", "ʒ", "t͡ʃ"),
    vowels=("ø", "ɛ", "a"),
    templates=("CVC", "CV"),
    min_syllables=2,
    max_syllables=3,
    transitions={"b": {"ø": 0.1, "ɛ": 3.0}, "ɛ": {"ʒ": 2}},
    pos_choices=("noun", "adverb"),
    pos_weights=(1, 4),
)

SEPARABLE_SEED = 7
SCALED_SEED = 7
SCALED_INTEGRATION = 0.7


def _wordlist(natives, loans, rng, language="toy"):
    entries = []
    for w in sorted(natives):
        entries.append(
            LexicalEntry("".join(w), w, language, rng.choice(POS_MIX), 0, None)
        )
    for w in sorted(loans):
        entries.append(LexicalEntry("".join(w), w, language, "noun", 1, None))
    return Wordlist(entries)


# --- n-gram-signal fixture ------------------------------------------------------
# Natives walk a 9-syllable successor graph whose 18 edges cover every
# vowel-consonant junction bigram twice; loans take non-edges. All bigrams
# and transitions stay attested, so the loan signal lives entirely in
# n-grams of order >= 3.

_SUCCESSORS = {
    "pa": ("ti", "ku"), "ta": ("ki", "pu"), "ka": ("pi", "tu"),
    "pi": ("ta", "ku"), "ti": ("ka", "pu"), "ki": ("pa", "tu"),
    "pu": ("ta", "ki"), "tu": ("ka", "pi"), "ku": ("pa", "ti"),
}
_SYLLABLES = sorted(_SUCCESSORS)


def _graph_walk(rng: random.Random, n: int, bad_positions: set[int]) -> tuple[str, ...]:
    current = rng.choice(_SYLLABLES)
    sylls = [current]
    for i in range(n - 1):
        if i in bad_positions:
            options = [
                y
                for y in _SYLLABLES
                if y not in _SUCCESSORS[current] and y != current
            ]
        else:
            options = list(_SUCCESSORS[current])
        current = rng.choice(options)
        sylls.append(current)
    return tuple(ch for syl in sylls for ch in syl)


def ngram_signal_fixture(seed: int, n_native: int = 40, n_loans: int = 10) -> Wordlist:
    rng = random.Random(seed)
    natives: set[tuple[str, ...]] = set()
    while len(natives) < n_native:
        natives.add(_graph_walk(rng, rng.randint(2, 4), set()))
    loans: set[tuple[str, ...]] = set()
    while len(loans) < n_loans:
        n = rng.randint(2, 4)
        bad = set(rng.sample(range(n - 1), min(3, n - 1)))
        w = _graph_walk(rng, n, bad)
        if w not in natives:
            loans.add(w)
    return _wordlist(natives, loans, rng)


# --- transition-signal fixture -----------------------------------------------
# Constant-length CV natives over a diverse inventory (n-gram tails are
# noisy for everyone); loans carry two consonant clusters. At length 10 a
# cluster weighs 1/9 of the transition score but only ~1/44 of the n-gram
# score, so removing transition features blinds the model.

_B_CONS = tuple("ptksmnlrbd")
_B_VOWS = tuple("aeiou")


def _cv_word(rng: random.Random, n_syll: int) -> list[str]:
    out: list[str] = []
    for _ in range(n_syll):
        out.append(rng.choice(_B_CONS))
        out.append(rng.choice(_B_VOWS))
    return out


def transition_signal_fixture(
    seed: int, n_native: int = 80, n_loans: int = 20
) -> Wordlist:
    rng = random.Random(seed)
    natives: set[tuple[str, ...]] = set()
    while len(natives) < n_native:
        natives.add(tuple(_cv_word(rng, 5)))
    loans: set[tuple[str, ...]] = set()
    while len(loans) < n_loans:
        w = _cv_word(rng, 4)
        consonant_slots = [i for i, s in enumerate(w) if s in _B_CONS]
        for i in sorted(rng.sample(consonant_slots, 2), reverse=True):
            w.insert(i + 1, rng.choice([c for c in _B_CONS if c != w[i]]))
        word = tuple(w)
        if word not in natives:
            loans.add(word)
    return _wordlist(natives, loans, rng)


# --- features of probed words against a reference --------------------------


def extract_against(reference, words, cfg=None):
    """Feature columns of ``words`` against the statistics of ``reference``.

    The reference and the probed words are compiled as one group, and the
    probed rows read the reference rows' probabilities by id: an n-gram or
    transition the reference lacks reads 0. The probed rows are sliced out
    of the group's full columns.
    """
    cfg = cfg or RunConfig()
    reference, words = list(reference), list(words)
    group = CompiledGroup(reference + words, cfg.ngram_min, cfg.ngram_max)
    columns = extract_all(build_statistics(group, range(len(reference))), cfg)
    return {name: column[len(reference) :] for name, column in columns.items()}


def ngram_count(stats):
    """The reference's n-gram counts keyed by n-gram, as ``oracles.bf_ngram_counts`` keys them.

    Read off the folded ids: a shared id counts ``stats.gram_counts``, and
    a once-seen n-gram, which shares its length's slot, counts 1 in a
    reference row and 0 elsewhere.
    """
    group = stats.group
    counts = {}
    for w, member, folded in zip(group.words, stats.members, group.word_folded):
        grams = oracles.bf_word_ngrams(w, group.ngram_min, group.ngram_max)
        assert len(grams) == len(folded)
        for g, f in zip(grams, folded):
            count = stats.gram_counts[f] if f < group.shared else member
            if count:
                counts[g] = count
    return counts
