"""Symbol table, feature vector, tokenizer, and syllabifier tests."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from loandetect import ipa
from loandetect.ipa import (
    ATTACHING_MODIFIERS,
    FEATURE_DIM,
    FEATURES,
    GAP,
    SYMBOLS,
    TIE_BARS,
    VOWELS,
    _check_table,
    cv_pattern,
    symbol_distance,
    syllabify,
    tokenize,
    unknown_symbols,
)

import oracles


def _tables():
    """Copies of the three symbol constants, to show a lookup changed none."""
    return dict(FEATURES), dict(SYMBOLS), set(VOWELS)


def test_classify_basic():
    assert "a" in VOWELS and "ã" in VOWELS
    assert "f" not in VOWELS
    assert cv_pattern(["f", "a", "ã"]) == "CVV"


def test_classify_glides_are_consonants():
    assert "j" not in VOWELS
    assert "w" not in VOWELS


def test_classify_unknown_falls_back_to_consonant():
    before = _tables()
    assert cv_pattern(["☃"]) == "C"
    assert syllabify(["☃", "a"]) == [("☃", "a")]
    # classification keeps no tally: the tables are as they were
    assert _tables() == before


def test_required_symbols_covered():
    for sym in ("ã", "ɔ̃", "ø", "y", "œ", "x", "ɣ", "ʃ", "ʒ", "ʁ", "ɲ"):
        assert sym in SYMBOLS, sym
    for sym in ("ã", "ɔ̃", "ø", "y", "œ"):
        assert sym in VOWELS, sym


def test_every_symbol_has_class_and_features():
    assert SYMBOLS.keys() == FEATURES.keys() and VOWELS <= SYMBOLS.keys()
    for sym, features in FEATURES.items():
        assert len(features) == FEATURE_DIM
        assert (features[2] == "vowel") == (sym in VOWELS)


def test_feature_vector_voicing_minimal_pair():
    p, b = FEATURES["p"], FEATURES["b"]
    diffs = [i for i in range(FEATURE_DIM) if p[i] != b[i]]
    assert diffs == [0]  # voicing slot only


def test_feature_vector_deterministic():
    # building the table again gives the same symbols and vectors, in order
    assert list(ipa._build_default_features().items()) == list(FEATURES.items())


def test_feature_vector_unknown_raises():
    with pytest.raises(KeyError):
        FEATURES["☃"]


def test_symbol_distance_hand_counts():
    # p/b differ in exactly one of the 8 slots
    assert symbol_distance("p", "b") == pytest.approx(1 / 8)
    assert symbol_distance("a", "a") == 0.0
    # gap differs from everything in all slots
    assert symbol_distance("p", GAP) == 1.0
    assert symbol_distance(GAP, "a") == 1.0


def test_symbol_distance_unknown_symbols():
    assert symbol_distance("☃", "☃") == 0.0
    assert symbol_distance("☃", "a") == 1.0


def _plain_distance(fa, fb):
    # the share of the 8 slots on which two feature vectors differ
    return sum(1 for i in range(FEATURE_DIM) if fa[i] != fb[i]) / FEATURE_DIM


def test_memoised_symbol_distance_matches_plain_count():
    vectors = dict(FEATURES)
    vectors[GAP] = ("gap",) * FEATURE_DIM
    vectors["☃"] = tuple(f"?☃{i}" for i in range(FEATURE_DIM))
    symbols = sorted(vectors)
    for _ in range(2):  # the second sweep reads the memo
        for a in symbols:
            for b in symbols:
                want = 0.0 if a == b else _plain_distance(vectors[a], vectors[b])
                assert symbol_distance(a, b) == want, (a, b)


def test_syllabify_alternating_cv():
    assert syllabify(["b", "a", "n", "a", "n", "a"]) == [
        ("b", "a"),
        ("n", "a"),
        ("n", "a"),
    ]


def test_syllabify_single_nucleus():
    assert syllabify(["f", "ʊ", "l"]) == [("f", "ʊ", "l")]


def test_syllabify_onset_maximization():
    # hand application of the rule: all onset consonants attach forward
    assert syllabify(["s", "t", "r", "i"]) == [("s", "t", "r", "i")]
    assert syllabify(["a", "s", "t", "r", "a"]) == [("a",), ("s", "t", "r", "a")]


def test_syllabify_vowelless_word():
    assert syllabify(["p", "s", "t"]) == [("p", "s", "t")]


def test_syllabify_vowel_run_is_one_nucleus():
    assert syllabify(["t", "a", "i", "t", "a"]) == [("t", "a", "i"), ("t", "a")]


@given(
    st.lists(
        st.sampled_from(["p", "t", "k", "s", "a", "i", "u", "ã", "t͡ʃ"]),
        min_size=1,
        max_size=12,
    )
)
def test_syllabify_concatenation_roundtrip(word):
    syllables = syllabify(word)
    flat = [s for syl in syllables for s in syl]
    assert flat == list(word)


@given(
    st.lists(
        st.sampled_from(["p", "t", "s", "a", "i", "ã", "ɔ̃", "j", "☃", "t͡ʃ"]),
        min_size=1,
        max_size=12,
    )
)
def test_syllabify_matches_cv_oracle(word):
    assert syllabify(word) == oracles.bf_syllabify(word, VOWELS)


@given(
    st.lists(
        st.sampled_from(["p", "t", "k", "s", "a", "i", "u"]),
        min_size=1,
        max_size=12,
    )
)
def test_syllable_count_equals_vowel_runs(word):
    cv = cv_pattern(word)
    runs = len([r for r in cv.split("C") if "V" in r and r])
    expected = runs if runs else 1
    assert len(syllabify(word)) == expected


def test_tokenize_groups_affricates_and_nasals():
    assert tokenize("t͡ʃa") == ["t͡ʃ", "a"]
    assert tokenize("ɔ̃p") == ["ɔ̃", "p"]
    # NFD input composes to the same tokens
    assert tokenize("ã") == ["ã"]


def test_tokenize_unknown_cluster_single_token():
    before = _tables()
    toks = tokenize("☃̃a")
    assert toks == ["☃̃", "a"]
    assert unknown_symbols(toks) == Counter({"☃̃": 1})
    # tokenization keeps no tally: the tables are as they were
    assert _tables() == before


def test_tokenize_deterministic_random_strings():
    rng = random.Random(99)
    pool = list(SYMBOLS)
    for _ in range(50):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 10)))
        assert tokenize(text) == tokenize(text)


# every codepoint of the table, both tie bars, the attaching modifiers, two
# combining marks no table symbol holds, and letters outside the table
_TOKENIZER_ALPHABET = sorted(
    {ch for sym in SYMBOLS for ch in sym}
    | TIE_BARS
    | ATTACHING_MODIFIERS
    | {"\u0301", "\u0325", "Q", "ʘ", "☃", "ǃ"}
)


@given(st.lists(st.sampled_from(_TOKENIZER_ALPHABET), max_size=14).map("".join))
def test_tokenize_matches_greedy_longest_match_oracle(text):
    expected, unknown = oracles.bf_tokenize(text, SYMBOLS)
    tokens = tokenize(text)
    assert tokens == expected
    assert list(unknown_symbols(tokens).items()) == list(unknown.items())


def test_tokenize_returns_the_tables_own_symbol_objects():
    # ʃ and ŋ lie outside Latin-1, so slicing them from the text would
    # give new string objects
    tokens = tokenize("ʃt͡ʃɛ̃ŋa")
    assert tokens == ["ʃ", "t͡ʃ", "ɛ̃", "ŋ", "a"]
    assert all(tok is SYMBOLS[tok] for tok in tokens)


def test_every_table_symbol_is_one_codepoint_group():
    # the built-in table passes the check it is given at import
    _check_table(FEATURES)
    for sym in SYMBOLS:
        assert tokenize(sym) == [sym]


def test_symbol_spanning_two_groups_is_rejected():
    features = dict(FEATURES)
    features["ts"] = features["t͡s"]
    with pytest.raises(ValueError, match="'ts'"):
        _check_table(features)
    # one group, but decomposed: the tokenizer composes ã before it looks up
    features = dict(FEATURES)
    features["a\u0303"] = features["ã"]
    with pytest.raises(ValueError, match="NFC"):
        _check_table(features)
