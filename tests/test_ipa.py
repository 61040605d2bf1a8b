"""Inventory, feature vector, tokenizer, and syllabifier tests."""

import random

import pytest
from hypothesis import given, strategies as st

from loandetect.ipa import (
    FEATURE_DIM,
    GAP,
    SymbolInventory,
    UnknownSymbolError,
    classify,
    cv_pattern,
    default_inventory,
    feature_vector,
    load_feature_table,
    symbol_distance,
    syllabify,
    tokenize,
)

INV = default_inventory()


def test_classify_basic():
    assert classify("a") == "vowel"
    assert classify("f") == "consonant"
    assert classify("ã") == "vowel"


def test_classify_glides_are_consonants():
    assert classify("j") == "consonant"
    assert classify("w") == "consonant"


def test_classify_unknown_falls_back_to_consonant():
    inv = SymbolInventory(dict(INV.features))
    before = sum(inv.unknown_seen.values())
    assert inv.classify("☃") == "consonant"
    assert sum(inv.unknown_seen.values()) == before + 1


def test_required_symbols_covered():
    for sym in ("ã", "ɔ̃", "ø", "y", "œ", "x", "ɣ", "ʃ", "ʒ", "ʁ", "ɲ"):
        assert sym in INV.symbols, sym
    for sym in ("ã", "ɔ̃", "ø", "y", "œ"):
        assert INV.classify(sym) == "vowel"


def test_every_symbol_has_class_and_features():
    for sym in INV.symbols:
        assert INV.classify(sym) in ("vowel", "consonant")
        assert len(INV.feature_vector(sym)) == FEATURE_DIM


def test_feature_vector_voicing_minimal_pair():
    p, b = feature_vector("p"), feature_vector("b")
    diffs = [i for i in range(FEATURE_DIM) if p[i] != b[i]]
    assert diffs == [0]  # voicing slot only


def test_feature_vector_deterministic():
    assert feature_vector("a") == feature_vector("a")


def test_feature_vector_unknown_raises():
    with pytest.raises(UnknownSymbolError):
        feature_vector("☃")


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
    inv = SymbolInventory(dict(INV.features))
    vectors = dict(inv.features)
    vectors[GAP] = ("gap",) * FEATURE_DIM
    vectors["☃"] = tuple(f"?☃{i}" for i in range(FEATURE_DIM))
    symbols = sorted(vectors)
    for _ in range(2):  # the second sweep reads the memo
        for a in symbols:
            for b in symbols:
                want = 0.0 if a == b else _plain_distance(vectors[a], vectors[b])
                assert symbol_distance(a, b, inv) == want, (a, b)
    # the module-level default inventory gives the same answers
    for a in ("p", "ã", GAP, "☃"):
        for b in ("b", "ɔ̃", GAP, "☃"):
            assert symbol_distance(a, b) == symbol_distance(a, b, inv)


def test_symbol_distance_memo_is_per_inventory():
    base = dict(INV.features)
    other = dict(base)
    other["p"] = ("x",) * FEATURE_DIM
    inv_a, inv_b = SymbolInventory(base), SymbolInventory(other)
    for _ in range(2):
        assert symbol_distance("p", "b", inv_a) == pytest.approx(1 / 8)
        assert symbol_distance("p", "b", inv_b) == 1.0
        assert symbol_distance("p", "p", inv_b) == 0.0
    assert symbol_distance("p", "b") == pytest.approx(1 / 8)


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
    inv = SymbolInventory(dict(INV.features))
    toks = inv.tokenize("☃̃a")
    assert toks == ["☃̃", "a"]
    assert inv.unknown_seen["☃̃"] == 1


def test_feature_table_roundtrip(tmp_path):
    path = tmp_path / "features.tsv"
    rows = ["symbol\t" + "\t".join(f"f{i}" for i in range(FEATURE_DIM))]
    rows.append("p\tvoiceless\tbilabial\tplosive\tnone\tnone\tnone\toral\tshort")
    rows.append("a\tvoiced\tnone\tvowel\topen\tfront\tunrounded\toral\tshort")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    inv = load_feature_table(path)
    assert inv.classify("a") == "vowel"
    assert inv.classify("p") == "consonant"
    assert inv.feature_vector("p")[0] == "voiceless"


def test_feature_table_rejects_bad_arity(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("symbol\tf0\np\tx\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_feature_table(path)


def test_tokenize_deterministic_random_strings():
    rng = random.Random(99)
    pool = list(INV.symbols)
    for _ in range(50):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 10)))
        assert tokenize(text) == tokenize(text)
