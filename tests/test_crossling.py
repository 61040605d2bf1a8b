"""Alignment, pair divergences, comparability, and scaled-classification tests."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from loandetect import crossling
from loandetect.config import ConfigError, RunConfig
from loandetect.crossling import (
    EmptyDatasetError,
    MissingConceptError,
    align,
    build_context_model,
    classify,
    comparability,
    composite,
    detect_scaled,
    dynamic_threshold,
)
from loandetect.ipa import GAP, symbol_distance
from loandetect.refiner import detect_wordlist
from loandetect.evaluation import generate_synthetic_multilingual
from loandetect.wordlist import LexicalEntry, Wordlist, normalize_ipa

import oracles
from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR

SYMBOLS = ["p", "b", "t", "d", "k", "s", "m", "a", "i", "u"]


def test_align_identity_all_match():
    word = ("p", "a", "t", "a")
    al = align(word, word)
    assert len(al.pairs) == len(word)
    assert all(a == b for a, b, _ in al.pairs)
    assert oracles.bf_tracks(al.pairs, GAP) == (word, word)


def test_align_forced_single_insertion():
    al = align(("a",), ("a", "b"))
    assert len(al.pairs) == 2
    assert oracles.bf_tracks(al.pairs, GAP) == (("a",), ("a", "b"))
    gaps = [(a, b) for a, b, _ in al.pairs if GAP in (a, b)]
    assert len(gaps) == 1


def test_align_never_gaps_both_tracks():
    rng = random.Random(17)
    for _ in range(100):
        x = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 6)))
        y = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 6)))
        al = align(x, y)
        assert len(al.pairs) >= max(len(x), len(y))
        for a, b, _ in al.pairs:
            assert not (a == GAP and b == GAP)
        assert oracles.bf_tracks(al.pairs, GAP) == (x, y)


def test_align_score_equals_exhaustive_enumeration():
    rng = random.Random(23)
    gap = 0.5

    def column_score(a, b):
        return 1.0 - symbol_distance(a, b)

    for _ in range(60):
        x = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 6)))
        y = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 6)))
        al = align(x, y, gap)
        got = oracles.bf_column_score_sum(al.pairs, column_score, gap, GAP)
        best = oracles.bf_best_alignment_score(x, y, column_score, gap)
        assert got == pytest.approx(best, abs=1e-9)


def test_align_tie_order_equals_exact_oracle():
    # few symbols, one of them twice, so that ties are common, and one unknown token
    alphabet = ["p", "t", "a", "a", "ʘ̃"]
    rng = random.Random(29)
    for _ in range(1000):
        x = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
        y = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
        # penalties that are not binary fractions, and large ones, where a float
        # tolerance merges totals one column step apart
        gap = rng.choice([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 1.3, 1e9, 1e12])
        got = [(a, b) for a, b, _ in align(x, y, gap).pairs]
        assert got == oracles.bf_align(x, y, gap), (x, y, gap)


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(SYMBOLS + ["ʘ̃", "ɲ"]), min_size=1, max_size=7),
    st.lists(st.sampled_from(SYMBOLS + ["ʘ̃", "ɲ"]), min_size=1, max_size=7),
    st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 1.3, 1e9]),
)
def test_column_distance_is_the_symbol_distance(x, y, gap):
    for a, b, d in align(tuple(x), tuple(y), gap).pairs:
        if GAP in (a, b):
            assert d == 1.0
        else:
            assert d == symbol_distance(a, b)


def test_an_input_hash_aligns_as_a_symbol():
    # "#" is an unknown token, kept as a segment: it matches itself only
    al = align(normalize_ipa("pa#ta"), normalize_ipa("pa#da"))
    assert [(a, b) for a, b, _ in al.pairs] == [
        ("p", "p"), ("a", "a"), ("#", "#"), ("t", "d"), ("a", "a")
    ]
    assert [d for _, _, d in al.pairs] == [0.0, 0.0, 0.0, symbol_distance("t", "d"), 0.0]


def assert_rows_match_oracle(rows, concepts, gap=0.5):
    assert sorted(rows) == sorted(concepts)
    for concept, words in concepts.items():
        assert len(rows[concept]) == len(words)
        for i in range(len(words)):
            assert len(rows[concept][i]) == len(words) - i - 1
            for j in range(i + 1, len(words)):
                expected = oracles.bf_divergence(words[i], words[j], gap)
                assert rows[concept][i][j - i - 1] == expected


def test_build_context_model_identity_dataset():
    rows = build_context_model({"c": [("a", "b"), ("a", "b")]})
    assert rows == {"c": [[0.0], []]}


def test_build_context_model_hand_tally_three_words():
    # unordered pairs within the concept: (ab, ac), (ab, d), (ac, d)
    concepts = {"c": [("a", "b"), ("a", "c"), ("d",)]}
    rows = build_context_model(concepts)
    # ab~ac: one match and one substitution; ab~d and ac~d: one gap column
    # and one substitution column each
    assert rows["c"][0] == [symbol_distance("b", "c") / 2, (1.0 + symbol_distance("b", "d")) / 2]
    assert rows["c"][1] == [(1.0 + symbol_distance("c", "d")) / 2]
    assert rows["c"][2] == []
    assert_rows_match_oracle(rows, concepts)


def test_build_context_model_requires_a_pair():
    with pytest.raises(EmptyDatasetError):
        build_context_model({"c": [("a", "b")]})


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=5).map(tuple),
            min_size=2,
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_build_context_model_matches_plain_dp(words, gap):
    concepts = {f"c{i}": ws for i, ws in enumerate(words)}
    assert_rows_match_oracle(build_context_model(concepts, RunConfig(gap_penalty=gap)),
                             concepts, gap)


def test_feature_distance_examples():
    word = ("p", "a")
    assert oracles.bf_feature_distance(align(word, word).pairs) == 0.0
    al = align(("p",), ("b",))
    assert oracles.bf_feature_distance(al.pairs) == pytest.approx(1 / 8)
    # all-gap-vs-symbol columns have maximal distance
    assert oracles.bf_feature_distance([(GAP, "a"), ("p", GAP)]) == 1.0
    # the table keeps each pair's mean feature distance
    rows = build_context_model({"same": [word, word], "pb": [("p",), ("b",)]})
    assert rows["same"][0][0] == 0.0
    assert rows["pb"][0][0] == pytest.approx(1 / 8)


def test_divergence_symmetric():
    rng = random.Random(31)
    for _ in range(40):
        x = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 5)))
        y = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 5)))
        assert build_context_model({"c": [x, y]}) == build_context_model({"c": [y, x]})
        assert oracles.bf_divergence(x, y) == oracles.bf_divergence(y, x)


@pytest.mark.parametrize("key", ["divergence_lambda", "context_smoothing"])
def test_removed_divergence_keys_are_unknown(key):
    # the divergence is D_feat alone: it has no weight and no smoothing
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        RunConfig().with_overrides({key: "0.5"})


def test_comparability_endpoints():
    words = [("p", "a"), ("p", "a"), ("z", "d", "u", "x")]
    cs = comparability(build_context_model({"c": words})["c"])
    assert cs[0] == cs[1] == 0.0
    assert cs[2] == 1.0


def test_comparability_all_identical():
    words = [("p", "a"), ("p", "a"), ("p", "a")]
    assert comparability(build_context_model({"c": words})["c"]) == [0.0, 0.0, 0.0]


def test_comparability_matches_manual_minmax_of_divergences():
    words = [("p", "a"), ("b", "a"), ("t", "i", "k")]
    raw = []
    for i, x in enumerate(words):
        ds = [oracles.bf_divergence(x, y) for j, y in enumerate(words) if j != i]
        raw.append(sum(ds) / len(ds))
    lo, hi = min(raw), max(raw)
    expected = [(r - lo) / (hi - lo) for r in raw]
    assert comparability(build_context_model({"c": words})["c"]) == pytest.approx(expected)


def test_comparability_requires_two_words():
    rows = build_context_model({"c": [("a",), ("a",)], "single": [("a",)]})
    with pytest.raises(ValueError):
        comparability(rows["single"])


def test_composite_examples():
    assert composite(1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0)
    assert composite(0.4, 0.8, 1.0, 1.0) == pytest.approx(0.3)
    # C = 1 - B collapses S to B for any weights
    for b in (0.0, 0.3, 0.9):
        for w1, w2 in ((1, 1), (2, 5), (0.4, 0.1)):
            assert composite(b, 1.0 - b, w1, w2) == pytest.approx(b)


def test_composite_monotonicity():
    assert composite(0.8, 0.2) > composite(0.5, 0.2)
    assert composite(0.5, 0.1) > composite(0.5, 0.9)


def test_dynamic_threshold_examples():
    assert dynamic_threshold(0.9, 0.8, alpha=0.5, beta=0.2) == pytest.approx(0.36)
    # beta = 0 -> fixed threshold alpha
    assert dynamic_threshold(0.1, 0.9, alpha=0.4, beta=0.0) == pytest.approx(0.4)
    # B = 1 - C -> theta = alpha
    assert dynamic_threshold(0.7, 0.3, alpha=0.55, beta=0.2) == pytest.approx(0.55)


def test_classify_reduces_to_fixed_threshold():
    # with beta=0 and C = 1-B the composite equals B and theta = alpha,
    # recovering the basic threshold rule
    alpha = 0.3
    for b in (0.0, 0.29, 0.3, 0.31, 1.0):
        s = composite(b, 1.0 - b)
        theta = dynamic_threshold(b, 1.0 - b, alpha=alpha, beta=0.0)
        assert classify(s, theta) == int(b >= alpha)


def test_scaled_flip_on_high_similarity():
    # basic-native word (B just under tau) with maximal cross-language
    # similarity flips to loanword under the dynamic threshold
    b, c = 0.29, 0.0
    s = composite(b, c)
    theta = dynamic_threshold(b, c)
    assert b < 0.3  # basic would say native
    assert classify(s, theta) == 1


def entries(words, language, concepts, labels=None, pos="noun"):
    return [
        LexicalEntry(
            orthography="".join(w),
            ipa=tuple(w),
            language=language,
            pos=pos,
            gold_label=None if labels is None else labels[i],
            concept_id=concepts[i],
        )
        for i, w in enumerate(words)
    ]


NATIVE_A = [
    ("p", "a", "t", "a"),
    ("t", "a", "k", "a"),
    ("k", "a", "p", "a"),
    ("p", "a", "k", "i"),
    ("t", "i", "p", "a"),
    ("k", "i", "t", "a"),
]


def test_detect_scaled_single_language_equals_basic():
    concepts = [f"c{i}" for i in range(len(NATIVE_A))]
    vocab = Wordlist(entries(NATIVE_A, "aaa", concepts))
    result = detect_scaled(vocab, RunConfig())
    probs, labels, _ = detect_wordlist(vocab, RunConfig())
    assert result.basic == pytest.approx(probs)
    assert result.predicted == labels
    assert result.composite == pytest.approx(probs)
    assert all(c is None for c in result.comparability)
    assert len(result.fallback_concepts) == len(NATIVE_A)


def test_detect_scaled_identical_strings_across_languages():
    concepts = [f"c{i}" for i in range(len(NATIVE_A))]
    vocab = Wordlist(
        entries(NATIVE_A, "aaa", concepts) + entries(NATIVE_A, "bbb", concepts)
    )
    cfg = RunConfig()
    result = detect_scaled(vocab, cfg)
    assert all(c == 0.0 for c in result.comparability)
    for i in range(len(vocab)):
        b = result.basic[i]
        assert result.composite[i] == pytest.approx((b + 1.0) / 2.0)
        assert result.composite[i] >= b


def test_detect_scaled_missing_concepts_rejected():
    # a multilingual list without concepts is a wordlist; detect_scaled rejects it
    multi = Wordlist(
        entries(NATIVE_A[:2], "aaa", ["c0", "c1"]) + entries([("z", "u")], "bbb", [None])
    )
    with pytest.raises(MissingConceptError) as err:
        detect_scaled(multi, RunConfig())
    assert err.value.rows == [3]
    assert "concept" in str(err.value)
    # so does a monolingual one
    bad = Wordlist(entries(NATIVE_A[:3], "aaa", ["c0", None, None]))
    with pytest.raises(MissingConceptError) as err2:
        detect_scaled(bad, RunConfig())
    assert err2.value.rows == [2, 3]


def summary_of(basic_predicted, predicted):
    pairs = list(zip(basic_predicted, predicted))
    return (
        f"asymmetry diagnostic: {pairs.count((1, 0))} word(s) loan under the basic model "
        f"but native under the scaled model; {pairs.count((0, 1))} word(s) loan under the "
        "scaled model only"
    )


def test_detect_scaled_asymmetry_diagnostic_consistency():
    vocab = generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 20, 8, seed=0)
    result = detect_scaled(vocab, RunConfig())
    assert result.asymmetry_summary() == summary_of(result.basic_predicted, result.predicted)
    # the counts are of (basic, scaled) label pairs, whatever the other fields hold
    basic_predicted, predicted = [1, 1, 0, 0, 1, 1], [0, 1, 1, 0, 0, 0]
    moved = result._replace(basic_predicted=basic_predicted, predicted=predicted)
    assert moved.asymmetry_summary() == summary_of(basic_predicted, predicted)
    assert "3 word(s) loan under the basic" in moved.asymmetry_summary()
    assert "; 1 word(s) loan under the scaled" in moved.asymmetry_summary()


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=6),
    st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=6),
)
def test_alignment_roundtrip_property(x, y):
    al = align(tuple(x), tuple(y))
    assert oracles.bf_tracks(al.pairs, GAP) == (tuple(x), tuple(y))
    assert len(al.pairs) >= max(len(x), len(y))


def concept_wordlist(concepts):
    """A wordlist of (language, word) members, concept ``c<i>`` per list."""
    return Wordlist(
        [
            LexicalEntry(
                orthography="".join(word),
                ipa=word,
                language=language,
                pos="noun",
                concept_id=f"c{i}",
            )
            for i, members in enumerate(concepts)
            for language, word in members
        ]
    )


MEMBER = st.tuples(
    st.sampled_from(["aaa", "bbb", "ccc"]),
    st.lists(st.sampled_from(["p", "b", "t", "a", "i"]), min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(MEMBER, min_size=1, max_size=4, unique=True), min_size=1, max_size=5),
    st.sampled_from([0.3, 0.5, 1.0]),
)
def test_detect_scaled_comparability_matches_plain_dp_oracle(concepts, gap):
    first_word = concepts[0][0][1]
    concepts = concepts + [
        concepts[0],  # the same pairs again under another concept
        [("aaa", first_word), ("bbb", first_word)],  # one word in two languages
        [("aaa", first_word)],  # one word: no pair
        [("bbb", first_word), ("bbb", first_word + ("a",))],  # one language: no C
    ]
    vocab = concept_wordlist(concepts)
    cfg = RunConfig(gap_penalty=gap, max_iterations=1)
    members: dict[str, list[int]] = {}
    for i, entry in enumerate(vocab):
        members.setdefault(entry.concept_id, []).append(i)
    expected = [None] * len(vocab)
    fallback = []
    for c, idxs in members.items():
        if len({vocab.entries[i].language for i in idxs}) >= 2:
            words = [vocab.entries[i].ipa for i in idxs]
            for i, value in zip(idxs, oracles.bf_comparability(words, gap)):
                expected[i] = value
        else:
            fallback.append(c)
    result = detect_scaled(vocab, cfg)
    assert result.comparability == expected
    assert result.fallback_concepts == sorted(fallback)
    basic, labels, _ = detect_wordlist(vocab, cfg)
    assert result.basic == basic and result.basic_predicted == labels
    for i, c in enumerate(expected):
        b = basic[i]
        if c is None:  # a fallback word keeps the basic model's values
            s, theta, label = b, cfg.tau, labels[i]
        else:
            s = composite(b, c, cfg.composite_w1, cfg.composite_w2)
            theta = dynamic_threshold(b, c, cfg.threshold_alpha, cfg.threshold_beta)
            label = classify(s, theta)
        got = (result.composite[i], result.thresholds[i], result.predicted[i])
        assert got == (s, theta, label)


def test_align_computes_each_symbol_pair_distance_once(monkeypatch):
    calls = Counter()

    def counting_distance(a, b):
        calls[(a, b)] += 1
        return symbol_distance(a, b)

    monkeypatch.setattr(crossling, "_SIMILARITIES", {})
    monkeypatch.setattr(crossling, "symbol_distance", counting_distance)
    x, y = ("p", "a", "t", "a", "p"), ("b", "a", "d", "a")
    first = align(x, y)
    assert align(x, y) == first
    align(y, x)
    pairs = {(a, b) for a in x for b in y} | {(b, a) for a in x for b in y}
    assert calls == Counter(pairs)


def test_detect_scaled_aligns_each_pair_once(monkeypatch):
    calls = Counter()
    real_align = crossling.align

    def counting_align(x, y, *args, **kwargs):
        calls[(tuple(x), tuple(y))] += 1
        return real_align(x, y, *args, **kwargs)

    monkeypatch.setattr(crossling, "align", counting_align)
    vocab = generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 12, 4, seed=3)
    # a third language repeats both words of the first concept: that concept
    # holds each of its words twice, and so every one of its pairs twice or more
    first = [e for e in vocab if e.concept_id == vocab.entries[0].concept_id]
    vocab = Wordlist(list(vocab) + [e._replace(language="third") for e in first])
    # and a concept of one language holds the same words: it gets no C
    vocab = Wordlist(list(vocab) + [e._replace(language="solo", concept_id="solo") for e in first])
    detect_scaled(vocab, RunConfig())

    words: dict[str, list[tuple[str, ...]]] = {}
    languages: dict[str, set[str]] = {}
    for entry in vocab:
        words.setdefault(entry.concept_id, []).append(entry.ipa)
        languages.setdefault(entry.concept_id, set()).add(entry.language)
    # only the concepts of two or more languages are aligned, and a word
    # paired with itself is not
    expected, occurrences, identical = Counter(), 0, 0
    for ws in (words[c] for c, langs in languages.items() if len(langs) >= 2):
        pairs = [
            tuple(sorted((ws[i], ws[j]))) for i in range(len(ws)) for j in range(i + 1, len(ws))
        ]
        occurrences += len(pairs)
        identical += sum(x == y for x, y in pairs)
        expected.update({(x, y) for x, y in pairs if x != y})
    assert identical  # the third language's words pair with the first's
    assert sum(expected.values()) + identical < occurrences
    assert calls == expected


def test_build_context_model_aligns_a_repeated_pair_once_per_concept(monkeypatch):
    calls = Counter()
    real_align = crossling.align
    monkeypatch.setattr(
        crossling, "align", lambda x, y, *a: calls.update([(x, y)]) or real_align(x, y, *a)
    )
    ab, ac = ("a", "b"), ("a", "c")
    concepts = {"c": [ac, ab, ab, ac], "d": [ab, ac]}
    rows = build_context_model(concepts)
    # each distinct sorted pair of two different words is aligned once per
    # concept; a word paired with itself is not aligned
    assert calls == {(ab, ac): 2}
    assert_rows_match_oracle(rows, concepts)
