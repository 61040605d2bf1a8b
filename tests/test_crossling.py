"""Alignment, context model, divergence, and scaled-classification tests."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from loandetect.config import RunConfig
from loandetect.crossling import (
    BOUNDARY,
    Alignment,
    ContextModel,
    EmptyDatasetError,
    MissingConceptError,
    align,
    alignment_logprob,
    build_context_model,
    classify,
    comparability,
    composite,
    detect_scaled,
    divergence,
    dynamic_threshold,
    feature_distance,
)
from loandetect.ipa import GAP, symbol_distance
from loandetect.refiner import detect_wordlist
from loandetect.wordlist import LexicalEntry, make_wordlist

import oracles

SYMBOLS = ["p", "b", "t", "d", "k", "s", "m", "a", "i", "u"]


def test_align_identity_all_match():
    word = ("p", "a", "t", "a")
    al = align(word, word)
    assert al.length == len(word)
    assert all(a == b for a, b, _ in al.pairs)
    assert oracles.bf_tracks(al.pairs, GAP) == (word, word)


def test_align_forced_single_insertion():
    al = align(("a",), ("a", "b"))
    assert al.length == 2
    assert oracles.bf_tracks(al.pairs, GAP) == (("a",), ("a", "b"))
    gaps = [(a, b) for a, b, _ in al.pairs if GAP in (a, b)]
    assert len(gaps) == 1


def test_align_never_gaps_both_tracks():
    rng = random.Random(17)
    for _ in range(100):
        x = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 6)))
        y = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 6)))
        al = align(x, y)
        assert al.length >= max(len(x), len(y))
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


def test_context_windows_padded_with_boundary():
    al = align(("p", "a"), ("p", "a"))
    (a0, b0, ctx0), (a1, b1, ctx1) = al.pairs
    assert ctx0 == (BOUNDARY, BOUNDARY, "a", BOUNDARY)
    assert ctx1 == (BOUNDARY, "p", BOUNDARY, BOUNDARY)


def test_build_context_model_identity_dataset():
    model = build_context_model({"c": [("a", "b"), ("a", "b")]})
    ctx0 = (BOUNDARY, BOUNDARY, "b", BOUNDARY)
    ctx1 = (BOUNDARY, "a", BOUNDARY, BOUNDARY)
    assert model.counts[("a", "a", ctx0)] == 1
    assert model.counts[("b", "b", ctx1)] == 1
    assert model.marginals[ctx0] == 1 and model.marginals[ctx1] == 1
    assert model.pair_types == {("a", "a"), ("b", "b")}
    # identical pairs take the highest probability in their context
    p_seen = model.probability("a", "a", ctx0)
    p_unseen = model.probability("a", "b", ctx0)
    assert p_seen > p_unseen > 0.0


def test_build_context_model_smoothing_floor():
    model = build_context_model({"c": [("a", "b"), ("a", "b")]})
    s, k = model.smoothing, len(model.pair_types)
    never = model.probability("x", "y", ("#", "#", "#", "#"))
    assert never == pytest.approx(s / (s * k))
    assert never > 0.0


def test_build_context_model_hand_tally_three_words():
    # unordered pairs within the concept: (ab, ac), (ab, d), (ac, d)
    model = build_context_model({"c": [("a", "b"), ("a", "c"), ("d",)]})
    total_columns = sum(model.marginals.values())
    # ab~ac aligns in 2 columns; ab~d and ac~d each align with one gap
    # column and one substitution column (2 columns each)
    assert total_columns == 6
    ctx0 = (BOUNDARY, BOUNDARY, "b", BOUNDARY)
    assert model.counts[("a", "a", ctx0)] == 1
    # symmetric storage: both orders recorded
    ctx1 = (BOUNDARY, "a", BOUNDARY, BOUNDARY)
    assert model.counts[("b", "c", ctx1)] == model.counts[("c", "b", ctx1)] == 1


def test_build_context_model_requires_a_pair():
    with pytest.raises(EmptyDatasetError):
        build_context_model({"c": [("a", "b")]})


def test_context_counts_bounded_by_marginals():
    rng = random.Random(11)
    concepts = {
        f"c{i}": [
            tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(2, 4))
        ]
        for i in range(6)
    }
    model = build_context_model(concepts)
    for (a, b, ctx), count in model.counts.items():
        assert count <= model.marginals[ctx]


def test_alignment_logprob_examples():
    # single column with probability 1: count == marginal and K == 1
    model = ContextModel(smoothing=0.1)
    ctx = (BOUNDARY, BOUNDARY, BOUNDARY, BOUNDARY)
    model.observe("a", "a", ctx)
    assert model.probability("a", "a", ctx) == pytest.approx(1.0)
    al = Alignment(pairs=(("a", "a", ctx),))
    assert alignment_logprob(al, model) == pytest.approx(0.0)

    # two columns each with probability 0.5 -> -2 ln 2 (natural log)
    model2 = ContextModel(smoothing=0.1)
    model2.observe("a", "a", ctx)
    model2.observe("b", "b", ctx)
    assert model2.probability("a", "a", ctx) == pytest.approx(0.5)
    al2 = Alignment(pairs=(("a", "a", ctx), ("a", "a", ctx)))
    assert alignment_logprob(al2, model2) == pytest.approx(2 * math.log(0.5))
    assert alignment_logprob(al2, model2) == pytest.approx(-1.386, abs=1e-3)

    # attested column scores higher than an unseen one, ceteris paribus
    seen = alignment_logprob(Alignment(pairs=(("a", "a", ctx),)), model2)
    unseen = alignment_logprob(Alignment(pairs=(("a", "b", ctx),)), model2)
    assert seen > unseen


def test_feature_distance_examples():
    word = ("p", "a")
    assert feature_distance(align(word, word)) == 0.0
    al = align(("p",), ("b",))
    assert feature_distance(al) == pytest.approx(1 / 8)
    # all-gap-vs-symbol columns have maximal distance
    ctx = (BOUNDARY,) * 4
    gappy = Alignment(pairs=((GAP, "a", ctx), ("p", GAP, ctx)))
    assert feature_distance(gappy) == 1.0


def test_divergence_boundary_weights():
    model = build_context_model({"c": [("p", "a"), ("b", "a")]})
    x, y = ("p", "a"), ("b", "a")
    al = align(*sorted((x, y)))
    d_feat = feature_distance(al)
    logp = alignment_logprob(al, model)
    assert divergence(x, y, model, lam=1.0) == pytest.approx(d_feat)
    assert divergence(x, y, model, lam=0.0) == pytest.approx(-logp / al.length)
    mid = divergence(x, y, model, lam=0.5)
    assert mid == pytest.approx(0.5 * d_feat - 0.5 * logp / al.length)


def test_divergence_symmetric():
    rng = random.Random(31)
    model = build_context_model(
        {"c": [("p", "a"), ("b", "a"), ("t", "i", "k")]}
    )
    for _ in range(40):
        x = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 5)))
        y = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 5)))
        assert divergence(x, y, model) == pytest.approx(divergence(y, x, model))


def test_divergence_lambda_validated():
    model = build_context_model({"c": [("a",), ("a",)]})
    with pytest.raises(ValueError):
        divergence(("a",), ("a",), model, lam=1.5)


def test_comparability_endpoints():
    words = [("p", "a"), ("p", "a"), ("z", "d", "u", "x")]
    model = build_context_model({"c": words})
    cs = comparability(words, model)
    assert cs[0] == cs[1] == 0.0
    assert cs[2] == 1.0


def test_comparability_all_identical():
    words = [("p", "a"), ("p", "a"), ("p", "a")]
    model = build_context_model({"c": words})
    assert comparability(words, model) == [0.0, 0.0, 0.0]


def test_comparability_matches_manual_minmax_of_divergences():
    words = [("p", "a"), ("b", "a"), ("t", "i", "k")]
    model = build_context_model({"c": words})
    raw = []
    for i, x in enumerate(words):
        ds = [divergence(x, y, model) for j, y in enumerate(words) if j != i]
        raw.append(sum(ds) / len(ds))
    lo, hi = min(raw), max(raw)
    expected = [(r - lo) / (hi - lo) for r in raw]
    assert comparability(words, model) == pytest.approx(expected)


def test_comparability_requires_two_words():
    model = build_context_model({"c": [("a",), ("a",)]})
    with pytest.raises(ValueError):
        comparability([("a",)], model)


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
    vocab = make_wordlist(entries(NATIVE_A, "aaa", concepts))
    result = detect_scaled(vocab, RunConfig())
    probs, labels, _ = detect_wordlist(vocab, RunConfig())
    assert result.basic == pytest.approx(probs)
    assert result.predicted == labels
    assert result.composite == pytest.approx(probs)
    assert all(c is None for c in result.comparability)
    assert len(result.fallback_concepts) == len(NATIVE_A)


def test_detect_scaled_identical_strings_across_languages():
    concepts = [f"c{i}" for i in range(len(NATIVE_A))]
    vocab = make_wordlist(
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
    # multilingual wordlists reject missing concepts at construction time
    with pytest.raises(Exception) as err:
        make_wordlist(
            entries(NATIVE_A[:2], "aaa", ["c0", "c1"])
            + entries([("z", "u")], "bbb", [None])
        )
    assert "concept" in str(err.value)
    # a monolingual list without concepts reaches detect_scaled's own check
    bad = make_wordlist(entries(NATIVE_A[:3], "aaa", ["c0", None, None]))
    with pytest.raises(MissingConceptError) as err2:
        detect_scaled(bad, RunConfig())
    assert err2.value.rows == [2, 3]


def test_detect_scaled_asymmetry_diagnostic_consistency():
    concepts = [f"c{i}" for i in range(len(NATIVE_A))]
    vocab = make_wordlist(
        entries(NATIVE_A, "aaa", concepts) + entries(NATIVE_A, "bbb", concepts)
    )
    result = detect_scaled(vocab, RunConfig())
    for i in result.basic_only_loans:
        assert result.basic_predicted[i] == 1 and result.predicted[i] == 0
    for i in result.scaled_only_loans:
        assert result.basic_predicted[i] == 0 and result.predicted[i] == 1
    assert "asymmetry diagnostic" in result.asymmetry_summary()


@settings(max_examples=60)
@given(
    st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=6),
    st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=6),
)
def test_alignment_roundtrip_property(x, y):
    al = align(tuple(x), tuple(y))
    assert oracles.bf_tracks(al.pairs, GAP) == (tuple(x), tuple(y))
    assert al.length >= max(len(x), len(y))
