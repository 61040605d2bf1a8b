"""Alignment, context model, comparability, and scaled-classification tests."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from loandetect import crossling
from loandetect.config import RunConfig
from loandetect.crossling import (
    BOUNDARY,
    Alignment,
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


def test_context_windows_padded_with_boundary():
    al = align(("p", "a"), ("p", "a"))
    (a0, b0, ctx0), (a1, b1, ctx1) = al.pairs
    assert ctx0 == (BOUNDARY, BOUNDARY, "a", BOUNDARY)
    assert ctx1 == (BOUNDARY, "p", BOUNDARY, BOUNDARY)


def test_an_input_hash_is_not_a_word_edge():
    # "#" is an unknown token, kept as a segment; only BOUNDARY pads the edges
    al = align(normalize_ipa("pa#ta"), normalize_ipa("pata"))
    (t_column,) = [ctx for a, b, ctx in al.pairs if a == "t"]
    assert t_column == ("a", "#", "a", BOUNDARY)
    assert t_column[-1] == BOUNDARY != "#"


def column_logps(model, concept, i, j):
    """The model's log-probabilities of the columns of pair i < j of a concept."""
    _, ids = model.rows[concept][i][j - i - 1]
    return [model.logp[key] for key in ids]


def bf_column_logps(bf, x, y, gap=0.5):
    first, second = sorted((tuple(x), tuple(y)))
    return [math.log(bf.probability(a, b, ctx)) for a, b, ctx in align(first, second, gap).pairs]


def assert_model_matches_oracle(model, concepts, bf):
    for concept, words in concepts.items():
        assert len(model.rows[concept]) == len(words)
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                pair = sorted((tuple(words[i]), tuple(words[j])))
                d_feat, _ = model.rows[concept][i][j - i - 1]
                assert d_feat == oracles.bf_feature_distance(align(*pair).pairs)
                assert column_logps(model, concept, i, j) == bf_column_logps(bf, *pair)


def test_build_context_model_identity_dataset():
    concepts = {"c": [("a", "b"), ("a", "b")]}
    model = oracles.bf_build_context_model(concepts)
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
    # the interned model holds the same probabilities, one alignment per pair
    interned = build_context_model(concepts)
    assert column_logps(interned, "c", 0, 1) == [
        math.log(p_seen),
        math.log(model.probability("b", "b", ctx1)),
    ]


def test_build_context_model_smoothing_floor():
    concepts = {"c": [("a", "b"), ("a", "b")]}
    model = oracles.bf_build_context_model(concepts)
    s, k = model.smoothing, len(model.pair_types)
    never = model.probability("x", "y", ("#", "#", "#", "#"))
    assert never == pytest.approx(s / (s * k))
    assert never > 0.0
    # the floor enters the interned table through each key's smoothed count
    interned = build_context_model(concepts, RunConfig(context_smoothing=s))
    assert_model_matches_oracle(interned, concepts, model)


def test_build_context_model_hand_tally_three_words():
    # unordered pairs within the concept: (ab, ac), (ab, d), (ac, d)
    concepts = {"c": [("a", "b"), ("a", "c"), ("d",)]}
    model = oracles.bf_build_context_model(concepts)
    total_columns = sum(model.marginals.values())
    # ab~ac aligns in 2 columns; ab~d and ac~d each align with one gap
    # column and one substitution column (2 columns each)
    assert total_columns == 6
    ctx0 = (BOUNDARY, BOUNDARY, "b", BOUNDARY)
    assert model.counts[("a", "a", ctx0)] == 1
    # symmetric storage: both orders recorded
    ctx1 = (BOUNDARY, "a", BOUNDARY, BOUNDARY)
    assert model.counts[("b", "c", ctx1)] == model.counts[("c", "b", ctx1)] == 1
    interned = build_context_model(concepts)
    assert sum(len(ids) for row in interned.rows["c"] for _, ids in row) == 6
    assert_model_matches_oracle(interned, concepts, model)


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
    model = oracles.bf_build_context_model(concepts)
    for (a, b, ctx), count in model.counts.items():
        assert count <= model.marginals[ctx]
    # count <= marginal is log P <= 0 in the interned table
    interned = build_context_model(concepts)
    assert all(lp <= 0.0 for lp in interned.logp)
    assert_model_matches_oracle(interned, concepts, model)


def test_alignment_logprob_examples():
    # single column with probability 1: count == marginal and K == 1
    model = oracles.BfContextModel(smoothing=0.1)
    ctx = (BOUNDARY, BOUNDARY, BOUNDARY, BOUNDARY)
    model.observe("a", "a", ctx)
    assert model.probability("a", "a", ctx) == pytest.approx(1.0)
    al = Alignment(pairs=(("a", "a", ctx),))
    assert oracles.bf_alignment_logprob(al.pairs, model) == pytest.approx(0.0)

    # two columns each with probability 0.5 -> -2 ln 2 (natural log)
    model2 = oracles.BfContextModel(smoothing=0.1)
    model2.observe("a", "a", ctx)
    model2.observe("b", "b", ctx)
    assert model2.probability("a", "a", ctx) == pytest.approx(0.5)
    al2 = Alignment(pairs=(("a", "a", ctx), ("a", "a", ctx)))
    assert oracles.bf_alignment_logprob(al2.pairs, model2) == pytest.approx(2 * math.log(0.5))
    assert oracles.bf_alignment_logprob(al2.pairs, model2) == pytest.approx(-1.386, abs=1e-3)

    # attested column scores higher than an unseen one, ceteris paribus
    seen = oracles.bf_alignment_logprob((("a", "a", ctx),), model2)
    unseen = oracles.bf_alignment_logprob((("a", "b", ctx),), model2)
    assert seen > unseen


def test_feature_distance_examples():
    word = ("p", "a")
    assert oracles.bf_feature_distance(align(word, word).pairs) == 0.0
    al = align(("p",), ("b",))
    assert oracles.bf_feature_distance(al.pairs) == pytest.approx(1 / 8)
    # all-gap-vs-symbol columns have maximal distance
    ctx = (BOUNDARY,) * 4
    gappy = Alignment(pairs=((GAP, "a", ctx), ("p", GAP, ctx)))
    assert oracles.bf_feature_distance(gappy.pairs) == 1.0
    # the interned model keeps each pair's mean feature distance
    model = build_context_model({"same": [word, word], "pb": [("p",), ("b",)]})
    assert model.rows["same"][0][0][0] == 0.0
    assert model.rows["pb"][0][0][0] == pytest.approx(1 / 8)


def test_divergence_boundary_weights():
    model = oracles.bf_build_context_model({"c": [("p", "a"), ("b", "a")]})
    x, y = ("p", "a"), ("b", "a")
    al = align(*sorted((x, y)))
    d_feat = oracles.bf_feature_distance(al.pairs)
    logp = oracles.bf_alignment_logprob(al.pairs, model)
    assert oracles.bf_divergence(x, y, model, lam=1.0) == pytest.approx(d_feat)
    assert oracles.bf_divergence(x, y, model, lam=0.0) == pytest.approx(-logp / len(al.pairs))
    mid = oracles.bf_divergence(x, y, model, lam=0.5)
    assert mid == pytest.approx(0.5 * d_feat - 0.5 * logp / len(al.pairs))


def test_divergence_symmetric():
    rng = random.Random(31)
    model = oracles.bf_build_context_model(
        {"c": [("p", "a"), ("b", "a"), ("t", "i", "k")]}
    )
    for _ in range(40):
        x = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 5)))
        y = tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, 5)))
        assert oracles.bf_divergence(x, y, model) == pytest.approx(
            oracles.bf_divergence(y, x, model)
        )


def test_divergence_lambda_validated():
    # the configuration is the one place the divergence weight is checked
    with pytest.raises(ValueError):
        RunConfig(divergence_lambda=1.5)


def test_comparability_endpoints():
    words = [("p", "a"), ("p", "a"), ("z", "d", "u", "x")]
    model = build_context_model({"c": words})
    cs = comparability(model.rows["c"], model)
    assert cs[0] == cs[1] == 0.0
    assert cs[2] == 1.0


def test_comparability_all_identical():
    words = [("p", "a"), ("p", "a"), ("p", "a")]
    model = build_context_model({"c": words})
    assert comparability(model.rows["c"], model) == [0.0, 0.0, 0.0]


def test_comparability_matches_manual_minmax_of_divergences():
    words = [("p", "a"), ("b", "a"), ("t", "i", "k")]
    model = build_context_model({"c": words})
    bf = oracles.bf_build_context_model({"c": words})
    raw = []
    for i, x in enumerate(words):
        ds = [oracles.bf_divergence(x, y, bf) for j, y in enumerate(words) if j != i]
        raw.append(sum(ds) / len(ds))
    lo, hi = min(raw), max(raw)
    expected = [(r - lo) / (hi - lo) for r in raw]
    assert comparability(model.rows["c"], model) == pytest.approx(expected)


def test_comparability_requires_two_words():
    model = build_context_model({"c": [("a",), ("a",)], "single": [("a",)]})
    with pytest.raises(ValueError):
        comparability(model.rows["single"], model)


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
    moved = replace(result, basic_predicted=basic_predicted, predicted=predicted)
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
    st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9, 1.0]),
    st.sampled_from([0.3, 0.5, 1.0]),
    st.sampled_from([0.1, 1.0]),
)
# (1 - lam) * log P / L and (1 - lam) * (log P / L) differ in the last bit here
@example(
    [[("aaa", ("p",))], [("aaa", ("p", "p")), ("aaa", ("p", "p", "b")), ("bbb", ("p",))]],
    0.3,
    0.3,
    0.1,
)
def test_detect_scaled_comparability_matches_two_alignment_oracle(
    concepts, lam, gap, smoothing
):
    first_word = concepts[0][0][1]
    concepts = concepts + [
        concepts[0],  # the same pairs again under another concept
        [("aaa", first_word), ("bbb", first_word)],  # one word in two languages
        [("aaa", first_word)],  # one word: no pair
        [("bbb", first_word), ("bbb", first_word + ("a",))],  # counted, but gets no C
    ]
    vocab = concept_wordlist(concepts)
    cfg = RunConfig(
        divergence_lambda=lam, gap_penalty=gap, context_smoothing=smoothing, max_iterations=1
    )
    members: dict[str, list[int]] = {}
    for i, entry in enumerate(vocab):
        members.setdefault(entry.concept_id, []).append(i)
    alignable = {
        c: [vocab.entries[i].ipa for i in idxs] for c, idxs in members.items() if len(idxs) >= 2
    }
    bf = oracles.bf_build_context_model(alignable, gap, smoothing)
    expected = [None] * len(vocab)
    fallback = []
    for c, idxs in members.items():
        if len({vocab.entries[i].language for i in idxs}) >= 2:
            for i, value in zip(idxs, oracles.bf_comparability(alignable[c], bf, lam, gap)):
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
    vocab = Wordlist(list(vocab) + [replace(e, language="third") for e in first])
    detect_scaled(vocab, RunConfig())

    words: dict[str, list[tuple[str, ...]]] = {}
    for entry in vocab:
        words.setdefault(entry.concept_id, []).append(entry.ipa)
    expected, occurrences = Counter(), 0
    for ws in words.values():
        pairs = [
            tuple(sorted((ws[i], ws[j]))) for i in range(len(ws)) for j in range(i + 1, len(ws))
        ]
        occurrences += len(pairs)
        expected.update(set(pairs))
    assert sum(expected.values()) < occurrences
    assert calls == expected


def test_build_context_model_counts_a_repeated_pair_at_every_occurrence(monkeypatch):
    calls = Counter()
    real_align = crossling.align
    monkeypatch.setattr(
        crossling, "align", lambda x, y, *a: calls.update([(x, y)]) or real_align(x, y, *a)
    )
    ab, ac = ("a", "b"), ("a", "c")
    concepts = {"c": [ac, ab, ab, ac], "d": [ab, ac]}
    model = build_context_model(concepts)
    # each distinct sorted pair is aligned once per concept
    assert calls == {(ab, ac): 2, (ab, ab): 1, (ac, ac): 1}
    assert_model_matches_oracle(model, concepts, oracles.bf_build_context_model(concepts))
