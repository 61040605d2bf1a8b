"""Feature extraction tests, checked against the brute-force oracles."""

import random

import pytest

from loandetect.features import (
    CompiledGroup,
    EmptyReferenceError,
    FeatureParams,
    avg_transition_prob,
    build_statistics,
    char_dist_anomaly,
    cluster_score,
    cv_anomaly,
    extract,
    extract_all,
    feature_names,
    length_z,
    ngram_entropy,
    rare_ngram_score,
    rare_transition_score,
    transition_entropy,
    vowel_ratio,
    word_ngrams,
)

import oracles

SYMBOLS = ["p", "t", "k", "m", "n", "s", "a", "i", "u", "e"]


def random_vocab(rng, max_words=20, max_len=8):
    count = rng.randint(1, max_words)
    return [
        tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


def test_build_statistics_single_word():
    stats = build_statistics([("a", "b")])
    assert stats.trans_prob[("a", "b")] == 1.0
    assert stats.ngram_prob[("a", "b")] == 1.0
    assert stats.length_mean == 2.0
    assert stats.length_std == 1.0  # degenerate substitution


def test_build_statistics_symmetric_transitions():
    stats = build_statistics([("a", "b"), ("a", "c")])
    assert stats.trans_prob[("a", "b")] == pytest.approx(0.5)
    assert stats.trans_prob[("a", "c")] == pytest.approx(0.5)


def test_build_statistics_empty_reference():
    with pytest.raises(EmptyReferenceError):
        build_statistics([])


def test_build_statistics_probabilities_normalize_per_length():
    rng = random.Random(7)
    words = [tuple(rng.choice(SYMBOLS) for _ in range(5)) for _ in range(10)]
    stats = build_statistics(words)
    by_len = {}
    for g, p in stats.ngram_prob.items():
        by_len[len(g)] = by_len.get(len(g), 0.0) + p
    for total in by_len.values():
        assert total == pytest.approx(1.0, abs=1e-9)
    outgoing = {}
    for (a, _), p in stats.trans_prob.items():
        outgoing[a] = outgoing.get(a, 0.0) + p
    for total in outgoing.values():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_build_statistics_matches_bruteforce():
    rng = random.Random(13)
    words = [tuple(rng.choice(SYMBOLS) for _ in range(5)) for _ in range(10)]
    stats = build_statistics(words)
    assert dict(stats.ngram_count) == oracles.bf_ngram_counts(words)
    probs = oracles.bf_ngram_probs(words)
    assert set(stats.ngram_prob) == set(probs)
    for g, p in probs.items():
        assert stats.ngram_prob[g] == pytest.approx(p, abs=1e-12)
    trans = oracles.bf_transition_probs(words)
    assert set(stats.trans_prob) == set(trans)
    for t, p in trans.items():
        assert stats.trans_prob[t] == pytest.approx(p, abs=1e-12)
    mean, std = oracles.bf_length_stats(words)
    assert stats.length_mean == pytest.approx(mean)
    assert stats.length_std == pytest.approx(std)


def test_rare_ngram_score_no_rare_components():
    stats = build_statistics([("a", "b")])  # p([a,b]) = 1
    assert rare_ngram_score(("a", "b"), stats) == 0.0


def test_rare_ngram_score_unseen_bigram():
    # single unseen bigram: contribution c1 * eps1 = 100 * 0.005 = 0.5
    stats = build_statistics([("a", "b")])
    assert rare_ngram_score(("x", "y"), stats) == pytest.approx(0.5)


def test_rare_ngram_score_two_tier_hand_case():
    # |G(w)| = 2: one n-gram in the second tier at p = 0.01 -> 20*(0.02-0.01),
    # one common -> 0; mean = 0.1
    class FakeStats:
        ngram_prob = {("a", "b"): 0.01, ("b", "c"): 0.5}

    score = rare_ngram_score(("a", "b", "c"), FakeStats(), ngram_max=2)
    assert score == pytest.approx(0.1)


def test_rare_ngram_score_requires_ordered_thresholds():
    stats = build_statistics([("a", "b")])
    with pytest.raises(ValueError):
        rare_ngram_score(("a", "b"), stats, eps1=0.5, eps2=0.1)


def test_short_word_scores_zero():
    stats = build_statistics([("a", "b")])
    assert rare_ngram_score(("a",), stats) == 0.0
    assert ngram_entropy(("a",), stats) == 0.0
    assert rare_transition_score(("a",), stats) == 0.0
    assert transition_entropy(("a",), stats) == 0.0
    assert avg_transition_prob(("a",), stats) == 0.0


def test_ngram_entropy_certainty():
    stats = build_statistics([("a", "b")])
    assert ngram_entropy(("a", "b"), stats) == 0.0


def test_ngram_entropy_fair_coin():
    # two bigrams each with global p = 0.5 -> 1 bit
    stats = build_statistics([("a", "b"), ("b", "a")])
    assert ngram_entropy(("a", "b", "a"), stats, ngram_max=2) == pytest.approx(1.0)


def test_rare_transition_examples():
    class FakeStats:
        trans_prob = {("a", "b"): 0.005, ("b", "c"): 0.03, ("c", "d"): 0.10}

    # one transition at p=0.005 -> 100*(0.01-0.005) = 0.5
    assert rare_transition_score(("a", "b"), FakeStats()) == pytest.approx(0.5)
    # p=0.03 and p=0.10 -> (20*(0.05-0.03) + 0)/2 = 0.2
    assert rare_transition_score(("b", "c", "d"), FakeStats()) == pytest.approx(0.2)


def test_transition_entropy_examples():
    class FakeStats:
        trans_prob = {("a", "b"): 1.0, ("b", "c"): 0.5, ("c", "d"): 0.5}

    assert transition_entropy(("a", "b"), FakeStats()) == 0.0
    assert transition_entropy(("b", "c", "d"), FakeStats()) == pytest.approx(1.0)


def test_avg_transition_prob_examples():
    stats = build_statistics([("a", "b")])
    assert avg_transition_prob(("a", "b"), stats) == 1.0

    class FakeStats:
        trans_prob = {("a", "b"): 0.2, ("b", "c"): 0.4}

    assert avg_transition_prob(("a", "b", "c"), FakeStats()) == pytest.approx(0.3)
    # unseen transition contributes 0 to the mean
    assert avg_transition_prob(("a", "b", "x"), FakeStats()) == pytest.approx(0.1)


def test_length_z_examples():
    stats = build_statistics([("a",) * 3, ("a",) * 7])  # mean 5, std 2
    assert stats.length_mean == 5.0
    assert stats.length_std == 2.0
    assert length_z(("a",) * 5, stats) == 0.0
    assert length_z(("a",) * 9, stats) == pytest.approx(2.0)


def test_length_z_degenerate_single_word():
    stats = build_statistics([("a", "b")])
    assert length_z(("a", "b"), stats) == 0.0


def test_feature_oracle_equivalence_random_vocabularies():
    rng = random.Random(42)
    params = FeatureParams()
    for _ in range(40):
        vocab = random_vocab(rng)
        stats = build_statistics(vocab)
        probs = oracles.bf_ngram_probs(vocab)
        trans = oracles.bf_transition_probs(vocab)
        for w in vocab:
            assert rare_ngram_score(w, stats) == pytest.approx(
                oracles.bf_rare_ngram_score(w, probs, 0.005, 0.02, 100.0, 20.0),
                abs=1e-9,
            )
            assert ngram_entropy(w, stats) == pytest.approx(
                oracles.bf_ngram_entropy(w, probs), abs=1e-9
            )
            assert rare_transition_score(w, stats) == pytest.approx(
                oracles.bf_rare_transition_score(w, trans), abs=1e-9
            )
            assert transition_entropy(w, stats) == pytest.approx(
                oracles.bf_transition_entropy(w, trans), abs=1e-9
            )
            assert avg_transition_prob(w, stats) == pytest.approx(
                oracles.bf_avg_transition_prob(w, trans), abs=1e-9
            )


def test_features_scale_free_under_duplication():
    rng = random.Random(3)
    vocab = random_vocab(rng, max_words=10)
    stats_once = build_statistics(vocab)
    stats_twice = build_statistics(vocab + vocab)
    for w in vocab:
        a = extract(w, stats_once)
        b = extract(w, stats_twice)
        assert set(a) == set(b)
        for name in a:
            assert a[name] == pytest.approx(b[name], abs=1e-12)


def test_rare_scores_monotone_under_small_perturbation():
    # The two-tier penalty is non-increasing in p within each tier (the
    # printed formula jumps at the tier boundary itself, so perturbations
    # are checked inside branches).
    class FakeStats:
        def __init__(self, p):
            self.ngram_prob = {("a", "b"): p}
            self.trans_prob = {("a", "b"): p}

    for base in (0.0, 0.002, 0.0045, 0.006, 0.015, 0.019):
        lo = rare_ngram_score(("a", "b"), FakeStats(base), ngram_max=2)
        hi = rare_ngram_score(("a", "b"), FakeStats(base + 4e-4), ngram_max=2)
        assert hi <= lo
    for base in (0.0, 0.005, 0.009, 0.012, 0.03, 0.045, 0.08):
        lo = rare_transition_score(("a", "b"), FakeStats(base))
        hi = rare_transition_score(("a", "b"), FakeStats(base + 9e-4))
        assert hi <= lo


def test_extract_mode_contracts():
    stats = build_statistics([("p", "a"), ("t", "a", "k", "a")])
    word = ("p", "a", "t", "a")
    assert set(extract(word, stats, "full")) == set(feature_names("full"))
    no_ngram = extract(word, stats, "no_ngram")
    assert "rare_ngram_score" not in no_ngram and "ngram_entropy" not in no_ngram
    no_trans = extract(word, stats, "no_transition")
    for name in ("rare_transition_score", "trans_entropy", "avg_trans_prob"):
        assert name not in no_trans
    aug = extract(word, stats, "aug")
    assert set(aug) == set(feature_names("aug"))
    with pytest.raises(ValueError):
        extract(word, stats, "bogus")


def test_aug_segmental_hand_counts():
    stats = build_statistics([("p", "a"), ("t", "a", "k", "a")])
    word = ("s", "t", "r", "a")
    assert cluster_score(word) == pytest.approx((3 - 1) / 4)
    assert vowel_ratio(word) == pytest.approx(0.25)
    aug = extract(word, stats, "aug")
    assert aug["cluster_score"] == pytest.approx(0.5)
    assert aug["vowel_ratio"] == pytest.approx(0.25)


def test_cluster_score_vowel_only_floor():
    assert cluster_score(("a", "i")) == 0.0


def test_extract_deterministic():
    stats = build_statistics([("p", "a"), ("t", "a")])
    w = ("p", "a", "t", "a")
    assert extract(w, stats) == extract(w, stats)


def test_word_ngrams_range():
    grams = word_ngrams(("a", "b", "c"))
    assert grams == [("a", "b"), ("b", "c"), ("a", "b", "c")]
    assert word_ngrams(("a",)) == []


def test_compiled_subset_statistics_equal_bruteforce_exactly():
    rng = random.Random(2024)
    for _ in range(60):
        vocab = list(dict.fromkeys(random_vocab(rng, max_words=25, max_len=9)))
        group = CompiledGroup(vocab)
        rows = sorted(rng.sample(range(len(vocab)), rng.randint(1, len(vocab))))
        reference = [vocab[i] for i in rows]
        stats = build_statistics(group.subset(rows))
        assert stats.word_count == len(rows)
        assert dict(stats.ngram_count) == oracles.bf_ngram_counts(reference)
        assert dict(stats.ngram_prob) == oracles.bf_ngram_probs(reference)
        assert dict(stats.trans_prob) == oracles.bf_transition_probs(reference)
        assert (stats.length_mean, stats.length_std) == oracles.bf_length_stats(reference)
        # every id outside the reference reads probability 0
        grams = group.gram_tuples()
        for g, p in enumerate(stats.ngram_probs):
            assert p == stats.ngram_prob.get(grams[g], 0.0)
        for t, p in enumerate(stats.trans_probs):
            assert p == stats.trans_prob.get(group.transitions[t], 0.0)


def test_compiled_extract_all_matches_bruteforce_features():
    rng = random.Random(77)
    params = FeatureParams()
    for _ in range(40):
        vocab = list(dict.fromkeys(random_vocab(rng, max_words=25, max_len=9)))
        group = CompiledGroup(vocab)
        rows = sorted(rng.sample(range(len(vocab)), rng.randint(1, len(vocab))))
        reference = [vocab[i] for i in rows]
        stats = build_statistics(group.subset(rows))
        probs = oracles.bf_ngram_probs(reference)
        trans = oracles.bf_transition_probs(reference)
        mean, std = oracles.bf_length_stats(reference)
        vectors = extract_all(group, stats, "aug", params)
        assert vectors == extract_all(vocab, stats, "aug", params)
        for w, vec in zip(vocab, vectors):
            assert list(vec) == list(feature_names("aug"))
            assert vec["rare_ngram_score"] == pytest.approx(
                oracles.bf_rare_ngram_score(w, probs, 0.005, 0.02, 100.0, 20.0), abs=1e-12
            )
            assert vec["ngram_entropy"] == pytest.approx(
                oracles.bf_ngram_entropy(w, probs), abs=1e-9
            )
            assert vec["rare_transition_score"] == pytest.approx(
                oracles.bf_rare_transition_score(w, trans), abs=1e-12
            )
            assert vec["trans_entropy"] == pytest.approx(
                oracles.bf_transition_entropy(w, trans), abs=1e-9
            )
            assert vec["avg_trans_prob"] == pytest.approx(
                oracles.bf_avg_transition_prob(w, trans), abs=1e-12
            )
            assert vec["len_z"] == pytest.approx((len(w) - mean) / std, abs=1e-12)
            # the per-word functions share the kernels with extract_all
            assert vec["rare_ngram_score"] == rare_ngram_score(w, stats)
            assert vec["ngram_entropy"] == ngram_entropy(w, stats)
            assert vec["rare_transition_score"] == rare_transition_score(w, stats)
            assert vec["trans_entropy"] == transition_entropy(w, stats)
            assert vec["avg_trans_prob"] == avg_transition_prob(w, stats)
            assert vec["cv_anomaly"] == cv_anomaly(w, stats)
            assert vec["char_dist_anomaly"] == char_dist_anomaly(w, stats)
            assert vec["cluster_score"] == cluster_score(w)
            assert vec["vowel_ratio"] == vowel_ratio(w)


def test_compiled_group_rejects_other_ngram_range():
    group = CompiledGroup([("a", "b", "c")])
    with pytest.raises(ValueError):
        build_statistics(group, ngram_max=3)
    stats = build_statistics(group)
    with pytest.raises(ValueError):
        extract_all(group, stats, params=FeatureParams(ngram_max=3))
