"""Feature extraction tests, checked against the brute-force oracles."""

import math
import random
from array import array
from collections import Counter
from itertools import repeat

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from loandetect.config import RunConfig
from loandetect.evaluation import generate_synthetic
from loandetect.features import (
    CORE_FEATURES,
    MODES,
    CompiledGroup,
    EmptyReferenceError,
    _cluster,
    _rarity_surprisal,
    _terms,
    _vowel_ratio,
    build_statistics,
    extract_all,
    feature_names,
    surprisal_floor,
    word_ngrams,
)
from loandetect.ipa import FEATURES, cv_pattern
from loandetect.wordlist import normalize_ipa

import oracles
from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR, extract_against, ngram_count

SYMBOLS = ["p", "t", "k", "m", "n", "s", "a", "i", "u", "e"]
VOWELS = {"a", "i", "u", "e"}


def statistics(words):
    return build_statistics(CompiledGroup(words))


def feature(reference, word, name, cfg=None):
    """One feature of one word against ``reference``, through the only feature path."""
    return extract_against(reference, [word], cfg)[name][0]


def kernel(word_ids, probs, floor, eps1, eps2, c1, c2):
    """The columns ``_rarity_surprisal`` gives words whose ids all read one
    table of ``probs``, with one ``floor`` for every id."""
    log_floors = repeat(math.log2(floor))
    return _rarity_surprisal(word_ids, repeat(_terms(probs, log_floors, eps1, eps2, c1, c2)))


def rarity(probs, eps1, eps2, c1, c2):
    """The rarity the kernel gives one word whose ids read ``probs`` in order."""
    return kernel([range(len(probs))], probs, 0.5, eps1, eps2, c1, c2)[0][0]


def surprisal(probs, floor=0.5):
    """The surprisal the kernel gives one word whose ids read ``probs`` in order."""
    return kernel([range(len(probs))], probs, floor, 0.0, 0.0, 0.0, 0.0)[1][0]


def random_vocab(rng, max_words=20, max_len=8):
    count = rng.randint(1, max_words)
    return [
        tuple(rng.choice(SYMBOLS) for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


def test_build_statistics_single_word():
    stats = statistics([("a", "b")])
    assert stats.trans_prob[("a", "b")] == 1.0
    assert stats.ngram_prob[("a", "b")] == 1.0
    assert stats.length_mean == 2.0
    assert stats.length_std == 1.0  # degenerate substitution


def test_build_statistics_symmetric_transitions():
    stats = statistics([("a", "b"), ("a", "c")])
    assert stats.trans_prob[("a", "b")] == pytest.approx(0.5)
    assert stats.trans_prob[("a", "c")] == pytest.approx(0.5)


def test_build_statistics_empty_reference():
    with pytest.raises(EmptyReferenceError):
        statistics([])


def test_build_statistics_probabilities_normalize_per_length():
    rng = random.Random(7)
    words = [tuple(rng.choice(SYMBOLS) for _ in range(5)) for _ in range(10)]
    stats = statistics(words)
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
    stats = statistics(words)
    assert ngram_count(stats) == oracles.bf_ngram_counts(words)
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
    # p([a,b]) = 1
    assert feature([("a", "b")], ("a", "b"), "rare_ngram_score") == 0.0


def test_rare_ngram_score_unseen_bigram():
    # single unseen bigram: contribution c1 * eps1 = 100 * 0.005 = 0.5
    assert feature([("a", "b")], ("x", "y"), "rare_ngram_score") == pytest.approx(0.5)


def test_rare_ngram_score_two_tier_hand_case():
    # |G(w)| = 2: one n-gram in the second tier at p = 0.01 -> 20*(0.02-0.01),
    # one common -> 0; mean = 0.1 (the bigrams [a, b] and [b, c] of "abc")
    score = rarity([0.01, 0.5], 0.005, 0.02, 100.0, 20.0)
    assert score == pytest.approx(0.1)


def test_rare_ngram_score_requires_ordered_thresholds():
    with pytest.raises(ValueError):
        RunConfig(rare_ngram_eps1=0.5, rare_ngram_eps2=0.1)


def test_short_word_scores_zero():
    columns = extract_against([("a", "b")], [("a",)], RunConfig())
    assert columns["rare_ngram_score"] == [0.0]
    assert columns["ngram_surprisal"] == [0.0]
    assert columns["rare_transition_score"] == [0.0]
    assert columns["trans_surprisal"] == [0.0]
    assert columns["avg_trans_prob"] == [0.0]


def test_ngram_surprisal_certainty():
    assert feature([("a", "b")], ("a", "b"), "ngram_surprisal") == 0.0


def test_ngram_surprisal_fair_coin():
    # two bigrams each with global p = 0.5 -> 1 bit each, 1 bit on average
    reference = [("a", "b"), ("b", "a")]
    cfg = RunConfig(ngram_max=2)
    assert feature(reference, ("a", "b", "a"), "ngram_surprisal", cfg) == 1.0


def test_surprisal_floor_is_half_a_count():
    assert surprisal_floor(4) == 0.125
    assert surprisal_floor(1) == 0.5
    # a reference without n-grams of a length floors them as one n-gram would
    assert surprisal_floor(0) == 0.5


def test_surprisal_floor_when_the_reference_has_no_ngram_of_a_length():
    # T_2 = 1 and T_3 = 0: ab is seen (0 bits), bc is unseen at 0.5 / 1 (1 bit)
    # and abc is unseen with no trigram in the reference, at 0.5 (1 bit)
    cfg = RunConfig(ngram_max=3)
    assert feature([("a", "b")], ("a", "b", "c"), "ngram_surprisal", cfg) == 2 / 3
    # so is every n-gram longer than the reference's longest word
    assert feature([("a", "b")], ("c", "d", "e", "f"), "ngram_surprisal", cfg) == 1.0


def test_one_symbol_word_has_no_surprisal():
    for name in ("ngram_surprisal", "trans_surprisal"):
        assert feature([("a", "b")], ("c",), name) == 0.0
        assert feature([("a",)], ("a",), name) == 0.0


def test_a_word_of_unseen_ngrams_takes_the_floor_of_each_length():
    reference = [("a", "b", "a"), ("b", "a", "b")]
    cfg = RunConfig(ngram_max=3)
    # T_2 = 4 and T_3 = 2: cd and de at 0.5 / 4 (3 bits), cde at 0.5 / 2 (2 bits)
    assert feature(reference, ("c", "d", "e"), "ngram_surprisal", cfg) == 8 / 3
    # the reference's 4 transitions: cd and de at 0.5 / 4 (3 bits)
    assert feature(reference, ("c", "d", "e"), "trans_surprisal", cfg) == 3.0
    # the floor is below every seen probability, so no seen word scores as high
    seen = extract_against(reference, reference, cfg)
    assert max(seen["ngram_surprisal"]) < 8 / 3
    assert max(seen["trans_surprisal"]) < 3.0


def test_rare_transition_examples():
    # one transition at p=0.005 -> 100*(0.01-0.005) = 0.5
    assert rarity([0.005], 0.01, 0.05, 100.0, 20.0) == pytest.approx(0.5)
    # p=0.03 and p=0.10 -> (20*(0.05-0.03) + 0)/2 = 0.2
    assert rarity([0.03, 0.10], 0.01, 0.05, 100.0, 20.0) == pytest.approx(0.2)


def test_transition_surprisal_examples():
    assert surprisal([1.0]) == 0.0
    assert surprisal([0.5, 0.5]) == 1.0
    # an unseen id takes the floor: (2 + 3) / 2 bits
    assert surprisal([0.25, 0.0], floor=0.125) == 2.5


def test_avg_transition_prob_examples():
    assert feature([("a", "b")], ("a", "b"), "avg_trans_prob") == 1.0
    # p(a -> b) = 1/5 and p(b -> c) = 2/5: the mean of 0.2 and 0.4
    reference = [("a", s) for s in "bdefg"] + [("b", s) for s in "ccdef"]
    assert feature(reference, ("a", "b", "c"), "avg_trans_prob") == pytest.approx(0.3)
    # unseen transition contributes 0 to the mean
    assert feature(reference, ("a", "b", "q"), "avg_trans_prob") == pytest.approx(0.1)


def test_length_z_examples():
    reference = [("a",) * 3, ("a",) * 7]
    stats = statistics(reference)  # mean 5, std 2
    assert stats.length_mean == 5.0
    assert stats.length_std == 2.0
    assert feature(reference, ("a",) * 5, "len_z") == 0.0
    assert feature(reference, ("a",) * 9, "len_z") == pytest.approx(2.0)


def test_length_z_degenerate_single_word():
    assert feature([("a", "b")], ("a", "b"), "len_z") == 0.0


def test_feature_oracle_equivalence_random_vocabularies():
    rng = random.Random(42)
    cfg = RunConfig()
    for _ in range(40):
        vocab = random_vocab(rng)
        probs = oracles.bf_ngram_probs(vocab)
        trans = oracles.bf_transition_probs(vocab)
        totals = oracles.bf_ngram_totals(vocab)
        n_transitions = oracles.bf_transition_total(vocab)
        columns = extract_against(vocab, vocab, cfg)
        for i, w in enumerate(vocab):
            assert columns["rare_ngram_score"][i] == pytest.approx(
                oracles.bf_rare_ngram_score(w, probs, 0.005, 0.02, 100.0, 20.0),
                abs=1e-9,
            )
            assert columns["ngram_surprisal"][i] == pytest.approx(
                oracles.bf_ngram_surprisal(w, probs, totals), abs=1e-9
            )
            assert columns["rare_transition_score"][i] == pytest.approx(
                oracles.bf_rare_transition_score(w, trans), abs=1e-9
            )
            assert columns["trans_surprisal"][i] == pytest.approx(
                oracles.bf_transition_surprisal(w, trans, n_transitions), abs=1e-9
            )
            assert columns["avg_trans_prob"][i] == pytest.approx(
                oracles.bf_avg_transition_prob(w, trans), abs=1e-9
            )


def test_features_scale_free_under_duplication():
    rng = random.Random(3)
    vocab = random_vocab(rng, max_words=10)
    once = extract_against(vocab, vocab)
    twice = extract_against(vocab + vocab, vocab)
    assert list(once) == list(twice)
    for name in once:
        assert once[name] == pytest.approx(twice[name], abs=1e-12)


def test_rare_scores_monotone_under_small_perturbation():
    # The two-tier penalty is non-increasing in p within each tier (the
    # printed formula jumps at the tier boundary itself, so perturbations
    # are checked inside branches).
    # one n-gram or transition of probability p, at the default tiers
    for base in (0.0, 0.002, 0.0045, 0.006, 0.015, 0.019):
        lo = rarity([base], 0.005, 0.02, 100.0, 20.0)
        hi = rarity([base + 4e-4], 0.005, 0.02, 100.0, 20.0)
        assert hi <= lo
    for base in (0.0, 0.005, 0.009, 0.012, 0.03, 0.045, 0.08):
        lo = rarity([base], 0.01, 0.05, 100.0, 20.0)
        hi = rarity([base + 9e-4], 0.01, 0.05, 100.0, 20.0)
        assert hi <= lo


UNIT = st.floats(0.0, 1.0)


@st.composite
def tiers(draw):
    """eps1 < eps2 in [0, 1] and two constants c1, c2."""
    eps = sorted(draw(st.lists(UNIT, min_size=2, max_size=2, unique=True)))
    return (*eps, draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, 1e3)))


@st.composite
def tiered_configs(draw, modes=MODES):
    """A config of one of ``modes`` with drawn rarity tiers and n-gram range."""
    ngram_eps, trans_eps = draw(tiers()), draw(tiers())
    ngram_min = draw(st.integers(1, 3))
    return RunConfig(
        mode=draw(st.sampled_from(modes)),
        ngram_min=ngram_min,
        ngram_max=draw(st.integers(ngram_min, ngram_min + 6)),
        **dict(zip(("rare_ngram_eps1", "rare_ngram_eps2", "rare_ngram_c1", "rare_ngram_c2"),
                   ngram_eps)),
        **dict(zip(("rare_trans_eps1", "rare_trans_eps2", "rare_trans_c1", "rare_trans_c2"),
                   trans_eps)),
    )


@st.composite
def extraction_cases(draw):
    """A config, words with at least one of length 1, reference rows and probed rows."""
    cfg = draw(tiered_configs())
    word = st.lists(st.sampled_from(SYMBOLS[:5]), min_size=1, max_size=8).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=12)) + [("a",)]
    row = st.integers(0, len(words) - 1)
    reference = sorted(draw(st.lists(row, min_size=1, unique=True)))
    probed = draw(st.lists(row, max_size=len(words) + 2)) + [len(words) - 1]
    return cfg, words, reference, probed


@settings(max_examples=150, deadline=None)
@given(extraction_cases())
def test_extract_all_equals_per_word_references(case):
    # words outside the reference rows read probability 0 for many of their ids
    cfg, words, reference, probed = case
    group = CompiledGroup(words, cfg.ngram_min, cfg.ngram_max)
    stats = build_statistics(group, reference)
    columns = extract_all(stats, cfg)
    assert list(columns) == list(feature_names(cfg.mode))
    for r in probed:
        word_grams = oracles.bf_word_ngrams(words[r], cfg.ngram_min, cfg.ngram_max)
        grams = [stats.ngram_prob.get(g, 0.0) for g in word_grams]
        trans = [stats.trans_probs[t] for t in group.word_trans[r]]
        reference_words = [words[i] for i in reference]
        totals = oracles.bf_ngram_totals(reference_words, cfg.ngram_min, cfg.ngram_max)
        gram_floors = [oracles.bf_floor(totals.get(len(g), 0)) for g in word_grams]
        trans_floors = [oracles.bf_floor(oracles.bf_transition_total(reference_words))] * len(trans)
        expected = {
            "rare_ngram_score": oracles.bf_rarity(
                grams, cfg.rare_ngram_eps1, cfg.rare_ngram_eps2,
                cfg.rare_ngram_c1, cfg.rare_ngram_c2,
            ),
            "ngram_surprisal": oracles.bf_surprisal(grams, gram_floors),
            "rare_transition_score": oracles.bf_rarity(
                trans, cfg.rare_trans_eps1, cfg.rare_trans_eps2,
                cfg.rare_trans_c1, cfg.rare_trans_c2,
            ),
            "trans_surprisal": oracles.bf_surprisal(trans, trans_floors),
            "avg_trans_prob": oracles.bf_mean(trans),
            "len_z": (len(words[r]) - stats.length_mean) / stats.length_std,
        }
        for name, value in expected.items():
            if name in columns:
                assert columns[name][r] == value, name


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rarity_surprisal_equals_per_word_references(data):
    eps1, eps2, c1, c2 = data.draw(tiers())
    probs = data.draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, eps1, eps2]), UNIT)))
    # the floor is below every probability but 0, as a reference's is
    floor = min([p for p in probs if p > 0.0], default=1.0) * data.draw(
        st.floats(0.01, 1.0, exclude_max=True)
    )
    assume(floor > 0.0)
    ids = st.lists(st.integers(0, len(probs) - 1), max_size=12) if probs else st.just([])
    word_ids = [array("i", r) for r in data.draw(st.lists(ids, min_size=1, max_size=6))]
    rows = data.draw(st.lists(st.integers(0, len(word_ids) - 1), max_size=8))
    rarities, surprisals = kernel(
        [word_ids[r] for r in rows], probs, floor, eps1, eps2, c1, c2
    )
    expected = [[probs[i] for i in word_ids[r]] for r in rows]
    assert rarities == [oracles.bf_rarity(p, eps1, eps2, c1, c2) for p in expected]
    assert surprisals == [oracles.bf_surprisal(p, [floor] * len(p)) for p in expected]


def test_extract_mode_contracts():
    reference = [("p", "a"), ("t", "a", "k", "a")]
    word = ("p", "a", "t", "a")

    def extract(mode):
        return extract_against(reference, [word], RunConfig(mode=mode))

    assert list(extract("full")) == list(feature_names("full"))
    no_ngram = extract("no_ngram")
    assert "rare_ngram_score" not in no_ngram and "ngram_surprisal" not in no_ngram
    no_trans = extract("no_transition")
    for name in ("rare_transition_score", "trans_surprisal", "avg_trans_prob"):
        assert name not in no_trans
    aug = extract("aug")
    assert list(aug) == list(feature_names("aug"))
    with pytest.raises(ValueError):
        extract("bogus")


def test_aug_segmental_hand_counts():
    reference = [("p", "a"), ("t", "a", "k", "a")]
    word = ("s", "t", "r", "a")
    assert _cluster(cv_pattern(word)) == pytest.approx((3 - 1) / 4)
    assert _vowel_ratio(cv_pattern(word)) == pytest.approx(0.25)
    aug = extract_against(reference, [word], RunConfig(mode="aug"))
    assert aug["cluster_score"] == [pytest.approx(0.5)]
    assert aug["vowel_ratio"] == [pytest.approx(0.25)]


def test_cluster_score_vowel_only_floor():
    assert _cluster(cv_pattern(("a", "i"))) == 0.0


def test_extract_deterministic():
    reference = [("p", "a"), ("t", "a")]
    w = ("p", "a", "t", "a")
    assert extract_against(reference, [w], RunConfig()) == extract_against(
        reference, [w], RunConfig()
    )


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
        stats = build_statistics(group, rows)
        assert len(stats.rows) == len(rows)
        assert ngram_count(stats) == oracles.bf_ngram_counts(reference)
        assert dict(stats.ngram_prob) == oracles.bf_ngram_probs(reference)
        assert dict(stats.trans_prob) == oracles.bf_transition_probs(reference)
        assert (stats.length_mean, stats.length_std) == oracles.bf_length_stats(reference)
        # every n-gram outside the reference reads probability 0: a shared
        # id's probability, and a slot's in a reference row, is its n-gram's
        probs = stats.gram_probs()
        for w, member, folded in zip(vocab, stats.members, group.word_folded):
            for g, f in zip(word_ngrams(w), folded):
                p = probs[f] if f < group.shared or member else 0.0
                assert p == stats.ngram_prob.get(g, 0.0)
        for t, p in enumerate(stats.trans_probs):
            assert p == stats.trans_prob.get(group.transitions[t], 0.0)


@st.composite
def refinement_passes(draw):
    """A config, words and the reference rows of successive passes: every
    row, a shrinking chain of subsets, its last set again, random sets, and
    every row again."""
    cfg = draw(tiered_configs(("full",)))
    word = st.lists(st.sampled_from(SYMBOLS[:4]), min_size=1, max_size=8).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=12))
    every = list(range(len(words)))
    passes = [every]
    while len(passes[-1]) > 1 and draw(st.booleans()):
        fewer = st.sets(st.sampled_from(passes[-1]), min_size=1, max_size=len(passes[-1]) - 1)
        passes.append(sorted(draw(fewer)))
    passes.append(passes[-1])
    passes += draw(st.lists(st.lists(st.sampled_from(every), min_size=1, unique=True),
                            max_size=3))
    return cfg, words, passes + [every]


@settings(max_examples=150, deadline=None)
@given(refinement_passes())
@example((RunConfig(ngram_min=1, ngram_max=3), [("p", "a", "p")], [[0], [0], [0]]))
def test_statistics_built_from_the_last_pass_equal_a_build_from_nothing(case):
    cfg, words, passes = case
    nmin, nmax = cfg.ngram_min, cfg.ngram_max
    group = CompiledGroup(words, nmin, nmax)
    built, previous = [], None
    for rows in passes:
        stats = build_statistics(group, rows, previous)
        fresh = build_statistics(group, rows)
        assert stats.gram_counts == fresh.gram_counts
        assert stats.gram_probs() == fresh.gram_probs()
        assert stats.trans_counts == fresh.trans_counts
        assert stats.trans_probs == fresh.trans_probs
        assert ngram_count(stats) == ngram_count(fresh)
        assert stats.ngram_prob == fresh.ngram_prob
        reference = [words[r] for r in rows]
        grams = oracles.bf_ngram_probs(reference, nmin, nmax)
        trans = oracles.bf_transition_probs(reference)
        assert ngram_count(stats) == oracles.bf_ngram_counts(reference, nmin, nmax)
        assert dict(stats.ngram_prob) == grams
        assert dict(stats.trans_prob) == trans
        columns = extract_all(stats, cfg)
        assert columns == extract_all(fresh, cfg)
        totals = oracles.bf_ngram_totals(reference, nmin, nmax)
        trans_floor = oracles.bf_floor(oracles.bf_transition_total(reference))
        for w, *values in zip(words, *(columns[name] for name in CORE_FEATURES[:5])):
            word_grams = oracles.bf_word_ngrams(w, nmin, nmax)
            g = [grams.get(x, 0.0) for x in word_grams]
            t = [trans.get(x, 0.0) for x in zip(w, w[1:])]
            assert values == [
                oracles.bf_rarity(g, cfg.rare_ngram_eps1, cfg.rare_ngram_eps2,
                                  cfg.rare_ngram_c1, cfg.rare_ngram_c2),
                oracles.bf_surprisal(
                    g, [oracles.bf_floor(totals.get(len(x), 0)) for x in word_grams]
                ),
                oracles.bf_rarity(t, cfg.rare_trans_eps1, cfg.rare_trans_eps2,
                                  cfg.rare_trans_c1, cfg.rare_trans_c2),
                oracles.bf_surprisal(t, [trans_floor] * len(t)),
                oracles.bf_mean(t),
            ]
        built.append((stats, rows))
        previous = stats
    # the passes built from a statistics object left its counts as they were
    for stats, rows in built:
        fresh = build_statistics(group, rows)
        assert (stats.gram_counts, stats.trans_counts) == (fresh.gram_counts, fresh.trans_counts)
        assert stats.gram_probs() == fresh.gram_probs()


def test_build_statistics_refuses_rows_outside_its_contract():
    group = CompiledGroup([("a", "b"), ("b", "c", "a")])
    for rows, message in [
        ([0, 1, 0], "row 0 is given twice"),
        ([1, 2], "row 2 is not a row of a group of 2 words"),
        ([-1], "row -1 is not a row of a group of 2 words"),
    ]:
        with pytest.raises(ValueError) as err:
            build_statistics(group, rows)
        assert str(err.value) == message
        with pytest.raises(ValueError):
            build_statistics(group, rows, build_statistics(group))
    with pytest.raises(ValueError, match="another group"):
        build_statistics(group, [0], build_statistics(CompiledGroup([("a", "b")])))


def assert_interning_equals_bruteforce(vocab, nmin, nmax, rows):
    group = CompiledGroup(vocab, nmin, nmax)
    k = group.shared
    seen = Counter(g for w in vocab for g in oracles.bf_word_ngrams(w, nmin, nmax))
    ids_of = {}
    for w, folded in zip(vocab, group.word_folded):
        grams = oracles.bf_word_ngrams(w, nmin, nmax)
        assert len(folded) == len(grams)
        for g, f in zip(grams, folded):
            if seen[g] > 1:
                ids_of.setdefault(g, set()).add(f)
            else:  # a once-seen n-gram takes the slot of its length
                assert f == k + len(g) - nmin
    # equal n-grams seen twice or more share one id below ``shared``, numbered
    # by first occurrence, and different ones never do
    assert all(len(ids) == 1 for ids in ids_of.values())
    id_of = {g: i for g, (i,) in ids_of.items()}
    assert list(id_of.values()) == list(range(k))
    # one slot per length up to the longest word, past which no n-gram lies
    slot_lens = list(range(nmin, min(nmax, max(map(len, vocab))) + 1))
    assert list(group.fold_len) == [len(g) for g in id_of] + slot_lens

    reference = [vocab[r] for r in rows]
    stats = build_statistics(group, rows)
    counts = oracles.bf_ngram_counts(reference, nmin, nmax)
    assert ngram_count(stats) == counts
    assert stats.gram_counts[:k] == [counts.get(g, 0) for g in id_of]
    assert stats.gram_counts[k:] == [
        sum(1 for g in counts if seen[g] == 1 and len(g) == n) for n in slot_lens
    ]
    assert dict(stats.ngram_prob) == oracles.bf_ngram_probs(reference, nmin, nmax)
    assert dict(stats.trans_prob) == oracles.bf_transition_probs(reference)


def test_interning_equals_bruteforce_for_every_ngram_range():
    # small alphabets repeat n-grams; one-symbol words fall below ngram_min
    rng = random.Random(21)
    for _ in range(300):
        nmin = rng.randint(1, 3)
        max_len = rng.randint(1, 9)
        nmax = rng.randint(nmin, max_len + 2)
        alphabet = SYMBOLS[: rng.randint(1, len(SYMBOLS))]
        vocab = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
            for _ in range(rng.randint(1, 12))
        ]
        vocab += rng.sample(vocab, rng.randint(0, len(vocab)))
        rows = sorted(rng.sample(range(len(vocab)), rng.randint(1, len(vocab))))
        assert_interning_equals_bruteforce(vocab, nmin, nmax, rows)


def test_interning_past_one_byte_symbol_codes():
    # more than 256 distinct symbols, table symbols and unknown tokens alike,
    # take the words' one-character-per-symbol strings past the one-byte range
    unknown = normalize_ipa("".join(chr(0x4E00 + k) for k in range(200)) + "\U0001F600")
    symbols = sorted(FEATURES) + list(unknown)
    rng = random.Random(256)
    for _ in range(30):
        nmin = rng.randint(1, 3)
        nmax = rng.randint(nmin, 10)
        alphabet = rng.sample(symbols, rng.randint(257, len(symbols)))
        # every symbol once, then words over a few symbols that repeat n-grams
        vocab = [tuple(alphabet[i : i + 5]) for i in range(0, len(alphabet), 5)]
        few = alphabet[-3:]
        vocab += [
            tuple(rng.choice(few) for _ in range(rng.randint(1, 9))) for _ in range(20)
        ]
        rng.shuffle(vocab)
        rows = sorted(rng.sample(range(len(vocab)), rng.randint(1, len(vocab))))
        assert_interning_equals_bruteforce(vocab, nmin, nmax, rows)
    # symbol codes through the surrogate range and past the basic plane
    vocab = [(f"s{k}", f"s{k + 1}", f"s{k}") for k in range(0, 70_000, 2)]
    assert_interning_equals_bruteforce(vocab, 1, 3, range(0, len(vocab), 3))


def test_compiled_extract_all_matches_bruteforce_features():
    rng = random.Random(77)
    cfg = RunConfig(mode="aug")
    for _ in range(40):
        vocab = list(dict.fromkeys(random_vocab(rng, max_words=25, max_len=9)))
        group = CompiledGroup(vocab)
        rows = sorted(rng.sample(range(len(vocab)), rng.randint(1, len(vocab))))
        reference = [vocab[i] for i in rows]
        stats = build_statistics(group, rows)
        probs = oracles.bf_ngram_probs(reference)
        trans = oracles.bf_transition_probs(reference)
        totals = oracles.bf_ngram_totals(reference)
        n_transitions = oracles.bf_transition_total(reference)
        mean, std = oracles.bf_length_stats(reference)
        columns = extract_all(stats, cfg)
        assert columns == extract_against(reference, vocab, cfg)
        assert list(columns) == list(feature_names("aug"))
        assert all(len(column) == len(vocab) for column in columns.values())
        for i, w in enumerate(vocab):
            assert columns["rare_ngram_score"][i] == pytest.approx(
                oracles.bf_rare_ngram_score(w, probs, 0.005, 0.02, 100.0, 20.0), abs=1e-12
            )
            assert columns["ngram_surprisal"][i] == pytest.approx(
                oracles.bf_ngram_surprisal(w, probs, totals), abs=1e-9
            )
            assert columns["rare_transition_score"][i] == pytest.approx(
                oracles.bf_rare_transition_score(w, trans), abs=1e-12
            )
            assert columns["trans_surprisal"][i] == pytest.approx(
                oracles.bf_transition_surprisal(w, trans, n_transitions), abs=1e-9
            )
            assert columns["avg_trans_prob"][i] == pytest.approx(
                oracles.bf_avg_transition_prob(w, trans), abs=1e-12
            )
            assert columns["len_z"][i] == pytest.approx((len(w) - mean) / std, abs=1e-12)
            assert columns["cv_anomaly"][i] == pytest.approx(
                oracles.bf_cv_anomaly(w, reference, VOWELS), abs=1e-12
            )
            assert columns["char_dist_anomaly"][i] == pytest.approx(
                oracles.bf_char_dist_anomaly(w, reference), abs=1e-12
            )
            assert columns["cluster_score"][i] == pytest.approx(
                oracles.bf_cluster_score(w, VOWELS), abs=1e-12
            )
            assert columns["vowel_ratio"][i] == pytest.approx(
                oracles.bf_vowel_ratio(w, VOWELS), abs=1e-12
            )


def test_cv_patterns_are_computed_only_when_read():
    words = [("p", "a", "t", "a"), ("s", "t", "r", "a", "k")]
    group = CompiledGroup(words)
    for mode in MODES:
        if mode != "aug":
            extract_all(build_statistics(group), RunConfig(mode=mode))
    assert "cv" not in vars(group)
    extract_all(build_statistics(group), RunConfig(mode="aug"))
    assert group.cv == [cv_pattern(w) for w in words] == ["CVCV", "CCCVC"]


def test_ngram_max_past_the_longest_word_changes_nothing():
    # the n-gram tables end at the longest word whatever ngram_max asks for
    wordlist = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 200, 50, 1)
    words = [e.ipa for e in wordlist]
    longest = max(map(len, words))
    capped = CompiledGroup(words, 2, longest)
    wide = CompiledGroup(words, 2, 10**6)
    assert max(wide.fold_len) == longest
    assert list(wide.fold_len) == list(capped.fold_len)
    assert wide.word_folded == capped.word_folded
    rows = range(0, len(words), 2)
    stats = build_statistics(wide, rows)
    assert len(stats.gram_totals) == longest + 1
    assert stats.gram_totals == build_statistics(capped, rows).gram_totals
    for mode in MODES:
        assert extract_all(stats, RunConfig(mode=mode, ngram_max=10**6)) == extract_all(
            build_statistics(capped, rows), RunConfig(mode=mode, ngram_max=longest)
        )


def test_compiled_group_rejects_other_ngram_range():
    group = CompiledGroup([("a", "b", "c")])
    stats = build_statistics(group)
    with pytest.raises(ValueError):
        extract_all(stats, RunConfig(ngram_max=3))
