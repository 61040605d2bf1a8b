"""Stem-diversity comparison system tests."""

import pytest

from loandetect.baseline import (
    build_stem_index,
    detect_wordlist,
    nativeness_scores,
    stem_of,
)
from loandetect.config import RunConfig
from loandetect.wordlist import LexicalEntry, Wordlist


def test_stem_of_three_syllables():
    stem, following = stem_of(("b", "a", "n", "a", "n", "a"))
    assert stem == "bana"
    assert following == ["na"]


def test_stem_of_monosyllable_whole_word():
    stem, following = stem_of(("f", "ʊ", "l"))
    assert stem == "fʊl"
    assert following == []


def test_stem_of_vowel_initial():
    # syllabifier output: o-pe-ra -> stem "ope", following ["ra"]
    stem, following = stem_of(("o", "p", "e", "r", "a"))
    assert stem == "ope"
    assert following == ["ra"]


def test_min_max_endpoints_two_stems():
    # stem "pata-" has 5 distinct followers, stem "kema-" has 1
    words = [
        ("p", "a", "t", "a", "k", "a"),
        ("p", "a", "t", "a", "k", "i"),
        ("p", "a", "t", "a", "k", "u"),
        ("p", "a", "t", "a", "m", "a"),
        ("p", "a", "t", "a", "m", "i"),
        ("k", "e", "m", "a", "s", "u"),
    ]
    scores = nativeness_scores(words)
    assert scores[:5] == [1.0] * 5
    assert scores[5] == 0.0


def test_zero_follower_stem_minimal_nativeness():
    words = [
        ("p", "a", "t", "a", "k", "a"),
        ("p", "a", "t", "a", "k", "i"),
        ("z", "u", "m"),  # whole word stem, no followers
    ]
    scores = nativeness_scores(words)
    assert scores[2] == 0.0


def test_raw_counts_match_hand_tally_ten_words():
    # hand tally of distinct followers per stem:
    #   "pata": ka, ki, mu          -> 3
    #   "tika": su                  -> 1
    #   "kema": (none)              -> 0
    words = [
        ("p", "a", "t", "a", "k", "a"),
        ("p", "a", "t", "a", "k", "i"),
        ("p", "a", "t", "a", "m", "u"),
        ("p", "a", "t", "a", "k", "a", "k", "i"),
        ("t", "i", "k", "a", "s", "u"),
        ("t", "i", "k", "a"),
        ("k", "e", "m", "a"),
        ("k", "e", "m", "a"),  # duplicate form on purpose
        ("p", "a", "t", "a"),
        ("t", "i", "k", "a", "s", "u"),
    ]
    index = build_stem_index(words)
    assert index == {
        "pata": frozenset({"ka", "ki", "mu"}),
        "tika": frozenset({"su"}),
        "kema": frozenset(),
    }
    scores = nativeness_scores(words)
    # min-max over raw {3, 1, 0}
    for w, s in zip(words, scores):
        stem = stem_of(w)[0]
        raw = {"pata": 3, "tika": 1, "kema": 0}[stem]
        assert s == pytest.approx(raw / 3)


def test_scores_invariant_under_duplication():
    words = [
        ("p", "a", "t", "a", "k", "a"),
        ("p", "a", "t", "a", "k", "i"),
        ("z", "u", "m", "i"),
    ]
    assert nativeness_scores(words) == nativeness_scores(words + words)[: len(words)]


def test_degenerate_single_stem_vocabulary():
    words = [("p", "a", "t", "a", "k", "a"), ("p", "a", "t", "a", "k", "i")]
    # both words share one stem -> constant raw -> all zero
    assert nativeness_scores(words) == [0.0, 0.0]


def test_detect_wordlist_threshold_and_probability():
    words = [
        ("p", "a", "t", "a", "k", "a"),
        ("p", "a", "t", "a", "k", "i"),
        ("p", "a", "t", "a", "m", "u"),
        ("z", "u", "m", "i"),
    ]
    vocab = Wordlist(
        [
            LexicalEntry("".join(w), tuple(w), "toy", "noun", None, None)
            for w in words
        ]
    )
    probs, labels = detect_wordlist(vocab, RunConfig())
    scores = nativeness_scores(words)
    for p, s in zip(probs, scores):
        assert p == pytest.approx(1.0 - s)
    for lab, s in zip(labels, scores):
        assert lab == int(s < 0.5)
    # the isolated stem is flagged as a loan, the diverse stem is not
    assert labels[0] == 0 and labels[3] == 1
