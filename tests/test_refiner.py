"""Refinement loop tests: pattern databases, likeness, and the detect loop."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from loandetect.config import RunConfig
from loandetect.features import build_statistics, extract_all
from loandetect.refiner import (
    PatternIndex,
    average_probabilities,
    build_pattern_db,
    check_convergence,
    detect,
    detect_wordlist,
    pattern_likeness,
    refine_probability,
)
from loandetect.scoring import score_all
from loandetect.wordlist import LexicalEntry, make_wordlist

import oracles


def entries_from(words, language="toy", pos="noun", labels=None, concepts=False):
    out = []
    for i, w in enumerate(words):
        out.append(
            LexicalEntry(
                orthography="".join(w),
                ipa=tuple(w),
                language=language,
                pos=pos,
                gold_label=None if labels is None else labels[i],
                concept_id=f"{language}-{i}" if concepts else None,
            )
        )
    return make_wordlist(out)


def by_pattern(index, words, counts):
    """Id-indexed pattern counts as (prefix, suffix, trigram) dicts keyed by symbols.

    Relies on the documented order of ``index.patterns[i]``: the prefix,
    the suffix, then the trigrams from left to right.
    """
    tables = ({}, {}, {})
    for w, ids in zip(words, index.patterns):
        w = tuple(w)
        keyed = [(0, w[:2]), (1, w[-2:])] + [(2, w[i : i + 3]) for i in range(len(w) - 2)]
        for (kind, pat), pid in zip(keyed, ids):
            if counts[pid]:
                tables[kind][pat] = counts[pid]
    return tables


def test_build_pattern_db_four_symbol_word():
    words = [("a", "b", "c", "d")]
    index = PatternIndex(words)
    prefixes, suffixes, trigrams = by_pattern(index, words, build_pattern_db(index, [0]))
    assert prefixes == {("a", "b"): 1}
    assert suffixes == {("c", "d"): 1}
    assert trigrams == {("a", "b", "c"): 1, ("b", "c", "d"): 1}


def test_build_pattern_db_empty():
    words = [("a", "b", "c")]
    index = PatternIndex(words)
    assert by_pattern(index, words, build_pattern_db(index, [])) == ({}, {}, {})
    assert PatternIndex([]).full_counts == []


def test_build_pattern_db_matches_bruteforce():
    rng = random.Random(5)
    words = [
        tuple(rng.choice("ptkaiu") for _ in range(rng.randint(1, 7)))
        for _ in range(5)
    ]
    index = PatternIndex(words)
    rows = [0, 2, 3]
    db = by_pattern(index, words, build_pattern_db(index, rows))
    assert db == oracles.bf_pattern_counts([words[i] for i in rows])
    assert by_pattern(index, words, index.full_counts) == oracles.bf_pattern_counts(words)


def test_word_patterns_typed_and_deduplicated():
    words = [("a", "b"), ("a",), ("a", "b", "a", "b", "a")]
    index = PatternIndex(words)
    # prefix and suffix of a 2-symbol word are the same symbols, two patterns
    assert len(index.distinct[0]) == 2
    assert by_pattern(index, words, build_pattern_db(index, [0])) == (
        {("a", "b"): 1}, {("a", "b"): 1}, {}
    )
    assert len(index.patterns[1]) == 0
    # trigrams aba, bab, aba: counted twice, averaged over once
    assert len(index.patterns[2]) == 5 and len(index.distinct[2]) == 4


def likeness_of(natives, loans, word, epsilon):
    """Likeness of ``word`` in a group of ``natives``, ``loans`` and the word, as a loan."""
    words = list(natives) + list(loans) + [word]
    index = PatternIndex(words)
    native_counts = build_pattern_db(index, range(len(natives)))
    return pattern_likeness(index, native_counts, epsilon)[-1]


def test_pattern_likeness_hand_fraction():
    # single pattern with N=10, B=0, eps=1 -> 10/11
    words = [("a", "b")] * 10
    index = PatternIndex(words)
    likeness = pattern_likeness(index, build_pattern_db(index, range(10)), 1.0)
    # the length-2 word has prefix == suffix == (a, b): both lookups 10/11
    assert likeness[0] == pytest.approx(10 / 11)


def test_pattern_likeness_all_unseen():
    assert likeness_of([("a", "b")], [("c", "d")], ("x", "y"), 1.0) == 0.0


def test_pattern_likeness_symmetry_limit():
    # equal counts on both sides, eps -> 0: likeness -> 1/2
    words = [("a", "b", "c")] * 14
    index = PatternIndex(words)
    likeness = pattern_likeness(index, build_pattern_db(index, range(7)), 1e-9)
    assert likeness[0] == pytest.approx(0.5, abs=1e-6)


def test_pattern_likeness_no_patterns_neutral():
    words = [("a", "b"), ("a",)]
    index = PatternIndex(words)
    assert pattern_likeness(index, build_pattern_db(index, [0]), 1.0)[1] == 0.5


def test_pattern_likeness_requires_positive_smoothing():
    index = PatternIndex([("a", "b")])
    with pytest.raises(ValueError):
        pattern_likeness(index, build_pattern_db(index, [0]), 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text("pta", min_size=1, max_size=7), min_size=1, max_size=12),
    st.data(),
    st.sampled_from([1.0, 0.5, 1e-9]),
)
def test_pattern_likeness_matches_bruteforce(texts, data, epsilon):
    # a three-letter alphabet repeats trigrams within and across words
    words = [tuple(t) for t in texts]
    natives = data.draw(st.sets(st.integers(0, len(words) - 1)))
    index = PatternIndex(words)
    likeness = pattern_likeness(index, build_pattern_db(index, sorted(natives)), epsilon)
    native_words = [w for i, w in enumerate(words) if i in natives]
    loan_words = [w for i, w in enumerate(words) if i not in natives]
    assert likeness == [
        oracles.bf_pattern_likeness(w, native_words, loan_words, epsilon) for w in words
    ]


def test_refine_probability_rules():
    cfg = RunConfig()
    # clean word with native-looking patterns is scaled down
    assert refine_probability(0.6, 0.9, False, cfg) == pytest.approx(0.42)
    # anomalous word with loan-looking patterns is scaled up, clamped
    assert refine_probability(0.9, 0.1, True, cfg) == 1.0
    # conflicting evidence leaves the probability alone
    assert refine_probability(0.77, 0.9, True, cfg) == 0.77
    assert refine_probability(0.77, 0.1, False, cfg) == 0.77


@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.booleans(),
)
def test_refine_probability_stays_in_unit_interval(p, likeness, anomalous):
    cfg = RunConfig()
    out = refine_probability(p, likeness, anomalous, cfg)
    assert 0.0 <= out <= 1.0


def test_average_probabilities():
    assert average_probabilities([0.7]) == 0.7
    assert average_probabilities([0.2, 0.8]) == pytest.approx(0.5)
    assert average_probabilities([0.3, 0.6, 0.9]) == pytest.approx(0.6)


def test_average_probabilities_permutation_invariant():
    assert average_probabilities([0.1, 0.5, 0.9]) == pytest.approx(
        average_probabilities([0.9, 0.1, 0.5])
    )
    assert average_probabilities([0.4] * 5) == pytest.approx(0.4)


def test_check_convergence_hand_cases():
    prev = frozenset(range(200))
    assert check_convergence(prev, prev) is True
    one_changed = frozenset(range(199)) | {500}
    assert check_convergence(prev, one_changed) is False  # delta 2 >= 2
    swapped_one = frozenset(list(range(199)) + [500])
    assert len(prev.symmetric_difference(swapped_one)) == 2
    # replace membership of a single word: delta 1 < 2 -> converged
    dropped_one = frozenset(range(199))
    assert check_convergence(prev, dropped_one) is True
    three_changed = frozenset(range(197))
    assert check_convergence(prev, three_changed) is False


def test_check_convergence_empty_floor():
    assert check_convergence(frozenset(), frozenset()) is True
    assert check_convergence(frozenset(), frozenset({1})) is False


TOY_NATIVES = [
    ("p", "a", "t", "a"),
    ("t", "a", "k", "a"),
    ("k", "a", "p", "a"),
    ("p", "a", "k", "i"),
    ("t", "i", "p", "a"),
    ("k", "i", "t", "a"),
    ("p", "i", "k", "a"),
    ("t", "a", "p", "i"),
]
TOY_LOANS = [("z", "d", "ʒ", "u"), ("ʒ", "u", "z", "d")]


def test_detect_reduces_to_score_and_threshold_at_one_pass():
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    cfg = RunConfig(max_iterations=1, pattern_refinement=False)
    state = detect(vocab, cfg)
    assert state.iteration == 0
    assert not state.converged

    words = [e.ipa for e in vocab]
    stats = build_statistics(words)
    vectors = extract_all(words, stats, cfg.mode, cfg.feature_params())
    results = score_all(vectors, [e.pos for e in vocab], cfg.scoring())
    expected = [r.boosted for r in results]
    assert state.averaged == pytest.approx(expected)
    assert state.loans == {i for i, p in enumerate(expected) if p >= cfg.tau}


def test_detect_state_invariants_every_iteration():
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    cfg = RunConfig()
    state = detect(vocab, cfg)
    n = len(vocab)
    assert 0 <= state.iteration <= cfg.max_iterations - 1
    assert len(state.snapshots) == state.iteration + 1
    running = [[] for _ in range(n)]
    for snap in state.snapshots:
        for i in range(n):
            running[i].append(snap.probabilities[i])
        for i in range(n):
            avg = sum(running[i]) / len(running[i])
            assert abs(snap.averaged[i] - avg) < 1e-12
        loans = snap.loans
        natives = set(range(n)) - loans
        assert loans | natives == set(range(n))
        assert not (loans & natives)
        for i in range(n):
            assert (i in loans) == (snap.averaged[i] >= cfg.tau)
    # final state mirrors the last snapshot
    last = state.snapshots[-1]
    assert state.loans == set(last.loans)
    assert state.averaged == pytest.approx(list(last.averaged))


def test_detect_all_borrowed_falls_back_to_full_vocabulary():
    # tau so low that everything is borrowed after pass 0
    vocab = entries_from(TOY_NATIVES)
    cfg = RunConfig(tau=0.0001, max_iterations=3, pattern_refinement=False)
    state = detect(vocab, cfg)
    assert state.loans == set(range(len(vocab)))
    assert any("falling back" in w for w in state.warnings)


def test_detect_terminates_within_max_iterations():
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    for t_max in (1, 2, 3, 7):
        state = detect(vocab, RunConfig(max_iterations=t_max))
        assert state.iteration <= t_max - 1
        assert len(state.snapshots) <= t_max


def test_detect_trace_file(tmp_path):
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    trace = tmp_path / "trace.tsv"
    state = detect(vocab, RunConfig(), trace_path=trace)
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration\tword\tP\tP_avg\tin_B"
    assert len(lines) == 1 + len(vocab) * len(state.snapshots)


def test_detect_wordlist_groups_by_language():
    a = entries_from(TOY_NATIVES, language="aaa", concepts=True)
    b = entries_from(
        [("z", "u"), ("d", "u", "z"), ("ʒ", "u", "d")], language="bbb", concepts=True
    )
    vocab = make_wordlist(list(a.entries) + list(b.entries))
    probs, labels, states = detect_wordlist(vocab, RunConfig())
    assert set(states) == {"aaa", "bbb"}
    assert len(probs) == len(vocab)
    # pooled outputs match the per-language runs
    state_a = detect(a, RunConfig())
    assert probs[: len(a)] == pytest.approx(state_a.averaged)


def test_detect_empty_wordlist_rejected():
    from loandetect.wordlist import Wordlist

    with pytest.raises(ValueError):
        detect(Wordlist(entries=(), language="empty"), RunConfig())


@pytest.mark.parametrize("mode", ["full", "no_ngram", "no_transition", "aug"])
def test_detect_compiles_each_word_once(monkeypatch, mode):
    from loandetect import features

    calls = []
    real = features.word_ngrams
    monkeypatch.setattr(
        features, "word_ngrams", lambda w, *a: calls.append(w) or real(w, *a)
    )

    def no_tuple_views(self):
        raise AssertionError("detect read the tuple-keyed statistics")

    monkeypatch.setattr(features.CompiledGroup, "gram_tuples", no_tuple_views)
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    state = detect(vocab, RunConfig(mode=mode, convergence_fraction=0.0))
    assert len(state.snapshots) == RunConfig().max_iterations
    assert sorted(calls) == sorted(e.ipa for e in vocab)


# Detection of a three-language corpus with 15% cross-language words. Besides
# the report, it prints every word's pattern likeness against the final
# native/loan split: on a corpus this small no likeness sits close enough to a
# 0.3/0.7 cut for a last-bit difference to change the report itself.
_HASH_SEED_RUN = r"""
import random, sys
from loandetect.config import RunConfig
from loandetect.refiner import PatternIndex, build_pattern_db, detect_wordlist, pattern_likeness
from loandetect.wordlist import LexicalEntry, make_wordlist, write_report

rng = random.Random(1)
languages = {"aa": ("ptkmnsl", "aiu"), "bb": ("bdgzvʃ", "eoøy"), "cc": ("ptkbdfs", "aeiou")}
entries = []
for lang, shape in languages.items():
    seen = set()
    while len(seen) < 120:
        cons, vowels = languages[rng.choice("abc") * 2] if rng.random() < 0.15 else shape
        w = tuple(rng.choice((cons, vowels)[k % 2]) for k in range(rng.randint(3, 7)))
        if w not in seen:
            seen.add(w)
            entries.append(LexicalEntry("".join(w), w, lang, "noun", None, f"c{len(seen)}"))
vocab = make_wordlist(entries)
probs, labels, _ = detect_wordlist(vocab, RunConfig(convergence_fraction=0.0))
write_report(vocab, probs, labels, sys.argv[1])
index = PatternIndex([e.ipa for e in entries])
native = build_pattern_db(index, [i for i, y in enumerate(labels) if not y])
print(pattern_likeness(index, native))
"""


def test_detect_wordlist_independent_of_string_hashing(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import loandetect

    src = str(Path(loandetect.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2", "3"):
        report = tmp_path / f"report-{hash_seed}.tsv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN, str(report)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append((report.read_bytes(), proc.stdout))
    assert len(outputs[0][0].splitlines()) == 1 + 360
    assert outputs[0] == outputs[1] == outputs[2]
