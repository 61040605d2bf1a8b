"""Refinement loop tests: pattern databases, likeness, and the detect loop."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from loandetect.config import RunConfig
from loandetect.features import CompiledGroup
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
from loandetect.wordlist import LexicalEntry, Wordlist, write_trace

import oracles
from fixtures import extract_against


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
    return Wordlist(out)


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


def test_pattern_index_equals_bruteforce_for_every_ngram_range():
    # the patterns come from the transition ids, which every n-gram range keeps
    rng = random.Random(23)
    for nmin, nmax in [(2, 2), (3, 3), (3, 10), (1, 4), (2, 10)] * 30:
        words = [
            tuple(rng.choice("pta") for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 12))
        ]
        # one- and two-symbol words, and a trigram repeated in one word
        words += [("a",), ("p", "a"), ("t", "a", "t", "a", "t")]
        rng.shuffle(words)
        index = PatternIndex(CompiledGroup(words, nmin, nmax))
        typed_of = {}
        for w, ids in zip(words, index.patterns):
            typed = oracles.bf_typed_patterns(w)
            assert len(ids) == len(typed)
            for p, i in zip(typed, ids):
                typed_of.setdefault(i, set()).add(p)
        # equal typed patterns share one id, and different ones never do
        assert sorted(typed_of) == list(range(len(index.full_counts)))
        assert all(len(typed) == 1 for typed in typed_of.values())
        pattern = {i: p for i, (p,) in typed_of.items()}
        assert len(set(pattern.values())) == len(pattern)
        for w, ids, distinct in zip(words, index.patterns, index.distinct):
            typed = oracles.bf_typed_patterns(w)
            assert Counter(pattern[i] for i in ids) == Counter(typed)
            assert [pattern[i] for i in distinct] == list(dict.fromkeys(typed))
        full = Counter(p for w in words for p in oracles.bf_typed_patterns(w))
        assert {pattern[i]: c for i, c in enumerate(index.full_counts)} == full


def test_build_pattern_db_four_symbol_word():
    words = [("a", "b", "c", "d")]
    index = PatternIndex(CompiledGroup(words))
    prefixes, suffixes, trigrams = by_pattern(index, words, build_pattern_db(index, [0]))
    assert prefixes == {("a", "b"): 1}
    assert suffixes == {("c", "d"): 1}
    assert trigrams == {("a", "b", "c"): 1, ("b", "c", "d"): 1}


def test_build_pattern_db_empty():
    words = [("a", "b", "c")]
    index = PatternIndex(CompiledGroup(words))
    assert by_pattern(index, words, build_pattern_db(index, [])) == ({}, {}, {})
    assert PatternIndex(CompiledGroup([])).full_counts == []


def test_build_pattern_db_matches_bruteforce():
    rng = random.Random(5)
    words = [
        tuple(rng.choice("ptkaiu") for _ in range(rng.randint(1, 7)))
        for _ in range(5)
    ]
    index = PatternIndex(CompiledGroup(words))
    rows = [0, 2, 3]
    db = by_pattern(index, words, build_pattern_db(index, rows))
    assert db == oracles.bf_pattern_counts([words[i] for i in rows])
    assert by_pattern(index, words, index.full_counts) == oracles.bf_pattern_counts(words)


def test_build_pattern_db_from_an_earlier_call_equals_a_count_from_nothing():
    rng = random.Random(11)
    for _ in range(50):
        words = [
            tuple(rng.choice("ptkaiu") for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(1, 15))
        ]
        index = PatternIndex(CompiledGroup(words))
        every = list(range(len(words)))
        passes = [every] + [
            sorted(rng.sample(every, rng.randint(0, len(words)))) for _ in range(4)
        ] + [[], every]
        built, previous = [], None
        for rows in passes:
            counts = build_pattern_db(index, rows, previous)
            assert counts == build_pattern_db(index, rows)
            assert by_pattern(index, words, counts) == oracles.bf_pattern_counts(
                [words[r] for r in rows]
            )
            built.append((counts, list(counts)))
            previous = (rows, counts)
        # the later calls left every earlier count as it was
        assert all(counts == kept for counts, kept in built)
    with pytest.raises(ValueError, match="row 0 is given twice"):
        build_pattern_db(index, [0, 0])


def test_word_patterns_typed_and_deduplicated():
    words = [("a", "b"), ("a",), ("a", "b", "a", "b", "a")]
    index = PatternIndex(CompiledGroup(words))
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
    index = PatternIndex(CompiledGroup(words))
    native_counts = build_pattern_db(index, range(len(natives)))
    return pattern_likeness(index, native_counts, epsilon)[-1]


def test_pattern_likeness_hand_fraction():
    # single pattern with N=10, B=0, eps=1 -> 10/11
    words = [("a", "b")] * 10
    index = PatternIndex(CompiledGroup(words))
    likeness = pattern_likeness(index, build_pattern_db(index, range(10)), 1.0)
    # the length-2 word has prefix == suffix == (a, b): both lookups 10/11
    assert likeness[0] == pytest.approx(10 / 11)


def test_pattern_likeness_all_unseen():
    assert likeness_of([("a", "b")], [("c", "d")], ("x", "y"), 1.0) == 0.0


def test_pattern_likeness_symmetry_limit():
    # equal counts on both sides, eps -> 0: likeness -> 1/2
    words = [("a", "b", "c")] * 14
    index = PatternIndex(CompiledGroup(words))
    likeness = pattern_likeness(index, build_pattern_db(index, range(7)), 1e-9)
    assert likeness[0] == pytest.approx(0.5, abs=1e-6)


def test_pattern_likeness_no_patterns_neutral():
    words = [("a", "b"), ("a",)]
    index = PatternIndex(CompiledGroup(words))
    assert pattern_likeness(index, build_pattern_db(index, [0]), 1.0)[1] == 0.5


def test_pattern_likeness_requires_positive_smoothing():
    index = PatternIndex(CompiledGroup([("a", "b")]))
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
    index = PatternIndex(CompiledGroup(words))
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
    columns = extract_against(words, words, cfg)
    expected, _ = score_all(columns, [e.pos for e in vocab], cfg)
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


def mixed_vocab(seed, size):
    """``size`` distinct words, seven in ten native-shaped and the rest donor-shaped,
    so that the loan set moves between passes."""
    rng = random.Random(seed)
    texts = set()
    while len(texts) < size:
        alphabet = "ptkaiu" if rng.random() < 0.7 else "zʒdøy"
        texts.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7))))
    return Wordlist([
        LexicalEntry(t, tuple(t), "toy", rng.choice(["noun", "verb", "function"]), None, None)
        for t in sorted(texts)
    ])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(2, 16),
    st.integers(1, 7),
    st.sampled_from([0.0, RunConfig().convergence_fraction]),
    st.booleans(),
    st.integers(1, 3),
    st.sampled_from([0.0001, 0.3, 0.6]),
)
# pass 2 reads the same rows as pass 1 and is the first to refine
@example(75, 8, 4, 0.0, True, 2, 0.3)
# every word borrowed: passes 1 and on fall back to every row, pass 1 refining
@example(75, 8, 4, 0.0, True, 1, 0.0001)
def test_detect_matches_bruteforce_loop(
    seed, size, max_iterations, fraction, refinement, from_iteration, tau
):
    # tau 0.0001 borrows every word and reaches the full-vocabulary fallback
    vocab = mixed_vocab(seed, size)
    cfg = RunConfig(
        tau=tau,
        max_iterations=max_iterations,
        convergence_fraction=fraction,
        pattern_refinement=refinement,
        pattern_from_iteration=from_iteration,
    )
    state = detect(vocab, cfg)
    expected = oracles.bf_detect(vocab, cfg)
    assert [(s.probabilities, s.averaged, s.loans) for s in state.snapshots] == expected
    assert [s.iteration for s in state.snapshots] == list(range(len(expected)))


def counting(monkeypatch, names):
    """Count the calls ``refiner.detect`` makes to the refiner globals ``names``."""
    from loandetect import refiner

    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(refiner, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(refiner, name, counted)
    return calls


@pytest.mark.parametrize("refinement", [False, True])
def test_detect_computes_a_pass_only_when_it_reads_new_rows(monkeypatch, refinement):
    calls = counting(monkeypatch, ("build_statistics", "extract_all", "score_all"))
    vocab = mixed_vocab(46, 16)
    cfg = RunConfig(convergence_fraction=0.0, pattern_refinement=refinement)
    snaps = detect(vocab, cfg).snapshots
    assert len(snaps) == cfg.max_iterations
    assert snaps[-1].loans == snaps[-2].loans  # the loan set reached a fixed point
    every = frozenset(range(len(vocab)))
    # pass t reads the natives of pass t - 1, and refines from pattern_from_iteration on
    reads = [(every, False)] + [
        (every - s.loans, refinement and t >= cfg.pattern_from_iteration)
        for t, s in enumerate(snaps[:-1], start=1)
    ]
    new = sum(read != before for before, read in zip([None] + reads, reads))
    assert new < len(snaps)
    assert calls == dict.fromkeys(calls, new)
    expected = oracles.bf_detect(vocab, cfg)
    assert [(s.probabilities, s.averaged, s.loans) for s in snaps] == expected


def test_detect_fallback_warns_and_leaves_a_snapshot_on_every_pass(monkeypatch):
    calls = counting(monkeypatch, ("build_statistics", "pattern_likeness"))
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    cfg = RunConfig(tau=0.0001, convergence_fraction=0.0, pattern_from_iteration=2)
    state = detect(vocab, cfg)
    assert all(s.loans == set(range(len(vocab))) for s in state.snapshots)
    assert len(state.snapshots) == cfg.max_iterations
    assert [w.split(":")[0] for w in state.warnings] == [
        f"iteration {t}" for t in range(1, cfg.max_iterations)
    ]
    # pass 0, then pass 2: the same rows, but the first to refine (against no natives)
    assert calls == {"build_statistics": 2, "pattern_likeness": 1}
    expected = oracles.bf_detect(vocab, cfg)
    assert [(s.probabilities, s.averaged, s.loans) for s in state.snapshots] == expected



def test_pass_record_pairs_each_warning_with_its_pass():
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    state = detect(vocab, RunConfig(tau=0.0001, max_iterations=3, convergence_fraction=0.0))
    assert state.record() == (
        (len(vocab),) * 3, False, ((1, state.warnings[0]), (2, state.warnings[1]))
    )
    state = detect(vocab, RunConfig())
    assert state.converged and not state.warnings
    assert state.record() == (tuple(len(s.loans) for s in state.snapshots), True, ())


def test_detection_state_is_an_immutable_value():
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    cfg = RunConfig(tau=0.0001, max_iterations=3, convergence_fraction=0.0)
    state, again = detect(vocab, cfg), detect(vocab, cfg)
    assert state == again and hash(state) == hash(again)
    assert state != detect(vocab, RunConfig())
    assert isinstance(state.snapshots, tuple)
    for field in ("snapshots", "converged"):
        with pytest.raises(AttributeError):
            setattr(state, field, getattr(state, field))
    with pytest.raises(AttributeError):
        state.snapshots[0].warning = None


def test_fallback_warning_sits_on_the_snapshot_of_its_pass():
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    cfg = RunConfig(tau=0.0001, convergence_fraction=0.0)
    state = detect(vocab, cfg)
    fallback = "all words classified as borrowed; falling back to full-vocabulary statistics"
    assert [s.warning for s in state.snapshots] == [None] + [
        f"iteration {t}: {fallback}" for t in range(1, cfg.max_iterations)
    ]
    assert state.warnings == tuple(s.warning for s in state.snapshots[1:])
    assert state.record() == (
        (len(vocab),) * cfg.max_iterations,
        False,
        tuple((t, f"iteration {t}: {fallback}") for t in range(1, cfg.max_iterations)),
    )


def test_detect_state_is_its_last_snapshot():
    state = detect(entries_from(TOY_NATIVES + TOY_LOANS), RunConfig())
    last = state.snapshots[-1]
    assert state.iteration == last.iteration
    assert state.averaged is last.averaged
    assert state.loans is last.loans


def test_detect_trace_file(tmp_path):
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    trace = tmp_path / "trace.tsv"
    state = detect(vocab, RunConfig())
    write_trace(vocab.entries, state, trace)
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration\tword\tP\tP_avg\tin_B"
    assert len(lines) == 1 + len(vocab) * len(state.snapshots)


def test_detect_wordlist_groups_by_language():
    a = entries_from(TOY_NATIVES, language="aaa", concepts=True)
    b = entries_from(
        [("z", "u"), ("d", "u", "z"), ("ʒ", "u", "d")], language="bbb", concepts=True
    )
    vocab = Wordlist(list(a.entries) + list(b.entries))
    probs, labels, states = detect_wordlist(vocab, RunConfig())
    assert set(states) == {"aaa", "bbb"}
    assert len(probs) == len(vocab)
    # pooled outputs match the per-language runs
    state_a = detect(a, RunConfig())
    assert probs[: len(a)] == pytest.approx(state_a.averaged)


def test_detect_empty_wordlist_rejected():
    with pytest.raises(ValueError):
        detect(Wordlist(()), RunConfig())


@pytest.mark.parametrize("mode", ["full", "no_ngram", "no_transition", "aug"])
def test_detect_compiles_each_word_once(monkeypatch, mode):
    from loandetect import features, refiner

    built = []

    class Recorded(features.CompiledGroup):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    @property
    def no_tuple_views(self):
        raise AssertionError("detect read the tuple-keyed statistics")

    indexed = []

    class RecordedIndex(refiner.PatternIndex):
        def __init__(self, group):
            super().__init__(group)
            indexed.append(group)

    monkeypatch.setattr(refiner, "CompiledGroup", Recorded)
    monkeypatch.setattr(refiner, "PatternIndex", RecordedIndex)
    monkeypatch.setattr(features.VocabStatistics, "ngram_prob", no_tuple_views)
    monkeypatch.setattr(features.VocabStatistics, "trans_prob", no_tuple_views)
    vocab = entries_from(TOY_NATIVES + TOY_LOANS)
    cfg = RunConfig(mode=mode, convergence_fraction=0.0)
    state = detect(vocab, cfg)
    assert len(state.snapshots) == cfg.max_iterations
    # one group over the words, in input order, for every pass
    assert len(built) == 1
    assert built[0].words == [tuple(e.ipa) for e in vocab]
    assert (built[0].ngram_min, built[0].ngram_max) == (cfg.ngram_min, cfg.ngram_max)
    # the surface patterns are read off that group, not interned again
    assert len(indexed) == 1 and indexed[0] is built[0]


# Detection of a three-language corpus with 15% cross-language words, whose
# concept ids span the languages. Besides the report and the detect-xl report,
# it prints every word's pattern likeness against the final native/loan split:
# on a corpus this small no likeness sits close enough to a 0.3/0.7 cut for a
# last-bit difference to change the report itself.
_HASH_SEED_RUN = r"""
import random, sys
from loandetect.config import RunConfig
from loandetect.crossling import detect_scaled
from loandetect.features import CompiledGroup
from loandetect.refiner import PatternIndex, build_pattern_db, detect_wordlist, pattern_likeness
from loandetect.wordlist import LexicalEntry, Wordlist, write_report, write_scaled_report

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
vocab = Wordlist(entries)
cfg = RunConfig(convergence_fraction=0.0)
probs, labels, _ = detect_wordlist(vocab, cfg)
write_report(vocab, probs, labels, sys.argv[1])
scaled = detect_scaled(vocab, cfg)
write_scaled_report(vocab, scaled.basic, scaled.comparability, scaled.composite,
                    scaled.thresholds, scaled.predicted, sys.argv[2])
index = PatternIndex(CompiledGroup([e.ipa for e in entries]))
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
        scaled = tmp_path / f"scaled-{hash_seed}.tsv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN, str(report), str(scaled)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append((report.read_bytes(), scaled.read_bytes(), proc.stdout))
    assert len(outputs[0][0].splitlines()) == 1 + 360
    assert len(outputs[0][1].splitlines()) == 1 + 360
    assert outputs[0] == outputs[1] == outputs[2]
