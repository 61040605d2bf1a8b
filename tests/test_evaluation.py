"""Metrics, experiment harness, and synthetic generator tests."""

import json
import math

import pytest

from loandetect.config import RunConfig
from loandetect.evaluation import (
    Grammar,
    InvalidGrammarError,
    NoGoldLabelsError,
    evaluate,
    evaluate_wordlist,
    generate_synthetic,
    generate_synthetic_multilingual,
    load_grammar,
    run_ablations,
    run_proportion_experiment,
    stratified_sample,
)
from loandetect.refiner import detect_wordlist

from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR


def counts_report(tp, fp, tn, fn):
    preds = [1] * tp + [1] * fp + [0] * tn + [0] * fn
    gold = [1] * tp + [0] * fp + [0] * tn + [1] * fn
    return evaluate(preds, gold)


def test_evaluate_all_correct():
    report = counts_report(tp=3, fp=0, tn=5, fn=0)
    assert report.precision == report.recall == report.f1 == 1.0
    assert not report.degenerate


def test_evaluate_counts_add_up():
    report = counts_report(tp=4, fp=2, tn=3, fn=1)
    assert report.total == 10
    assert report.precision == pytest.approx(4 / 6)
    assert report.recall == pytest.approx(4 / 5)
    p, r = 4 / 6, 4 / 5
    assert report.f1 == pytest.approx(2 * p * r / (p + r))


def test_evaluate_zero_denominators_flagged():
    no_predictions = counts_report(tp=0, fp=0, tn=5, fn=2)
    assert no_predictions.precision == 0.0
    assert no_predictions.degenerate
    no_positives = counts_report(tp=0, fp=3, tn=5, fn=0)
    assert no_positives.recall == 0.0
    assert no_positives.degenerate


def test_evaluate_skips_unlabeled_requires_some():
    report = evaluate([1, 0, 1], [1, None, 0])
    assert report.total == 2
    with pytest.raises(NoGoldLabelsError):
        evaluate([1, 0], [None, None])


def test_evaluate_per_language_breakdown():
    preds = [1, 0, 1, 1]
    gold = [1, 0, 0, 1]
    langs = ["aa", "aa", "bb", "bb"]
    report = evaluate(preds, gold, langs)
    assert set(report.per_language) == {"aa", "bb"}
    assert report.per_language["aa"].tp == 1
    assert report.per_language["bb"].fp == 1
    assert report.tp == report.per_language["aa"].tp + report.per_language["bb"].tp


def test_evaluate_misaligned_rejected():
    with pytest.raises(ValueError):
        evaluate([1], [1, 0])


def test_evaluate_refuses_labels_other_than_0_1():
    with pytest.raises(ValueError, match=r"^labels must be 0/1, got \[2, 5\]$"):
        evaluate([1, 5, 0], [1, 0, 2])
    # an unlabelled entry's prediction is checked too
    with pytest.raises(ValueError, match=r"got \[-1\]$"):
        evaluate([1, -1], [1, None])


def test_generate_synthetic_deterministic():
    a = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 15, 5, seed=3)
    b = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 15, 5, seed=3)
    assert a.entries == b.entries
    c = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 15, 5, seed=4)
    assert a.entries != c.entries


def test_generate_synthetic_labels_and_counts():
    wl = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 12, 4, seed=1)
    assert len(wl) == 16
    assert sum(e.gold_label for e in wl) == 4
    assert wl.language == "reca"


def test_integration_zero_keeps_donor_segments():
    wl = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 5, 5, seed=2, integration=0.0)
    donor_symbols = set(DONOR_GRAMMAR.inventory_symbols())
    for e in wl:
        if e.gold_label == 1:
            assert set(e.ipa) <= donor_symbols


def test_integration_one_nativizes_all_segments():
    wl = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 5, 5, seed=2, integration=1.0)
    native_symbols = set(NATIVE_GRAMMAR.inventory_symbols())
    for e in wl:
        if e.gold_label == 1:
            assert set(e.ipa) <= native_symbols


@pytest.mark.parametrize("integration", [1.5, -3.0, float("nan"), -1e-9])
def test_integration_outside_unit_interval_refused(integration):
    for generate in (generate_synthetic, generate_synthetic_multilingual):
        with pytest.raises(InvalidGrammarError) as err:
            generate(NATIVE_GRAMMAR, DONOR_GRAMMAR, 5, 5, seed=2, integration=integration)
        assert str(err.value) == f"integration must be in [0, 1], got {integration!r}"


def test_generate_multilingual_concept_alignment():
    wl = generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 6, 3, seed=9)
    assert wl.language == "multi"
    concepts = {}
    for e in wl:
        concepts.setdefault(e.concept_id, []).append(e)
    assert len(concepts) == 9
    for members in concepts.values():
        assert {m.language for m in members} == {"reca", "donb"}
    # donor-side words are never labeled as loans
    assert all(e.gold_label == 0 for e in wl if e.language == "donb")
    assert sum(e.gold_label for e in wl if e.language == "reca") == 3


def test_grammar_validation():
    with pytest.raises(InvalidGrammarError):
        Grammar(language="x", consonants=(), vowels=("a",))
    with pytest.raises(InvalidGrammarError):
        Grammar(language="x", consonants=("p",), vowels=("a",), templates=("CQ",))
    with pytest.raises(InvalidGrammarError):
        Grammar(
            language="x", consonants=("p",), vowels=("a",),
            min_syllables=3, max_syllables=2,
        )


def test_grammar_refuses_weights_no_draw_can_use():
    base = dict(language="x", consonants=("p", "t"), vowels=("a", "i"))
    for extra in [
        dict(template_weights=(0, 0)),
        dict(template_weights=(1, math.nan)),
        dict(template_weights=(1, math.inf)),
        dict(template_weights=(1e308, 1e308)),  # each finite, the sum not
        dict(template_weights=(True, 1)),
        dict(template_weights=(1,)),
        dict(pos_weights=(-1,)),
        dict(pos_choices=("noun", "verb"), pos_weights=(1,)),
        dict(pos_choices=()),
        dict(templates=()),
        dict(consonants=(1, 2)),
        dict(language=5),
        dict(transitions="pa"),
        dict(transitions={"p": "ai"}),
        dict(transitions={"p": {"a": "x"}}),
        dict(transitions={"p": {"x": -1}}),
        dict(transitions={"p": {"a": 0, "i": 0}}),  # a vowel follows p in CV
        dict(transitions={"a": {"p": 0, "t": 0}}),  # a consonant follows a in CVC
    ]:
        with pytest.raises(InvalidGrammarError):
            Grammar(**{**base, **extra})
    # zero weights are kept where no draw reads only them
    donor = Grammar(language="y", consonants=("b", "d"), vowels=("o", "u"))
    for extra in [
        dict(template_weights=(0, 1)),
        dict(transitions={"p": {"a": 0}}),
        dict(transitions={"a": {"a": 0, "i": 0}}),  # no template puts a vowel after one
        dict(templates=("CV", "CVV"), template_weights=(1, 0),
             transitions={"a": {"a": 0, "i": 0}}),
        dict(templates=("CVC",), max_syllables=1, transitions={"t": {"p": 0, "t": 0}}),
    ]:
        wl = generate_synthetic(Grammar(**base, **extra), donor, 6, 2, seed=1)
        assert len(wl) == 8


def test_load_grammar_refuses_values_of_the_wrong_kind(tmp_path):
    path = tmp_path / "grammar.json"
    base = {"language": "toy", "consonants": ["p"], "vowels": ["a"]}
    for key, value in [
        ("consonants", "t͡ʃk"),  # would be read one codepoint, a bare tie bar too, per symbol
        ("templates", "CV"),
        ("pos_weights", 1),
        ("pos_choices", "noun"),
        ("min_syllables", 1.7),
        ("max_syllables", True),
        ("min_syllables", "2"),
    ]:
        path.write_text(json.dumps({**base, key: value}), encoding="utf-8")
        with pytest.raises(InvalidGrammarError, match=key):
            load_grammar(path)
    # null leaves an optional weight list at its default
    path.write_text(json.dumps({**base, "template_weights": None}), encoding="utf-8")
    assert load_grammar(path) == Grammar(language="toy", consonants=("p",), vowels=("a",))


def test_load_grammar_roundtrip(tmp_path):
    path = tmp_path / "grammar.json"
    path.write_text(
        '{"language": "toy", "consonants": ["p", "t"], "vowels": ["a"],'
        ' "templates": ["CV"], "min_syllables": 2, "max_syllables": 3}',
        encoding="utf-8",
    )
    g = load_grammar(path)
    assert g.language == "toy"
    assert g.consonants == ("p", "t")
    with pytest.raises(InvalidGrammarError):
        path.write_text('{"language": "toy"}', encoding="utf-8")
        load_grammar(path)


def test_load_grammar_takes_defaults_from_grammar_and_rejects_unknown_keys(tmp_path):
    path = tmp_path / "grammar.json"
    path.write_text('{"language": "toy", "consonants": ["p"], "vowels": ["a"]}', encoding="utf-8")
    assert load_grammar(path) == Grammar(language="toy", consonants=("p",), vowels=("a",))
    # misspelt keys are not dropped in favour of the defaults
    path.write_text(
        '{"language": "toy", "consonants": ["p"], "vowels": ["a"],'
        ' "max_syllable": 1, "template": ["CV"]}',
        encoding="utf-8",
    )
    with pytest.raises(InvalidGrammarError, match=r"\['max_syllable', 'template'\]"):
        load_grammar(path)


@pytest.fixture(scope="module")
def labeled_vocab():
    return generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 30, 8, seed=5)


def test_stratified_sample_preserves_proportions(labeled_vocab):
    import random

    sample = stratified_sample(labeled_vocab, 0.5, random.Random(0))
    natives = sum(1 for e in sample if e.gold_label == 0)
    loans = sum(1 for e in sample if e.gold_label == 1)
    assert natives == 15 and loans == 4
    assert stratified_sample(labeled_vocab, 1.0, random.Random(0)) is labeled_vocab
    with pytest.raises(ValueError):
        stratified_sample(labeled_vocab, 0.0, random.Random(0))


def test_proportion_experiment_determinism_and_identity(labeled_vocab):
    cfg = RunConfig()
    rows1 = run_proportion_experiment(labeled_vocab, cfg, (0.5, 1.0), seed=11)
    rows2 = run_proportion_experiment(labeled_vocab, cfg, (0.5, 1.0), seed=11)
    assert [(p, r.f1) for p, r in rows1] == [(p, r.f1) for p, r in rows2]
    # proportion 1.0 equals a plain full run
    _, labels, _ = detect_wordlist(labeled_vocab, cfg)
    full = evaluate_wordlist(labeled_vocab, labels)
    assert rows1[1][1].f1 == pytest.approx(full.f1)


def test_proportion_experiment_requires_gold():
    from loandetect.wordlist import strip_gold

    blind = strip_gold(generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 5, 2, seed=1))
    with pytest.raises(NoGoldLabelsError):
        run_proportion_experiment(blind, RunConfig(), (1.0,), seed=0)


def test_run_ablations_contract(labeled_vocab):
    reports = run_ablations(labeled_vocab, RunConfig())
    assert set(reports) == {"full", "no_ngram", "no_transition", "aug"}
    totals = {mode: r.total for mode, r in reports.items()}
    assert len(set(totals.values())) == 1  # identical word counts
