"""Acceptance suite: one test per release criterion, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines. Fixture seeds and expected bands were established by oracle runs
(see tests/fixtures.py) before the assertions were frozen.
"""

import random
import time

import pytest

from loandetect.config import RunConfig
from loandetect.crossling import (
    align,
    build_context_model,
    classify,
    composite,
    detect_scaled,
    dynamic_threshold,
)
from loandetect.evaluation import (
    evaluate,
    evaluate_wordlist,
    generate_synthetic,
    generate_synthetic_multilingual,
    run_ablations,
)
from loandetect.features import CompiledGroup, build_statistics
from loandetect.ipa import GAP, symbol_distance
from loandetect.refiner import detect, detect_wordlist
from loandetect.scoring import score_all
from loandetect.wordlist import LexicalEntry, Wordlist

import oracles
from fixtures import (
    DONOR_GRAMMAR,
    NATIVE_GRAMMAR,
    SCALED_INTEGRATION,
    SCALED_SEED,
    SEPARABLE_SEED,
    extract_against,
    ngram_count,
    ngram_signal_fixture,
    transition_signal_fixture,
)


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


# --- criterion 1: metric oracle against reported benchmark rows -----------------

# (label, tp, fp, tn, fn, precision, recall, f1) as printed in the
# six-language benchmark summary tables.
BENCHMARK_ROWS = [
    ("basic", 1400, 822, 2286, 584, 0.63, 0.71, 0.67),
    ("ngram_ablated", 336, 229, 2879, 1648, 0.59, 0.17, 0.26),
    # the reported recall cell of this row (0.51) contradicts its own
    # counts; it is asserted separately below
    ("transition_ablated_pr_f1", 1001, 508, 2600, 983, 0.66, None, 0.57),
    ("augmented", 1151, 638, 2473, 833, 0.64, 0.58, 0.61),
    ("stem_diversity_baseline", 717, 1119, 1989, 1267, 0.39, 0.36, 0.38),
    ("english", 378, 86, 337, 36, 0.81, 0.91, 0.86),
    ("german", 347, 174, 328, 35, 0.67, 0.91, 0.77),
    ("portuguese", 299, 208, 304, 33, 0.59, 0.90, 0.71),
    ("spanish", 285, 235, 297, 26, 0.55, 0.92, 0.69),
    ("french", 247, 185, 364, 45, 0.57, 0.85, 0.68),
    ("italian", 243, 286, 304, 10, 0.46, 0.96, 0.62),
    ("aggregated", 1799, 1174, 1934, 185, 0.61, 0.91, 0.73),
]


def _evaluate_counts(tp, fp, tn, fn):
    predictions = [1] * (tp + fp) + [0] * (tn + fn)
    gold = [1] * tp + [0] * fp + [0] * tn + [1] * fn
    return evaluate(predictions, gold)


def test_acceptance_1_metric_oracle():
    start = time.perf_counter()
    for label, tp, fp, tn, fn, p, r, f1 in BENCHMARK_ROWS:
        report = _evaluate_counts(tp, fp, tn, fn)
        assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn), label
        assert round(report.precision, 2) == p, label
        if r is not None:
            assert round(report.recall, 2) == r, label
        assert round(report.f1, 2) == f1, label
    # aggregated row equals the sum of the per-language rows
    per_language = BENCHMARK_ROWS[5:11]
    sums = tuple(sum(row[i] for row in per_language) for i in (1, 2, 3, 4))
    assert sums == (1799, 1174, 1934, 185)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_line("1 metric-oracle", True, f"{elapsed:.3f}s, 12 rows")


def test_acceptance_1_reported_recall_inconsistent_cell():
    """The remaining benchmark cell, asserted exactly as reported.

    The reported recall for the transition-ablated row is 0.51, but the
    row's own counts give 1001/(1001+983) = 0.504536..., which rounds to
    0.50 (the row's reported F1 0.57 is only consistent with the computed
    0.50 recall, confirming the 0.51 cell is a misprint). The assertion
    keeps the reported value and therefore fails, documenting the
    discrepancy rather than hiding it.
    """
    report = _evaluate_counts(1001, 508, 2600, 983)
    ok = round(report.recall, 2) == 0.51
    report_line(
        "1 metric-oracle (reported-recall cell)",
        ok,
        f"computed {report.recall:.6f} -> {round(report.recall, 2):.2f}, reported 0.51",
    )
    assert ok, (
        f"reported recall 0.51 vs computed {report.recall:.6f} "
        f"(= {round(report.recall, 2):.2f} at 2 decimals)"
    )


# --- criterion 2: feature oracle equivalence ------------------------------------


def test_acceptance_2_feature_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240501)
    cfg = RunConfig()
    symbols = ["p", "t", "k", "m", "n", "s", "l", "a", "i", "u", "e", "o"]
    for _ in range(200):
        vocab = [
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 20))
        ]
        stats = build_statistics(CompiledGroup(vocab))
        probs = oracles.bf_ngram_probs(vocab)
        trans = oracles.bf_transition_probs(vocab)
        assert ngram_count(stats) == oracles.bf_ngram_counts(vocab)
        mean, std = oracles.bf_length_stats(vocab)
        assert abs(stats.length_mean - mean) < 1e-9
        assert abs(stats.length_std - std) < 1e-9
        for g, p_expected in probs.items():
            assert abs(stats.ngram_prob[g] - p_expected) < 1e-9
        for t, p_expected in trans.items():
            assert abs(stats.trans_prob[t] - p_expected) < 1e-9
        columns = extract_against(vocab, vocab, cfg)
        for i, w in enumerate(vocab):
            assert abs(
                columns["rare_ngram_score"][i]
                - oracles.bf_rare_ngram_score(w, probs, 0.005, 0.02, 100.0, 20.0)
            ) < 1e-9
            assert abs(
                columns["ngram_entropy"][i] - oracles.bf_ngram_entropy(w, probs)
            ) < 1e-9
            assert abs(
                columns["rare_transition_score"][i]
                - oracles.bf_rare_transition_score(w, trans)
            ) < 1e-9
            assert abs(
                columns["trans_entropy"][i] - oracles.bf_transition_entropy(w, trans)
            ) < 1e-9
            assert abs(
                columns["avg_trans_prob"][i] - oracles.bf_avg_transition_prob(w, trans)
            ) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_line("2 feature-oracle", True, f"{elapsed:.1f}s, 200 vocabularies")


# --- criterion 3: alignment oracle ----------------------------------------------


def test_acceptance_3_alignment_oracle():
    start = time.perf_counter()
    rng = random.Random(314159)
    symbols = ["p", "b", "t", "d", "k", "s", "m", "n", "a", "i", "u", "ø"]
    gap = 0.5

    def column_score(a, b):
        return 1.0 - symbol_distance(a, b)

    for _ in range(500):
        x = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6)))
        y = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6)))
        al = align(x, y, gap)
        assert abs(
            oracles.bf_column_score_sum(al.pairs, column_score, gap, GAP)
            - oracles.bf_best_alignment_score(x, y, column_score, gap)
        ) < 1e-9
        assert oracles.bf_tracks(al.pairs, GAP) == (x, y)
    for _ in range(50):
        w = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 6)))
        model = build_context_model({"w": [w, w]}, RunConfig(gap_penalty=gap))
        assert model.rows["w"][0][0][0] == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_line("3 alignment-oracle", True, f"{elapsed:.1f}s, 500 pairs")


# --- criterion 4: pipeline convergence and state invariants ----------------------


def _invariant_check(vocab, cfg):
    state = detect(vocab, cfg)
    n = len(vocab)
    assert len(state.snapshots) <= cfg.max_iterations
    assert state.iteration <= cfg.max_iterations - 1
    running = [[] for _ in range(n)]
    for snap in state.snapshots:
        for i in range(n):
            running[i].append(snap.probabilities[i])
        natives = set(range(n)) - set(snap.loans)
        assert set(snap.loans) | natives == set(range(n))
        assert not (set(snap.loans) & natives)
        for i in range(n):
            mean = sum(running[i]) / len(running[i])
            assert abs(snap.averaged[i] - mean) < 1e-12
            assert (i in snap.loans) == (snap.averaged[i] >= cfg.tau)
    return state


def test_acceptance_4_pipeline_convergence():
    cfg = RunConfig()
    assert cfg.max_iterations == 7
    vocabularies = [
        generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 40, 10, SEPARABLE_SEED),
        ngram_signal_fixture(7),
        transition_signal_fixture(7),
        Wordlist(
            [
                LexicalEntry("a", ("a",), "edge", "noun", None, None),
                LexicalEntry("pa", ("p", "a"), "edge", "verb", None, None),
                LexicalEntry("zdri", ("z", "d", "r", "i"), "edge", "noun", None, None),
            ]
        ),
        Wordlist([LexicalEntry("pa", ("p", "a"), "single", "noun", None, None)]),
    ]
    checked = 0
    for vocab in vocabularies:
        for tau in (0.1, 0.3, 0.7):
            _invariant_check(vocab, RunConfig(tau=tau))
            checked += 1
    report_line("4 convergence", True, f"{checked} runs, all within 7 passes")


# --- criterion 5: synthetic separability ------------------------------------------


def test_acceptance_5_synthetic_separability():
    start = time.perf_counter()
    cfg = RunConfig()

    # frozen 40-native/10-loan disjoint-inventory fixture
    basic_fixture = generate_synthetic(
        NATIVE_GRAMMAR, DONOR_GRAMMAR, 40, 10, SEPARABLE_SEED
    )
    _, labels, _ = detect_wordlist(basic_fixture, cfg)
    basic_report = evaluate_wordlist(basic_fixture, labels)
    ok_basic = basic_report.recall >= 0.8 and basic_report.f1 >= 0.7

    # two-language version with cross-linguistically similar loans
    multi = generate_synthetic_multilingual(
        NATIVE_GRAMMAR, DONOR_GRAMMAR, 40, 10, SCALED_SEED,
        integration=SCALED_INTEGRATION,
    )
    _, basic_labels, _ = detect_wordlist(multi, cfg)
    scaled = detect_scaled(multi, cfg)
    recipient = [i for i, e in enumerate(multi) if e.language == "reca"]
    gold = [multi.entries[i].gold_label for i in recipient]
    basic_r = evaluate([basic_labels[i] for i in recipient], gold).recall
    scaled_r = evaluate([scaled.predicted[i] for i in recipient], gold).recall
    ok_scaled = scaled_r >= basic_r

    # constants declared empirical are config-exposed; sweep them for
    # well-formedness of the scaled outputs
    for lam in (0.0, 0.5, 1.0):
        for beta in (0.0, 0.2):
            sweep_cfg = cfg.with_overrides(
                {"divergence_lambda": lam, "threshold_beta": beta}
            )
            result = detect_scaled(multi, sweep_cfg)
            assert all(0.0 <= s <= 1.0 for s in result.composite)
            assert all(label in (0, 1) for label in result.predicted)

    elapsed = time.perf_counter() - start
    ok = ok_basic and ok_scaled and elapsed < 10.0
    report_line(
        "5 separability",
        ok,
        f"basic R={basic_report.recall:.2f} F1={basic_report.f1:.2f}; "
        f"scaled R={scaled_r:.2f} >= basic R={basic_r:.2f}; {elapsed:.1f}s",
    )
    assert basic_report.recall >= 0.8
    assert basic_report.f1 >= 0.7
    assert scaled_r >= basic_r
    assert elapsed < 10.0


# --- criterion 6: ablation direction ----------------------------------------------


@pytest.mark.parametrize("seed", [7, 11, 2024])
def test_acceptance_6_ngram_ablation_direction(seed):
    fixture = ngram_signal_fixture(seed)
    reports = run_ablations(fixture, RunConfig())
    ok = reports["no_ngram"].f1 < reports["full"].f1
    report_line(
        "6 ablation-direction (n-gram fixture)",
        ok,
        f"seed {seed}: F1 no_ngram={reports['no_ngram'].f1:.3f} "
        f"< full={reports['full'].f1:.3f}",
    )
    assert ok


@pytest.mark.parametrize("seed", [7, 11, 42])
def test_acceptance_6_transition_ablation_direction(seed):
    fixture = transition_signal_fixture(seed)
    reports = run_ablations(fixture, RunConfig())
    ok = reports["no_transition"].f1 < reports["full"].f1
    report_line(
        "6 ablation-direction (transition fixture)",
        ok,
        f"seed {seed}: F1 no_transition={reports['no_transition'].f1:.3f} "
        f"< full={reports['full'].f1:.3f}",
    )
    assert ok


def test_acceptance_6_gated_full_dataset():
    """Gated check against the full curated six-language dataset.

    The dataset is not shipped; point LOANDETECT_DATASET at a standard
    TSV wordlist (orthography/ipa/language/pos/label columns) to enable
    it. Expected: pooled per-language detection lands within +-0.05 F1 of
    the reported 0.67.
    """
    import os

    from loandetect.wordlist import load_wordlist

    path = os.environ.get("LOANDETECT_DATASET")
    if not path:
        pytest.skip("LOANDETECT_DATASET not set; full-dataset check gated off")
    vocab = load_wordlist(path, lenient_pos=True)
    _, labels, _ = detect_wordlist(vocab, RunConfig())
    report = evaluate_wordlist(vocab, labels)
    report_line("6 gated full-dataset", abs(report.f1 - 0.67) <= 0.05,
                f"F1={report.f1:.3f}")
    assert abs(report.f1 - 0.67) <= 0.05


# --- criterion 7: reduction identities --------------------------------------------


def test_acceptance_7_reduction_identities():
    # (a) one pass, no pattern refinement == score_all + threshold
    fixture = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 20, 5, seed=12)
    cfg = RunConfig(max_iterations=1, pattern_refinement=False)
    state = detect(fixture, cfg)
    words = [e.ipa for e in fixture]
    vectors = extract_against(words, words, cfg)
    expected, _ = score_all(vectors, [e.pos for e in fixture], cfg)
    assert state.averaged == pytest.approx(expected, abs=1e-12)
    assert state.loans == {i for i, p in enumerate(expected) if p >= cfg.tau}

    # (b) beta = 0 with C = 1 - B reduces to the fixed threshold rule
    for b in (0.0, 0.15, 0.299, 0.3, 0.75, 1.0):
        c = 1.0 - b
        s = composite(b, c, 1.0, 1.0)
        theta = dynamic_threshold(b, c, alpha=0.3, beta=0.0)
        assert classify(s, theta) == int(b >= 0.3)

    # (c) composite with C = 1 - B returns S = B for any weights
    for b in (0.0, 0.2, 0.5, 0.9, 1.0):
        for w1, w2 in ((1.0, 1.0), (2.0, 1.0), (0.3, 0.7)):
            assert composite(b, 1.0 - b, w1, w2) == pytest.approx(b, abs=1e-12)

    report_line("7 reduction-identities", True)


# --- criterion 8: determinism -------------------------------------------------------


def test_acceptance_8_byte_identical_outputs(tmp_path):
    import json

    from loandetect.cli import main
    from loandetect.wordlist import write_wordlist

    vocab = generate_synthetic(NATIVE_GRAMMAR, DONOR_GRAMMAR, 20, 6, seed=3)
    vocab_path = tmp_path / "words.tsv"
    write_wordlist(vocab, vocab_path)
    multi = generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 10, 4, seed=3)
    multi_path = tmp_path / "multi.tsv"
    write_wordlist(multi, multi_path)
    native_g = tmp_path / "native.json"
    donor_g = tmp_path / "donor.json"
    native_g.write_text(
        json.dumps({"language": "reca", "consonants": ["p", "t", "k"],
                    "vowels": ["a", "i", "u"], "templates": ["CV"],
                    "min_syllables": 2, "max_syllables": 3}),
        encoding="utf-8",
    )
    donor_g.write_text(
        json.dumps({"language": "donb", "consonants": ["b", "d", "z"],
                    "vowels": ["ø", "y"], "templates": ["CVC", "CV"],
                    "min_syllables": 3, "max_syllables": 4}),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.tsv"
    main(["detect", "--input", str(vocab_path), "--output", str(report_path)])

    commands = {
        "detect": lambda out: [
            "detect", "--input", str(vocab_path), "--output", out,
        ],
        "detect-xl": lambda out: [
            "detect-xl", "--input", str(multi_path), "--output", out,
        ],
        "eval": lambda out: [
            "eval", "--input", str(report_path), "--output", out,
        ],
        "ablate": lambda out: [
            "ablate", "--input", str(vocab_path), "--output", out,
        ],
        "experiment": lambda out: [
            "experiment", "--input", str(vocab_path), "--output", out,
            "--seed", "5", "--proportions", "0.5,1.0",
        ],
        "synth": lambda out: [
            "synth", "--native-grammar", str(native_g), "--donor-grammar",
            str(donor_g), "--n-native", "10", "--n-loans", "4",
            "--seed", "7", "--output", out,
        ],
    }
    all_ok = True
    for name, build in commands.items():
        outputs = []
        for run in range(3):
            out = tmp_path / f"{name}.{run}.out"
            code = main(build(str(out)))
            assert code == 0, name
            outputs.append(out.read_bytes())
        identical = outputs[0] == outputs[1] == outputs[2]
        all_ok = all_ok and identical
        assert identical, f"{name} outputs differ across repeated runs"
    report_line("8 determinism", all_ok, "6 commands x 3 runs")
