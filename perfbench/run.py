"""Benchmark of `loandetect detect` and `detect-xl` on generated corpora.

    python3 perfbench/run.py --workload mono --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

The corpus is generated from the seed (corpus.py) and written as a TSV;
the program sees only that file. Each round is one detection run in a
fresh Python process (child.py); rounds repeat until ``--seconds`` have
passed, and every round's report is checked (checks.py). With
``--trace 0`` the end-to-end metrics are the middle means over the rounds; with
``--trace 1`` the rounds are traced and the per-layer metrics come from
their spans. Times and rates are reported at a reference host speed
(calibrate.py); their wall-clock values go to stderr. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from calibrate import REFERENCE_S, mix_seconds  # noqa: E402
from corpus import WORKLOADS, generate, write_tsv  # noqa: E402
from tracing import summarize  # noqa: E402

CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "detect_s": "s",
    "words_per_s": "entries/s",
    "peak_rss_mb": "MiB",
    "f1": "ratio",
}

# per-layer metric -> unit; *.s are summed span times, *.calls call counts
PER_LAYER = {
    "wordlist.load_wordlist.s": "s",
    "ipa.tokenize.calls": "count",
    "wordlist.write_report.s": "s",
    "wordlist.report.bytes": "bytes",
    "features.build_statistics.s": "s",
    "features.build_statistics.calls": "count",
    "features.extract_all.s": "s",
    "features.extract_all.calls": "count",
    "features.word_ngrams.calls": "count",
    "features.word_ngrams.useful_ratio": "ratio",
    "scoring.score_all.s": "s",
    "scoring.score_all.calls": "count",
    "refiner.detect.s": "s",
    "refiner.detect.self_s": "s",
    "refiner.detect.calls": "count",
    "refiner.passes": "count",
    "refiner.build_pattern_db.s": "s",
    "refiner.pattern_likeness.s": "s",
    "refiner.pattern_likeness.calls": "count",
    "crossling.detect_scaled.s": "s",
    "crossling.build_context_model.s": "s",
    "crossling.comparability.s": "s",
    "crossling.align.s": "s",
    "crossling.align.calls": "count",
    "crossling.align.useful_ratio": "ratio",
    "crossling.fallback_concepts": "count",
    "ipa.symbol_distance.calls": "count",
    "traced.detect_s": "s",
}


class RoundFailed(Exception):
    pass


def _run_child(work: Path, workload: str, traced: bool, report: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--src", str(SRC),
        "--input", str(work / "input.tsv"),
        "--output", str(report),
    ]
    if workload == "xl":
        cmd.append("--scaled")
    if traced:
        cmd += ["--spans", str(work / "spans.json"), "--tokens", str(work / "tokens.json")]
    # PYTHONHASHSEED is pinned: with string hashing randomized per process,
    # refiner.pattern_likeness sums over a set in a different order each run
    # and a few labels flip between runs of the same input
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"detection run exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RoundFailed(f"detection run exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RoundFailed(f"detection run printed no result: {exc}") from exc


def _layer_metrics(work: Path, result: dict, report_bytes: int) -> dict[str, float]:
    payload = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    flat = summarize(payload)
    extra = payload["extra"]
    out = {name: float(flat.get(name, 0.0)) for name in PER_LAYER}
    ngram_calls = flat.get("features.word_ngrams.calls", 0)
    align_calls = flat.get("crossling.align.calls", 0)
    out.update({
        "wordlist.report.bytes": float(report_bytes),
        "features.word_ngrams.useful_ratio":
            flat.get("features.word_ngrams.distinct", 0) / ngram_calls if ngram_calls else 0.0,
        "refiner.passes": float(extra.get("passes", 0)),
        "crossling.align.useful_ratio":
            extra.get("align_pairs", 0) / align_calls if align_calls else 0.0,
        "crossling.fallback_concepts": float(extra.get("fallback_concepts", 0)),
        "traced.detect_s": result["detect_s"],
    })
    return out


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean).

    Like a median it drops the rounds whose reference mix ran in a short
    fast or slow burst of the host, but it averages the rounds it keeps,
    so it moves less from run to run than a median of 11 to 17 rounds.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


# how a round's value scales with the host speed: times with it, rates against it
_SCALED = {"s": 1, "entries/s": -1}


def _at_reference(sample: dict[str, float], units: dict[str, str], speed: float) -> dict[str, float]:
    """A round's values as they would read at the reference host speed."""
    return {k: v * speed ** _SCALED.get(units[k], 0) for k, v in sample.items()}


def _expected_fallbacks(entries) -> int:
    languages: dict[str, set[str]] = {}
    for e in entries:
        languages.setdefault(e.concept, set()).add(e.language)
    return sum(1 for langs in languages.values() if len(langs) < 2)


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 scale: float = 1.0, work_root: Path | None = None) -> dict:
    work = (work_root or HERE / "_work") / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(workload, seed, seconds, traced, scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seed, seconds, traced, scale, work: Path) -> dict:
    entries = generate(workload, seed, scale)
    write_tsv(entries, work / "input.tsv")
    if traced:
        tokens = [[e.language, list(e.tokens)] for e in entries]
        (work / "tokens.json").write_text(json.dumps(tokens), encoding="utf-8")
    scaled = workload == "xl"
    units = PER_LAYER if traced else END_TO_END

    samples: list[dict[str, float]] = []
    verdicts: dict[str, tuple[list[str], float]] = {}  # report digest -> checks
    digests: list[str] = []
    walls: list[dict[str, float]] = []  # the same samples before scaling
    speeds: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = last_round = time.perf_counter()
    mix_before = mix_seconds()
    # a round starts only if, lasting as long as the previous one, it ends in time
    while attempted < MIN_ROUNDS or 2 * time.perf_counter() - last_round - start <= seconds:
        last_round = time.perf_counter()
        attempted += 1
        report = work / "report.tsv"
        report.unlink(missing_ok=True)
        try:
            try:
                result = _run_child(work, workload, traced, report)
            finally:
                mix_after = mix_seconds()
            # host speed during the round against the reference (calibrate.py)
            speed = 2 * REFERENCE_S / (mix_before + mix_after)
            mix_before = mix_after
            data = report.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if digest not in verdicts:
                verdicts[digest] = checks.check_report(entries, data.decode("utf-8"), scaled)
            failures, f1 = verdicts[digest]
            failures = failures + result.get("failures", [])
            if digests and digest != digests[0]:
                failures.append("report differs from the first round's report of this seed")
            layer = _layer_metrics(work, result, len(data)) if traced else None
            if scaled and traced and layer["crossling.fallback_concepts"] != _expected_fallbacks(entries):
                failures.append("fallback concepts differ from the single-language concepts")
            if failures:
                raise RoundFailed("; ".join(failures[:5]))
        except (RoundFailed, OSError) as exc:
            failed += 1
            problems.append(str(exc))
            continue
        digests.append(digest)
        wall = layer or {
            "setup_s": result["setup_s"],
            "detect_s": result["detect_s"],
            "words_per_s": result["entries"] / result["total_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "f1": f1,
        }
        walls.append(wall)
        speeds.append(speed)
        samples.append(_at_reference(wall, units, speed))

    metrics = {
        name: {"value": middle_mean([s[name] for s in samples]), "unit": unit}
        for name, unit in units.items()
    } if samples else {}
    for msg in problems:
        print(f"FAILED ROUND: {msg}", file=sys.stderr)
    if samples:
        timed = [n for n, u in units.items() if u in _SCALED]
        print("wall clock, not scaled: " + ", ".join(
            f"{n} {middle_mean([w[n] for w in walls]):.6g}" for n in timed
        ) + f"; host speed {min(speeds):.3f}-{max(speeds):.3f}, "
            f"middle mean {middle_mean(speeds):.3f}", file=sys.stderr)
    return {
        "correct": failed == 0 and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into an exception, so that subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "loandetect" / "__init__.py").is_file():
        print(f"error: no loandetect package under {SRC}", file=sys.stderr)
        return 2
    # the rounds (children inherit this) and the reference mix share one CPU,
    # so that the mix is timed on the CPU whose speed it stands for
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(f"== {workload} (seed {args.seed}): {result['attempted']} runs attempted, "
              f"{result['failed']} failed")
        for name, m in result["metrics"].items():
            print(f"{workload:8s} {name:36s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
