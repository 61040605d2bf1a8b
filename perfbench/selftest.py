"""Self-test of the benchmark: a small-size smoke run of every workload, and
proof that the report checks catch a flipped label, a dropped row and a
perturbed comparability value.

    python3 perfbench/selftest.py

Takes about half a minute; exits 0 when every assertion holds.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from corpus import WORKLOADS, generate, write_tsv  # noqa: E402

SCALE = 0.05
SEED = 11


def smoke(work_root: Path) -> None:
    for workload in WORKLOADS:
        for traced in (False, True):
            result = run.run_workload(workload, SEED, 0, traced, SCALE, work_root)
            names = run.PER_LAYER if traced else run.END_TO_END
            assert result["correct"] and result["failed"] == 0, (workload, traced, result)
            assert set(result["metrics"]) == set(names), (workload, traced)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if not traced:
                assert all(v > 0 for v in m.values()), (workload, m)
                continue
            groups = {"mono": 1, "xl": 4}[workload]
            assert m["refiner.detect.calls"] == groups, (workload, m["refiner.detect.calls"])
            crossling = [k for k in m if k.startswith("crossling.")] + ["ipa.symbol_distance.calls"]
            if workload == "xl":
                assert all(m[k] > 0 for k in crossling), m
            else:
                assert all(m[k] == 0 for k in crossling), (workload, m)
            print(f"smoke {workload} traced={traced}: ok")


def _one_report(workload: str, work_root: Path):
    entries = generate(workload, SEED, SCALE)
    work = work_root / f"corrupt-{workload}"
    work.mkdir(parents=True)
    write_tsv(entries, work / "input.tsv")
    report = work / "report.tsv"
    run._run_child(work, workload, False, report)
    return entries, report.read_text(encoding="utf-8")


def _edit(text: str, pick, change) -> str:
    """Apply ``change`` to the first data row (a dict) for which ``pick`` holds."""
    lines = text.split("\n")
    start = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    header = lines[start].split("\t")
    for i in range(start + 1, len(lines)):
        if not lines[i]:
            continue
        row = dict(zip(header, lines[i].split("\t")))
        if pick(row):
            change(row)
            lines[i] = "\t".join(row[c] for c in header)
            return "\n".join(lines)
    raise AssertionError("no row to corrupt")


def _flip(row: dict) -> None:
    row["predicted_label"] = str(1 - int(row["predicted_label"]))


def _drop_last_row(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    return "\n".join(lines[:-1]) + "\n"


def corruptions(work_root: Path) -> None:
    for workload in ("mono", "xl"):
        entries, text = _one_report(workload, work_root)
        scaled = workload == "xl"
        failures, _ = checks.check_report(entries, text, scaled)
        assert not failures, failures
        tau = float(checks.parse_report(text)[0]["tau"])
        if scaled:
            clear = lambda r: r["C"] != "" and abs(float(r["S"]) - float(r["theta"])) > 0.01  # noqa: E731
        else:
            clear = lambda r: abs(float(r["probability"]) - tau) > 0.01  # noqa: E731
        bad = {
            "flipped label": _edit(text, clear, _flip),
            "dropped row": _drop_last_row(text),
        }
        if scaled:
            bad["perturbed C"] = _edit(
                text,
                lambda r: r["C"] not in ("", "0.000000", "1.000000"),
                lambda r: r.update(C=f"{float(r['C']) * 0.5:.6f}"),
            )
        for name, corrupted in bad.items():
            failures, _ = checks.check_report(entries, corrupted, scaled)
            assert failures, f"{workload}: {name} was not caught"
            print(f"corruption {workload} {name}: caught ({failures[0]})")


def main() -> int:
    if not run.SRC.joinpath("loandetect", "__init__.py").is_file():
        print(f"error: no loandetect package under {run.SRC}", file=sys.stderr)
        return 2
    work_root = run.HERE / "_work" / f"selftest-{os.getpid()}"
    work_root.mkdir(parents=True)
    try:
        corruptions(work_root)
        smoke(work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
