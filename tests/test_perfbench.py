"""The benchmark's traced round runs clean on the current code.

``perfbench/child.py`` wraps layer functions under the names their callers
use (``crossling.align``, ``crossling.symbol_distance``,
``wordlist.tokenize``, the ``refiner`` stages, ...) and checks the
statistics and alignments it sees against plain recomputations. A renamed
function or a changed call path fails a traced round, so one small round
of each workload runs here, through ``perfbench/run.py`` as it stands.
"""

import importlib.util
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["mono", "xl"])
def test_traced_round_runs_clean(bench, workload, tmp_path):
    result = bench.run_workload(workload, 11, 0, True, 0.05, tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    assert set(result["metrics"]) == set(bench.PER_LAYER)
