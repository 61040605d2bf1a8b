"""The runtime imports nothing outside the standard library, and a
detection run imports nothing it does not use."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loandetect
from loandetect.evaluation import generate_synthetic_multilingual
from loandetect.wordlist import write_wordlist

from fixtures import DONOR_GRAMMAR, NATIVE_GRAMMAR


def test_package_imports_only_stdlib():
    package = Path(loandetect.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "loandetect" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {module}")
    assert foreign == []


# the layers that compute a detection; only wordlist and cli write files
DETECTION_LAYERS = ("features", "scoring", "refiner", "crossling", "baseline", "ipa")


@pytest.mark.parametrize("layer", DETECTION_LAYERS)
def test_detection_layers_write_no_files(layer):
    path = Path(loandetect.__file__).parent / f"{layer}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            modules, names = [node.module or ""], [alias.name for alias in node.names]
        elif isinstance(node, ast.Call):
            modules, names = [], [getattr(node.func, "id", getattr(node.func, "attr", ""))]
        else:
            continue
        found += [f"line {node.lineno}: {module}" for module in modules
                  if module.split(".")[0] in ("os", "pathlib")]
        found += [f"line {node.lineno}: {name}" for name in names
                  if name == "open" or name.startswith("write_")]
    assert found == []


def _fresh_process(script: str) -> object:
    """Run ``script`` in a fresh interpreter, with ``loaded()`` naming the
    loandetect modules imported so far; return what it prints as JSON."""
    src = str(Path(loandetect.__file__).resolve().parent.parent)
    prelude = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('loandetect'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prelude + script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_evaluation_baseline_or_cli():
    loaded, unresolved = _fresh_process(
        "import loandetect\n"
        "print(json.dumps([loaded(), [n for n in loandetect.__all__ if not hasattr(loandetect, n)]]))\n"
    )
    assert "loandetect" in loaded
    assert not {"loandetect.evaluation", "loandetect.baseline", "loandetect.cli"} & set(loaded)
    assert unresolved == []


@pytest.mark.parametrize("command", ["detect", "detect-xl"])
def test_cli_detection_loads_no_evaluation_or_baseline(command, tmp_path):
    source = tmp_path / "multi.tsv"
    write_wordlist(
        generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 12, 4, seed=3), source
    )
    argv = [command, "--input", str(source), "--output", str(tmp_path / "r.tsv")]
    code, loaded = _fresh_process(
        "from loandetect.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, loaded()]))\n"
    )
    assert code == 0
    assert "loandetect.refiner" in loaded
    assert not {"loandetect.evaluation", "loandetect.baseline"} & set(loaded)


# what importing dataclasses brings in and a bare interpreter does not load
DATACLASS_MODULES = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter with the same flags and environment loads."""
    return set(_fresh_process("print(json.dumps(sorted(sys.modules)))"))


@pytest.mark.parametrize(
    "command", [["detect"], ["detect", "--model", "uns"], ["detect-xl"]], ids=" ".join
)
def test_cli_detection_loads_no_dataclasses(command, bare_modules, tmp_path):
    source = tmp_path / "multi.tsv"
    write_wordlist(
        generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 12, 4, seed=3), source
    )
    argv = command + ["--input", str(source), "--output", str(tmp_path / "r.tsv")]
    code, modules = _fresh_process(
        "from loandetect.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    assert code == 0
    assert "loandetect.crossling" in modules
    assert DATACLASS_MODULES & (set(modules) - bare_modules) == set()


@pytest.fixture(scope="module")
def benchmark_modules(tmp_path_factory):
    """The modules loaded by the calls of the benchmark's child process:
    import, load, detect, write."""
    tmp_path = tmp_path_factory.mktemp("benchmark")
    source = tmp_path / "multi.tsv"
    write_wordlist(
        generate_synthetic_multilingual(NATIVE_GRAMMAR, DONOR_GRAMMAR, 12, 4, seed=3), source
    )
    basic, scaled = tmp_path / "basic.tsv", tmp_path / "scaled.tsv"
    modules = _fresh_process(
        "import loandetect\n"
        "from loandetect import RunConfig, detect_scaled, detect_wordlist, load_wordlist\n"
        "from loandetect.wordlist import write_report, write_scaled_report\n"
        f"vocab = load_wordlist({str(source)!r})\n"
        "cfg = RunConfig(convergence_fraction=0.0)\n"
        "meta = cfg.to_flat()\n"
        "probs, labels, states = detect_wordlist(vocab, cfg)\n"
        f"write_report(vocab, probs, labels, {str(basic)!r}, header_meta=meta)\n"
        "r = detect_scaled(vocab, cfg)\n"
        "write_scaled_report(vocab, r.basic, r.comparability, r.composite, r.thresholds,\n"
        f"                    r.predicted, {str(scaled)!r}, header_meta=meta)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert basic.exists() and scaled.exists()
    assert {"loandetect.refiner", "loandetect.crossling"} <= set(modules)
    return set(modules)


def test_benchmark_calls_load_no_dataclasses(bare_modules, benchmark_modules):
    assert DATACLASS_MODULES & (benchmark_modules - bare_modules) == set()


# what importing logging brings in and a bare interpreter does not load
LOGGING_MODULES = {"logging", "traceback"}


def test_package_import_loads_no_logging(bare_modules):
    modules = _fresh_process("import loandetect\nprint(json.dumps(sorted(sys.modules)))\n")
    assert "loandetect.crossling" in modules
    assert LOGGING_MODULES & (set(modules) - bare_modules) == set()


def test_benchmark_calls_load_no_logging(bare_modules, benchmark_modules):
    assert LOGGING_MODULES & (benchmark_modules - bare_modules) == set()
