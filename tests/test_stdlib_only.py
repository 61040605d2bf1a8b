"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import loandetect


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
