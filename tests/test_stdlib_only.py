"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

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
