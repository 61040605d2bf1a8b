import importlib.util
import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

CORPUS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


@pytest.fixture(scope="module")
def corpus():
    """The benchmark's corpus generator, ``perfbench/corpus.py``, loaded read-only."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
