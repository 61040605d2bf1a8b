"""Reports keep their bits across the Python versions the package supports.

``pyproject.toml`` allows Python 3.10 and later. ``sum()`` over floats
is compensated from 3.12 on, so ``scoring`` and ``features`` use it only
where its bits do not depend on that. This test runs ``python3.N -m
loandetect detect`` (with ``--trace``) and ``detect-xl`` on small corpora
from the benchmark's generator under every ``python3.10``-``python3.13``
on ``PATH`` that starts and is not this interpreter, plus any named in
``LOANDETECT_PYTHONS`` (paths separated by ``os.pathsep``), and requires
each file to be byte-identical to this interpreter's. It skips when no
other interpreter starts.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import loandetect

SRC = str(Path(loandetect.__file__).resolve().parent.parent)
SCALE = 0.05  # mono: 200 words; xl: 40 concepts over four languages
# an interpreter's own path, or nothing when it is older than 3.10
WHO = "import os, sys; sys.version_info >= (3, 10) and print(os.path.realpath(sys.executable))"


def _others() -> list[str]:
    """Interpreters of 3.10 and later that start and are not this one."""
    named = [shutil.which(f"python3.{minor}") for minor in range(10, 14)]
    named += os.environ.get("LOANDETECT_PYTHONS", "").split(os.pathsep)
    seen = {os.path.realpath(sys.executable)}
    found = []
    for exe in filter(None, named):
        try:
            proc = subprocess.run([exe, "-c", WHO], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        real = proc.stdout.strip()
        if proc.returncode == 0 and real and real not in seen:
            seen.add(real)
            found.append(exe)
    return found


def _outputs(python: str, mono: Path, multi: Path, where: Path) -> dict[str, bytes]:
    """The files ``python`` writes for ``detect`` on ``mono`` and ``detect-xl`` on ``multi``."""
    where.mkdir()
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    runs = [
        ["detect", "--input", str(mono), "--output", str(where / "mono.tsv"),
         "--trace", str(where / "trace.tsv")],
        ["detect-xl", "--input", str(multi), "--output", str(where / "xl.tsv")],
    ]
    for argv in runs:
        proc = subprocess.run(
            [python, "-m", "loandetect", *argv, "--set", "convergence_fraction=0"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, f"{python} {argv[0]}: {proc.stderr}"
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def test_reports_are_identical_under_every_interpreter(corpus, tmp_path):
    others = _others()
    if not others:
        pytest.skip("no other Python 3.10+ interpreter starts")
    mono, multi = tmp_path / "mono_in.tsv", tmp_path / "xl_in.tsv"
    corpus.write_tsv(corpus.generate("mono", 1, SCALE), mono)
    corpus.write_tsv(corpus.generate("xl", 1, SCALE), multi)
    expected = _outputs(sys.executable, mono, multi, tmp_path / "here")
    assert sorted(expected) == ["mono.tsv", "trace.tsv", "xl.tsv"]
    for i, python in enumerate(others):
        assert _outputs(python, mono, multi, tmp_path / f"other{i}") == expected, python
