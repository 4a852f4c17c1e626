"""Every demo script runs to completion and prints its recorded output.

The demos are deterministic and print no paths, so each one's stdout is
compared byte for byte with tests/demo_output/<demo>.txt.  After a change
that is meant to alter a demo's output, regenerate its file with
`PYTHONPATH=src python demos/<demo>.py > tests/demo_output/<demo>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_present():
    assert len(DEMOS) >= 5
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()


def test_readme_library_tour_runs():
    """The README's one python block, the library tour, runs as written."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    tour = blocks[0].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", tour], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
