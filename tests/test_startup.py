"""scipy is loaded only when a ladder is solved, and numpy.ma never by
the root finders.

Every CLI call pays its imports before any work starts, and only the
Numerov sweep needs scipy (LAPACK dtbtrs).  numpy.ma costs about 12 ms and
1.8 MB when something imports it lazily (np.unique does).  The subprocess
checks a fresh interpreter, where nothing else has imported either yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg

from spinor_efimov import hyperradial

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

_PROBE = """
import sys
from spinor_efimov import cli

def loaded():
    return sorted(m for m in sys.modules
                  if m in ("scipy", "numpy.ma") or m.startswith("scipy."))

out = sys.argv[-1]
for task, config in zip(sys.argv[1:-1:2], sys.argv[2:-1:2]):
    assert cli.main([task, "--config", config, "--out", out]) == 0
    print(f"after {task}:", loaded())
"""

#: the solver tasks first, in one process, then the ladder
_TASKS = ("theta-sweep", "r-sweep", "invariance-suite", "ladder")


def test_scipy_loads_only_with_the_ladder(tmp_path):
    """After the theta sweep, the finite-mode r-sweep and the invariance
    suite (the inertia counts included) neither scipy nor numpy.ma is
    loaded; the ladder then loads scipy's LAPACK, but not scipy.special
    (the deepest level's guess takes arg Gamma from a Stirling series)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    args = [a for task in _TASKS for a in (task, str(GOLDEN / f"{task}.run"))]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *args, str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                 if line.startswith("after "))
    assert list(lines) == [f"after {task}" for task in _TASKS]
    for task in _TASKS[:-1]:
        assert lines[f"after {task}"] == "[]", task
    assert "'scipy.linalg.lapack'" in lines["after ladder"]
    assert "'scipy.special" not in lines["after ladder"]


def test_solve_banded_shim_resolves_only_that_name():
    assert hyperradial.solve_banded is scipy.linalg.solve_banded
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperradial.no_such_name  # noqa: B018
