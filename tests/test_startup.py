"""scipy is loaded only when a ladder is solved.

Every CLI call pays its imports before any work starts, and only the
Numerov sweep needs scipy (LAPACK dtbtrs).  The subprocess checks a fresh
interpreter, where nothing else has imported scipy yet.
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
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert cli.main(["theta-sweep", "--config", sys.argv[1], "--out", sys.argv[3]]) == 0
print("after theta-sweep:", loaded())
assert cli.main(["ladder", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
print("after ladder:", loaded())
"""


def test_scipy_loads_only_with_the_ladder(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(GOLDEN / "theta-sweep.run"),
         str(GOLDEN / "ladder.run"), str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                 if line.startswith("after "))
    assert lines["after theta-sweep"] == "[]"
    assert "'scipy.linalg.lapack'" in lines["after ladder"]


def test_solve_banded_shim_resolves_only_that_name():
    assert hyperradial.solve_banded is scipy.linalg.solve_banded
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperradial.no_such_name  # noqa: B018
