"""Golden-output check: the CLI's csv and svg bytes, and its json payload,
must stay identical across refactors of the root finder.

The files under tests/golden/ were produced by the code before the
batched sweep engine replaced point-by-point refinement.  A difference is
a behaviour change to be explained, never a reason to regenerate them;
the generator below is for adding a new golden case:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

from spinor_efimov.cli import main

GOLDEN = Path(__file__).parent / "golden"
TASKS = ("theta-sweep", "r-sweep")


def _json_payload(path: Path) -> dict:
    """The json output without the fields that vary between runs."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["meta"]["timestamp"]
    del payload["meta"]["config"]["out"]
    return payload


def _run(task: str, out: Path) -> None:
    assert main([task, "--config", str(GOLDEN / f"{task}.run"),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("task", TASKS)
def test_outputs_match_golden(task, tmp_path):
    _run(task, tmp_path)
    for ext in ("csv", "svg"):
        assert (tmp_path / f"{task}.{ext}").read_bytes() == \
            (GOLDEN / f"{task}.{ext}").read_bytes(), ext
    assert _json_payload(tmp_path / f"{task}.json") == \
        json.loads((GOLDEN / f"{task}.json").read_text(encoding="utf-8"))


def _regenerate() -> None:
    import tempfile

    for task in TASKS:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            _run(task, out)
            for ext in ("csv", "svg"):
                (GOLDEN / f"{task}.{ext}").write_bytes(
                    (out / f"{task}.{ext}").read_bytes())
            (GOLDEN / f"{task}.json").write_text(
                json.dumps(_json_payload(out / f"{task}.json"), indent=2)
                + "\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    _regenerate()
