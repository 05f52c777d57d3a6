"""Golden-output check: the CLI's csv and svg bytes, and its json payload,
must stay identical across refactors.

The theta-sweep and r-sweep files under tests/golden/ were produced by
the code before the batched sweep engine replaced point-by-point
refinement; the roots, ladder and invariance-suite files (the README
example configs) by the code before the run-file parser became
table-driven.  The ladder files were re-made four times: when Illinois
refinement of the level energies replaced bisection and moved their
10th-12th significant digits, when each level above the deepest began
its node-count bracket at its scale-invariant guess, which hands the
refinement a different window and moved the same digits again, when
the levels moved to the package's shared refinement (hyperangular's
_refine), whose safeguard takes other steps (the levels stay within the
1e-9 tolerance), and when the deepest level's bracket began at the zero
of K_{i kappa} instead of bisection, which moved the deepest energy and
the first ratio by 7e-11, and the last printed digit of one more ratio
and one upper energy.  The r-sweep json was re-made when the grazing
warning stopped advising a denser grid, which does not resolve that
warning, and the invariance-suite json when the run file's
mode came to follow from its inputs: its finite random specs had been
reported as "asymptotic".  A difference is a behaviour change to be
explained, never a reason to regenerate them; the generator below writes
only the tasks it is given, for adding a new golden case or re-making one
whose change has been explained:

    PYTHONPATH=src python tests/test_golden.py --regenerate TASK [TASK ...]
"""

import json
import sys
from pathlib import Path

import pytest

from spinor_efimov.cli import main
from spinor_efimov.config import parse_config
from spinor_efimov.runner import run, write_outputs

GOLDEN = Path(__file__).parent / "golden"
TASKS = ("theta-sweep", "r-sweep", "roots", "ladder", "invariance-suite")


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
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob(f"{task}.*")
                             if p.suffix != ".run")
    for ext in ("csv", "svg"):
        if f"{task}.{ext}" in written:
            assert (tmp_path / f"{task}.{ext}").read_bytes() == \
                (GOLDEN / f"{task}.{ext}").read_bytes(), ext
    assert _json_payload(tmp_path / f"{task}.json") == \
        json.loads((GOLDEN / f"{task}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("task", TASKS)
def test_streamed_json_parses_as_one_indented_dump(task, tmp_path):
    """The json file is written in pieces, each table row on a line of its
    own; it parses to what one json.dumps(payload, indent=2) parses to,
    and ends in a newline."""
    cfg = parse_config((GOLDEN / f"{task}.run").read_text(encoding="utf-8"))
    bundle = run(cfg)
    write_outputs(bundle, str(tmp_path), cfg.formats)
    text = (tmp_path / f"{task}.json").read_text(encoding="utf-8")
    payload = {"meta": bundle.meta, "tables": bundle.tables,
               "warnings": bundle.warnings}
    assert json.loads(text) == json.loads(
        json.dumps(payload, indent=2, allow_nan=False))
    assert text.endswith("}\n")
    lines = [json.loads(line.strip().rstrip(","))
             for line in text.splitlines() if line.startswith("      {")]
    assert lines == [row for rows in bundle.tables.values() for row in rows]
    assert lines


def _regenerate(tasks) -> None:
    import tempfile

    for task in tasks:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            _run(task, out)
            for ext in ("csv", "svg"):
                if (out / f"{task}.{ext}").exists():
                    (GOLDEN / f"{task}.{ext}").write_bytes(
                        (out / f"{task}.{ext}").read_bytes())
            (GOLDEN / f"{task}.json").write_text(
                json.dumps(_json_payload(out / f"{task}.json"), indent=2)
                + "\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:2] == ["--regenerate"]:
    unknown = [t for t in sys.argv[2:] if t not in TASKS]
    if not sys.argv[2:] or unknown:
        sys.exit(f"usage: --regenerate TASK [TASK ...], TASK in {TASKS}")
    _regenerate(sys.argv[2:])
