"""Per-invocation output checks against the references of oracle.py.

Each check reads the files one CLI invocation wrote and returns
(attempted, failed) operations.  What one operation is depends on the
workload: a sweep row, a sweep, a ladder, or an invariance check row.
Nothing here imports the package under test.
"""

from __future__ import annotations

import csv
import json
import math
import os

#: admixture rows must match the scalar oracle to this absolute tolerance
ROOT_TOL = 1e-9
#: plateau values must lie this close to their anchor
PLATEAU_TOL = 1e-2
#: acceptance criterion 8: ladder ratios against exp(2 pi/kappa)
RATIO_RTOL = 0.02
#: ladder energies against the Bessel-zero oracle
ENERGY_RTOL = 1e-6
#: invariance rows must deviate by less than this
INVARIANCE_TOL = 1e-8


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def expected_ops(workload: str, reference, params: dict) -> int:
    """Operations one invocation attempts when it produces no output."""
    if workload == "admixture-sweep":
        return sum(1 for p in reference for axis in ("imaginary", "real")
                   for e in p[axis] if not e[2])
    if workload == "invariance-batch":
        return 2 * params["trials"]
    return 1


def _match_axis(rows: list[tuple[float, int]], expected: list) -> tuple[int, int]:
    """Match one theta point's rows on one axis to the oracle entries."""
    attempted = failed = 0
    left = list(rows)
    for value, mult, optional in expected:
        hit = next((r for r in left if abs(r[0] - value) <= ROOT_TOL), None)
        if hit is None:
            if not optional:
                attempted += 1
                failed += 1
            continue
        left.remove(hit)
        attempted += 1
        failed += hit[1] != mult
    # rows the oracle does not know are failed operations too
    return attempted + len(left), failed + len(left)


def check_admixture(out_dir: str, reference: list[dict]) -> tuple[int, int]:
    rows = _read_csv(os.path.join(out_dir, "theta-sweep.csv"))
    payload = _read_json(os.path.join(out_dir, "theta-sweep.json"))
    with open(os.path.join(out_dir, "theta-sweep.svg"), encoding="utf-8") as f:
        svg = f.read()
    if len(payload["tables"]["rows"]) != len(rows) or "<svg" not in svg:
        raise ValueError("json or svg output disagrees with the csv")
    by_point: list[dict[str, list]] = [{"imaginary": [], "real": []}
                                       for _ in reference]
    stray = 0
    thetas = [p["theta"] for p in reference]
    for row in rows:
        theta = float(row["theta"])
        idx = min(range(len(thetas)), key=lambda i: abs(thetas[i] - theta))
        if abs(thetas[idx] - theta) > ROOT_TOL or row["axis"] not in by_point[idx]:
            stray += 1
            continue
        by_point[idx][row["axis"]].append(
            (float(row["value"]), int(row["multiplicity"])))
    attempted = failed = stray
    for point, got in zip(reference, by_point):
        for axis in ("imaginary", "real"):
            a, f = _match_axis(got[axis], point[axis])
            attempted += a
            failed += f
    return attempted, failed


def check_plateau(out_dir: str, params: dict) -> tuple[int, int]:
    rows = _read_csv(os.path.join(out_dir, "r-sweep.csv"))
    plateaus = _read_json(os.path.join(out_dir, "r-sweep.json"))["tables"]["plateaus"]
    hits = [p for p in plateaus
            if p["accepted"] and abs(p["kappa"] - params["anchor"]) < PLATEAU_TOL]
    exact = params["exact_hits"]
    ok = bool(rows) and (len(hits) == exact if exact else bool(hits))
    return 1, int(not ok)


def check_ladder(out_dir: str, params: dict, energies: list[float]) -> tuple[int, int]:
    levels = _read_csv(os.path.join(out_dir, "ladder.csv"))
    target = math.exp(2.0 * math.pi / params["kappa"])
    ok = len(levels) == params["n_levels"] == len(energies)
    for n, (row, ref) in enumerate(zip(levels, energies)):
        ok = ok and int(row["n"]) == n and int(row["nodes"]) == n
        ok = ok and abs(float(row["energy"]) / ref - 1.0) <= ENERGY_RTOL
        if row["ratio_to_next"]:
            ok = ok and abs(float(row["ratio_to_next"]) / target - 1.0) <= RATIO_RTOL
    return 1, int(not ok)


def check_invariance(out_dir: str, params: dict) -> tuple[int, int]:
    rows = _read_csv(os.path.join(out_dir, "invariance-suite.csv"))
    expected = 2 * params["trials"]
    failed = sum(1 for r in rows
                 if not (r["deviation"] and float(r["deviation"]) < INVARIANCE_TOL))
    attempted = max(expected, len(rows))
    return attempted, failed + attempted - len(rows)
