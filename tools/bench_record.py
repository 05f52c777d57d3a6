"""Write the benchmark record of a two-commit comparison as one JSON file.

    python3 tools/bench_record.py BASE_DIR CHANGE_DIR OUT [--what TEXT]
        [--order TEXT] [--note TEXT ...] [--commits BASE CHANGE]

BASE_DIR and CHANGE_DIR hold perfbench/run.py's untraced records
(`*.trace0.json`), loaded as perfbench/compare.py loads them; runs pair up
by workload and seed.  For each workload and end-to-end metric of
BENCHMARK.json the file gives both sides' median and quartiles, every
run's value, the share of pairs the change wins and compare.py's verdict
(its own `verdict`, imported).  Beside them, per workload: the raw
(unscaled) times with the median over pairs of change / base, the median
calibration-kernel time over every sample (`cal_ms_median`) and over the
set-up probes (`setup_cal_ms_median`), the samples per run and the failed
operations.  Where the two sides' `cal` medians differ, the scaled times
carry that difference, and the raw times are the ones to read.

Records from different environments are refused, as compare.py refuses
them.  A run from a checkout without git history records no commit;
--commits names the two commits then, and a record without it is
refused.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import compare  # noqa: E402

#: each scaled end-to-end time and its unscaled counterpart in a record
_RAW = {"solve_s": "solve_s_raw", "solve_s_tail": "solve_s_tail_raw",
        "setup_s": "setup_s_raw"}
_STATISTICS = ("median and quartiles over the runs (statistics.quantiles, "
               "n=4); verdicts by perfbench/compare.py; cal_ms_median is the "
               "median calibration-kernel time over every sample of the runs, "
               "setup_cal_ms_median the same over the set-up probes; "
               "pair_ratio_median is the median over seeds of change / base")


def summary(values: list[float]) -> dict:
    q1, median, q3 = compare.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _median_ms(records: list[dict], key: str) -> float:
    return 1e3 * statistics.median(s["cal"] for rec in records
                                   for s in rec[key])


def workload_record(base: dict, change: dict, metrics: list[dict]) -> dict:
    """One workload's entry from its records keyed by seed."""
    seeds_b, seeds_c = sorted(base), sorted(change)
    shared = [s for s in seeds_b if s in change]
    failed_b = sum(base[s]["failed"] for s in shared)
    failed_c = sum(change[s]["failed"] for s in shared)
    out: dict = {"end_to_end": {}, "raw_seconds": {}}
    for metric in metrics:
        name = metric["name"]
        b = [base[s]["metrics"][name]["value"] for s in seeds_b]
        c = [change[s]["metrics"][name]["value"] for s in seeds_c]
        pairs = [(base[s]["metrics"][name]["value"],
                  change[s]["metrics"][name]["value"]) for s in shared]
        row = compare.verdict(b, c, pairs, metric["better"] == "higher",
                              metric["bound"], failed_c > failed_b)
        out["end_to_end"][name] = {
            "unit": metric["unit"], "base": summary(b), "change": summary(c),
            "change_wins": row[6], "pairs": row[7],
            "beyond_base_spread": row[8], "verdict": row[9],
            "base_runs": b, "change_runs": c}
        raw = _RAW.get(name)
        if raw is not None:
            b = [base[s][raw] for s in seeds_b]
            c = [change[s][raw] for s in seeds_c]
            out["raw_seconds"][raw] = {
                "base": summary(b), "change": summary(c),
                "pair_ratio_median": statistics.median(
                    change[s][raw] / base[s][raw] for s in shared)
                if shared else None,
                "base_runs": b, "change_runs": c}
    both = {"base": [base[s] for s in seeds_b],
            "change": [change[s] for s in seeds_c]}
    out["cal_ms_median"] = {k: _median_ms(v, "samples")
                            for k, v in both.items()}
    out["setup_cal_ms_median"] = {k: _median_ms(v, "setup_samples")
                                  for k, v in both.items()}
    out["samples_per_run"] = {k: summary([r["solve_s_samples"] for r in v])
                              for k, v in both.items()}
    out["failed"] = {"base": failed_b, "change": failed_c}
    return out


def build(base_dir: str, change_dir: str, spec: dict, what: str = "",
          order: str = "", notes: list = (), commits=(None, None)) -> dict:
    base, change = compare.load(base_dir), compare.load(change_dir)
    if not base or not change:
        raise ValueError("no *.trace0.json records in one of the directories")
    mismatch = compare.environment_mismatch(
        list(base.values()) + list(change.values()))
    if mismatch:
        raise ValueError("records from different environments: "
                         + "; ".join(mismatch))
    workloads = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds_b = sorted(s for w, s in base if w == workload)
        seeds_c = sorted(s for w, s in change if w == workload)
        if seeds_b and seeds_c:
            workloads[workload] = workload_record(
                {s: base[(workload, s)] for s in seeds_b},
                {s: change[(workload, s)] for s in seeds_c},
                spec["end_to_end"])
    sides = {}
    for side, records, commit in (("base", base, commits[0]),
                                  ("change", change, commits[1])):
        env = next(iter(records.values()))["environment"]
        commit = commit or env["commit"]
        if not commit:
            raise ValueError(f"the {side} records name no commit; give "
                             "--commits BASE CHANGE")
        sides[side] = {"commit": commit,
                       "source_digest": env["source_digest"]}
    seconds = sorted({r["seconds"]
                      for r in [*base.values(), *change.values()]})
    return {
        "what": what,
        **sides,
        "commands": [
            "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
            "--seconds SECONDS --trace 0",
            "python3 perfbench/compare.py BASE_RESULTS CHANGE_RESULTS",
            "python3 tools/bench_record.py BASE_RESULTS CHANGE_RESULTS OUT"],
        "seeds": sorted({s for _, s in base} | {s for _, s in change}),
        "run_seconds": seconds[0] if len(seconds) == 1 else seconds,
        "order": order,
        "statistics": _STATISTICS,
        "notes": list(notes),
        "environment": {k: v for k, v in env.items()
                        if k not in compare._CODE_KEYS},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_dir")
    parser.add_argument("change_dir")
    parser.add_argument("out")
    parser.add_argument("--what", default="", help="what the runs compare")
    parser.add_argument("--order", default="", help="how the runs alternated")
    parser.add_argument("--note", action="append", default=[],
                        help="a note on the readings; may repeat")
    parser.add_argument("--commits", nargs=2, default=(None, None),
                        metavar=("BASE", "CHANGE"),
                        help="the commits, where the records name none")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    try:
        record = build(args.base_dir, args.change_dir, spec, args.what,
                       args.order, args.note, args.commits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
