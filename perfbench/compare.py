"""Compare the untraced results of two commits, one row per workload and
end-to-end metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds run.py records (`*.trace0.json`), as written to
.perfbench-out/results/<source digest>/.  Runs pair up by workload and
seed.  Each row gives both sides' median and quartiles, the share of pairs
the change wins (ties count for neither side), whether the medians differ
by more than the base's quartile spread, and a verdict:

* improved   - the change wins at least nine tenths of at least ten pairs,
               its median is better by more than the base's quartile
               spread, and it fails no more operations than the base;
* worse      - its median is worse than the base's by more than the
               metric's bound from BENCHMARK.json;
* unresolved - a side's quartile spread, as a share of its median, is
               wider than the bound, unless every run of the change reads
               better than every run of the base;
* unchanged  - otherwise.

Results whose environments differ (interpreter, numpy, scipy, CPU count
or model, BLAS threads, thread variable) are refused.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: environment keys that identify the code, not the machine
_CODE_KEYS = ("commit", "source_digest")


def load(directory: str) -> dict[tuple[str, int], dict]:
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace0.json"))):
        with open(path, encoding="utf-8") as f:
            rec = json.load(f)
        records[(rec["workload"], rec["seed"])] = rec
    return records


def environment_mismatch(records: list[dict]) -> list[str]:
    seen: dict[str, object] = {}
    out = []
    for rec in records:
        for key, value in rec["environment"].items():
            if key in _CODE_KEYS:
                continue
            if seen.setdefault(key, value) != value:
                out.append(f"{key}: {seen[key]!r} != {value!r}")
    return sorted(set(out))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], pairs: list[tuple],
            higher_better: bool, bound: float, more_failures: bool) -> tuple:
    sign = 1.0 if higher_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    beyond_spread = abs(cmed - bmed) > bq3 - bq1
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if (len(pairs) >= 10 and win_rate >= 0.9 and sign * (cmed - bmed) > 0
            and beyond_spread and not more_failures):
        word = "improved"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif -sign * (cmed - bmed) > bound * abs(bmed):
        word = "worse"
    else:
        word = "unchanged"
    return (bmed, bq1, bq3, cmed, cq1, cq3, win_rate, len(pairs),
            beyond_spread, word)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("error: no *.trace0.json records in one of the directories",
              file=sys.stderr)
        return 2
    mismatch = environment_mismatch(list(base.values()) + list(change.values()))
    if mismatch:
        print("error: refusing to compare results from different "
              "environments:\n  " + "\n  ".join(mismatch), file=sys.stderr)
        return 2

    print(f"{'workload':17s} {'metric':13s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>9s} {'>spread':>7s} verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds_b = sorted(s for w, s in base if w == workload)
        seeds_c = sorted(s for w, s in change if w == workload)
        if not seeds_b or not seeds_c:
            continue
        shared = [s for s in seeds_b if s in seeds_c]
        failed_b = sum(base[(workload, s)]["failed"] for s in shared)
        failed_c = sum(change[(workload, s)]["failed"] for s in shared)
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(rec, name=name):
                return rec["metrics"][name]["value"]

            row = verdict([value(base[(workload, s)]) for s in seeds_b],
                          [value(change[(workload, s)]) for s in seeds_c],
                          [(value(base[(workload, s)]), value(change[(workload, s)]))
                           for s in shared],
                          metric["better"] == "higher", metric["bound"],
                          failed_c > failed_b)
            bmed, bq1, bq3, cmed, cq1, cq3, rate, n, beyond, word = row
            print(f"{workload:17s} {name:13s} "
                  f"{bmed:12.5g} [{bq1:9.5g}, {bq3:9.5g}] "
                  f"{cmed:12.5g} [{cq1:9.5g}, {cq3:9.5g}] "
                  f"{rate:5.0%} /{n:<2d} {'yes' if beyond else 'no':>7s} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
