"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from
./src in fresh child processes (worker.py), so the code measured is the
checkout's.  The run

1. writes the workload's run files (workloads.py) and computes the
   independent reference for its output checks (oracle.py);
2. times set-up: fresh processes that import the package and parse the
   run file, reporting the median;
3. starts one fresh worker process that calls spinor_efimov.cli.main in a
   closed loop with one client for S seconds and checks every output;
4. prints the metrics, as its last stdout line, in one JSON object.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 every
variant runs untraced and then traced in turn, and the metrics are the
per-layer ones (tracing.py) plus the tracing overhead: the traced minus
the untraced median invocation time.  The full record, with the
environment, every sample and the count self-check, goes to
.perfbench-out/results/<source digest>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import DETERMINISTIC  # noqa: E402

#: fresh processes timed for set-up, besides the worker itself
SETUP_PROBES = 5
#: calibration kernel time (worker.calibrate) at the reference machine
#: speed: that of a quiet 2-vCPU Intel Xeon sandbox.  Reported times are
#: wall times scaled by this over the kernel time measured around them.
CAL_REFERENCE_S = 4.0e-3
#: a child that has not finished this long after its budget is killed
GRACE_S = 100.0
#: BLAS threads in the children: the workloads' matrices are at most 6x6
#: and the banded solves are sequential, so one thread is the serial path
BLAS_THREADS = "1"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


#: children still running; `run` stops them however it exits
_children: list[subprocess.Popen] = []


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile).  Below 100 samples that percentile would fall under the
    90th, so the 90th percentile (nearest rank) is reported instead."""
    xs = sorted(values)
    n = len(xs)
    rank = max(math.ceil(0.9 * n), n - 10)
    return xs[rank - 1], 100.0 * rank / n


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPINOR_EFIMOV_THREADS", None)  # the library's serial path
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    for var in _BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def _start(args: list[str], env: dict) -> tuple[subprocess.Popen, float, float]:
    """Start a child and wait for its `ready` line; returns the process,
    the seconds from start to ready and the child's calibration time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             *args], stdout=subprocess.PIPE, text=True, env=env)
    _children.append(proc)
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - t0
    if line != "ready":
        raise BenchError(f"child {args[0]} never became ready "
                         f"(exit status {proc.returncode})")
    cal = proc.stdout.readline().split()
    if len(cal) != 2 or cal[0] != "cal":
        raise BenchError(f"child {args[0]} sent no calibration time")
    return proc, ready, float(cal[1])


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.stdout.read()
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("child did not finish in time") from None
    proc.stdout.close()
    _children.remove(proc)
    if proc.returncode != 0:
        raise BenchError(f"child exited with status {proc.returncode}")


def references(workload: str, variants) -> object:
    if workload == "admixture-sweep":
        return oracle.admixture_roots(variants[0].params)
    if workload == "trimer-ladder":
        return [oracle.ladder_energies(v.params["kappa"], v.params["n_levels"],
                                       v.params["r0"]) for v in variants]
    return None


def per_variant_median(samples: list[dict], key) -> float:
    """Mean over variants of the per-variant median; the variants of one
    workload differ in cost, so pooling them would make a bimodal sample."""
    groups: dict[int, list[float]] = {}
    for s in samples:
        groups.setdefault(s["variant"], []).append(key(s))
    meds = [statistics.median(values) for values in groups.values()]
    return sum(meds) / len(meds)


def scaled(sample: dict) -> float:
    """An invocation's wall time at the reference machine speed."""
    return sample["s"] * CAL_REFERENCE_S / sample["cal"]


def count_drift(samples: list[dict]) -> list[str]:
    """Counts of one variant that differ between traced invocations."""
    drift = []
    by_variant: dict[int, dict] = {}
    for s in samples:
        counts = {k: v for k, v in s["layers"].items()
                  if k.rsplit(".", 1)[-1] in DETERMINISTIC}
        first = by_variant.setdefault(s["variant"], counts)
        for k, v in counts.items():
            if first[k] != v:
                drift.append(f"variant {s['variant']}: {k} {first[k]} != {v}")
    return drift


def layer_metrics(samples: list[dict]) -> dict[str, float]:
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    out = {name: per_variant_median(traced, lambda s, name=name: s["layers"][name])
           for name in traced[0]["layers"]}
    solve_traced = per_variant_median(traced, lambda s: s["s"])
    solve_plain = per_variant_median(untraced, lambda s: s["s"])
    out["trace.solve_s"] = solve_traced
    out["trace.untraced_solve_s"] = solve_plain
    out["trace.overhead_s"] = solve_traced - solve_plain
    return out


_UNITS = {"s": "s", "calls": "count", "matrices": "count", "points": "count",
          "roots": "count", "levels": "count", "single_calls": "count",
          "rows": "count", "bytes_written": "B", "bytes_computed": "B",
          "evals_per_root": "1/root", "solves_per_level": "1/level",
          "matrices_per_call": "1/call", "self_s": "s", "overhead_s": "s",
          "solve_s": "s", "untraced_solve_s": "s"}


_E2E_UNITS = {"solve_s": "s", "solve_s_tail": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "success_frac": "ratio"}


def unit_of(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[-1]]


def _stop_children() -> None:
    while _children:
        proc = _children.pop()
        proc.kill()
        proc.wait()
        proc.stdout.close()


def run(args) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spinor_efimov", "cli.py")):
        raise BenchError("no src/spinor_efimov here; run from the root of a "
                         "spinor-efimov checkout")
    variants = workloads.variants(args.workload, args.seed)
    work = os.path.join(root, ".perfbench-out", "work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _measure(args, root, work, variants)
    finally:
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, root: str, work: str, variants) -> dict:
    src = os.path.join(root, "src")
    plan_variants = []
    for i, v in enumerate(variants):
        config_path = os.path.join(work, f"variant{i}.run")
        with open(config_path, "w", encoding="utf-8") as f:
            f.write(v.config)
        out_dir = os.path.join(work, f"out{i}")
        os.makedirs(out_dir)
        plan_variants.append({"label": v.label, "task": v.task,
                              "config_path": config_path, "out_dir": out_dir,
                              "params": v.params})
    reference = references(args.workload, variants)
    plan = {"workload": args.workload, "seconds": args.seconds,
            "trace": bool(args.trace), "variants": plan_variants,
            "reference": reference,
            "result_path": os.path.join(work, "result.json"),
            "spans_path": os.path.join(work, "spans.csv")}
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump(plan, f)

    env = child_env(src)
    first = plan_variants[0]
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready, cal = _start(
            ["--probe", first["config_path"], first["task"]], env)
        _finish(proc, GRACE_S)
        setup.append((ready, cal))
    proc, ready, cal = _start(["--plan", plan_path], env)
    setup.append((ready, cal))
    _finish(proc, args.seconds + GRACE_S)
    with open(plan["result_path"], encoding="utf-8") as f:
        result = json.load(f)

    package_dir = os.path.dirname(result["versions"].pop("package_file"))
    if os.path.realpath(package_dir) != os.path.realpath(
            os.path.join(src, "spinor_efimov")):
        raise BenchError(f"imported the package from {package_dir}, "
                         "not from this checkout")
    samples = result["samples"]
    untraced = [scaled(s) for s in samples if not s["traced"]]
    tail_s, tail_pct = tail(untraced)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": {
            "commit": git_commit(root),
            "source_digest": source_digest(root),
            **result["versions"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "blas_threads": {var: BLAS_THREADS for var in _BLAS_VARS},
            "spinor_efimov_threads_was_set":
                "SPINOR_EFIMOV_THREADS" in os.environ,
        },
        "variants": [v.label for v in variants],
        "samples": samples,
        "setup_samples": [{"s": r, "cal": c} for r, c in setup],
        "cal_reference_s": CAL_REFERENCE_S,
        "solve_s_raw": per_variant_median(
            [s for s in samples if not s["traced"]], lambda s: s["s"]),
        "solve_s_tail_raw": tail([s["s"] for s in samples if not s["traced"]])[0],
        "setup_s_raw": statistics.median(r for r, _ in setup),
        "solve_s_tail_percentile": tail_pct,
        "solve_s_samples": len(untraced),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed"] / max(result["attempted"], 1),
        "errors": result["errors"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        record["count_drift"] = count_drift([s for s in samples if s["traced"]])
        record["layers_per_variant"] = {
            v.label: layer_metrics([s for s in samples if s["variant"] == i])
            for i, v in enumerate(variants)}
        values = layer_metrics(samples)
    else:
        values = {
            "solve_s": per_variant_median(samples, scaled),
            "solve_s_tail": tail_s,
            "setup_s": statistics.median(r * CAL_REFERENCE_S / c
                                         for r, c in setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "success_frac": 1.0 - record["failed_frac"],
        }
    record["metrics"] = {k: {"value": v, "unit": unit_of(k) if args.trace
                             else _E2E_UNITS[k]} for k, v in values.items()}
    record["correct"] = (result["failed"] == 0 and not result["errors"]
                         and not record.get("count_drift"))
    results_dir = os.path.join(root, ".perfbench-out", "results",
                               record["environment"]["source_digest"][:12])
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        os.replace(plan["spans_path"],
                   os.path.join(results_dir, name[:-len(".json")] + ".spans.csv"))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # a terminated run unwinds through `run`, which stops its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        record = run(args)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in record["errors"] + record.get("count_drift", []):
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
