"""One workload in one fresh process: a closed loop with a single client.

    worker.py --probe CONFIG TASK   import the package, parse CONFIG, exit
    worker.py --plan PLAN.json      run the workload described by PLAN

Both print `ready` on stdout once the package is imported and the first
run file is parsed, i.e. when the first task could be issued; run.py times
process start to that line as the set-up time.  A second line, `cal
<seconds>`, gives the calibration kernel's time measured right after.  In
--plan mode the worker then calls `spinor_efimov.cli.main(argv)`
in-process, one invocation after the other, timing each call, running the
calibration kernel before and after it, and checking its output files
outside the timed region.  It writes its raw samples to the plan's result
path.
"""

from __future__ import annotations

import sys


def calibrate() -> float:
    """Seconds for a fixed kernel that mixes the kinds of work the package
    does: batched and single 6x6 `eigvalsh`, a Python loop, and vector
    arithmetic on a 32k array.  The median of five repetitions.  The
    machine's speed drifts over minutes; run.py divides each invocation
    time by the kernel time measured around it."""
    import time

    import numpy as np

    batch = np.random.default_rng(0).standard_normal((200, 6, 6))
    batch = batch + batch.transpose(0, 2, 1)
    single = batch[0].copy()
    vec = np.linspace(0.0, 1.0, 32768)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.linalg.eigvalsh(batch)
        for _ in range(50):
            np.linalg.eigvalsh(single)
        acc = 0
        for i in range(10000):
            acc += i * i
        for _ in range(10):
            np.cumsum(np.sqrt(vec * 1.5 + 0.25))
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def _ready(config_path: str, task: str):
    import spinor_efimov.cli as cli

    with open(config_path, encoding="utf-8") as f:
        cli.parse_config(f.read(), cli_task=task)
    print("ready", flush=True)
    print(f"cal {calibrate()!r}", flush=True)
    return cli


def _run_plan(plan: dict, cli) -> dict:
    import contextlib
    import gc
    import io
    import os
    import resource
    import time
    import traceback

    import numpy
    import scipy

    import spinor_efimov
    from checks import (check_admixture, check_invariance, check_ladder,
                        check_plateau, expected_ops)
    from tracing import Tracer

    workload = plan["workload"]
    variants = plan["variants"]
    reference = plan["reference"]
    tracer = Tracer(spinor_efimov) if plan["trace"] else None
    traced_main = tracer.wrap("cli.main", cli.main) if tracer else None
    # in a traced run every variant runs untraced, then traced, so both
    # modes see the same inputs under the same conditions
    modes = (False, True) if tracer else (False,)
    min_cycles = 2 if tracer else 1

    def check(vi: int, out_dir: str) -> tuple[int, int]:
        params = variants[vi]["params"]
        if workload == "admixture-sweep":
            return check_admixture(out_dir, reference)
        if workload == "plateau-sweep":
            return check_plateau(out_dir, params)
        if workload == "trimer-ladder":
            return check_ladder(out_dir, params, reference[vi])
        return check_invariance(out_dir, params)

    samples: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    cycle_s = 0.0
    cycles = 0
    while cycles < min_cycles or \
            time.perf_counter() - start + cycle_s <= plan["seconds"]:
        cycle_start = time.perf_counter()
        for vi, variant in enumerate(variants):
            for traced in modes:
                out_dir = variant["out_dir"]
                for name in os.listdir(out_dir):
                    os.remove(os.path.join(out_dir, name))
                argv = [variant["task"], "--config", variant["config_path"],
                        "--out", out_dir]
                main = cli.main
                if traced:
                    tracer.install()
                    tracer.begin(len(samples))
                    main = traced_main
                gc.collect()
                cal_before = calibrate()
                sink = io.StringIO()
                rc = None
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        rc = main(argv)
                except (Exception, SystemExit):
                    errors.append(traceback.format_exc(limit=3))
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                cal = 0.5 * (cal_before + calibrate())
                ops = expected_ops(workload, reference, variant["params"])
                a, f = ops, ops
                if rc == 0:
                    try:
                        a, f = check(vi, out_dir)
                    except (OSError, ValueError, KeyError) as exc:
                        errors.append(f"{variant['label']}: output check: {exc!r}")
                else:
                    errors.append(f"{variant['label']}: exit status {rc}: "
                                  f"{sink.getvalue()[-500:]}")
                attempted += a
                failed += f
                sample = {"variant": vi, "traced": traced, "s": elapsed,
                          "cal": cal, "attempted": a, "failed": f}
                if traced:
                    sample["layers"] = tracer.summary()
                samples.append(sample)
        cycles += 1
        cycle_s = time.perf_counter() - cycle_start

    if tracer:
        tracer.write_spans(plan["spans_path"])
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loop_s": time.perf_counter() - start,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "package_file": spinor_efimov.__file__,
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--probe":
        _ready(argv[1], argv[2])
        return 0
    if len(argv) == 2 and argv[0] == "--plan":
        import json

        with open(argv[1], encoding="utf-8") as f:
            plan = json.load(f)
        first = plan["variants"][0]
        cli = _ready(first["config_path"], first["task"])
        result = _run_plan(plan, cli)
        with open(plan["result_path"], "w", encoding="utf-8") as f:
            json.dump(result, f)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
