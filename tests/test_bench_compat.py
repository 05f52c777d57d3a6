"""The benchmark's run files must parse, and its tracer patches library
names by attribute: every name it patches must exist, and uninstalling
must put the originals back."""

import sys
import time
import tokenize
from pathlib import Path

import mpmath

import spinor_efimov
import spinor_efimov.cli  # noqa: F401  (the tracer reaches cli and runner as attributes)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from spinor_efimov.config import parse_config  # noqa: E402


def test_benchmark_run_files_parse():
    """A key the benchmark writes that the parser drops or renames fails
    here rather than as a failed benchmark run."""
    for seed in range(5):
        for name in workloads.WORKLOADS:
            for v in workloads.variants(name, seed):
                assert parse_config(v.config, cli_task=v.task).task == v.task


def test_tracer_installs_and_restores_every_patch():
    tracer = tracing.Tracer(spinor_efimov)
    before = {(mod, attr): getattr(tracer.modules[mod], attr)
              for mod, attr, _ in tracing._PATCHES}
    before.update({(mod, "np"): tracer.modules[mod].np
                   for mod in tracing._NUMPY_USERS})
    tracer.install()
    try:
        patched = [key for key, fn in before.items()
                   if getattr(tracer.modules[key[0]], key[1]) is not fn]
        assert sorted(patched) == sorted(before)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in before.items():
        assert getattr(tracer.modules[mod], attr) is fn, (mod, attr)


def test_traced_workloads_run_through_the_cli(tmp_path):
    """Every workload's seed-0 variants run through cli.main in-process
    under the tracer, installed and begun as the benchmark's worker does
    it: each exits 0, summary() returns the per-layer numbers, and
    uninstalling restores every patched name.  A library change that
    breaks a traced benchmark run fails here."""
    tracer = tracing.Tracer(spinor_efimov)
    before = {(mod, attr): getattr(tracer.modules[mod], attr)
              for mod, attr, _ in tracing._PATCHES}
    before.update({(mod, "np"): tracer.modules[mod].np
                   for mod in tracing._NUMPY_USERS})
    main = tracer.wrap("cli.main", spinor_efimov.cli.main)
    invocation = 0
    for name in workloads.WORKLOADS:
        for v in workloads.variants(name, 0):
            config = tmp_path / f"{invocation}.run"
            config.write_text(v.config)
            tracer.install()
            tracer.begin(invocation)
            try:
                rc = main([v.task, "--config", str(config),
                           "--out", str(tmp_path / str(invocation))])
            finally:
                tracer.uninstall()
            assert rc == 0, (name, v.label)
            layers = tracer.summary()
            assert layers["runner.rows"] > 0, (name, v.label)
            invocation += 1
    for (mod, attr), fn in before.items():
        assert getattr(tracer.modules[mod], attr) is fn, (mod, attr)


def _check(workload, out_dir, params, reference, vi):
    """The output check perfbench/worker.py runs after each invocation."""
    if workload == "admixture-sweep":
        return checks.check_admixture(out_dir, reference)
    if workload == "plateau-sweep":
        return checks.check_plateau(out_dir, params)
    if workload == "trimer-ladder":
        return checks.check_ladder(out_dir, params, reference[vi])
    return checks.check_invariance(out_dir, params)


def test_workload_outputs_pass_the_benchmark_checks(tmp_path):
    """Every workload's seed-0 variants through cli.main, then through the
    benchmark's own output checks against its independent references
    (oracle.py: mpmath roots of the admixture's scalar equations, and the
    zeros of K_{i kappa} for the ladder).  No operation fails, and the
    runs and checks take under 1.5 s; the references, about 0.85 s more
    on a quiet machine, are not timed.  A change that breaks a workload's
    numbers fails here rather than in a benchmark run."""
    elapsed = 0.0
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        variants = workloads.variants(name, 0)
        with mpmath.workdps(mpmath.mp.dps):  # oracle.py sets mp.dps
            reference = run.references(name, variants)
        t0 = time.perf_counter()
        for vi, v in enumerate(variants):
            config = tmp_path / f"{name}-{vi}.run"
            config.write_text(v.config)
            out = tmp_path / f"{name}-{vi}"
            rc = spinor_efimov.cli.main([v.task, "--config", str(config),
                                         "--out", str(out)])
            assert rc == 0, (name, v.label)
            a, f = _check(name, str(out), v.params, reference, vi)
            assert a > 0 and f == 0, (name, v.label, a, f)
            attempted += a
            failed += f
        elapsed += time.perf_counter() - t0
    assert failed == 0 and attempted > 0
    assert elapsed < 1.5, elapsed


def test_hyperangular_stays_below_the_calibration_threshold():
    """Above about 10,250 tokens in hyperangular.py (tokenize, without
    COMMENT and NL tokens), every scaled time of a benchmark worker reads
    about 30% worse at equal raw times.  Delete this test when ROADMAP
    item 1c, a calibration that can be trusted, lands."""
    path = Path(spinor_efimov.__file__).with_name("hyperangular.py")
    with open(path, "rb") as f:
        tokens = sum(t.type not in (tokenize.COMMENT, tokenize.NL)
                     for t in tokenize.tokenize(f.readline))
    assert tokens <= 10_200, (
        f"hyperangular.py has {tokens} tokens, above 10,200: near the "
        "size that moves the benchmark's calibration and every scaled "
        "time (ROADMAP item 1c); shrink the module or land item 1c first")
