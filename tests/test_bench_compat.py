"""The benchmark's run files must parse, and its tracer patches library
names by attribute: every name it patches must exist, and uninstalling
must put the originals back."""

import sys
from pathlib import Path

import spinor_efimov
import spinor_efimov.cli  # noqa: F401  (the tracer reaches cli and runner as attributes)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
