"""Spans and counters around the calls into each layer of the package.

The tracer patches names in the namespace of the module that calls them
(runner and hyperangular import library functions directly, so patching
the defining module would miss those calls).  numpy.linalg is reached as
`np.linalg.<name>` inside the library, so the calling modules get a copy
of the numpy module whose linalg holds the wrapped kernels; numpy itself
is never modified.  Everything is restored by `uninstall`.

A span is (invocation id, name, start, end, parent index).  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import math
import os
import time
import types
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); spin functions share the layer "spin"
_PATCHES = (
    ("cli", "parse_config", "config.parse_config"),
    ("cli", "run", "runner.run"),
    ("cli", "write_outputs", "runner.write_outputs"),
    ("runner", "sweep_figure", "figure.sweep_figure"),
    ("runner", "channels_from_angle", "spin.channels_from_angle"),
    ("runner", "exchange_overlap", "spin.exchange_overlap"),
    ("runner", "eigenchannels", "spin.eigenchannels"),
    ("runner", "one_body_rotation", "spin.one_body_rotation"),
    ("runner", "find_roots_imaginary", "hyperangular.find_roots_imaginary"),
    ("runner", "find_roots_real", "hyperangular.find_roots_real"),
    ("runner", "theta_sweep", "hyperangular.sweep"),
    ("runner", "radius_sweep", "hyperangular.sweep"),
    ("runner", "plateau_extract", "hyperangular.plateau_extract"),
    ("runner", "efimov_ladder", "hyperradial.efimov_ladder"),
    ("hyperangular", "channels_from_angle", "spin.channels_from_angle"),
    ("hyperangular", "exchange_overlap", "spin.exchange_overlap"),
    ("hyperangular", "find_roots_imaginary", "hyperangular.find_roots_imaginary"),
    ("hyperangular", "find_roots_real", "hyperangular.find_roots_real"),
    ("hyperangular", "classify_root", "hyperangular.classify_root"),
    ("hyperradial", "bound_states", "hyperradial.bound_states"),
    ("hyperradial", "solve_banded", "linalg.solve_banded"),
)
#: modules whose `np` is replaced by a copy with wrapped linalg kernels
_NUMPY_USERS = ("runner", "hyperangular")

#: counts that must repeat exactly between invocations of one variant
DETERMINISTIC = ("calls", "matrices", "points", "roots", "levels",
                 "single_calls", "rows", "bytes_computed")


def _count_eigvalsh(counts, args, out):
    a = args[0]
    counts["linalg.eigvalsh.matrices"] += math.prod(a.shape[:-2]) if a.ndim > 2 else 1
    counts["linalg.eigvalsh.single_calls"] += a.ndim == 2
    counts["linalg.bytes_computed"] += a.nbytes + out.nbytes


def _count_eigh(counts, args, out):
    counts["linalg.bytes_computed"] += args[0].nbytes + out[0].nbytes + out[1].nbytes


def _count_solve_banded(counts, args, out):
    _, ab, b = args[:3]
    counts["linalg.solve_banded.points"] += b.shape[0]
    counts["linalg.bytes_computed"] += ab.nbytes + b.nbytes + out.nbytes


def _count_roots(counts, args, out):
    counts["hyperangular.roots"] += sum(r.multiplicity for r in out)


def _count_levels(counts, args, out):
    counts["hyperradial.levels"] += out.n_levels


def _count_run(counts, args, out):
    counts["runner.rows"] += sum(len(t) for t in out.tables.values())


def _count_written(counts, args, out):
    counts["runner.bytes_written"] += sum(os.path.getsize(p) for p in out)


_AFTER = {
    "linalg.eigvalsh": _count_eigvalsh,
    "linalg.eigh": _count_eigh,
    "linalg.solve_banded": _count_solve_banded,
    "hyperangular.find_roots_imaginary": _count_roots,
    "hyperangular.find_roots_real": _count_roots,
    "hyperradial.efimov_ladder": _count_levels,
    "runner.run": _count_run,
    "runner.write_outputs": _count_written,
}


class Tracer:
    """Records spans and counts while installed; one invocation at a time."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name)
                        for name in ("cli", "runner", "hyperangular",
                                     "hyperradial")}
        self.spans: list[tuple] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.invocation = -1
        self._first = 0
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)
        spans, child, stack = self.spans, self._child, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if parent >= 0:
                    child[parent] += t1 - t0
                spans[idx] = (self.invocation, name, t0, t1, parent)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(self.counts, args, out)
            return out
        return traced

    def install(self) -> None:
        for mod_name, attr, span in _PATCHES:
            mod = self.modules[mod_name]
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.eigvalsh = self.wrap("linalg.eigvalsh", np.linalg.eigvalsh)
        linalg.eigh = self.wrap("linalg.eigh", np.linalg.eigh)
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(np.__dict__)
        proxy.linalg = linalg
        for mod_name in _NUMPY_USERS:
            mod = self.modules[mod_name]
            self._saved.append((mod, "np", mod.np))
            mod.np = proxy

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def begin(self, invocation: int) -> None:
        self.invocation = invocation
        self._first = len(self.spans)
        self.counts = Counter()

    def summary(self) -> dict[str, float]:
        """Per-layer numbers of the invocation since the last `begin`."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx in range(self._first, len(self.spans)):
            _, name, t0, t1, _ = self.spans[idx]
            total[name] += t1 - t0
            own[name] += t1 - t0 - self._child[idx]
        c = self.counts
        spin = [n for n in total if n.startswith("spin.")]
        roots = c["hyperangular.roots"]
        levels = c["hyperradial.levels"]
        eig_calls = c["linalg.eigvalsh.calls"]
        out = {
            "cli.main.self_s": own["cli.main"],
            "config.parse_config.s": total["config.parse_config"],
            "runner.run.self_s": own["runner.run"],
            "runner.write_outputs.s": total["runner.write_outputs"],
            "runner.rows": c["runner.rows"],
            "runner.bytes_written": c["runner.bytes_written"],
            "figure.sweep_figure.s": total["figure.sweep_figure"],
            "spin.s": sum(total[n] for n in spin),
            "spin.calls": sum(c[n + ".calls"] for n in spin),
            "spin.eigenchannels.s": total["spin.eigenchannels"],
        }
        for axis in ("imaginary", "real"):
            name = f"hyperangular.find_roots_{axis}"
            out[name + ".s"] = total[name]
            out[name + ".self_s"] = own[name]
            out[name + ".calls"] = c[name + ".calls"]
        out.update({
            "hyperangular.classify_root.s": total["hyperangular.classify_root"],
            "hyperangular.classify_root.calls": c["hyperangular.classify_root.calls"],
            "hyperangular.sweep.self_s": own["hyperangular.sweep"],
            "hyperangular.plateau_extract.s": total["hyperangular.plateau_extract"],
            "hyperangular.roots": roots,
            "hyperangular.evals_per_root":
                c["linalg.eigvalsh.single_calls"] / roots if roots else 0.0,
            "hyperradial.efimov_ladder.s": total["hyperradial.efimov_ladder"],
            "hyperradial.bound_states.s": total["hyperradial.bound_states"],
            "hyperradial.bound_states.calls": c["hyperradial.bound_states.calls"],
            "hyperradial.levels": levels,
            "hyperradial.solves_per_level":
                c["linalg.solve_banded.calls"] / levels if levels else 0.0,
            "linalg.eigvalsh.calls": eig_calls,
            "linalg.eigvalsh.single_calls": c["linalg.eigvalsh.single_calls"],
            "linalg.eigvalsh.matrices": c["linalg.eigvalsh.matrices"],
            "linalg.eigvalsh.s": total["linalg.eigvalsh"],
            "linalg.eigvalsh.matrices_per_call":
                c["linalg.eigvalsh.matrices"] / eig_calls if eig_calls else 0.0,
            "linalg.eigh.calls": c["linalg.eigh.calls"],
            "linalg.eigh.s": total["linalg.eigh"],
            "linalg.solve_banded.calls": c["linalg.solve_banded.calls"],
            "linalg.solve_banded.points": c["linalg.solve_banded.points"],
            "linalg.solve_banded.s": total["linalg.solve_banded"],
            "linalg.bytes_computed": c["linalg.bytes_computed"],
        })
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("invocation,name,start_s,end_s,parent\n")
            for inv, name, t0, t1, parent in self.spans:
                f.write(f"{inv},{name},{t0!r},{t1!r},{parent}\n")
