"""Task orchestration: dispatch a RunConfig to the library, collect rows
and warnings into a ResultBundle, and write csv/json/svg outputs.

All numbers in tables are serialized with 12 significant digits; csv and
json carry identical values.  Asymptotic-mode rows report R = 0 (the
R/a -> 0 limit).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import RunConfig, config_as_dict
from .figure import sweep_figure
from .hyperangular import (
    ChannelMatrixSpec,
    SweepTable,
    find_roots_imaginary,
    find_roots_real,
    plateau_extract,
    radius_sweep,
    theta_sweep,
)
from .hyperradial import (
    PhysicalConvention,
    efimov_ladder,
    scaling_factor,
)
from .spin import (
    ScatteringMatrix,
    TwoBodyChannelSet,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
    toy_closed_form,
)


class RunnerError(RuntimeError):
    pass


@dataclass
class ResultBundle:
    meta: dict
    tables: dict[str, list[dict]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    sweep_table: "SweepTable | None" = field(default=None, repr=False)


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def _round12(x):
    if x is None or isinstance(x, bool) or not isinstance(x, (int, float, np.floating)):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    x = float(x)
    if not math.isfinite(x):
        return None
    return float(_fmt12(x))


def _round_rows(rows: list[dict]) -> list[dict]:
    return [{k: _round12(v) for k, v in row.items()} for row in rows]


def _channel_set(cfg: RunConfig) -> TwoBodyChannelSet:
    if cfg.matrix is not None:
        a11, a12, a13, a22, a23, a33 = cfg.matrix
        return eigenchannels(ScatteringMatrix.from_entries(
            a11, a12, a13, a22, a23, a33))
    if cfg.toy is not None:
        return toy_closed_form(*cfg.toy)
    return channels_from_angle(cfg.theta, cfg.a_alpha, cfg.a_beta, cfg.a_gamma)


def _root_rows(theta, radius, mode, roots) -> list[dict]:
    rows = []
    for root in roots:
        prof = root.spin_profile
        rows.append({
            "theta": theta,  # None for raw-matrix input with no angle
            "R": radius if radius is not None else 0.0,
            "mode": mode,
            "axis": root.axis,
            "value": root.value,
            "multiplicity": root.multiplicity,
            "w_111_family": prof.same_level_weight if prof else None,
            "w_mixed_family": prof.mixed_weight if prof else None,
        })
    return rows


def _sweep_rows(table: SweepTable) -> list[dict]:
    rows = []
    for row in table.rows:
        rows.extend(_root_rows(row.theta, row.hyperradius, row.mode, row.roots))
    return rows


def _run_roots(cfg: RunConfig, bundle: ResultBundle) -> None:
    channels = _channel_set(cfg)
    spec = ChannelMatrixSpec.from_overlap(
        exchange_overlap(channels), cfg.mode, hyperradius=cfg.radius)
    sink: list[str] = []
    roots = list(find_roots_imaginary(spec, cfg.kappa_max, warning_sink=sink))
    if cfg.s_max is not None:
        roots += find_roots_real(spec, cfg.s_max, warning_sink=sink)
    theta = cfg.theta if cfg.theta is not None else channels.mixing_angle
    bundle.tables["rows"] = _root_rows(theta, cfg.radius, cfg.mode, roots)
    bundle.warnings.extend(sink)


def _run_theta_sweep(cfg: RunConfig, bundle: ResultBundle) -> SweepTable:
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_count)
    table = theta_sweep(
        thetas, cfg.a_alpha, cfg.a_beta, cfg.a_gamma, mode=cfg.mode,
        hyperradius=cfg.radius, kappa_max=cfg.kappa_max, s_max=cfg.s_max)
    bundle.tables["rows"] = _sweep_rows(table)
    bundle.warnings.extend(table.warnings)
    return table


def _run_r_sweep(cfg: RunConfig, bundle: ResultBundle) -> SweepTable:
    radii = np.geomspace(cfg.r_min, cfg.r_max, cfg.r_count)
    table = radius_sweep(
        cfg.theta, cfg.a_alpha, cfg.a_beta, cfg.a_gamma, radii,
        kappa_max=cfg.kappa_max, s_max=cfg.s_max)
    bundle.tables["rows"] = _sweep_rows(table)
    summary = plateau_extract(table)
    bundle.tables["plateaus"] = [
        {"curve": p.curve_id, "kappa": p.kappa, "R": p.radius,
         "flatness": p.flatness, "accepted": p.accepted}
        for p in summary.plateaus
    ]
    if summary.no_plateau_reason:
        bundle.warnings.append(summary.no_plateau_reason)
    bundle.warnings.extend(table.warnings)
    return table


def _dominant_kappa(cfg: RunConfig, bundle: ResultBundle) -> float:
    if cfg.kappa is not None:
        return cfg.kappa
    spec = ChannelMatrixSpec.from_overlap(
        exchange_overlap(_channel_set(cfg)), "asymptotic")
    roots = find_roots_imaginary(spec, cfg.kappa_max)
    if not roots:
        raise RunnerError(
            "ladder: no imaginary root; the configuration supports no "
            "Efimov channel")
    bundle.meta["kappa_source"] = "dominant imaginary root"
    return roots[0].value


def _run_ladder(cfg: RunConfig, bundle: ResultBundle) -> None:
    kappa = _dominant_kappa(cfg, bundle)
    conv = PhysicalConvention(mass=cfg.mass)
    spectrum = efimov_ladder(kappa, cfg.wall_radius, cfg.n_levels, conv)
    ratios = spectrum.ratios + (None,)
    rows = []
    for n, energy in enumerate(spectrum.energies):
        rows.append({
            "n": n,
            "energy": energy,
            "ratio_to_next": ratios[n],
            "nodes": spectrum.nodes[n],
        })
    bundle.tables["levels"] = rows
    bundle.meta["kappa"] = _round12(kappa)
    bundle.meta["scaling_factor"] = _round12(scaling_factor(kappa))
    bundle.meta["energy_ratio_target"] = _round12(math.exp(2 * math.pi / kappa))
    bundle.meta["wall_radius"] = cfg.wall_radius
    if spectrum.depth_exhausted:
        bundle.warnings.append(
            f"depth exhausted ({spectrum.exhaustion_reason}): "
            f"{spectrum.n_levels} of {cfg.n_levels} levels resolvable")


def _conditioned_matrix(rng) -> ScatteringMatrix:
    while True:
        raw = rng.uniform(-2.0, 2.0, size=(3, 3))
        m = ScatteringMatrix.from_matrix(raw + raw.T)
        if np.min(np.abs(np.linalg.eigvalsh(m.entries))) >= 0.05:
            return m


def _root_list(channels, radius, kappa_max):
    spec = ChannelMatrixSpec.from_overlap(
        exchange_overlap(channels), "finite", hyperradius=radius)
    return find_roots_imaginary(spec, kappa_max)


def _list_deviation(a, b) -> float:
    if len(a) != len(b):
        return float("inf")
    dev = 0.0
    for x, y in zip(a, b):
        if x.multiplicity != y.multiplicity:
            return float("inf")
        dev = max(dev, abs(x.value - y.value))
    return dev


def _run_invariance(cfg: RunConfig, bundle: ResultBundle) -> None:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    max_dev = {"one-body-rotation": 0.0, "sign-flip": 0.0}
    for trial in range(cfg.trials):
        m = _conditioned_matrix(rng)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        base = eigenchannels(m)
        ref = _root_list(base, cfg.radius, cfg.kappa_max)
        cases = (("one-body-rotation", phi,
                  eigenchannels(one_body_rotation(phi, m))),
                 ("sign-flip", None, base.flip_sign(int(rng.integers(0, 3)))))
        for check, angle, channels in cases:
            dev = _list_deviation(ref, _root_list(channels, cfg.radius,
                                                  cfg.kappa_max))
            rows.append({"check": check, "trial": trial, "phi": angle,
                         "deviation": dev})
            max_dev[check] = max(max_dev[check], dev)
            if not math.isfinite(dev):
                bundle.warnings.append(
                    f"{check} trial {trial}: root lists disagree in length "
                    "or multiplicity")
    bundle.tables["checks"] = rows
    bundle.meta["max_deviation"] = {k: _round12(v) for k, v in max_dev.items()}


def run(cfg: RunConfig) -> ResultBundle:
    """Dispatch a validated config; returns tables plus run metadata."""
    bundle = ResultBundle(meta={
        "task": cfg.task,
        "mode": cfg.mode,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config_as_dict(cfg),
    })
    table = None
    if cfg.task == "roots":
        _run_roots(cfg, bundle)
    elif cfg.task == "theta-sweep":
        table = _run_theta_sweep(cfg, bundle)
    elif cfg.task == "r-sweep":
        table = _run_r_sweep(cfg, bundle)
    elif cfg.task == "ladder":
        _run_ladder(cfg, bundle)
    elif cfg.task == "invariance-suite":
        _run_invariance(cfg, bundle)
    else:
        raise RunnerError(f"unhandled task {cfg.task!r}")
    for name in bundle.tables:
        bundle.tables[name] = _round_rows(bundle.tables[name])
    bundle.sweep_table = table
    return bundle


_CSV_COLUMNS = {
    "rows": ["theta", "R", "mode", "axis", "value", "multiplicity",
             "w_111_family", "w_mixed_family"],
    "levels": ["n", "energy", "ratio_to_next", "nodes"],
    "checks": ["check", "trial", "phi", "deviation"],
}
_PRIMARY_TABLE = {
    "roots": "rows", "theta-sweep": "rows", "r-sweep": "rows",
    "ladder": "levels", "invariance-suite": "checks",
}


def _csv_text(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        out = []
        for col in columns:
            v = row[col]
            if v is None:
                out.append("")
            else:
                out.append(_fmt12(v) if isinstance(v, float) else str(v))
        writer.writerow(out)
    return buf.getvalue()


def write_outputs(bundle: ResultBundle, out_dir: str,
                  formats: tuple[str, ...]) -> list[str]:
    """Write <task>.<fmt> files; returns the paths written."""
    task = bundle.meta["task"]
    os.makedirs(out_dir, exist_ok=True)
    written = []
    # the figure's warnings must reach the JSON, which is written first
    svg = None
    if "svg" in formats:
        if bundle.sweep_table is None:
            bundle.warnings.append(
                f"svg output is only defined for sweep tasks; skipped for "
                f"'{task}'")
        else:
            svg, fig_warnings = sweep_figure(bundle.sweep_table)
            bundle.warnings.extend(fig_warnings)
    if "csv" in formats:
        name = _PRIMARY_TABLE[task]
        path = os.path.join(out_dir, f"{task}.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(_csv_text(bundle.tables[name], _CSV_COLUMNS[name]))
        written.append(path)
    if "json" in formats:
        path = os.path.join(out_dir, f"{task}.json")
        payload = {"meta": bundle.meta, "tables": bundle.tables,
                   "warnings": bundle.warnings}
        with open(path, "w", encoding="utf-8", newline="") as f:
            json.dump(payload, f, indent=2, allow_nan=False)
            f.write("\n")
        written.append(path)
    if svg is not None:
        path = os.path.join(out_dir, f"{task}.svg")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(svg)
        written.append(path)
    return written
