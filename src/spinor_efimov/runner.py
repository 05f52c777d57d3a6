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
    find_roots_imaginary_batch,
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
    _eigenchannels,
    _exchange_overlaps,
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
    #: (the CSV table's rows, their CSV text) as run() rounded them;
    #: write_outputs formats a table afresh that is no longer that list
    _csv: tuple = field(default=(None, None), init=False, repr=False,
                        compare=False)


def _round12(x):
    """A float (numpy's too) to 12 significant digits, or None if it is
    not finite; any other value (None, bool, int, str) as it is."""
    row = {"x": x}
    _round_rows([row])
    return row["x"]


def _round_rows(rows: list[dict], columns: list[str] | None = None
                ) -> str | None:
    """Round each float (numpy's too) of the rows in place to 12
    significant digits, or to None if it is not finite; given columns,
    return the rows' CSV text in those columns, written from the .12g
    text each float was rounded from ("" for None, str() of any other
    value)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if columns:
        writer.writerow(columns)
    for row in rows:
        texts = {}
        for k, v in row.items():
            if isinstance(v, (float, np.floating)):
                v = float(v)
                text = f"{v:.12g}" if math.isfinite(v) else ""
                row[k] = float(text) if text else None
            else:
                text = "" if v is None else str(v)
            texts[k] = text
        if columns:
            writer.writerow([texts[c] for c in columns])
    return buf.getvalue() if columns else None


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
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(channels),
                                          hyperradius=cfg.radius)
    sink: list[str] = []
    roots = list(find_roots_imaginary(spec, cfg.kappa_max, warning_sink=sink))
    if cfg.s_max is not None:
        roots += find_roots_real(spec, cfg.s_max, warning_sink=sink)
    theta = cfg.theta if cfg.theta is not None else channels.mixing_angle
    bundle.tables["rows"] = _root_rows(theta, cfg.radius, spec.mode, roots)
    bundle.warnings.extend(sink)


def _run_theta_sweep(cfg: RunConfig, bundle: ResultBundle) -> SweepTable:
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_count)
    table = theta_sweep(
        thetas, cfg.a_alpha, cfg.a_beta, cfg.a_gamma, hyperradius=cfg.radius,
        kappa_max=cfg.kappa_max, s_max=cfg.s_max)
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
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(_channel_set(cfg)))
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
    bundle.tables["levels"] = [
        {"n": n, "energy": energy, "ratio_to_next": ratios[n],
         "nodes": spectrum.nodes[n]}
        for n, energy in enumerate(spectrum.energies)]
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
    cases = []  # (trial, check, phi), three per trial, reference first
    # per trial: its matrix and that matrix rotated, and the channel to flip
    matrices, flips = np.empty((2 * cfg.trials, 3, 3)), []
    for trial in range(cfg.trials):
        m = _conditioned_matrix(rng)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        matrices[2 * trial] = m.entries
        matrices[2 * trial + 1] = one_body_rotation(phi, m).entries
        flips.append(int(rng.integers(0, 3)))
        cases += [(trial, "reference", None), (trial, "one-body-rotation", phi),
                  (trial, "sign-flip", None)]
    sets = _eigenchannels(matrices)
    channels = []
    for trial, flip in enumerate(flips):
        base, rotated = sets[2 * trial: 2 * trial + 2]
        channels += [base, rotated, base.flip_sign(flip)]
    specs = [ChannelMatrixSpec.from_overlap(o, hyperradius=cfg.radius)
             for o in _exchange_overlaps(channels)]
    sinks = [[] for _ in specs]
    roots = find_roots_imaginary_batch(specs, cfg.kappa_max,
                                       warning_sinks=sinks)
    rows = []
    max_dev = {"one-body-rotation": 0.0, "sign-flip": 0.0}
    for j, (trial, check, angle) in enumerate(cases):
        bundle.warnings.extend(f"trial {trial} {check}: {w}" for w in sinks[j])
        if check == "reference":
            ref = roots[j]
            continue
        dev = _list_deviation(ref, roots[j])
        rows.append({"check": check, "trial": trial, "phi": angle,
                     "deviation": dev})
        max_dev[check] = max(max_dev[check], dev)
        if not math.isfinite(dev):
            bundle.warnings.append(
                f"{check} trial {trial}: root lists disagree in length "
                "or multiplicity")
    bundle.tables["checks"] = rows
    bundle.meta["max_deviation"] = {k: _round12(v) for k, v in max_dev.items()}


#: task -> (its runner, the table its CSV holds); sweep runners return it
_TASKS = {
    "roots": (_run_roots, "rows"),
    "theta-sweep": (_run_theta_sweep, "rows"),
    "r-sweep": (_run_r_sweep, "rows"),
    "ladder": (_run_ladder, "levels"),
    "invariance-suite": (_run_invariance, "checks"),
}


def run(cfg: RunConfig) -> ResultBundle:
    """Dispatch a validated config; returns tables plus run metadata."""
    if cfg.task not in _TASKS:
        raise RunnerError(f"unhandled task {cfg.task!r}")
    bundle = ResultBundle(meta={
        "task": cfg.task,
        "mode": cfg.mode,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config_as_dict(cfg),
    })
    bundle.sweep_table = _TASKS[cfg.task][0](cfg, bundle)
    csv_table = _TASKS[cfg.task][1] if "csv" in cfg.formats else None
    for name, rows in bundle.tables.items():  # the rows are run()'s own
        text = _round_rows(rows, _CSV_COLUMNS[name]
                           if name == csv_table else None)
        if name == csv_table:
            bundle._csv = (rows, text)
    return bundle


_CSV_COLUMNS = {
    "rows": ["theta", "R", "mode", "axis", "value", "multiplicity",
             "w_111_family", "w_mixed_family"],
    "levels": ["n", "energy", "ratio_to_next", "nodes"],
    "checks": ["check", "trial", "phi", "deviation"],
}


def _json_pieces(bundle: ResultBundle):
    """The JSON document {"meta", "tables", "warnings"} in pieces, so the
    whole text is never held: meta and warnings indented by two, each
    table row one line from the C encoder."""
    def block(value) -> str:
        return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")

    row_text = json.JSONEncoder(allow_nan=False).encode
    yield '{\n  "meta": ' + block(bundle.meta) + ',\n  "tables": {'
    for t, (name, rows) in enumerate(bundle.tables.items()):
        yield ("," if t else "") + f"\n    {json.dumps(name)}: ["
        for r, row in enumerate(rows):
            yield ("," if r else "") + "\n      " + row_text(row)
        yield "\n    ]" if rows else "]"
    yield ("\n  }" if bundle.tables else "}") + ',\n  "warnings": ' \
        + block(bundle.warnings) + "\n}\n"


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
        name = _TASKS[task][1]
        rows, text = bundle._csv
        if rows is not bundle.tables[name]:  # not the table run() wrote out
            text = _round_rows([dict(row) for row in bundle.tables[name]],
                               _CSV_COLUMNS[name])
        path = os.path.join(out_dir, f"{task}.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        written.append(path)
    if "json" in formats:
        path = os.path.join(out_dir, f"{task}.json")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(_json_pieces(bundle))
        written.append(path)
    if svg is not None:
        path = os.path.join(out_dir, f"{task}.svg")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(svg)
        written.append(path)
    return written
