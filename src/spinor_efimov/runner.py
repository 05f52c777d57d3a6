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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .config import RunConfig, config_as_dict
from .figure import sweep_figure
from .hyperangular import (
    ChannelMatrixSpec,
    RootTable,
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
    _exp_or_inf,
    efimov_ladder,
    scaling_factor,
)
from .spin import (
    ScatteringMatrix,
    TwoBodyChannelSet,
    _eigenchannels,
    _exchange_overlaps,
    _prechecked,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
    toy_closed_form,
)


class RunnerError(RuntimeError):
    pass


@dataclass
class Table:
    """An output table as columns, name -> (values, index): row r's cell
    is values[index[r]], or values[r] if index is None, so a value rows
    share (a sweep point's theta) is held and formatted once.  Its rows
    read as dicts of the values the outputs give (_round12)."""

    columns: dict

    def __len__(self) -> int:
        values, index = next(iter(self.columns.values()), ((), None))
        return len(values if index is None else index)

    def __getitem__(self, r) -> dict:
        r = range(len(self))[r]  # an IndexError ends iteration
        return {k: _round12(v[r] if i is None else v[i[r]])
                for k, (v, i) in self.columns.items()}


@dataclass
class ResultBundle:
    meta: dict
    tables: dict[str, Table] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    sweep_table: "SweepTable | None" = field(default=None, repr=False)


def _texts(values) -> tuple:
    """The CSV and JSON texts of a column's values.  A float (numpy's too)
    is its .12g text and the repr of the float that reads as, or "" and
    null if it is not finite; None is "" and null; a bool, int or str is
    its str(), quoted as the csv module quotes it, and its JSON.  A
    column of floats and None takes one % format.  Above the subnormals
    (below 1e-307) at most 12 digits read back as the same shortest
    digits, so only a text without a point, with a positive exponent
    (repr writes out below 1e16) or with one from e-30 may not be its
    repr."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return (list(map(str, values)),) * 2
    if not kinds or kinds - {float, type(None)}:
        return tuple(zip(*map(_cell, values))) or ((), ())
    if type(None) in kinds:  # None prints as NaN does
        values = [math.nan if v is None else v for v in values]
    text = "%.12g\n" * len(values) % tuple(values)
    texts = text.split("\n")[:-1]
    json_texts = texts.copy()
    for i in _not_json(text):
        if texts[i][-1] in "nf":  # nan, inf
            texts[i], json_texts[i] = "", "null"
        else:
            json_texts[i] = repr(float(texts[i]))
    return texts, json_texts


def _not_json(text: str) -> list[int]:
    """The lines of a text of %g texts, one a line, without a point or
    with an exponent e+ or e-3 (_texts), found over the text at once."""
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    bad = np.ones(ends.size, dtype=bool)
    bad[np.searchsorted(ends, np.flatnonzero(b == ord(".")))] = False
    e = np.flatnonzero(b == ord("e"))  # always followed by a sign and digits
    bad[np.searchsorted(ends, e[(b[e + 1] == ord("+"))
                                | (b[e + 2] == ord("3"))])] = True
    return np.flatnonzero(bad).tolist()


def _cell(v) -> tuple[str, str]:
    """The CSV and JSON text of one value (_texts)."""
    if isinstance(v, (float, np.floating)):
        return tuple(t[0] for t in _texts([float(v)]))
    if isinstance(v, str):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((v, ""))
        return buf.getvalue()[:-2], encode_basestring_ascii(v)
    return ("", "null") if v is None else (str(v), json.dumps(v))


def _round12(x):
    """A float (numpy's too) rounded to 12 significant digits as the
    outputs give it, or None if it is not finite; any other value (None,
    bool, int, str) as it is."""
    if isinstance(x, (float, np.floating)):
        return float(_cell(x)[0]) if math.isfinite(x) else None
    return x


def _formatted(table: Table) -> dict[str, tuple]:
    """Per column its CSV and JSON texts, one per row, each value
    formatted once."""
    out = {}
    for name, (values, index) in table.columns.items():
        texts = _texts(values)
        out[name] = texts if index is None else \
            tuple(list(map(t.__getitem__, index)) for t in texts)
    return out


def _csv_text(texts: dict) -> str:
    """A header of the columns' names and one line per row."""
    rows = zip(*(t[0] for t in texts.values()))
    return "\n".join([",".join(texts), *map(",".join, rows)]) + "\n"


def _channel_set(cfg: RunConfig) -> TwoBodyChannelSet:
    if cfg.matrix is not None:
        a11, a12, a13, a22, a23, a33 = cfg.matrix
        return eigenchannels(ScatteringMatrix.from_entries(
            a11, a12, a13, a22, a23, a33))
    if cfg.toy is not None:
        return toy_closed_form(*cfg.toy)
    return channels_from_angle(cfg.theta, cfg.a_alpha, cfg.a_beta, cfg.a_gamma)


def _root_rows(thetas, radii, mode, *roots: RootTable) -> Table:
    """The rows table, one row per root of the root tables in turn: the
    roots' point indices into thetas and radii (R None in asymptotic mode,
    written as 0), axes, values, multiplicities and family weights."""
    point, real, value, mult, same, mixed = (
        np.concatenate([getattr(r, k) for r in roots]).tolist()
        for k in ("point", "real", "value", "multiplicity", "same", "mixed"))
    return Table({
        "theta": (thetas, point),  # None for raw-matrix input with no angle
        "R": ([0.0 if r is None else r for r in radii], point),
        "mode": ([mode], [0] * len(point)),
        "axis": (["imaginary", "real"], real),
        "value": (value, None),
        "multiplicity": (mult, None),
        "w_111_family": (same, None),
        "w_mixed_family": (mixed, None),
    })


def _run_roots(cfg: RunConfig, bundle: ResultBundle) -> None:
    channels = _channel_set(cfg)
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(channels),
                                          hyperradius=cfg.radius)
    sink: list[str] = []
    roots = [find_roots_imaginary(spec, cfg.kappa_max, warning_sink=sink)]
    if cfg.s_max is not None:
        roots.append(find_roots_real(spec, cfg.s_max, warning_sink=sink))
    theta = cfg.theta if cfg.theta is not None else channels.mixing_angle
    bundle.tables["rows"] = _root_rows([theta], [cfg.radius], spec.mode,
                                       *roots)
    bundle.warnings.extend(sink)


def _run_theta_sweep(cfg: RunConfig, bundle: ResultBundle) -> SweepTable:
    thetas = np.linspace(cfg.theta_min, cfg.theta_max, cfg.theta_count)
    table = theta_sweep(
        thetas, cfg.a_alpha, cfg.a_beta, cfg.a_gamma, hyperradius=cfg.radius,
        kappa_max=cfg.kappa_max, s_max=cfg.s_max)
    bundle.tables["rows"] = _root_rows(table.thetas, table.radii, table.mode,
                                       table.roots)
    bundle.warnings.extend(table.warnings)
    return table


def _run_r_sweep(cfg: RunConfig, bundle: ResultBundle) -> SweepTable:
    radii = np.geomspace(cfg.r_min, cfg.r_max, cfg.r_count)
    table = radius_sweep(
        cfg.theta, cfg.a_alpha, cfg.a_beta, cfg.a_gamma, radii,
        kappa_max=cfg.kappa_max, s_max=cfg.s_max)
    bundle.tables["rows"] = _root_rows(table.thetas, table.radii, table.mode,
                                       table.roots)
    summary = plateau_extract(table)
    bundle.tables["plateaus"] = Table({
        name: ([getattr(p, attr) for p in summary.plateaus], None)
        for name, attr in (("curve", "curve_id"), ("kappa", "kappa"),
                           ("R", "radius"), ("flatness", "flatness"),
                           ("accepted", "accepted"))})
    if summary.no_plateau_reason:
        bundle.warnings.append(summary.no_plateau_reason)
    bundle.warnings.extend(table.warnings)
    return table


def _dominant_kappa(cfg: RunConfig, bundle: ResultBundle) -> float:
    if cfg.kappa is not None:
        return cfg.kappa
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(_channel_set(cfg)))
    roots = find_roots_imaginary(spec, cfg.kappa_max)
    if not roots.value.size:
        raise RunnerError(
            "ladder: no imaginary root; the configuration supports no "
            "Efimov channel")
    bundle.meta["kappa_source"] = "dominant imaginary root"
    return float(roots.value[0])


def _run_ladder(cfg: RunConfig, bundle: ResultBundle) -> None:
    kappa = _dominant_kappa(cfg, bundle)
    conv = PhysicalConvention(mass=cfg.mass)
    spectrum = efimov_ladder(kappa, cfg.wall_radius, cfg.n_levels, conv)
    n = spectrum.n_levels
    bundle.tables["levels"] = Table({
        "n": (list(range(n)), None),
        "energy": (list(spectrum.energies), None),
        "ratio_to_next": ([*spectrum.ratios, None][:n], None),
        "nodes": (list(spectrum.nodes), None)})
    bundle.meta["kappa"] = _round12(kappa)
    bundle.meta["scaling_factor"] = _round12(scaling_factor(kappa))
    bundle.meta["energy_ratio_target"] = _round12(
        _exp_or_inf(2 * math.pi / kappa))
    bundle.meta["wall_radius"] = cfg.wall_radius
    if spectrum.depth_exhausted:
        bundle.warnings.append(
            f"depth exhausted ({spectrum.exhaustion_reason}): "
            f"{spectrum.n_levels} of {cfg.n_levels} levels resolvable")


def _conditioned_matrix(rng) -> ScatteringMatrix:
    """The first draw raw + raw.T, raw uniform on [-2, 2], whose
    eigenvalues are at least 0.05 in magnitude; exactly symmetric and
    finite, so ScatteringMatrix's checks are not run."""
    while True:
        raw = rng.uniform(-2.0, 2.0, size=(3, 3))
        a = raw + raw.T
        if np.min(np.abs(np.linalg.eigvalsh(a))) >= 0.05:
            return _prechecked(ScatteringMatrix, entries=a)


def _deviation(mult, value, a: slice, b: slice) -> float:
    """The largest |value| difference of the roots at rows a and b of a
    root table's columns, or inf unless the multiplicity lists agree."""
    if mult[a] != mult[b]:
        return math.inf
    return max((abs(x - y) for x, y in zip(value[a], value[b])), default=0.0)


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
    specs = [ChannelMatrixSpec.from_overlap(o, cfg.radius)
             for o in _exchange_overlaps(channels)]
    sinks = [[] for _ in specs]
    roots = find_roots_imaginary_batch(specs, cfg.kappa_max,
                                       warning_sinks=sinks)
    # spec j's roots are the rows start[j]:start[j + 1]
    start = np.searchsorted(roots.point, np.arange(len(specs) + 1)).tolist()
    mult, value = roots.multiplicity.tolist(), roots.value.tolist()
    checks = ["one-body-rotation", "sign-flip"]
    cols = {"check": (checks, []), "trial": ([], None), "phi": ([], None),
            "deviation": ([], None)}
    max_dev = dict.fromkeys(checks, 0.0)
    for j, (trial, check, angle) in enumerate(cases):
        bundle.warnings.extend(f"trial {trial} {check}: {w}" for w in sinks[j])
        rows = slice(start[j], start[j + 1])
        if check == "reference":
            ref = rows
            continue
        dev = _deviation(mult, value, ref, rows)
        cols["check"][1].append(checks.index(check))
        for name, v in (("trial", trial), ("phi", angle), ("deviation", dev)):
            cols[name][0].append(v)
        max_dev[check] = max(max_dev[check], dev)
        if not math.isfinite(dev):
            bundle.warnings.append(
                f"{check} trial {trial}: root lists disagree in length "
                "or multiplicity")
    bundle.tables["checks"] = Table(cols)
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
    return bundle


def _json_pieces(bundle: ResultBundle, texts: dict):
    """The JSON document {"meta", "tables", "warnings"} in pieces, one per
    table: meta and warnings indented by two, each table row one line
    from the tables' texts."""
    def block(value) -> str:
        return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")

    yield '{\n  "meta": ' + block(bundle.meta) + ',\n  "tables": {'
    for t, (name, cols) in enumerate(texts.items()):
        # each row as json.JSONEncoder(allow_nan=False) encodes its dict:
        # the keys and the values' texts in turn, and a closing brace
        pieces = [(repeat(("{" if i == 0 else ", ") + json.dumps(k) + ": "),
                   c[1]) for i, (k, c) in enumerate(cols.items())]
        rows = list(map("".join, zip(*chain.from_iterable(pieces))))
        yield ("," if t else "") + f"\n    {json.dumps(name)}: [" + (
            "\n      " + "},\n      ".join(rows) + "}\n    ]" if rows
            else "]")
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
    # each table's values formatted once, for the CSV and the JSON
    texts = {k: _formatted(v) for k, v in bundle.tables.items()}
    if "csv" in formats:
        path = os.path.join(out_dir, f"{task}.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(_csv_text(texts[_TASKS[task][1]]))
        written.append(path)
    if "json" in formats:
        path = os.path.join(out_dir, f"{task}.json")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(_json_pieces(bundle, texts))
        written.append(path)
    if svg is not None:
        path = os.path.join(out_dir, f"{task}.svg")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(svg)
        written.append(path)
    return written
