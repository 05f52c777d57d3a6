import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spinor_efimov.hyperangular as hyperangular
import spinor_efimov.runner as runner
from spinor_efimov.cli import main
from spinor_efimov.config import TASKS, parse_config
from spinor_efimov.figure import sweep_figure
from spinor_efimov.hyperangular import (
    ChannelMatrixSpec,
    channel_matrix,
    theta_sweep,
)
from spinor_efimov.hyperradial import _E_RTOL, efimov_ladder
from spinor_efimov.runner import run, write_outputs
from spinor_efimov.spin import channels_from_angle, exchange_overlap

SWEEP_CFG = """
task = theta-sweep
a_alpha = closed
a_beta = unitary
a_gamma = closed
theta_count = 9
format = csv,json,svg
"""

#: the environment of a child interpreter: the package from this checkout
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture()
def sweep_config(tmp_path):
    path = tmp_path / "sweep.run"
    path.write_text(SWEEP_CFG)
    return path


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_cli_theta_sweep_end_to_end(sweep_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["theta-sweep", "--config", str(sweep_config),
                 "--out", str(out)]) == 0
    rows = _read_csv(out / "theta-sweep.csv")
    assert rows[0]["axis"] == "imaginary"
    assert float(rows[0]["value"]) == pytest.approx(0.41370, abs=1e-4)
    assert int(rows[0]["multiplicity"]) == 2
    assert float(rows[-1]["value"]) == pytest.approx(1.00624, abs=1e-4)
    assert int(rows[-1]["multiplicity"]) == 1
    payload = json.loads((out / "theta-sweep.json").read_text())
    assert payload["meta"]["task"] == "theta-sweep"
    assert payload["warnings"] == []
    captured = capsys.readouterr()
    assert "theta-sweep.svg" in captured.out


def test_full_sweep_csv_matches_anchor_rows(tmp_path):
    # the 201-point production sweep: first csv row lists the double root
    # at 0.41370, the last one the single root at 1.00624
    cfg = parse_config("task = theta-sweep\na_alpha = closed\n"
                       "a_beta = unitary\na_gamma = closed\nformat = csv\n")
    assert cfg.theta_count == 201
    bundle = run(cfg)
    out = tmp_path / "full"
    write_outputs(bundle, str(out), ("csv",))
    rows = _read_csv(out / "theta-sweep.csv")
    assert float(rows[0]["theta"]) == 0.0
    assert float(rows[0]["value"]) == pytest.approx(0.41370, abs=1e-4)
    assert int(rows[0]["multiplicity"]) == 2
    assert float(rows[-1]["theta"]) == pytest.approx(math.pi / 2, abs=1e-10)
    assert float(rows[-1]["value"]) == pytest.approx(1.00624, abs=1e-4)
    assert int(rows[-1]["multiplicity"]) == 1


def test_cli_svg_deterministic(sweep_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["theta-sweep", "--config", str(sweep_config), "--out", str(out1)]) == 0
    assert main(["theta-sweep", "--config", str(sweep_config), "--out", str(out2)]) == 0
    assert (out1 / "theta-sweep.svg").read_bytes() == \
        (out2 / "theta-sweep.svg").read_bytes()


def test_csv_and_json_encode_identical_numbers(sweep_config, tmp_path):
    out = tmp_path / "out"
    main(["theta-sweep", "--config", str(sweep_config), "--out", str(out)])
    csv_rows = _read_csv(out / "theta-sweep.csv")
    json_rows = json.loads((out / "theta-sweep.json").read_text())["tables"]["rows"]
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        for key in ("theta", "R", "value", "w_111_family", "w_mixed_family"):
            assert float(c[key]) == j[key]
        assert int(c["multiplicity"]) == j["multiplicity"]


def _formatted_afresh(rows, columns):
    """Rounding and CSV text as they were before the CSV writer kept the
    text it rounds from: round each value, then format each rounded float
    again for the CSV."""
    def round12(x):
        if isinstance(x, float):
            return float(f"{x:.12g}") if math.isfinite(x) else None
        if isinstance(x, np.floating):
            return round12(float(x))
        return x

    rounded = [{k: round12(v) for k, v in row.items()} for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rounded:
        writer.writerow(["" if row[c] is None else
                         f"{row[c]:.12g}" if isinstance(row[c], float)
                         else str(row[c]) for c in columns])
    return rounded, buf.getvalue()


#: the invariance suite's CSV columns
CHECK_COLUMNS = ["check", "trial", "phi", "deviation"]


def _columns(rows):
    """A runner Table of dict rows, in the columns of the first."""
    return runner.Table({k: ([row[k] for row in rows], None) for k in rows[0]})


EDGE_VALUES = [math.nan, math.inf, -math.inf, None, True, False, 0, -7,
               np.float32(0.1), np.float32(-2.5e-7), np.float32(np.inf),
               -0.0, 0.0, np.float64(1 / 3), -1e-5, 123456789012.5, 2.0,
               1.7976931348623157e308, 5e-324, "a,b", 'a"b', "\u03b8",
               np.float64(np.nan)]


def test_kept_csv_text_matches_formatting_afresh(tmp_path):
    """The CSV text of a table's columns, formatted once from the .12g
    text it rounds from, is the text that formatting the rounded rows
    again gives, and its rows rounded as the outputs round them
    (_round12) give the same JSON: NaN and +-inf are empty cells and
    null, None is empty, bool, int and str print as str(), np.float32
    rounds as a float, -0.0 stays "-0"."""
    columns = CHECK_COLUMNS
    rows = [{"check": "edge", "trial": v, "phi": v, "deviation": w}
            for v, w in zip(EDGE_VALUES, EDGE_VALUES[::-1])]
    table = _columns(rows)
    text = runner._csv_text(runner._formatted(table))
    rounded = [{k: runner._round12(v) for k, v in row.items()}
               for row in rows]
    ref_rounded, ref_text = _formatted_afresh(rows, columns)
    assert [json.dumps(r) for r in rounded] == \
        [json.dumps(r) for r in ref_rounded] == \
        [json.dumps(r) for r in table]
    assert text == ref_text
    assert "\nedge,,,\n" in text  # NaN in both number columns
    assert "\nedge,-0,-0," in text
    assert json.dumps(runner._round12(-math.inf)) == "null"

    # write_outputs: the text run() kept for its table, the same text
    # made afresh for a table set after run() or one run() did not write
    # out (format = json)
    for formats in ("csv", "json"):
        bundle = run(parse_config(
            f"task = invariance-suite\ntrials = 2\nformat = {formats}\n"))
        for table in (bundle.tables["checks"], _columns(rows)):
            bundle.tables["checks"] = table
            write_outputs(bundle, str(tmp_path), ("csv",))
            written = (tmp_path / "invariance-suite.csv").read_text()
            assert written == _formatted_afresh(table, columns)[1]
        assert rows[0]["phi"] is not None  # formatted afresh from a copy


def test_streamed_rows_are_the_encoder_text_of_the_rounded_rows(tmp_path):
    """Each JSON row line of a table set after run() is the text
    json.JSONEncoder(allow_nan=False) makes of the row rounded as the
    outputs round it, for every edge value: NaN and +-inf null, -0.0
    "-0.0", 2.0 "2.0", np.float32 as its float, strings escaped."""
    rows = [{"check": "edge", "trial": v, "phi": v, "deviation": w}
            for v, w in zip(EDGE_VALUES, EDGE_VALUES[::-1])]
    bundle = run(parse_config("task = invariance-suite\ntrials = 2\n"))
    bundle.tables["checks"] = _columns(rows)
    write_outputs(bundle, str(tmp_path), ("json",))
    text = (tmp_path / "invariance-suite.json").read_text(encoding="utf-8")
    lines = [line.strip().rstrip(",")
             for line in text.splitlines() if line.startswith("      {")]
    rounded = _formatted_afresh(rows, CHECK_COLUMNS)[0]
    encode = json.JSONEncoder(allow_nan=False).encode
    assert lines == [encode(row) for row in rounded]
    assert '"check": "edge", "trial": -0.0' in text and "\\u03b8" in text


@example(1e12)
@example(123456789012345.0)
@example(1e16)
@example(-1e-5)
@example(5e-324)
@example(1.23456789e-310)
@example(2.2250738585072014e-308)
@example(1.5e-35)
@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.integers(-10 ** 17, 10 ** 17).map(float))
def test_json_text_of_a_float_is_the_repr_of_its_rounded_float(x):
    """A float's JSON text, which skips repr where the .12g text is
    already it, is repr(float(text)) for every magnitude."""
    text, json_text = runner._texts([x])
    assert text == [f"{x:.12g}"]
    assert json_text == [repr(float(text[0]))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.none()
                | st.integers(-10 ** 17, 10 ** 17).map(float), max_size=40))
def test_a_float_column_gets_the_texts_of_its_values_one_by_one(values):
    """The texts of a column, whose non-JSON ones are found over the
    column's text at once, are each value's: "" and null if it is None or
    not finite, else its .12g text and the repr of the float that reads
    as."""
    texts = [f"{x:.12g}" if x is not None and math.isfinite(x) else ""
             for x in values]
    csv_texts, json_texts = runner._texts(values)
    assert list(csv_texts) == texts
    assert list(json_texts) == [repr(float(t)) if t else "null"
                                for t in texts]


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.run"
    bad.write_text("task = theta-sweep\nmystery = 1\n")
    assert main(["theta-sweep", "--config", str(bad)]) == 1
    assert "unknown key 'mystery'" in capsys.readouterr().err
    assert main(["theta-sweep", "--config", str(tmp_path / "absent.run")]) == 1
    capsys.readouterr()
    ok = tmp_path / "ok.run"
    ok.write_text(SWEEP_CFG)
    assert main(["theta-sweep", "--config", str(ok), "--format", "png"]) == 1
    assert "unknown format" in capsys.readouterr().err


def test_cli_unwritable_output_is_an_error(sweep_config, tmp_path, capsys):
    """--out naming an existing file ends in an error line and exit
    status 1, not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["theta-sweep", "--config", str(sweep_config),
                 "--out", str(taken)]) == 1
    assert "error: cannot write outputs:" in capsys.readouterr().err


def test_one_table_dispatches_every_task():
    assert list(runner._TASKS) == list(TASKS)
    cfg = parse_config("task = ladder\nkappa = 1\n")
    cfg.task = "frobnicate"
    with pytest.raises(runner.RunnerError, match="unhandled task"):
        run(cfg)


def test_cli_task_mismatch(sweep_config, capsys):
    assert main(["ladder", "--config", str(sweep_config)]) == 1
    assert "does not match" in capsys.readouterr().err


def test_cli_ladder_json(tmp_path):
    cfgfile = tmp_path / "ladder.run"
    cfgfile.write_text("task = ladder\nkappa = 1.00624\nn_levels = 4\n"
                       "format = json\n")
    out = tmp_path / "out"
    assert main(["ladder", "--config", str(cfgfile), "--out", str(out)]) == 0
    payload = json.loads((out / "ladder.json").read_text())
    levels = payload["tables"]["levels"]
    assert len(levels) == 4
    assert levels[2]["ratio_to_next"] == pytest.approx(515.0, rel=0.02)
    assert payload["meta"]["scaling_factor"] == pytest.approx(22.69, abs=0.01)
    assert [lv["nodes"] for lv in levels] == [0, 1, 2, 3]


def test_cli_ladder_with_no_level_writes_its_header(tmp_path, capsys):
    """A ladder whose every level lies below underflow (its wall at
    1e146) exits 0 with one warning, the CSV header alone and an empty
    JSON table."""
    cfgfile = tmp_path / "ladder.run"
    cfgfile.write_text("task = ladder\nkappa = 1.00624\nn_levels = 2\n"
                       "r0 = 1e146\nformat = csv,json\n")
    out = tmp_path / "out"
    assert main(["ladder", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: depth exhausted (underflow): 0 of 2 levels resolvable"]
    assert (out / "ladder.csv").read_text() == \
        "n,energy,ratio_to_next,nodes\n"
    text = (out / "ladder.json").read_text()
    assert '"levels": []' in text
    assert json.loads(text)["tables"] == {"levels": []}


def test_cli_ladder_angle_form_runs_at_the_dominant_root(tmp_path, capsys):
    """The angle form's ladder is the kappa form's at the asymptotic
    problem's dominant imaginary root, and a channel set without an
    imaginary root has no ladder."""
    angle = (f"task = ladder\ntheta = {math.pi / 2!r}\nn_levels = 3\n"
             "a_alpha = closed\na_beta = unitary\na_gamma = closed\n")
    (tmp_path / "angle.run").write_text(angle)
    assert main(["ladder", "--config", str(tmp_path / "angle.run"),
                 "--out", str(tmp_path / "angle")]) == 0
    meta = json.loads((tmp_path / "angle" / "ladder.json").read_text())["meta"]
    assert meta["kappa"] == 1.0062378251
    assert meta["kappa_source"] == "dominant imaginary root"

    spec = hyperangular.ChannelMatrixSpec.from_overlap(exchange_overlap(
        channels_from_angle(math.pi / 2, "closed", "unitary", "closed")))
    kappa = float(hyperangular.find_roots_imaginary(spec).value[0])
    (tmp_path / "kappa.run").write_text(
        f"task = ladder\nkappa = {kappa!r}\nn_levels = 3\n")
    assert main(["ladder", "--config", str(tmp_path / "kappa.run"),
                 "--out", str(tmp_path / "kappa")]) == 0
    assert (tmp_path / "angle" / "ladder.csv").read_bytes() == \
        (tmp_path / "kappa" / "ladder.csv").read_bytes()

    (tmp_path / "closed.run").write_text(
        angle.replace("a_beta = unitary", "a_beta = closed"))
    capsys.readouterr()
    assert main(["ladder", "--config", str(tmp_path / "closed.run"),
                 "--out", str(tmp_path / "closed")]) == 1
    assert "no imaginary root" in capsys.readouterr().err


def test_roots_toy_form_matches_its_matrix(tmp_path):
    """The toy closed form (a11, a22, a12, a33) solves the same problem as
    the raw matrix with a decoupled third channel; neither file states a
    mode, which their finite entries fix."""
    def rows(text):
        cfg = parse_config("task = roots\nR = 2\n" + text)
        assert cfg.mode == "finite"
        return [(r["axis"], r["value"], r["multiplicity"], r["w_111_family"],
                 r["w_mixed_family"]) for r in run(cfg).tables["rows"]]

    toy = rows("toy = 1.0,2.0,0.5,3.0\n")
    matrix = rows("matrix = 1.0,0.5,0,2.0,0,3.0\n")
    assert len(toy) == len(matrix) == 5
    for t, m in zip(toy, matrix):
        assert t[0] == m[0] == "imaginary" and t[2] == m[2] == 1
        assert (t[1], *t[3:]) == pytest.approx((m[1], *m[3:]), abs=1e-10)


def test_cli_roots_task(tmp_path):
    cfgfile = tmp_path / "roots.run"
    cfgfile.write_text("task = roots\ntheta = 1.5707963267948966\n"
                       "a_alpha = closed\na_beta = unitary\na_gamma = closed\n"
                       "s_max = 5.0\nformat = csv\n")
    out = tmp_path / "out"
    assert main(["roots", "--config", str(cfgfile), "--out", str(out)]) == 0
    rows = _read_csv(out / "roots.csv")
    imag = [r for r in rows if r["axis"] == "imaginary"]
    real = [r for r in rows if r["axis"] == "real"]
    assert len(imag) == 1
    assert float(imag[0]["value"]) == pytest.approx(1.00624, abs=1e-4)
    assert float(real[0]["value"]) == pytest.approx(1.0, abs=1e-6)


def test_json_warnings_include_the_svg_warnings(tmp_path, capsys):
    # the svg-skipped warning is raised while the outputs are written; the
    # json, written before the svg, must still list it
    cfgfile = tmp_path / "roots.run"
    cfgfile.write_text("task = roots\ntheta = 1.5707963\na_alpha = closed\n"
                       "a_beta = unitary\na_gamma = closed\ns_max = 5\n")
    out = tmp_path / "out"
    assert main(["roots", "--config", str(cfgfile), "--out", str(out),
                 "--format", "csv,json,svg"]) == 0
    printed = [line.removeprefix("warning: ")
               for line in capsys.readouterr().err.splitlines()
               if line.startswith("warning: ")]
    assert any("svg output is only defined" in w for w in printed)
    payload = json.loads((out / "roots.json").read_text())
    assert payload["warnings"] == printed
    assert not (out / "roots.svg").exists()


def test_cli_r_sweep_with_plateaus(tmp_path):
    cfgfile = tmp_path / "rs.run"
    cfgfile.write_text("task = r-sweep\ntheta = 1.5707963267948966\n"
                       "a_alpha = 1.0\na_beta = 1e6\na_gamma = closed\n"
                       "R_min = 1e-2\nR_max = 1e6\nR_count = 49\n"
                       "format = json,svg\n")
    out = tmp_path / "out"
    assert main(["r-sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    payload = json.loads((out / "r-sweep.json").read_text())
    accepted = [p for p in payload["tables"]["plateaus"] if p["accepted"]]
    assert accepted
    assert min(abs(p["kappa"] - 1.00624) for p in accepted) < 1e-2
    assert (out / "r-sweep.svg").exists()


def test_cli_strict_fails_on_warning(tmp_path, capsys):
    cfgfile = tmp_path / "narrow.run"
    cfgfile.write_text("task = r-sweep\ntheta = 0.3\n"
                       "a_alpha = 1.0\na_beta = 10.0\na_gamma = closed\n"
                       "R_min = 0.1\nR_max = 100\nR_count = 9\nformat = json\n")
    assert main(["r-sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o1")]) == 0
    assert "no plateau" in capsys.readouterr().err
    assert main(["r-sweep", "--config", str(cfgfile),
                 "--out", str(tmp_path / "o2"), "--strict"]) == 1


def test_cli_strict_passes_when_null_space_explains_a_dip(tmp_path, capsys):
    """At s = 4 this finite spec has a root of multiplicity 4 whose curves
    only touch zero; their dips are that root, not a missed root pair, so
    no grid warning is raised and --strict exits 0."""
    cfgfile = tmp_path / "touch.run"
    cfgfile.write_text("task = roots\nmode = finite\nR = 2\n"
                       "matrix = 1.3,0.2,-0.4,0.7,0.5,-2.1\ns_max = 5\n"
                       "format = csv\n")
    assert main(["roots", "--config", str(cfgfile), "--out", str(tmp_path),
                 "--strict"]) == 0
    assert "warning:" not in capsys.readouterr().err
    rows = _read_csv(tmp_path / "roots.csv")
    assert [r["multiplicity"] for r in rows if r["value"] == "4"] == ["4"]


def test_cli_invariance_suite(tmp_path):
    cfgfile = tmp_path / "inv.run"
    cfgfile.write_text("task = invariance-suite\nseed = 3\ntrials = 3\n"
                       "format = csv,json\n")
    out = tmp_path / "out"
    assert main(["invariance-suite", "--config", str(cfgfile),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "invariance-suite.json").read_text())
    devs = payload["meta"]["max_deviation"]
    assert devs["one-body-rotation"] < 1e-8
    assert devs["sign-flip"] < 1e-8
    assert len(payload["tables"]["checks"]) == 6


def test_invariance_suite_reports_disagreeing_root_lists(tmp_path,
                                                        monkeypatch):
    """Where a check's root list loses a root, its deviation is an empty
    CSV cell and null in the JSON, so is that check's max_deviation, and
    one warning names the trial."""
    solve = runner.find_roots_imaginary_batch
    fields = ("point", "real", "value", "multiplicity", "residual", "spin",
              "same", "mixed")

    def dropped(specs, *args, **kwargs):
        roots = solve(specs, *args, **kwargs)
        # spec 4 is trial 1's one-body rotation: drop its first root
        k = int(np.searchsorted(roots.point, 4))
        assert roots.point[k] == 4
        new = np.arange(roots.value.size) - (np.arange(roots.value.size) > k)
        null = tuple((new[i][i != k], v[i != k]) for i, v in roots.null)
        return hyperangular.RootTable(
            *(np.delete(getattr(roots, f), k, axis=0) for f in fields), null)

    monkeypatch.setattr(runner, "find_roots_imaginary_batch", dropped)
    cfgfile = tmp_path / "inv.run"
    cfgfile.write_text("task = invariance-suite\nseed = 3\ntrials = 3\n"
                       "format = csv,json\n")
    assert main(["invariance-suite", "--config", str(cfgfile),
                 "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "invariance-suite.csv")
    payload = json.loads((tmp_path / "invariance-suite.json").read_text())
    checks = payload["tables"]["checks"]
    assert [(r["check"], r["trial"]) for r in rows] == \
        [(c["check"], str(c["trial"])) for c in checks]
    bad = [j for j, c in enumerate(checks)
           if (c["check"], c["trial"]) == ("one-body-rotation", 1)]
    assert len(bad) == 1
    assert rows[bad[0]]["deviation"] == "" and checks[bad[0]]["deviation"] is None
    assert all(c["deviation"] is not None
               for j, c in enumerate(checks) if j != bad[0])
    devs = payload["meta"]["max_deviation"]
    assert devs["one-body-rotation"] is None and devs["sign-flip"] < 1e-8
    assert [w for w in payload["warnings"] if "root lists disagree" in w] == [
        "one-body-rotation trial 1: root lists disagree in length or "
        "multiplicity"]


def test_invariance_suite_makes_one_stacked_eigh(monkeypatch):
    """The 100 eigenchannel sets of a 50-trial suite (each trial's matrix
    and its one-body rotation) come from one (100, 3, 3) eigh."""
    eigh = np.linalg.eigh
    shapes = []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    bundle = run(parse_config("task = invariance-suite\ntrials = 50\n"))
    assert len(bundle.tables["checks"]) == 100
    assert [s for s in shapes if s[-2:] == (3, 3)] == [(100, 3, 3)]


_PLATEAU_RUN = ("task = r-sweep\ntheta = {}\na_alpha = 1\na_beta = 1e6\n"
                "a_gamma = closed\nR_min = 1e-2\nR_max = 1e6\nR_count = 129\n")


def test_solver_runs_make_no_eigvalsh_call(monkeypatch):
    """The seed-0 invariance suite and both plateau r-sweeps diagonalize
    nothing in hyperangular with eigvalsh (the scan and the refinement
    count and evaluate the rank-2 form): hyperangular's eigh calls take
    one stack of overlaps per solve and one matrix per root, and the
    refinement evaluates at most 4,000 points on the suite (every grid
    point went through eigvalsh once: 317,672 matrices in 5,150 calls;
    the certified skip with eigvalsh on the points no count cleared,
    8,134 in 64)."""
    refine = hyperangular._refine
    calls, points = {"eigvalsh": [], "eigh": []}, []

    def counted(name):
        solver = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == hyperangular.__name__:
                calls[name].append(math.prod(np.shape(a)[:-2]))
            return solver(a, *args, **kwargs)
        return wrapper

    def counted_refine(values, *args):
        def counted_values(idx, x):
            points.append(idx.size)
            return values(idx, x)
        return refine(counted_values, *args)

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    monkeypatch.setattr(hyperangular, "_refine", counted_refine)
    bundle = run(parse_config(
        "task = invariance-suite\ntrials = 50\nR = 1\nseed = 0\n"))
    assert len(bundle.tables["checks"]) == 100
    assert calls["eigvalsh"] == []
    assert 0 < sum(points) <= 4_000
    assert len(calls["eigh"]) == 2 and calls["eigh"][0] == 150
    for theta in ("0", repr(math.pi / 2)):
        calls["eigh"].clear()
        table = run(parse_config(_PLATEAU_RUN.format(theta))).sweep_table
        assert calls["eigvalsh"] == []
        assert calls["eigh"] == [129, table.roots.value.size]


def test_invariance_suite_memory_peak():
    """A 50-trial suite allocates at most 5 MB at its peak (tracemalloc),
    after a first run has loaded what numpy imports lazily."""
    config = parse_config(
        "task = invariance-suite\ntrials = 50\nR = 1\nseed = 0\n")
    run(config)
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000


def test_invariance_suite_reports_grid_warnings(tmp_path, capsys,
                                                monkeypatch):
    """Each spec's grid-resolution warnings reach the bundle, the JSON,
    the warning lines and --strict, prefixed with trial and check."""
    solve = runner.find_roots_imaginary_batch

    def injected(specs, *args, warning_sinks, **kwargs):
        out = solve(specs, *args, warning_sinks=warning_sinks, **kwargs)
        for j in (1, 5):
            warning_sinks[j].append(f"curve grazes zero ({j})")
        return out

    monkeypatch.setattr(runner, "find_roots_imaginary_batch", injected)
    cfgfile = tmp_path / "inv.run"
    cfgfile.write_text("task = invariance-suite\nseed = 3\ntrials = 2\n"
                       "format = json\n")
    assert main(["invariance-suite", "--config", str(cfgfile),
                 "--out", str(tmp_path), "--strict"]) == 1
    expected = ["trial 0 one-body-rotation: curve grazes zero (1)",
                "trial 1 sign-flip: curve grazes zero (5)"]
    payload = json.loads((tmp_path / "invariance-suite.json").read_text())
    assert payload["warnings"] == expected
    err = capsys.readouterr().err
    assert [line for line in err.splitlines()
            if line.startswith("warning:")] == \
        [f"warning: {w}" for w in expected]
    assert len(payload["tables"]["checks"]) == 4


def test_installed_entry_point_runs(sweep_config, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "spinor_efimov.cli", "theta-sweep",
         "--config", str(sweep_config), "--out", str(out)],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert (out / "theta-sweep.csv").exists()


@pytest.mark.parametrize("text", [
    "task = ladder\nkappa = 1.00624\nn_levels = 2\nr0 = 1e-160\n",
    "task = ladder\nkappa = 1.0\nn_levels = 2\nr0 = 1e-300\n",
    "task = theta-sweep\na_alpha = closed\na_beta = unitary\n"
    "a_gamma = closed\ns_max = 1e15\n",
])
def test_cli_refuses_grids_that_overflow(text, tmp_path):
    """Run files whose ladder grid or potential leaves double precision,
    or whose s_max would allocate petabytes, end in one error line and
    exit status 1, with no traceback and no warning.  The first once shot
    forever at NaN brackets, so the child runs under a timeout."""
    cfg = tmp_path / "bad.run"
    cfg.write_text(text)
    task = text.split("\n", 1)[0].split(" = ")[1]
    proc = subprocess.run(
        [sys.executable, "-m", "spinor_efimov.cli", task,
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=20, env=CHILD_ENV)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kappa, code, ratios", [
    ("0.004", 0, (None, None)),
    ("0.005", 0, (7.50361889558e+272, None)),
    ("1e62", 0, (1.0, 1.0)),
    ("1e300", 1, None),
])
def test_cli_extreme_kappa_ladder_has_no_traceback(kappa, code, ratios,
                                                   tmp_path):
    """A ladder whose scaling factor e^(pi/kappa), energy ratio
    e^(2 pi/kappa) or Stirling terms leave double precision (each once
    ended in an OverflowError traceback) exits 0 with its outputs, a ratio
    a double cannot hold written as null, or 1 with one error line."""
    cfg = tmp_path / "ladder.run"
    cfg.write_text(f"task = ladder\nkappa = {kappa}\nformat = csv,json\n")
    proc = subprocess.run(
        [sys.executable, "-m", "spinor_efimov.cli", "ladder",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), \
            proc.stderr
        return
    assert all(line.startswith("warning: ") for line in lines), proc.stderr
    meta = json.loads((tmp_path / "out" / "ladder.json").read_text())["meta"]
    assert (meta["scaling_factor"], meta["energy_ratio_target"]) == ratios


@functools.lru_cache
def _alpha_root():
    """The alpha root at theta = 0.3, R = 0.4137 with beta closed, by
    brentq on det of the 2x2 channel matrix, not by the library's
    refinement; a beta length of 1e-12 or less moves it by about
    R/|a_beta| (its block's diagonal) relative, below 1e-12."""
    from scipy.optimize import brentq

    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(
        channels_from_angle(0.3, 1.0, "closed", "closed")), hyperradius=0.4137)
    return brentq(lambda k: np.linalg.det(channel_matrix(1j * k, spec)),
                  1.2, 1.6, xtol=1e-15, rtol=1e-15)


@pytest.mark.parametrize("a_beta", ["1e-12", "1e-13", "1e-14", "1e-16",
                                    "1e-20", "1e-30", "1e-300"])
def test_deep_dimer_keeps_the_alpha_root(a_beta, tmp_path):
    """A dimer at sqrt(2) R/a_beta widens the kappa window to 10 + 2
    sqrt(2) R/a_beta, so the alpha root near 1.3864 lies in the first grid
    cell; its refinement stops at a tolerance taken from the bracket as it
    narrows, not from the grid step (which once left 1.38640637172, or an
    error for a residual of 2e-6 up to 1)."""
    cfg = tmp_path / "roots.run"
    cfg.write_text("task = roots\ntheta = 0.3\na_alpha = 1\n"
                   f"a_beta = {a_beta}\na_gamma = closed\nR = 0.4137\n")
    assert main(["roots", "--config", str(cfg), "--out",
                 str(tmp_path)]) == 0
    rows = [r for r in _read_csv(tmp_path / "roots.csv")
            if r["axis"] == "imaginary"]
    values = sorted(float(r["value"]) for r in rows)
    assert values[-1] == pytest.approx(
        math.sqrt(2.0) * 0.4137 / float(a_beta), rel=1e-6)
    assert min(abs(v - _alpha_root()) for v in values) <= 1e-10


@pytest.mark.parametrize("text, code", [
    ("task = r-sweep\ntheta = 0\na_alpha = -1e-12\na_beta = 1e6\n"
     "a_gamma = closed\nR_min = 1\nR_max = 1e300\nR_count = 9\n", 1),
    ("task = theta-sweep\na_alpha = closed\na_beta = 1e-300\n"
     "a_gamma = closed\nR = 0.4137\n", 0),
], ids=["r-sweep-past-double", "theta-sweep-dimer-5.85e299"])
def test_extreme_lengths_raise_no_runtime_warning(text, code, tmp_path,
                                                  capsys):
    """An R/a beyond double precision is refused by name (it once printed
    three RuntimeWarnings and failed in eigvalsh), and a dimer root at
    5.85e299 is found without the counts' overflow warning."""
    cfg = tmp_path / "extreme.run"
    cfg.write_text(text)
    task = text.split("\n", 1)[0].split(" = ")[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([task, "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == code
    if code:
        assert capsys.readouterr().err.splitlines() == [
            "error: R/a is not finite in double precision at R = 1e+300 "
            "and a = -1e-12"]
    else:
        rows = _read_csv(tmp_path / "out" / f"{task}.csv")
        assert len(rows) == 201
        assert all(r["value"] == "5.85060150754e+299" for r in rows)


@functools.lru_cache
def _ladder_energies(kappa, wall_radius, n_levels):
    return efimov_ladder(kappa, wall_radius, n_levels).energies


@pytest.mark.parametrize("text, fit", [
    *((f"task = ladder\nkappa = 0.41370\nn_levels = {n}\n",
       (0.41370, 1e-3, 44)) for n in (45, 46, 60, 100)),
    ("task = ladder\nkappa = 0.1\nn_levels = 30\nr0 = 1e9\n",
     (0.1, 1e9, 9)),
])
def test_cli_ladder_past_underflow_returns_the_levels_that_fit(
        text, fit, tmp_path, capsys):
    """Ladders deeper than the levels above 1e-290 (these once printed no
    level, or failed on a grid whose R^2 overflows) exit 0 with the levels
    of a ladder that asks for just those, and one depth-exhausted warning."""
    cfg = tmp_path / "deep.run"
    cfg.write_text(text)
    assert main(["ladder", "--config", str(cfg), "--out",
                 str(tmp_path / "out"), "--format", "csv"]) == 0
    n_levels = int(text.split("n_levels = ")[1].split("\n")[0])
    assert capsys.readouterr().err.splitlines() == [
        f"warning: depth exhausted (underflow): {fit[2]} of {n_levels} "
        "levels resolvable"]
    rows = _read_csv(tmp_path / "out" / "ladder.csv")
    assert [float(r["energy"]) for r in rows] == pytest.approx(
        _ladder_energies(*fit), rel=_E_RTOL, abs=0.0)


# ---------------------------------------------------------------------------
# figure details
# ---------------------------------------------------------------------------

def test_figure_endpoint_markers_carry_anchor_values():
    table = theta_sweep(np.linspace(0, math.pi / 2, 9),
                        "closed", "unitary", "closed")
    svg, warnings = sweep_figure(table)
    assert warnings == []
    kappas = [float(m) for m in re.findall(r'data-kappa="([0-9.e+-]+)"', svg)]
    mults = [int(m) for m in re.findall(r'data-multiplicity="(\d+)"', svg)]
    assert min(abs(k - 0.41370) for k in kappas) < 1e-4
    assert min(abs(k - 1.00624) for k in kappas) < 1e-4
    start_double = [m for k, m in zip(kappas, mults)
                    if abs(k - 0.41370) < 1e-4]
    assert 2 in start_double
    assert svg.startswith("<svg ")
    assert "stroke-dasharray" not in svg  # no real roots requested


def test_figure_draws_real_roots_dashed():
    table = theta_sweep(np.linspace(0.3, 0.6, 4), "closed", "unitary",
                        "closed", s_max=3.0)
    svg, _ = sweep_figure(table)
    assert "stroke-dasharray" in svg


def test_figure_skips_empty_rows_with_warning():
    # the root at theta = 0.4 (kappa 0.80) lies outside kappa_max
    table = theta_sweep([0.0, 0.1, 0.2, 0.4], "closed", "unitary", "closed",
                        kappa_max=0.75)
    svg, warnings = sweep_figure(table)
    assert len(warnings) == 1
    assert "theta=0.4; row skipped" in warnings[0]
    assert svg.count("<polyline") >= 1


def test_figure_of_one_nonempty_row_has_a_unit_axis():
    """One row with roots leaves no x range: the axis spans one unit
    from it rather than dividing by zero."""
    svg, warnings = sweep_figure(theta_sweep([0.3], "closed", "unitary",
                                             "closed"))
    assert warnings == [] and ">1.3<" in svg


# ---------------------------------------------------------------------------
# typed refusals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, message", [
    ("task = roots\ntheta = 0\na_alpha = closed\na_beta = unitary\n"
     "a_gamma = closed\nkappa_max = 1e-9\n",
     "kappa_max must exceed the grid offset 1e-08"),
    # every row of the sweep is empty, so the figure has nothing to draw
    ("task = theta-sweep\na_alpha = closed\na_beta = closed\n"
     "a_gamma = closed\nformat = svg\n",
     "nothing to draw: every sweep row is empty"),
])
def test_run_file_refusal_is_one_error_line(text, message, tmp_path, capsys):
    """Refusals past the parse end the CLI with one error line (those of
    the parse: test_config_error_is_typed_and_names_its_input)."""
    cfg = tmp_path / "bad.run"
    cfg.write_text(text)
    task = text.split("\n", 1)[0].split(" = ")[1]
    assert main([task, "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("a, b, deviation", [
    (([1, 2], [1.0, 2.0]), ([1, 2], [1.25, 2.0]), 0.25),
    (([], []), ([], []), 0.0),
    (([1, 2], [1.0, 2.0]), ([1], [1.0]), math.inf),  # lengths differ
    (([1, 2], [1.0, 2.0]), ([1, 1], [1.0, 2.0]), math.inf),  # a multiplicity
])
def test_deviation_is_inf_where_root_lists_disagree(a, b, deviation):
    """The deviation of two specs' rows of one root table's columns: the
    largest |value| difference, or inf unless the multiplicities agree
    root by root."""
    (mult_a, value_a), (mult_b, value_b) = a, b
    rows_a, rows_b = slice(0, len(mult_a)), slice(len(mult_a), None)
    assert runner._deviation(mult_a + mult_b, value_a + value_b, rows_a,
                             rows_b) == deviation
