import csv
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from spinor_efimov.cli import main
from spinor_efimov.config import parse_config
from spinor_efimov.figure import sweep_figure
from spinor_efimov.hyperangular import SweepRow, SweepTable, theta_sweep
from spinor_efimov.runner import run, write_outputs

SWEEP_CFG = """
task = theta-sweep
a_alpha = closed
a_beta = unitary
a_gamma = closed
theta_count = 9
format = csv,json,svg
"""


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


def test_installed_entry_point_runs(sweep_config, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "spinor_efimov.cli", "theta-sweep",
         "--config", str(sweep_config), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "theta-sweep.csv").exists()


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
    table = theta_sweep(np.linspace(0.2, 0.5, 4), "closed", "unitary", "closed")
    empty = SweepRow(0.05, None, "asymptotic", (), ())
    patched = SweepTable("theta", [empty] + table.rows, table.window, [])
    svg, warnings = sweep_figure(patched)
    assert len(warnings) == 1
    assert "row skipped" in warnings[0]
    assert svg.count("<polyline") >= 1
