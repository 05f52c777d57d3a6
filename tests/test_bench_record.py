"""tools/bench_record.py on two small synthetic directories of run.py
records: its statistics and verdicts must be compare.py's, in the layout
of the committed BENCH_*.json files."""

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_record  # noqa: E402
import compare  # noqa: E402  (put on the path by bench_record)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
       "cpu_model": "test cpu", "blas_threads": {"OMP_NUM_THREADS": "1"},
       "spinor_efimov_threads_was_set": False}
SEEDS = range(101, 111)


def record(seed, side, solve, cal_ms, env=ENV):
    """One untraced record: raw solve times `solve` per sample, the
    calibration kernel at cal_ms, set-up 0.2 s raw."""
    samples = [{"variant": i % 2, "traced": False, "s": solve * (1 + 0.01 * i),
                "cal": cal_ms * 1e-3, "attempted": 1, "failed": 0}
               for i in range(6)]
    raw = statistics.median(s["s"] for s in samples)
    metrics = {"solve_s": raw * 3e-3 / (cal_ms * 1e-3),
               "solve_s_tail": 1.2 * raw, "setup_s": 0.15 + 1e-4 * seed,
               "peak_rss_mb": 60.0, "success_frac": 1.0}
    return {"workload": "trimer-ladder", "seed": seed, "seconds": 2,
            "trace": 0,
            "environment": {"commit": None, "source_digest": side * 8, **env},
            "samples": samples,
            "setup_samples": [{"s": 0.2, "cal": cal_ms * 1e-3}] * 3,
            "solve_s_raw": raw, "solve_s_tail_raw": 1.2 * raw,
            "setup_s_raw": 0.2, "solve_s_samples": len(samples),
            "attempted": 6, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in metrics.items()}}


def write(directory, records):
    directory.mkdir()
    for rec in records:
        (directory / f"trimer-ladder.seed{rec['seed']}.trace0.json").write_text(
            json.dumps(rec))
    return str(directory)


@pytest.fixture
def dirs(tmp_path):
    base = write(tmp_path / "base", [
        record(s, "b", 0.010 + 1e-4 * (s % 3), 3.0) for s in SEEDS])
    change = write(tmp_path / "change", [
        record(s, "c", 0.5 * (0.010 + 1e-4 * (s % 3)), 3.3) for s in SEEDS])
    return base, change


def test_record_carries_compare_verdicts_and_raw_ratios(dirs, tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_record.main([*dirs, str(out), "--what", "a test",
                              "--note", "n1", "--note", "n2",
                              "--commits", "aaa", "bbb"]) == 0
    rec = json.loads(out.read_text())
    assert rec["what"] == "a test" and rec["notes"] == ["n1", "n2"]
    assert rec["base"] == {"commit": "aaa", "source_digest": "b" * 8}
    assert rec["change"] == {"commit": "bbb", "source_digest": "c" * 8}
    assert rec["seeds"] == list(SEEDS) and rec["run_seconds"] == 2
    assert rec["environment"] == ENV
    work = rec["workloads"]["trimer-ladder"]
    base, change = compare.load(dirs[0]), compare.load(dirs[1])
    for name, row in work["end_to_end"].items():
        b = [base[("trimer-ladder", s)]["metrics"][name]["value"] for s in SEEDS]
        c = [change[("trimer-ladder", s)]["metrics"][name]["value"] for s in SEEDS]
        bound = {"peak_rss_mb": 0.2, "success_frac": 0.001}.get(name, 0.25)
        want = compare.verdict(b, c, list(zip(b, c)), name == "success_frac",
                               bound, False)
        assert (row["base"]["median"], row["base"]["q1"], row["base"]["q3"],
                row["change"]["median"], row["change"]["q1"],
                row["change"]["q3"], row["change_wins"], row["pairs"],
                row["beyond_base_spread"], row["verdict"]) == want
        assert row["base_runs"] == b and row["change_runs"] == c
    assert work["end_to_end"]["solve_s"]["verdict"] == "improved"
    assert work["end_to_end"]["setup_s"]["verdict"] == "unchanged"
    raw = work["raw_seconds"]
    assert raw["solve_s_raw"]["pair_ratio_median"] == pytest.approx(0.5)
    assert raw["setup_s_raw"]["pair_ratio_median"] == 1.0
    assert set(raw) == {"solve_s_raw", "solve_s_tail_raw", "setup_s_raw"}
    assert work["cal_ms_median"] == pytest.approx({"base": 3.0, "change": 3.3})
    assert work["setup_cal_ms_median"] == pytest.approx(
        {"base": 3.0, "change": 3.3})
    assert work["samples_per_run"]["base"]["median"] == 6
    assert work["failed"] == {"base": 0, "change": 0}


def test_record_has_the_committed_layout(dirs, tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_record.main([*dirs, str(out), "--commits", "a", "b"]) == 0
    rec = json.loads(out.read_text())
    committed = json.loads((ROOT / "BENCH_26.json").read_text())
    assert set(committed) - {"repeat_run"} <= set(rec)
    work = rec["workloads"]["trimer-ladder"]
    old = committed["workloads"]["trimer-ladder"]
    assert set(old) <= set(work)
    assert set(old["end_to_end"]) == set(work["end_to_end"])
    for name, row in old["end_to_end"].items():
        assert set(row) == set(work["end_to_end"][name])


def test_records_of_different_environments_are_refused(dirs, tmp_path, capsys):
    other = write(tmp_path / "other", [
        record(s, "c", 0.005, 3.0, {**ENV, "numpy": "1.0"}) for s in SEEDS])
    out = tmp_path / "BENCH.json"
    assert bench_record.main([dirs[0], other, str(out)]) == 2
    assert "numpy" in capsys.readouterr().err and not out.exists()
    assert bench_record.main([dirs[0], str(tmp_path / "none"), str(out)]) == 2


def test_records_without_commits_need_the_commits_option(dirs, tmp_path,
                                                         capsys):
    """Records that name no commit (a git archive checkout) and no
    --commits: one error line and no file, rather than "commit": null.
    Records that name their commit need no option."""
    out = tmp_path / "BENCH.json"
    assert bench_record.main([*dirs, str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: the base records name no commit; give --commits BASE CHANGE"]
    assert not out.exists()
    named = [write(tmp_path / side, [
        record(s, side, 0.01, 3.0, {**ENV, "commit": side * 7})
        for s in SEEDS]) for side in ("b", "c")]
    assert bench_record.main([*named, str(out)]) == 0
    rec = json.loads(out.read_text())
    assert (rec["base"]["commit"], rec["change"]["commit"]) == ("b" * 7,
                                                                "c" * 7)
