"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured value and runtime.  Run with `pytest tests/test_acceptance.py
-v -s` to see the lines as they go by.
"""

import math
import time

import numpy as np
import pytest

from spinor_efimov.spin import (
    ScatteringMatrix,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
    toy_closed_form,
)
from spinor_efimov.hyperangular import (
    ChannelMatrixSpec,
    channel_matrix,
    find_roots_imaginary,
    find_roots_real,
    plateau_extract,
    radius_sweep,
    theta_sweep,
)
from spinor_efimov.hyperradial import (
    AdiabaticPotential,
    PhysicalConvention,
    efimov_ladder,
    scaling_factor,
)

CONV = PhysicalConvention()


def _announce(num, elapsed, detail):
    print(f"[acceptance {num:2d}] PASS ({elapsed:6.2f} s)  {detail}", flush=True)


def _asymptotic_spec(theta):
    channels = channels_from_angle(theta, "closed", "unitary", "closed")
    return ChannelMatrixSpec.from_overlap(exchange_overlap(channels))


def test_criterion_01_identical_boson_anchor():
    t0 = time.perf_counter()
    roots = find_roots_imaginary(_asymptotic_spec(math.pi / 2))
    elapsed = time.perf_counter() - t0
    assert len(roots) == 1
    assert roots[0].multiplicity == 1
    assert roots[0].value == pytest.approx(1.00624, abs=1e-4)
    assert elapsed < 1.0
    _announce(1, elapsed, f"theta=pi/2: one imaginary root kappa={roots[0].value:.6f}")


def test_criterion_02_mixed_channel_anchor():
    t0 = time.perf_counter()
    roots = find_roots_imaginary(_asymptotic_spec(0.0))
    elapsed = time.perf_counter() - t0
    total = sum(r.multiplicity for r in roots)
    assert total == 2
    assert all(r.value == pytest.approx(0.41370, abs=1e-4) for r in roots)
    assert elapsed < 1.0
    _announce(2, elapsed,
              f"theta=0: kappa={roots[0].value:.6f} with total multiplicity {total}")


def test_criterion_03_spin_classification():
    t0 = time.perf_counter()
    prof_high = find_roots_imaginary(_asymptotic_spec(math.pi / 2))[0].spin_profile
    prof_zero = find_roots_imaginary(_asymptotic_spec(0.0))[0].spin_profile
    prof_mid = find_roots_imaginary(_asymptotic_spec(math.pi / 4))[0].spin_profile
    elapsed = time.perf_counter() - t0
    assert prof_high.same_level_weight == pytest.approx(1.0, abs=1e-8)
    assert prof_zero.mixed_weight == pytest.approx(1.0, abs=1e-8)
    assert prof_mid.same_level_weight > 0.05
    assert prof_mid.mixed_weight > 0.05
    _announce(3, elapsed,
              f"families pi/2: {prof_high.same_level_weight:.9f} same-level; "
              f"0: {prof_zero.mixed_weight:.9f} mixed; pi/4 split "
              f"{prof_mid.same_level_weight:.3f}/{prof_mid.mixed_weight:.3f}")


def test_criterion_04_theta_sweep_continuity():
    t0 = time.perf_counter()
    table = theta_sweep(np.linspace(0.0, math.pi / 2, 201),
                        "closed", "unitary", "closed")
    elapsed = time.perf_counter() - t0
    max_jump = 0.0
    for pts in table.curve_series("imaginary").values():
        vals = [p[2] for p in pts]
        if len(vals) > 1:
            max_jump = max(max_jump, float(np.max(np.abs(np.diff(vals)))))
    assert max_jump < 0.05
    first, last = table.rows[0], table.rows[-1]
    assert first.roots[0].value == pytest.approx(0.41370, abs=1e-4)
    assert sum(r.multiplicity for r in first.roots) == 2
    assert last.roots[0].value == pytest.approx(1.00624, abs=1e-4)
    assert sum(r.multiplicity for r in last.roots) == 1
    assert elapsed < 10.0
    _announce(4, elapsed,
              f"201-point sweep: max adjacent-kappa jump {max_jump:.5f} < 0.05")


def test_criterion_05_finite_radius_plateau():
    t0 = time.perf_counter()
    radii = np.geomspace(1e-2, 1e6, 129)
    results = {}
    for theta, anchor in ((math.pi / 2, 1.00624), (0.0, 0.41370)):
        table = radius_sweep(theta, 1.0, 1e6, "closed", radii)
        accepted = [p for p in plateau_extract(table).plateaus if p.accepted]
        assert accepted, f"no accepted plateau at theta={theta}"
        hits = [p.kappa for p in accepted if abs(p.kappa - anchor) < 1e-2]
        assert hits, f"plateau misses {anchor} at theta={theta}"
        results[theta] = hits
    assert len(results[0.0]) == 2  # both mixed-pair curves plateau at 0.41370
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce(5, elapsed,
              f"plateaus pi/2: {results[math.pi / 2][0]:.5f}; "
              f"0: {', '.join(f'{k:.5f}' for k in results[0.0])}")


def test_criterion_06_free_limit():
    t0 = time.perf_counter()
    spec = ChannelMatrixSpec.single_level(1.0, hyperradius=1e6)
    vals = [r.value for r in find_roots_real(spec, 5.0)]
    assert abs(vals[0] - 2.0) < 1e-3
    assert abs(vals[1] - 4.0) < 1e-3
    # independent oracle: dense determinant sign scan
    grid = np.linspace(1.5, 4.5, 12001)
    signs = np.array([np.linalg.slogdet(channel_matrix(s, spec))[0]
                      for s in grid])
    flips = grid[np.nonzero(signs[:-1] * signs[1:] < 0)[0]]
    assert any(abs(f - vals[0]) < 3e-4 for f in flips)
    assert any(abs(f - vals[1]) < 3e-4 for f in flips)
    elapsed = time.perf_counter() - t0
    _announce(6, elapsed,
              f"R/a=1e6 lowest real roots {vals[0]:.6f}, {vals[1]:.6f} vs {{2, 4}}")


def test_criterion_07_dimer_limit():
    t0 = time.perf_counter()
    a = 1.0
    spec = ChannelMatrixSpec.single_level(a, hyperradius=100.0 * a)
    root = find_roots_imaginary(spec)[0]
    pot = AdiabaticPotential.from_s_squared([100.0 * a], [[root.s_squared]], CONV)
    u = pot.potentials[0, 0]
    dimer = -1.0 / (CONV.mass * a ** 2)
    assert u == pytest.approx(dimer, rel=0.01)
    elapsed = time.perf_counter() - t0
    _announce(7, elapsed,
              f"U(R=100a) = {u:.6f} vs dimer threshold {dimer:.6f} "
              f"({abs(u / dimer - 1) * 100:.4f}% off)")


def test_criterion_08_efimov_ladder():
    t0 = time.perf_counter()
    kappa = 1.00624
    spectrum = efimov_ladder(kappa, wall_radius=1e-3, n_levels=4)
    elapsed = time.perf_counter() - t0
    target = math.exp(2 * math.pi / kappa)
    assert len(spectrum.ratios) >= 3
    assert spectrum.ratios[2] == pytest.approx(515.03, rel=0.02)
    assert spectrum.ratios[2] == pytest.approx(target, rel=0.02)
    sf = scaling_factor(kappa)
    assert sf == pytest.approx(22.69, abs=0.01)
    assert elapsed < 5.0
    _announce(8, elapsed,
              f"third ratio {spectrum.ratios[2]:.3f} vs {target:.3f}; "
              f"scaling factor {sf:.4f}")


def test_criterion_09_one_body_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20140424)
    worst = 0.0
    for _ in range(50):
        while True:
            raw = rng.uniform(-2.0, 2.0, size=(3, 3))
            m = ScatteringMatrix.from_matrix(raw + raw.T)
            if np.min(np.abs(np.linalg.eigvalsh(m.entries))) >= 0.05:
                break
        phi = rng.uniform(0.0, 2.0 * math.pi)
        def roots_of(mat):
            cs = eigenchannels(mat)
            spec = ChannelMatrixSpec.from_overlap(
                exchange_overlap(cs), hyperradius=1.0)
            return find_roots_imaginary(spec, 10.0)
        a = roots_of(m)
        b = roots_of(one_body_rotation(phi, m))
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.multiplicity == rb.multiplicity
            worst = max(worst, abs(ra.value - rb.value))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 60.0
    _announce(9, elapsed,
              f"50 rotated spectra agree; worst root deviation {worst:.2e}")


def test_criterion_10_closed_form_vs_jacobi():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_val, worst_vec = 0.0, 0.0
    for _ in range(1000):
        a11, a22, a12, a33 = rng.uniform(-5.0, 5.0, size=4)
        closed = toy_closed_form(a11, a22, a12, a33)
        numeric = eigenchannels(
            ScatteringMatrix.from_entries(a11, a12, 0.0, a22, 0.0, a33))
        for k in range(3):
            va = closed.lengths[k].value if closed.lengths[k].kind == "finite" else 0.0
            vb = numeric.lengths[k].value if numeric.lengths[k].kind == "finite" else 0.0
            worst_val = max(worst_val, abs(va - vb) / max(1.0, abs(va)))
            overlap = abs(float(np.dot(closed.vectors[:, k],
                                       numeric.vectors[:, k])))
            worst_vec = max(worst_vec, 1.0 - overlap)
    elapsed = time.perf_counter() - t0
    assert worst_val <= 1e-10
    assert worst_vec <= 1e-10
    assert elapsed < 5.0
    _announce(10, elapsed,
              f"1000 matrices: worst eigenvalue dev {worst_val:.2e}, "
              f"worst eigenvector defect {worst_vec:.2e}")
