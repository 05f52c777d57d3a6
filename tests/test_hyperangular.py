import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import spinor_efimov.hyperangular as hyperangular
from spinor_efimov.config import parse_config
from spinor_efimov.runner import _conditioned_matrix, run
from spinor_efimov.spin import (
    ScatteringMatrix,
    as_length,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
)
from spinor_efimov.hyperangular import (
    GRID_EPS,
    KERNEL_COEFF,
    ChannelMatrixSpec,
    GridResolutionWarning,
    HyperangularError,
    channel_matrix,
    classify_root,
    default_kappa_max,
    find_roots_imaginary,
    find_roots_imaginary_batch,
    find_roots_real,
    plateau_extract,
    radius_sweep,
    theta_sweep,
)

KC = 4.0 / math.sqrt(3.0)

# independently solved anchors of the collapsed transcendental equations
# kappa cosh(kappa pi/2) = c sinh(kappa pi/6), c = 8/sqrt(3) and 4/sqrt(3)
KAPPA_IDENTICAL = brentq(
    lambda k: k * math.cosh(k * math.pi / 2) - (8 / math.sqrt(3)) * math.sinh(k * math.pi / 6),
    0.5, 2.0, xtol=1e-14)
KAPPA_MIXED = brentq(
    lambda k: k * math.cosh(k * math.pi / 2) - (4 / math.sqrt(3)) * math.sinh(k * math.pi / 6),
    0.1, 1.0, xtol=1e-14)


def _spec_at_angle(theta, a_alpha, a_beta, a_gamma, mode="asymptotic", R=None):
    cs = channels_from_angle(theta, a_alpha, a_beta, a_gamma)
    return ChannelMatrixSpec.from_overlap(exchange_overlap(cs), mode,
                                          hyperradius=R)


def _det_sign_scan(spec, svals):
    """Independent oracle: determinant sign changes on a dense real-s grid."""
    signs = []
    for s in svals:
        sign, _ = np.linalg.slogdet(channel_matrix(s, spec))
        signs.append(sign)
    signs = np.array(signs)
    idx = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    return [(svals[i], svals[i + 1]) for i in idx]


# ---------------------------------------------------------------------------
# channel matrix contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [1.3, 0.05j, 1j, 8j, 30j])
def test_matrix_entries_match_formula_finite_mode(s):
    """M(s) on the real axis; H(kappa) with M = i H at s = i kappa,
    including the sinh R/a term and entries of size up to cosh(15 pi)."""
    spec = _spec_at_angle(0.3, 1.5, -2.0, 0.5, mode="finite", R=2.0)
    m = channel_matrix(s, spec)
    o = spec.overlap
    if isinstance(s, float):
        diag = s * math.cos(s * math.pi / 2)
        radial = math.sin(s * math.pi / 2)
        kern = math.sin(s * math.pi / 6)
    else:
        k = s.imag
        diag = k * math.cosh(k * math.pi / 2)
        radial = math.sinh(k * math.pi / 2)
        kern = math.sinh(k * math.pi / 6)
    diag_terms = []
    for a in (1.5, -2.0, 0.5):
        diag_terms.extend([diag - math.sqrt(2) * (2.0 / a) * radial] * 2)
    expected = np.diag(diag_terms) - KC * kern * o
    if isinstance(s, float):
        np.testing.assert_allclose(m, expected, atol=1e-13)
    else:
        np.testing.assert_allclose(m, expected, rtol=1e-13, atol=0.0)


def test_matrix_unitary_channel_drops_radial_term():
    spec = _spec_at_angle(math.pi / 2, "closed", "unitary", "closed")
    kappa = 0.8
    h = channel_matrix(1j * kappa, spec)
    # active block is the beta channel only: 2x2, overlap diag(2, 0)
    d = kappa * math.cosh(kappa * math.pi / 2)
    kern = KC * math.sinh(kappa * math.pi / 6)
    expected = np.array([[d - 2 * kern, 0.0], [0.0, d]])
    np.testing.assert_allclose(h, expected, atol=1e-13)


def test_matrix_closed_channels_are_eliminated():
    spec = _spec_at_angle(0.2, "unitary", "unitary", "closed")
    assert channel_matrix(1j, spec).shape == (4, 4)
    assert list(spec.active_states()) == [0, 1, 2, 3]


def test_matrix_rejects_off_axis_and_zero():
    spec = _spec_at_angle(0.2, "closed", "unitary", "closed")
    with pytest.raises(HyperangularError):
        channel_matrix(1.0 + 1.0j, spec)
    with pytest.raises(HyperangularError):
        channel_matrix(0.0, spec)
    with pytest.raises(HyperangularError):
        channel_matrix(-0.5j, spec)


def test_matrix_imaginary_axis_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.uniform(-2, 2, (3, 3))
        cs = eigenchannels(ScatteringMatrix.from_matrix(m + m.T + 3 * np.eye(3)))
        spec = ChannelMatrixSpec.from_overlap(
            exchange_overlap(cs), "finite", hyperradius=rng.uniform(0.1, 5))
        h = channel_matrix(1j * rng.uniform(0.05, 8.0), spec)
        assert np.max(np.abs(h - h.T)) < 1e-14


def test_normalized_matrix_same_zero_structure():
    spec = _spec_at_angle(0.0, "closed", "unitary", "closed")
    k = KAPPA_MIXED
    plain = np.linalg.eigvalsh(channel_matrix(1j * k, spec))
    norm = np.linalg.eigvalsh(channel_matrix(1j * k, spec, normalized=True))
    assert np.max(np.abs(plain)) < 1e-10
    assert np.max(np.abs(norm)) < 1e-10


def test_spec_mode_validation():
    cs = channels_from_angle(0.1, 1.0, 2.0, 3.0)
    o = exchange_overlap(cs)
    with pytest.raises(HyperangularError):
        ChannelMatrixSpec.from_overlap(o, "asymptotic")
    csu = channels_from_angle(0.1, "unitary", "unitary", "closed")
    with pytest.raises(HyperangularError):
        ChannelMatrixSpec.from_overlap(exchange_overlap(csu), "finite",
                                       hyperradius=1.0)
    with pytest.raises(HyperangularError):
        ChannelMatrixSpec.from_overlap(o, "finite")  # missing R


# ---------------------------------------------------------------------------
# imaginary-axis roots: paper anchors and limits
# ---------------------------------------------------------------------------

def test_single_imaginary_root_identical_bosons():
    spec = _spec_at_angle(math.pi / 2, "closed", "unitary", "closed")
    roots = find_roots_imaginary(spec)
    assert len(roots) == 1
    r = roots[0]
    assert r.multiplicity == 1
    assert r.value == pytest.approx(1.00624, abs=1e-4)
    assert r.value == pytest.approx(KAPPA_IDENTICAL, abs=1e-10)
    assert r.residual < 1e-9


def test_double_imaginary_root_mixed_pair():
    spec = _spec_at_angle(0.0, "closed", "unitary", "closed")
    roots = find_roots_imaginary(spec)
    assert sum(r.multiplicity for r in roots) == 2
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(0.41370, abs=1e-4)
    assert roots[0].value == pytest.approx(KAPPA_MIXED, abs=1e-10)


def test_all_closed_gives_empty_list():
    spec = _spec_at_angle(0.4, "closed", "closed", "closed")
    assert find_roots_imaginary(spec) == []
    assert find_roots_real(spec, 5.0) == []


def test_single_level_reduction_recovers_identical_boson_constant():
    spec = ChannelMatrixSpec.single_level("unitary", "asymptotic")
    roots = find_roots_imaginary(spec)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(KAPPA_IDENTICAL, abs=1e-5)


def test_dimer_limit_root_tracks_sqrt2_r_over_a():
    spec = ChannelMatrixSpec.single_level(1.0, "finite", hyperradius=100.0)
    assert default_kappa_max(spec) == pytest.approx(10 + 2 * math.sqrt(2) * 100)
    roots = find_roots_imaginary(spec)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(math.sqrt(2) * 100, rel=1e-10)


def test_null_vector_contract():
    spec = _spec_at_angle(0.0, "closed", "unitary", "closed")
    root = find_roots_imaginary(spec)[0]
    nv = root.null_vectors
    assert nv.shape == (6, 2)
    # closed channels carry exactly zero amplitude
    assert np.all(nv[[0, 1, 4, 5], :] == 0.0)
    np.testing.assert_allclose(nv.T @ nv, np.eye(2), atol=1e-12)
    h = channel_matrix(1j * root.value, spec)
    act = spec.active_states()
    assert np.max(np.abs(h @ nv[act, :])) < 1e-8


def test_null_vector_columns_lead_with_a_positive_entry():
    """Each null vector's largest-magnitude entry is positive, for roots
    of every multiplicity on both axes."""
    spec = _spec_at_angle(0.7, 1.0, 2.0, "closed", "finite", R=1.5)
    roots = find_roots_imaginary(spec) \
        + find_roots_real(spec, 8.0, warning_sink=[])
    sweep = theta_sweep([0.0, 0.4], "unitary", "unitary", "closed", s_max=8)
    roots += [r for row in sweep.rows for r in row.roots]
    assert {r.multiplicity for r in roots} >= {1, 2}
    for r in roots:
        nv = r.null_vectors
        top = nv[np.argmax(np.abs(nv), axis=0), np.arange(r.multiplicity)]
        assert np.all(top > 0.0)


# ---------------------------------------------------------------------------
# real-axis roots
# ---------------------------------------------------------------------------

def test_free_limit_real_roots_near_even_integers():
    spec = ChannelMatrixSpec.single_level(1.0, "finite", hyperradius=1e6)
    roots = find_roots_real(spec, 5.0)
    vals = [r.value for r in roots]
    assert abs(vals[0] - 2.0) < 1e-3
    assert abs(vals[1] - 4.0) < 1e-3
    # oracle: determinant sign scan brackets the same points
    brackets = _det_sign_scan(spec, np.linspace(1.5, 4.5, 6001))
    assert len(brackets) >= 2
    assert any(lo <= vals[0] <= hi for lo, hi in brackets)


def test_free_limit_negative_scattering_length():
    spec = ChannelMatrixSpec.single_level(-1.0, "finite", hyperradius=1e6)
    vals = [r.value for r in find_roots_real(spec, 5.0)]
    assert abs(vals[0] - 2.0) < 1e-3
    assert abs(vals[1] - 4.0) < 1e-3


def test_real_roots_identical_boson_block():
    # (beta, m=2) decouples at theta = pi/2 with overlap entry 0, so its
    # block equation is s cos(s pi/2) = 0 with lowest root s = 1
    spec = _spec_at_angle(math.pi / 2, "closed", "unitary", "closed")
    roots = find_roots_real(spec, 5.0)
    vals = [r.value for r in roots]
    assert vals == sorted(vals)
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    # known further structure: s = 3 and 5 from the same block, s = 4
    # exactly and s ~ 4.4653 from the resonant block
    assert min(abs(v - 4.465) for v in vals) < 1e-3
    assert all(r.residual < 1e-9 for r in roots)


def test_real_roots_contract_residuals():
    spec = _spec_at_angle(0.25, 1.0, 2.0, -0.7, mode="finite", R=1.0)
    roots = find_roots_real(spec, 2.0)
    assert roots, "expected at least one real root below 2"
    assert all(r.residual < 1e-9 for r in roots)


def test_real_axis_requires_s_max_at_least_two():
    spec = ChannelMatrixSpec.single_level(1.0, "finite", hyperradius=1.0)
    with pytest.raises(HyperangularError):
        find_roots_real(spec, 1.5)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_profile_identical_boson_is_pure_111():
    spec = _spec_at_angle(math.pi / 2, "closed", "unitary", "closed")
    prof = find_roots_imaginary(spec)[0].spin_profile
    assert prof.same_level_weight == pytest.approx(1.0, abs=1e-8)
    assert prof.weights[0, 0] == pytest.approx(1.0, abs=1e-8)


def test_profile_mixed_pair_has_no_same_level_weight():
    spec = _spec_at_angle(0.0, "closed", "unitary", "closed")
    prof = find_roots_imaginary(spec)[0].spin_profile
    assert prof.mixed_weight == pytest.approx(1.0, abs=1e-8)
    assert prof.same_level_weight == pytest.approx(0.0, abs=1e-8)


def test_profile_intermediate_angle_mixes_families():
    spec = _spec_at_angle(math.pi / 4, "closed", "unitary", "closed")
    prof = find_roots_imaginary(spec)[0].spin_profile
    assert prof.same_level_weight > 0.05
    assert prof.mixed_weight > 0.05
    assert prof.same_level_weight + prof.mixed_weight == pytest.approx(1.0, abs=1e-10)


def test_profile_varies_continuously_with_theta():
    weights = []
    for theta in np.linspace(0.3, 0.9, 7):
        spec = _spec_at_angle(theta, "closed", "unitary", "closed")
        weights.append(find_roots_imaginary(spec)[0].spin_profile.same_level_weight)
    diffs = np.diff(weights)
    assert np.all(np.abs(diffs) < 0.2)
    assert weights[-1] > weights[0]  # more |11> content toward pi/2


def test_classify_root_reuses_basis():
    cs = channels_from_angle(0.6, "closed", "unitary", "closed")
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(cs), "asymptotic")
    root = find_roots_imaginary(spec)[0]
    prof = classify_root(root.null_vectors, cs)
    np.testing.assert_allclose(prof.weights, root.spin_profile.weights, atol=1e-14)


# ---------------------------------------------------------------------------
# invariances at the root level
# ---------------------------------------------------------------------------

def _root_values(spec, kappa_max=10.0):
    return [(r.value, r.multiplicity) for r in find_roots_imaginary(spec, kappa_max)]


def test_sign_flip_leaves_roots_unchanged():
    rng = np.random.default_rng(42)
    for _ in range(5):
        theta = rng.uniform(0, math.pi / 2)
        cs = channels_from_angle(theta, 1.0, -2.5, 0.7)
        flipped = cs.flip_sign(int(rng.integers(0, 3)))
        a = _root_values(ChannelMatrixSpec.from_overlap(
            exchange_overlap(cs), "finite", hyperradius=1.0))
        b = _root_values(ChannelMatrixSpec.from_overlap(
            exchange_overlap(flipped), "finite", hyperradius=1.0))
        assert len(a) == len(b)
        for (va, ma), (vb, mb) in zip(a, b):
            assert ma == mb
            assert abs(va - vb) < 1e-10


def test_one_body_rotation_leaves_roots_unchanged():
    rng = np.random.default_rng(99)
    for _ in range(5):
        raw = rng.uniform(-2, 2, (3, 3))
        m = ScatteringMatrix.from_matrix(raw + raw.T + 0.5 * np.eye(3))
        phi = rng.uniform(0, 2 * math.pi)
        c1 = eigenchannels(m)
        c2 = eigenchannels(one_body_rotation(phi, m))
        a = _root_values(ChannelMatrixSpec.from_overlap(
            exchange_overlap(c1), "finite", hyperradius=1.0))
        b = _root_values(ChannelMatrixSpec.from_overlap(
            exchange_overlap(c2), "finite", hyperradius=1.0))
        assert len(a) == len(b)
        for (va, ma), (vb, mb) in zip(a, b):
            assert ma == mb
            assert abs(va - vb) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.3, 5.0))
def test_sign_flip_leaves_profiles_unchanged(seed, radius):
    """On the invariance suite's conditioned random matrices, flipping any
    eigenvector's sign keeps every imaginary root's value, multiplicity
    and spin-profile weights, and each profile's weights sum to one."""
    cs = eigenchannels(_conditioned_matrix(np.random.default_rng(seed)))

    def roots_of(channels):
        spec = ChannelMatrixSpec.from_overlap(
            exchange_overlap(channels), "finite", hyperradius=radius)
        return find_roots_imaginary(spec, 10.0, warning_sink=[])

    ref = roots_of(cs)
    for r in ref:
        assert abs(np.sum(r.spin_profile.weights) - 1.0) <= 1e-12
    for channel in range(3):
        got = roots_of(cs.flip_sign(channel))
        assert [r.multiplicity for r in got] == [r.multiplicity for r in ref]
        for x, y in zip(got, ref):
            assert abs(x.value - y.value) < 1e-10
            np.testing.assert_allclose(x.spin_profile.weights,
                                       y.spin_profile.weights, atol=1e-10)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_theta_sweep_endpoints_and_continuity():
    thetas = np.linspace(0, math.pi / 2, 81)
    table = theta_sweep(thetas, "closed", "unitary", "closed")
    first, last = table.rows[0], table.rows[-1]
    assert first.roots[0].value == pytest.approx(KAPPA_MIXED, abs=1e-6)
    assert first.roots[0].multiplicity == 2
    assert last.roots[0].value == pytest.approx(KAPPA_IDENTICAL, abs=1e-6)
    assert last.roots[0].multiplicity == 1
    for pts in table.curve_series().values():
        ks = [p[2] for p in pts]
        if len(ks) > 1:
            assert np.max(np.abs(np.diff(ks))) < 0.13  # 81-point grid bound


def test_theta_sweep_multiplicity_transitions():
    thetas = np.linspace(0, math.pi / 2, 81)
    table = theta_sweep(thetas, "closed", "unitary", "closed")
    mults = [sum(r.multiplicity for r in row.roots if r.axis == "imaginary")
             for row in table.rows]
    assert mults[0] == 2
    assert mults[-1] == 1
    changes = [i for i in range(1, len(mults)) if mults[i] != mults[i - 1]]
    assert len(changes) == 1  # one curve exits through kappa = 0


def test_theta_sweep_row_ordering_with_real_roots():
    thetas = np.linspace(0.2, 0.6, 3)
    table = theta_sweep(thetas, "closed", "unitary", "closed", s_max=3.0)
    for row in table.rows:
        axes = [r.axis for r in row.roots]
        assert axes == sorted(axes, key=lambda a: 0 if a == "imaginary" else 1)
        imag = [r.value for r in row.roots if r.axis == "imaginary"]
        real = [r.value for r in row.roots if r.axis == "real"]
        assert imag == sorted(imag, reverse=True)
        assert real == sorted(real)


def test_theta_sweep_continuity_against_double_density():
    # the steepest curve segment sits near the lower-curve exit angle;
    # doubling the grid there must reproduce the coarse samples and give
    # strictly smaller adjacent jumps (real curve variation, not aliasing)
    lo, hi = 0.05, 0.20
    coarse = theta_sweep(np.linspace(lo, hi, 16), "closed", "unitary", "closed")
    fine = theta_sweep(np.linspace(lo, hi, 31), "closed", "unitary", "closed")

    def max_jump(table):
        out = 0.0
        for pts in table.curve_series("imaginary").values():
            vals = [p[2] for p in pts]
            if len(vals) > 1:
                out = max(out, float(np.max(np.abs(np.diff(vals)))))
        return out

    assert max_jump(fine) < max_jump(coarse)
    # shared grid points carry identical root values
    coarse_map = {round(r.theta, 12): sorted(x.value for x in r.roots)
                  for r in coarse.rows}
    for row in fine.rows[::2]:
        key = round(row.theta, 12)
        assert key in coarse_map
        np.testing.assert_allclose(sorted(x.value for x in row.roots),
                                   coarse_map[key], atol=1e-10)


def test_theta_sweep_finite_mode():
    table = theta_sweep(np.linspace(0.0, math.pi / 2, 5), 1.0, 1e6, "closed",
                        mode="finite", hyperradius=50.0, kappa_max=10.0)
    assert len(table.rows) == 5
    # deep inside the window the finite-mode roots track the asymptotic ones
    assert table.rows[-1].roots[0].value == pytest.approx(1.00624, abs=1e-3)


def test_theta_sweep_rejects_bad_grid():
    with pytest.raises(HyperangularError):
        theta_sweep([0.5, 0.2], "closed", "unitary", "closed")


def _assert_same_roots(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x.axis, x.value, x.multiplicity, x.residual) == \
            (y.axis, y.value, y.multiplicity, y.residual)
        assert np.array_equal(x.null_vectors, y.null_vectors)
        assert np.array_equal(x.spin_profile.weights, y.spin_profile.weights)


_GEOM = np.geomspace(1e-2, 1e6, 33)


@pytest.mark.parametrize("sweep, args, kwargs", [
    (theta_sweep, (np.linspace(0, math.pi / 2, 9), "closed", "unitary",
                   "closed"), {"s_max": 5.0}),
    (theta_sweep, (np.linspace(0, math.pi / 2, 9), 1.0, 1e6, 30.0),
     {"mode": "finite", "hyperradius": 50.0, "s_max": 5.0}),
    (radius_sweep, (0.0, 1.0, 1e6, "closed", _GEOM[::2]), {}),
    # kappa_max=None: every point scans its own default_kappa_max window
    (radius_sweep, (0.7, 1.0, 1e6, "closed", _GEOM),
     {"kappa_max": None, "s_max": 5.0}),
], ids=["theta-asymptotic", "theta-finite", "radius", "radius-own-windows"])
def test_sweep_rows_equal_pointwise_roots(sweep, args, kwargs):
    """A batched sweep gives, bit for bit, the roots and warnings of the
    single-point finders at every point."""
    table = sweep(*args, **kwargs)
    s_max = kwargs.get("s_max")
    kappa_max = kwargs.get("kappa_max", 10.0 if sweep is radius_sweep
                           else None)
    lengths = args[1:4]
    expected_warnings = []
    for row in table.rows:
        channels = channels_from_angle(row.theta, *lengths)
        spec = ChannelMatrixSpec.from_overlap(
            exchange_overlap(channels), row.mode, hyperradius=row.hyperradius)
        sink = []
        want = find_roots_imaginary(spec, kappa_max, warning_sink=sink)
        if s_max:
            want += find_roots_real(spec, s_max, warning_sink=sink)
        _assert_same_roots(row.roots, want)
        where = (f"theta={row.theta:.6g}" if table.kind == "theta"
                 else f"R={row.hyperradius:.6g}")
        expected_warnings.extend(f"{where}: {w}" for w in sink)
    assert table.warnings == expected_warnings
    if sweep is radius_sweep and s_max:
        assert table.warnings  # the warning path is exercised


def test_radius_sweep_builds_spin_objects_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("channels_from_angle", "exchange_overlap"):
        monkeypatch.setattr(hyperangular, name,
                            counted(name, getattr(hyperangular, name)))
    radius_sweep(0.0, 1.0, 1e6, "closed", _GEOM[::4])
    assert calls == ["channels_from_angle", "exchange_overlap"]


@pytest.mark.parametrize("n_grid", [0, 1])
def test_grid_without_cells_finds_no_roots(n_grid):
    spec = _spec_at_angle(0.3, "closed", "unitary", "closed")
    assert find_roots_imaginary(spec, n_grid=n_grid) == []
    table = theta_sweep([0.1, 0.2], "closed", "unitary", "closed",
                        s_max=3.0, n_grid=n_grid)
    assert [row.roots for row in table.rows] == [(), ()]


def test_radius_sweep_plateau_matches_asymptotic():
    radii = np.logspace(-2, 6, 65)
    table = radius_sweep(math.pi / 2, 1.0, 1e6, "closed", radii)
    summary = plateau_extract(table)
    accepted = [p for p in summary.plateaus if p.accepted]
    assert accepted
    assert min(abs(p.kappa - KAPPA_IDENTICAL) for p in accepted) < 1e-2


def test_plateau_window_guard():
    radii = np.logspace(-1, 2, 25)
    table = radius_sweep(0.3, 1.0, 10.0, "closed", radii)
    summary = plateau_extract(table)
    assert summary.plateaus == ()
    assert "no plateau" in summary.no_plateau_reason


def test_plateau_needs_radius_sweep():
    table = theta_sweep(np.linspace(0, 1, 3), "closed", "unitary", "closed")
    with pytest.raises(HyperangularError):
        plateau_extract(table)


# ---------------------------------------------------------------------------
# grid-resolution warning
# ---------------------------------------------------------------------------

# s = 4 solves the single-level equation for every R/a; its companion root
# collides with it when d/ds of the curve vanishes at s = 4
_X_TANGENT = (1 + 0.5 * (8 / math.sqrt(3)) * (math.pi / 6)) / (math.sqrt(2) * math.pi / 2)


def test_grid_warning_on_tangent_double_root():
    spec = ChannelMatrixSpec.single_level(1.0 / _X_TANGENT, "finite",
                                          hyperradius=1.0)
    sink = []
    find_roots_real(spec, 5.0, warning_sink=sink)
    assert sink, "expected a grid-resolution flag near the double root at s = 4"
    locs = [float(re.search(r"near ([0-9.eE+-]+)", w).group(1)) for w in sink]
    assert min(abs(x - 4.0) for x in locs) < 0.05
    with pytest.warns(GridResolutionWarning):
        find_roots_real(spec, 5.0)


def test_separated_pair_found_without_warning():
    spec = ChannelMatrixSpec.single_level(1.0 / 0.9, "finite", hyperradius=1.0)
    sink = []
    roots = find_roots_real(spec, 5.0, warning_sink=sink)
    assert sink == []
    vals = [r.value for r in roots]
    assert min(abs(v - 4.0) for v in vals) < 1e-9
    assert any(4.01 < v < 4.1 for v in vals)  # companion root near 4.0476


# ---------------------------------------------------------------------------
# asymptotic mode: closed-form eigenvalue curves
# ---------------------------------------------------------------------------

def _random_asymptotic_specs(seed, n_states, n_specs):
    """Asymptotic specs of one unitary channel per state, with random
    symmetric overlaps."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(n_specs):
        a = rng.normal(size=(n_states, n_states))
        specs.append(ChannelMatrixSpec(
            lengths=(as_length("unitary"),) * n_states,
            overlap=a + a.T,
            state_channel=tuple(range(n_states)),
            mode="asymptotic"))
    return specs


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 6),
       n_specs=st.integers(1, 3),
       kappas=st.lists(st.floats(0.0, 30.0, exclude_min=True),
                       min_size=1, max_size=16),
       svals=st.lists(st.floats(0.0, 12.0, exclude_min=True),
                      min_size=1, max_size=16))
def test_closed_form_curves_match_eigvalsh(seed, n_states, n_specs, kappas,
                                           svals):
    """In asymptotic mode the stack's sorted curves f - g o_j equal the
    eigenvalues of the assembled matrices, on the imaginary axis and on
    the real axis across the kernel's sign change at s = 6."""
    specs = _random_asymptotic_specs(seed, n_states, n_specs)
    p = np.arange(n_specs)[:, None]
    for axis, xs in (("imaginary", kappas), ("real", svals)):
        stack = hyperangular._SpecStack(specs, axis)
        assert stack.overlap_eigs is not None
        x = np.array(xs)[None, :]
        got = stack.eigenvalues(p, x)
        want = np.linalg.eigvalsh(stack.matrices(p, x))
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_closed_form_sweep_matches_eigvalsh_sweep(monkeypatch):
    """A 41-point asymptotic theta sweep scanned from the closed-form
    curves finds the roots the eigvalsh scan finds."""
    thetas = np.linspace(0.0, 0.5 * math.pi, 41)

    def sweep():
        return theta_sweep(thetas, "unitary", "unitary", "closed", s_max=8)

    fast = sweep()
    monkeypatch.setattr(
        hyperangular._SpecStack, "eigenvalues",
        lambda self, p, x: np.linalg.eigvalsh(self.matrices(p, x)))
    slow = sweep()
    assert fast.warnings == slow.warnings
    for a, b in zip(fast.rows, slow.rows):
        assert [(r.axis, r.multiplicity) for r in a.roots] == \
            [(r.axis, r.multiplicity) for r in b.roots]
        for x, y in zip(a.roots, b.roots):
            assert abs(x.value - y.value) <= 1e-12
            np.testing.assert_allclose(x.spin_profile.weights,
                                       y.spin_profile.weights, rtol=0,
                                       atol=1e-12)
    assert sum(len(row.roots) for row in fast.rows) > 41


def test_asymptotic_sweep_diagonalizes_only_overlaps(monkeypatch):
    """An asymptotic sweep passes no scan or bisection point through
    eigvalsh: each axis diagonalizes each spec's overlap once."""
    thetas = np.linspace(0.0, 0.5 * math.pi, 9)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        seen.extend(np.reshape(a, (-1,) + a.shape[-2:]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    table = theta_sweep(thetas, "closed", "unitary", "closed", s_max=5)
    assert all(row.roots for row in table.rows)
    assert len(seen) <= 2 * thetas.size
    overlaps = [_spec_at_angle(t, "closed", "unitary", "closed")._active_overlap
                for t in thetas]
    for m in seen:
        assert any(np.array_equal(m, o) for o in overlaps)


# ---------------------------------------------------------------------------
# finite mode: the certified skip of the scan
# ---------------------------------------------------------------------------

def _random_finite_spec(seed, n_active, radius):
    """A finite spec over six states, n_active of them on finite channels
    of random sign and size and the rest closed, with a random symmetric
    overlap."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    values = rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-2.0, 2.0, 6)
    return ChannelMatrixSpec(
        lengths=tuple(as_length(v) if j < n_active else as_length("closed")
                      for j, v in enumerate(values)),
        overlap=a + a.T,
        state_channel=tuple(range(6)),
        mode="finite",
        hyperradius=radius)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n_active=st.integers(1, 6),
       radius=st.floats(0.05, 50.0), axis=st.sampled_from(["imaginary", "real"]),
       s_max=st.floats(2.0, 12.0),
       start=st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 1.0)),
       width=st.floats(1e-4, 0.3))
def test_cell_lipschitz_bound_holds(seed, n_active, radius, axis, s_max,
                                    start, width):
    """The scan's Lipschitz bound L of a cell [lo, hi] of the scan window,
    at kappa down to GRID_EPS, bounds ||A(y) - A(x)||_2 / (y - x) for the
    normalized matrix A on sampled pairs of the cell."""
    spec = _random_finite_spec(seed, n_active, radius)
    x_max = default_kappa_max(spec) if axis == "imaginary" else s_max
    lo = GRID_EPS + start * (x_max - GRID_EPS)
    hi = lo + width * (x_max - GRID_EPS)
    stack = hyperangular._SpecStack([spec], axis)
    lip = stack.lipschitz(np.array([0]), np.array([lo]), np.array([hi]))[0]

    def a_of(x):
        return channel_matrix(1j * x if axis == "imaginary" else x, spec,
                              normalized=True)

    rng = np.random.default_rng(seed)
    pairs = [(lo, hi), (lo, lo + 1e-3 * (hi - lo))]
    pairs += [tuple(np.sort(t)) for t in rng.uniform(lo, hi, size=(6, 2))]
    for x, y in pairs:
        # round-off of the two assembled matrices, well below eps ||A||
        slack = 1e-13 * (1.0 + 2.0 * y + KERNEL_COEFF * stack.kernel_norm[0])
        assert np.linalg.norm(a_of(y) - a_of(x), 2) <= lip * (y - x) + slack


def _without_skip(mp):
    """Turn the certified skip off: an infinite bound clears no cell."""
    mp.setattr(hyperangular._SpecStack, "lipschitz",
               lambda self, p, lo, hi: np.inf)


def _assert_same_groups(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [(v, r) for v, r, _ in g] == [(v, r) for v, r, _ in w]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(g, w))


@pytest.mark.parametrize("n_grid", [2, 3, 5, 17, 65, 257, 1025, 2000])
@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 2**32 - 1),
       radii=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=4),
       s_max=st.floats(2.0, 12.0))
def test_certified_skip_matches_full_grid(n_grid, seed, radii, s_max):
    """Scanning with the certified skip gives, bit for bit, the groups and
    warnings of the same scan over every grid point, on both axes."""
    rng = np.random.default_rng(seed)
    specs = []
    for j, radius in enumerate(radii):
        if j % 2:
            specs.append(ChannelMatrixSpec.from_overlap(
                exchange_overlap(eigenchannels(_conditioned_matrix(rng))),
                "finite", hyperradius=radius))
        else:
            specs.append(_random_finite_spec(seed + j, 6, radius))
    for axis, x_max in (("imaginary", [default_kappa_max(s) for s in specs]),
                        ("real", [s_max] * len(specs))):
        warns, groups = hyperangular._solve_axis(specs, axis, x_max, n_grid)
        with pytest.MonkeyPatch.context() as mp:
            _without_skip(mp)
            full_warns, full_groups = hyperangular._solve_axis(
                specs, axis, x_max, n_grid)
        assert warns == full_warns
        _assert_same_groups(groups, full_groups)


def test_certified_skip_keeps_the_r_sweep_golden_run(monkeypatch):
    """The r-sweep golden run, with and without the skip: equal rows and
    warnings, bit for bit, from fewer eigenvalue evaluations (at most
    30,000 matrices with the skip)."""
    text = (Path(__file__).parent / "golden" / "r-sweep.run").read_text()
    eigvalsh = np.linalg.eigvalsh
    seen = []

    def counted(a, *args, **kwargs):
        seen.append(math.prod(a.shape[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    fast = run(parse_config(text))
    fast_matrices = sum(seen)
    with monkeypatch.context() as mp:
        _without_skip(mp)
        full = run(parse_config(text))
    assert fast_matrices <= 30_000
    assert sum(seen) - fast_matrices > 2 * fast_matrices
    assert fast.tables == full.tables and fast.warnings == full.warnings
    assert fast.warnings  # the grid-resolution path is exercised
    for a, b in zip(fast.sweep_table.rows, full.sweep_table.rows):
        _assert_same_roots(a.roots, b.roots)


def test_batch_equals_single_point_roots():
    """The list form returns, per spec, the single-point roots and
    warnings, also for specs of different active states."""
    rng = np.random.default_rng(5)
    specs = [ChannelMatrixSpec.from_overlap(
        exchange_overlap(eigenchannels(_conditioned_matrix(rng))), "finite",
        hyperradius=r) for r in (0.5, 2.0, 8.0)]
    specs.insert(1, _spec_at_angle(0.4, 1.0, 30.0, "closed", "finite", R=3.0))
    sinks = [[] for _ in specs]
    got = find_roots_imaginary_batch(specs, 10.0, warning_sinks=sinks)
    for spec, roots, sink in zip(specs, got, sinks):
        want_sink = []
        _assert_same_roots(roots, find_roots_imaginary(
            spec, 10.0, warning_sink=want_sink))
        assert sink == want_sink


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the multiplicity is the number of sign changes, "
                   "not the null-space dimension at the root")
def test_multiplicity_counts_null_space_dimension():
    """The normalized M(4) of this finite spec has four eigenvalues at
    round-off, so the root at s = 4 has multiplicity 4."""
    cs = eigenchannels(ScatteringMatrix.from_entries(
        1.3, 0.2, -0.4, 0.7, 0.5, -2.1))
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(cs), "finite",
                                          hyperradius=2.0)
    lam = np.linalg.eigvalsh(channel_matrix(4.0, spec, normalized=True))
    assert np.count_nonzero(np.abs(lam) <= 1e-12) == 4
    root = min(find_roots_real(spec, 5.0, warning_sink=[]),
               key=lambda r: abs(r.value - 4.0))
    assert abs(root.value - 4.0) < 1e-9
    assert root.multiplicity == 4
