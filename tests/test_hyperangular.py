import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

import spinor_efimov.hyperangular as hyperangular
from spinor_efimov.spin import (
    ScatteringMatrix,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
    three_body_basis,
)
from spinor_efimov.hyperangular import (
    ChannelMatrixSpec,
    GridResolutionWarning,
    HyperangularError,
    channel_matrix,
    classify_root,
    default_kappa_max,
    find_roots_imaginary,
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
    return ChannelMatrixSpec.from_channels(cs, exchange_overlap(cs), mode,
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

def test_matrix_entries_match_formula_finite_mode():
    spec = _spec_at_angle(0.3, 1.5, -2.0, 0.5, mode="finite", R=2.0)
    s = 1.3
    m = channel_matrix(s, spec)
    o = spec.overlap
    diag_terms = []
    for a in (1.5, -2.0, 0.5):
        diag_terms.extend([s * math.cos(s * math.pi / 2)
                           - math.sqrt(2) * (2.0 / a) * math.sin(s * math.pi / 2)] * 2)
    expected = np.diag(diag_terms) - KC * math.sin(s * math.pi / 6) * o
    np.testing.assert_allclose(m, expected, atol=1e-13)


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
        spec = ChannelMatrixSpec.from_channels(
            cs, exchange_overlap(cs), "finite", hyperradius=rng.uniform(0.1, 5))
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
        ChannelMatrixSpec.from_channels(cs, o, "asymptotic")
    csu = channels_from_angle(0.1, "unitary", "unitary", "closed")
    with pytest.raises(HyperangularError):
        ChannelMatrixSpec.from_channels(csu, exchange_overlap(csu), "finite",
                                        hyperradius=1.0)
    with pytest.raises(HyperangularError):
        ChannelMatrixSpec.from_channels(cs, o, "finite")  # missing R


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
    spec = ChannelMatrixSpec.from_channels(cs, exchange_overlap(cs), "asymptotic")
    root = find_roots_imaginary(spec)[0]
    prof = classify_root(root, three_body_basis(cs))
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
        a = _root_values(ChannelMatrixSpec.from_channels(
            cs, exchange_overlap(cs), "finite", hyperradius=1.0))
        b = _root_values(ChannelMatrixSpec.from_channels(
            flipped, exchange_overlap(flipped), "finite", hyperradius=1.0))
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
        a = _root_values(ChannelMatrixSpec.from_channels(
            c1, exchange_overlap(c1), "finite", hyperradius=1.0))
        b = _root_values(ChannelMatrixSpec.from_channels(
            c2, exchange_overlap(c2), "finite", hyperradius=1.0))
        assert len(a) == len(b)
        for (va, ma), (vb, mb) in zip(a, b):
            assert ma == mb
            assert abs(va - vb) < 1e-8


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
        spec = ChannelMatrixSpec.from_channels(
            channels, exchange_overlap(channels), row.mode,
            hyperradius=row.hyperradius)
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
