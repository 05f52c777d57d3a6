import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import spinor_efimov.hyperangular as hyperangular
import spinor_efimov.runner as runner
from spinor_efimov.config import parse_config
from spinor_efimov.runner import _conditioned_matrix, run
from spinor_efimov.spin import (
    ScatteringMatrix,
    TwoBodyChannelSet,
    as_length,
    channels_from_angle,
    eigenchannels,
    exchange_overlap,
    one_body_rotation,
)
from spinor_efimov.hyperangular import (
    GRID_EPS,
    KERNEL_COEFF,
    N_GRID,
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


def _spec_at_angle(theta, a_alpha, a_beta, a_gamma, R=None):
    cs = channels_from_angle(theta, a_alpha, a_beta, a_gamma)
    return ChannelMatrixSpec.from_overlap(exchange_overlap(cs), hyperradius=R)


def _normalized(spec, axis, x):
    """The congruent form of the channel matrix that the root finders
    scan, at one point of an axis."""
    return hyperangular._SpecStack([spec], axis).matrices(
        np.zeros(1, dtype=int), np.array([x]))[0]


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
    spec = _spec_at_angle(0.3, 1.5, -2.0, 0.5, R=2.0)
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
            exchange_overlap(cs), hyperradius=rng.uniform(0.1, 5))
        h = channel_matrix(1j * rng.uniform(0.05, 8.0), spec)
        assert np.max(np.abs(h - h.T)) < 1e-14


def test_normalized_matrix_same_zero_structure():
    spec = _spec_at_angle(0.0, "closed", "unitary", "closed")
    k = KAPPA_MIXED
    plain = np.linalg.eigvalsh(channel_matrix(1j * k, spec))
    norm = np.linalg.eigvalsh(_normalized(spec, "imaginary", k))
    assert np.max(np.abs(plain)) < 1e-10
    assert np.max(np.abs(norm)) < 1e-10


def test_spec_mode_validation():
    cs = channels_from_angle(0.1, 1.0, 2.0, 3.0)
    o = exchange_overlap(cs)
    with pytest.raises(HyperangularError):
        ChannelMatrixSpec.from_overlap(o)  # finite channels, no R
    mixed = channels_from_angle(0.1, 1.0, "unitary", "closed")
    with pytest.raises(HyperangularError, match="do not mix"):
        ChannelMatrixSpec.from_overlap(exchange_overlap(mixed),
                                       hyperradius=1.0)
    with pytest.raises(HyperangularError, match="hyperradius > 0"):
        ChannelMatrixSpec.from_overlap(o, hyperradius=0.0)
    with pytest.raises(HyperangularError, match="unitary channels"):
        radius_sweep(0.1, "unitary", "unitary", "closed", [1.0, 2.0])
    assert ChannelMatrixSpec.from_overlap(o, hyperradius=1.0).mode == "finite"
    assert ChannelMatrixSpec.single_level("unitary").mode == "asymptotic"


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
    spec = ChannelMatrixSpec.single_level("unitary")
    roots = find_roots_imaginary(spec)
    assert len(roots) == 1
    assert roots[0].value == pytest.approx(KAPPA_IDENTICAL, abs=1e-5)


def test_dimer_limit_root_tracks_sqrt2_r_over_a():
    spec = ChannelMatrixSpec.single_level(1.0, hyperradius=100.0)
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
    spec = _spec_at_angle(0.7, 1.0, 2.0, "closed", R=1.5)
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
    spec = ChannelMatrixSpec.single_level(1.0, hyperradius=1e6)
    roots = find_roots_real(spec, 5.0)
    vals = [r.value for r in roots]
    assert abs(vals[0] - 2.0) < 1e-3
    assert abs(vals[1] - 4.0) < 1e-3
    # oracle: determinant sign scan brackets the same points
    brackets = _det_sign_scan(spec, np.linspace(1.5, 4.5, 6001))
    assert len(brackets) >= 2
    assert any(lo <= vals[0] <= hi for lo, hi in brackets)


def test_free_limit_negative_scattering_length():
    spec = ChannelMatrixSpec.single_level(-1.0, hyperradius=1e6)
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
    spec = _spec_at_angle(0.25, 1.0, 2.0, -0.7, R=1.0)
    roots = find_roots_real(spec, 2.0)
    assert roots, "expected at least one real root below 2"
    assert all(r.residual < 1e-9 for r in roots)


def test_real_axis_requires_s_max_at_least_two():
    spec = ChannelMatrixSpec.single_level(1.0, hyperradius=1.0)
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
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(cs))
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
            exchange_overlap(cs), hyperradius=1.0))
        b = _root_values(ChannelMatrixSpec.from_overlap(
            exchange_overlap(flipped), hyperradius=1.0))
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
            exchange_overlap(c1), hyperradius=1.0))
        b = _root_values(ChannelMatrixSpec.from_overlap(
            exchange_overlap(c2), hyperradius=1.0))
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
            exchange_overlap(channels), hyperradius=radius)
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


def test_theta_sweep_builds_its_spin_layer_as_one_stack(monkeypatch):
    """A 201-point theta sweep makes one stacked overlap build and no
    one-point channels_from_angle or exchange_overlap call; an r-sweep
    builds its one theta's overlap once."""
    import spinor_efimov.spin as spin

    calls = []

    def counted(name, fn):
        def wrapped(*args):
            calls.append((name, len(args[0]) if name.startswith("_") else 1))
            return fn(*args)
        return wrapped

    for mod in (spin, hyperangular):
        for name in ("channels_from_angle", "exchange_overlap"):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.setattr(hyperangular, "_exchange_overlaps", counted(
        "_exchange_overlaps", hyperangular._exchange_overlaps))
    table = theta_sweep(np.linspace(0.0, math.pi / 2, 201), "closed",
                        "unitary", "closed", s_max=5.0)
    assert len(table.rows) == 201
    assert calls == [("_exchange_overlaps", 201)]
    calls.clear()
    radius_sweep(0.3, 1.0, 1e6, "closed", np.geomspace(1e-2, 1e6, 9))
    assert calls == [("channels_from_angle", 1), ("exchange_overlap", 1)]


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
                        hyperradius=50.0, kappa_max=10.0)
    assert len(table.rows) == 5
    # deep inside the window the finite-mode roots track the asymptotic ones
    assert table.rows[-1].roots[0].value == pytest.approx(1.00624, abs=1e-3)


def test_theta_sweep_rejects_bad_grid():
    with pytest.raises(HyperangularError):
        theta_sweep([0.5, 0.2], "closed", "unitary", "closed")


def test_theta_sweep_refuses_a_hyperradius_the_lengths_do_not_use():
    """With no finite length the sweep solves at R/a = 0, so a stated R
    would only mislabel its rows."""
    with pytest.raises(HyperangularError,
                       match="asymptotic mode takes no hyperradius"):
        theta_sweep([0.0, 1.0], "closed", "unitary", "closed", hyperradius=2.0)


def _assert_same_roots(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x.axis, x.value, x.multiplicity, x.residual) == \
            (y.axis, y.value, y.multiplicity, y.residual)
        assert np.array_equal(x.null_vectors, y.null_vectors)
        assert (x.spin_profile is None) == (y.spin_profile is None)
        if x.spin_profile is not None:
            assert np.array_equal(x.spin_profile.weights,
                                  y.spin_profile.weights)


_GEOM = np.geomspace(1e-2, 1e6, 33)


@pytest.mark.parametrize("sweep, args, kwargs", [
    (theta_sweep, (np.linspace(0, math.pi / 2, 9), "closed", "unitary",
                   "closed"), {"s_max": 5.0}),
    (theta_sweep, (np.linspace(0, math.pi / 2, 9), 1.0, 1e6, 30.0),
     {"hyperradius": 50.0, "s_max": 5.0}),
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
            exchange_overlap(channels), hyperradius=row.hyperradius)
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
    spec = ChannelMatrixSpec.single_level(1.0 / _X_TANGENT, hyperradius=1.0)
    sink = []
    find_roots_real(spec, 5.0, warning_sink=sink)
    assert sink, "expected a grid-resolution flag near the double root at s = 4"
    locs = [float(re.search(r"near ([0-9.eE+-]+)", w).group(1)) for w in sink]
    assert min(abs(x - 4.0) for x in locs) < 0.05
    with pytest.warns(GridResolutionWarning):
        find_roots_real(spec, 5.0)


@pytest.mark.parametrize("n", [4001, 8001, 16001, 30001])
def test_tangent_pair_merges_into_one_curve(n):
    """On denser grids both roots of the tangent pair at s = 4 refine to
    within MERGE_TOL of 4 on the one curve of the single-level spec: the
    merged root counts that curve once."""
    spec = ChannelMatrixSpec.single_level(1.0 / _X_TANGENT, hyperradius=1.0)
    _, (roots,) = hyperangular._solve_axis([spec], "real", [5.0], n)
    near = [r for r in roots if abs(r.value - 4.0) < 1e-6]
    assert len(near) == 1
    assert abs(near[0].value - 4.0) < 1e-8
    assert near[0].multiplicity == 1
    assert near[0].residual < hyperangular.RESIDUAL_TOL


def test_separated_pair_found_without_warning():
    spec = ChannelMatrixSpec.single_level(1.0 / 0.9, hyperradius=1.0)
    sink = []
    roots = find_roots_real(spec, 5.0, warning_sink=sink)
    assert sink == []
    vals = [r.value for r in roots]
    assert min(abs(v - 4.0) for v in vals) < 1e-9
    assert any(4.01 < v < 4.1 for v in vals)  # companion root near 4.0476


# ---------------------------------------------------------------------------
# asymptotic mode: per-eigenvalue scalar equations
# ---------------------------------------------------------------------------

PHI_0 = 6.0 / (math.pi * KC)  # phi = f/g at x -> 0 on both axes


def _terms(axis, x):
    """f and g of the asymptotic matrix f(x) I - g(x) O."""
    terms = hyperangular._imag_terms if axis == "imaginary" \
        else hyperangular._real_terms
    g, f = terms(np.asarray(x, dtype=float), np.zeros(1))
    return f[..., 0], g


def _one_state_spec(o):
    return ChannelMatrixSpec((as_length("unitary"),), np.array([[o]]), (0,))


def test_imaginary_phi_rises_strictly_from_its_limit():
    """phi = f/g rises strictly on (0, 1e3], from 6/(pi K) = 0.826993.
    Read through h_o = f - g o with o = phi(kappa_i): h_o < 0 at
    kappa_{i-1} and h_o > 0 at kappa_{i+1} (g >= 0), also where g
    underflows and phi(kappa_{i+1}) is no longer finite."""
    assert PHI_0 == pytest.approx(0.826993, abs=5e-7)
    kappa = np.linspace(0.0, 1e3, 200_001)[1:]
    f, g = _terms("imaginary", kappa)
    assert np.all(g >= 0.0) and g[-1] == 0.0  # g underflows at the top
    with np.errstate(divide="ignore", over="ignore"):
        phi = f / g
    i = np.flatnonzero(np.isfinite(phi[1:-1])) + 1
    assert i.size > 100_000
    assert np.all(f[i + 1] - g[i + 1] * phi[i] > 0.0)
    assert np.all(f[i - 1] - g[i - 1] * phi[i] < 0.0)
    assert phi[0] > PHI_0
    # at the window's lower edge h_o < 0 when o > phi(0): g has no
    # cancellation there, so the margin is a few thousand eps
    f0, g0 = _terms("imaginary", GRID_EPS)
    assert f0 - g0 * (PHI_0 + 1e-12) < 0.0 < f0 - g0 * (PHI_0 - 1e-12)


@pytest.mark.parametrize("s_max", [5.0, 8.0, 12.0])
def test_real_branches_are_monotone(s_max):
    """The branch ends split (0, s_max] where phi is monotone: phi on a
    dense grid of each branch moves one way, and the ends are the turning
    points of phi (2.08360 and 4.24457 with values -1.008322 and 2.143158
    below s = 5) and its poles s = 6k."""
    ends = hyperangular._branch_ends("real", s_max)
    assert ends[0] == GRID_EPS and ends[-1] == pytest.approx(s_max, abs=2e-6)
    if s_max == 5.0:
        np.testing.assert_allclose(ends[1:-1], [2.08360, 4.24457], atol=5e-6)
        f, g = _terms("real", ends[1:-1])
        np.testing.assert_allclose(f / g, [-1.008322, 2.143158], atol=5e-7)
    if s_max >= 6.0:
        assert 6.0 in ends
    for lo, hi in zip(ends[:-1], ends[1:]):
        s = np.linspace(lo, hi, 20_001)[1:-1]
        f, g = _terms("real", s)
        step = np.diff(f / g)
        assert np.all(step > 0.0) or np.all(step < 0.0)


@pytest.mark.parametrize("turn", [1, 2])
def test_tangent_root_sits_at_the_turning_point(turn):
    """An overlap equal to a turning value phi(t) to round-off gives one
    simple root at t and no warning; an overlap 1e-9 past it gives two
    roots near t on the side where phi crosses it, none on the other."""
    t = hyperangular._branch_ends("real", 5.0)[turn]
    f, g = _terms("real", t)
    sink = []
    for o in (f / g, f / g * (1.0 + 1e-13), f / g * (1.0 - 1e-13)):
        roots = find_roots_real(_one_state_spec(o), 5.0, warning_sink=sink)
        assert [(r.value, r.multiplicity) for r in roots] == [(t, 1)]
        assert roots[0].residual <= 1e-11
    assert sink == []
    # t = 2.0836 is a minimum of phi, t = 4.2446 a maximum
    inward = 1e-9 if turn == 1 else -1e-9
    near = find_roots_real(_one_state_spec(f / g + inward), 5.0,
                           warning_sink=sink)
    assert len(near) == 2 and sink == []
    assert near[0].value < t < near[1].value
    assert near[1].value - near[0].value < 1e-3
    assert find_roots_real(_one_state_spec(f / g - inward), 5.0) == []


def _gapped_overlap(seed, n_states, repeat):
    """A random symmetric overlap Q diag(o) Q^T whose eigenvalues lie at
    least 0.1 apart (so eigenvectors are well conditioned), except that
    with repeat the first two are equal."""
    rng = np.random.default_rng(seed)
    o = rng.uniform(-3.0, 0.0) + np.cumsum(rng.uniform(0.1, 1.5, n_states))
    if repeat and n_states > 1:
        o[1] = o[0]
    q = np.linalg.qr(rng.normal(size=(n_states, n_states)))[0]
    return (q * o) @ q.T


def _projector_weights(root):
    """Diagonal of the projector on a root's null space: the spin profile
    with the identity as channel rotation, basis-free inside the space."""
    return np.sum(root.null_vectors ** 2, axis=1) / root.multiplicity


def _assert_roots_match(got, want, weights):
    assert [(r.axis, r.multiplicity) for r in got] == \
        [(r.axis, r.multiplicity) for r in want]
    for x, y in zip(got, want):
        assert abs(x.value - y.value) <= 1e-11
        np.testing.assert_allclose(weights(x), weights(y), rtol=0,
                                   atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 6),
       s_max=st.floats(2.0, 12.0), repeat=st.booleans())
def test_scalar_roots_match_the_eigvalsh_scan(seed, n_states, s_max, repeat):
    """The scalar solver finds the roots the finite-mode eigvalsh scan
    finds on the same matrices: channels of length 1e300 at R = 1 make
    R/a nonzero but negligible, so that spec is scanned by _finite_scan.
    Equal counts and multiplicities, values within 1e-11, null-space
    weights within 1e-12."""
    overlap = _gapped_overlap(seed, n_states, repeat)
    states = tuple(range(n_states))
    fast = ChannelMatrixSpec((as_length("unitary"),) * n_states, overlap,
                             states)
    slow = ChannelMatrixSpec((as_length(1e300),) * n_states, overlap,
                             states, hyperradius=1.0)
    stack = hyperangular._SpecStack([slow], "imaginary")
    assert np.any(stack.r_over_a) and np.all(stack.scale == 1.0)
    for find, args in ((find_roots_imaginary, (10.0,)),
                       (find_roots_real, (s_max,))):
        sink = []
        got = find(fast, *args, warning_sink=sink)
        assert sink == []
        want = find(slow, *args, warning_sink=[])
        _assert_roots_match(got, want, _projector_weights)


@pytest.mark.parametrize("seed", range(10))
def test_admixture_sweep_matches_the_eigvalsh_scan(seed):
    """The benchmark's admixture sweep at seeds 0-9 (kappa_max = 10 +
    0.5 frac(seed phi)) equals the finite-mode scan of the same matrices
    (a_beta = 1e300 at R = 1), spin profiles within 1e-12."""
    kappa_max = 10.0 + 0.5 * ((seed * 0.6180339887498949) % 1.0)
    thetas = np.linspace(0.0, 0.5 * math.pi, 201)
    fast = theta_sweep(thetas, "closed", "unitary", "closed",
                       kappa_max=kappa_max, s_max=5.0)
    slow = theta_sweep(thetas, "closed", 1e300, "closed",
                       hyperradius=1.0, kappa_max=kappa_max, s_max=5.0)
    assert fast.warnings == []
    for a, b in zip(fast.rows, slow.rows):
        _assert_roots_match(a.roots, b.roots,
                            lambda r: r.spin_profile.weights)
    assert sum(len(row.roots) for row in fast.rows) > 201


def _mp_kappa(lam, guess):
    """The imaginary-axis root of the scalar equation kappa cosh(pi
    kappa/2) = (4/sqrt(3)) lam sinh(pi kappa/6), at 30 digits."""
    mpmath.mp.dps = 30
    return float(mpmath.findroot(
        lambda k: k * mpmath.cosh(mpmath.pi * k / 2)
        - 4 / mpmath.sqrt(3) * lam * mpmath.sinh(mpmath.pi * k / 6), guess))


@pytest.mark.parametrize("theta, lam, anchor, mult", [
    (0.5 * math.pi, 2, 1.00624, 1), (0.0, 1, 0.41370, 2)])
def test_anchors_match_mpmath(theta, lam, anchor, mult):
    """The two anchors, single root at theta = pi/2 (overlap eigenvalue
    2) and double root at theta = 0 (eigenvalue 1 twice), agree with
    mpmath to 1e-12."""
    root = find_roots_imaginary(_spec_at_angle(theta, "closed", "unitary",
                                               "closed"))[0]
    want = _mp_kappa(lam, anchor)
    assert want == pytest.approx(anchor, abs=5e-6)
    assert abs(root.value - want) <= 1e-12
    assert root.multiplicity == mult


def test_asymptotic_sweep_diagonalizes_only_overlaps(monkeypatch):
    """An asymptotic sweep passes no scan, bisection or root point through
    eigvalsh or eigh: each axis diagonalizes each spec's overlap once."""
    thetas = np.linspace(0.0, 0.5 * math.pi, 9)
    seen = []

    def counted(solver):
        def wrapper(a, *args, **kwargs):
            seen.extend(np.reshape(a, (-1,) + a.shape[-2:]))
            return solver(a, *args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    table = theta_sweep(thetas, "closed", "unitary", "closed", s_max=5)
    assert all(row.roots for row in table.rows)
    assert len(seen) <= 2 * thetas.size
    overlaps = hyperangular._SpecStack(
        [_spec_at_angle(t, "closed", "unitary", "closed") for t in thetas],
        "imaginary").overlap
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
        return _normalized(spec, axis, x)

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
        _assert_same_roots(g, w)


def _structured_finite_spec(seed, radius, n_active=6):
    """A finite spec over six states whose overlap has the physical form
    2I - 3 Q Q^T, Q a random orthonormal 6x2, with n_active states (at
    random) on finite channels of random sign and size and the rest
    closed."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    values = rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-2.0, 2.0, 6)
    closed = set(rng.permutation(6)[n_active:].tolist())
    return ChannelMatrixSpec(
        lengths=tuple(as_length("closed") if j in closed else as_length(v)
                      for j, v in enumerate(values)),
        overlap=2.0 * np.eye(6) - 3.0 * (q @ q.T),
        state_channel=tuple(range(6)),
        hyperradius=radius)


def _mixed_finite_specs(seed, radii):
    """Finite specs at the given radii, in turn random (any overlap,
    lengths of random sign and size), physical (a conditioned scattering
    matrix's channel set) and structured (_structured_finite_spec): the
    first scan every point, the other two go through the inertia counts."""
    rng = np.random.default_rng(seed)
    specs = []
    for j, radius in enumerate(radii):
        if j % 3 == 1:
            specs.append(ChannelMatrixSpec.from_overlap(
                exchange_overlap(eigenchannels(_conditioned_matrix(rng))),
                hyperradius=radius))
        elif j % 3 == 2:
            specs.append(_structured_finite_spec(seed + j, radius))
        else:
            specs.append(_random_finite_spec(seed + j, 6, radius))
    return specs


_SKIP_SPECS = dict(seed=st.integers(0, 2**32 - 1),
                   radii=st.lists(st.floats(0.05, 50.0), min_size=1,
                                  max_size=4),
                   s_max=st.floats(2.0, 12.0))


@pytest.mark.parametrize("n_grid", [2, 3, 5, 17, 65, 257, 1025, 2000])
@settings(derandomize=True, deadline=None, max_examples=12)
@given(**_SKIP_SPECS)
def test_certified_skip_matches_full_grid(n_grid, seed, radii, s_max):
    """Scanning with the certified skip gives, bit for bit, the groups and
    warnings of the same scan over every grid point, on both axes."""
    specs = _mixed_finite_specs(seed, radii)
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


def _count_spec(kind, seed, n_active, radius):
    rng = np.random.default_rng(seed)
    if kind == "structured":
        return _structured_finite_spec(seed, radius, n_active)
    if kind == "single level":
        return ChannelMatrixSpec.single_level(
            float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)),
            hyperradius=radius)
    if n_active == 6:
        return ChannelMatrixSpec.from_overlap(
            exchange_overlap(eigenchannels(_conditioned_matrix(rng))),
            hyperradius=radius)
    # the plateau runs' channel set: a_gamma closed, four active states
    return _spec_at_angle(float(rng.uniform(0.0, 0.5 * math.pi)), 1.0,
                          float(10.0 ** rng.uniform(-1.0, 6.0)), "closed",
                          R=radius)


# real-axis points near the even integers (where D' = diag(d - 2k) is
# singular at s = 4) and the multiples of 6 (where k = 0)
_NEAR_EVEN = st.tuples(st.sampled_from([2.0, 4.0, 6.0, 8.0, 10.0, 12.0]),
                       st.floats(-1e-6, 1e-6)).map(sum)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(kind=st.sampled_from(["structured", "physical", "single level"]),
       seed=st.integers(0, 2**32 - 1), n_active=st.integers(1, 6),
       radius=st.floats(0.05, 50.0), axis=st.sampled_from(["imaginary",
                                                          "real"]),
       fraction=st.floats(0.0, 1.0), near=_NEAR_EVEN,
       shifts=st.lists(st.one_of(st.floats(-5.0, 5.0), st.floats(-1e-3, 1e-3)),
                       min_size=1, max_size=6))
def test_inertia_count_matches_eigvalsh(kind, seed, n_active, radius, axis,
                                        fraction, near, shifts):
    """Wherever no eigvalsh eigenvalue of the normalized matrix lies within
    the scan's margin of a shift, count_below gives the number of
    eigenvalues below it: structured overlaps 2I - 3 Q Q^T down to one
    active state, physical channel sets (six or four active states) and
    the one-state problem, on both axes, with real-axis points also
    within 1e-6 of the even integers and the multiples of 6."""
    spec = _count_spec(kind, seed, n_active, radius)
    stack = hyperangular._SpecStack([spec], axis)
    assert np.isfinite(stack.defect[0])
    if axis == "imaginary":
        points = [GRID_EPS + fraction * default_kappa_max(spec)]
    else:
        points = [GRID_EPS + fraction * 12.0, near]
    p = np.zeros(1, dtype=int)
    for x in np.array(points)[:, None]:
        lam = stack.eigenvalues(p, x)[0]
        margin = stack.margin(p, x)[0]
        counts = stack.count_below(p, x, np.array(shifts)[:, None])[:, 0]
        for t, count in zip(shifts, counts):
            if np.min(np.abs(lam - t)) > margin:
                assert count == np.count_nonzero(lam < t), (x, t, lam)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), n_active=st.integers(1, 6),
       radius=st.floats(0.05, 50.0), axis=st.sampled_from(["imaginary",
                                                          "real"]))
def test_unstructured_overlap_gets_no_certificate(seed, n_active, radius,
                                                  axis):
    """A random symmetric overlap is not 2I - 3 V V^T: its margin is
    infinite, so no cell or point of its scan is excluded by counts."""
    spec = _random_finite_spec(seed, n_active, radius)
    stack = hyperangular._SpecStack([spec], axis)
    lo = np.linspace(GRID_EPS, 5.0, 9)
    p = np.zeros(lo.size, dtype=int)
    assert np.all(np.isinf(stack.margin(p, lo)))
    assert not np.any(stack.excludes(p, lo, lo + 0.1, np.full(lo.size, 1e-3)))


def test_batch_equals_single_point_roots():
    """The list form returns, per spec, the single-point roots and
    warnings, also for specs of different active states."""
    rng = np.random.default_rng(5)
    specs = [ChannelMatrixSpec.from_overlap(
        exchange_overlap(eigenchannels(_conditioned_matrix(rng))),
        hyperradius=r) for r in (0.5, 2.0, 8.0)]
    specs.insert(1, _spec_at_angle(0.4, 1.0, 30.0, "closed", R=3.0))
    sinks = [[] for _ in specs]
    got = find_roots_imaginary_batch(specs, 10.0, warning_sinks=sinks)
    for spec, roots, sink in zip(specs, got, sinks):
        want_sink = []
        _assert_same_roots(roots, find_roots_imaginary(
            spec, 10.0, warning_sink=want_sink))
        assert sink == want_sink


def test_multiplicity_counts_null_space_dimension():
    """The normalized M(4) of this finite spec has four eigenvalues at
    round-off, so the root at s = 4 has multiplicity 4."""
    cs = eigenchannels(ScatteringMatrix.from_entries(
        1.3, 0.2, -0.4, 0.7, 0.5, -2.1))
    spec = ChannelMatrixSpec.from_overlap(exchange_overlap(cs),
                                          hyperradius=2.0)
    lam = np.linalg.eigvalsh(_normalized(spec, "real", 4.0))
    assert np.count_nonzero(np.abs(lam) <= 1e-12) == 4
    root = min(find_roots_real(spec, 5.0, warning_sink=[]),
               key=lambda r: abs(r.value - 4.0))
    assert abs(root.value - 4.0) < 1e-9
    assert root.multiplicity == 4


# ---------------------------------------------------------------------------
# bracket refinement
# ---------------------------------------------------------------------------

def _reference_bisect(values, lo, hi, f_lo, f_hi):
    """Plain bisection with _refine's contract: exact zeros at an end or a
    midpoint are returned as they are; a bracket stops once it is no wider
    than max(1e-12, 4 eps |hi_0|) or at floating resolution, and its
    midpoint is returned."""
    lo, hi, f_lo = lo.copy(), hi.copy(), f_lo.copy()
    tol = np.maximum(1e-12, 4.0 * np.finfo(float).eps * np.abs(hi))
    out = np.where(f_lo == 0.0, lo, hi)
    exact = (f_lo == 0.0) | (f_hi == 0.0)
    live = ~exact
    while True:
        mid = 0.5 * (lo + hi)
        live &= (hi - lo > tol) & (mid > lo) & (mid < hi)
        idx = np.nonzero(live)[0]
        if idx.size == 0:
            return np.where(exact, out, 0.5 * (lo + hi))
        f_mid = values(idx, mid[idx])
        zero = idx[f_mid == 0.0]
        out[zero] = mid[zero]
        exact[zero] = True
        live[zero] = False
        flip = (f_lo[idx] < 0.0) != (f_mid < 0.0)
        hi[idx[flip]] = mid[idx[flip]]
        lo[idx[~flip]] = mid[idx[~flip]]
        f_lo[idx[~flip]] = f_mid[~flip]


def _scalar_case(kind, r, c1, c2, gap, sign, width):
    """A function of x whose computed sign changes exactly at r (for
    "flat", across the zero plateau [r, r + gap]): smooth ones, a cubic
    and an exponential rising by up to e^40 over the bracket width;
    kinked ones, the max or min of two lines, the shape of two sorted
    curves crossing (at r when gap = 0); and one that is zero on a
    plateau, which a step can hit."""
    def f(x):
        if kind == "cubic":
            v = (x - r) * (c1 + c2 * (x - r) ** 2)
        elif kind == "exp":
            v = math.expm1(min(c1, 40.0) / width * (x - r))
        elif kind == "max":
            v = max(c1 * (x - r), c2 * (x - r - gap))
        elif kind == "min":
            v = min(c1 * (x - r), c2 * (x - r + gap))
        else:
            v = x - r if x < r else max(0.0, x - r - gap)
        return sign * v
    return f


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cases=st.lists(st.tuples(
    st.sampled_from(["cubic", "exp", "max", "min", "flat"]),
    st.floats(-20.0, 20.0), st.floats(1e-9, 20.0), st.floats(0.0, 1.0),
    st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(0.0, 1.0),
    st.sampled_from([-1.0, 1.0])), min_size=1, max_size=12),
    tol_exp=st.none() | st.floats(-12.0, 0.0))
def test_refine_lands_on_the_sign_change(cases, tol_exp):
    """All brackets refined in one call: each result lies in its starting
    bracket, within tol of the sign change (an exact zero at an end is
    returned as it is), and the bisection safeguard halves every bracket
    at least once in three rounds.  tol is the default max(1e-12,
    4 eps |hi_0|) or, for tol_exp given, the caller's max(1e-12,
    10^tol_exp (hi_0 - lo_0)) per bracket."""
    funcs, lo, hi, want = [], [], [], []
    for kind, a, width, frac, e1, e2, gap, sign in cases:
        c1, c2 = 10.0 ** e1, 10.0 ** e2
        b = a + width
        r = min(a + frac * width, b)
        gap *= b - r if kind == "flat" else width
        funcs.append(_scalar_case(kind, r, c1, c2, gap, sign, width))
        lo.append(a)
        hi.append(b)
        want.append((r, r + gap if kind == "flat" else r))
    lo, hi = np.array(lo), np.array(hi)
    f_lo = np.array([f(x) for f, x in zip(funcs, lo)])
    f_hi = np.array([f(x) for f, x in zip(funcs, hi)])
    rounds = []

    def values(idx, x):
        rounds.append(idx.size)
        return np.array([funcs[i](v) for i, v in zip(idx, x)])

    if tol_exp is None:
        tol = np.maximum(1e-12, 4.0 * np.finfo(float).eps * np.abs(hi))
        got = hyperangular._refine(values, lo, hi, f_lo, f_hi)
    else:
        tol = np.maximum(1e-12, 10.0 ** tol_exp * (hi - lo))
        got = hyperangular._refine(values, lo, hi, f_lo, f_hi, tol)
    for x, a, b, t, (first, last), fa, fb in zip(got, lo, hi, tol, want,
                                                 f_lo, f_hi):
        assert a <= x <= b
        assert first - t <= x <= last + t
        if fa == 0.0 or fb == 0.0:
            assert x == (a if fa == 0.0 else b)
    width = np.max(hi - lo)
    assert len(rounds) <= 3 * max(0.0, math.log2(width / 1e-12)) + 3
    # the same bound in tol: a wider tol ends the refinement sooner
    assert len(rounds) <= 3 * max(0.0, np.max(np.log2((hi - lo) / tol))) + 3


def test_refine_returns_an_exact_zero_at_a_step():
    """A step that lands on a zero ends its bracket there, with no further
    evaluation; the secant point of a line is its root."""
    seen = []

    def values(idx, x):
        seen.append((idx.tolist(), x.tolist()))
        return x - np.array([1.0, 3.0])[idx]

    got = hyperangular._refine(values, np.array([0.0, 0.0]),
                               np.array([2.0, 5.0]), np.array([-1.0, -3.0]),
                               np.array([1.0, 2.0]))
    assert got.tolist() == [1.0, 3.0]
    assert seen == [([0, 1], [1.0, 3.0])]


def test_admixture_sweep_refinement_work(monkeypatch):
    """The 201-point admixture sweep refines its scalar brackets and
    turning points in at most 18,000 function evaluations (17,399 with
    this refinement; without the Illinois halving 21,170, by bisection
    49,723)."""
    refine = hyperangular._refine
    points = []

    def counted_refine(values, *args):
        def counted_values(idx, x):
            points.append(idx.size)
            return values(idx, x)
        return refine(counted_values, *args)

    monkeypatch.setattr(hyperangular, "_refine", counted_refine)
    table = theta_sweep(np.linspace(0.0, 0.5 * math.pi, 201), "closed",
                        "unitary", "closed", s_max=5.0)
    assert sum(len(row.roots) for row in table.rows) > 201
    assert sum(points) <= 18_000


def _invariance_roots(seed):
    """The roots and warnings of the 50-trial invariance suite at R = 1."""
    seen = []
    solve = runner.find_roots_imaginary_batch

    def recorded(specs, *args, warning_sinks, **kwargs):
        roots = solve(specs, *args, warning_sinks=warning_sinks, **kwargs)
        seen.append((roots, warning_sinks))
        return roots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "find_roots_imaginary_batch", recorded)
        run(parse_config(f"task = invariance-suite\ntrials = 50\nR = 1\n"
                         f"seed = {seed}\n"))
    return seen[0]


def _assert_roots_agree(got, want):
    """Equal counts and multiplicities, values within 1e-12 relative to
    max(1, |value|), the refinement's tolerance scale."""
    assert [(r.axis, r.multiplicity) for r in got] == \
        [(r.axis, r.multiplicity) for r in want]
    for x, y in zip(got, want):
        assert abs(x.value - y.value) <= 1e-12 * max(1.0, abs(y.value))


@pytest.mark.parametrize("seed", range(6))
def test_refine_matches_bisection_on_the_invariance_suite(seed, monkeypatch):
    """The invariance suite's 150 finite specs at seeds 0-5 give the roots
    and warnings that reference bisection of the same brackets gives."""
    roots, warns = _invariance_roots(seed)
    monkeypatch.setattr(hyperangular, "_refine", _reference_bisect)
    want_roots, want_warns = _invariance_roots(seed)
    assert warns == want_warns
    assert sum(map(len, roots)) > 300
    for got, want in zip(roots, want_roots, strict=True):
        _assert_roots_agree(got, want)


@settings(derandomize=True, deadline=None, max_examples=24)
@given(**_SKIP_SPECS)
def test_refine_matches_bisection_on_random_specs(seed, radii, s_max):
    """The certified-skip specs on both axes: the roots and warnings of
    reference bisection of the same brackets."""
    specs = _mixed_finite_specs(seed, radii)
    for axis, x_max in (("imaginary", [default_kappa_max(s) for s in specs]),
                        ("real", [s_max] * len(specs))):
        warns, groups = hyperangular._solve_axis(specs, axis, x_max, N_GRID)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hyperangular, "_refine", _reference_bisect)
            want_warns, want_groups = hyperangular._solve_axis(
                specs, axis, x_max, N_GRID)
        assert warns == want_warns
        for got, want in zip(groups, want_groups, strict=True):
            _assert_roots_agree(got, want)


# ---------------------------------------------------------------------------
# the stacked per-root pass against the per-root code it replaced
# ---------------------------------------------------------------------------

def _reference_profile(null_vectors, channels):
    """The per-root profile loop: weights, same-level and mixed weight."""
    weights = np.zeros((3, 2))
    mult = null_vectors.shape[1]
    for k in range(mult):
        weights += (channels.vectors @ null_vectors[:, k].reshape(3, 2)) ** 2
    weights /= mult
    same = float(weights[0, 0] + weights[2, 1])
    return weights, same, float(np.sum(weights) - same)


def _assert_reference_profiles(roots, channels):
    for root in roots:
        weights, same, mixed = _reference_profile(root.null_vectors, channels)
        prof = root.spin_profile
        assert np.array_equal(prof.weights, weights)
        assert (prof.same_level_weight, prof.mixed_weight) == (same, mixed)


def _reference_merges(monkeypatch) -> list:
    """Check every _merge call's run means against the per-run np.mean
    list comprehension; returns the run sizes seen."""
    merge = hyperangular._merge
    sizes = []

    def checked(p, values):
        order, start, grp_p, mean, size = merge(p, values)
        ordered = values[order]
        want = np.array([np.mean(ordered[a:a + n])
                         for a, n in zip(start, size)])
        assert np.array_equal(mean, want)
        sizes.extend(size.tolist())
        return order, start, grp_p, mean, size

    monkeypatch.setattr(hyperangular, "_merge", checked)
    return sizes


@pytest.mark.parametrize("lengths, points, roots, run", [
    (("closed", "unitary", "closed"), 201, 1202, 2),  # the admixture sweep
    (("unitary", "unitary", "unitary"), 41, 205, 4),
])
def test_stacked_pass_matches_the_per_root_code_on_sweeps(
        lengths, points, roots, run, monkeypatch):
    """Asymptotic theta sweeps on both axes: every profile and both family
    weights bit for bit, every merged mean exactly, up to the longest run
    of roots merged."""
    sizes = _reference_merges(monkeypatch)
    table = theta_sweep(np.linspace(0.0, math.pi / 2, points), *lengths,
                        s_max=5.0)
    for row in table.rows:
        _assert_reference_profiles(row.roots,
                                   channels_from_angle(row.theta, *lengths))
    assert sum(len(row.roots) for row in table.rows) == roots
    assert max(sizes) == run


def test_stacked_pass_matches_the_per_root_code_on_the_invariance_suite(
        monkeypatch):
    """The seed-0 invariance suite's 150 finite specs, as above."""
    sizes = _reference_merges(monkeypatch)
    seen = []
    solve = runner.find_roots_imaginary_batch

    def recorded(specs, *args, **kwargs):
        roots = solve(specs, *args, **kwargs)
        seen.append((specs, roots))
        return roots

    monkeypatch.setattr(runner, "find_roots_imaginary_batch", recorded)
    run(parse_config("task = invariance-suite\ntrials = 50\nseed = 0\n"))
    (specs, roots), = seen
    for spec, spec_roots in zip(specs, roots, strict=True):
        _assert_reference_profiles(spec_roots, spec.channels)
    assert sum(map(len, roots)) > 300 and sizes


def _relabelled(channels, perm):
    """The channel set with its channels in the order perm: lengths
    together with their eigenvector columns."""
    return TwoBodyChannelSet(tuple(channels.lengths[k] for k in perm),
                             channels.vectors[:, list(perm)])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), perm=st.permutations(range(3)),
       mode=st.sampled_from(["asymptotic", "finite"]))
def test_channel_relabel_leaves_roots_and_profiles_unchanged(seed, perm,
                                                             mode):
    """Permuting the three channels permutes the states of the channel
    problem, so roots, multiplicities and family weights stay."""
    rng = np.random.default_rng(seed)
    if mode == "finite":
        channels = eigenchannels(_conditioned_matrix(rng))
        radius = float(rng.uniform(0.3, 5.0))
    else:
        kinds = rng.choice(["unitary", "closed"], size=3)
        channels = TwoBodyChannelSet(
            tuple(as_length(str(k)) for k in kinds),
            np.linalg.qr(rng.normal(size=(3, 3)))[0])
        radius = None

    def solved(cs):
        spec = ChannelMatrixSpec.from_overlap(exchange_overlap(cs),
                                              hyperradius=radius)
        sink = []
        roots = find_roots_imaginary(spec, 10.0, warning_sink=sink) \
            + find_roots_real(spec, 5.0, warning_sink=sink)
        return roots, sink

    (want, want_warns), (got, warns) = solved(channels), solved(
        _relabelled(channels, perm))
    assert warns == want_warns
    assert [(r.axis, r.multiplicity) for r in got] == \
        [(r.axis, r.multiplicity) for r in want]
    for x, y in zip(got, want):
        assert abs(x.value - y.value) <= 1e-10 * max(1.0, abs(y.value))
        np.testing.assert_allclose(x.spin_profile.weights,
                                   y.spin_profile.weights, atol=1e-9)
        assert x.spin_profile.same_level_weight == pytest.approx(
            y.spin_profile.same_level_weight, abs=1e-9)
        assert x.spin_profile.mixed_weight == pytest.approx(
            y.spin_profile.mixed_weight, abs=1e-9)


# ---------------------------------------------------------------------------
# the stacked per-spec arrays and the s_max bound
# ---------------------------------------------------------------------------

def _per_spec_arrays(spec):
    """The arrays of one spec as ChannelMatrixSpec once built them for
    itself, kept as the reference for _SpecStack: active states, active
    overlap, R/a (R / a, not R * (1/a)), the congruence diagonal and its
    outer product."""
    kinds = [l.kind for l in spec.lengths]
    act = [j for j, ch in enumerate(spec.state_channel)
           if kinds[ch] != "closed"]
    if spec.mode == "asymptotic":
        r_over_a, d = np.zeros(len(act)), np.ones(len(act))
    else:
        r_over_a = spec.hyperradius / np.array(
            [spec.lengths[spec.state_channel[j]].value for j in act])
        d = 1.0 / np.sqrt(np.maximum(1.0, math.sqrt(2.0) * np.abs(r_over_a)))
    act = np.array(act, dtype=int)
    o = 0.5 * (spec.overlap + spec.overlap.T)
    return {"active": act, "overlap": o[act[:, None], act],
            "r_over_a": r_over_a, "congruence": d, "scale": d[:, None] * d}


def _per_spec_matrix(s, spec, normalized):
    """channel_matrix as it was computed from _per_spec_arrays."""
    ref = _per_spec_arrays(spec)
    s = complex(s)
    if s.real != 0.0:
        terms, x, factor = hyperangular._real_terms, s.real, 1.0
    else:
        terms, x = hyperangular._imag_terms, s.imag
        factor = 2.0 * math.exp(-0.5 * math.pi * x)
    kern, diag = terms(np.array([x]), ref["r_over_a"])
    out = hyperangular._assemble(kern, diag, ref["overlap"])[0] * ref["scale"]
    return out if normalized else out / (factor * ref["scale"])


_POINTS = (0.7, 2.5, 4.0 + 1e-7, 1j * 1e-8, 1j * 0.3, 1j * 4.0)


def _assert_stack_matches(stack, specs):
    """Every row of the stack, and the normalized matrices it evaluates,
    equal the per-spec reference bit for bit."""
    axis = "real" if stack.terms is hyperangular._real_terms else "imaginary"
    for row, spec in enumerate(specs):
        want = _per_spec_arrays(spec)
        assert np.array_equal(stack.active, want["active"])
        for name in ("overlap", "r_over_a", "congruence", "scale"):
            assert np.array_equal(getattr(stack, name)[row], want[name]), name
        for s in _POINTS:
            x = s.real if axis == "real" else s.imag
            if x > 0.0 and want["active"].size:
                got = stack.matrices(np.array([row]), np.array([x]))[0]
                assert np.array_equal(got, _per_spec_matrix(s, spec, True))


_STACK_CASES = {
    "asymptotic": lambda: [_spec_at_angle(0.7, "closed", "unitary",
                                          "unitary")],
    "finite": lambda: [_spec_at_angle(0.7, 1.0, -30.0, 0.2, R=3.0)],
    "closed channels": lambda: [
        _spec_at_angle(0.4, 1.0, 30.0, "closed", R=3.0),
        _spec_at_angle(0.4, "closed", "unitary", "closed"),
        _spec_at_angle(0.4, "closed", "closed", "closed")],
    "single level": lambda: [
        ChannelMatrixSpec.single_level("unitary"),
        ChannelMatrixSpec.single_level(1.0, hyperradius=100.0),
        ChannelMatrixSpec.single_level(-1.0, hyperradius=0.5)],
}


@pytest.mark.parametrize("case", sorted(_STACK_CASES))
def test_stack_matches_the_per_spec_arrays(case):
    """One spec's stack, with the normalized matrices it evaluates, and
    channel_matrix equal the per-spec reference bit for bit on both
    axes."""
    for spec in _STACK_CASES[case]():
        for axis in ("imaginary", "real"):
            _assert_stack_matches(hyperangular._SpecStack([spec], axis),
                                  [spec])
        if spec.active_states().size == 0:
            continue
        for s in _POINTS:
            assert np.array_equal(channel_matrix(s, spec),
                                  _per_spec_matrix(s, spec, False))


def test_stack_of_mixed_state_maps_reads_each_spec():
    """_mixed_finite_specs batches six-channel and three-channel state
    maps over the same six active states; each row reads its own spec."""
    specs = _mixed_finite_specs(7, [0.3, 2.0, 7.0, 40.0])
    assert len({s.state_channel for s in specs}) == 2
    for axis in ("imaginary", "real"):
        _assert_stack_matches(hyperangular._SpecStack(specs, axis), specs)


def test_batch_stacks_asymptotic_and_finite_specs(monkeypatch):
    """find_roots_imaginary_batch puts an asymptotic and a finite spec of
    the same active states in stacks of their own, whose rows equal the
    per-spec reference, so each spec's roots and warnings are, bit for
    bit, the single-point ones (the asymptotic spec's from the scalar
    solver)."""
    specs = [_spec_at_angle(0.9, "unitary", "unitary", "unitary"),
             _spec_at_angle(0.9, 1.0, -30.0, 0.2, R=3.0)]
    built = []

    class Recorded(hyperangular._SpecStack):
        def __init__(self, batch, axis):
            super().__init__(batch, axis)
            built.append((batch, self))

    sinks = [[], []]
    with monkeypatch.context() as mp:
        mp.setattr(hyperangular, "_SpecStack", Recorded)
        got = find_roots_imaginary_batch(specs, 10.0, warning_sinks=sinks)
    assert [batch for batch, _ in built] == [[specs[0]], [specs[1]]]
    for batch, stack in built:
        _assert_stack_matches(stack, batch)
    for spec, roots, sink in zip(specs, got, sinks):
        want_sink = []
        _assert_same_roots(roots, find_roots_imaginary(
            spec, 10.0, warning_sink=want_sink))
        assert sink == want_sink


def test_asymptotic_sweep_takes_no_matrix_norm(monkeypatch):
    """An all-asymptotic batch needs no ||D O D||_2 (no scan, no Weyl
    bound): a sweep on both axes computes no matrix 2-norm."""
    norm = np.linalg.norm
    seen = []

    def counted(a, ord=None, axis=None, **kwargs):
        if isinstance(axis, tuple):
            seen.append(ord)
        return norm(a, ord, axis, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    table = theta_sweep(np.linspace(0.0, 0.5 * math.pi, 9), "closed",
                        "unitary", "closed", s_max=5.0)
    assert all(row.roots for row in table.rows)
    assert seen == []


@pytest.mark.parametrize("s_max", [1.5, hyperangular.S_MAX_LIMIT * 1.001,
                                   1e15, math.inf, math.nan])
def test_s_max_outside_its_bounds_is_refused(s_max):
    """An s_max below 2 or above S_MAX_LIMIT is refused by the point
    finder and by a sweep before any grid is built."""
    spec = _spec_at_angle(0.5 * math.pi, "closed", "unitary", "closed")
    with pytest.raises(HyperangularError, match="s_max"):
        find_roots_real(spec, s_max)
    with pytest.raises(HyperangularError, match="s_max"):
        theta_sweep([0.0, 1.0], "closed", "unitary", "closed", s_max=s_max)


def test_s_max_limit_is_accepted_and_checked_once_per_sweep(monkeypatch):
    """s_max = S_MAX_LIMIT still solves; a sweep checks s_max once, not
    once per point."""
    spec = _spec_at_angle(0.5 * math.pi, "closed", "unitary", "closed")
    roots = find_roots_real(spec, hyperangular.S_MAX_LIMIT)
    assert roots[-1].value <= hyperangular.S_MAX_LIMIT
    calls = []
    check = hyperangular._check_s_max
    monkeypatch.setattr(hyperangular, "_check_s_max",
                        lambda s_max: calls.append(s_max) or check(s_max))
    theta_sweep(np.linspace(0.0, 1.0, 5), "closed", "unitary", "closed",
                s_max=5.0)
    assert calls == [5.0]


# ---------------------------------------------------------------------------
# typed refusals
# ---------------------------------------------------------------------------

_UNITARY_CHANNELS = channels_from_angle(0.0, "unitary", "closed", "closed")


@pytest.mark.parametrize("call, message", [
    (lambda: ChannelMatrixSpec((as_length(1.0),), np.eye(2), (0,),
                               hyperradius=1.0),
     "overlap shape (2, 2) does not match 1 states"),
    (lambda: ChannelMatrixSpec((as_length("unitary"),) * 2,
                               np.array([[0.0, 1.0], [0.0, 0.0]]), (0, 1)),
     "overlap matrix must be symmetric"),
    (lambda: channel_matrix(1j, ChannelMatrixSpec.single_level("closed")),
     "all channels are closed; no matrix remains"),
    (lambda: find_roots_imaginary(ChannelMatrixSpec.single_level("unitary"),
                                  1e-9),
     "kappa_max must exceed the grid offset 1e-08"),
    (lambda: radius_sweep(0.0, 1.0, 1e6, "closed", [10.0, 1.0]),
     "R grid must be nonempty, positive, ascending"),
    (lambda: radius_sweep(0.0, 1.0, 1e6, "closed", [1.0, math.nan, 3.0]),
     "R grid must be nonempty, positive, ascending"),
    (lambda: plateau_extract(radius_sweep(0.0, "closed", 1e6, 1.0,
                                          [1.0, 2.0, 4.0])),
     "plateau extraction needs finite a_alpha and a_beta"),
    (lambda: classify_root(np.ones((1, 1)), _UNITARY_CHANNELS),
     "spin classification needs the six-state channel problem"),
    (lambda: classify_root(np.zeros((6, 1)), _UNITARY_CHANNELS),
     "spin profile weights sum to 0.0, expected 1"),
])
def test_hyperangular_refusal_is_typed(call, message):
    with pytest.raises(HyperangularError) as err:
        call()
    assert str(err.value) == message


def test_plateau_extract_needs_three_points_in_the_window():
    """An r-sweep with one grid point in 10 |a_alpha| <= R <= |a_beta|/10
    has no plateau to extract, and says so."""
    table = radius_sweep(0.0, 1.0, 1e6, "closed", [1e-2, 1e2, 1e6])
    summary = plateau_extract(table)
    assert summary.plateaus == () and summary.window == (10.0, 1e5)
    assert summary.no_plateau_reason == \
        "no plateau: no imaginary curve spans the window"
