import math
import re
import threading
import warnings

import mpmath
import numpy as np
import pytest

from spinor_efimov import hyperradial
from spinor_efimov.hyperangular import (
    ChannelMatrixSpec,
    find_roots_imaginary,
    radius_sweep,
    theta_sweep,
)
from spinor_efimov.hyperradial import (
    AdiabaticPotential,
    HyperradialError,
    LadderSpectrum,
    PhysicalConvention,
    _COUNT_WINDOW,
    _GROWTH_CUTOFF,
    _arg_gamma,
    _count_nodes,
    _deepest_level,
    _numerov_sweep,
    _RadialShooter,
    bound_states,
    efimov_ladder,
    inverse_square_potential,
    potential,
    scaling_factor,
)

KAPPA_IB = 1.00624  # identical-boson channel exponent, quoted to 5 decimals
CONV = PhysicalConvention()


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_potential_value_unitary_channel():
    pot = inverse_square_potential(KAPPA_IB, 1.0, 10.0, CONV,
                                   points_per_decade=100)
    u_at_1 = pot.potentials[0, 0]
    assert u_at_1 == pytest.approx(-(KAPPA_IB ** 2 + 0.25) / 2.0, abs=1e-12)
    assert u_at_1 == pytest.approx(-0.63126, abs=1e-5)
    assert np.all(pot.potentials < 0)


def test_potential_value_free_channel():
    pot = AdiabaticPotential.from_s_squared([1.0], [[4.0]], CONV)
    assert pot.potentials[0, 0] == pytest.approx(1.875, abs=1e-14)


def test_potential_identity_on_grid():
    rng = np.random.default_rng(8)
    radii = np.logspace(-2, 3, 400)
    s2 = np.vstack([rng.uniform(-4, 9, radii.size) for _ in range(3)])
    pot = AdiabaticPotential.from_s_squared(radii, s2, CONV)
    mu = CONV.mass
    lhs = pot.potentials * 2 * mu * radii ** 2 + 0.25
    assert np.max(np.abs(lhs - s2)) < 1e-10


def test_potential_from_radius_sweep():
    radii = np.logspace(0, 2, 9)
    table = radius_sweep(0.0, "closed", 1e8, "closed", radii)
    pot = potential(table, CONV)
    assert pot.n_curves >= 1
    assert pot.radii.size == radii.size
    # the near-unitary mixed-pair curves sit close to the 0.41370 anchor
    assert np.min(np.abs(np.sqrt(-pot.s_squared) - 0.41370)) < 1e-3


def test_potential_gap_is_hard_error():
    # the alpha-channel dimer curve kappa ~ sqrt(2) R / 0.5 exits the
    # kappa window early in R, so it cannot back a full-grid potential
    short = _short_sweep()
    partial = [cid for cid, pts in short.curve_series().items()
               if len(pts) < len(short.radii)]
    assert partial, "expected at least one short-lived curve in this sweep"
    with pytest.raises(HyperradialError, match="gap over R"):
        potential(short, CONV, curve_ids=[partial[0]])


def _short_sweep():
    return radius_sweep(math.pi / 2, 0.5, 1e7, "closed",
                        np.logspace(-2, 5, 36))


def _crossing_sweep():
    return radius_sweep(math.pi / 2, 1.0, 1e6, "closed",
                        np.geomspace(0.02, 5.0, 25))


@pytest.mark.parametrize("sweep, spanning, curves", [
    (_crossing_sweep, [0, 1, 2], 3), (_short_sweep, [2], 10)],
    ids=["crossing", "short"])
def test_potential_edges(sweep, spanning, curves):
    """A requested id below zero (it does not wrap around) or past the
    last curve is a gap over the whole grid; an explicit id list gives
    rows in its order; the default takes the curves that span the grid,
    in ascending order, and their rows are the s^2 = -kappa^2 of the
    sweep's curve series."""
    table = sweep()
    lo, hi = f"{table.radii[0]:.6g}", f"{table.radii[-1]:.6g}"
    for cid in (-1, 10 ** 6):
        with pytest.raises(HyperradialError, match=re.escape(
                f"root curve {cid} has a gap over R in [{lo}, {hi}]")):
            potential(table, CONV, curve_ids=[cid])
    series = table.curve_series()
    assert table.curve_series("real") == {}
    full = sorted(cid for cid, pts in series.items()
                  if [p[1] for p in pts] == table.radii)
    assert (full, len(series)) == (spanning, curves)
    pot = potential(table, CONV)
    np.testing.assert_array_equal(pot.radii, table.radii)
    assert np.array_equal(pot.s_squared, [[-p[2] ** 2 for p in series[cid]]
                                          for cid in full])
    picked = potential(table, CONV, curve_ids=full[::-1])
    assert np.array_equal(picked.s_squared, pot.s_squared[::-1])


def test_dimer_limit_potential():
    # single channel, R/a = 100: U must land within 1% of -1/(m a^2)
    a = 1.0
    spec = ChannelMatrixSpec.single_level(a, hyperradius=100.0 * a)
    kappa = find_roots_imaginary(spec).value[0]
    pot = AdiabaticPotential.from_s_squared([100.0 * a], [[-kappa ** 2]], CONV)
    dimer = -1.0 / (CONV.mass * a ** 2)
    assert pot.potentials[0, 0] == pytest.approx(dimer, rel=1e-2)
    assert pot.potentials[0, 0] == pytest.approx(dimer * (1 + a ** 2 / (8 * 100.0 ** 2)),
                                                 rel=1e-9)


def test_convention_requires_equal_masses():
    with pytest.raises(HyperradialError):
        PhysicalConvention(mass=-1.0)
    # a non-finite mass is refused by name, not by the ladder's grid check
    for mass in (math.nan, math.inf):
        with pytest.raises(HyperradialError, match=f"finite, got {mass}"):
            PhysicalConvention(mass=mass)


# ---------------------------------------------------------------------------
# scaling factor
# ---------------------------------------------------------------------------

def test_scaling_factor_values():
    assert scaling_factor(KAPPA_IB) == pytest.approx(math.exp(math.pi / KAPPA_IB))
    assert scaling_factor(KAPPA_IB) == pytest.approx(22.694, abs=1e-3)
    assert scaling_factor(0.41370) == pytest.approx(math.exp(math.pi / 0.41370))
    assert scaling_factor(0.41370) == pytest.approx(1986.0, abs=0.1)


def test_scaling_factor_limit_and_domain():
    assert scaling_factor(1e9) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(HyperradialError):
        scaling_factor(0.0)
    with pytest.raises(HyperradialError):
        scaling_factor(-1.0)


# ---------------------------------------------------------------------------
# Numerov sweep
# ---------------------------------------------------------------------------

def _numerov_loop(q, h, y0, y1):
    """Reference: the Numerov recurrence stepped point by point."""
    p = 1.0 - (h * h / 12.0) * np.asarray(q, dtype=float)
    y = [y0, y1][: len(p)]
    for i in range(1, len(p) - 1):
        y.append(((12.0 - 10.0 * p[i]) * y[i] - p[i - 1] * y[i - 1]) / p[i + 1])
    return np.array(y)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 1000])
def test_numerov_sweep_matches_loop(n):
    # n = 2..5 exercise the unused corners of the band storage, n = 1000
    # the Fortran-ordered storage at a real size
    rng = np.random.default_rng(n)
    q = rng.uniform(-30.0, 30.0, n)
    h, y0, y1 = 0.05, rng.normal(), rng.normal()
    y = _numerov_sweep(q, h, y0, y1)
    ref = _numerov_loop(q, h, y0, y1)
    assert y.shape == (n,)
    assert y[:6] == pytest.approx(ref[:6], rel=1e-12, abs=0.0)
    # further on, round-off is relative to the solution's size so far:
    # next to a node of the long sweep |y| is far below it
    envelope = np.maximum.accumulate(np.abs(ref))
    assert np.max(np.abs(y - ref) / envelope) <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_numerov_sweep_singular_step_is_typed_error(k):
    # h^2 q / 12 = 1 makes p vanish there; c = h^2 q / p and y = w / p
    # need p != 0, and the seeds enter as w = p y, so k = 0 and 1 count too
    q = np.zeros(4)
    q[k] = 12.0
    with pytest.raises(HyperradialError,
                       match=rf"\(h\^2 q = 12\) at grid point {k}$"):
        _numerov_sweep(q, 1.0, 0.0, 1.0)


def test_numerov_sweep_keeps_the_potential_over_twenty_decades():
    """y'' = -kappa^2 y over 20 decades at efimov_ladder's density: the
    sign changes of the sweep, interpolated linearly, sit at the zeros
    pi j / kappa of sin(kappa x) to 1e-10 relative (6.6e-13 measured).
    The three-term form, 12 - 10 p with p = 1 - h^2 q / 12, keeps only
    about eight digits of h^2 q and misses by 8.9e-10 here, by 1e-8 at
    4,000 points per decade."""
    kappa = 0.41370
    x = np.linspace(0.0, 20.0 * math.log(10.0), 20001)
    h = x[1] - x[0]
    y = _numerov_sweep(np.full(x.size, -kappa * kappa), h, 0.0,
                       math.sin(kappa * h))
    i = np.nonzero(np.sign(y[1:-1]) != np.sign(y[2:]))[0] + 1
    zeros = x[i] - y[i] * h / (y[i + 1] - y[i])
    exact = math.pi * np.arange(1, 7) / kappa
    assert zeros.size == exact.size
    assert np.max(np.abs(zeros / exact - 1.0)) <= 1e-10


def _ladders_and_sweeps():
    """The benchmark's two ladders, and raw sweeps: random q as in
    test_numerov_sweep_matches_loop, short ones after a long one so that
    they reuse its band storage, and the twenty-decade system above."""
    ladders = [efimov_ladder(KAPPA_IB, 1e-3, 4).energies,
               efimov_ladder(0.41370, 1e-3, 3).energies]
    rng = np.random.default_rng(31)
    systems = [(rng.uniform(-30.0, 30.0, n), 0.05, rng.normal(), rng.normal())
               for n in (1000, 3, 4, 5)]
    kappa = 0.41370
    h = 20.0 * math.log(10.0) / 20000
    systems.append((np.full(20001, -kappa * kappa), h, 0.0,
                    math.sin(kappa * h)))
    sweeps = [_numerov_sweep(*system) for system in systems]
    return [[e.hex() for e in ladder] for ladder in ladders], \
        [y.tobytes() for y in sweeps]


def test_scipy_fallback_gives_the_same_bits(monkeypatch):
    """Where numpy bundles no usable dtbtrs, the sweeps call scipy's
    instead, and every ladder energy and sweep value is bit for bit the
    same on both paths."""
    monkeypatch.setattr(hyperradial, "_solve", None)
    bundled = _ladders_and_sweeps()
    monkeypatch.setattr(hyperradial, "_solve", None)
    monkeypatch.setattr(hyperradial, "_openblas_dtbtrs", lambda: None)
    fallback = _ladders_and_sweeps()
    assert hyperradial._solve is hyperradial._scipy_dtbtrs
    assert fallback == bundled


def test_concurrent_ladders_match_serial_ones():
    """The benchmark's two ladders, 40 times each in two threads at once,
    give the serial results every time: the band solve releases the GIL,
    and no sweep may see another's band system."""
    cases = [(KAPPA_IB, 1e-3, 4), (0.41370, 1e-3, 3)]
    serial = [efimov_ladder(*case) for case in cases]
    results = [[], []]

    def work(i):
        results[i].extend(efimov_ladder(*cases[i]) for _ in range(40))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for want, got in zip(serial, results, strict=True):
        assert len(got) == 40
        assert all(spectrum == want for spectrum in got)


def test_a_library_that_fails_the_known_system_is_not_used(monkeypatch):
    """The bundled dtbtrs is kept only if it solves the known band system
    exactly.  Made to expect an answer one ulp off in the last unknown,
    the check refuses it and the sweeps fall back to scipy's, with the
    same values."""
    q = np.random.default_rng(5).uniform(-30.0, 30.0, 200)
    monkeypatch.setattr(hyperradial, "_solve", None)
    y = _numerov_sweep(q, 0.05, 0.0, 1.0)
    monkeypatch.setattr(hyperradial, "_KNOWN_X", hyperradial._KNOWN_X[:-1]
                        + (math.nextafter(5.0, 6.0),))
    monkeypatch.setattr(hyperradial, "_solve", None)
    assert hyperradial._openblas_dtbtrs() is None
    assert _numerov_sweep(q, 0.05, 0.0, 1.0).tobytes() == y.tobytes()
    assert hyperradial._solve is hyperradial._scipy_dtbtrs


def test_a_failed_band_solve_is_a_typed_error(monkeypatch):
    """dtbtrs reports an illegal argument through info < 0; a nonzero info
    raises HyperradialError rather than returning the right-hand side."""
    monkeypatch.setattr(hyperradial, "_solve", lambda ab, b: (b, -8))
    with pytest.raises(HyperradialError, match=r"\(info -8\)$"):
        _numerov_sweep(np.zeros(5), 0.1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------

#: ladder energies of the summed-form Numerov sweep at 1,000 points per
#: decade, each within 2.5e-10 of the zeros of K_{i kappa}
#: (exact_ladder); a change of solver must stay within a few of its 1e-9
#: level tolerances of them
PINNED_LADDERS = [
    (1.00624, 4, 2e-9, (-2137.0103684890737, -4.144914522855038,
                        -0.008047922826789337, -1.5626183446359817e-05)),
    (0.41370, 3, 2e-9, (-0.1813593188769247, -4.598010993811677e-08,
                        -1.1657359826422694e-14)),
]


@pytest.mark.parametrize("kappa, n_levels, rel, energies", PINNED_LADDERS)
def test_ladder_pinned_to_reference_solver(kappa, n_levels, rel, energies):
    spec = efimov_ladder(kappa, wall_radius=1e-3, n_levels=n_levels)
    assert spec.nodes == tuple(range(n_levels))
    assert spec.energies == pytest.approx(energies, rel=rel, abs=0.0)
    assert all(type(e) is float for e in spec.energies + spec.ratios)


@pytest.mark.parametrize("kappa, n_levels, max_shots", [
    # 24, 17 and 39 with the deepest level probed first at the zero of
    # K_{i kappa} (37, 30 and 51 when it was bisected cold; 39 and 30 by
    # a separate Illinois loop in bound_states; 74 and 59 when every
    # level was bisected cold, 152 and 117 with bisection refinement and
    # repeated shoots)
    (1.00624, 4, 28),
    (0.41370, 3, 20),
    (2.0, 5, 45),
])
def test_ladder_shoot_count(monkeypatch, kappa, n_levels, max_shots):
    energies = []
    shoot = _RadialShooter.shoot

    def counted(self, energy):
        energies.append(energy)
        return shoot(self, energy)

    monkeypatch.setattr(_RadialShooter, "shoot", counted)
    efimov_ladder(kappa, wall_radius=1e-3, n_levels=n_levels)
    assert len(energies) <= max_shots
    assert len(set(energies)) == len(energies)


@pytest.fixture(scope="module")
def ladder_ib():
    return efimov_ladder(KAPPA_IB, wall_radius=1e-3, n_levels=4)


def test_ladder_node_count_fallback(monkeypatch, ladder_ib):
    # a defect of one sign in every window sends each level to pure
    # node-count bisection at full resolution instead of Illinois steps
    shoot = _RadialShooter.shoot

    def one_signed(self, energy):
        count, defect = shoot(self, energy)
        return count, abs(defect)

    monkeypatch.setattr(_RadialShooter, "shoot", one_signed)
    spec = efimov_ladder(KAPPA_IB, wall_radius=1e-3, n_levels=4)
    assert spec.nodes == (0, 1, 2, 3)
    assert spec.energies == pytest.approx(ladder_ib.energies, rel=2e-9, abs=0.0)


def test_ladder_warm_start_miss(monkeypatch):
    # s^2 runs from -1.0 to -0.5 across the grid, so kappa falls between
    # levels and each scale-invariant guess lands 0.25-0.4 deeper in ln|E|
    # than the level with kappa read at the previous level, 0.09-0.14 with
    # the mean of that reading and one at the guess: every window misses
    # and is widened
    radii = 10.0 ** np.linspace(-3.0, 5.0, 8001)
    s2 = -1.0 + 0.5 * (np.log10(radii) + 3.0) / 8.0
    pot = AdiabaticPotential.from_s_squared(radii, s2[None, :], CONV)
    energies = []
    shoot = _RadialShooter.shoot

    def counted(self, energy):
        energies.append(energy)
        return shoot(self, energy)

    monkeypatch.setattr(_RadialShooter, "shoot", counted)
    spec = bound_states(pot, 1e-3, 4)
    assert spec.nodes == (0, 1, 2, 3)
    assert len(set(energies)) == len(energies)
    # 70 shots; 76 with kappa read only at the previous level
    assert len(energies) <= 76
    # levels of the solver that bisected every level cold
    pinned = (-1724.595426946884, -1.9466866525457611,
              -0.001468402230875352, -6.578388483453792e-07)
    assert spec.energies == pytest.approx(pinned, rel=1e-8, abs=0.0)
    w = 2.0 * CONV.mass * radii ** 2 * pot.potentials[0]

    def kappa_at(energy):
        turn = np.nonzero(w + 0.25 - 2.0 * CONV.mass * radii ** 2 * energy < 0)[0][-1]
        return math.sqrt(-(w[turn] + 0.25))

    for deep, level in zip(spec.energies, spec.energies[1:]):
        guess = math.log(-deep) - 2.0 * math.pi / kappa_at(deep)
        mean = 0.5 * (kappa_at(deep) + kappa_at(-math.exp(guess)))
        for kappa in kappa_at(deep), mean:
            guess = math.log(-deep) - 2.0 * math.pi / kappa
            assert abs(math.log(-level) - guess) > 0.5 * _COUNT_WINDOW


def test_ladder_geometric_ratios(ladder_ib):
    target = math.exp(2 * math.pi / KAPPA_IB)
    assert len(ladder_ib.ratios) == 3
    assert ladder_ib.ratios[2] == pytest.approx(target, rel=0.02)
    assert ladder_ib.ratios[2] == pytest.approx(515.03, rel=0.02)


def test_ladder_ratio_convergence_is_monotone(ladder_ib):
    target = math.exp(2 * math.pi / KAPPA_IB)
    devs = [abs(r - target) / target for r in ladder_ib.ratios]
    assert devs[0] > devs[1] > devs[2]


def test_ladder_node_theorem(ladder_ib):
    assert ladder_ib.nodes == (0, 1, 2, 3)
    assert all(e < 0 for e in ladder_ib.energies)
    mags = [abs(e) for e in ladder_ib.energies]
    assert mags == sorted(mags, reverse=True)


def test_ladder_levels_above_potential_minimum(ladder_ib):
    u_min = -(KAPPA_IB ** 2 + 0.25) / (2.0 * 1e-3 ** 2)
    assert all(e > u_min for e in ladder_ib.energies)


def exact_ladder(kappa, n_levels, r0, mass):
    """The n_levels deepest hard-wall levels of U = -(kappa^2+1/4)/(2 m R^2),
    E_n = -z_n^2 / (2 m r0^2) for the zeros z_n of K_{i kappa} (Braaten
    and Hammer, Phys. Rep. 428, 259, 2006), at 25 digits.  K_{i kappa}(z)
    has no zero above z = kappa; below it the zeros lie pi/kappa apart in
    ln z, so a downward scan in ln z from kappa + 5 in steps of a sixteenth
    of that spacing meets them one by one, deepest level first.  K_{i kappa}
    is about e^{-pi kappa/2} in size, so it is root-found scaled by
    e^{pi kappa/2}: unscaled, findroot stopped short of the zeros (4.8e-10
    off at kappa 30, 8.3e-7 at kappa 100)."""
    def k_of(lz):
        return mpmath.re(mpmath.besselk(1j * mpmath.mpf(kappa), mpmath.exp(lz))
                         ) * mpmath.exp(mpmath.pi * kappa / 2)

    with mpmath.workdps(25):
        step = math.pi / kappa / 16.0
        lz = math.log(kappa + 5.0)
        f = k_of(lz)
        levels = []
        while len(levels) < n_levels:
            lz_next = lz - step
            f_next = k_of(lz_next)
            if (f < 0) != (f_next < 0):
                z = mpmath.exp(mpmath.findroot(k_of, (lz_next, lz),
                                               solver="anderson"))
                levels.append(float(-z * z / (2 * mass * r0 * r0)))
            lz, f = lz_next, f_next
    return levels


@pytest.mark.parametrize("kappa, n_levels, rel", [
    (KAPPA_IB, 4, 1e-9), (2.0, 5, 1e-9), (0.41370, 3, 1e-9)])
@pytest.mark.parametrize("r0, mass", [(1e-3, 1.0), (3e-3, 2.0), (1e-2, 0.5)])
def test_ladder_matches_exact_spectrum(kappa, n_levels, rel, r0, mass):
    """Every level of efimov_ladder against the zeros of K_{i kappa}, to
    the level tolerance _E_RTOL = 1e-9 at every kappa: the summed-form
    sweep keeps the potential's digits, and a density of 500 kappa points
    per decade (200 at least) puts the discretization error below it
    (3.3e-10 worst measured here, 5.7e-10 on 100-level ladders at kappa
    1.5).  The three-term form at 4,000 points per decade was 5.6e-8 off
    on the upper levels at kappa 0.41370."""
    spec = efimov_ladder(kappa, r0, n_levels, PhysicalConvention(mass))
    assert spec.nodes == tuple(range(n_levels))
    assert spec.energies == pytest.approx(
        exact_ladder(kappa, n_levels, r0, mass), rel=rel, abs=0.0)


@pytest.mark.parametrize("kappa, n_levels", [(8.0, 20), (100.0, 3)])
def test_ladder_matches_exact_spectrum_at_large_kappa(kappa, n_levels):
    """Numerov's phase error goes as (kappa h)^4, so a grid of fixed density
    loses the levels at large kappa: 1,000 points per decade was 3.5e-9
    and 9.1e-8 off these.  The density that grows with kappa holds 1e-9
    (3.7e-10 and 2.5e-10)."""
    spec = efimov_ladder(kappa, 1e-3, n_levels)
    assert spec.nodes == tuple(range(n_levels))
    assert spec.energies == pytest.approx(
        exact_ladder(kappa, n_levels, 1e-3, 1.0), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kappa, n_levels", [
    (1e6, 4), (100.0, 3000), (0.01, 100), (0.41370, 44), (300.0, 4)])
def test_ladder_grid_stays_within_its_ceiling(monkeypatch, kappa, n_levels):
    """No ladder grid has more than 300,001 points, the size of the
    300-decade grid at 1,000 points per decade.  The grid is recorded,
    never built: at kappa 1e6 a density of 500 kappa per decade would
    ask for 10^9 points."""
    class Sized(Exception):
        pass

    def recorder(kappa, r_min, r_max, convention, points_per_decade=1000):
        decades = math.log10(r_max / r_min)
        raise Sized(int(math.ceil(decades * points_per_decade)) + 1)

    monkeypatch.setattr(hyperradial, "inverse_square_potential", recorder)
    with pytest.raises(Sized) as sized:
        efimov_ladder(kappa, 1e-3, n_levels)
    assert 2 <= sized.value.args[0] <= 300_001


@pytest.mark.parametrize("kappa", [0.01, 0.05, 0.4137, 1.00624, 2.0, 30.0, 300.0])
def test_arg_gamma_matches_mpmath(kappa):
    assert _arg_gamma(kappa) == pytest.approx(
        float(mpmath.loggamma(1 + 1j * kappa).imag), rel=0.0, abs=1e-10)


@pytest.mark.parametrize("kappa, tol", [(0.41370, 1e-6), (KAPPA_IB, 1e-6),
                                        (2.0, 1e-3)])
def test_deepest_level_guess_is_near_the_exact_level(kappa, tol):
    """The guess the deepest level is probed at, against the largest zero
    of K_{i kappa}: errors 1.9e-12, 9.0e-7 and 3.9e-4 in ln|E|, from the
    neglected O(z^4) terms (1.5e-7, 1.1e-3 and 2.0e-2 without the O(z^2)
    term)."""
    exact = exact_ladder(kappa, 1, 1e-3, 1.0)[0]
    guess = _deepest_level(kappa, 2.0 * 1e-3 ** 2)
    assert abs(guess - math.log(-exact)) < tol


@pytest.mark.parametrize("kappa", [0.01, 0.05, 0.1])
def test_tiny_kappa_deepest_level_stays_in_ln_z(kappa):
    # at kappa 0.01 the level is 8e-268: (z / r0)^2 would underflow.  The
    # three-term sweep was 5.8e-3, 1.0e-5 and 1.8e-6 off these levels
    spec = efimov_ladder(kappa, 1e-3, 1)
    assert spec.nodes == (0,)
    assert spec.energies == pytest.approx(exact_ladder(kappa, 1, 1e-3, 1.0),
                                          rel=1e-9, abs=0.0)


def whole_grid_shoot(shooter, energy):
    """_RadialShooter.shoot as it was before it bounded its work by the
    turning point: q, the turning point and the WKB growth over the whole
    grid."""
    q = shooter.s2 - energy * shooter.two_mu_r2
    neg = np.nonzero(q < 0.0)[0]
    if neg.size == 0:
        return 0, 1.0
    it = min(max(int(neg[-1]), 1), q.size - 3)
    growth = np.cumsum(np.sqrt(np.maximum(q[it:], 0.0))) * shooter.h
    extra = int(np.searchsorted(growth, _GROWTH_CUTOFF))
    stop = min(it + max(extra, 2), q.size - 1)
    y_out = _numerov_sweep(q[: stop + 1], shooter.h, 0.0, 1.0)
    y_in = _numerov_sweep(q[it: stop + 1][::-1], shooter.h, 0.0, 1.0)[::-1]
    p0, p1 = 1.0 - (shooter.h * shooter.h / 12.0) * q[it: it + 2]
    po, pi_ = p0 * y_out[it], p0 * y_in[0]
    po1, pi1 = p1 * y_out[it + 1], p1 * y_in[1]
    scale = max(abs(po), abs(po1)) * max(abs(pi_), abs(pi1))
    wron = po * pi1 - po1 * pi_
    return _count_nodes(y_out[1:]), float(wron / scale if scale > 0 else wron)


def _shoot_channels():
    for kappa, n_levels in [(0.41370, 3), (KAPPA_IB, 4), (2.0, 5)]:
        decades = 1.2 + n_levels * math.pi / (kappa * math.log(10.0)) + math.log10(12.0)
        yield f"pure {kappa}", inverse_square_potential(
            kappa, 1e-3, 1e-3 * 10.0 ** decades, CONV)
    # on a dense grid shoot's windows span many points: 40,000 and
    # 160,000 here
    yield "fine grid", inverse_square_potential(0.41370, 1e-3, 1.0, CONV,
                                                points_per_decade=20000)
    radii = 10.0 ** np.linspace(-3.0, 5.0, 8001)
    x = np.log10(radii)
    yield "drifting", AdiabaticPotential.from_s_squared(
        radii, (-1.0 + 0.5 * (x + 3.0) / 8.0)[None, :], CONV)
    # two classically allowed regions, R < 0.1 and 3.2 < R < 100: above
    # E = -0.075 the outer one holds the outermost turning point
    s2 = np.select([x < -1.0, x < 0.5, x < 2.0], [-1.0, 2.0, -1.5], 0.5)
    yield "two wells", AdiabaticPotential.from_s_squared(radii, s2[None, :], CONV)
    # at kappa 1e-7 the growth sum passes shoot's eight-decade window
    # before it reaches the cutoff, and for some energies never does
    yield "tiny kappa", inverse_square_potential(1e-7, 1e-3, 1e12, CONV,
                                                 points_per_decade=40)


@pytest.mark.parametrize("name, pot", list(_shoot_channels()))
def test_shoot_matches_whole_grid_reference(name, pot):
    """shoot works only on the grid its sweeps cover; its (count, defect)
    must be bit-identical to the whole-grid computation, at energies
    log-uniform from the potential's floor to above the grid's top."""
    shooter = _RadialShooter(pot, 1e-3, 0)
    rng = np.random.default_rng(len(name))
    t = rng.uniform(math.log(abs(shooter.u_end)) - 3.0, math.log(-shooter.u_min), 400)
    for energy in -np.exp(t):
        assert shooter.shoot(energy) == whole_grid_shoot(shooter, energy), energy


def test_wall_position_covariance():
    a = efimov_ladder(KAPPA_IB, wall_radius=1e-3, n_levels=3)
    b = efimov_ladder(KAPPA_IB, wall_radius=3e-3, n_levels=3)
    for ea, eb in zip(a.energies, b.energies):
        assert eb == pytest.approx(ea / 9.0, rel=1e-6)


def test_small_kappa_first_ratio():
    spec = efimov_ladder(0.41370, wall_radius=1e-3, n_levels=2)
    target = math.exp(2 * math.pi / 0.41370)
    assert len(spec.energies) == 2
    assert spec.ratios[0] == pytest.approx(target, rel=0.05)


def test_depth_exhaustion_reports_found_levels():
    # a fixed grid ending at R = 1e3 cannot support the second level of
    # the kappa = 0.41370 ladder (its turning point needs R ~ 1e4)
    pot = inverse_square_potential(0.41370, 1e-3, 1e3, CONV,
                                   points_per_decade=800)
    spec = bound_states(pot, 1e-3, 3)
    assert spec.depth_exhausted
    assert spec.exhaustion_reason == "grid"
    assert spec.n_levels == 1
    assert spec.energies[0] == pytest.approx(-0.1813593, rel=1e-4)


@pytest.mark.parametrize("kappa, n_levels", [
    (0.05, 4), (0.41370, 3), (KAPPA_IB, 12), (30.0, 12), (300.0, 4)])
def test_ladder_first_grid_holds_every_level(monkeypatch, kappa, n_levels):
    """efimov_ladder sizes one grid and solves once: its margin holds the
    topmost level's outer turning point from kappa 0.05 to 300.  At kappa
    30 and 300 the deepest levels are also checked, two at kappa 300 to
    keep its mpmath reference to about 2 s: 1,000 points per decade was
    7.2e-8 and 3.4e-7 off them."""
    calls = []
    monkeypatch.setattr(hyperradial, "bound_states",
                        lambda *a: calls.append(a) or bound_states(*a))
    spec = efimov_ladder(kappa, wall_radius=1e-3, n_levels=n_levels)
    assert len(calls) == 1
    assert spec.n_levels == n_levels and not spec.depth_exhausted
    checked = {30.0: 12, 300.0: 2}.get(kappa)
    if checked:
        assert spec.energies[:checked] == pytest.approx(
            exact_ladder(kappa, checked, 1e-3, 1.0), rel=1e-9, abs=0.0)


def test_repulsive_channel_has_no_bound_states():
    pot = AdiabaticPotential.from_s_squared(
        np.logspace(-3, 2, 20001), np.full((1, 20001), 4.0), CONV)
    spec = bound_states(pot, 1e-2, 3)
    assert spec.energies == ()
    assert not spec.depth_exhausted


def test_subcritical_attraction_has_no_bound_states():
    # real s in (0, 1/2) gives weak attraction, still no oscillation
    pot = AdiabaticPotential.from_s_squared(
        np.logspace(-3, 2, 20001), np.full((1, 20001), 0.09), CONV)
    spec = bound_states(pot, 1e-2, 2)
    assert spec.energies == ()


def _rising_channel(n):
    """s^2 rising linearly in log10 R from -2 to 2 over n points on
    [1e-3, 1e3]: attractive at the wall, repulsive at the far end."""
    return AdiabaticPotential.from_s_squared(
        np.geomspace(1e-3, 1e3, n), np.linspace(-2.0, 2.0, n)[None, :], CONV)


def test_bound_states_of_a_channel_repulsive_at_its_far_end():
    """With U(R_max) >= 0 the shallow edge is 1e-15 of the well depth: a
    10-level request returns the two levels above it, deepest first with
    0 and 1 nodes and reason "grid", and a grid four times as dense gives
    the same levels."""
    pot = _rising_channel(6001)
    assert pot.potentials[0, -1] > 0.0
    spec = bound_states(pot, pot.radii[0], 10)
    assert spec.nodes == (0, 1)
    assert spec.energies[0] < spec.energies[1] < 0.0
    assert spec.exhaustion_reason == "grid"
    dense = bound_states(_rising_channel(24001), pot.radii[0], 10)
    assert dense.nodes == spec.nodes
    assert dense.energies == pytest.approx(spec.energies, rel=1e-8, abs=0.0)


def test_bound_states_wall_validation():
    pot = inverse_square_potential(1.0, 1e-3, 1e3, CONV, points_per_decade=40)
    with pytest.raises(HyperradialError, match="10 grid spacings"):
        bound_states(pot, 2e-4, 1)


def test_bound_states_off_grid_wall_is_typed_error():
    # the wall can only sit on a grid point; a quarter step above r[0]
    # it used to move silently to r[1], shifting the levels by 8.6e-4
    pot = inverse_square_potential(1.0, 1e-3, 1e5, CONV, points_per_decade=4000)
    with pytest.raises(HyperradialError,
                       match="off the grid; the nearest grid radius is 0.001$"):
        bound_states(pot, 1e-3 * 10 ** (0.25 / 4000), 2)
    # a wall on a grid point up to round-off is that grid point
    on_grid = bound_states(pot, pot.radii[1], 2).energies
    for wall in (pot.radii[1] * (1 - 1e-12), pot.radii[1] * (1 + 1e-12)):
        assert bound_states(pot, wall, 2).energies == on_grid


def test_bound_states_nonuniform_grid_rejected():
    radii = np.concatenate([np.logspace(-3, 0, 2000), np.linspace(1.1, 5, 500)])
    s2 = np.full((1, radii.size), -1.0)
    pot = AdiabaticPotential.from_s_squared(radii, s2, CONV)
    with pytest.raises(HyperradialError, match="log-uniform"):
        bound_states(pot, 1e-1, 1)


@pytest.mark.parametrize("channel", [-1, 1])
def test_bound_states_channel_out_of_range(channel):
    pot = inverse_square_potential(1.0, 1e-3, 1e3, CONV, points_per_decade=40)
    with pytest.raises(HyperradialError, match="out of range"):
        bound_states(pot, 1e-2, 1, channel=channel)


@pytest.mark.parametrize("kwargs, match", [
    ({"wall_radius": 0.0}, "r_min"),
    # 2 m R^2 underflows at the wall, so the potential there is infinite
    ({"wall_radius": 1e-160}, "not finite"),
    # the 25 levels above 1e-290 ask for 343 decades, capped at 300: the
    # wall is refused, not an OverflowError from 10 ** decades
    ({"kappa": 0.1, "wall_radius": 1e-200, "n_levels": 100}, "not finite"),
])
def test_ladder_grid_input_is_typed_error(kwargs, match):
    with pytest.raises(HyperradialError, match=match):
        efimov_ladder(**({"kappa": 1.0} | kwargs))


@pytest.mark.parametrize("kappa, wall_radius, n_levels, n_fit", [
    (0.02, 1e-3, 12, 2), (0.05, 1e-3, 12, 5), (0.1, 1e9, 30, 9)])
def test_ladder_past_underflow_returns_the_levels_that_fit(
        kappa, wall_radius, n_levels, n_fit):
    """A ladder deeper than double precision holds (these three were
    refused, their grids sized for every requested level) returns, bit
    for bit, the n_fit levels above 1e-290, with reason "underflow"."""
    spec = efimov_ladder(kappa, wall_radius, n_levels)
    fit = efimov_ladder(kappa, wall_radius, n_fit)
    assert spec.exhaustion_reason == "underflow" and not fit.depth_exhausted
    assert spec.energies == fit.energies
    assert spec.nodes == tuple(range(n_fit))
    assert -spec.energies[-1] > 1e-290


def test_ladder_wholly_below_underflow_has_no_level():
    """At m = 1e300 the potential at the wall is -6e-295, so no level lies
    above 1e-290: none, with reason "underflow"."""
    spec = efimov_ladder(1.0, 1e-3, 2, PhysicalConvention(1e300))
    assert spec.energies == () and spec.exhaustion_reason == "underflow"


def test_bound_states_clamps_the_shallow_end_at_underflow():
    """A grid whose outer potential is below 1e-290 still gives the levels
    above it (it once gave none), then reports "underflow"."""
    pot = inverse_square_potential(KAPPA_IB, 1e-3, 1e149, CONV,
                                   points_per_decade=400)
    assert -100.0 * pot.potentials[0, -1] < 1e-290
    spec = bound_states(pot, 1e-3, 200)
    assert spec.exhaustion_reason == "underflow"
    assert spec.n_levels > 100 and -spec.energies[-1] > 1e-290


def test_inverse_square_grid_needs_points_per_decade():
    with pytest.raises(HyperradialError, match="points_per_decade"):
        inverse_square_potential(1.0, 1e-3, 1e3, CONV, points_per_decade=0)


@pytest.mark.parametrize("radii", [[1e-300, 1e-299], [1e-160, 1e-159],
                                   [1e160, 1e161], [1.0, math.inf]])
def test_non_finite_potential_is_refused(radii):
    """A grid whose R^2 or U leaves double precision (r0 = 1e-300 makes
    U = -inf, r0 = 1e-160 overflows U, R = 1e160 overflows R^2) is refused
    without a RuntimeWarning, not shot at."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HyperradialError, match="not finite"):
            AdiabaticPotential.from_s_squared(radii, [[-1.0, -1.0]], CONV)


def test_overflowing_grid_end_is_refused():
    """r_max = inf is a HyperradialError, not math.ceil's OverflowError.
    (efimov_ladder no longer asks for it: kappa 0.1, 30 levels and
    r0 = 1e9 now return the 9 levels that fit.)"""
    with pytest.raises(HyperradialError, match="both finite"):
        inverse_square_potential(0.1, 1e9, math.inf, CONV)


def _rootless_radius_table():
    # every curve lies above kappa_max
    return radius_sweep(0.0, 1.0, 1e6, "closed", [1.0, 2.0, 4.0],
                        kappa_max=0.1)


_POT = inverse_square_potential(1.0, 1e-3, 1e3, CONV, points_per_decade=100)


@pytest.mark.parametrize("call, message", [
    (lambda: AdiabaticPotential.from_s_squared([2.0, 1.0], [[-1.0, -1.0]],
                                               CONV),
     "radii must be positive and ascending"),
    (lambda: AdiabaticPotential.from_s_squared([1.0, 2.0, 3.0], [[-1.0, -1.0]],
                                               CONV),
     "s_squared rows must match the R grid"),
    (lambda: potential(theta_sweep([0.0, 0.1], "closed", "unitary", "closed"),
                       CONV),
     "potential() needs a radius sweep table"),
    (lambda: potential(_rootless_radius_table(), CONV),
     "no root curve spans the full R grid"),
    (lambda: inverse_square_potential(0.0, 1e-3, 1.0, CONV),
     "kappa must be positive"),
    (lambda: efimov_ladder(-1.0), "kappa must be positive"),
    (lambda: bound_states(_POT, float(_POT.radii[-50]), 1),
     "wall radius leaves too little grid"),
    (lambda: bound_states(_POT, 1e-3, 0), "n_levels must be positive"),
])
def test_hyperradial_refusal_is_typed(call, message):
    with pytest.raises(HyperradialError) as err:
        call()
    assert str(err.value) == message
