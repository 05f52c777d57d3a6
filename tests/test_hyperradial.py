import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from spinor_efimov.hyperangular import ChannelMatrixSpec, find_roots_imaginary, radius_sweep
from spinor_efimov.hyperradial import (
    AdiabaticPotential,
    HyperradialError,
    LadderSpectrum,
    PhysicalConvention,
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


def bessel_k_imag_order(kappa, z):
    """K_{i kappa}(z) by quadrature; real for real z > 0.  Independent
    oracle for the hard-wall ladder: levels satisfy
    K_{i kappa}(sqrt(2 m |E|) r0) = 0."""
    tmax = math.log(60.0 / z) + 5.0
    with warnings.catch_warnings():
        # near a zero of K the relative target is unreachable; the
        # absolute accuracy is what the bracketing below needs
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda t: math.exp(-z * math.cosh(t)) * math.cos(kappa * t),
                      0.0, tmax, limit=400, epsabs=1e-15, epsrel=1e-13)
    return val


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
    short = radius_sweep(math.pi / 2, 0.5, 1e7, "closed",
                         np.logspace(-2, 5, 36))
    counts: dict[int, int] = {}
    for row in short.rows:
        for cid, _ in row.expanded():
            counts[cid] = counts.get(cid, 0) + 1
    partial = [cid for cid, c in counts.items() if c < len(short.rows)]
    assert partial, "expected at least one short-lived curve in this sweep"
    with pytest.raises(HyperradialError, match="gap over R"):
        potential(short, CONV, curve_ids=[partial[0]])


def test_dimer_limit_potential():
    # single channel, R/a = 100: U must land within 1% of -1/(m a^2)
    a = 1.0
    spec = ChannelMatrixSpec.single_level(a, "finite", hyperradius=100.0 * a)
    root = find_roots_imaginary(spec)[0]
    pot = AdiabaticPotential.from_s_squared([100.0 * a], [[root.s_squared]], CONV)
    dimer = -1.0 / (CONV.mass * a ** 2)
    assert pot.potentials[0, 0] == pytest.approx(dimer, rel=1e-2)
    assert pot.potentials[0, 0] == pytest.approx(dimer * (1 + a ** 2 / (8 * 100.0 ** 2)),
                                                 rel=1e-9)


def test_convention_requires_equal_masses():
    with pytest.raises(HyperradialError):
        PhysicalConvention(mass=-1.0)


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_numerov_sweep_matches_loop(n):
    # n = 2..5 exercise the unused corners of the band storage
    rng = np.random.default_rng(n)
    q = rng.uniform(-30.0, 30.0, n)
    h, y0, y1 = 0.05, rng.normal(), rng.normal()
    y = _numerov_sweep(q, h, y0, y1)
    ref = _numerov_loop(q, h, y0, y1)
    assert y.shape == (n,)
    assert y == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_numerov_sweep_singular_step_is_typed_error():
    # h^2 q / 12 = 1 makes p, the diagonal of the system, vanish there
    with pytest.raises(HyperradialError, match="grid point 2"):
        _numerov_sweep(np.array([0.0, 0.0, 12.0, 0.0]), 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------

#: ladder energies and node counts of the solver with pivoted banded
#: Numerov sweeps and pure bisection refinement; the faster solver must
#: stay within a few of its 1e-9 level tolerances of them
PINNED_LADDERS = [
    (1.00624, 4, 2e-9, (-2137.0103694467653, -4.14491452493179,
                        -0.008047922828851369, -1.5626183456584518e-05)),
    # a pivoted banded LU swaps rows on this system (|12 - 10 p| ~ 2 > p ~ 1),
    # which moves these levels by up to 7e-9 against forward substitution
    (0.41370, 3, 1e-8, (-0.18135931948825318, -4.598010933710405e-08,
                        -1.1657359259396433e-14)),
]


@pytest.mark.parametrize("kappa, n_levels, rel, energies", PINNED_LADDERS)
def test_ladder_pinned_to_reference_solver(kappa, n_levels, rel, energies):
    spec = efimov_ladder(kappa, wall_radius=1e-3, n_levels=n_levels)
    assert spec.nodes == tuple(range(n_levels))
    assert spec.energies == pytest.approx(energies, rel=rel, abs=0.0)
    assert all(type(e) is float for e in spec.energies + spec.ratios)


@pytest.mark.parametrize("kappa, n_levels, max_shots", [
    (1.00624, 4, 80),  # 152 with bisection refinement and repeated shoots
    (0.41370, 3, 60),  # 117
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


def test_ladder_against_bessel_zero_oracle(ladder_ib):
    r0 = ladder_ib.wall_radius
    for e_solver in ladder_ib.energies[1:3]:
        z_solver = math.sqrt(2.0 * abs(e_solver)) * r0
        z_oracle = brentq(lambda z: bessel_k_imag_order(KAPPA_IB, z),
                          0.8 * z_solver, 1.25 * z_solver, xtol=1e-16)
        e_oracle = -z_oracle ** 2 / (2.0 * r0 ** 2)
        assert e_solver == pytest.approx(e_oracle, rel=1e-6)


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


def test_bound_states_wall_validation():
    pot = inverse_square_potential(1.0, 1e-3, 1e3, CONV, points_per_decade=40)
    with pytest.raises(HyperradialError, match="10 grid spacings"):
        bound_states(pot, 2e-4, 1)


def test_bound_states_nonuniform_grid_rejected():
    radii = np.concatenate([np.logspace(-3, 0, 2000), np.linspace(1.1, 5, 500)])
    s2 = np.full((1, radii.size), -1.0)
    pot = AdiabaticPotential.from_s_squared(radii, s2, CONV)
    with pytest.raises(HyperradialError, match="log-uniform"):
        bound_states(pot, 1e-1, 1)
