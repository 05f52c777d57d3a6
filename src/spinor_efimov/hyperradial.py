"""Adiabatic potentials and the hyperradial bound-state ladder.

Channel exponents become potentials through

    U_nu(R) = (s_nu(R)^2 - 1/4) / (2 mu_h R^2),   s^2 = -kappa^2 on
                                                  imaginary-axis segments,

and a single attractive channel is then solved for its trimer ladder.
The convention fixed here is mu_h = m (see PhysicalConvention): together
with the sqrt(2) R/a diagonal of the channel matrix this lands the dimer
threshold at -1/(m a^2), and every reported observable (kappa values,
energy ratios, scaling factors) is convention independent.

The radial equation is integrated on a log grid.  With x = ln R and
F = e^{x/2} g(x), the equation -(1/2 mu) F'' + U F = E F becomes

    g'' = [1/4 + 2 mu R^2 (U - E)] g,

which Numerov handles at fourth order with a uniform x step.  The
outward and inward sweeps are each one compiled forward substitution
(LAPACK dtbtrs on the lower-triangular three-term recurrence), matched
through the discrete Wronskian at the outer turning point.  Each level
is bracketed by node-count bisection on ln|E| and then refined by
Illinois regula falsi on the matching defect.

scipy is imported only when a ladder is solved: _numerov_sweep loads
dtbtrs on its first call, so importing this module (and the CLI) does not
load scipy.  The module-level __getattr__ below keeps the old name
`solve_banded` resolvable for perfbench/tracing.py, which patches it by
name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperangular import SweepTable

#: WKB growth budget past the outer turning point; beyond it the solution
#: is sign-frozen and node-free, so integration can stop
_GROWTH_CUTOFF = 40.0
#: relative energy tolerance of a converged level
_E_RTOL = 1e-9
#: bisection window (in ln|E|) below which Illinois refinement takes over
_COUNT_WINDOW = 1e-3


class HyperradialError(ValueError):
    pass


def __getattr__(name):
    # delete once perfbench/tracing.py wraps _numerov_sweep (ROADMAP item 1)
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PhysicalConvention:
    """Mass bookkeeping.  One mass, default one, serves as both the atomic
    and the hyperradial mass: the dimer threshold -1/(m a^2) pins that
    pairing with the sqrt(2) R/a channel-matrix term."""

    mass: float = 1.0

    def __post_init__(self):
        if self.mass <= 0:
            raise HyperradialError("mass must be positive")


@dataclass(frozen=True)
class AdiabaticPotential:
    """Per-channel potentials on a log-spaced R grid.

    s_squared keeps the signed square of the channel exponent, so
    U * 2 mu R^2 + 1/4 == s_squared holds identically on the grid.
    """

    radii: np.ndarray        # (n_R,)
    s_squared: np.ndarray    # (n_curves, n_R)
    potentials: np.ndarray   # (n_curves, n_R)
    convention: PhysicalConvention

    @staticmethod
    def from_s_squared(radii, s_squared,
                       convention: PhysicalConvention) -> "AdiabaticPotential":
        r = np.asarray(radii, dtype=float)
        s2 = np.atleast_2d(np.asarray(s_squared, dtype=float))
        if r.ndim != 1 or np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise HyperradialError("radii must be positive and ascending")
        if s2.shape[1] != r.size:
            raise HyperradialError("s_squared rows must match the R grid")
        mu = convention.mass
        u = (s2 - 0.25) / (2.0 * mu * r ** 2)
        return AdiabaticPotential(r, s2, u, convention)

    @property
    def n_curves(self) -> int:
        return self.potentials.shape[0]


def potential(table: SweepTable, convention: PhysicalConvention,
              curve_ids=None) -> AdiabaticPotential:
    """Adiabatic potentials of the matched root curves of a radius sweep.

    Every requested curve must be defined at every grid radius; a gap is
    a hard error naming the missing R interval.
    """
    if table.kind != "radius":
        raise HyperradialError("potential() needs a radius sweep table")
    radii = np.array([row.hyperradius for row in table.rows], dtype=float)

    per_curve: dict[int, dict[int, float]] = {}
    for irow, row in enumerate(table.rows):
        for cid, root in row.expanded():
            per_curve.setdefault(cid, {})[irow] = root.s_squared
    if curve_ids is None:
        curve_ids = sorted(cid for cid, pts in per_curve.items()
                           if len(pts) == len(radii))
        if not curve_ids:
            raise HyperradialError("no root curve spans the full R grid")
    rows = []
    for cid in curve_ids:
        pts = per_curve.get(cid, {})
        missing = [i for i in range(len(radii)) if i not in pts]
        if missing:
            lo, hi = radii[missing[0]], radii[missing[-1]]
            raise HyperradialError(
                f"root curve {cid} has a gap over R in [{lo:.6g}, {hi:.6g}]")
        rows.append([pts[i] for i in range(len(radii))])
    return AdiabaticPotential.from_s_squared(radii, np.array(rows), convention)


def inverse_square_potential(kappa: float, r_min: float, r_max: float,
                             convention: PhysicalConvention,
                             points_per_decade: int = 4000) -> AdiabaticPotential:
    """Scale-free attractive channel with constant imaginary exponent:
    U = -(kappa^2 + 1/4) / (2 mu R^2)."""
    if kappa <= 0:
        raise HyperradialError("kappa must be positive")
    if not 0.0 < r_min < r_max:
        raise HyperradialError("need 0 < r_min < r_max")
    if points_per_decade < 1:
        raise HyperradialError("points_per_decade must be at least 1")
    decades = math.log10(r_max / r_min)
    n = int(math.ceil(decades * points_per_decade)) + 1
    radii = r_min * 10.0 ** np.linspace(0.0, decades, n)
    s2 = np.full((1, n), -kappa * kappa)
    return AdiabaticPotential.from_s_squared(radii, s2, convention)


def scaling_factor(kappa: float) -> float:
    """Geometric size ratio e^(pi/kappa) between successive ladder states."""
    if not kappa > 0:
        raise HyperradialError(f"kappa must be positive, got {kappa!r}")
    return math.exp(math.pi / kappa)


@dataclass(frozen=True)
class LadderSpectrum:
    """Bound levels of one attractive channel, deepest first."""

    wall_radius: float
    energies: tuple[float, ...]          # E_n < 0, descending |E|
    nodes: tuple[int, ...]
    exhaustion_reason: str | None = None

    @property
    def n_levels(self) -> int:
        return len(self.energies)

    @property
    def ratios(self) -> tuple[float, ...]:
        """E_n / E_{n+1} for each pair of successive levels."""
        return tuple(a / b for a, b in zip(self.energies, self.energies[1:]))

    @property
    def depth_exhausted(self) -> bool:
        return self.exhaustion_reason is not None


def _numerov_sweep(q: np.ndarray, h: float, y0: float, y1: float) -> np.ndarray:
    """Solve y'' = q y along the grid given two seed values.

    The Numerov recurrence p[i+1] y[i+1] = (12 - 10 p[i]) y[i] - p[i-1] y[i-1]
    with p = 1 - h^2 q / 12 is written as a lower-triangular banded system
    and solved by compiled forward substitution.
    """
    from scipy.linalg.lapack import dtbtrs  # the only scipy use; see module doc

    n = q.size
    y = np.empty(n)
    y[0], y[1] = y0, y1
    if n <= 2:
        return y
    p = 1.0 - (h * h / 12.0) * q
    m = n - 2
    ab = np.empty((3, m))
    ab[0] = p[2:]
    ab[1] = -(12.0 - 10.0 * p[2:])
    ab[2] = p[2:]
    rhs = np.zeros(m)
    rhs[0] = (12.0 - 10.0 * p[1]) * y1 - p[0] * y0
    if m > 1:
        rhs[1] = -p[1] * y1
    y[2:], info = dtbtrs(ab, rhs, uplo="L")
    if info != 0:  # the diagonal p of that row vanishes
        raise HyperradialError(
            f"Numerov step is singular (h^2 q = 12) at grid point {info + 1}")
    return y


def _count_nodes(y: np.ndarray) -> int:
    s = np.sign(y)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


class _RadialShooter:
    """Outward/inward Numerov machinery for one channel on a log grid."""

    def __init__(self, pot: AdiabaticPotential, wall_radius: float,
                 channel: int):
        if not 0 <= channel < pot.n_curves:
            raise HyperradialError(
                f"channel {channel} out of range for {pot.n_curves} curve(s)")
        r = pot.radii
        x = np.log(r)
        dx = np.diff(x)
        h = float(dx[0])
        if np.max(np.abs(dx - h)) > 1e-8 * h:
            raise HyperradialError("bound_states needs a log-uniform R grid")
        if wall_radius < 10.0 * (r[1] - r[0]):
            raise HyperradialError(
                "wall radius must be at least 10 grid spacings; refine the "
                "grid or move the wall out")
        i0 = int(np.searchsorted(r, wall_radius))
        if i0 > r.size - 100:
            raise HyperradialError("wall radius leaves too little grid")
        self.h = h
        self.radii = r[i0:]
        self.u = pot.potentials[channel, i0:]
        mu = pot.convention.mass
        self.two_mu_r2 = 2.0 * mu * self.radii ** 2
        self.w = self.two_mu_r2 * self.u  # 2 mu R^2 U, equals s^2 - 1/4
        self.u_min = float(np.min(self.u))
        self.u_end = float(self.u[-1])

    def q_of(self, energy: float) -> np.ndarray:
        return 0.25 + self.w - energy * self.two_mu_r2

    def shoot(self, energy: float) -> tuple[int, float]:
        """Node count and discrete-Wronskian matching defect at E < 0."""
        q = self.q_of(energy)
        neg = np.nonzero(q < 0.0)[0]
        if neg.size == 0:
            return 0, 1.0  # no classically allowed region
        it = int(neg[-1])
        it = min(max(it, 1), q.size - 3)
        # truncate the forbidden tail once the WKB growth budget is spent
        growth = np.cumsum(np.sqrt(np.maximum(q[it:], 0.0))) * self.h
        extra = int(np.searchsorted(growth, _GROWTH_CUTOFF))
        stop = min(it + max(extra, 2), q.size - 1)

        y_out = _numerov_sweep(q[: stop + 1], self.h, 0.0, 1.0)
        nodes = _count_nodes(y_out[1:])

        y_in = _numerov_sweep(q[it: stop + 1][::-1], self.h, 0.0, 1.0)[::-1]
        p = 1.0 - (self.h * self.h / 12.0) * q
        po, pi_ = p[it] * y_out[it], p[it] * y_in[it - it]
        po1 = p[it + 1] * y_out[it + 1]
        pi1 = p[it + 1] * y_in[it + 1 - it]
        scale = max(abs(po), abs(po1)) * max(abs(pi_), abs(pi1))
        wron = po * pi1 - po1 * pi_
        return nodes, float(wron / scale if scale > 0 else wron)


def bound_states(pot: AdiabaticPotential, wall_radius: float, n_levels: int,
                 channel: int = 0) -> LadderSpectrum:
    """Bound levels of one channel with F(wall_radius) = 0 and a decaying
    outer boundary, by outward/inward Numerov shooting: node-count
    bisection to a _COUNT_WINDOW bracket in ln|E|, then Illinois regula
    falsi on the matching defect to relative energy tolerance _E_RTOL
    (1e-9).  No energy is shot twice.

    Returns the levels the grid and double precision can support; when the
    requested count runs past that, the found levels come back with
    exhaustion_reason set.
    """
    if n_levels < 1:
        raise HyperradialError("n_levels must be positive")
    shooter = _RadialShooter(pot, wall_radius, channel)
    if shooter.u_min >= 0.0:
        return LadderSpectrum(wall_radius, (), ())

    # grid validity edge: a level shallower than 100 |U(R_max)| has its
    # turning point too close to the grid boundary to trust
    if shooter.u_end < 0.0:
        e_top = 100.0 * shooter.u_end
    else:
        e_top = shooter.u_min * 1e-15
    e_floor = shooter.u_min
    if e_top <= e_floor:
        return LadderSpectrum(wall_radius, (), (), "grid")

    t_deep = math.log(-e_floor)
    t_top = math.log(-e_top)
    # shot at -exp(t_top), so it is also the shallow end of each window
    top = shooter.shoot(-math.exp(t_top))

    energies: list[float] = []
    nodes_out: list[int] = []
    exhausted = None
    for n in range(n_levels):
        if top[0] <= n:
            exhausted = "grid"
            break
        if -e_floor < 1e-290 or -e_top < 1e-290:
            exhausted = "underflow"
            break
        # phase 1: bisect ln|E| on the node count jumping n -> n+1, keeping
        # the (count, defect) shots at the window ends for phase 2
        lo, hi = t_top, t_deep  # lo is shallow (count > n), hi is deep
        shallow, deep = top, None
        while hi - lo > _COUNT_WINDOW:
            mid = 0.5 * (lo + hi)
            shot = shooter.shoot(-math.exp(mid))
            if shot[0] >= n + 1:
                lo, shallow = mid, shot
            else:
                hi, deep = mid, shot
        # phase 2: Illinois regula falsi on the matching defect inside the
        # node window (Dowell and Jarratt, BIT 11, 1971): the secant point
        # of the bracket, with the defect of an end kept twice in a row
        # halved so that both ends close in
        ea, eb = -math.exp(hi), -math.exp(lo)  # ea deep side, eb shallow
        # the level's node count is read at the window's deep end: a secant
        # point can land within round-off of the level, where round-off
        # decides whether the outward solution's diverging tail has a node
        nodes, fa = deep or shooter.shoot(ea)
        fb = shallow[1]
        if (fa < 0) != (fb < 0):
            kept = 0  # -1: ea was kept by the last step, +1: eb was
            while (eb - ea) > _E_RTOL * abs(ea):
                em = eb - fb * (eb - ea) / (fb - fa)
                if not ea < em < eb:
                    em = 0.5 * (ea + eb)
                _, fm = shooter.shoot(em)
                if fm == 0.0:
                    ea = eb = em
                elif (fa < 0) != (fm < 0):
                    eb, fb = em, fm
                    if kept < 0:
                        fa *= 0.5
                    kept = -1
                else:
                    ea, fa = em, fm
                    if kept > 0:
                        fb *= 0.5
                    kept = 1
        else:
            # fall back to pure node-count bisection at full resolution
            tlo, thi = lo, hi
            while thi - tlo > _E_RTOL:
                tm = 0.5 * (tlo + thi)
                cnt, _ = shooter.shoot(-math.exp(tm))
                if cnt >= n + 1:
                    tlo = tm
                else:
                    thi = tm
            ea, eb = -math.exp(tlo), -math.exp(thi)
        level = 0.5 * (ea + eb)
        energies.append(level)
        nodes_out.append(nodes)
        t_deep = math.log(-level) - 1e-12  # next level is shallower

    return LadderSpectrum(wall_radius, tuple(energies), tuple(nodes_out),
                          exhausted)


def efimov_ladder(kappa: float, wall_radius: float = 1e-3, n_levels: int = 4,
                  convention: PhysicalConvention = PhysicalConvention(),
                  points_per_decade: int = 4000) -> LadderSpectrum:
    """Ladder of the pure unitary channel U = -(kappa^2 + 1/4)/(2 mu R^2)
    regularized by a hard wall, on an automatically sized grid.

    The n-th level sits a factor e^(2 pi/kappa) above the last, so the
    grid spans roughly n pi / (kappa ln 10) decades plus margin; the grid
    is extended and the solve repeated if the estimate falls short.
    """
    if kappa <= 0:
        raise HyperradialError("kappa must be positive")
    decades = 1.2 + n_levels * math.pi / (kappa * math.log(10.0)) + math.log10(12.0)
    for _ in range(3):
        n_points = decades * points_per_decade
        if n_points > 1.2e6:
            decades = 1.2e6 / points_per_decade
        pot = inverse_square_potential(
            kappa, wall_radius, wall_radius * 10.0 ** decades, convention,
            points_per_decade)
        spectrum = bound_states(pot, wall_radius, n_levels)
        if spectrum.n_levels == n_levels or spectrum.exhaustion_reason != "grid":
            return spectrum
        if n_points >= 1.2e6:
            return spectrum
        decades += 2.0
    return spectrum
