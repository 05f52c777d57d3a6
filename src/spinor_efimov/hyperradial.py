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
is bracketed on ln|E| by its node count and then refined on the matching
defect by hyperangular._refine, the safeguarded Illinois regula falsi
that also refines every channel root.  The deepest level is probed first
at a zero of K_{i kappa}, each level above it where discrete scale
invariance, E_{n+1} = E_n exp(-2 pi/kappa), puts it.

scipy is imported only when a ladder is solved: _numerov_sweep loads
dtbtrs on its first call, so importing this module (and the CLI) does not
load scipy.  The module-level __getattr__ below keeps the old name
`solve_banded` resolvable for perfbench/tracing.py, which patches it by
name.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hyperangular import SweepTable, _refine

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
        if not 0.0 < self.mass < math.inf:
            raise HyperradialError(
                f"mass must be positive and finite, got {self.mass!r}")


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
        with np.errstate(all="ignore"):  # 2 mu R^2 and U must be finite
            two_mu_r2 = 2.0 * convention.mass * r ** 2
            u = (s2 - 0.25) / two_mu_r2
        if not (np.isfinite(two_mu_r2).all() and np.isfinite(u).all()):
            raise HyperradialError(
                f"the potential on R in [{r[0]:.6g}, {r[-1]:.6g}] is not "
                "finite in double precision; move the grid or the wall")
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
    if not 0.0 < r_min < r_max < math.inf:
        raise HyperradialError(
            f"need 0 < r_min < r_max, both finite; got [{r_min:g}, {r_max:g}]")
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
    # filled row by row and passed transposed, so dtbtrs gets the
    # Fortran-ordered (3, m) band storage it needs without a copy
    ab = np.empty((m, 3))
    ab[:, 0] = p[2:]
    ab[:, 1] = 10.0 * p[2:] - 12.0
    ab[:, 2] = p[2:]
    rhs = np.zeros(m)
    rhs[0] = (12.0 - 10.0 * p[1]) * y1 - p[0] * y0
    if m > 1:
        rhs[1] = -p[1] * y1
    y[2:], info = dtbtrs(ab.T, rhs, uplo="L")
    if info != 0:  # the diagonal p of that row vanishes
        raise HyperradialError(
            f"Numerov step is singular (h^2 q = 12) at grid point {info + 1}")
    return y


def _count_nodes(y: np.ndarray) -> int:
    s = np.sign(y)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


def _arg_gamma(kappa: float) -> float:
    """Im ln Gamma(1 + i kappa): the recurrence up to Gamma(16 + i kappa),
    then the Stirling series (first omitted term below 3e-12 there)."""
    z = complex(16.0, kappa)
    series = ((z - 0.5) * cmath.log(z) - z + 1.0 / (12.0 * z)
              - 1.0 / (360.0 * z ** 3) + 1.0 / (1260.0 * z ** 5))
    return series.imag - sum(math.atan2(kappa, k) for k in range(1, 16))


def _deepest_level(kappa: float, two_mu_r2: float) -> float:
    """ln|E| = 2 ln z - ln(2 mu R0^2) of the deepest hard-wall level of a
    scale-free channel, at the largest zero z < kappa of K_{i kappa}: of its
    small-z form (DLMF 10.45.7), plus the O(z^2) term's shift of ln z.  In
    ln z, since z underflows at small kappa."""
    phase = _arg_gamma(kappa)
    n = math.floor((phase - kappa * math.log(0.5 * kappa)) / math.pi) + 1
    ln_z = math.log(2.0) + (phase - n * math.pi) / kappa
    ln_z += math.exp(2.0 * ln_z) / (4.0 * (1.0 + kappa * kappa))
    return 2.0 * ln_z - math.log(two_mu_r2)


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
        x_wall = math.log(wall_radius)
        if i0 > 0 and x_wall - x[i0 - 1] < x[i0] - x_wall:
            i0 -= 1  # the grid point below is the nearer one
        if abs(x_wall - x[i0]) > 1e-6 * h:
            raise HyperradialError(
                f"wall radius {wall_radius:.9g} is off the grid; the nearest "
                f"grid radius is {r[i0]:.9g}")
        self.h = h
        u = pot.potentials[channel, i0:]
        self.two_mu_r2 = 2.0 * pot.convention.mass * r[i0:] ** 2
        self.s2 = 0.25 + self.two_mu_r2 * u  # q = s2 - E 2 mu R^2
        # suffix minimum of v = s2 / (2 mu R^2); q < 0 exactly where v < E
        self.v_floor = np.minimum.accumulate(
            (self.s2 / self.two_mu_r2)[::-1])[::-1]
        self.u_min = float(np.min(u))
        self.u_end = float(u[-1])

    def turning_point(self, energy: float) -> int:
        """Index of the outermost grid point with q < 0, or -1: where
        v_floor crosses E, within a margin far above round-off."""
        lo, hi = np.searchsorted(self.v_floor,
                                 [energy * (1 + 1e-9), energy * (1 - 1e-9)])
        lo = max(int(lo) - 1, 0)
        neg = np.nonzero(self.s2[lo:hi] < energy * self.two_mu_r2[lo:hi])[0]
        return lo + int(neg[-1]) if neg.size else -1

    def shoot(self, energy: float) -> tuple[int, float]:
        """Node count and discrete-Wronskian matching defect at E < 0."""
        it = self.turning_point(energy)
        if it < 0:
            return 0, 1.0  # no classically allowed region
        n = self.s2.size
        it = min(max(it, 1), n - 3)
        # truncate the forbidden tail once the WKB growth budget is spent;
        # the first window (two decades at 4,000 points per decade) holds
        # that budget for a scale-free channel down to kappa = 0.41
        for end in (it + 8192, it + 32768, n):
            q = self.s2[it:end] - energy * self.two_mu_r2[it:end]
            growth = np.cumsum(np.sqrt(np.maximum(q, 0.0))) * self.h
            extra = int(np.searchsorted(growth, _GROWTH_CUTOFF))
            if extra < growth.size or end >= n:
                break
        stop = min(it + max(extra, 2), n - 1)
        q = self.s2[: stop + 1] - energy * self.two_mu_r2[: stop + 1]

        y_out = _numerov_sweep(q, self.h, 0.0, 1.0)
        nodes = _count_nodes(y_out[1:])

        y_in = _numerov_sweep(q[it:][::-1], self.h, 0.0, 1.0)[::-1]
        p0, p1 = 1.0 - (self.h * self.h / 12.0) * q[it: it + 2]
        po, pi_ = p0 * y_out[it], p0 * y_in[0]
        po1, pi1 = p1 * y_out[it + 1], p1 * y_in[1]
        scale = max(abs(po), abs(po1)) * max(abs(pi_), abs(pi1))
        wron = po * pi1 - po1 * pi_
        return nodes, float(wron / scale if scale > 0 else wron)


def bound_states(pot: AdiabaticPotential, wall_radius: float, n_levels: int,
                 channel: int = 0) -> LadderSpectrum:
    """Bound levels of one channel with F(wall_radius) = 0 and a decaying
    outer boundary, by outward/inward Numerov shooting: a node-count
    bracket of width _COUNT_WINDOW in ln|E|, then the shared Illinois
    regula falsi (hyperangular._refine) on the matching defect to relative
    energy tolerance _E_RTOL (1e-9).  Each level is probed first at
    guess +- _COUNT_WINDOW/2, widened fourfold while it misses: the deepest
    at _deepest_level with kappa read at the wall, each above it at
    ln|E_prev| - 2 pi/kappa with kappa the mean of its readings at the
    outer turning points of E_prev and of that guess.  Where s^2 >= 0 at
    the wall or E_prev's turning point, the level is bisected instead.  No
    energy is shot twice.

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
    # turning point too close to the grid boundary to trust; one shallower
    # than 1e-290 loses its digits to underflow
    if shooter.u_end < 0.0:
        e_top = 100.0 * shooter.u_end
    else:
        e_top = shooter.u_min * 1e-15
    short = "underflow" if -e_top < 1e-290 else "grid"
    e_top = min(e_top, -1e-290)
    e_floor = shooter.u_min
    if e_top <= e_floor:
        return LadderSpectrum(wall_radius, (), (), short)

    t_deep = math.log(-e_floor)
    t_top = math.log(-e_top)
    # shot at -exp(t_top), so it is also the shallow end of each window
    top = shooter.shoot(-math.exp(t_top))

    def narrow(lo, hi, shallow, deep, guess, half, width):
        """Narrow the ln|E| bracket (lo, hi] of the node count jumping
        n -> n+1 (lo shallow) to width, with the (count, defect) shots at
        its ends: each shot probes an end of the window guess +- half
        inside it; a window that covers it is bisected (always, for
        half = inf), one that missed the level is widened."""
        while hi - lo > width:
            if lo < guess - half < hi:
                mid = guess - half
            elif lo < guess + half < hi:
                mid = guess + half
            elif guess - half <= lo and hi <= guess + half:
                mid = 0.5 * (lo + hi)
            else:
                half *= 4.0
                continue
            shot = shooter.shoot(-math.exp(mid))
            if shot[0] >= n + 1:
                lo, shallow = mid, shot
            else:
                hi, deep = mid, shot
        return lo, hi, shallow, deep

    def kappa_at(energy):
        """sqrt(-s^2) at the outer turning point of energy (at the wall for
        None); 0 where s^2 >= 0 there or nothing is classically allowed"""
        i = 0 if energy is None else shooter.turning_point(energy)
        return math.sqrt(max(-shooter.s2[i], 0.0)) if i >= 0 else 0.0

    energies: list[float] = []
    nodes_out: list[int] = []
    exhausted = None
    for n in range(n_levels):
        if top[0] <= n:
            exhausted = short
            break
        # the guesses of the docstring, 4 pi / (kappa + kappa_2) being
        # 2 pi over the mean reading; exact above the deepest level for a
        # scale-free channel
        guess, kappa = 0.0, kappa_at(energies[-1] if energies else None)
        if kappa and energies:
            t_prev = math.log(-energies[-1])
            kappa_2 = kappa_at(-math.exp(t_prev - 2.0 * math.pi / kappa))
            guess = t_prev - 4.0 * math.pi / (kappa + (kappa_2 or kappa))
        elif kappa:
            guess = _deepest_level(kappa, shooter.two_mu_r2[0])
        half = 0.5 * _COUNT_WINDOW if kappa else math.inf
        # phase 1: a _COUNT_WINDOW bracket, its end shots kept for phase 2
        lo, hi, shallow, deep = narrow(t_top, t_deep, top, None, guess, half,
                                       _COUNT_WINDOW)
        ea, eb = -math.exp(hi), -math.exp(lo)  # ea deep side, eb shallow
        # the level's node count is read at the window's deep end: a
        # refinement point can land within round-off of the level, where
        # round-off decides whether the outward solution's diverging tail
        # has a node
        nodes, fa = deep or shooter.shoot(ea)
        fb = shallow[1]
        if (fa < 0) != (fb < 0):
            # phase 2: the package's Illinois regula falsi on the matching
            # defect inside the node window
            level = float(_refine(
                lambda idx, e: np.array([shooter.shoot(float(e[0]))[1]]),
                np.array([ea]), np.array([eb]), np.array([fa]),
                np.array([fb]), np.array([_E_RTOL * -ea]))[0])
        else:
            # fall back to pure node-count bisection at full resolution
            lo, hi, _, _ = narrow(lo, hi, shallow, deep, guess, math.inf,
                                  _E_RTOL)
            level = 0.5 * (-math.exp(hi) - math.exp(lo))
        energies.append(level)
        nodes_out.append(nodes)
        t_deep = math.log(-level) - 1e-12  # next level is shallower

    return LadderSpectrum(wall_radius, tuple(energies), tuple(nodes_out),
                          exhausted)


def efimov_ladder(kappa: float, wall_radius: float = 1e-3, n_levels: int = 4,
                  convention: PhysicalConvention = PhysicalConvention()
                  ) -> LadderSpectrum:
    """Ladder of the pure unitary channel U = -(kappa^2 + 1/4)/(2 mu R^2)
    regularized by a hard wall, on an automatically sized grid of 4,000
    points per decade.

    The n-th level sits a factor e^(2 pi/kappa) above the last, so the
    grid spans n pi / (kappa ln 10) decades plus a margin that holds the
    topmost level's outer turning point.  bound_states drops levels
    shallower than 1e-290, so n stops at the count n_fit of levels above
    that (from _deepest_level: 109 at kappa = 1.00624 and 44 at 0.41370
    for wall_radius = 1e-3 and m = 1), and the grid's far end keeps
    2 m R^2, and with it the potential, finite (below about
    max(1, kappa^2) 1e295).  A request past n_fit returns those levels,
    with exhaustion_reason "underflow".  The grid is capped at 300
    decades, so 10^decades stays finite; levels past its end come back
    with exhaustion_reason "grid".
    """
    if not kappa > 0:
        raise HyperradialError("kappa must be positive")
    if not 0.0 < wall_radius < math.inf:
        raise HyperradialError(
            f"need 0 < r_min = wall_radius < inf; got {wall_radius:g}")
    ln_two_mu_r2 = math.log(2.0 * convention.mass) + 2.0 * math.log(
        wall_radius)
    n_fit = max(0, 1 + math.floor((_deepest_level(kappa, 1.0) - ln_two_mu_r2
                                   + 290.0 * math.log(10.0))
                                  * kappa / (2.0 * math.pi)))
    decades = min(300.0, 1.2 + min(n_levels, n_fit) * math.pi
                  / (kappa * math.log(10.0)) + math.log10(12.0))
    pot = inverse_square_potential(
        kappa, wall_radius, wall_radius * 10.0 ** decades, convention)
    spectrum = bound_states(pot, wall_radius, n_levels)
    if n_levels > n_fit and spectrum.depth_exhausted:
        return LadderSpectrum(wall_radius, spectrum.energies, spectrum.nodes,
                              "underflow")
    return spectrum
