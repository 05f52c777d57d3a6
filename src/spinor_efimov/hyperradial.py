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
(LAPACK dtbtrs on Blatt's summed form of the recurrence), matched
through the discrete Wronskian at the outer turning point.  Each level
is bracketed on ln|E| by its node count and then refined on the matching
defect by refine._refine, the safeguarded Illinois regula falsi
that also refines every channel root.  The deepest level is probed first
at a zero of K_{i kappa}, each level above it where discrete scale
invariance, E_{n+1} = E_n exp(-2 pi/kappa), puts it.

The band solve calls dtbtrs with 64-bit integers (scipy_dtbtrs_64_) in
the OpenBLAS that numpy's wheel bundles in numpy.libs, through ctypes, so
no task loads scipy.  The first sweep loads it and keeps it only if it
solves a known system exactly; where numpy has no such library (MKL
builds, numpy 1.x's openblas64_ names) the sweeps use
scipy.linalg.lapack.dtbtrs instead.  The module-level __getattr__ below
keeps the old name `solve_banded` resolvable for perfbench/tracing.py,
which patches it by name.
"""

from __future__ import annotations

import cmath
import ctypes
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .hyperangular import SweepTable
from .refine import _refine

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
    radii, r = np.array(table.radii, dtype=float), table.roots
    # s^2 of every curve (row) at every radius, NaN where it has no slot,
    # squared as Python squares a float (libm pow), not as np.square
    sq = np.array([v ** 2 for v in r.value.tolist()])
    slot = np.repeat(np.arange(r.value.size), r.multiplicity)
    s2 = np.full((max(table.curve_ids, default=-1) + 1, radii.size), np.nan)
    s2[table.curve_ids, r.point[slot]] = np.where(r.real, sq, -sq)[slot]
    if curve_ids is None:
        curve_ids = np.flatnonzero(~np.isnan(s2).any(axis=1)).tolist()
        if not curve_ids:
            raise HyperradialError("no root curve spans the full R grid")
    rows = []
    for cid in curve_ids:
        row = s2[cid] if 0 <= cid < len(s2) else np.full(radii.size, np.nan)
        missing = np.flatnonzero(np.isnan(row))
        if missing.size:
            lo, hi = radii[missing[0]], radii[missing[-1]]
            raise HyperradialError(
                f"root curve {cid} has a gap over R in [{lo:.6g}, {hi:.6g}]")
        rows.append(row)
    return AdiabaticPotential.from_s_squared(radii, np.array(rows), convention)


def inverse_square_potential(kappa: float, r_min: float, r_max: float,
                             convention: PhysicalConvention,
                             points_per_decade: int = 1000) -> AdiabaticPotential:
    """Scale-free attractive channel with constant imaginary exponent:
    U = -(kappa^2 + 1/4) / (2 mu R^2).  Numerov's error goes as (kappa h)^4:
    at the default density every level is within 1e-9 for kappa 0.01 to 2,
    but 3.5e-9 off at kappa 8 with 20 (efimov_ladder scales the density)."""
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


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where a double cannot hold it."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def scaling_factor(kappa: float) -> float:
    """Geometric size ratio e^(pi/kappa) between successive ladder states,
    inf below kappa = 0.00443, where a double cannot hold it."""
    if not kappa > 0:
        raise HyperradialError(f"kappa must be positive, got {kappa!r}")
    return _exp_or_inf(math.pi / kappa)


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


#: a unit-lower system with two subdiagonals in dtbtrs's band storage
#: (rows: unread diagonal, L[j+1, j], L[j+2, j]; entries past the matrix
#: unread), its right-hand side and exact solution
_KNOWN_BAND = ((2.0, 3.0, 1.0), (2.0, -1.0, 2.0), (2.0, 2.0, -1.0),
               (2.0, -2.0, 7.0), (2.0, 5.0, 9.0))
_KNOWN_B, _KNOWN_X = (1.0, 1.0, 6.0, -2.0, 10.0), (1.0, -2.0, 3.0, -4.0, 5.0)


def _scipy_dtbtrs(ab: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, info) of the unit-lower band system, ab in C-ordered rows."""
    from scipy.linalg.lapack import dtbtrs

    return dtbtrs(ab.T, b, uplo="L", diag="U")


def _openblas_dtbtrs():
    """_scipy_dtbtrs's solve through scipy_dtbtrs_64_ in numpy's bundled
    OpenBLAS, in place in b, or None where no library there exports it
    or it fails the known system.  A wrong integer width or a missing
    hidden string length would corrupt memory rather than raise, so solve
    presets info to -1 (a 32-bit write of 0 leaves it nonzero) and the
    check keeps a guard value past the right-hand side."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if "openblas" in f)
    except OSError:
        return None
    for name in names:
        try:
            fn = ctypes.CDLL(os.path.join(libs, name)).scipy_dtbtrs_64_
        except (OSError, AttributeError):
            continue
        # uplo, trans, diag, n, kd, nrhs, ab, ldab, b, ldb, info, and the
        # three hidden string lengths gfortran appends
        fn.argtypes = ([ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 8
                       + [ctypes.c_size_t] * 3)
        fn.restype = None
        # n (also ldb), kd, nrhs, ldab and info; solve keeps them alive
        cells = [ctypes.c_int64(v) for v in (0, 2, 1, 3, 0)]
        p_n, p_kd, p_nrhs, p_ldab, p_info = map(ctypes.addressof, cells)

        def solve(ab, b):  # float64 and C-contiguous: _band rows, zeros
            cells[0].value, cells[4].value = b.shape[0], -1
            fn(b"L", b"N", b"U", p_n, p_kd, p_nrhs, ab.ctypes.data, p_ldab,
               b.ctypes.data, p_n, p_info, 1, 1, 1)
            return b, cells[4].value

        b = np.array(_KNOWN_B + (0.5,))
        x, info = solve(np.array(_KNOWN_BAND), b[:-1])
        if info == 0 and x.tolist() == list(_KNOWN_X) and b[-1] == 0.5:
            return solve
    return None


#: the band solver, chosen by the first sweep
_solve = None
#: band storage shared by every sweep: all -1 but the c entries
#: ab[1::2, 1], which each sweep writes; it holds _band_lock over that
#: write and the solve, which releases the GIL and shares argument cells
_band = np.empty((0, 3))
_band_lock = threading.Lock()


def _numerov_sweep(q: np.ndarray, h: float, y0: float, y1: float) -> np.ndarray:
    """Solve y'' = q y along the grid given two seed values.

    Numerov in Blatt's summed form: with p = 1 - h^2 q / 12, w = p y and
    c = h^2 q / p, d[i] = d[i-1] + c[i] w[i] and w[i+1] = w[i] + d[i], so
    q keeps its digits (12 - 10 p in the three-term form keeps about 8).
    In the unknowns (d[1], w[2], d[2], w[3], ...) the two sums are one
    unit-lower band system, solved by compiled forward substitution
    (LAPACK dtbtrs; see the module doc).
    """
    global _band, _solve
    n = q.size
    p = 1.0 - (h * h / 12.0) * q
    if not p.all():  # c = h^2 q / p and y = w / p need p != 0
        raise HyperradialError("Numerov step is singular (h^2 q = 12) at "
                               f"grid point {np.flatnonzero(p == 0.0)[0]}")
    y = np.empty(n)
    y[0], y[1] = y0, y1
    if n <= 2:
        return y
    minus_c = (-h * h) * q / p
    rhs = np.zeros(2 * n - 4)
    w1 = p[1] * y1
    rhs[:2] = w1 - p[0] * y0 - minus_c[1] * w1, w1  # d[1], w[2] - d[1]
    with _band_lock:
        if _solve is None:
            _solve = _openblas_dtbtrs() or _scipy_dtbtrs
        # one row per unknown, passed transposed: dtbtrs's Fortran-ordered
        # band storage without a copy; its unit diagonal is never read
        if _band.shape[0] < 2 * n - 4:
            _band = np.full((2 * n - 4, 3), -1.0)
        ab = _band[: 2 * n - 4]
        ab[1::2, 1] = minus_c[2:]
        w, info = _solve(ab, rhs)
    if info:
        raise HyperradialError("dtbtrs failed on the Numerov band system "
                               f"(info {info})")
    y[2:] = w[1::2] / p[2:]
    return y


def _count_nodes(y: np.ndarray) -> int:
    s = np.sign(y)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


def _arg_gamma(kappa: float) -> float:
    """Im ln Gamma(1 + i kappa): the recurrence up to Gamma(16 + i kappa),
    then the Stirling series in powers of 1/z, which cannot overflow
    (first omitted term below 3e-12 there)."""
    z = complex(16.0, kappa)
    w = 1.0 / z
    series = ((z - 0.5) * cmath.log(z) - z + w / 12.0 - w ** 3 / 360.0
              + w ** 5 / 1260.0)
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
        # the windows span two and eight decades, which hold it for a
        # scale-free channel down to kappa 0.41 and 0.01
        decade = math.log(10.0) / self.h
        for end in (it + round(2 * decade), it + round(8 * decade), n):
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
    regula falsi (refine._refine) on the matching defect to relative
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
    regularized by a hard wall, on a sized grid of 500 kappa points per
    decade (200 to 32,000, and 300,000 in all), which fixes kappa h: every
    level is within 1e-9 for kappa 0.01 to 300 (100 levels tried).

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
    if not kappa * kappa < math.inf:
        raise HyperradialError(
            "the potential -(kappa^2 + 1/4)/(2 m R^2) is not finite in "
            f"double precision at kappa = {kappa:g}")
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
    per_decade = min(max(200, math.ceil(500 * kappa)), 32000,
                     int(3e5 / decades))
    pot = inverse_square_potential(kappa, wall_radius, wall_radius
                                   * 10.0 ** decades, convention, per_decade)
    spectrum = bound_states(pot, wall_radius, n_levels)
    if n_levels > n_fit and spectrum.depth_exhausted:
        return LadderSpectrum(wall_radius, spectrum.energies, spectrum.nodes,
                              "underflow")
    return spectrum
