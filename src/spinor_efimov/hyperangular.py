"""Fixed-hyperradius channel problem and its root structure.

The zero-range reduction of the hyperangular equation turns each fixed R
into a transcendental matrix condition det M(s; R) = 0 over the six
(eigenchannel, spectator) states,

    M = diag[ s cos(s pi/2) - sqrt(2) (R/a_i) sin(s pi/2) ]
        - (4/sqrt(3)) sin(s pi/6) * O,

with the R/a term dropped for unitary channels and closed channels
eliminated outright.  On the imaginary axis s = i kappa the matrix is
i * H(kappa) with H real symmetric, so all roots sit on the real or the
imaginary axis and are found by tracking the sorted eigenvalue curves of
H for sign changes.  Tracking curves rather than det signs is what
resolves even-multiplicity roots (the theta = 0 anchor is a double root
at which the determinant does not change sign).

Both axes are built in one congruent form, the overflow-safe
2 exp(-kappa pi/2) D H D on the imaginary axis and D M D on the real one
(D a positive diagonal); by Sylvester's law it moves no root, changes no
multiplicity and maps null spaces through D.  The root finders scan it,
and channel_matrix divides out its positive factor to give M and H.
_SpecStack holds the arrays every evaluation reads (the active overlap,
R/a and D), stacked over the specs solved together.

The lengths fix the mode.  In asymptotic mode (no finite channel)
R/a = 0 and D = I, so on both axes the matrix is f(x) I - g(x) O with O
the active overlap: its roots solve the per-eigenvalue Efimov equations
h_j = f - g o_j = 0 over the eigenvalues o_j of O, whose eigenvectors
span the null spaces.  No grid is scanned: phi = f/g is monotone on the
imaginary axis and between its turning points and poles on the real one,
so each such branch holds one root of h_j where h_j changes sign over
it.  Finite mode scans an N_GRID-point grid coarse to fine, in cells of
256, 64, 16 and 4 steps and then point by point, and skips what two
inertia counts prove empty.  Every physical overlap is 2I - 3 V V^T (V
the mixed-symmetry basis), so the number of eigenvalues below a shift
follows from the diagonal and one 2x2 Schur complement (Haynsworth
inertia additivity), without eigvalsh; by Weyl's inequality every sorted
eigenvalue curve moves no faster than ||A'||_2, which the closed-form
entries bound on each cell (Kato, Perturbation Theory for Linear
Operators, ch. II).  Only the points no count clears, with their
neighbours, are diagonalized.  A skipped point takes part in no sign
change and no near-zero dip, so the brackets, fine scans, refinement and
warnings are those of the full grid, bit for bit.  Either way every
bracket goes through one value-only refinement, safeguarded Illinois
regula falsi (_refine), and a root's residual comes from the assembled
matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .spin import (
    ChannelLength,
    ExchangeOverlap,
    TwoBodyChannelSet,
    _angle_channels,
    _exchange_overlaps,
    _prechecked,
    as_length,
    channels_from_angle,
    exchange_overlap,
)

KERNEL_COEFF = 4.0 / math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)

#: bound on a root's residual, the largest tracked (normalized) eigenvalue
#: magnitude left at it; a larger one is an error, not a root
RESIDUAL_TOL = 1e-6
#: two refined roots on distinct curves closer than this merge into one
MERGE_TOL = 1e-8
#: lower edge of the scan grid; s = 0 is a removable parametrization point
GRID_EPS = 1e-8
#: number of scan-grid points
N_GRID = 2000
#: matrices per stacked eigvalsh call; bounds the memory of a finite-mode
#: scan and of a refinement
BLOCK_MATRICES = 1024
#: points per inertia-count call; bounds the memory of a finite-mode scan
_COUNT_BLOCK = 4096
#: cell widths in grid steps of the finite-mode scan, coarse to fine
_LEVELS = (256, 64, 16, 4)
#: how far the real-axis grid moves a point off an even integer
_NUDGE = 1e-6
#: error bound of a computed normalized eigenvalue, relative to the bound
#: 1 + 2x + (4/sqrt(3)) ||D O D|| on the matrix norm at x (about 4,500 eps;
#: eigvalsh is backward stable and the entries carry a few eps each)
_EIG_ERR = 1e-12
#: machine epsilon of a double
_EPS = 2.0 ** -52


class HyperangularError(ValueError):
    pass


class GridResolutionWarning(UserWarning):
    """A curve came close to zero without a detectable sign change; a pair
    of roots inside one grid cell cannot be excluded."""


@dataclass(frozen=True)
class ChannelMatrixSpec:
    """Everything the channel matrix needs at one hyperradius.

    lengths holds one ChannelLength per channel; state_channel maps each
    basis state to its channel (two spectator states per channel in the
    full problem, one state total in the collapsed single-level problem).
    The lengths fix the mode: finite if a channel is finite (the others
    finite or closed, R > 0), else asymptotic (R never enters).
    channels, when set, gives the roots their spin profiles.
    """

    lengths: tuple[ChannelLength, ...]
    overlap: np.ndarray
    state_channel: tuple[int, ...]
    hyperradius: float | None = None
    channels: TwoBodyChannelSet | None = field(default=None, repr=False)

    def __post_init__(self):
        o = np.asarray(self.overlap, dtype=float)
        n = len(self.state_channel)
        if o.shape != (n, n):
            raise HyperangularError(
                f"overlap shape {o.shape} does not match {n} states")
        if np.abs(o - o.T).max() > 1e-12:
            raise HyperangularError("overlap matrix must be symmetric")
        if self.mode == "finite":
            if any(l.kind == "unitary" for l in self.lengths):
                raise HyperangularError(
                    "finite and unitary channels do not mix")
            if self.hyperradius is None or not self.hyperradius > 0.0:
                raise HyperangularError("finite mode requires hyperradius > 0")
        object.__setattr__(self, "overlap", 0.5 * (o + o.T))  # frozen

    @property
    def mode(self) -> str:
        """"finite" when any channel length is finite, else "asymptotic"."""
        return ("finite" if any(l.kind == "finite" for l in self.lengths)
                else "asymptotic")

    @staticmethod
    def from_overlap(overlap: ExchangeOverlap,
                     hyperradius: float | None = None) -> "ChannelMatrixSpec":
        """The six-state problem of the overlap's channel set."""
        return ChannelMatrixSpec(
            lengths=tuple(overlap.channels.lengths),
            overlap=overlap.matrix,
            state_channel=(0, 0, 1, 1, 2, 2),
            hyperradius=hyperradius,
            channels=overlap.channels,
        )

    @staticmethod
    def single_level(a,
                     hyperradius: float | None = None) -> "ChannelMatrixSpec":
        """Collapsed identical-boson problem: one channel, one spectator
        state, exchange overlap exactly 2."""
        return ChannelMatrixSpec(
            lengths=(as_length(a),),
            overlap=np.array([[2.0]]),
            state_channel=(0,),
            hyperradius=hyperradius,
        )

    @property
    def n_states(self) -> int:
        return len(self.state_channel)

    def active_states(self) -> np.ndarray:
        """Indices of states whose channel is not closed."""
        return np.array([j for j, ch in enumerate(self.state_channel)
                         if self.lengths[ch].kind != "closed"], dtype=int)


def _imag_terms(kappas, r_over_a):
    """Kernel g and diagonal of 2 exp(-kappa pi/2) H(kappa) = diag - g O
    before the congruence, over an array of kappa values; r_over_a (..., m)
    broadcasts against kappas and the diagonal gets shape kappas.shape +
    (m,).  The differences 1 - exp(-pi kappa) and u - u^2, u = exp(-pi
    kappa/3), go through expm1, so neither cancels near kappa = 0."""
    e_full = np.exp(-math.pi * kappas)
    diag = (kappas * (1.0 + e_full))[..., None] \
        + SQRT2 * (np.expm1(-math.pi * kappas)[..., None] * r_over_a)
    kern = -KERNEL_COEFF * np.exp(-math.pi * kappas / 3.0) \
        * np.expm1(-math.pi * kappas / 3.0)
    return kern, diag


def _real_terms(svals, r_over_a):
    """Kernel and diagonal of M(s) on the real axis (M is already real
    symmetric); arguments as for _imag_terms."""
    diag = (svals * np.cos(0.5 * math.pi * svals))[..., None] \
        - SQRT2 * (np.sin(0.5 * math.pi * svals)[..., None] * r_over_a)
    kern = KERNEL_COEFF * np.sin(math.pi * svals / 6.0)
    return kern, diag


def _imag_slopes(lo, hi, r_over_a):
    """Upper bounds on |g'| and on each |d_i'| over kappa in [lo, hi] for
    the terms of _imag_terms, shapes lo.shape and lo.shape + (m,).  With
    e = exp(-pi kappa), d_i' = 1 + (1 - pi kappa) e - sqrt(2) pi (R/a_i) e,
    whose first two terms lie in (0, 2] and fall for kappa < 1/pi; with
    u = exp(-pi kappa/3), |g'| = (4/sqrt(3)) (pi/3) u |2u - 1|, where
    u |2u - 1| rises to 1/8 on [0, 1/4], stays below 1/8 up to u = 1/2 and
    rises again above.  Both bounds fall with kappa, so hi does not
    enter."""
    e = np.exp(-math.pi * lo)[..., None]
    d = 1.0 + (np.maximum(0.0, 1.0 - math.pi * lo)[..., None]
               + SQRT2 * math.pi * np.abs(r_over_a)) * e
    u = np.exp(-math.pi * lo / 3.0)
    swing = u * np.abs(2.0 * u - 1.0)
    g = (KERNEL_COEFF * math.pi / 3.0) * np.where(u < 0.25, swing,
                                                  np.maximum(swing, 0.125))
    return g, d


def _real_slopes(lo, hi, r_over_a):
    """As _imag_slopes for _real_terms: d_i' = (1 - pi (R/a_i)/sqrt(2))
    cos(pi s/2) - (pi s/2) sin(pi s/2) and g' = (4/sqrt(3)) (pi/6)
    cos(pi s/6), bounded by Cauchy-Schwarz at s = hi."""
    d = np.hypot(1.0 + (math.pi / SQRT2) * np.abs(r_over_a),
                 0.5 * math.pi * hi[..., None])
    g = np.full(np.shape(lo), KERNEL_COEFF * math.pi / 6.0)
    return g, d


def _assemble(kern, diag, overlap) -> np.ndarray:
    """The matrices diag - kern O, which the congruence D D scales
    elementwise; overlap (..., m, m) broadcasts against kern."""
    out = -kern[..., None, None] * overlap
    idx = np.arange(overlap.shape[-1])
    out[..., idx, idx] += diag
    return out


def channel_matrix(s, spec: ChannelMatrixSpec) -> np.ndarray:
    """Evaluate the channel matrix at one point of the real or imaginary
    axis, reduced to the active (non-closed) states.

    For real s the matrix M(s) itself is returned; for s = i kappa the
    real symmetric H(kappa) with M = i H is returned: the congruent form
    the root finders scan (_SpecStack.matrices) with its positive factor
    divided out.  Against 40-digit entries of a finite spec at kappa =
    1e-8 to 8, its largest error relative to its largest entry is
    round-off (below 7e-16), as is the kernel g's alone.
    """
    s = complex(s)
    if s == 0:
        raise HyperangularError("s = 0 is a removable parametrization point")
    if s.real != 0.0 and s.imag != 0.0:
        raise HyperangularError(
            f"s must lie on the real or imaginary axis, got {s!r}")
    axis, x = ("real", s.real) if s.real != 0.0 else ("imaginary", s.imag)
    stack = _SpecStack([spec], axis)
    if stack.active.size == 0:
        raise HyperangularError("all channels are closed; no matrix remains")
    if axis == "imaginary" and x <= 0.0:
        raise HyperangularError(f"imaginary axis requires kappa > 0, got {x}")
    factor = 1.0 if axis == "real" else 2.0 * math.exp(-0.5 * math.pi * x)
    out = stack.matrices(np.zeros(1, dtype=int), np.array([x]))[0]
    return out / (factor * stack.scale[0])


# ---------------------------------------------------------------------------
# spin profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinProfile:
    """Weights of a root's null space over the six (pair basis state,
    spectator level) configurations; rows follow PAIR_LABELS, columns are
    spectator level 1 and 2.  Weights sum to one.  same_level_weight is
    the total weight on the all-atoms-in-one-level family (|111>, |222>),
    mixed_weight the rest."""

    weights: np.ndarray  # (3, 2)
    same_level_weight: float
    mixed_weight: float


@dataclass(frozen=True)
class ChannelRoot:
    """One root s_nu of the channel problem.

    value is kappa = |s| for imaginary-axis roots and s for real-axis
    ones.  null_vectors holds an orthonormal basis of the null space as
    columns over the full state list (exact zeros on closed channels);
    residual bounds what the normalized matrix leaves of them at the root.
    """

    axis: str  # "imaginary" | "real"
    value: float
    null_vectors: np.ndarray
    residual: float
    spin_profile: SpinProfile | None = None

    @property
    def multiplicity(self) -> int:
        return self.null_vectors.shape[1]

    @property
    def s_squared(self) -> float:
        return -self.value ** 2 if self.axis == "imaginary" else self.value ** 2


def _spin_profiles(null_vectors: np.ndarray,
                   vectors: np.ndarray) -> list[SpinProfile]:
    """Spin profiles of roots sharing a multiplicity m, from their null
    vectors (roots, 6, m) and the channel vectors (roots, 3, 3) of their
    channel sets, in one stacked product: each null vector, shaped
    (channel, spectator), is rotated onto the fixed (pair basis state,
    spectator) configurations and the squared amplitudes are averaged.

    The channel-to-pair-basis rotation is orthogonal, so the weights of
    each null vector sum to one exactly; averaging over a degenerate null
    space keeps the profile invariant under basis rotations inside it.
    """
    n, states, m = null_vectors.shape
    if states != 6:
        raise HyperangularError(
            "spin classification needs the six-state channel problem")
    coeff = null_vectors.transpose(0, 2, 1).reshape(n, m, 3, 2)
    weights = np.sum((vectors[:, None] @ coeff) ** 2, axis=1) / m
    total = np.sum(weights.reshape(n, 6), axis=1)
    bad = np.nonzero(np.abs(total - 1.0) > 1e-10)[0]
    if bad.size:
        raise HyperangularError(
            f"spin profile weights sum to {float(total[bad[0]])!r}, "
            "expected 1")
    same = weights[:, 0, 0] + weights[:, 2, 1]
    return [SpinProfile(*w) for w in zip(weights, same.tolist(),
                                         (total - same).tolist())]


def classify_root(null_vectors: np.ndarray,
                  channels: TwoBodyChannelSet) -> SpinProfile:
    """The spin profile of one root from its null vectors (columns over
    the six states) and its channel set; see _spin_profiles."""
    return _spin_profiles(null_vectors[None], channels.vectors[None])[0]


# ---------------------------------------------------------------------------
# root finding by eigenvalue-curve tracking
# ---------------------------------------------------------------------------

def default_kappa_max(spec: ChannelMatrixSpec) -> float:
    """10 covers every attachment-region root; finite channels extend the
    window to catch dimer-limit roots near sqrt(2) R/a."""
    finite = [abs(l.value) for l in spec.lengths if l.kind == "finite"]
    if not finite:
        return 10.0
    return 10.0 + 2.0 * SQRT2 * spec.hyperradius / min(finite)


def _kappa_window(spec: ChannelMatrixSpec, kappa_max: float | None) -> float:
    if kappa_max is None:
        kappa_max = default_kappa_max(spec)
    if kappa_max <= GRID_EPS:
        raise HyperangularError(
            f"kappa_max must exceed the grid offset {GRID_EPS:g}")
    return kappa_max


#: largest accepted s_max: it keeps the default real-axis grid step at
#: 0.05 and _branch_ends's sampling of phi' at 6,400 points, where 1e15
#: would ask for petabytes
S_MAX_LIMIT = 100.0


def _check_s_max(s_max: float) -> None:
    if not 2.0 <= s_max <= S_MAX_LIMIT:
        raise HyperangularError(
            f"s_max must lie in [2, {S_MAX_LIMIT:g}], got {s_max!r}")


def _nudge_even_integers(grid: np.ndarray, offset: float = _NUDGE) -> np.ndarray:
    """Move grid points off even integers, where sin(s pi/2) = 0 makes the
    diagonal entries of every channel coincide (a benign degeneracy that
    confuses sorted-curve bookkeeping)."""
    grid = grid.copy()
    nearest = 2.0 * np.round(grid / 2.0)
    close = (np.abs(grid - nearest) < offset) & (nearest > 0.0)
    shift = np.where(grid >= nearest, offset, -offset)
    grid[close] = nearest[close] + shift[close]
    return grid


def _grid(axis: str, x_max, n: int, i) -> np.ndarray:
    """Points i of the n-point scan grid over (0, x_max] of an axis, with
    x_max and i broadcast: np.linspace(GRID_EPS, x_max, n)[i], moved off
    even integers on the real axis.  n >= 2."""
    x = i * ((x_max - GRID_EPS) / (n - 1)) + GRID_EPS
    x = np.where(i == n - 1, x_max, x)
    return _nudge_even_integers(x) if axis == "real" else x


# axis -> (kernel and diagonal terms, bounds on their slopes)
_AXES = {"imaginary": (_imag_terms, _imag_slopes),
         "real": (_real_terms, _real_slopes)}


def _eig_err(x, kernel_norm):
    """The error bound of a computed eigenvalue of a normalized matrix at
    x whose kernel has norm kernel_norm (see _EIG_ERR)."""
    return _EIG_ERR * (1.0 + 2.0 * x + KERNEL_COEFF * kernel_norm)


class _SpecStack:
    """The per-evaluation arrays of specs sharing their mode, state count
    and active states, stacked along a leading spec axis: the active
    overlap, R/a (0 for unitary channels, so for all in asymptotic mode),
    the congruence diagonal c = 1/sqrt(max(1, sqrt(2)|R/a|)) and its outer
    product.  Every evaluation of a spec's matrix reads them here.

    A finite stack also holds V, the active rows of the -1 eigenvectors of
    each full overlap (one stacked eigh; at most two columns, zero-padded
    to two), and the defect ||O - (2I - 3 V V^T)||_F.  Every physical
    overlap has this form (its spectrum is 2 four times and -1 twice), so
    the matrix diag(d) - k O is D' + 3k V V^T with D' = diag(d - 2k), and
    count_below counts its eigenvalues below a shift without eigvalsh.  An
    overlap with a defect above 1e-10 gets an infinite margin, so no
    certificate: every point of its scan goes through eigvalsh."""

    def __init__(self, specs, axis: str):
        self.terms, self.slopes = _AXES[axis]
        self.n_states = specs[0].n_states
        self.active = act = specs[0].active_states()
        full = np.array([s.overlap for s in specs])
        self.overlap = full[:, act[:, None], act]
        radius = np.array([s.hyperradius if s.mode == "finite" else 0.0
                           for s in specs])[:, None]
        length = np.array([[s.lengths[c].value for c in s.state_channel]
                           for s in specs])[:, act]
        self.r_over_a = np.divide(radius, length, out=np.zeros(length.shape),
                                  where=radius > 0.0)
        self.finite = bool(self.r_over_a.any())
        # C^-2 and the congruence diagonal C
        self.stretch = np.maximum(1.0, SQRT2 * np.abs(self.r_over_a))
        self.congruence = d = 1.0 / np.sqrt(self.stretch)
        self.scale = d[:, :, None] * d[:, None, :]
        if self.finite:
            # ||D O D||_2, the kernel's weight in the norm and slope bounds
            self.kernel_norm = np.linalg.norm(self.scale * self.overlap, 2,
                                              axis=(-2, -1))
            o, vec = np.linalg.eigh(full)
            r = min(2, self.n_states)
            v = np.zeros(full.shape[:2] + (2,))
            v[..., :r] = vec[..., :r] * (o[:, None, :r] < 0.5)
            defect = np.linalg.norm(
                full - 2.0 * np.eye(self.n_states)
                + 3.0 * (v @ v.transpose(0, 2, 1)), axis=(-2, -1))
            self.defect = np.where(defect <= 1e-10, defect, np.inf)
            v = v[:, act].T  # (column, active state, spec)
            # v_0^2, v_1^2 and v_0 v_1, whose sums over the states weighted
            # by 1/D'_t give V^T D'_t^-1 V, and |v|^2 for its error bound;
            # state-major, so that count_below sums whole rows
            self.basis_products = np.stack(
                (v[0] ** 2, v[1] ** 2, v[0] * v[1], v[0] ** 2 + v[1] ** 2))

    def lipschitz(self, p, lo, hi) -> np.ndarray:
        """Bound L on ||A(y) - A(x)||_2 <= L (y - x) for lo <= x < y <= hi,
        A = matrices(p, .), elementwise over the broadcast shape of p, lo
        and hi: A' = D diag(d') D - g' D O D with d and g the axis terms."""
        g, d = self.slopes(lo, hi, self.r_over_a[p])
        return np.max(self.congruence[p] ** 2 * d, axis=-1) \
            + g * self.kernel_norm[p]

    def matrices(self, p, x) -> np.ndarray:
        """Normalized matrices of spec p at x, elementwise over the
        broadcast shape of p and x."""
        kern, diag = self.terms(x, self.r_over_a[p])
        out = _assemble(kern, diag, self.overlap[p])
        out *= self.scale[p]
        return out

    def eigenvalues(self, p, x) -> np.ndarray:
        """Sorted eigenvalues of matrices(p, x) for flat p and x, at most
        BLOCK_MATRICES matrices per eigvalsh call."""
        out = np.empty(x.shape + self.scale.shape[-1:])
        for lo in range(0, x.size, BLOCK_MATRICES):
            part = slice(lo, lo + BLOCK_MATRICES)
            out[part] = np.linalg.eigvalsh(self.matrices(p[part], x[part]))
        return out

    def curve_values(self, p, x, k) -> np.ndarray:
        """k[i]-th sorted eigenvalue of spec p[i] at x[i] for flat arrays."""
        return self.eigenvalues(p, x)[np.arange(x.size), k]

    def margin(self, p, x) -> np.ndarray:
        """What a proof by count_below leaves for round-off at points up
        to x: four eigenvalue errors for the eigvalsh values the proof
        stands in for, two for the count's own arithmetic, and |k| times
        the overlap's defect (|k| <= 4/sqrt(3) on both axes)."""
        return 6.0 * _eig_err(x, self.kernel_norm[p]) \
            + KERNEL_COEFF * self.defect[p]

    def count_below(self, p, x, t) -> np.ndarray:
        """Number of eigenvalues of matrices(p, x) below each shift t
        (shape (shifts,) + x.shape, x and p flat), or -1 where round-off
        could change it or t is not finite.  By Sylvester's law it is
        neg(H - t C^-2) with H = D' + 3k V V^T and C the congruence, and by
        Haynsworth's inertia additivity on [[D'_t, V], [V^T, -I/(3k)]]
        (Linear Algebra Appl. 1, 1968) that is neg(D'_t) + neg(S) - 2[k > 0]
        with D'_t = D' - t C^-2 and the 2x2 S = -I/(3k) - V^T D'_t^-1 V.
        It is computed from S' = -3k S = I + 3k V^T D'_t^-1 V, which stays
        finite as k -> 0: neg(S) - 2[k > 0] = -sgn(k) neg(S').  The count
        is that of the computed D'_t, k and V (whose distance to the matrix
        the margin covers) whenever the error bound of the computed S'
        leaves the signs of its eigenvalues fixed; a pivot of D'_t within
        round-off of zero makes that bound swamp det S'."""
        # arrays (states, shifts, points), built in place; np.take is
        # several times faster than fancy indexing here
        kern, diag = self.terms(x, np.take(self.r_over_a, p, axis=0))
        diag -= 2.0 * kern[:, None]
        inv = t * np.take(self.stretch, p, axis=0).T[:, None]
        np.subtract(diag.T[:, None], inv, out=inv)  # D'_t
        neg = np.count_nonzero(inv < 0.0, axis=0)
        w = 3.0 * kern
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.reciprocal(inv, out=inv)
            s00, s11, s01 = (
                w * np.einsum("msn,mn->sn", inv, np.take(row, p, axis=1))
                for row in self.basis_products[:3])
            s00, s11 = s00 + 1.0, s11 + 1.0
            det = s00 * s11 - s01 * s01
            size = np.abs(s00) + np.abs(s11) + 2.0 * np.abs(s01)
            # a bound on ||S'_computed - S'||_2 plus det's own round-off
            bound = np.einsum("msn,mn->sn", np.abs(inv, out=inv),
                              np.take(self.basis_products[3], p, axis=1))
            err = 32.0 * _EPS * (1.0 + np.abs(w) * bound) + 4.0 * _EPS * size
            ok = (np.abs(det) > err * size) & np.isfinite(t)
        below = np.where(det < 0.0, 1, np.where(s00 < 0.0, 2, 0))
        neg += np.where(kern > 0.0, -below, below)
        return np.where(ok, neg, -1)

    def excludes(self, p, lo, hi, h) -> np.ndarray:
        """Whether two counts prove that no sorted curve of spec p comes
        within L h + margin of zero at a point of [lo, hi] (flat arrays; h
        a bound on the grid step, L = lipschitz over [lo - h, hi + h]):
        each curve moves at most L (hi - lo)/2 from the centre (Weyl), so
        no eigenvalue there within L (hi - lo)/2 + L h + margin suffices.
        A point with no curve that close keeps every sign to its
        neighbours and has |lambda_k| above the change to one, so no
        bracket or dip of the full grid uses it."""
        lip = self.lipschitz(p, np.maximum(lo - h, 0.0), hi + h)
        t = lip * (0.5 * (hi - lo) + h) + self.margin(p, hi + h)
        mid = 0.5 * (lo + hi)
        out = np.empty(p.size, dtype=bool)
        for start in range(0, p.size, _COUNT_BLOCK):
            part = slice(start, start + _COUNT_BLOCK)
            below = self.count_below(p[part], mid[part],
                                     np.array([t[part], -t[part]]))
            out[part] = (below[0] == below[1]) & (below[0] >= 0)
        return out


def _runs(count):
    """Owner and offset of each item when item c owns count[c] items."""
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(count) - count,
                                                    count)


def _finite_scan(stack: _SpecStack, axis: str, x_max: np.ndarray, n: int):
    """Every spec's grid points that a bracket or a dip can use, with
    their sorted eigenvalues: flat arrays (spec, grid index, point,
    eigenvalues) in (spec, index) order.  Each level of _LEVELS splits the
    open cells (at first each spec's whole grid) into cells of its width
    and closes those _SpecStack.excludes proves empty.  The points of the
    cells left open go through the same proof one by one; the points it
    fails, with their neighbours (the other end of a sign change, the
    sides of a dip), are the only ones evaluated by eigvalsh."""
    p = np.arange(x_max.size)
    a, b = np.zeros_like(p), np.full_like(p, n - 1)
    # a bound on the grid step: the spacing, its round-off and the real
    # axis's nudge off even integers
    h = (x_max - GRID_EPS) / (n - 1) + 2.0 * _NUDGE + 4.0 * np.spacing(x_max)
    for width in _LEVELS:
        cell, j = _runs(-(-(b - a) // width))
        p, a = p[cell], a[cell] + width * j
        b = np.minimum(a + width, b[cell])
        keep = ~stack.excludes(p, _grid(axis, x_max[p], n, a),
                               _grid(axis, x_max[p], n, b), h[p])
        p, a, b = p[keep], a[keep], b[keep]
    # each point of the open cells once: a cell may start where one ends
    cell, j = _runs(b - a + 1)
    key = p[cell] * n + a[cell] + j
    key = key[np.diff(key, prepend=-1) != 0]
    p, i = np.divmod(key, n)
    x = _grid(axis, x_max[p], n, i)
    need = ~stack.excludes(p, x, x, h[p])
    key, i = key[need], i[need]
    key = np.sort(np.concatenate((key[i > 0] - 1, key, key[i < n - 1] + 1)))
    p, i = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    x = _grid(axis, x_max[p], n, i)
    return p, i, x, stack.eigenvalues(p, x)


def _candidates(p, x, curves, step):
    """The sign changes (p, k, lo, hi, f_lo, f_hi) of sorted eigenvalue
    curves (m, points) and their near-zero dips (p, k, left, right), in
    (spec, curve, index) order.  p and x give each point's spec and value;
    a test pairs neighbours only where step (points - 1) holds."""
    neg = curves < 0.0
    change = (neg[:, :-1] != neg[:, 1:]) & step
    k, i = np.nonzero(change)
    o = np.lexsort((i, k, p[i]))
    k, i = k[o], i[o]
    brackets = (p[i], k, x[i], x[i + 1], curves[k, i], curves[k, i + 1])
    # interior near-zero dips without a sign change
    mag = np.abs(curves)
    centre = mag[:, 1:-1]
    local = np.maximum(np.abs(curves[:, 1:-1] - curves[:, :-2]),
                       np.abs(curves[:, 2:] - curves[:, 1:-1]))
    dip = (centre <= mag[:, :-2]) & (centre <= mag[:, 2:]) \
        & (neg[:, :-2] == neg[:, 1:-1]) \
        & (neg[:, 1:-1] == neg[:, 2:]) & ~(centre > local) \
        & step[:-1] & step[1:]
    k, i = np.nonzero(dip)
    o = np.lexsort((i, k, p[i]))
    k, i = k[o], i[o]
    return brackets, (p[i], k, x[i], x[i + 2])


def _refine(values, lo, hi, f_lo, f_hi, tol=None) -> np.ndarray:
    """Refine every bracket [lo[i], hi[i]] to the sign change of its
    function at once; values(idx, x) evaluates the functions of brackets
    idx at points x.  Each round steps every live bracket to its Illinois
    regula falsi point (Dowell and Jarratt, BIT 11, 1971: an end kept two
    rounds running has its value halved), held at least tol/2 inside the
    bracket, or to its midpoint if the bracket has not halved in two
    rounds, as at the kinks where sorted curves cross.  Exact zeros at an
    end or a step are returned as they are; otherwise a bracket stops once
    it is no wider than tol[i] or at floating resolution, and its midpoint
    is returned.  The caller sets tol: the channel roots and branch ends
    here keep the default max(1e-12, 4 eps |hi_0|), and the trimer ladder
    (hyperradial.bound_states) passes its relative energy tolerance."""
    lo, hi, f_lo, f_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    if tol is None:
        tol = np.maximum(1e-12, 4.0 * np.finfo(float).eps * np.abs(hi))
    out = np.where(f_lo == 0.0, lo, hi)
    exact = (f_lo == 0.0) | (f_hi == 0.0)
    live = ~exact
    neg_lo = f_lo < 0.0  # the sign at lo never changes
    moved = np.zeros(lo.size, dtype=np.int8)  # last round: +1 hi, -1 lo
    # the widths one and two rounds ago
    width_1, width_2 = np.full(lo.size, np.inf), np.full(lo.size, np.inf)
    while True:
        mid = 0.5 * (lo + hi)
        live &= (hi - lo > tol) & (mid > lo) & (mid < hi)
        idx = np.nonzero(live)[0]
        if idx.size == 0:
            break
        a, b, fa, fb = lo[idx], hi[idx], f_lo[idx], f_hi[idx]
        width = b - a
        # fa and fb are nonzero and of opposite signs: no 0/0
        x = np.clip(a + width * (fa / (fa - fb)), a + 0.5 * tol[idx],
                    b - 0.5 * tol[idx])
        x = np.where(width > 0.5 * width_2[idx], mid[idx], x)
        width_2[idx], width_1[idx] = width_1[idx], width
        f = values(idx, x)
        zero = idx[f == 0.0]
        out[zero] = x[f == 0.0]
        exact[zero] = True
        live[zero] = False
        flip = (f < 0.0) != neg_lo[idx]
        side = np.where(flip, 1, -1)
        halve = np.where(moved[idx] == side, 0.5, 1.0)  # kept end, again
        moved[idx] = side
        up, down = idx[flip], idx[~flip]
        f_lo[up] *= halve[flip]
        f_hi[down] *= halve[~flip]
        hi[up], f_hi[up] = x[flip], f[flip]
        lo[down], f_lo[down] = x[~flip], f[~flip]
    return np.where(exact, out, 0.5 * (lo + hi))


def _merge(p, values):
    """Roots sorted by (spec, value) and cut where they part by more than
    MERGE_TOL: the order, run starts, and each run's spec, mean and size."""
    order = np.lexsort((values, p))
    p, values = p[order], values[order]
    cut = (np.diff(p, prepend=-1) != 0) \
        | (np.diff(values, prepend=-np.inf) > MERGE_TOL)
    run, start = np.cumsum(cut) - 1, np.flatnonzero(cut)
    size = np.bincount(run)
    # each run summed left to right, the order np.mean adds fewer than 8
    # values in (np.add.reduceat adds a0 + (a1 + a2 + ...))
    mean = np.bincount(run, weights=values) / size
    return order, start, p[start], mean, size


def _finite_roots(stack: _SpecStack, axis: str, x_max, n_grid: int, warns):
    """Roots of finite-mode specs, arrays (spec, value, residual) and
    their null vectors as pairs (roots, null vectors (roots, active
    states, m)), one per multiplicity m: the sorted curves' sign changes
    at the points _finite_scan keeps, and those fine scans of near-zero
    dips uncover, refined together by _refine and merged.  The
    multiplicity is the number of curves merged or, if larger, of
    eigenvalues within _eig_err of zero at the root (the null-space
    dimension); that many smallest-|lambda| eigenvectors, the congruence
    undone and re-orthonormalized, are the null vectors.  A dip that
    still grazes zero is a warning unless a root whose null-space count
    raised its multiplicity lies in it."""
    p, i, x, lam = _finite_scan(stack, axis, np.array(x_max), n_grid)
    # neighbours: consecutive grid indices of one spec
    step = (p[1:] == p[:-1]) & (i[1:] == i[:-1] + 1)
    brackets, suspects = _candidates(p, x, lam.T, step)
    grazing = []
    if suspects[0].size:
        found, grazing = _subdivide(stack, *suspects)
        brackets = [np.concatenate(c) for c in zip(brackets, found)]
    p, k, lo, hi, f_lo, f_hi = brackets
    values = _refine(lambda idx, x: stack.curve_values(p[idx], x, k[idx]),
                     lo, hi, f_lo, f_hi)
    order, start, grp_p, grp_value, size = _merge(p, values)
    # a run counts each curve once: two brackets of one curve (a tangent
    # pair split by round-off) can refine to within MERGE_TOL
    curves = np.zeros((start.size, stack.active.size), dtype=bool)
    curves[np.repeat(np.arange(start.size), size), k[order]] = True
    mult = np.count_nonzero(curves, axis=1)
    lam, vec = np.linalg.eigh(stack.matrices(grp_p, grp_value))
    nulls = np.count_nonzero(
        np.abs(lam) <= _eig_err(grp_value, stack.kernel_norm[grp_p])[:, None],
        axis=-1)
    # a dip is explained by a root in it whose null space has more
    # dimensions than sign changes
    raised = nulls > mult
    for q, c, left, right in grazing:
        if not np.any(raised & (grp_p == q) & (grp_value >= left)
                      & (grp_value <= right)):
            warns[q].append(
                f"eigenvalue curve {c} grazes zero near "
                f"{0.5 * (left + right):.6g} without a sign change; a root "
                "pair inside one grid cell cannot be excluded")
    mult = np.maximum(mult, nulls)
    pick = np.argsort(np.abs(lam), axis=-1)
    residual = np.abs(np.take_along_axis(lam, pick, -1)[
        np.arange(mult.size), mult - 1])
    groups = []
    for m in sorted(set(mult.tolist())):  # no np.unique: it loads numpy.ma
        g = np.nonzero(mult == m)[0]
        raw = stack.congruence[grp_p[g], :, None] \
            * np.take_along_axis(vec[g], pick[g, None, :m], -1)
        groups.append((g, np.linalg.qr(raw)[0]))
    return grp_p, grp_value, residual, groups


def _subdivide(stack, p, k, left, right):
    """Scan each suspect cell pair [left, right] of curve k at 65 points:
    the brackets of its sign changes (as _candidates returns them), and
    the suspects (p, k, left, right) whose dip still grazes zero."""
    fine = np.array([np.linspace(a, b, 65) for a, b in zip(left, right)])
    fv = stack.curve_values(np.repeat(p, 65), fine.ravel(),
                            np.repeat(k, 65)).reshape(fine.shape)
    neg = fv < 0.0
    c, j = np.nonzero(neg[:, :-1] != neg[:, 1:])
    fine_var = np.max(np.abs(np.diff(fv, axis=1)), axis=1)
    grazing = (np.min(np.abs(fv), axis=1) < 0.25 * fine_var)
    grazing[c] = False
    g = np.nonzero(grazing)[0]
    return ((p[c], k[c], fine[c, j], fine[c, j + 1], fv[c, j], fv[c, j + 1]),
            list(zip(p[g].tolist(), k[g].tolist(), left[g], right[g])))


def _phi_slope(s):
    """A positive multiple of phi' g^2 = f' g - f g' on the real axis."""
    c, sn = np.cos(0.5 * math.pi * s), np.sin(0.5 * math.pi * s)
    return (c - 0.5 * math.pi * s * sn) * np.sin(math.pi * s / 6.0) \
        - (math.pi / 6.0) * s * c * np.cos(math.pi * s / 6.0)


def _branch_ends(axis: str, x_max: float) -> np.ndarray:
    """Ends of the monotone branches of phi = f/g over the window
    [GRID_EPS, top] of an axis, top the scan grid's last point.  phi rises
    strictly on the imaginary axis, so the window is one branch; on the
    real axis the inner ends are the sign changes of phi' (sampled every
    1/64 and refined) and the poles s = 6k of phi, where h_j = f != 0."""
    top = float(_grid(axis, x_max, 2, 1))
    ends = [GRID_EPS, top]  # branches are half-open, (lo, hi]
    if axis == "real":
        s = np.append(np.arange(1, math.ceil(64.0 * top)) / 64.0, top)
        slope = _phi_slope(s)
        i = np.nonzero((slope[:-1] < 0.0) != (slope[1:] < 0.0))[0]
        ends += [*_refine(lambda idx, x: _phi_slope(x), s[i], s[i + 1],
                          slope[i], slope[i + 1]),
                 *6.0 * np.arange(1, math.ceil(top / 6.0))]
    return np.sort(ends)


def _scalar_roots(stack: _SpecStack, axis: str, x_max: float):
    """Roots of asymptotic specs (D = I) in their shared window x_max, as
    _finite_roots gives them, from h_j = f - g o_j over the overlaps'
    eigenpairs.  A branch (lo, hi] of phi holds a root of h_j where h_j
    changes sign over it or is zero at hi; h_j within the eigenvalue
    error of zero at an inner end is zero.  _refine solves all brackets
    at once from the values of h_j.  A root's null vectors are the
    eigenvectors of its o_j, its residual their largest ||A(x) v||."""
    terms = _AXES[axis][0]  # g and f of f(x) I - g(x) O, with R/a = 0

    def h_of(x, o_j):
        g, f = terms(x, np.zeros(1))
        return f[..., 0] - g * o_j

    o, vec = np.linalg.eigh(stack.overlap)
    ends = _branch_ends(axis, x_max)
    h = h_of(ends[:, None], o[:, None, :])  # (spec, end, j)
    # a tangency, o_j at a turning value of phi (at a pole |h_j| >= 6)
    inner = h[:, 1:-1]
    inner[np.abs(inner) <= _eig_err(ends[1:-1, None], np.max(
        np.abs(o), axis=-1)[:, None, None])] = 0
    h_lo, h_hi = h[:, :-1], h[:, 1:]
    p, b, j = np.nonzero((np.sign(h_lo) * np.sign(h_hi) < 0.0)
                         | (h_hi == 0.0))
    values = _refine(lambda idx, x: h_of(x, o[p[idx], j[idx]]), ends[b],
                     ends[b + 1], h_lo[p, b, j], h_hi[p, b, j])
    order, start, grp_p, grp_value, size = _merge(p, values)
    p, j = p[order], j[order]
    # the roots of one o_j are further apart than MERGE_TOL (at a turning
    # point by the tolerance), unless they flank a pole, where h_j ~ 6k
    # fails their mean's residual
    group = np.repeat(np.arange(start.size), size)
    v = vec[p, :, j]
    a = _assemble(*terms(grp_value, np.zeros(1)), stack.overlap[grp_p])
    res = np.linalg.norm((a[group] @ v[:, :, None])[..., 0], axis=-1)
    residual = np.maximum.reduceat(res, start)
    groups = []
    for m in sorted(set(size.tolist())):
        g = np.nonzero(size == m)[0]
        rows = v[start[g, None] + np.arange(m)]  # (roots, m, active states)
        groups.append((g, rows.transpose(0, 2, 1)))
    return grp_p, grp_value, residual, groups


def _solve_axis(specs, axis: str, x_max, n_grid: int = N_GRID):
    """Roots on one axis of specs sharing their active states, by
    _scalar_roots if all are asymptotic, else by _finite_roots on an
    n_grid-point grid (n_grid >= 2): per spec the grid warnings and the
    roots by descending kappa or ascending s, with spin profiles if the
    spec has channels, taken per multiplicity in one stacked pass.  A
    residual above RESIDUAL_TOL is an error.  x_max holds each spec's
    window; the asymptotic specs of one solve share theirs (the caller's
    kappa_max or 10, or one s_max), so _scalar_roots reads the first."""
    warns: list[list[str]] = [[] for _ in specs]
    roots: list[list[ChannelRoot]] = [[] for _ in specs]
    if not specs or specs[0].active_states().size == 0:
        return warns, roots
    stack = _SpecStack(specs, axis)
    p, value, residual, groups = (
        _finite_roots(stack, axis, x_max, n_grid, warns) if stack.finite
        else _scalar_roots(stack, axis, x_max[0]))
    bad = np.nonzero(residual > RESIDUAL_TOL)[0]
    if bad.size:
        raise HyperangularError(
            f"root candidate at {axis} {float(value[bad[0]])} has residual "
            f"{residual[bad[0]]:.3e}")
    has = np.array([s.channels is not None for s in specs])
    # identity rows stand in for specs without channels and are never read
    vectors = np.array([np.eye(3) if s.channels is None else s.channels.vectors
                        for s in specs])
    null, profile = [None] * p.size, [None] * p.size
    for g, active in groups:
        # each column's largest-magnitude entry positive, zeros on the
        # closed states
        top = np.take_along_axis(
            active, np.argmax(np.abs(active), axis=1)[:, None, :], 1)
        nv = np.zeros((g.size, stack.n_states, active.shape[-1]))
        nv[:, stack.active, :] = np.where(top < 0.0, -active, active)
        keep = has[p[g]]
        if keep.any():
            for i, prof in zip(g[keep].tolist(),
                               _spin_profiles(nv[keep], vectors[p[g[keep]]])):
                profile[i] = prof
        for i, v in zip(g.tolist(), nv):
            null[i] = v
    for q, v, r, nv, prof in zip(p.tolist(), value.tolist(), residual.tolist(),
                                 null, profile):
        roots[q].append(ChannelRoot(axis, v, nv, r, prof))
    if axis == "imaginary":
        for r in roots:
            r.reverse()
    return warns, roots


def _point_roots(specs, axis, x_maxes,
                 warning_sinks) -> list[list[ChannelRoot]]:
    """Roots of every spec of a list on one axis, one _solve_axis call per
    mode and active-state set, so each spec's roots are those it has
    alone; spec j's warnings go to warning_sinks[j], or to the warnings
    module when warning_sinks is None."""
    solved = [None] * len(specs)
    batches: dict[tuple, list[int]] = {}
    for j, spec in enumerate(specs):
        batches.setdefault((spec.mode, spec.n_states,
                            tuple(spec.active_states())), []).append(j)
    for idx in batches.values():
        for j, w, r in zip(idx, *_solve_axis([specs[j] for j in idx], axis,
                                             [x_maxes[j] for j in idx])):
            solved[j] = r
            for message in w:
                if warning_sinks is not None:
                    warning_sinks[j].append(message)
                else:
                    warnings.warn(message, GridResolutionWarning, stacklevel=3)
    return solved


def find_roots_imaginary_batch(specs, kappa_max: float | None = None,
                               warning_sinks: list | None = None
                               ) -> list[list[ChannelRoot]]:
    """find_roots_imaginary for every spec of a list, solved together;
    warning_sinks, when given, holds one list per spec that receives that
    spec's warnings."""
    x_maxes = [_kappa_window(spec, kappa_max) for spec in specs]
    return _point_roots(specs, "imaginary", x_maxes, warning_sinks)


def find_roots_imaginary(spec: ChannelMatrixSpec,
                         kappa_max: float | None = None,
                         warning_sink: list | None = None) -> list[ChannelRoot]:
    """All imaginary-axis roots s = i kappa with kappa in (0, kappa_max],
    sorted by descending kappa (the most attractive channel first); the
    one-spec case of find_roots_imaginary_batch."""
    sinks = None if warning_sink is None else [warning_sink]
    return _point_roots([spec], "imaginary", [_kappa_window(spec, kappa_max)],
                        sinks)[0]


def find_roots_real(spec: ChannelMatrixSpec, s_max: float,
                    warning_sink: list | None = None) -> list[ChannelRoot]:
    """Real-axis roots in (0, s_max], sorted ascending."""
    _check_s_max(s_max)
    sinks = None if warning_sink is None else [warning_sink]
    return _point_roots([spec], "real", [s_max], sinks)[0]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """Roots at one (theta, R) point.  curve_ids aligns with the roots
    expanded by multiplicity (a double root occupies two curve slots)."""

    theta: float
    hyperradius: float | None
    mode: str
    roots: tuple[ChannelRoot, ...]
    curve_ids: tuple[int, ...]

    def expanded(self) -> list[tuple[int, ChannelRoot]]:
        out = []
        pos = 0
        for r in self.roots:
            for _ in range(r.multiplicity):
                out.append((self.curve_ids[pos], r))
                pos += 1
        return out


@dataclass
class SweepTable:
    """Rows of a theta or radius sweep plus window metadata."""

    kind: str  # "theta" | "radius"
    rows: list[SweepRow]
    window: dict
    warnings: list[str]

    def curve_series(self, axis: str = "imaginary") -> dict[int, list[tuple]]:
        """curve id -> [(theta, R, value), ...] in row order."""
        series: dict[int, list[tuple]] = {}
        for row in self.rows:
            for cid, root in row.expanded():
                if root.axis != axis:
                    continue
                series.setdefault(cid, []).append(
                    (row.theta, row.hyperradius, root.value))
        return series


class _CurveMatcher:
    """Continuity labeling: each root slot inherits the id of the nearest
    slot from the previous sweep point, new slots open new curves.  The
    match window grows with the value so that fast dimer-limit roots
    (kappa ~ sqrt(2) R/a, moving multiplicatively on a log R grid) stay on
    one curve."""

    jump_tol, rel_tol = 0.3, 0.35

    def __init__(self):
        self.next_id = 0
        self.last: dict[str, list[tuple[int, float]]] = {}

    def assign(self, axis: str, values: list[float]) -> list[int]:
        prev = self.last.get(axis, [])
        taken = set()
        ids: list[int] = []
        for v in values:
            best = None
            best_d = math.inf
            for idx, (cid, old) in enumerate(prev):
                if idx in taken:
                    continue
                d = abs(v - old)
                if d <= max(self.jump_tol, self.rel_tol * abs(old)) and d < best_d:
                    best, best_d = idx, d
            if best is None:
                ids.append(self.next_id)
                self.next_id += 1
            else:
                taken.add(best)
                ids.append(prev[best][0])
        self.last[axis] = list(zip(ids, values))
        return ids


def _sweep(kind: str, thetas, radii, a_alpha, a_beta, a_gamma, kappa_max,
           s_max) -> SweepTable:
    """Root lists at the points (thetas[i], radii[i]) with fixed
    lengths/flags, every axis scanned and refined across all points at
    once; roots on adjacent points are matched into labeled curves."""
    if s_max:
        _check_s_max(s_max)
    lengths = (as_length(a_alpha), as_length(a_beta), as_length(a_gamma))
    if kind == "theta":  # the spin layer of every theta as one stack
        overlaps = _exchange_overlaps(_angle_channels(thetas, *lengths))
    else:  # one theta for every R
        overlaps = [exchange_overlap(channels_from_angle(thetas[0], *lengths))
                    ] * len(radii)
    # the points share one length triple, their overlaps come from one
    # checked stack (exactly symmetric) and their radii from a checked
    # grid, so the first point's check stands for every spec
    first = ChannelMatrixSpec.from_overlap(overlaps[0], radii[0])
    specs = [first] + [
        _prechecked(ChannelMatrixSpec, lengths=first.lengths,
                    overlap=o.matrix, state_channel=first.state_channel,
                    hyperradius=r, channels=o.channels)
        for o, r in zip(overlaps[1:], radii[1:])]
    kappa_maxes = [_kappa_window(spec, kappa_max) for spec in specs]
    scans = [("imaginary", _solve_axis(specs, "imaginary", kappa_maxes))]
    if s_max:
        scans.append(("real",
                      _solve_axis(specs, "real", [s_max] * len(specs))))

    matcher = _CurveMatcher()
    rows: list[SweepRow] = []
    all_warnings: list[str] = []
    for p in range(len(specs)):
        where = (f"theta={thetas[p]:.6g}" if kind == "theta"
                 else f"R={radii[p]:.6g}")
        roots: tuple[ChannelRoot, ...] = ()
        ids: list[int] = []
        for axis, (warns, solved) in scans:
            all_warnings.extend(f"{where}: {w}" for w in warns[p])
            axis_roots = solved[p]
            roots += tuple(axis_roots)
            ids.extend(matcher.assign(axis, [r.value for r in axis_roots
                                             for _ in range(r.multiplicity)]))
        rows.append(SweepRow(float(thetas[p]), radii[p], specs[p].mode, roots,
                             tuple(ids)))
    window = {
        "a_alpha": lengths[0].describe(),
        "a_beta": lengths[1].describe(),
        "a_gamma": lengths[2].describe(),
    }
    return SweepTable(kind, rows, window, all_warnings)


def theta_sweep(thetas, a_alpha, a_beta, a_gamma,
                hyperradius: float | None = None,
                kappa_max: float | None = None,
                s_max: float | None = None) -> SweepTable:
    """Root lists over an ascending theta grid with fixed lengths/flags;
    roots on adjacent grid points are matched into labeled curves."""
    thetas = np.asarray(list(thetas), dtype=float)
    if thetas.size == 0 or np.any(np.diff(thetas) <= 0):
        raise HyperangularError("theta grid must be nonempty and ascending")
    if hyperradius is not None and not any(
            as_length(a).kind == "finite" for a in (a_alpha, a_beta, a_gamma)):
        raise HyperangularError("asymptotic mode takes no hyperradius")
    return _sweep("theta", thetas, [hyperradius] * thetas.size, a_alpha,
                  a_beta, a_gamma, kappa_max, s_max)


def radius_sweep(theta: float, a_alpha, a_beta, a_gamma, radii,
                 kappa_max: float | None = 10.0,
                 s_max: float | None = None) -> SweepTable:
    """Finite-mode root lists over an ascending log-spaced R grid at fixed
    theta.  kappa_max defaults to 10: the plateau-region curves are O(1),
    while the dimer root at sqrt(2) R/a would force a uniform grid far too
    coarse to resolve them."""
    radii = np.asarray(list(radii), dtype=float)
    if radii.size == 0 or not radii[0] > 0 or not np.all(np.diff(radii) > 0):
        raise HyperangularError("R grid must be nonempty, positive, ascending")
    if any(as_length(a).kind == "unitary" for a in (a_alpha, a_beta, a_gamma)):
        raise HyperangularError(
            "a radius sweep runs in finite mode; unitary channels have no R/a")
    return _sweep("radius", [theta] * radii.size, [float(r) for r in radii],
                  a_alpha, a_beta, a_gamma, kappa_max, s_max)


# ---------------------------------------------------------------------------
# plateau extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plateau:
    curve_id: int
    kappa: float
    radius: float
    flatness: float  # |d kappa / d ln R| at the stationary point
    accepted: bool


@dataclass(frozen=True)
class PlateauSummary:
    plateaus: tuple[Plateau, ...]
    window: tuple[float, float] | None
    no_plateau_reason: str | None = None


#: scale separation below which no plateau window exists
MIN_SCALE_SEPARATION = 1e4
#: plateau acceptance bound on |d kappa / d ln R|
FLATNESS_TOL = 1e-2


def plateau_extract(table: SweepTable) -> PlateauSummary:
    """Stationary values of each imaginary root curve inside the window
    10 |a_alpha| <= R <= |a_beta| / 10 of a fixed-theta radius sweep."""
    if table.kind != "radius":
        raise HyperangularError("plateau extraction needs a radius sweep")
    try:
        a_lo = abs(float(table.window["a_alpha"]))
        a_hi = abs(float(table.window["a_beta"]))
    except (ValueError, TypeError):
        raise HyperangularError(
            "plateau extraction needs finite a_alpha and a_beta") from None
    if a_hi / a_lo < MIN_SCALE_SEPARATION:
        return PlateauSummary(
            (), None,
            f"no plateau: scale separation a_beta/a_alpha = {a_hi / a_lo:.3g}"
            f" is below {MIN_SCALE_SEPARATION:.0e}")
    lo, hi = 10.0 * a_lo, a_hi / 10.0

    plateaus = []
    for cid, points in sorted(table.curve_series("imaginary").items()):
        rs = np.array([p[1] for p in points])
        ks = np.array([p[2] for p in points])
        if rs.size < 3:
            continue
        x = np.log(rs)
        dk = np.gradient(ks, x)
        inside = (rs >= lo) & (rs <= hi)
        if np.count_nonzero(inside) < 3:
            continue
        idx = np.nonzero(inside)[0]
        best = idx[np.argmin(np.abs(dk[idx]))]
        flat = float(abs(dk[best]))
        plateaus.append(Plateau(cid, float(ks[best]), float(rs[best]), flat,
                                flat < FLATNESS_TOL))
    if not plateaus:
        return PlateauSummary((), (lo, hi),
                              "no plateau: no imaginary curve spans the window")
    return PlateauSummary(tuple(plateaus), (lo, hi))
