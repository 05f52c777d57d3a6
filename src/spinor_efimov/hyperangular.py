"""Fixed-hyperradius channel problem and its root structure.

The zero-range reduction of the hyperangular equation turns each fixed R
into a transcendental matrix condition det M(s; R) = 0 over the six
(eigenchannel, spectator) states,

    M = diag[ s cos(s pi/2) - sqrt(2) (R/a_i) sin(s pi/2) ]
        - (4/sqrt(3)) sin(s pi/6) * O,

with the R/a term dropped for unitary channels and closed channels
eliminated outright.  On the imaginary axis s = i kappa the matrix is
i * H(kappa) with H real symmetric, so all roots sit on the real or the
imaginary axis.  Both axes are built in one congruent form, the
overflow-safe 2 exp(-kappa pi/2) D H D on the imaginary axis and D M D on
the real one (D a positive diagonal); by Sylvester's law it moves no
root, changes no multiplicity and maps null spaces through D.  The root
finders scan it, and channel_matrix divides out its positive factor to
give M and H.  _SpecStack holds the arrays every evaluation reads (the
active overlap, R/a and D), stacked over the specs solved together.

The lengths fix the mode.  In asymptotic mode (no finite channel)
R/a = 0 and D = I, so on both axes the matrix is f(x) I - g(x) O with O
the active overlap: its roots solve the per-eigenvalue Efimov equations
h_j = f - g o_j = 0 over the eigenvalues o_j of O, whose eigenvectors
span the null spaces.  No grid is scanned: phi = f/g is monotone on the
imaginary axis and between its turning points and poles on the real one,
so each such branch holds one root of h_j where h_j changes sign over
it.  One table of phi over each branch, shared by every spec solved
together, narrows that bracket to one table step (scalar).

Finite mode rests on the form of every overlap ChannelMatrixSpec admits,
O = 2I - 3 V V^T with V of at most two orthonormal columns: the matrix
is D' + 3k V V^T with D' = diag(d - 2k), so one 2x2 Schur complement
gives the number of its eigenvalues below a shift (Haynsworth inertia
additivity) and its determinant (the matrix determinant lemma), without
eigvalsh.  Sorted eigenvalue curve k is negative exactly where the count
at zero exceeds k.  An N_GRID-point grid is scanned coarse to fine, in
cells of 256, 64, 16 and 4 steps, and two counts close a cell no curve
can reach zero in (by Weyl's inequality a curve moves no faster than
||A'||_2, which the closed-form entries bound; Kato, Perturbation Theory
for Linear Operators, ch. II); the points of the open cells are counted
at zero.  A cell whose end counts differ holds a root: it is split on
counts while they differ by more than one, then refined on the
determinant.  Where the determinant dips towards zero between equal
counts, the two cells are counted at 65 points, which turns a root pair
inside one cell into two brackets or a warning.  On the real axis
sin(pi s/2) = 0 at s = 2 and s = 4, where the matrix is -6 (I - V V^T)
and 3k V V^T: known roots, singular on the unit singular values of V and
off its range.
Either way every bracket goes through one value-only refinement,
safeguarded Illinois regula falsi (refine._refine), and a root's
residual comes from the assembled matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import scalar
from .refine import _EPS, _refine, _tol
from .spin import (
    ChannelLength,
    ExchangeOverlap,
    TwoBodyChannelSet,
    _angle_channels,
    _exchange_overlaps,
    _positive_lead,
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
#: bound on the entries of O^2 - O - 2I for an admitted overlap O
_FORM_TOL = 1e-10
#: two refined roots on distinct curves closer than this merge into one
MERGE_TOL = 1e-8
#: lower edge of the scan grid; s = 0 is a removable parametrization point
GRID_EPS = 1e-8
#: number of scan-grid points
N_GRID = 2000
#: points per inertia-count call, held where the largest temporary (3 x 6
#: x 1536 doubles) stays under 256 KB for the benchmark's sake, not for
#: speed: larger blocks count faster, but their freed temporaries decide
#: whether the 256 KB temporaries of perfbench/worker.calibrate come from
#: the heap or from mmap, which moves its time and so every scaled time.
#: Choose it for speed once the calibration does not depend on the heap
#: (ROADMAP item 1c).
_COUNT_BLOCK = 1536
#: cell widths in grid steps of the finite-mode scan, coarse to fine
_LEVELS = (256, 64, 16, 4)
#: how far the real-axis grid moves a point off an even integer
_NUDGE = 1e-6
#: bound on 1 - sigma^2 for a unit and on sigma^2 for a zero singular
#: value sigma of V at the known roots (physical V are exact to ~1e-15)
_RANK_TOL = 1e-12
#: how far the scan keeps off the known real roots s = 2 and s = 4:
#: beyond the round-off of a tangent root there (sqrt(eps) ~ 1e-8), and
#: well inside a grid step
_GAP = 1e-7
#: points of the fine scan of a near-zero dip, over its two grid cells
_FINE = 65
#: error bound of a computed normalized eigenvalue, relative to the bound
#: 1 + 2x + (4/sqrt(3)) ||D O D|| on the matrix norm at x (about 4,500 eps;
#: eigh is backward stable and the entries carry a few eps each)
_EIG_ERR = 1e-12


class HyperangularError(ValueError):
    pass


def _check_form(overlaps: np.ndarray) -> None:
    """Refuse a stack (P, n, n) of symmetric overlaps unless each has the
    form 2I - 3 V V^T with V of at most two orthonormal columns: O^2 = O +
    2I to _FORM_TOL, and 2n - trace O = 3 rank V at most 6."""
    n = overlaps.shape[-1]
    form = overlaps @ overlaps - overlaps
    form[:, range(n), range(n)] -= 2.0
    # 2n - trace O = 3 rank V, a multiple of 3
    if np.abs(form).max(initial=0.0) > _FORM_TOL or np.max(
            2.0 * n - np.trace(overlaps, axis1=1, axis2=2),
            initial=0.0) > 7.5:
        raise HyperangularError("overlap must have the form 2I - 3 V V^T "
                                "(O^2 = O + 2I) with rank V <= 2")


def _check_finite(lengths, radius) -> None:
    """Refuse finite-mode lengths with a unitary channel, and R unless R >
    0 and the kappa window 10 + 2 sqrt(2) R/|a| of every finite length a
    is finite."""
    if any(l.kind == "unitary" for l in lengths):
        raise HyperangularError("finite and unitary channels do not mix")
    if radius is None or not radius > 0.0:
        raise HyperangularError("finite mode requires hyperradius > 0")
    for l in lengths:
        if l.kind == "finite" and not math.isfinite(
                2.0 * SQRT2 * radius / abs(l.value)):
            raise HyperangularError(
                f"R/a is not finite in double precision at R = {radius:g} "
                f"and a = {l.value:g}")


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
    overlap must be 2I - 3 V V^T with V of at most two orthonormal
    columns: O^2 = O + 2I to _FORM_TOL, and 2n - trace O = 3 rank V at
    most 6, checked for a raw array, true of every ExchangeOverlap.
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
        o = 0.5 * (o + o.T)
        _check_form(o[None])
        if self.mode == "finite":
            _check_finite(self.lengths, self.hyperradius)
        object.__setattr__(self, "overlap", o)  # frozen

    @property
    def mode(self) -> str:
        """"finite" when any channel length is finite, else "asymptotic"."""
        return ("finite" if any(l.kind == "finite" for l in self.lengths)
                else "asymptotic")

    @staticmethod
    def from_overlap(overlap: ExchangeOverlap,
                     hyperradius: float | None = None) -> "ChannelMatrixSpec":
        """The six-state problem of the overlap's channel set; only the
        lengths and R are checked (the overlap has the form it needs)."""
        spec = _prechecked_spec(overlap, hyperradius)
        if spec.mode == "finite":
            _check_finite(spec.lengths, hyperradius)
        return spec

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


def _prechecked_spec(overlap: ExchangeOverlap,
                     hyperradius) -> ChannelMatrixSpec:
    """ChannelMatrixSpec.from_overlap without its checks, for lengths and
    R its caller has checked."""
    return _prechecked(ChannelMatrixSpec, lengths=tuple(
        overlap.channels.lengths), overlap=overlap.matrix,
        state_channel=(0, 0, 1, 1, 2, 2), hyperradius=hyperradius,
        channels=overlap.channels)


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

def _spin_weights(null_vectors: np.ndarray, vectors: np.ndarray):
    """Spin weights of roots sharing a multiplicity m, from their null
    vectors (roots, 6, m) and the channel vectors (roots, 3, 3) of their
    channel sets, in one stacked product: each null vector, shaped
    (channel, spectator), is rotated onto the fixed (pair basis state,
    spectator) configurations and the squared amplitudes are averaged.
    Returns the (roots, 3, 2) weights and each root's same-level and
    mixed totals.

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
    return weights, same, total - same


def classify_root(null_vectors: np.ndarray, channels: TwoBodyChannelSet):
    """The spin weights (3, 2) of one root and their same-level and mixed
    totals, from its null vectors (columns over the six states) and its
    channel set; see _spin_weights."""
    weights, same, mixed = _spin_weights(null_vectors[None],
                                         channels.vectors[None])
    return weights[0], float(same[0]), float(mixed[0])


@dataclass(frozen=True)
class RootTable:
    """Roots s_nu of the channel problem as columns, by point (a spec of
    one solve, or a sweep point) and within one imaginary roots by
    descending kappa before real ones by ascending s.  value is kappa =
    |s| for an imaginary root and s for a real one; residual bounds what
    the normalized matrix leaves of its null vectors at the root.  spin
    holds each root's (3, 2) spin weights and same and mixed their
    same-level and mixed totals, NaN for a point without channels; null
    holds the null vectors of the roots of each multiplicity m as (root
    indices, (roots, states, m) array): orthonormal columns over the full
    state list, exact zeros on closed channels, each column's
    largest-magnitude entry positive."""

    point: np.ndarray
    real: np.ndarray  # bool: a real-axis root
    value: np.ndarray
    multiplicity: np.ndarray
    residual: np.ndarray
    spin: np.ndarray
    same: np.ndarray
    mixed: np.ndarray
    null: tuple

    def null_space(self, i: int) -> np.ndarray:
        """Root i's null vectors, (states, multiplicity)."""
        for idx, vectors in self.null:
            hit = np.nonzero(idx == i)[0]
            if hit.size:
                return vectors[hit[0]]
        raise IndexError(f"no root {i}")


# ---------------------------------------------------------------------------
# root finding by inertia counts
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


def _grid(axis: str, x_max, n: int, i) -> np.ndarray:
    """Points i of the n-point scan grid over (0, x_max] of an axis, with
    x_max and i broadcast: np.linspace(GRID_EPS, x_max, n)[i], moved
    _NUDGE off even integers on the real axis, where sin(s pi/2) = 0
    makes the diagonal entries of every channel coincide (at s = 4 every
    pivot of the counts vanishes).  n >= 2."""
    x = i * ((x_max - GRID_EPS) / (n - 1)) + GRID_EPS
    x = np.where(i == n - 1, x_max, x)
    if axis == "real":
        even = 2.0 * np.round(x / 2.0)
        x = np.where((np.abs(x - even) < _NUDGE) & (even > 0.0),
                     even + np.where(x >= even, _NUDGE, -_NUDGE), x)
    return x


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

    A finite stack also holds V, the -1 eigenvectors of each overlap (one
    stacked eigh, zero-padded to two columns).  The normalized matrix is
    diag(e) + 3k W W^T, e the diagonal of C D' C and W = C V_a (V_a the
    active rows of V), which the counts read; on the real axis it keeps
    the multiplicities of the known roots s = 2 and s = 4 (see
    _finite_roots)."""

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
            v = v[:, act]
            if axis == "real":  # the multiplicities of s = 2 and s = 4
                sv2 = np.linalg.svd(v, compute_uv=False) ** 2
                self.known = ((2.0, np.sum(sv2 >= 1.0 - _RANK_TOL, axis=1)),
                              (4.0, act.size - np.sum(sv2 > _RANK_TOL, 1)))
            w = (v * d[..., None]).T  # (column, active state, spec)
            # w_0^2, w_1^2 and w_0 w_1, whose sums over the states weighted
            # by 1/(e - t) give W^T (E - t)^-1 W, and |w|^2 for its bound
            self.weights = np.stack(
                (w[0] ** 2, w[1] ** 2, w[0] * w[1], w[0] ** 2 + w[1] ** 2))

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

    def width(self, p, lo, hi, h) -> np.ndarray:
        """L (hi - lo)/2 + L h + margin for cells [lo, hi] of spec p (flat
        arrays; h a bound on the grid step, L = lipschitz over [lo - h,
        hi + h]): each curve moves at most L (hi - lo)/2 from the centre
        (Weyl), so if no eigenvalue there is that near zero, no curve comes
        within L h + margin of zero in the cell.  The margin leaves room
        for round-off: six eigenvalue errors for the matrix and the
        count's own arithmetic, and |k| <= 4/sqrt(3) times n _FORM_TOL/2,
        a bound on ||O - (2I - 3 V V^T)||_2 for an overlap of the spec's
        form (each eigenvalue (l - 2)(l + 1) of O^2 - O - 2I is
        at most n _FORM_TOL, so l is within about a third of that of 2 or
        -1)."""
        lip = self.lipschitz(p, np.maximum(lo - h, 0.0), hi + h)
        return lip * (0.5 * (hi - lo) + h) + 6.0 * _eig_err(
            hi + h, self.kernel_norm[p]) \
            + 0.5 * KERNEL_COEFF * self.n_states * _FORM_TOL

    def excludes(self, p, lo, hi, h) -> np.ndarray:
        """Whether counts at -+width prove that no curve comes within L h
        + margin of zero in the cells.  A point with no curve that close
        keeps every sign to its neighbours and is no dip, so no sign
        change or dip of the full grid uses it."""
        t = self.width(p, lo, hi, h)
        below = self.count_below(p, 0.5 * (lo + hi), np.array([t, -t]))
        return (below[0] == below[1]) & (below[0] >= 0)

    def count_below(self, p, x, t) -> np.ndarray:
        """Number of eigenvalues of matrices(p, x) below each shift t
        (shape (shifts, points) or (shifts, 1), x and p flat), or -1 where
        round-off could change it or t is not finite.  By Haynsworth's
        inertia additivity on [[E_t, W], [W^T, -I/(3k)]] (Linear Algebra
        Appl. 1, 1968) it is neg(E_t) + neg(S) - 2[k > 0] with E_t =
        diag(e - t) and the 2x2 S = -I/(3k) - W^T E_t^-1 W, computed from
        S' = -3k S = I + 3k W^T E_t^-1 W, which stays finite as k -> 0:
        neg(S) - 2[k > 0] = -sgn(k) neg(S').  The count is that of the
        computed e, k and W (whose distance to the matrix the margin
        covers) whenever the error bound of the computed S' leaves the
        signs of its eigenvalues fixed; a pivot of E_t within round-off of
        zero makes that bound swamp det S'."""
        t = np.broadcast_to(t, t.shape[:1] + x.shape)
        return np.concatenate([np.zeros(t.shape[:1] + (0,), dtype=int)] + [
            self._count(p[part], x[part], t[:, part])[0]
            for part in _blocks(x.size)], axis=1)

    def at_zero(self, p, x):
        """count_below(p, x, 0) and F = det A / prod_j max(1, |e_j|) for
        A = matrices(p, x), flat p and x.  By the matrix
        determinant lemma (Golub, SIAM Rev. 15, 1973) det A = det E det S',
        so F = det S' prod_j clip(e_j, -1, 1): of the sign (-1)^count and
        finite where an e_j vanishes.  Read off the count's S', it is as
        accurate as the count, also near a close root pair, where a sum
        over the minors of A is round-off; next to a pole it is within
        about eps/|e_j| of its value (det S' cancels terms in 1/e_j^2)."""
        below, f = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for part in _blocks(x.size):
            c, det, e = self._count(p[part], x[part], np.zeros((1, 1)))
            for row in np.clip(e, -1.0, 1.0):  # in order, whatever the size
                det = det * row
            below.append(c[0])
            f.append(det[0])
        f = np.concatenate(f)
        return np.concatenate(below), f

    def _count(self, p, x, t):
        """count_below's counts, det S' and e at one block."""
        kern, diag = self.terms(x, np.take(self.r_over_a, p, axis=0))
        diag -= 2.0 * kern[:, None]
        diag /= np.take(self.stretch, p, axis=0)
        # an e_j far inside round-off of zero, as where a refinement lands
        # on the root of a state no column of W reaches, keeps 1/e_j finite
        diag[np.abs(diag) < _EPS ** 2] = _EPS ** 2
        e = diag.T
        # arrays (states, shifts, points); np.take is several times faster
        # than fancy indexing here, and the sums over the (at most six)
        # states run in order whatever the number of points, so a point's
        # values do not depend on its batch (einsum's order does)
        inv = np.subtract(e[:, None], t)  # E_t
        neg = np.count_nonzero(inv < 0.0, axis=0)
        w = 3.0 * kern
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.reciprocal(inv, out=inv)
            s00, s11, s01 = w * np.sum(
                inv * np.take(self.weights[:3], p, axis=2)[:, :, None], axis=1)
            s00, s11 = s00 + 1.0, s11 + 1.0
            det = s00 * s11 - s01 * s01
            size = np.abs(s00) + np.abs(s11) + 2.0 * np.abs(s01)
            # a bound on ||S'_computed - S'||_2 plus det's own round-off
            bound = np.sum(np.abs(inv, out=inv) * np.take(
                self.weights[3], p, axis=1)[:, None], axis=0)
            err = 32.0 * _EPS * (1.0 + np.abs(w) * bound) + 4.0 * _EPS * size
            ok = (np.abs(det) > err * size) & np.isfinite(t)
        below = np.where(det < 0.0, 1, np.where(s00 < 0.0, 2, 0))
        neg += np.where(kern > 0.0, -below, below)
        return np.where(ok, neg, -1), det, e


def _blocks(n):
    """Slices of at most _COUNT_BLOCK of n points."""
    return (slice(i, i + _COUNT_BLOCK) for i in range(0, n, _COUNT_BLOCK))


def _runs(count):
    """Owner and offset of each item when item c owns count[c] items."""
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(count) - count,
                                                    count)


def _finite_scan(stack: _SpecStack, axis: str, x_max: np.ndarray, n: int):
    """Every spec's grid points that a sign change or a dip can use: flat
    arrays (spec, grid index, point) in (spec, index) order, and per spec
    a bound on the grid step.  Each level of _LEVELS splits the open
    cells (at first each spec's whole grid) into cells of its width and
    closes those _SpecStack.excludes proves empty; the points of the
    cells left open are returned."""
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
    return p, i, _grid(axis, x_max[p], n, i), h


def _isolate(stack, *brackets):
    """Split brackets (p, lo, hi, c_lo, c_hi, f_lo, f_hi), counts at zero
    and F of at_zero at their ends, at 15 even points a round while the
    counts differ by more than one, and keep the pieces between certain
    counts that differ.  The brackets whose counts differ by one come
    back in the same form, and as roots (p, value, c_lo, c_hi) of every
    curve between their counts the midpoints of pieces no wider than
    _tol or that no count splits."""
    out, roots = [], [tuple(brackets[i][:0] for i in (0, 1, 3, 4))]
    while brackets[0].size:
        o = np.lexsort(brackets[1::-1])
        p, lo, hi, c_lo, c_hi, f_lo, f_hi = brackets = [a[o] for a in brackets]
        w = hi - lo
        one = np.abs(c_hi - c_lo) == 1
        out.append([a[one] for a in brackets])
        p, lo, w, c_lo, c_hi, f_lo, f_hi = (
            a[~one] for a in (p, lo, w, c_lo, c_hi, f_lo, f_hi))
        x = lo[:, None] + w[:, None] * (np.arange(17) / 16.0)
        c, f = stack.at_zero(np.repeat(p, 15), x[:, 1:-1].ravel())
        c = np.column_stack((c_lo, c.reshape(-1, 15), c_hi))
        f = np.column_stack((f_lo, f.reshape(-1, 15), f_hi))
        # a point whose count is uncertain gives way to its left neighbour
        k = np.maximum.accumulate(np.where(c >= 0, np.arange(17), 0), axis=1)
        x, c, f = (np.take_along_axis(a, k, 1) for a in (x, c, f))
        i, j = np.nonzero(c[:, 1:] != c[:, :-1])
        lo, hi = x[i, j], x[i, j + 1]
        done = (hi - lo >= w[i]) | (hi - lo <= _tol(lo, hi))
        roots.append((p[i][done], 0.5 * (lo + hi)[done], c[i, j][done],
                      c[i, j + 1][done]))
        brackets = [a[~done] for a in (p[i], lo, hi, c[i, j], c[i, j + 1],
                                       f[i, j], f[i, j + 1])]
    return ([np.concatenate(a) for a in zip(brackets, *out)],
            [np.concatenate(a) for a in zip(*roots)])


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


def _dips(stack, p, x, count, f, run, h):
    """The fine scans of the near-zero dips among points (p, x) with their
    counts and F, consecutive points of one run being neighbours: points
    j whose counts equal both neighbours', where a curve lies within the
    exclusion width (_SpecStack.width, h the step bound) of zero and |F|
    is below the left neighbour's, no larger than the right one's (one
    point of a tie) and no larger than its larger change to one, as where
    a curve comes close enough to zero to cross it twice inside the two
    cells.  Each is counted at _FINE points over [x_(j-1), x_(j+1)],
    a run of its own: those points (spec, point, count, F, run), and the
    dips (spec, curve, left, right) whose scan has no sign change and
    still grazes zero, |F| below a quarter of its largest change between
    fine points (the curve: count - 1 if it is the one near zero)."""
    mag, step = np.abs(f), np.abs(np.diff(f))
    flat = (run[1:] == run[:-1]) & (count[1:] == count[:-1])
    centre = mag[1:-1]
    j = 1 + np.flatnonzero(flat[:-1] & flat[1:] & (centre < mag[:-2])
                           & (centre <= mag[2:])
                           & ~(centre > np.maximum(step[:-1], step[1:])))
    t = stack.width(p[j], x[j], x[j], h[p[j]])
    below = stack.count_below(p[j], x[j], np.array([-t, t]))
    near = below[0] != below[1]
    j, low = j[near], (below[0] < count[j])[near]
    fx = np.linspace(x[j - 1], x[j + 1], _FINE, axis=1)
    fp, fr = np.repeat(p[j], _FINE), np.repeat(np.arange(j.size), _FINE)
    fc, ff = stack.at_zero(fp, fx.ravel())
    fine = ff.reshape(fx.shape)
    graze = np.all(((fc == count[j][fr]) | (fc < 0)).reshape(fx.shape),
                   axis=1) & (np.min(np.abs(fine), axis=1) < 0.25 * np.max(
                       np.abs(np.diff(fine)), axis=1, initial=0.0))
    g = j[graze]
    return ((fp, fx.ravel(), fc, ff, fr),
            list(zip(p[g].tolist(), (count[g] - low[graze]).tolist(),
                     x[g - 1], x[g + 1])))


def _finite_roots(stack: _SpecStack, axis: str, x_max, n_grid: int, warns):
    """Roots of finite-mode specs, arrays (spec, value, residual) and
    their null vectors as pairs (roots, null vectors (roots, active
    states, m)), one per multiplicity m.  The points _finite_scan keeps
    and the fine scans of their dips (_dips) are counted at zero; a point
    whose count round-off could change is dropped and its neighbours
    meet.  The cells whose end counts differ go through _isolate, and its
    one-curve brackets through _refine on F.  The multiplicity is the
    number of curves merged or, if larger, of eigenvalues within _eig_err
    of zero at the root (the null-space dimension); that many
    smallest-|lambda| eigenvectors, the congruence undone and
    re-orthonormalized, are the null vectors.  On the real axis s = 2 and
    s = 4 are roots of the multiplicity V_a gives them, if positive: its
    unit singular values at s = 2, the active states less its rank at
    s = 4; a cell across one is counted instead up to _GAP short of it on
    either side.  A dip that still grazes zero is a warning unless a root
    whose null-space count raised its multiplicity lies in it."""
    x_max = np.array(x_max)
    p, i, x, h = _finite_scan(stack, axis, x_max, n_grid)
    link = (p[1:] == p[:-1]) & (i[1:] == i[:-1] + 1)
    cut, known = [], []
    for s0, mult in stack.known if axis == "real" else ():
        j = np.flatnonzero(link & (x[:-1] < s0) & (x[1:] > s0)
                           & (mult[p[:-1]] > 0))
        link[j] = False
        cut.append((np.repeat(p[j], 4), np.column_stack((
            x[j], np.full(j.size, s0 - _GAP), np.full(j.size, s0 + _GAP),
            x[j + 1])).ravel(), np.arange(4 * j.size) // 2))
        q = np.flatnonzero((mult > 0) & (x_max >= s0))
        known.append((q, np.full(q.size, s0), mult[q]))
    count, f = stack.at_zero(p, x)
    run = np.cumsum(np.concatenate(([0], ~link)))
    fine, grazing = _dips(stack, *(a[count >= 0] for a in (
        p, x, count, f, run)), h)
    points, base = [(p, x, count, f, run)], run.size
    for q, xs, c, g, r in [fine] + [(q, xs, *stack.at_zero(q, xs), r)
                                    for q, xs, r in cut]:
        # each fine scan and cut cell a run of its own
        points.append((q, xs, c, g, r + base))
        base += r.size
    p, x, count, f, run = (np.concatenate(a) for a in zip(*points))
    ok = count >= 0
    p, x, count, f, run = (a[ok] for a in (p, x, count, f, run))
    j = np.flatnonzero((run[1:] == run[:-1]) & (count[1:] != count[:-1]))
    (p, lo, hi, c_lo, c_hi, f_lo, f_hi), (q, root, n_lo, n_hi) = _isolate(
        stack, p[j], x[j], x[j + 1], count[j], count[j + 1], f[j], f[j + 1])
    values = _refine(lambda idx, v: stack.at_zero(p[idx], v)[1],
                     lo, hi, f_lo, f_hi)
    # a root of several curves stands once for each
    owner, k = _runs(np.abs(n_hi - n_lo))
    k = np.concatenate((np.minimum(c_lo, c_hi),
                        k + np.minimum(n_lo, n_hi)[owner]))
    order, start, grp_p, grp_value, size = _merge(
        np.concatenate((p, q[owner])), np.concatenate((values, root[owner])))
    # a run counts each curve once: two brackets of one curve (a tangent
    # pair split by round-off) can refine to within MERGE_TOL
    curves = np.zeros((start.size, stack.active.size), dtype=bool)
    curves[np.repeat(np.arange(start.size), size), k[order]] = True
    mult = np.count_nonzero(curves, axis=1)
    if known:  # each _GAP > MERGE_TOL from every refined root
        grp_p, grp_value, mult = (np.concatenate(a) for a in zip(
            (grp_p, grp_value, mult), *known))
        o = np.lexsort((grp_value, grp_p))
        grp_p, grp_value, mult = grp_p[o], grp_value[o], mult[o]
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


def _branch_ends(axis: str, x_max: float) -> np.ndarray:
    """Ends of the monotone branches of phi over the window [GRID_EPS,
    top] of an axis, top the scan grid's last point (scalar._ends)."""
    return scalar._ends(GRID_EPS, float(_grid(axis, x_max, 2, 1)),
                        axis == "real")


def _scalar_h(axis: str, x, o_j):
    """h_j = f - g o_j of the asymptotic matrix f(x) I - g(x) O (R/a = 0)
    at x, elementwise over the broadcast shape of x and o_j."""
    g, f = _AXES[axis][0](x, np.zeros(1))
    return f[..., 0] - g * o_j


def _scalar_roots(stack: _SpecStack, axis: str, x_max: float):
    """Roots of asymptotic specs (D = I) in their shared window x_max, as
    _finite_roots gives them, from h_j = f - g o_j over the overlaps'
    eigenpairs, bracketed by scalar._brackets.  No root is tangent: the
    eigenvalues o_j of an admitted active overlap 2I - 3 V_a V_a^T lie in
    [-1, 2] (2 and -1 alone with no channel closed), and the turning
    values of phi nearest that range are -1.00832 (at s = 2.0836) and
    2.14316 (at s = 4.2446).  _refine solves all brackets at once from
    the values of h_j.  A root's null vectors are the eigenvectors of its
    o_j, its residual their largest ||A(x) v||."""
    o, vec = np.linalg.eigh(stack.overlap)
    p, j, lo, hi, h_lo, h_hi = scalar._brackets(
        _AXES[axis][0], _branch_ends(axis, x_max), o)
    values = _refine(lambda idx, x: _scalar_h(axis, x, o[p[idx], j[idx]]),
                     lo, hi, h_lo, h_hi)
    order, start, grp_p, grp_value, size = _merge(p, values)
    p, j = p[order], j[order]
    # the roots of one o_j are further apart than MERGE_TOL unless they
    # flank a pole, where h_j ~ 6k fails their mean's residual
    group = np.repeat(np.arange(start.size), size)
    v = vec[p, :, j]
    a = _assemble(*_AXES[axis][0](grp_value, np.zeros(1)),
                  stack.overlap[grp_p])
    res = np.linalg.norm((a[group] @ v[:, :, None])[..., 0], axis=-1)
    residual = np.maximum.reduceat(res, start)
    groups = []
    for m in sorted(set(size.tolist())):
        g = np.nonzero(size == m)[0]
        rows = v[start[g, None] + np.arange(m)]  # (roots, m, active states)
        groups.append((g, rows.transpose(0, 2, 1)))
    return grp_p, grp_value, residual, groups


def _root_table(specs, batches, windows, n_grid: int = N_GRID):
    """Roots of specs on the axes of windows, pairs (axis, each spec's
    window), per batch (a list of spec indices sharing mode, state count
    and active states): by _scalar_roots if asymptotic, else by
    _finite_roots on an n_grid-point grid (n_grid >= 2).  Returns per spec
    its grid warnings, axis by axis, and all roots as one RootTable by
    spec, with spin weights if the spec has channels.  A residual above
    RESIDUAL_TOL is an error.  Asymptotic specs of a batch share their
    window (kappa_max or 10, or one s_max): _scalar_roots reads the
    first."""
    warns: list[list[str]] = [[] for _ in specs]
    p, value, residual, real = [np.zeros(0, int)], [np.zeros(0)], \
        [np.zeros(0)], [np.zeros(0, bool)]
    groups, n = [], 0
    for idx in map(np.asarray, batches):
        batch = [specs[j] for j in idx.tolist()]
        for axis, x_max in windows if batch[0].active_states().size else ():
            stack = _SpecStack(batch, axis)
            window = np.asarray(x_max)[idx]
            q, v, r, g = (_finite_roots(stack, axis, window, n_grid,
                                        [warns[j] for j in idx.tolist()])
                          if stack.finite else
                          _scalar_roots(stack, axis, window[0]))
            for i, active in g:  # zeros on the closed states
                nv = np.zeros((i.size, stack.n_states, active.shape[-1]))
                nv[:, stack.active, :] = _positive_lead(active)
                groups.append((i + n, nv))
            p, value, residual = p + [idx[q]], value + [v], residual + [r]
            real.append(np.full(q.size, axis == "real"))
            n += q.size
    p, value, residual, real = map(np.concatenate, (p, value, residual, real))
    bad = np.nonzero(residual > RESIDUAL_TOL)[0]
    if bad.size:
        raise HyperangularError(
            f"root candidate at {'real' if real[bad[0]] else 'imaginary'} "
            f"{float(value[bad[0]])} has residual {residual[bad[0]]:.3e}")
    # the roots come by (axis, spec, value): each spec's imaginary ones
    # by descending kappa, then its real ones
    order = np.lexsort((np.where(real, 1, -1) * np.arange(n), real, p))
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    has = np.array([s.channels is not None for s in specs], dtype=bool)
    # identity rows stand in for specs without channels and are never read
    vectors = np.array([np.eye(3) if s.channels is None else s.channels.vectors
                        for s in specs])
    mult = np.zeros(n, dtype=int)
    spin, same, mixed = np.full((n, 3, 2), np.nan), np.full(n, np.nan), \
        np.full(n, np.nan)
    null = []
    for g, nv in groups:
        mult[rank[g]] = nv.shape[-1]
        keep = has[p[g]]
        if keep.any():
            i = rank[g[keep]]
            spin[i], same[i], mixed[i] = _spin_weights(nv[keep],
                                                       vectors[p[g[keep]]])
        null.append((rank[g], nv))
    return warns, RootTable(p[order], real[order], value[order], mult,
                            residual[order], spin, same, mixed, tuple(null))


def _point_roots(specs, axis, x_maxes, warning_sinks) -> RootTable:
    """Roots of every spec of a list on one axis, as one RootTable whose
    point is the spec index, solved in one batch per mode, state count
    and active-state set, so each spec's roots are those it has alone;
    spec j's warnings go to warning_sinks[j], or to the warnings module
    when warning_sinks is None."""
    batches: dict[tuple, list[int]] = {}
    for j, spec in enumerate(specs):
        batches.setdefault((spec.mode, spec.n_states,
                            tuple(spec.active_states())), []).append(j)
    warns, table = _root_table(specs, batches.values(), [(axis, x_maxes)])
    for j, messages in enumerate(warns):
        for message in messages:
            if warning_sinks is not None:
                warning_sinks[j].append(message)
            else:
                warnings.warn(message, GridResolutionWarning, stacklevel=3)
    return table


def find_roots_imaginary_batch(specs, kappa_max: float | None = None,
                               warning_sinks: list | None = None
                               ) -> RootTable:
    """find_roots_imaginary for every spec of a list, solved together,
    as one RootTable whose point is the spec index; warning_sinks, when
    given, holds one list per spec that receives that spec's warnings."""
    x_maxes = [_kappa_window(spec, kappa_max) for spec in specs]
    return _point_roots(specs, "imaginary", x_maxes, warning_sinks)


def find_roots_imaginary(spec: ChannelMatrixSpec,
                         kappa_max: float | None = None,
                         warning_sink: list | None = None) -> RootTable:
    """All imaginary-axis roots s = i kappa with kappa in (0, kappa_max],
    by descending kappa (the most attractive channel first), as a
    RootTable whose every point is 0; the one-spec case of
    find_roots_imaginary_batch."""
    sinks = None if warning_sink is None else [warning_sink]
    return _point_roots([spec], "imaginary", [_kappa_window(spec, kappa_max)],
                        sinks)


def find_roots_real(spec: ChannelMatrixSpec, s_max: float,
                    warning_sink: list | None = None) -> RootTable:
    """Real-axis roots in (0, s_max], ascending, as a RootTable whose
    every point is 0."""
    _check_s_max(s_max)
    sinks = None if warning_sink is None else [warning_sink]
    return _point_roots([spec], "real", [s_max], sinks)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepTable:
    """A theta or radius sweep: per point its theta and R (None in
    asymptotic mode), the roots of every point as one RootTable, and the
    curve id of each root slot in table order (a root of multiplicity m
    fills m slots)."""

    kind: str  # "theta" | "radius"
    thetas: list[float]
    radii: list
    mode: str
    roots: RootTable
    curve_ids: list[int]
    window: dict
    warnings: list[str]

    def curve_rows(self, axis: str = "imaginary") -> dict[int, np.ndarray]:
        """curve id -> the indices of its roots in the root table, in
        point order, by ascending id (the order the ids first appear)."""
        r = self.roots
        slot = np.repeat(np.arange(r.value.size), r.multiplicity)
        on = np.flatnonzero(r.real[slot] == (axis == "real"))
        ids = np.array(self.curve_ids, dtype=int)[on]
        order = np.argsort(ids, kind="stable")
        ids, rows = ids[order], slot[on[order]]
        cut = np.flatnonzero(np.diff(ids, prepend=-1))
        return dict(zip(ids[cut].tolist(), np.split(rows, cut[1:])))

    def curve_series(self, axis: str = "imaginary") -> dict[int, list[tuple]]:
        """curve id -> [(theta, R, value), ...] in point order."""
        r = self.roots
        return {cid: [(self.thetas[q], self.radii[q], v) for q, v in zip(
            r.point[rows].tolist(), r.value[rows].tolist())]
            for cid, rows in self.curve_rows(axis).items()}


def _curve_ids(roots: RootTable, n_points: int) -> list[int]:
    """Continuity labeling of the root slots, point by point and per
    axis: each slot inherits the id of the nearest slot of the previous
    point not yet taken and at most max(0.3, 0.35 |value|) away, new
    slots open new curves.  The window grows with the value so that fast
    dimer-limit roots (kappa ~ sqrt(2) R/a, moving multiplicatively on a
    log R grid) stay on one curve."""
    slot = np.repeat(np.arange(roots.value.size), roots.multiplicity)
    values = roots.value[slot].tolist()
    key = roots.point[slot] * 2 + roots.real[slot]
    bounds = np.searchsorted(key, np.arange(2 * n_points + 1)).tolist()
    last: list[list] = [[], []]  # per axis (id, value, window)
    ids: list[int] = []
    next_id = 0
    for k in range(2 * n_points):
        prev, taken = last[k & 1], set()
        for v in values[bounds[k]:bounds[k + 1]]:
            best, best_d = None, math.inf
            for idx, (cid, old, tol) in enumerate(prev):
                d = abs(v - old)
                if d <= tol and d < best_d and idx not in taken:
                    best, best_d = idx, d
            if best is None:
                ids.append(next_id)
                next_id += 1
            else:
                taken.add(best)
                ids.append(prev[best][0])
        last[k & 1] = [(cid, v, max(0.3, 0.35 * abs(v))) for cid, v
                       in zip(ids[bounds[k]:], values[bounds[k]:bounds[k + 1]])]
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
    # the points share one length triple and their radii come from one
    # positive ascending grid, so the check at the last radius stands for
    # every spec
    specs = [_prechecked_spec(o, r) for o, r in zip(overlaps, radii)]
    mode = specs[0].mode
    if mode == "finite":
        _check_finite(lengths, radii[-1])
    kappa_maxes = [_kappa_window(spec, kappa_max) for spec in specs]
    # one length triple: every spec shares the mode and active states
    warns, roots = _root_table(specs, [range(len(specs))], [
        ("imaginary", kappa_maxes)] + (
        [("real", [s_max] * len(specs))] if s_max else []))
    all_warnings = []
    for th, r, ws in zip(thetas, radii, warns):
        where = f"theta={th:.6g}" if kind == "theta" else f"R={r:.6g}"
        all_warnings.extend(f"{where}: {w}" for w in ws)
    window = {k: l.describe()
              for k, l in zip(("a_alpha", "a_beta", "a_gamma"), lengths)}
    return SweepTable(kind, [float(t) for t in thetas], list(radii),
                      mode, roots, _curve_ids(roots, len(specs)),
                      window, all_warnings)


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
