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

Root finding internally evaluates an overflow-safe congruent form
2 exp(-kappa pi/2) D H D (D a positive diagonal); by Sylvester's law this
moves no root, changes no multiplicity, and maps null spaces through D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .spin import (
    PAIR_LABELS,
    ChannelLength,
    ExchangeOverlap,
    ThreeBodySpinBasis,
    TwoBodyChannelSet,
    as_length,
    channels_from_angle,
    exchange_overlap,
    three_body_basis,
)

KERNEL_COEFF = 4.0 / math.sqrt(3.0)
SQRT2 = math.sqrt(2.0)

#: residual bound on the tracked (normalized) eigenvalue curves at a root
RESIDUAL_TOL = 1e-9
#: two refined roots on distinct curves closer than this merge into one
MERGE_TOL = 1e-8
#: lower edge of the scan grid; s = 0 is a removable parametrization point
GRID_EPS = 1e-8
#: default number of scan-grid points
N_GRID = 2000
#: matrices per stacked eigvalsh call; bounds the memory of a sweep's scan
BLOCK_MATRICES = 8192


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
    In asymptotic mode every channel is unitary or closed and R never
    enters; in finite mode every channel is finite or closed and R > 0.
    """

    lengths: tuple[ChannelLength, ...]
    overlap: np.ndarray
    state_channel: tuple[int, ...]
    mode: str
    hyperradius: float | None = None
    basis: ThreeBodySpinBasis | None = field(default=None, repr=False)

    def __post_init__(self):
        o = np.asarray(self.overlap, dtype=float)
        n = len(self.state_channel)
        if o.shape != (n, n):
            raise HyperangularError(
                f"overlap shape {o.shape} does not match {n} states")
        if np.max(np.abs(o - o.T)) > 1e-12:
            raise HyperangularError("overlap matrix must be symmetric")
        object.__setattr__(self, "overlap", 0.5 * (o + o.T))
        if self.mode not in ("asymptotic", "finite"):
            raise HyperangularError(f"unknown mode {self.mode!r}")
        if self.mode == "asymptotic":
            bad = [l for l in self.lengths if l.kind == "finite"]
            if bad:
                raise HyperangularError(
                    "asymptotic mode takes only unitary or closed channels; "
                    f"got finite length(s) {[l.value for l in bad]}")
        else:
            bad = [l for l in self.lengths if l.kind == "unitary"]
            if bad:
                raise HyperangularError(
                    "finite mode takes only finite or closed channels; "
                    "use asymptotic mode for unitary flags")
            if self.hyperradius is None or not self.hyperradius > 0.0:
                raise HyperangularError("finite mode requires hyperradius > 0")
        # the per-evaluation arrays over the active (non-closed) states:
        # R/a (0 for unitary channels), the congruence diagonal
        # 1/sqrt(max(1, sqrt(2)|R/a|)) and its outer product
        act = np.array([j for j, ch in enumerate(self.state_channel)
                        if self.lengths[ch].kind != "closed"], dtype=int)
        active_lengths = [self.lengths[self.state_channel[j]] for j in act]
        r_over_a = np.array([0.0 if l.kind == "unitary"
                             else self.hyperradius / l.value
                             for l in active_lengths])
        d = 1.0 / np.sqrt(np.maximum(1.0, SQRT2 * np.abs(r_over_a)))
        for name, value in (("_active", act),
                            ("_active_overlap", self.overlap[np.ix_(act, act)]),
                            ("_r_over_a", r_over_a), ("_congruence", d),
                            ("_scale", np.outer(d, d))):
            value.flags.writeable = False  # shared by every evaluation
            object.__setattr__(self, name, value)

    @staticmethod
    def from_channels(channels: TwoBodyChannelSet,
                      overlap: ExchangeOverlap | np.ndarray,
                      mode: str,
                      hyperradius: float | None = None) -> "ChannelMatrixSpec":
        if isinstance(overlap, ExchangeOverlap):
            overlap, basis = overlap.matrix, overlap.basis
        else:
            basis = three_body_basis(channels)
        return ChannelMatrixSpec(
            lengths=tuple(channels.lengths),
            overlap=np.asarray(overlap, dtype=float),
            state_channel=(0, 0, 1, 1, 2, 2),
            mode=mode,
            hyperradius=hyperradius,
            basis=basis,
        )

    @staticmethod
    def single_level(a, mode: str,
                     hyperradius: float | None = None) -> "ChannelMatrixSpec":
        """Collapsed identical-boson problem: one channel, one spectator
        state, exchange overlap exactly 2."""
        return ChannelMatrixSpec(
            lengths=(as_length(a),),
            overlap=np.array([[2.0]]),
            state_channel=(0,),
            mode=mode,
            hyperradius=hyperradius,
        )

    @property
    def n_states(self) -> int:
        return len(self.state_channel)

    def active_states(self) -> np.ndarray:
        """Indices of states whose channel is not closed."""
        return self._active


def _imag_stack(kappas, r_over_a, overlap, scale) -> np.ndarray:
    """H(kappa) over an array of kappa values, shape kappas.shape + (m, m).

    r_over_a (..., m), overlap and scale (..., m, m) are per-spec arrays
    that broadcast against kappas; scale=None gives the raw H, otherwise
    the normalized congruent form is returned."""
    if scale is None:
        diag = (kappas * np.cosh(0.5 * math.pi * kappas))[..., None] \
            - SQRT2 * (np.sinh(0.5 * math.pi * kappas)[..., None] * r_over_a)
        kern = KERNEL_COEFF * np.sinh(math.pi * kappas / 6.0)
    else:
        e_full = np.exp(-math.pi * kappas)
        diag = (kappas * (1.0 + e_full))[..., None] \
            - SQRT2 * ((1.0 - e_full)[..., None] * r_over_a)
        kern = KERNEL_COEFF * (np.exp(-math.pi * kappas / 3.0)
                               - np.exp(-2.0 * math.pi * kappas / 3.0))
    return _assemble(kern, diag, overlap, scale)


def _real_stack(svals, r_over_a, overlap, scale) -> np.ndarray:
    """M(s) on the real axis (already real symmetric); arguments as for
    _imag_stack."""
    diag = (svals * np.cos(0.5 * math.pi * svals))[..., None] \
        - SQRT2 * (np.sin(0.5 * math.pi * svals)[..., None] * r_over_a)
    kern = KERNEL_COEFF * np.sin(math.pi * svals / 6.0)
    return _assemble(kern, diag, overlap, scale)


def _assemble(kern, diag, overlap, scale) -> np.ndarray:
    out = -kern[..., None, None] * overlap
    idx = np.arange(overlap.shape[-1])
    out[..., idx, idx] += diag
    if scale is not None:
        out *= scale
    return out


def channel_matrix(s, spec: ChannelMatrixSpec,
                   normalized: bool = False) -> np.ndarray:
    """Evaluate the channel matrix at one point of the real or imaginary
    axis, reduced to the active (non-closed) states.

    For real s the matrix M(s) itself is returned; for s = i kappa the
    real symmetric H(kappa) with M = i H is returned.  normalized=True
    applies the overflow-safe congruence used by the root finders.
    """
    s = complex(s)
    if s == 0:
        raise HyperangularError("s = 0 is a removable parametrization point")
    if s.real != 0.0 and s.imag != 0.0:
        raise HyperangularError(
            f"s must lie on the real or imaginary axis, got {s!r}")
    if spec.active_states().size == 0:
        raise HyperangularError("all channels are closed; no matrix remains")
    scale = spec._scale if normalized else None
    if s.real != 0.0:
        return _real_stack(np.array([s.real]), spec._r_over_a,
                           spec._active_overlap, scale)[0]
    kappa = s.imag
    if kappa <= 0.0:
        raise HyperangularError(f"imaginary axis requires kappa > 0, got {kappa}")
    return _imag_stack(np.array([kappa]), spec._r_over_a,
                       spec._active_overlap, scale)[0]


# ---------------------------------------------------------------------------
# spin profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinProfile:
    """Weights of a root's null space over the six (pair basis state,
    spectator level) configurations; rows follow PAIR_LABELS, columns are
    spectator level 1 and 2.  Weights sum to one."""

    weights: np.ndarray  # (3, 2)

    @property
    def same_level_weight(self) -> float:
        """Total weight on the all-atoms-in-one-level family (|111>, |222>)."""
        return float(self.weights[0, 0] + self.weights[2, 1])

    @property
    def mixed_weight(self) -> float:
        return float(np.sum(self.weights) - self.same_level_weight)

    def as_dict(self) -> dict[str, float]:
        out = {}
        for i, lab in enumerate(PAIR_LABELS):
            for m in (1, 2):
                out[f"{lab}*{m}"] = float(self.weights[i, m - 1])
        return out


@dataclass(frozen=True)
class ChannelRoot:
    """One root s_nu of the channel problem.

    value is kappa = |s| for imaginary-axis roots and s for real-axis
    ones.  null_vectors holds an orthonormal basis of the null space as
    columns over the full state list (exact zeros on closed channels);
    residual is the largest tracked-eigenvalue magnitude left at the root.
    """

    axis: str  # "imaginary" | "real"
    value: float
    multiplicity: int
    null_vectors: np.ndarray
    residual: float
    spin_profile: SpinProfile | None = None

    @property
    def s_squared(self) -> float:
        return -self.value ** 2 if self.axis == "imaginary" else self.value ** 2


def classify_root(root: ChannelRoot, basis: ThreeBodySpinBasis) -> SpinProfile:
    """Project a root's null vectors onto the fixed (pair basis state,
    spectator) configurations and average the squared amplitudes.

    The channel-to-pair-basis rotation is orthogonal, so the weights of
    each null vector sum to one exactly; averaging over a degenerate null
    space keeps the profile invariant under basis rotations inside it.
    """
    if root.null_vectors.shape[0] != 6:
        raise HyperangularError(
            "spin classification needs the six-state channel problem")
    v = basis.channels.vectors
    weights = np.zeros((3, 2))
    mult = root.null_vectors.shape[1]
    for k in range(mult):
        coeff = root.null_vectors[:, k].reshape(3, 2)  # (channel, spectator)
        weights += (v @ coeff) ** 2
    weights /= mult
    total = float(np.sum(weights))
    if abs(total - 1.0) > 1e-10:
        raise HyperangularError(
            f"spin profile weights sum to {total!r}, expected 1")
    return SpinProfile(weights)


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


def _check_s_max(s_max: float) -> None:
    if not s_max >= 2.0:
        raise HyperangularError("s_max must be at least 2")


def _nudge_even_integers(grid: np.ndarray, offset: float = 1e-6) -> np.ndarray:
    """Move grid points off even integers, where sin(s pi/2) = 0 makes the
    diagonal entries of every channel coincide (a benign degeneracy that
    confuses sorted-curve bookkeeping)."""
    grid = grid.copy()
    nearest = 2.0 * np.round(grid / 2.0)
    close = (np.abs(grid - nearest) < offset) & (nearest > 0.0)
    shift = np.where(grid >= nearest, offset, -offset)
    grid[close] = nearest[close] + shift[close]
    return grid


# axis -> (normalized matrix stack function, scan grid over (0, x_max])
_AXES = {
    "imaginary": (_imag_stack,
                  lambda x_max, n: np.linspace(GRID_EPS, x_max, n)),
    "real": (_real_stack,
             lambda x_max, n: _nudge_even_integers(
                 np.linspace(GRID_EPS, x_max, n))),
}


class _SpecStack:
    """The per-spec arrays of specs sharing one active-state count,
    stacked along a leading spec axis."""

    def __init__(self, specs, axis: str):
        self.build = _AXES[axis][0]
        self.r_over_a = np.array([s._r_over_a for s in specs])
        self.overlap = np.array([s._active_overlap for s in specs])
        self.scale = np.array([s._scale for s in specs])

    def matrices(self, p, x) -> np.ndarray:
        """Normalized matrices of spec p at x, elementwise over the
        broadcast shape of p and x (a scan block pairs a column of spec
        indices with rows of grid points)."""
        return self.build(x, self.r_over_a[p], self.overlap[p],
                          self.scale[p])

    def curve_values(self, p, x, k) -> np.ndarray:
        """k[i]-th sorted eigenvalue of spec p[i] at x[i] for flat arrays,
        in stacked eigvalsh calls of at most BLOCK_MATRICES matrices."""
        out = np.empty(x.size)
        for lo in range(0, x.size, BLOCK_MATRICES):
            part = slice(lo, lo + BLOCK_MATRICES)
            lam = np.linalg.eigvalsh(self.matrices(p[part], x[part]))
            out[part] = lam[np.arange(lam.shape[0]), k[part]]
        return out


def _bisect(stack: _SpecStack, p, k, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Bisect every bracket of sorted eigenvalue curve k[i] of spec p[i]
    to its sign flip at once.  Each bracket follows the scalar rule: exact
    zeros at an end or a midpoint are returned as they are, and the
    midpoint sequence stops once the bracket is no wider than
    max(1e-12, 4 eps |hi_0|) or at floating resolution."""
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
            break
        f_mid = stack.curve_values(p[idx], mid[idx], k[idx])
        zero = idx[f_mid == 0.0]
        out[zero] = mid[zero]
        exact[zero] = True
        live[zero] = False
        flip = (f_lo[idx] < 0.0) != (f_mid < 0.0)
        hi[idx[flip]] = mid[idx[flip]]
        lo[idx[~flip]] = mid[idx[~flip]]
        f_lo[idx[~flip]] = f_mid[~flip]
    return np.where(exact, out, 0.5 * (lo + hi))


def _solve_axis(specs, axis: str, x_max, n_grid: int, merge_tol: float):
    """Roots on one axis for every spec of a list sharing their active
    states (one sweep, or a single point).

    The sorted eigenvalue curves are scanned over each spec's grid in
    blocks of about BLOCK_MATRICES matrices (one spec's grid when that is
    larger), each block making its own grids; every sign change, and every
    hidden root pair a tangency fine scan uncovers, is bisected together
    with all others.  Returns per spec the grid-resolution warnings and
    the merged root groups (value, multiplicity, eigenvalues and
    eigenvectors of the normalized matrix at the value); _axis_roots
    turns a spec's groups into roots.
    """
    warns: list[list[str]] = [[] for _ in specs]
    groups: list[list[tuple]] = [[] for _ in specs]
    if not specs or specs[0]._active.size == 0:
        return warns, groups
    stack = _SpecStack(specs, axis)
    grid_of = _AXES[axis][1]
    brackets = []   # (p, k, lo, hi, f_lo, f_hi) arrays
    suspects = []   # (p, k, left, right) arrays of tangency candidates
    per_block = max(1, BLOCK_MATRICES // max(n_grid, 1))
    for b in range(0, len(specs), per_block):
        grids = np.array([grid_of(x, n_grid)
                          for x in x_max[b:b + per_block]])
        pb = np.arange(b, b + grids.shape[0])
        curves = np.linalg.eigvalsh(
            stack.matrices(pb[:, None], grids)).transpose(0, 2, 1)
        neg = curves < 0.0
        p, k, i = np.nonzero(neg[..., :-1] != neg[..., 1:])
        brackets.append((pb[p], k, grids[p, i], grids[p, i + 1],
                         curves[p, k, i], curves[p, k, i + 1]))
        # interior near-zero dips without a sign change
        mag = np.abs(curves)
        centre = mag[..., 1:-1]
        local = np.maximum(np.abs(curves[..., 1:-1] - curves[..., :-2]),
                           np.abs(curves[..., 2:] - curves[..., 1:-1]))
        dip = (centre <= mag[..., :-2]) & (centre <= mag[..., 2:]) \
            & (neg[..., :-2] == neg[..., 1:-1]) \
            & (neg[..., 1:-1] == neg[..., 2:]) & ~(centre > local)
        p, k, i = np.nonzero(dip)
        suspects.append((pb[p], k, grids[p, i], grids[p, i + 2]))

    p, k, left, right = (np.concatenate(c) for c in zip(*suspects))
    if p.size:
        _subdivide(stack, p, k, left, right, brackets, warns)
    p, k, lo, hi, f_lo, f_hi = (np.concatenate(c) for c in zip(*brackets))
    values = _bisect(stack, p, k, lo, hi, f_lo, f_hi)

    if values.size == 0:
        return warns, groups
    # merge coincident roots on distinct curves into one multiple root
    order = np.lexsort((values, p))
    p, values = p[order], values[order]
    cut = np.nonzero((np.diff(p) != 0) | (np.diff(values) > merge_tol))[0] + 1
    runs = np.split(values, cut)
    grp_p = p[np.concatenate(([0], cut))]
    grp_value = [float(np.mean(v)) for v in runs]
    lam, vec = np.linalg.eigh(stack.matrices(grp_p, np.array(grp_value)))
    for g, v in enumerate(runs):
        groups[grp_p[g]].append((grp_value[g], v.size, lam[g], vec[g]))
    return warns, groups


def _subdivide(stack, p, k, left, right, brackets, warns) -> None:
    """Scan each suspect cell pair [left, right] of curve k at 65 points;
    a sign change there adds a bracket, a dip that still grazes zero
    adds a warning to its spec."""
    fine = np.array([np.linspace(a, b, 65) for a, b in zip(left, right)])
    fv = stack.curve_values(np.repeat(p, 65), fine.ravel(),
                            np.repeat(k, 65)).reshape(fine.shape)
    neg = fv < 0.0
    c, j = np.nonzero(neg[:, :-1] != neg[:, 1:])
    brackets.append((p[c], k[c], fine[c, j], fine[c, j + 1],
                     fv[c, j], fv[c, j + 1]))
    fine_var = np.max(np.abs(np.diff(fv, axis=1)), axis=1)
    grazing = (np.min(np.abs(fv), axis=1) < 0.25 * fine_var)
    grazing[c] = False
    for c in np.nonzero(grazing)[0]:
        warns[p[c]].append(
            f"eigenvalue curve {k[c]} grazes zero near "
            f"{0.5 * (left[c] + right[c]):.6g} without a sign "
            "change; a root pair inside one grid cell cannot be "
            "excluded, consider a denser grid")


def _axis_roots(spec: ChannelMatrixSpec, axis: str,
                groups) -> list[ChannelRoot]:
    """Roots of one spec from its merged groups, sorted by descending
    kappa (imaginary axis) or ascending s (real axis), with profiles."""
    roots = []
    d = spec._congruence
    for value, mult, lam_r, vec_r in groups:
        order = np.argsort(np.abs(lam_r))[:mult]
        residual = float(np.max(np.abs(lam_r[order])))
        if residual > 1e-6:
            raise HyperangularError(
                f"root candidate at {axis} {value} has residual {residual:.3e}")
        # undo the congruence, then re-orthonormalize the null basis
        raw = d[:, None] * vec_r[:, order]
        q, _ = np.linalg.qr(raw)
        for c in range(q.shape[1]):
            j = int(np.argmax(np.abs(q[:, c])))
            if q[j, c] < 0:
                q[:, c] = -q[:, c]
        full = np.zeros((spec.n_states, mult))
        full[spec._active, :] = q
        roots.append(ChannelRoot(axis, value, mult, full, residual))
    sign = -1.0 if axis == "imaginary" else 1.0
    roots.sort(key=lambda r: sign * r.value)
    return _attach_profiles(spec, roots)


def _attach_profiles(spec: ChannelMatrixSpec,
                     roots: list[ChannelRoot]) -> list[ChannelRoot]:
    if spec.basis is None or spec.n_states != 6:
        return roots
    return [
        ChannelRoot(r.axis, r.value, r.multiplicity, r.null_vectors,
                    r.residual, classify_root(r, spec.basis))
        for r in roots
    ]


def _point_roots(spec, axis, x_max, n_grid, merge_tol,
                 warning_sink) -> list[ChannelRoot]:
    (warns,), (groups,) = _solve_axis([spec], axis, [x_max], n_grid,
                                     merge_tol)
    for message in warns:
        if warning_sink is not None:
            warning_sink.append(message)
        else:
            warnings.warn(message, GridResolutionWarning, stacklevel=3)
    return _axis_roots(spec, axis, groups)


def find_roots_imaginary(spec: ChannelMatrixSpec,
                         kappa_max: float | None = None,
                         n_grid: int = N_GRID,
                         merge_tol: float = MERGE_TOL,
                         warning_sink: list | None = None) -> list[ChannelRoot]:
    """All imaginary-axis roots s = i kappa with kappa in (0, kappa_max],
    sorted by descending kappa (the most attractive channel first)."""
    kappa_max = _kappa_window(spec, kappa_max)
    return _point_roots(spec, "imaginary", kappa_max, n_grid, merge_tol,
                        warning_sink)


def find_roots_real(spec: ChannelMatrixSpec,
                    s_max: float,
                    n_grid: int = N_GRID,
                    merge_tol: float = MERGE_TOL,
                    warning_sink: list | None = None) -> list[ChannelRoot]:
    """Real-axis roots in (0, s_max], sorted ascending."""
    _check_s_max(s_max)
    return _point_roots(spec, "real", s_max, n_grid, merge_tol, warning_sink)


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

    def __init__(self, jump_tol: float = 0.3, rel_tol: float = 0.35):
        self.jump_tol = jump_tol
        self.rel_tol = rel_tol
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


def _sweep(kind: str, thetas, radii, mode: str, a_alpha, a_beta, a_gamma,
           kappa_max, s_max, n_grid: int) -> SweepTable:
    """Root lists at the points (thetas[i], radii[i]) with fixed
    lengths/flags, every axis scanned and refined across all points at
    once; roots on adjacent points are matched into labeled curves."""
    lengths = (as_length(a_alpha), as_length(a_beta), as_length(a_gamma))
    specs, kappa_maxes = [], []
    spin = {}  # theta -> (channels, overlap): an r-sweep has one theta
    for theta, radius in zip(thetas, radii):
        if theta not in spin:
            channels = channels_from_angle(theta, *lengths)
            spin[theta] = channels, exchange_overlap(channels)
        spec = ChannelMatrixSpec.from_channels(
            *spin[theta], mode, hyperradius=radius)
        # validated per point, in the order of the single-point finders
        kappa_maxes.append(_kappa_window(spec, kappa_max))
        if s_max:
            _check_s_max(s_max)
        specs.append(spec)
    scans = [("imaginary",
              _solve_axis(specs, "imaginary", kappa_maxes, n_grid, MERGE_TOL))]
    if s_max:
        scans.append(("real", _solve_axis(specs, "real", [s_max] * len(specs),
                                         n_grid, MERGE_TOL)))

    matcher = _CurveMatcher()
    rows: list[SweepRow] = []
    all_warnings: list[str] = []
    for p, spec in enumerate(specs):
        where = (f"theta={thetas[p]:.6g}" if kind == "theta"
                 else f"R={radii[p]:.6g}")
        roots: tuple[ChannelRoot, ...] = ()
        ids: list[int] = []
        for axis, (warns, groups) in scans:
            all_warnings.extend(f"{where}: {w}" for w in warns[p])
            axis_roots = _axis_roots(spec, axis, groups[p])
            roots += tuple(axis_roots)
            ids.extend(matcher.assign(axis, [r.value for r in axis_roots
                                             for _ in range(r.multiplicity)]))
        rows.append(SweepRow(float(thetas[p]), radii[p], mode, roots,
                             tuple(ids)))
    window = {
        "a_alpha": lengths[0].describe(),
        "a_beta": lengths[1].describe(),
        "a_gamma": lengths[2].describe(),
    }
    return SweepTable(kind, rows, window, all_warnings)


def theta_sweep(thetas, a_alpha, a_beta, a_gamma,
                mode: str = "asymptotic",
                hyperradius: float | None = None,
                kappa_max: float | None = None,
                s_max: float | None = None,
                n_grid: int = N_GRID) -> SweepTable:
    """Root lists over an ascending theta grid with fixed lengths/flags;
    roots on adjacent grid points are matched into labeled curves."""
    thetas = np.asarray(list(thetas), dtype=float)
    if thetas.size == 0 or np.any(np.diff(thetas) <= 0):
        raise HyperangularError("theta grid must be nonempty and ascending")
    return _sweep("theta", thetas, [hyperradius] * thetas.size, mode,
                  a_alpha, a_beta, a_gamma, kappa_max, s_max, n_grid)


def radius_sweep(theta: float, a_alpha, a_beta, a_gamma, radii,
                 kappa_max: float | None = 10.0,
                 s_max: float | None = None,
                 n_grid: int = N_GRID) -> SweepTable:
    """Finite-mode root lists over an ascending log-spaced R grid at fixed
    theta.  kappa_max defaults to 10: the plateau-region curves are O(1),
    while the dimer root at sqrt(2) R/a would force a uniform grid far too
    coarse to resolve them."""
    radii = np.asarray(list(radii), dtype=float)
    if radii.size == 0 or np.any(np.diff(radii) <= 0) or radii[0] <= 0:
        raise HyperangularError("R grid must be nonempty, positive, ascending")
    return _sweep("radius", [theta] * radii.size, [float(r) for r in radii],
                  "finite", a_alpha, a_beta, a_gamma, kappa_max, s_max,
                  n_grid)


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
