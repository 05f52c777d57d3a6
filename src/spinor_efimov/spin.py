"""Internal-level algebra for three bosons with two internal states.

The symmetrized pair basis is ordered (|11>, |12>_S, |22>) with
|12>_S = (|12> + |21>)/sqrt(2).  Three-body spin states are built as
(pair eigenchannel of particles 1,2) x (spectator level of particle 3).
The spin part of the Faddeev exchange kernel is one constant 6x6 matrix
over the (pair state, spectator level) states, _KERNEL; every channel
set's exchange overlap is its congruence by the channel vectors, so no
relabeled three-body state is ever built or stored.

All lengths are dimensionless numbers in one fixed unit.  Only the ratios
R/a_i enter the channel problem, so no unit handling happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: exchange overlap of the pair basis itself over the states (11,1),
#: (11,2), (12S,1), (12S,2), (22,1), (22,2): block-diagonal in the number
#: of atoms in level 2, with eigenvalues 2 (four times) and -1 (twice), so
#: K^2 = K + 2I
_KERNEL = np.diag([2.0, 0.0, 1.0, 1.0, 0.0, 2.0])
_KERNEL[1, 2] = _KERNEL[2, 1] = _KERNEL[3, 4] = _KERNEL[4, 3] = math.sqrt(2.0)

_ORTHO_TOL = 1e-12


class SpinAlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelLength:
    """A two-body scattering length that may sit at a special point.

    kind is one of "finite" (value is the nonzero length), "unitary"
    (1/a = 0, the resonant limit) or "closed" (a = 0, the channel is
    eliminated from the hyperangular problem).
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("finite", "unitary", "closed"):
            raise SpinAlgebraError(f"unknown channel length kind {self.kind!r}")
        if self.kind == "finite":
            if not math.isfinite(self.value) or self.value == 0.0:
                raise SpinAlgebraError(
                    "finite channel length must be a finite nonzero number, "
                    f"got {self.value!r}"
                )

    @staticmethod
    def finite(value: float) -> "ChannelLength":
        return ChannelLength("finite", float(value))

    @staticmethod
    def unitary() -> "ChannelLength":
        return ChannelLength("unitary", math.inf)

    @staticmethod
    def closed() -> "ChannelLength":
        return ChannelLength("closed", 0.0)

    def describe(self) -> str:
        if self.kind == "finite":
            return repr(self.value)
        return self.kind


def as_length(x) -> ChannelLength:
    """Coerce a float or the strings 'unitary'/'closed' to a ChannelLength."""
    if isinstance(x, ChannelLength):
        return x
    if isinstance(x, str):
        key = x.strip().lower()
        if key == "unitary":
            return ChannelLength.unitary()
        if key == "closed":
            return ChannelLength.closed()
        return ChannelLength.finite(float(x))
    x = float(x)
    if math.isinf(x):
        return ChannelLength.unitary()
    if x == 0.0:
        return ChannelLength.closed()
    return ChannelLength.finite(x)


@dataclass(frozen=True)
class ScatteringMatrix:
    """Real symmetric 3x3 scattering-length matrix in the pair basis."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.shape != (3, 3):
            raise SpinAlgebraError(f"scattering matrix must be 3x3, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise SpinAlgebraError("raw scattering matrix entries must be finite")
        if not np.array_equal(a, a.T):
            raise SpinAlgebraError("scattering matrix must be exactly symmetric; "
                                   "use from_entries/from_matrix")
        object.__setattr__(self, "entries", a)

    @staticmethod
    def from_entries(a11: float, a12: float, a13: float,
                     a22: float, a23: float, a33: float) -> "ScatteringMatrix":
        """Build from the upper triangle; symmetry is exact by construction."""
        a = np.array([[a11, a12, a13],
                      [a12, a22, a23],
                      [a13, a23, a33]], dtype=float)
        return ScatteringMatrix(a)

    @staticmethod
    def from_matrix(m) -> "ScatteringMatrix":
        a = np.asarray(m, dtype=float)
        a = 0.5 * (a + a.T)
        return ScatteringMatrix(a)


@dataclass(frozen=True)
class TwoBodyChannelSet:
    """Eigenchannels of the scattering-length matrix.

    lengths are ordered (a_alpha, a_beta, a_gamma); vectors holds the
    matching orthonormal eigenvectors as columns over the pair basis.
    mixing_angle is set only when the set came from the closed-form toy
    route or from channels_from_angle.
    """

    lengths: tuple[ChannelLength, ChannelLength, ChannelLength]
    vectors: np.ndarray
    mixing_angle: float | None = None

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        _check_vectors(v[None])
        object.__setattr__(self, "vectors", v)

    def flip_sign(self, channel: int) -> "TwoBodyChannelSet":
        """Same channel set with one eigenvector's overall sign flipped
        (exact negation: the orthonormality check reads as it did)."""
        v = self.vectors.copy()
        v[:, channel] = -v[:, channel]
        return _prechecked(TwoBodyChannelSet, lengths=self.lengths,
                           vectors=v, mixing_angle=self.mixing_angle)


def _prechecked(cls, **fields):
    """An instance of the frozen dataclass cls from fields its caller has
    already checked (as one stack, or exact by construction); its
    __post_init__ is not run."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_vectors(v: np.ndarray) -> None:
    """Refuse a (P, 3, 3) stack unless every matrix is orthonormal; the
    message names the first one that is not."""
    if v.shape[1:] != (3, 3):
        raise SpinAlgebraError("eigenvector matrix must be 3x3")
    dev = np.max(np.abs(np.swapaxes(v, 1, 2) @ v - np.eye(3)), axis=(1, 2))
    bad = np.flatnonzero(dev > _ORTHO_TOL)
    if bad.size:
        raise SpinAlgebraError(
            f"eigenvectors not orthonormal (max deviation {dev[bad[0]]:.3e})")


def _channel_sets(lengths, vectors: np.ndarray,
                  mixing_angles=None) -> list[TwoBodyChannelSet]:
    """One channel set per row of the (P, 3, 3) vector stack, checked
    once as a stack; lengths holds one length triple per row."""
    _check_vectors(vectors)
    angles = [None] * len(vectors) if mixing_angles is None else mixing_angles
    return [_prechecked(TwoBodyChannelSet, lengths=l, vectors=v,
                        mixing_angle=a)
            for l, v, a in zip(lengths, vectors, angles)]


def _rotated_channels(thetas: list[float], a_alpha, a_beta,
                      a_gamma) -> list[TwoBodyChannelSet]:
    """Channel sets whose alpha eigenvector is (cos theta, sin theta, 0)
    and whose gamma eigenvector is the decoupled |22>, one per theta."""
    c = [math.cos(t) for t in thetas]
    s = [math.sin(t) for t in thetas]
    vectors = np.zeros((len(thetas), 3, 3))
    vectors[:, 0, 0] = c
    vectors[:, 0, 1] = vectors[:, 1, 0] = s
    vectors[:, 1, 1] = np.negative(c)
    vectors[:, 2, 2] = 1.0
    lengths = (as_length(a_alpha), as_length(a_beta), as_length(a_gamma))
    return _channel_sets([lengths] * len(thetas), vectors, thetas)


def toy_closed_form(a11: float, a22: float, a12: float,
                    a33: float) -> TwoBodyChannelSet:
    """Diagonalize the decoupled toy matrix (A13 = A23 = 0) in closed form.

    Returns the mixed-block eigenvalues
        a_{alpha,beta} = (A11 + A22)/2 +- sqrt(A12^2 + ((A11 - A22)/2)^2),
    the decoupled a_gamma = A33, and the mixing angle with
        tan(theta) = 2 A12 / ((A11 - A22) + sqrt(4 A12^2 + (A11 - A22)^2)),
    so that (cos(theta), sin(theta), 0) is the alpha eigenvector.  For
    A12 >= 0 the angle lies in [0, pi/2]; a negative A12 gives the signed
    angle in (-pi/2, 0).  The degenerate case A12 = 0, A11 = A22 takes
    theta = 0 by convention.
    """
    for name, v in (("A11", a11), ("A22", a22), ("A12", a12), ("A33", a33)):
        if not math.isfinite(v):
            raise SpinAlgebraError(f"{name} must be finite, got {v!r}")
    half_sum = 0.5 * (a11 + a22)
    half_diff = 0.5 * (a11 - a22)
    root = math.hypot(a12, half_diff)
    a_alpha = half_sum + root
    a_beta = half_sum - root

    denom = (a11 - a22) + math.hypot(2.0 * a12, a11 - a22)
    if a12 == 0.0 and denom == 0.0:
        # proportional-to-identity mixed block, or A11 < A22 with no coupling
        theta = 0.0 if half_diff == 0.0 else 0.5 * math.pi
    else:
        theta = math.atan2(2.0 * a12, denom)

    return _rotated_channels([theta], a_alpha, a_beta, a33)[0]


def _positive_lead(vectors: np.ndarray) -> np.ndarray:
    """vectors (..., n, k) with the sign of each column fixed: its
    largest-magnitude entry (the first of equal magnitudes) positive."""
    lead = np.take_along_axis(
        vectors, np.argmax(np.abs(vectors), axis=-2)[..., None, :], axis=-2)
    return np.where(lead < 0.0, -vectors, vectors)


#: the two mixed channels, ascending, when the indexed one is gamma
_MIXED = np.array([[1, 2], [0, 2], [0, 1]])


def _eigenchannels(entries: np.ndarray) -> list[TwoBodyChannelSet]:
    """eigenchannels of each matrix of a (P, 3, 3) stack, with one
    stacked eigh."""
    vals, vecs = np.linalg.eigh(entries)
    order = np.argsort(np.abs(vals), axis=1, kind="stable")
    decoupled = (entries[:, 0, 2] == 0.0) & (entries[:, 1, 2] == 0.0)
    if decoupled.any():
        gamma = np.argmax(np.abs(vecs[:, 2, :]), axis=1)
        mixed = _MIXED[gamma]
        # alpha is the algebraically larger mixed eigenvalue (plus branch);
        # a tie keeps the lower index first
        larger = np.take_along_axis(vals, mixed, axis=1)
        mixed = np.where((larger[:, 1] > larger[:, 0])[:, None],
                         mixed[:, ::-1], mixed)
        order = np.where(decoupled[:, None],
                         np.column_stack([mixed, gamma]), order)
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = _positive_lead(np.take_along_axis(vecs, order[:, None, :], axis=2))
    lengths = [tuple(as_length(v) for v in row) for row in vals.tolist()]
    return _channel_sets(lengths, vecs)


def eigenchannels(matrix: ScatteringMatrix) -> TwoBodyChannelSet:
    """Full numeric eigendecomposition of the scattering-length matrix.

    When the third pair state decouples exactly (A13 = A23 = 0) the labels
    follow the toy convention: gamma is the decoupled channel and alpha is
    the mixed-block eigenvector of the form (cos t, sin t, 0), which pairs
    with the plus branch of the closed form.  Otherwise channels are
    labeled by ascending |a|.
    """
    return _eigenchannels(matrix.entries[None])[0]


def _angle_channels(thetas, a_alpha, a_beta,
                    a_gamma) -> list[TwoBodyChannelSet]:
    """channels_from_angle at each theta, the range checked once."""
    thetas = [float(t) for t in thetas]
    bad = [t for t in thetas if not 0.0 <= t <= 0.5 * math.pi]
    if bad:
        raise SpinAlgebraError(
            f"mixing angle must lie in [0, pi/2], got {bad[0]!r}")
    return _rotated_channels(thetas, a_alpha, a_beta, a_gamma)


def channels_from_angle(theta: float, a_alpha, a_beta,
                        a_gamma) -> TwoBodyChannelSet:
    """Channel set at a prescribed admixture angle with fixed lengths.

    This is the sweep entry point: theta rotates the alpha/beta
    eigenvectors inside the {|11>, |12>_S} block while the attached
    scattering lengths (or unitary/closed flags) stay put.
    """
    return _angle_channels([theta], a_alpha, a_beta, a_gamma)[0]


def pair_basis_rotation(phi: float) -> np.ndarray:
    """Rotation of the symmetrized pair basis induced by the one-body
    rotation u(phi) = [[cos, -sin], [sin, cos]] applied to both atoms."""
    c2 = math.cos(phi) ** 2
    s2 = math.sin(phi) ** 2
    sc = math.sin(2.0 * phi) / math.sqrt(2.0)
    return np.array([[c2, -sc, s2],
                     [sc, math.cos(2.0 * phi), -sc],
                     [s2, sc, c2]])


def one_body_rotation(phi: float, matrix: ScatteringMatrix) -> ScatteringMatrix:
    """Congruence transform of the scattering matrix under a one-body
    level rotation applied to every atom.  Leaves the root spectrum of the
    three-body channel problem unchanged."""
    w = pair_basis_rotation(phi)
    return ScatteringMatrix.from_matrix(w.T @ matrix.entries @ w)


@dataclass(frozen=True)
class ExchangeOverlap:
    """Spin part of the Faddeev exchange kernel of a channel set.

    Entry ((i,m),(j,m')) sums, over the two cyclic pair relabelings, the
    product-space inner product between the (1,2)-pair channel state and
    the relabeled channel state.  The matrix is B^T K B, K = _KERNEL and B
    = V (x) I_2 orthogonal (V the channel vectors), so it has K's spectrum:
    it is 2I - 3 W W^T with W = B^T U, U the -1 eigenvectors of K.
    """

    channels: TwoBodyChannelSet = field(repr=False)
    matrix: np.ndarray = field(init=False)  # 6 x 6

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _overlap_stack(self.channels.vectors[None])[0])


def _overlap_stack(vectors: np.ndarray) -> np.ndarray:
    """(P, 6, 6) exchange overlaps B^T K B, symmetrized, of a (P, 3, 3)
    channel-vector stack."""
    b = np.einsum("psi,mn->psmin", vectors, np.eye(2)).reshape(-1, 6, 6)
    o = np.swapaxes(b, 1, 2) @ _KERNEL @ b
    return 0.5 * (o + np.swapaxes(o, 1, 2))


def _exchange_overlaps(channel_sets) -> list[ExchangeOverlap]:
    """exchange_overlap of each channel set, as one stacked congruence."""
    o = _overlap_stack(np.array([c.vectors for c in channel_sets]))
    return [_prechecked(ExchangeOverlap, channels=c, matrix=m)
            for m, c in zip(o, channel_sets)]


def exchange_overlap(channels: TwoBodyChannelSet) -> ExchangeOverlap:
    """The 6x6 exchange overlap of a channel set (ExchangeOverlap)."""
    return ExchangeOverlap(channels)
