"""Internal-level algebra for three bosons with two internal states.

The symmetrized pair basis is ordered (|11>, |12>_S, |22>) with
|12>_S = (|12> + |21>)/sqrt(2).  Three-body spin states are built as
(pair eigenchannel of particles 1,2) x (spectator level of particle 3);
the other two Faddeev labelings are generated by cyclic relabeling when
needed and never stored.

All lengths are dimensionless numbers in one fixed unit.  Only the ratios
R/a_i enter the channel problem, so no unit handling happens here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PAIR_LABELS = ("11", "12S", "22")

# Pair states as symmetric 2x2 level tensors t[m1, m2], m in {0, 1}.
_PAIR_TENSORS = np.zeros((3, 2, 2))
_PAIR_TENSORS[0, 0, 0] = 1.0
_PAIR_TENSORS[1, 0, 1] = _PAIR_TENSORS[1, 1, 0] = 1.0 / math.sqrt(2.0)
_PAIR_TENSORS[2, 1, 1] = 1.0

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
        if v.shape != (3, 3):
            raise SpinAlgebraError("eigenvector matrix must be 3x3")
        dev = np.max(np.abs(v.T @ v - np.eye(3)))
        if dev > _ORTHO_TOL:
            raise SpinAlgebraError(
                f"eigenvectors not orthonormal (max deviation {dev:.3e})")
        object.__setattr__(self, "vectors", v)

    def flip_sign(self, channel: int) -> "TwoBodyChannelSet":
        """Same channel set with one eigenvector's overall sign flipped."""
        v = self.vectors.copy()
        v[:, channel] = -v[:, channel]
        return TwoBodyChannelSet(self.lengths, v, self.mixing_angle)


def _rotated_channels(theta: float, a_alpha, a_beta,
                      a_gamma) -> TwoBodyChannelSet:
    """Channel set whose alpha eigenvector is (cos theta, sin theta, 0)
    and whose gamma eigenvector is the decoupled |22>."""
    c, s = math.cos(theta), math.sin(theta)
    vectors = np.array([[c, s, 0.0],
                        [s, -c, 0.0],
                        [0.0, 0.0, 1.0]])
    lengths = (as_length(a_alpha), as_length(a_beta), as_length(a_gamma))
    return TwoBodyChannelSet(lengths, vectors, mixing_angle=theta)


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

    return _rotated_channels(theta, a_alpha, a_beta, a33)


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def eigenchannels(matrix: ScatteringMatrix) -> TwoBodyChannelSet:
    """Full numeric eigendecomposition of the scattering-length matrix.

    When the third pair state decouples exactly (A13 = A23 = 0) the labels
    follow the toy convention: gamma is the decoupled channel and alpha is
    the mixed-block eigenvector of the form (cos t, sin t, 0), which pairs
    with the plus branch of the closed form.  Otherwise channels are
    labeled by ascending |a|.
    """
    a = matrix.entries
    vals, vecs = np.linalg.eigh(a)

    if a[0, 2] == 0.0 and a[1, 2] == 0.0:
        gamma = int(np.argmax(np.abs(vecs[2, :])))
        mixed = [k for k in range(3) if k != gamma]
        # alpha is the algebraically larger mixed eigenvalue (plus branch)
        mixed.sort(key=lambda k: -vals[k])
        order = [mixed[0], mixed[1], gamma]
    else:
        order = sorted(range(3), key=lambda k: abs(vals[k]))

    vals = vals[order]
    vecs = vecs[:, order]
    vecs = np.column_stack([_canonical_sign(vecs[:, k]) for k in range(3)])
    return TwoBodyChannelSet(tuple(as_length(v) for v in vals), vecs)


def channels_from_angle(theta: float, a_alpha, a_beta,
                        a_gamma) -> TwoBodyChannelSet:
    """Channel set at a prescribed admixture angle with fixed lengths.

    This is the sweep entry point: theta rotates the alpha/beta
    eigenvectors inside the {|11>, |12>_S} block while the attached
    scattering lengths (or unitary/closed flags) stay put.
    """
    theta = float(theta)
    if not 0.0 <= theta <= 0.5 * math.pi:
        raise SpinAlgebraError(
            f"mixing angle must lie in [0, pi/2], got {theta!r}")
    return _rotated_channels(theta, a_alpha, a_beta, a_gamma)


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


def _channel_pair_tensors(channels: TwoBodyChannelSet) -> np.ndarray:
    """2x2 level tensors of the three eigenchannel pair states."""
    return np.einsum("si,sxy->ixy", channels.vectors, _PAIR_TENSORS)


def _faddeev_vectors(pair_tensors: np.ndarray) -> tuple[np.ndarray, ...]:
    """8-dim product-space vectors of the six (channel, spectator) states
    under the three pair labelings: (12)3, (23)1, (31)2."""
    eye = np.eye(2)
    f12 = np.einsum("ixy,mz->imxyz", pair_tensors, eye).reshape(6, 8).T
    f23 = np.einsum("iyz,mx->imxyz", pair_tensors, eye).reshape(6, 8).T
    f31 = np.einsum("izx,my->imxyz", pair_tensors, eye).reshape(6, 8).T
    return f12, f23, f31


@dataclass(frozen=True)
class ExchangeOverlap:
    """Spin part of the Faddeev exchange kernel.

    Entry ((i,m),(j,m')) sums, over the two cyclic pair relabelings, the
    product-space inner product between the (1,2)-pair channel state and
    the relabeled channel state.  Symmetric, entries in [-2, 2]; a fully
    collapsed single-level system puts exactly 2 on the surviving diagonal.
    channels is the set it was built from.
    """

    matrix: np.ndarray  # 6 x 6
    channels: TwoBodyChannelSet = field(repr=False)

    def __post_init__(self):
        o = np.asarray(self.matrix, dtype=float)
        if o.shape != (6, 6):
            raise SpinAlgebraError("overlap matrix must be 6x6")
        dev = np.max(np.abs(o - o.T))
        if dev > _ORTHO_TOL:
            raise SpinAlgebraError(f"overlap not symmetric (max dev {dev:.3e})")
        o = 0.5 * (o + o.T)
        if np.max(np.abs(o)) > 2.0 + 1e-12:
            raise SpinAlgebraError("overlap entries must lie in [-2, 2]")
        object.__setattr__(self, "matrix", o)


def exchange_overlap(channels: TwoBodyChannelSet) -> ExchangeOverlap:
    """Assemble the 6x6 exchange overlap by explicit permutation algebra
    in the 8-dim product space."""
    f12, f23, f31 = _faddeev_vectors(_channel_pair_tensors(channels))
    return ExchangeOverlap(f12.T @ f23 + f12.T @ f31, channels)
