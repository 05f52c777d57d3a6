"""Independent references for the benchmark's correctness checks.

Nothing here imports the package under test.  The references are

* admixture sweep: in asymptotic mode with one unitary channel (beta) and
  the others closed, the channel matrix is f(s) I - g(s) O over the two
  spectator states of beta, so every root solves a scalar equation

      kappa cosh(pi kappa/2) = (4/sqrt 3) lam sinh(pi kappa/6)   (s = i kappa)
      s cos(s pi/2)          = (4/sqrt 3) lam sin(s pi/6)        (real s)

  with lam an eigenvalue of beta's 2x2 exchange-overlap block.  The block
  is built here from the permutation algebra of three two-level atoms,
  the roots are bracketed on a grid ten times finer than the library's
  and refined with mpmath.findroot at 30 digits;
* trimer ladder: with F = sqrt(R) K_{i kappa}(k R) and a hard wall at r0,
  the levels are E_n = -x_n^2 / (2 m r0^2), x_n the zeros of K_{i kappa}
  from the largest down (mpmath.besselk).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

KERNEL = 4.0 / math.sqrt(3.0)
#: two oracle roots closer than this are one multiple root
MERGE_TOL = 1e-8
#: a root closer than this to the scan window's upper edge may be reported
#: or not: at the check tolerance it cannot be placed inside or outside
EDGE_TOL = 1e-9
_SCAN_POINTS = 20001


def beta_overlap_eigenvalues(theta: float) -> tuple[float, float]:
    """Eigenvalues of the exchange overlap restricted to the beta channel's
    two spectator states; beta is (sin t, -cos t, 0) over (|11>, |12>_S,
    |22>)."""
    e = np.eye(2)
    pair = (np.outer(e[0], e[0]),
            (np.outer(e[0], e[1]) + np.outer(e[1], e[0])) / math.sqrt(2.0),
            np.outer(e[1], e[1]))
    t = math.sin(theta) * pair[0] - math.cos(theta) * pair[1]
    # pair on atoms (1,2) with spectator level m on atom 3, and the two
    # cyclic relabelings: pair on (2,3) / spectator on 1, pair on (3,1) /
    # spectator on 2
    own = [np.einsum("xy,z->xyz", t, e[m]) for m in range(2)]
    p23 = [np.einsum("yz,x->xyz", t, e[m]) for m in range(2)]
    p31 = [np.einsum("zx,y->xyz", t, e[m]) for m in range(2)]
    o = np.array([[np.sum(own[m] * (p23[n] + p31[n])) for n in range(2)]
                  for m in range(2)])
    a, b, d = o[0, 0], 0.5 * (o[0, 1] + o[1, 0]), o[1, 1]
    mid, half = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    return mid - half, mid + half


def _imag_scalar(lam):
    return lambda k: k * mpmath.cosh(mpmath.pi * k / 2) \
        - KERNEL * lam * mpmath.sinh(mpmath.pi * k / 6)


def _real_scalar(lam):
    return lambda s: s * mpmath.cos(s * mpmath.pi / 2) \
        - KERNEL * lam * mpmath.sin(s * mpmath.pi / 6)


def _scalar_roots(lam: float, axis: str, upper: float) -> list[float]:
    """Sign-change roots of the scalar equation in (0, upper + margin]."""
    xs = np.linspace(1e-7, upper + 1e-3, _SCAN_POINTS)
    if axis == "imaginary":
        # divided by cosh(pi kappa/2) > 0 to stay finite
        ys = xs - KERNEL * lam * np.sinh(np.pi * xs / 6) / np.cosh(np.pi * xs / 2)
        f = _imag_scalar(mpmath.mpf(lam))
    else:
        ys = xs * np.cos(np.pi * xs / 2) - KERNEL * lam * np.sin(np.pi * xs / 6)
        f = _real_scalar(mpmath.mpf(lam))
    neg = ys < 0.0
    out = []
    for i in np.nonzero(neg[:-1] != neg[1:])[0]:
        root = mpmath.findroot(f, (mpmath.mpf(xs[i]), mpmath.mpf(xs[i + 1])),
                               solver="anderson")
        out.append(float(root))
    return out


def _group(values: list[float]) -> list[list[float]]:
    groups: list[list[float]] = []
    for v in sorted(values):
        if groups and v - groups[-1][-1] <= MERGE_TOL:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def admixture_roots(params: dict) -> list[dict]:
    """Per theta grid point: the expected roots on both axes, each a list of
    [value, multiplicity, optional] entries; optional marks edge roots."""
    mpmath.mp.dps = 30
    thetas = np.linspace(params["theta_min"], params["theta_max"],
                         params["theta_count"])
    windows = {"imaginary": params["kappa_max"], "real": params["s_max"]}
    out = []
    for theta in thetas:
        lams = beta_overlap_eigenvalues(float(theta))
        point = {"theta": float(theta)}
        for axis, upper in windows.items():
            found = [r for lam in lams for r in _scalar_roots(lam, axis, upper)]
            entries = []
            for grp in _group(found):
                value = sum(grp) / len(grp)
                if value > upper + EDGE_TOL:
                    continue
                entries.append([value, len(grp), value >= upper - EDGE_TOL])
            point[axis] = entries
        out.append(point)
    return out


def ladder_energies(kappa: float, n_levels: int, r0: float,
                    mass: float = 1.0) -> list[float]:
    """The n_levels deepest hard-wall levels of U = -(kappa^2+1/4)/(2 m R^2),
    from the zeros of K_{i kappa}(x) scanned downward in ln x."""
    mpmath.mp.dps = 25
    kappa_mp = mpmath.mpf(kappa)

    def k_of(lx):
        return mpmath.re(mpmath.besselk(1j * kappa_mp, mpmath.exp(lx)))

    # K_{i kappa}(x) has no zero above x = kappa + 5; below, zeros are spaced
    # by pi/kappa in ln x, so sixteen steps per spacing cannot skip one
    step = math.pi / kappa / 16.0
    lx = math.log(kappa + 5.0)
    prev = k_of(lx)
    zeros: list[float] = []
    while len(zeros) < n_levels:
        nxt = lx - step
        val = k_of(nxt)
        if (val < 0) != (prev < 0):
            zeros.append(mpmath.findroot(k_of, (nxt, lx), solver="anderson"))
        lx, prev = nxt, val
    return [float(-mpmath.exp(2 * z) / (2 * mass * r0 * r0)) for z in zeros]
