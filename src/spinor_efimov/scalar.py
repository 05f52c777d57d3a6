"""Monotone branches of phi = f/g and brackets of its level sets.

In asymptotic mode the channel matrix is f(x) I - g(x) O on both axes,
and its roots solve h_j = f - g o_j = 0 over the eigenvalues o_j of O
(hyperangular._scalar_roots).  phi = f/g rises strictly on the imaginary
axis and is monotone between its turning points and poles s = 6k on the
real one, so each such branch holds one root of h_j where h_j changes
sign over it.  One table of phi over each branch, shared by every spec
solved together, narrows that bracket to one table step.
"""

from __future__ import annotations

import math

import numpy as np

from .refine import _refine

#: points of the table of phi over each monotone branch (_brackets)
_TABLE = 1024


def _phi_slope(s):
    """A positive multiple of phi' g^2 = f' g - f g' on the real axis."""
    c, sn = np.cos(0.5 * math.pi * s), np.sin(0.5 * math.pi * s)
    return (c - 0.5 * math.pi * s * sn) * np.sin(math.pi * s / 6.0) \
        - (math.pi / 6.0) * s * c * np.cos(math.pi * s / 6.0)


def _ends(lo: float, top: float, real: bool) -> np.ndarray:
    """Ends of the monotone branches of phi over the window [lo, top]:
    the window is one branch on the imaginary axis; on the real axis the
    inner ends are the sign changes of phi' (sampled every 1/64 and
    refined) and the poles s = 6k of phi, where h_j = f != 0."""
    ends = [lo, top]  # branches are half-open, (lo, hi]
    if real:
        s = np.append(np.arange(1, math.ceil(64.0 * top)) / 64.0, top)
        slope = _phi_slope(s)
        i = np.nonzero((slope[:-1] < 0.0) != (slope[1:] < 0.0))[0]
        ends += [*_refine(lambda idx, x: _phi_slope(x), s[i], s[i + 1],
                          slope[i], slope[i + 1]),
                 *6.0 * np.arange(1, math.ceil(top / 6.0))]
    return np.sort(ends)


def _holds_root(h_lo, h_hi):
    """Where (lo, hi] holds a root of h: h changes sign over it or is zero
    at hi."""
    return (np.sign(h_lo) * np.sign(h_hi) < 0.0) | (h_hi == 0.0)


def _brackets(terms, ends, o):
    """Brackets of the roots of h_j over the eigenvalues o (spec, j),
    arrays (spec, j, lo, hi, h_j(lo), h_j(hi)), one per branch between
    ends that holds a root; terms(x, r_over_a) gives g and f (with R/a =
    0 here).  phi is monotone on a branch, so in one table of phi at
    _TABLE even points over each branch, shared by every spec,
    searchsorted puts o_j between two neighbours: they are its bracket if
    they hold the root, else (as where phi ties o_j at a table point) the
    whole branch is."""
    x = ends[:-1, None] + np.diff(ends)[:, None] * (
        np.arange(_TABLE) / (_TABLE - 1))
    x[:, -1] = ends[1:]
    g, f = terms(x, np.zeros(1))
    f, phi = f[..., 0], f[..., 0] / g
    # h_j at the branch ends, (spec, branch, end, j)
    h = f[:, [0, -1], None] - g[:, [0, -1], None] * o[:, None, None, :]
    p, b, j = np.nonzero(_holds_root(h[:, :, 0], h[:, :, 1]))
    o_j = o[p, j]
    rise = np.sign(phi[:, -1] - phi[:, 0])  # searched as +-phi, phi rises
    k = np.empty(p.size, dtype=int)
    for c in set(b.tolist()):  # no np.unique: it loads numpy.ma
        on = b == c
        k[on] = np.searchsorted(rise[c] * phi[c], rise[c] * o_j[on])
    k = np.clip(k, 1, _TABLE - 1)
    ok = _holds_root(f[b, k - 1] - g[b, k - 1] * o_j, f[b, k] - g[b, k] * o_j)
    lo, hi = np.where(ok, k - 1, 0), np.where(ok, k, -1)
    return (p, j, x[b, lo], x[b, hi], f[b, lo] - g[b, lo] * o_j,
            f[b, hi] - g[b, hi] * o_j)
