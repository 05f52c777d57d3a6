"""Safeguarded Illinois regula falsi over many brackets at once.

_refine narrows every bracket of a batch to the sign change of its own
function in one loop of stacked evaluations.  hyperangular refines the
channel roots and the branch ends of phi with it, hyperradial the trimer
levels.
"""

from __future__ import annotations

import numpy as np

#: machine epsilon of a double
_EPS = 2.0 ** -52


def _tol(lo, hi):
    """_refine's default tolerance for brackets [lo, hi]."""
    return np.maximum(1e-12, 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))


def _refine(values, lo, hi, f_lo, f_hi, tol=None) -> np.ndarray:
    """Refine every bracket [lo[i], hi[i]] to the sign change of its
    function at once; values(idx, x) evaluates the functions of brackets
    idx at points x.  Each round steps every live bracket to its Illinois
    regula falsi point (Dowell and Jarratt, BIT 11, 1971: an end kept two
    rounds running has its value halved), held at least tol/2 inside the
    bracket, or to its midpoint if the bracket has not halved in two
    rounds, as at a kink.  Exact zeros at an end or a step are returned as
    they are; otherwise a bracket stops once it is no wider than tol[i] or
    at floating resolution, and its midpoint is returned.  The caller sets
    tol: hyperangular's channel roots and branch ends keep the default
    _tol, taken afresh each round so that it follows the bracket in, and
    the trimer ladder (hyperradial.bound_states) passes its relative
    energy tolerance."""
    lo, hi, f_lo, f_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    out = np.where(f_lo == 0.0, lo, hi)
    exact = (f_lo == 0.0) | (f_hi == 0.0)
    live = ~exact
    neg_lo = f_lo < 0.0  # the sign at lo never changes
    moved = np.zeros(lo.size, dtype=np.int8)  # last round: +1 hi, -1 lo
    # the widths one and two rounds ago
    width_1, width_2 = np.full(lo.size, np.inf), np.full(lo.size, np.inf)
    while True:
        mid = 0.5 * (lo + hi)
        t = _tol(lo, hi) if tol is None else tol
        live &= (hi - lo > t) & (mid > lo) & (mid < hi)
        idx = np.nonzero(live)[0]
        if idx.size == 0:
            break
        a, b, fa, fb = lo[idx], hi[idx], f_lo[idx], f_hi[idx]
        width = b - a
        # fa and fb are nonzero and of opposite signs: no 0/0
        x = np.clip(a + width * (fa / (fa - fb)), a + 0.5 * t[idx],
                    b - 0.5 * t[idx])
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
