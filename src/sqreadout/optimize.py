"""SNR maximization over (psi, r) boxes.

The SNR surfaces carry trigonometric ripples from the exp(-kappa*tau/2)
transients, so the search is a dense coarse grid followed by coordinate-wise
golden-section refinement rather than anything gradient-based.  A box with one
free axis scans its grid with one scalar objective call per point; a box with
two is one array evaluation of the objective on the numpy grid, which only
picks the best cell.  That cell and every refinement point are evaluated with
floats, so each value a search returns comes from the scalar closed forms, and
a one-axis search loads no numpy.  From kappa*tau = 1 on, the fixed-coupling
ICS search over r stops after its first sweep when that sweep stays inside the
box (maximize_snr).  Each scheme's config type supplies its own box and
objective (IesConfig.search, IcsConfig.search).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .core import R_MAX_DEFAULT, Record
from . import ies, ics

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OptimumReport(Record):
    """Result of a box-constrained SNR maximization."""

    best_snr: float
    argmax: dict
    evaluations: int
    converged: bool


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi] to width tol; returns (x, f(x), evals)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        evals += 1
    x = c if fc > fd else d
    return x, max(fc, fd), evals


def maximize_over_box(objective: Callable[..., float],
                      bounds: Sequence[tuple[float, float]],
                      settle: bool = False) -> tuple[float, list, int, bool]:
    """64-point grid per axis, then coordinate-descent golden sections to 1e-6.

    objective takes one coordinate per axis.  The grid only picks the best cell:
    a NaN cell never wins, and ties break deterministically toward the smallest
    coordinates, last coordinate first.  With at most one free axis the grid is
    one scalar call per point; with more it is one call with the ij-indexed
    numpy meshgrid of the axes.  The chosen cell and every refinement point are
    evaluated with float coordinates, so the returned value never falls below
    the scalar value of the chosen cell.  Each sweep brackets every free axis
    by one grid cell on either side of the current point, clipped to the box.
    A bracket that reaches the box edge also evaluates the edge, which wins if
    it is better.  A search stops after a sweep that moves no coordinate by
    1e-6.  With settle, a box with one free axis also stops after a sweep whose
    bracket lies strictly inside the box and whose refined point lies more than
    1e-6 inside that bracket.  That point is the golden section's maximum of the
    bracket to 1e-6; the search gives up the second sweep, which brackets it
    again and may find a better point within that tolerance, or, on a top flat
    to rounding, a point farther away.  Returns (best_value, argmax,
    evaluations, converged); evaluations counts the grid cells and the
    refinement points (a two-axis grid's chosen cell is evaluated again as a
    float and not counted), and converged means the search stopped by one of
    those rules within 200 sweeps.
    """
    n, tol = 64, 1e-6
    axes = []
    for lo, hi in bounds:
        if hi < lo:
            raise ValueError("empty bounds")
        if hi == lo:
            axes.append([lo])
        else:
            axes.append([lo + (hi - lo) * i / (n - 1) for i in range(n)])

    free = sum(len(axis) > 1 for axis in axes)
    if free <= 1:
        cells = [list(cell) for cell in itertools.product(*axes)]
        values = [objective(*cell) for cell in cells]
        # a NaN cell never wins; the first maximum breaks ties
        ranked = [-math.inf if v != v else v for v in values]
        best = ranked.index(max(ranked))
        x, best_val, evals = cells[best], values[best], len(cells)
    else:
        import numpy as np
        shape = tuple(len(axis) for axis in axes)
        grid = np.broadcast_to(objective(*np.meshgrid(*axes, indexing="ij")), shape)
        # a NaN cell never wins; the first maximum along the reversed axes breaks ties
        ranked = np.where(np.isnan(grid), -np.inf, grid).transpose().ravel()
        best = np.unravel_index(int(np.argmax(ranked)), shape[::-1])[::-1]
        x = [axis[i] for axis, i in zip(axes, best)]
        best_val = objective(*x)
        evals = grid.size

    converged = False
    for _ in range(200):
        moved, settled = 0.0, False
        for i, (lo, hi) in enumerate(bounds):
            if hi == lo:
                continue
            cell = (hi - lo) / (n - 1)
            a = max(lo, x[i] - cell)
            b = min(hi, x[i] + cell)

            trial = list(x)     # x changes only after this line search
            def slice_f(xi: float, i=i, trial=trial) -> float:
                trial[i] = xi
                return objective(*trial)

            xi, vi, used = golden_section_max(slice_f, a, b, tol)
            evals += used
            settled = settle and free == 1 and lo < a and b < hi and xi - a > tol and b - xi > tol
            # golden sections never sample the ends of their interval
            for edge, reached in ((lo, a == lo), (hi, b == hi)):
                if reached:
                    v_edge = slice_f(edge)
                    evals += 1
                    if v_edge > vi:
                        xi, vi = edge, v_edge
            if vi > best_val:
                moved = max(moved, abs(xi - x[i]))
                x[i] = xi
                best_val = vi
        if moved < tol or settled:
            converged = True
            break
    return best_val, x, evals, converged


#: the fixed-chi ICS search over r settles (maximize_over_box) from this kappa*tau on,
#: where a second sweep moves r by at most 3.5e-7.  Below it the r top flattens, and
#: rounding sets the argmax only to a few 1e-6.  The psi searches do not settle: their
#: peaks are sharp, and a second sweep still raises the SNR by up to 2.2e-11.
ICS_SETTLE_KAPPA_TAU = 1.0

# scheme name -> (config type whose search runs, largest squeeze r)
_SEARCHES = {"standard": (ies.IesConfig, 0.0), "ies": (ies.IesConfig, R_MAX_DEFAULT),
             "ics": (ics.IcsConfig, R_MAX_DEFAULT)}


def maximize_snr(scheme: str, kappa_tau: float,
                 fix_chi: float | None = None) -> OptimumReport:
    """Maximize the scheme SNR at alpha_in = sqrt(kappa) over its config's search box.

    The config type's search gives the box, the objective and the argmax
    record, with r in [0, R_MAX_DEFAULT] ('standard' is 'ies' at r = 0).  The
    noise phase (and, for 'ies', the squeeze r) is set analytically at each
    point, so 'ies' and 'standard' search psi alone and 'ics' searches (psi, r).
    fix_chi pins the dispersive coupling (in units of kappa), the convention of
    the fixed-coupling reference curves: for 'ies' and 'standard' it pins psi,
    and a box with no free axis is evaluated once, without a search; for 'ics'
    only r is searched, and from kappa_tau = ICS_SETTLE_KAPPA_TAU on that search
    settles (maximize_over_box).  The SNR is linear in alpha_in, so scale
    best_snr for another amplitude.  Deterministic: identical inputs yield
    identical reports, whose values are Python floats.
    """
    if scheme not in _SEARCHES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(_SEARCHES)}")
    if not kappa_tau > 0:
        raise ValueError("kappa_tau must be positive")
    config, r_max = _SEARCHES[scheme]
    # floats, so that a numpy scalar input makes neither slow arithmetic nor numpy fields
    bounds, objective, point = config.search(float(kappa_tau), r_max,
                                             None if fix_chi is None else float(fix_chi))
    if all(lo == hi for lo, hi in bounds):
        x, evals, converged = [lo for lo, _ in bounds], 0, True
    else:
        settle = scheme == "ics" and kappa_tau >= ICS_SETTLE_KAPPA_TAU
        _, x, evals, converged = maximize_over_box(objective, bounds, settle=settle)
    best_snr, argmax = point(*x)
    return OptimumReport(best_snr=best_snr, argmax=argmax,
                         evaluations=evals + 1, converged=converged)
