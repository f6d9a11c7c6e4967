"""SNR maximization over (psi, r) boxes.

The SNR surfaces carry trigonometric ripples from the exp(-kappa*tau/2)
transients, so the search is a coarse grid followed by coordinate-wise
golden-section refinement rather than anything gradient-based.  A box with one
free axis finds its grid's best cell by a coarse-to-fine stride walk that sees
10 to 17 of the 64 points; with two free axes, pattern moves along each sweep's
displacement follow the diagonal (psi, r) ridge of the free ICS optimum.  Every
point, grid cells included, is one scalar objective call, so a search returns
values of the scalar closed forms and loads no numpy.  From kappa*tau = 1 on,
the fixed-coupling ICS search over r stops after its first sweep when that
sweep stays inside the box (its _SEARCHES entry).  Each scheme's config type supplies
its own box and objective (IesConfig.search, IcsConfig.search).
"""

from __future__ import annotations

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
    """Golden-section maximization on [lo, hi] to width tol; returns (x, f(x), evals).

    Ends that are not finite or not in order, or a tol that is not positive and
    finite, raise ValueError: the bracket cannot shrink below a few ulps of its
    ends, so tol <= 0 never ends.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"golden section ends must be finite and in order, got ({lo}, {hi})")
    if not 0 < tol < math.inf:
        raise ValueError(f"golden section tol must be positive and finite, got {tol}")
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


def _stride_walk(value: Callable[[int], float], n: int,
                 strides: Sequence[int]) -> tuple[int, float, int]:
    """First maximum of value(0), ..., value(n - 1) by strides from coarse to fine, the last 1.

    The first stride evaluates 0, stride, 2 stride, ... and n - 1; each finer stride
    evaluates only the open interval between the best point's neighbours among the
    previous stride's points, and no point is evaluated twice.  The best point is the
    first maximum of the points seen, a NaN never winning, so stride 1 alone is the full
    scan.  Strides 16, 4 and 1 find its first maximum when the values rise strictly up to
    it and never rise after it (a leading NaN run does no harm once the first stride sees
    a value above -inf).  Returns (index, value, evaluations).
    """
    seen: dict[int, float] = {}
    best, top = 0, -math.inf
    lo, hi = 0, n - 1
    for stride in strides:
        points = (lo, *range(lo + stride, hi, stride), hi)
        for i in points:
            if i not in seen:
                v = seen[i] = value(i)
                if v > top or (v == top and i < best):     # a NaN never wins
                    best, top = i, v
        at = points.index(best)
        lo, hi = points[max(at - 1, 0)], points[min(at + 1, len(points) - 1)]
    return best, seen[best], len(seen)


def maximize_over_box(objective: Callable[..., float],
                      bounds: Sequence[tuple[float, float]],
                      settle: bool = False) -> tuple[float, list, int, bool]:
    """Coarse grid, then coordinate-descent golden sections to 1e-6 with pattern moves.

    objective takes one float coordinate per axis and is called once per point.
    The grid has 64 points per free axis when the box has one free axis and 16 when it
    has more (one cell when it has none); it only picks the best cell.  Each cell is one
    flat index, the first free axis varying fastest, each free coordinate
    lo + (hi - lo) * i / (n - 1).  _stride_walk picks the cell, so a NaN cell never wins
    and ties break toward the smallest coordinates, last coordinate first.  With one free
    axis it walks strides 16, 4 and 1, computing only the 10 to 17 cells it visits, and
    picks the full scan's cell when the values rise strictly to their first maximum and
    never rise after it; with more it scans every cell (stride 1), as their values need
    not be unimodal.  Each sweep brackets every free axis by one grid cell on either
    side of the current point, clipped to the box.  A bracket that reaches the box
    edge also evaluates the edge, which wins if it is better.
    With two or more free axes, a sweep from start to x is followed by pattern
    moves (Hooke and Jeeves): start + 2^k (x - start), clipped to the box, for
    k = 1, 2, ..., each kept while it improves the value, so the search follows
    a diagonal ridge instead of crawling along it.  A search stops after a
    sweep that moves no coordinate by 1e-6.  With settle, a box with one free
    axis also stops after a sweep whose bracket lies strictly inside the box
    and whose refined point lies more than 1e-6 inside that bracket.  That
    point is the golden section's maximum of the bracket to 1e-6; the search
    gives up the second sweep, which brackets it again and may find a better
    point within that tolerance, or, on a top flat to rounding, a point farther
    away.  Returns (best_value, argmax, evaluations, converged); evaluations
    counts every objective call, and converged means the search stopped by one
    of those rules within 200 sweeps.
    Non-finite or empty bounds raise ValueError.
    """
    tol = 1e-6
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"non-finite bounds ({lo}, {hi})")
        if hi < lo:
            raise ValueError("empty bounds")
    grid = [(k, lo, hi - lo) for k, (lo, hi) in enumerate(bounds) if hi > lo]
    free = len(grid)
    n = 64 if free <= 1 else 16
    x = [lo for lo, _ in bounds]    # one point list, its free coordinates set per cell

    def grid_point(cell: int) -> list:
        # the first free axis varies fastest, so the first maximum has the smallest
        # coordinates, last coordinate first
        for k, base, width in grid:
            cell, i = divmod(cell, n)
            x[k] = base + width * i / (n - 1)
        return x

    best, best_val, evals = _stride_walk(lambda cell: objective(*grid_point(cell)), n ** free,
                                         (16, 4, 1) if free == 1 else (1,))
    grid_point(best)

    converged = False
    for _ in range(200):
        start, moved, settled = list(x), 0.0, False
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
        # pattern moves (Hooke and Jeeves): 2, 4, 8, ... times the sweep's displacement
        step = 2.0
        while free > 1:
            trial = [min(hi, max(lo, s + step * (xi - s)))
                     for s, xi, (lo, hi) in zip(start, x, bounds)]
            if trial == x:      # clipped to the point itself
                break
            v = objective(*trial)
            evals += 1
            if not v > best_val:
                break
            x, best_val, step = trial, v, 2.0 * step
    return best_val, x, evals, converged


#: the fixed-chi ICS search over r settles (maximize_over_box) from this kappa*tau on,
#: where a second sweep moves r by at most 3.5e-7.  Below it the r top flattens, and
#: rounding sets the argmax only to a few 1e-6.  The psi searches do not settle: their
#: peaks are sharp, and a second sweep still raises the SNR by up to 2.2e-11.
ICS_SETTLE_KAPPA_TAU = 1.0

# scheme name -> (config type whose search runs, largest squeeze r, kappa*tau from which
# the search settles)
_SEARCHES = {"standard": (ies.IesConfig, 0.0, math.inf),
             "ies": (ies.IesConfig, R_MAX_DEFAULT, math.inf),
             "ics": (ics.IcsConfig, R_MAX_DEFAULT, ICS_SETTLE_KAPPA_TAU)}


def maximize_snr(scheme: str, kappa_tau: float,
                 fix_chi: float | None = None) -> OptimumReport:
    """Maximize the scheme SNR at alpha_in = sqrt(kappa) over its config's search box.

    Every scheme runs one path from its _SEARCHES entry: its config type's search gives the
    box, the objective and the argmax record, with r in [0, R_MAX_DEFAULT] ('standard' is
    'ies' at r = 0), and the search settles (maximize_over_box) from the entry's kappa_tau
    on.  The noise phase (and, for 'ies', the squeeze r) is set analytically at each
    point, so 'ies' and 'standard' search psi alone and 'ics' searches (psi, r).
    fix_chi pins the dispersive coupling (in units of kappa), the convention of
    the fixed-coupling reference curves: for 'ies' and 'standard' it pins psi,
    and a box with no free axis is evaluated once, without a search; for 'ics'
    only r is searched, settling from kappa_tau = ICS_SETTLE_KAPPA_TAU (the psi searches
    never settle).  Below kappa_tau ~ 2e-3 the 'ics' optimum is set by rounding
    yet reports converged (at kappa_tau = 1e-4, chi = 0.05 kappa, 1.3 % above the 60-digit
    SNR at its r); exact short-time ICS forms (ROADMAP item 3) would mend it.  A non-finite
    or non-positive kappa_tau, or a non-finite fix_chi, raises ValueError.  The SNR is
    linear in alpha_in, so scale best_snr for another amplitude.  evaluations counts every
    objective call of the search plus the reported point.  Deterministic: identical inputs
    yield identical reports, whose values are Python floats.
    """
    if scheme not in _SEARCHES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(_SEARCHES)}")
    if not 0 < kappa_tau < math.inf:
        raise ValueError(f"kappa_tau must be positive and finite, got {kappa_tau}")
    if fix_chi is not None and not math.isfinite(fix_chi):
        raise ValueError(f"fix_chi must be finite, got {fix_chi}")
    config, r_max, settle_from = _SEARCHES[scheme]
    # floats, so that a numpy scalar input makes neither slow arithmetic nor numpy fields
    bounds, objective, point = config.search(float(kappa_tau), r_max,
                                             None if fix_chi is None else float(fix_chi))
    if all(lo == hi for lo, hi in bounds):
        x, evals, converged = [lo for lo, _ in bounds], 0, True
    else:
        _, x, evals, converged = maximize_over_box(objective, bounds,
                                                   settle=kappa_tau >= settle_from)
    best_snr, argmax = point(*x)
    return OptimumReport(best_snr=best_snr, argmax=argmax,
                         evaluations=evals + 1, converged=converged)
