"""SNR maximization over (psi, r) boxes.

The SNR surfaces carry trigonometric ripples from the exp(-kappa*tau/2)
transients, so the search is a dense coarse grid followed by coordinate-wise
golden-section refinement rather than anything gradient-based.  The grid is
one array evaluation of the objective, which only picks the best cell; that
cell and every refinement point are evaluated with floats, so each value a
search returns comes from the scalar closed forms.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .core import Record
from .core import bisect  # noqa: F401  (optimize.bisect is core.bisect)
from . import ies, ics

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
R_MAX_DEFAULT = math.log(10.0)
PSI_BOUNDS_DEFAULT = (0.01, 1.56)
# the searches read the tone at phi_in = 0 with homodyne angle phi_h = pi/2
_PHI_H = math.pi / 2.0


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
                      bounds: Sequence[tuple[float, float]]) -> tuple[float, list, int, bool]:
    """64-point grid per axis, then coordinate-descent golden sections to 1e-6.

    objective takes one coordinate per axis.  The grid is one call with the
    ij-indexed numpy meshgrid of the axes, and it only picks the best cell:
    ties break deterministically toward the smallest coordinates, last
    coordinate first.  That cell and every refinement point are evaluated with
    float coordinates, so the returned value never falls below the scalar value
    of the chosen cell.  A refinement interval that reaches the box edge also
    evaluates the edge, which wins if it is better.  Returns (best_value,
    argmax, evaluations, converged); evaluations counts grid cells and
    refinement points (the chosen cell once), and converged means a sweep
    moved no coordinate by 1e-6 within 200 sweeps.
    """
    import numpy as np
    n, tol = 64, 1e-6
    axes = []
    for lo, hi in bounds:
        if hi < lo:
            raise ValueError("empty bounds")
        if hi == lo:
            axes.append([lo])
        else:
            axes.append([lo + (hi - lo) * i / (n - 1) for i in range(n)])

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
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):
            if hi == lo:
                continue
            cell = (hi - lo) / (n - 1)
            a = max(lo, x[i] - cell)
            b = min(hi, x[i] + cell)

            def slice_f(xi: float, i=i) -> float:
                trial = list(x)
                trial[i] = xi
                return objective(*trial)

            xi, vi, used = golden_section_max(slice_f, a, b, tol)
            evals += used
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
        if moved < tol:
            converged = True
            break
    return best_val, x, evals, converged


def _ies_objective(kappa_tau: float, r_max: float) -> Callable:
    """(SNR, r, phase) at psi for injected squeezing at unit kappa and alpha_in.

    The summed noise 2 kappa tau [cosh 2r + phase F sinh 2r] is linear in
    phase = cos(varphi - 2 phi_h), so phase = -sign(F), and it is least at
    tanh 2r = |F|, clipped to [0, r_max]; r_max = 0 is the standard readout.
    The separation uses the optimal tone/homodyne phase difference
    phi_h - phi_in = pi/2.  A float psi gives floats from the scalar closed
    forms; a numpy array gives arrays, evaluated in one pass.
    """
    import numpy as np
    tanh_max = math.tanh(2.0 * r_max)

    def objective(psi):
        fn = np if isinstance(psi, np.ndarray) else math
        chi = 0.5 * fn.tan(psi)
        sep = abs(ies._signal(kappa_tau, chi, 1.0, 0.0, _PHI_H, 1, fn)
                  - ies._signal(kappa_tau, chi, 1.0, 0.0, _PHI_H, -1, fn))
        shape = ies._noise_shape(kappa_tau, chi, fn)
        f = abs(shape)
        if fn is math:
            r = r_max if f >= tanh_max else 0.5 * math.atanh(f)
            phase = -1.0 if shape >= 0 else 1.0
        else:
            r = np.where(f >= tanh_max, r_max, 0.5 * np.arctanh(np.minimum(f, tanh_max)))
            phase = np.where(shape >= 0, -1.0, 1.0)
        # positive while |F| < coth(2 r_max); a physical F has |F| <= 1
        noise = 2.0 * kappa_tau * (fn.cosh(2.0 * r) - f * fn.sinh(2.0 * r))
        return sep / fn.sqrt(noise), r, phase

    return objective


def _ics_objective(kappa_tau: float, fix_chi: float | None = None) -> Callable:
    """(SNR, phase) at (psi, r) for intracavity squeezing at unit kappa and alpha_in.

    tan(psi) = 2 lambda / kappa fixes lambda, or fix_chi pins chi and psi is
    ignored; r fixes the drive amplitude.  The noise 2 G0 - 2 phase Gs is linear
    in phase = sin(2 phi_h - theta), so the better extreme is phase = sign(Gs)
    (-1 on a tie).  Unstable points score 0.  Float coordinates give floats
    from the scalar closed forms; numpy arrays give arrays in one pass over the
    stable points only, with the same real-valued forms.
    """
    import numpy as np

    def terms(chi, omega, fn):
        integrals, up, down = ics._signal_pair(kappa_tau, chi, omega, 1.0, 0.0, _PHI_H, 0.0, fn)
        g0, gs, _ = ics._noise_components(kappa_tau, chi, omega, integrals)
        return abs(up - down), 2.0 * g0 - 2.0 * abs(gs), gs

    def objective(psi, r):
        fn = np if isinstance(r, np.ndarray) else math
        omega = ics._omega_from_r(1.0, r, fn)
        lam = 0.5 * fn.tan(psi)
        chi = fn.sqrt(lam * lam + 4.0 * omega * omega) if fix_chi is None else fix_chi
        _, unstable, steady = ics._stability(1.0, chi, omega)
        if fn is math:
            if unstable or not steady:
                return 0.0, -1.0
            sep, noise, gs = terms(chi, omega, math)
            return (sep / math.sqrt(noise) if noise > 0 else 0.0), (1.0 if gs > 0 else -1.0)
        stable = ~unstable & steady
        snr, phase = np.zeros(stable.shape), np.full(stable.shape, -1.0)
        sep, noise, gs = terms(np.broadcast_to(chi, stable.shape)[stable], omega[stable], np)
        positive = noise > 0
        snr[stable] = np.where(positive, sep / np.sqrt(np.where(positive, noise, 1.0)), 0.0)
        phase[stable] = np.where(gs > 0, 1.0, -1.0)
        return snr, phase

    return objective


def maximize_snr(scheme: str, kappa_tau: float,
                 fix_chi: float | None = None) -> OptimumReport:
    """Maximize the scheme SNR at alpha_in = sqrt(kappa) over the (psi, r) box.

    The box is PSI_BOUNDS_DEFAULT x [0, R_MAX_DEFAULT].  The noise phase (and,
    for 'ies', the squeeze r) is set analytically at each point, so 'ies' and
    'standard' search psi alone and 'ics' searches (psi, r).  fix_chi pins the
    dispersive coupling (in units of kappa): for 'ies' and 'standard' this pins
    psi = atan(2*chi/kappa) and needs no search; for 'ics' the oscillation rate
    follows from (chi, r) and only r is searched.  This is the convention of
    the fixed-coupling reference curves.  The SNR is linear in alpha_in, so
    scale best_snr for another amplitude.  Deterministic: identical inputs
    yield identical reports.
    """
    if scheme not in ("ies", "ics", "standard"):
        raise ValueError(f"unknown scheme {scheme!r}; expected one of ['ics', 'ies', 'standard']")
    if not kappa_tau > 0:
        raise ValueError("kappa_tau must be positive")

    if scheme == "ics":
        objective = _ics_objective(kappa_tau, fix_chi)
        psi_bounds = PSI_BOUNDS_DEFAULT if fix_chi is None else (0.0, 0.0)
        _, (psi, r), evals, conv = maximize_over_box(
            lambda p, r: objective(p, r)[0], [psi_bounds, (0.0, R_MAX_DEFAULT)])
        val, phase = objective(psi, r)
        argmax = {"psi": psi, "r": r, "phase": phase,
                  "omega_2ph_over_kappa": ics.ics_omega_from_r(1.0, r)}
        if fix_chi is None:
            argmax["lambda_over_kappa"] = 0.5 * math.tan(psi)
        else:
            argmax["chi_over_kappa"] = fix_chi
    else:
        objective = _ies_objective(kappa_tau, R_MAX_DEFAULT if scheme == "ies" else 0.0)
        if fix_chi is None:
            _, (psi,), evals, conv = maximize_over_box(
                lambda p: objective(p)[0], [PSI_BOUNDS_DEFAULT])
        else:
            psi, evals, conv = math.atan(2.0 * fix_chi), 0, True
        val, r, phase = objective(psi)
        argmax = {"psi": psi, "r": r, "phase": phase,
                  "chi_over_kappa": 0.5 * math.tan(psi)}
    return OptimumReport(best_snr=val, argmax=argmax,
                         evaluations=evals + 1, converged=conv)
