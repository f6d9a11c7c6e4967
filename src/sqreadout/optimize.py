"""SNR maximization over (psi, r) boxes and bracketed root finding.

The SNR surfaces carry trigonometric ripples from the exp(-kappa*tau/2)
transients, so the search is a dense coarse grid followed by coordinate-wise
golden-section refinement rather than anything gradient-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import BracketError, ReadoutParams
from . import ies, ics

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
R_MAX_DEFAULT = math.log(10.0)
PSI_BOUNDS_DEFAULT = (0.01, 1.56)


@dataclass(frozen=True)
class OptimumReport:
    """Result of a box-constrained SNR maximization."""

    best_snr: float
    argmax: dict
    evaluations: int
    converged: bool


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Bracketed bisection; returns the midpoint of the final interval.

    Requires f(lo) and f(hi) of opposite sign; uses at most
    ceil(log2((hi-lo)/tol)) + 2 iterations.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise BracketError(f"f({lo:g})={fa:g} and f({hi:g})={fb:g} do not bracket a root")
    max_iter = math.ceil(math.log2((hi - lo) / tol)) + 2
    a, b = lo, hi
    for _ in range(max_iter):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


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

    Ties on the grid break deterministically toward the smallest coordinates,
    last coordinate first.  The returned value never falls below the best grid
    sample.  Returns (best_value, argmax, evaluations, converged); converged
    means a sweep moved no coordinate by 1e-6 within 200 sweeps.
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

    best_val = -math.inf
    best_x: list[float] = []
    evals = 0

    def scan(prefix: list[float], depth: int):
        nonlocal best_val, best_x, evals
        if depth == len(axes):
            v = objective(*prefix)
            evals += 1
            if v > best_val or (v == best_val and prefix[::-1] < best_x[::-1]):
                best_val, best_x = v, list(prefix)
            return
        for x in axes[depth]:
            scan(prefix + [x], depth + 1)

    scan([], 0)

    x = list(best_x)
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
            if vi > best_val:
                moved = max(moved, abs(xi - x[i]))
                x[i] = xi
                best_val = vi
        if moved < tol:
            converged = True
            break
    return best_val, x, evals, converged


def _ies_objective(kappa_tau: float, r_max: float) -> Callable[[float], tuple[float, float, float]]:
    """(SNR, r, phase) at psi for injected squeezing at unit kappa and alpha_in.

    The summed noise 2 kappa tau [cosh 2r + phase F sinh 2r] is linear in
    phase = cos(varphi - 2 phi_h), so phase = -sign(F), and it is least at
    tanh 2r = |F|, clipped to [0, r_max]; r_max = 0 is the standard readout.
    The separation uses the optimal tone/homodyne phase difference
    phi_h - phi_in = pi/2.
    """
    def objective(psi: float) -> tuple[float, float, float]:
        chi = 0.5 * math.tan(psi)
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        sep = ies.ies_moments(params, ies.IesConfig(0.0, 0.0)).separation
        shape = ies.ies_noise_shape(params)
        f = abs(shape)
        r = r_max if f >= math.tanh(2.0 * r_max) else 0.5 * math.atanh(f)
        # positive while |F| < coth(2 r_max); a physical F has |F| <= 1
        noise = 2.0 * kappa_tau * (math.cosh(2.0 * r) - f * math.sinh(2.0 * r))
        return sep / math.sqrt(noise), r, (-1.0 if shape >= 0 else 1.0)

    return objective


def _ics_objective(kappa_tau: float,
                   fix_chi: float | None = None) -> Callable[[float, float], tuple[float, float]]:
    """(SNR, phase) at (psi, r) for intracavity squeezing at unit kappa and alpha_in.

    tan(psi) = 2 lambda / kappa fixes lambda, or fix_chi pins chi and psi is
    ignored; r fixes the drive amplitude.  The noise 2 G0 - 2 phase Gs is linear
    in phase = sin(2 phi_h - theta), so the better extreme is phase = sign(Gs)
    (-1 on a tie).  Unstable points score 0.
    """
    def objective(psi: float, r: float) -> tuple[float, float]:
        omega = ics.ics_omega_from_r(1.0, r)
        lam = 0.5 * math.tan(psi)
        chi = math.sqrt(lam * lam + 4.0 * omega * omega) if fix_chi is None else fix_chi
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        cfg = ics.IcsConfig(omega, 0.0)
        if not ics.ics_stability(params, cfg):
            return 0.0, -1.0
        sep = abs(ics.ics_signal_separation(params, cfg))
        g0, gs, _ = ics.ics_noise_components(params, cfg)
        noise = 2.0 * g0 - 2.0 * abs(gs)
        return (sep / math.sqrt(noise) if noise > 0 else 0.0), (1.0 if gs > 0 else -1.0)

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
