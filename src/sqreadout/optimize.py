"""SNR maximization over (psi, r, phase) boxes and bracketed root finding.

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
                      bounds: Sequence[tuple[float, float]],
                      grid_points: int = 64, tol: float = 1e-6,
                      max_sweeps: int = 200) -> tuple[float, list[float], int, bool]:
    """Coarse grid plus coordinate-descent golden-section over a box.

    Ties on the grid break deterministically toward the smallest coordinates,
    last coordinate first.  The returned value never falls below the best grid
    sample.  Returns (best_value, argmax, evaluations, converged).
    """
    axes = []
    for lo, hi in bounds:
        if hi < lo:
            raise ValueError("empty bounds")
        if hi == lo:
            axes.append([lo])
        else:
            n = grid_points
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
    for _ in range(max_sweeps):
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):
            if hi == lo:
                continue
            cell = (hi - lo) / (grid_points - 1)
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


def _ies_objective(kappa_tau: float, alpha_in: float) -> Callable[[float, float, float], float]:
    """SNR(psi, r, phase) for injected squeezing at unit kappa.

    phase is cos(varphi - 2 phi_h) in [-1, 1]; the separation uses the optimal
    tone/homodyne phase difference phi_h - phi_in = pi/2.
    """
    def objective(psi: float, r: float, phase_cos: float) -> float:
        chi = 0.5 * math.tan(psi)
        params = ReadoutParams(1.0, chi, alpha_in, 0.0, math.pi / 2.0, kappa_tau)
        cfg0 = ies.IesConfig(0.0, 0.0)
        sep = ies.ies_moments(params, cfg0).separation
        shape = ies.ies_noise_shape(params)
        noise = 2.0 * kappa_tau * (math.cosh(2.0 * r)
                                   + phase_cos * shape * math.sinh(2.0 * r))
        if noise <= 0:
            return 0.0
        return sep / math.sqrt(noise)

    return objective


def _ics_objective(kappa_tau: float, alpha_in: float,
                   fix_chi: float | None = None) -> Callable[[float, float, float], float]:
    """SNR(psi, r, phase) for intracavity squeezing at unit kappa.

    tan(psi) = 2 lambda / kappa fixes lambda, or fix_chi pins chi and psi is
    ignored; r fixes the drive amplitude; phase is sin(2 phi_h - theta) in [-1, 1].
    Unstable points score 0.
    """
    def objective(psi: float, r: float, phase_sin: float) -> float:
        omega = ics.ics_omega_from_r(1.0, r)
        if fix_chi is None:
            lam = 0.5 * math.tan(psi)
            chi = math.sqrt(lam * lam + 4.0 * omega * omega)
        else:
            chi = fix_chi
        params = ReadoutParams(1.0, chi, alpha_in, 0.0, math.pi / 2.0, kappa_tau)
        cfg = ics.IcsConfig(omega, 0.0)
        if not ics.ics_stability(params, cfg):
            return 0.0
        sep = abs(ics.ics_signal_separation(params, cfg))
        g0, gs, _ = ics.ics_noise_components(params, cfg)
        noise = 2.0 * g0 - 2.0 * phase_sin * gs
        if noise <= 0:
            return 0.0
        return sep / math.sqrt(noise)

    return objective


_PHASE_EXTREMES = {"ies": (-1.0, 1.0), "ics": (-1.0, 1.0), "standard": (0.0,)}


def maximize_snr(scheme: str, kappa_tau: float,
                 psi_bounds: tuple[float, float] = PSI_BOUNDS_DEFAULT,
                 r_bounds: tuple[float, float] = (0.0, R_MAX_DEFAULT),
                 alpha_in: float = 1.0, grid_points: int = 64,
                 phase_continuous: bool = False,
                 fix_chi: float | None = None) -> OptimumReport:
    """Maximize the scheme SNR over (psi, r) with the phase at its extremal settings.

    The phase coordinate is restricted to the analytic extrema (noise-phase
    cosine/sine = +-1); phase_continuous additionally refines it on [-1, 1].
    fix_chi pins the dispersive coupling (in units of kappa): for 'ies' and
    'standard' this collapses the psi box to atan(2*chi/kappa); for 'ics' the
    oscillation rate follows from (chi, r) and only r is searched.  This is the
    convention of the fixed-coupling reference curves.  Deterministic:
    identical inputs yield identical reports.
    """
    if scheme not in _PHASE_EXTREMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(_PHASE_EXTREMES)}")
    if not kappa_tau > 0:
        raise ValueError("kappa_tau must be positive")

    if scheme == "ics":
        objective = _ics_objective(kappa_tau, alpha_in, fix_chi)
        if fix_chi is not None:
            psi_bounds = (0.0, 0.0)
    else:
        # standard: the ies objective with r pinned to 0, where the noise is exactly 2 kappa tau
        objective = _ies_objective(kappa_tau, alpha_in)
        if fix_chi is not None:
            psi_pin = math.atan(2.0 * fix_chi)
            psi_bounds = (psi_pin, psi_pin)
    if scheme == "standard":
        r_bounds = (0.0, 0.0)

    best = None
    total_evals = 0
    for phase in _PHASE_EXTREMES[scheme]:
        val, x, evals, conv = maximize_over_box(
            lambda p, r, ph=phase: objective(p, r, ph),
            [psi_bounds, r_bounds], grid_points=grid_points)
        total_evals += evals
        if best is None or val > best[0]:
            best = (val, x, phase, conv)
    val, x, phase, conv = best

    if phase_continuous and scheme != "standard":
        ph, vph, used = golden_section_max(lambda p: objective(x[0], x[1], p),
                                           -1.0, 1.0, 1e-6)
        total_evals += used
        if vph > val:
            val, phase = vph, ph

    psi, r = x
    argmax = {"psi": psi, "r": r, "phase": phase}
    if scheme == "ics":
        if fix_chi is not None:
            argmax["chi_over_kappa"] = fix_chi
            argmax["omega_2ph_over_kappa"] = ics.ics_omega_from_r(1.0, r)
        else:
            argmax["lambda_over_kappa"] = 0.5 * math.tan(psi)
            argmax["omega_2ph_over_kappa"] = ics.ics_omega_from_r(1.0, r)
    else:
        argmax["chi_over_kappa"] = 0.5 * math.tan(psi)
    return OptimumReport(best_snr=val, argmax=argmax,
                         evaluations=total_evals, converged=conv)
