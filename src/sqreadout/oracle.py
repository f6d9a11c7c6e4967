"""Brute-force verifier for homodyne moments via discretized Gaussian modes.

The measurement interval is split into K bins; the white input noise in each
bin is represented by one discrete Gaussian mode, the cavity is propagated
exactly per bin with the 2x2 matrix exponential of the drift, and the
integrated record M becomes a linear form over the initial mode plus all bin
modes.  Means and variances are then exact quadratic forms of the mode
statistics; the only approximation is the piecewise-constant noise kernel,
whose error falls off as O(1/K) and is removed by Richardson extrapolation.
None of the analytic closed forms enter here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import (MeasurementMoments, OracleConvergenceError, QubitState,
                   ReadoutParams, StabilityError)

MeanInput = Union[complex, float, Callable[[float], complex]]

MAX_STEPS = 2 ** 17


@dataclass(frozen=True)
class LinearReadoutSystem:
    """Linear cavity dynamics plus measurement chain, as the oracle sees it.

    drift            : 2x2 complex matrix acting on (mode, conjugate mode)
    input_mean       : coherent drive amplitude in the working frame, constant
                       or a function of time
    input_corr       : white-noise pair (N_in, M_in)
    init_mean        : initial coherent amplitude of the working mode
    init_cov         : initial fluctuation pair (N0, M0)
    output_transform : 2x2 Bogoliubov map from working-frame output to the
                       lab-frame field entering the homodyne detector
    """

    drift: np.ndarray
    input_mean: MeanInput
    input_corr: tuple[float, complex]
    init_mean: complex
    init_cov: tuple[float, complex]
    output_transform: np.ndarray
    homodyne_angle: float
    kappa: float
    tau: float

    def __post_init__(self):
        drift = np.asarray(self.drift, dtype=complex).reshape(2, 2)
        out = np.asarray(self.output_transform, dtype=complex).reshape(2, 2)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "output_transform", out)
        if not (self.kappa > 0 and self.tau > 0):
            raise ValueError("kappa and tau must be positive")
        eigs = np.linalg.eigvals(drift)
        if np.any(eigs.real > 1e-12 * self.kappa):
            raise StabilityError(f"drift has growing eigenvalues: {eigs}")
        for n, m in (self.input_corr, self.init_cov):
            if n < 0 or abs(m) > math.sqrt(n * (n + 1.0)) + 1e-9 * (1.0 + n):
                raise ValueError(f"unphysical Gaussian moments N={n}, M={m}")
        det = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"output transform is not symplectic: det={det}")

    def mean_at(self, t: np.ndarray) -> np.ndarray:
        if callable(self.input_mean):
            return np.asarray([complex(self.input_mean(ti)) for ti in t])
        return np.full(len(t), complex(self.input_mean))


@dataclass(frozen=True)
class OracleResult:
    """Moments at K bins plus the K/2K Richardson extrapolation."""

    mean_M: float
    var_M: float
    steps: int
    richardson: tuple[float, float]
    residual: tuple[float, float]

    def __post_init__(self):
        if self.var_M < -1e-12:
            raise ValueError("oracle produced a negative variance")


def default_steps(system: LinearReadoutSystem) -> int:
    """K = max(4096, ceil(64 (|omega| + kappa) tau)), omega the drift's fastest rotation."""
    omega = float(np.max(np.abs(np.linalg.eigvals(system.drift).imag)))
    return max(4096, math.ceil(64.0 * (omega + system.kappa) * system.tau))


def _propagators(system: LinearReadoutSystem, steps: int):
    """Eigen-factored per-bin propagator and its integrals."""
    dt = system.tau / steps
    a = system.drift
    evals, vecs = np.linalg.eig(a * dt)
    if np.linalg.cond(vecs) > 1e10:
        # defective drift (degenerate parametric point); nudge to split eigenvalues
        a = a + 1e-9 * system.kappa * np.diag([1.0, -1.0])
        evals, vecs = np.linalg.eig(a * dt)
    vinv = np.linalg.inv(vecs)
    lam = np.exp(evals)
    expm = vecs @ np.diag(lam) @ vinv
    ainv = np.linalg.inv(a)
    f_int = ainv @ (expm - np.eye(2))              # int_0^dt e^{Au} du
    g_int = ainv @ (f_int - dt * np.eye(2))        # int_0^dt int_0^u e^{Aw} dw du
    return dt, lam, vecs, vinv, expm, f_int, g_int


def _linear_form(system: LinearReadoutSystem, steps: int):
    """Coefficients of M over (initial mode, bin modes).

    Returns (ell0, ell) where ell0 is the 2-vector weight of (a(0), a^dag(0))
    and ell[j] the 2-vector weight of the j-th bin mode pair.
    """
    dt, lam, vecs, vinv, expm, f_int, g_int = _propagators(system, steps)
    k = system.kappa
    w = np.array([np.exp(-1j * system.homodyne_angle), np.exp(1j * system.homodyne_angle)])
    wp = w @ system.output_transform

    dmat = -math.sqrt(k / dt) * f_int
    hmat = -math.sqrt(k / dt) * g_int

    n = np.arange(steps)
    lam_pow = np.exp(np.outer(n, np.log(lam)))            # lam^n, n = 0..K-1
    geo = (lam_pow - 1.0) / (lam - 1.0)                   # S_n in the eigenbasis
    lam_k = np.exp(steps * np.log(lam))
    s_k = vecs @ np.diag((lam_k - 1.0) / (lam - 1.0)) @ vinv

    p = (wp @ f_int) @ vecs
    q = vinv @ dmat
    base = math.sqrt(k * dt) * wp + k * (wp @ hmat)
    # row n of geo corresponds to bin j = K-1-n
    ell_rev = base[None, :] + k * ((geo * p[None, :]) @ q)
    ell = ell_rev[::-1]
    ell0 = k * (wp @ (f_int @ s_k))
    return ell0, ell, dt


def _pair_variance(u: np.ndarray, v: np.ndarray, n: float, m: complex) -> float:
    """Variance contribution of modes with weights u b + v b^dag and moments (n, m)."""
    return float(np.sum(u * u * m + v * v * np.conj(m) + u * v * (2.0 * n + 1.0)).real)


def _moments_once(system: LinearReadoutSystem, steps: int) -> tuple[float, float]:
    ell0, ell, dt = _linear_form(system, steps)
    mids = (np.arange(steps) + 0.5) * dt
    a_bar = system.mean_at(mids)
    mean = math.sqrt(dt) * np.sum(ell[:, 0] * a_bar + ell[:, 1] * np.conj(a_bar))
    mean += ell0[0] * system.init_mean + ell0[1] * np.conj(system.init_mean)
    n_in, m_in = system.input_corr
    n0, m0 = system.init_cov
    var = _pair_variance(ell[:, 0], ell[:, 1], n_in, m_in)
    var += _pair_variance(np.atleast_1d(ell0[0]), np.atleast_1d(ell0[1]), n0, m0)
    return float(mean.real), var


def oracle_moments(system: LinearReadoutSystem, steps: int | None = None) -> OracleResult:
    """Mean and variance of M at K and 2K bins with Richardson extrapolation."""
    if steps is None:
        steps = default_steps(system)
    if steps < 64:
        raise ValueError("need at least 64 bins")
    m1, v1 = _moments_once(system, steps)
    m2, v2 = _moments_once(system, 2 * steps)
    rich = (2.0 * m2 - m1, 2.0 * v2 - v1)
    return OracleResult(mean_M=m2, var_M=v2, steps=steps, richardson=rich,
                        residual=(m2 - m1, v2 - v1))


def oracle_moments_auto(system: LinearReadoutSystem, tol: float = 1e-4,
                        start_steps: int | None = None) -> OracleResult:
    """Double K until the K -> 2K change falls below 10*tol (relative)."""
    steps = start_steps if start_steps is not None else default_steps(system)
    while True:
        result = oracle_moments(system, steps)
        scale = max(abs(result.var_M), abs(result.mean_M), 1e-30)
        if max(abs(result.residual[0]), abs(result.residual[1])) <= 10.0 * tol * scale:
            return result
        steps *= 2
        if steps > MAX_STEPS:
            raise OracleConvergenceError(
                f"no convergence to {tol:g} by K={MAX_STEPS}; residual={result.residual}")


def commutator_defect(system: LinearReadoutSystem, steps: int) -> float:
    """|[a(tau), a^dag(tau)] - 1| of the discretized propagation (symplectic check)."""
    dt, lam, vecs, vinv, expm, f_int, g_int = _propagators(system, steps)
    k = system.kappa
    dmat = -math.sqrt(k / dt) * f_int
    n = np.arange(steps)
    lam_pow = np.exp(np.outer(n, np.log(lam)))
    p = vecs[0, :]                       # row 0 of V
    q = vinv @ dmat
    # coefficients of a(tau) on bin j: row 0 of E^{K-1-j} D
    coeff = (lam_pow * p[None, :]) @ q   # row n = coefficient for bin K-1-n
    u, v = coeff[:, 0], coeff[:, 1]
    lam_k = np.exp(steps * np.log(lam))
    row0 = (vecs @ np.diag(lam_k) @ vinv)[0, :]
    comm = float(np.sum(np.abs(u) ** 2 - np.abs(v) ** 2)
                 + abs(row0[0]) ** 2 - abs(row0[1]) ** 2)
    return abs(comm - 1.0)


def build_system(params: ReadoutParams, cfg, state: QubitState) -> LinearReadoutSystem:
    """Assemble the oracle-side description of a scheme for one qubit state."""
    return cfg.linear_system(params, state)


def oracle_check(params: ReadoutParams, cfg, analytic: MeasurementMoments,
                 steps: int | None = None, tol: float = 1e-3) -> dict:
    """Compare analytic moments against the oracle at the scheme's operating point.

    Returns a report dict with per-state relative deviations and a 'passed' flag
    (deviation below max(tol relative, 1e-6 absolute) everywhere).
    """
    params, cfg = cfg.operating_point(params)
    report = {"tol": tol, "passed": True, "states": {}}
    for state in QubitState:
        system = build_system(params, cfg, state)
        res = oracle_moments(system, steps)
        mean_a = analytic.signal_up if state == QubitState.UP else analytic.signal_down
        var_a = analytic.noise_up if state == QubitState.UP else analytic.noise_down
        mean_o, var_o = res.richardson
        dev_mean = abs(mean_a - mean_o)
        dev_var = abs(var_a - var_o)
        ok_mean = dev_mean <= max(tol * abs(mean_o), 1e-6)
        ok_var = dev_var <= max(tol * abs(var_o), 1e-6)
        report["states"][state.name] = {
            "mean_analytic": mean_a, "mean_oracle": mean_o,
            "var_analytic": var_a, "var_oracle": var_o,
            "steps": res.steps, "residual": res.residual,
            "mean_ok": ok_mean, "var_ok": ok_var,
        }
        report["passed"] = report["passed"] and ok_mean and ok_var
    return report
