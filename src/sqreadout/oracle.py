"""Brute-force verifier for homodyne moments via discretized Gaussian modes.

Each scheme states its cavity mode a from textbook inputs, as a
LinearReadoutSystem whose output a_out the detector sees as it is.  The
measurement interval is split into K bins; the white input noise in each
bin is represented by one discrete Gaussian mode, the coherent drive is a
constant, and the cavity is propagated exactly with the closed 2x2 matrix
exponential of the drift, which needs no eigenbasis (so it holds at the ICS
exceptional point chi = 2 Omega, where the drift is defective).  The
integrated record M becomes a linear form over the initial mode plus all bin
modes.  Means and variances are then exact quadratic forms of the mode
statistics; the only approximation is the piecewise-constant noise kernel,
whose error falls off as O(1/K) and is removed by Richardson extrapolation.
The K-bin sums split over adjacent intervals, so the binary digits of K give
them in O(log K) 2x2 products.  None of the analytic closed forms enter here,
but the combined model shares the mode frequencies omega_sq +- chi_sq
(combined.DispersiveParams): chi_sq comes from the qubit's nonlinearity, which
no linear model can check.
"""

from __future__ import annotations

import cmath
import math

from .core import (MeasurementMoments, QubitState, ReadoutError, ReadoutParams, Record,
                   StabilityError)


class _Mat(tuple):
    """2x2 complex matrix as its row-major 4-tuple, with the algebra the sums need."""

    def __matmul__(x, y):
        return _Mat((x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                     x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3]))

    def __add__(x, y):
        return _Mat((x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]))

    def __rmul__(x, c):
        return _Mat((c * x[0], c * x[1], c * x[2], c * x[3]))

    T = property(lambda x: _Mat((x[0], x[2], x[1], x[3])))
    H = property(lambda x: _Mat(v.conjugate() for v in x.T))

    def inv(x):
        return (1.0 / (x[0] * x[3] - x[1] * x[2])) * _Mat((x[3], -x[1], -x[2], x[0]))

    @staticmethod
    def of(rows):
        return _Mat((*rows[0], *rows[1]))


_I = _Mat((1.0, 0.0, 0.0, 1.0))


def _expm1(z: complex) -> complex:
    """e^z - 1 without the cancellation of cmath.exp(z) - 1 at small |z| (numpy's formula)."""
    half = math.sin(0.5 * z.imag)
    return complex(math.expm1(z.real) * math.cos(z.imag) - 2.0 * half * half,
                   math.exp(z.real) * math.sin(z.imag))


def _split(a: _Mat):
    """(s, B, mu): a = s I + B, s = tr a / 2, B^2 = mu^2 I, Re mu >= 0; eigenvalues s +- mu."""
    s = 0.5 * (a[0] + a[3])
    b = _Mat((a[0] - s, a[1], a[2], a[3] - s))
    return s, b, cmath.sqrt(b[1] * b[2] - b[0] * b[3])


def _expm_minus_one(a: _Mat, t: float) -> _Mat:
    """exp(a t) - I = c0 I + c1 B.

    exp(a t) = g [(1 + e^{-2 mu t})/2 I + (1 - e^{-2 mu t})/(2 mu) B], g = e^{(s+mu)t}
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  Re mu >= 0, so no factor grows
    at long times; expm1 of g - 1 and of e^{-2 mu t} - 1 keeps c0 accurate at
    short times and c1 as mu -> 0, where it tends to t and no eigenbasis exists.
    """
    s, b, mu = _split(a)
    g_m1 = _expm1((s + mu) * t)
    if mu == 0:
        c0, c1 = g_m1, (1.0 + g_m1) * t
    else:
        gd = (1.0 + g_m1) * _expm1(-2.0 * mu * t)
        c0, c1 = g_m1 + 0.5 * gd, gd * (-0.5 / mu)
    return _Mat((c0 + c1 * b[0], c1 * b[1], c1 * b[2], c0 + c1 * b[3]))


class LinearReadoutSystem(Record):
    """Linear cavity dynamics plus measurement chain, as the oracle sees it.

    drift            : 2x2 complex matrix acting on (a, a^dag), as row pairs
    input_mean       : constant coherent drive amplitude
    input_corr       : white-noise pair (N_in, M_in) = (<a_in^dag a_in>, <a_in a_in>)
    init_cov         : fluctuation pair (N0, M0) of the initial mode, whose
                       mean is zero
    """

    drift: tuple
    input_mean: complex
    input_corr: tuple[float, complex]
    init_cov: tuple[float, complex]
    homodyne_angle: float
    kappa: float
    tau: float

    def __post_init__(self):
        (a, b), (c, d) = self.drift
        object.__setattr__(self, "drift", ((complex(a), complex(b)), (complex(c), complex(d))))
        object.__setattr__(self, "input_mean", complex(self.input_mean))
        if not (self.kappa > 0 and self.tau > 0):
            raise ValueError("kappa and tau must be positive")
        s, _, mu = _split(_Mat.of(self.drift))
        if (s + mu).real > 1e-12 * self.kappa:
            raise StabilityError(f"drift has growing eigenvalues: {s + mu}, {s - mu}")
        for n, m in (self.input_corr, self.init_cov):
            if n < 0 or abs(m) > math.sqrt(n * (n + 1.0)) + 1e-9 * (1.0 + n):
                raise ValueError(f"unphysical Gaussian moments N={n}, M={m}")


def squeezed_vacuum(r: float, phase: float) -> tuple[float, complex]:
    """(N, M) = (sinh^2 r, e^{i phase} sinh(2r)/2) of a squeezed vacuum: |M|^2 = N (N + 1)."""
    return math.sinh(r) ** 2, 0.5 * math.sinh(2.0 * r) * complex(math.cos(phase), math.sin(phase))


class OracleResult(Record):
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
    s, _, mu = _split(_Mat.of(system.drift))
    omega = abs(s.imag) + abs(mu.imag)
    return max(4096, math.ceil(64.0 * (omega + system.kappa) * system.tau))


def _fold(steps: int, drift: _Mat, dt: float, unit, join):
    """A K-bin sum from its one-bin term in O(log K) joins, by the binary digits of K.

    join(x, y, b, d) sums a + b bins from x over a bins, y over b and d = E^a - I at a dt.
    """
    acc, n, d1 = unit, 1, _expm_minus_one(drift, dt)
    for bit in bin(steps)[3:]:
        acc, n = join(acc, acc, n, _expm_minus_one(drift, n * dt)), 2 * n
        if bit == "1":
            acc, n = join(unit, acc, n, d1), n + 1
    return acc


def _moments_once(system: LinearReadoutSystem, steps: int) -> tuple[float, float]:
    """Mean and variance of M at K bins.

    M weighs bin n back from the end by w (beta + zeta D_n), D_n = E^n - I, and the initial
    mode by w lam; all but w are functions of A, so the sums need T1 = sum_{n<K} D_n and
    T2 = sum_{n<K} D_n Q D_n^T, Q the bin-noise form, which split over a + b bins as
    T1(a) + E^a T1(b) + b D_a and T2(a) + E^a T2(b) E^aT + X + X^T + b D_a Q D_a^T,
    X = E^a T1(b) Q D_a^T.
    """
    k, dt, a = system.kappa, system.tau / steps, _Mat.of(system.drift)
    a_inv = a.inv()
    f = a_inv @ _expm_minus_one(a, dt)                # int_0^dt e^{Au} du = A^-1 (E - I)
    beta = math.sqrt(k * dt) * _I + (-k * math.sqrt(k / dt)) * (a_inv @ (f + (-dt) * _I))
    zeta = (-k * math.sqrt(k / dt)) * (a_inv @ f)
    lam = k * (a_inv @ _expm_minus_one(a, steps * dt))
    q, q0 = (_Mat((m, n + 0.5, n + 0.5, m.conjugate()))        # input and initial noise forms
             for n, m in (system.input_corr, system.init_cov))

    def join(x, y, b, d):
        (x1, x2), (y1, y2), e = x, y, _I + d
        ey = e @ y1
        xm = ey @ q @ d.T
        return x1 + ey + b * d, x2 + e @ y2 @ e.T + xm + xm.T + b * (d @ q @ d.T)

    t1, t2 = _fold(steps, a, dt, (0.0 * _I, 0.0 * _I), join)
    h = cmath.exp(-1j * system.homodyne_angle)
    w = _Mat((h, h.conjugate(), 0.0, 0.0))                              # row 0
    a_bar = system.input_mean
    mean = (w @ (steps * beta + zeta @ t1) @ _Mat((a_bar, a_bar.conjugate(), 0.0, 0.0)).T)[0]
    xm = zeta @ t1 @ q @ beta.T
    v = steps * (beta @ q @ beta.T) + xm + xm.T + zeta @ t2 @ zeta.T + lam @ q0 @ lam.T
    return math.sqrt(dt) * mean.real, (w @ v @ w.T)[0].real


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


def commutator_defect(system: LinearReadoutSystem, steps: int) -> float:
    """|[a(tau), a^dag(tau)] - 1| of the discretized propagation (symplectic check).

    a(tau) weighs bin n back from the end by row 0 of E^n D and a(0) by row 0 of E^K: the
    commutator is entry 00 of S + E^K J E^KH, J = diag(1, -1), S = sum_{n<K} E^n D J D^H E^nH.
    """
    dt, a = system.tau / steps, _Mat.of(system.drift)
    d = -math.sqrt(system.kappa / dt) * (a.inv() @ _expm_minus_one(a, dt))
    j = _Mat((1.0, 0.0, 0.0, -1.0))
    s = _fold(steps, a, dt, d @ j @ d.H, lambda x, y, b, dn: x + (_I + dn) @ y @ (_I + dn).H)
    e_k = _I + _expm_minus_one(a, steps * dt)
    return abs((s + e_k @ j @ e_k.H)[0].real - 1.0)


def build_system(params: ReadoutParams, cfg, state: QubitState) -> LinearReadoutSystem:
    """Assemble the oracle-side description of a scheme for one qubit state."""
    return cfg.linear_system(params, state)


def oracle_check(params: ReadoutParams, cfg, analytic: MeasurementMoments,
                 steps: int | None = None, tol: float = 1e-3) -> dict:
    """Compare analytic moments against the oracle at the scheme's operating point.

    Returns a report dict with per-state relative deviations and a 'passed' flag
    (deviation below max(tol relative, 1e-6 absolute) everywhere).  A non-finite
    oracle moment is a numerical failure, not a disagreement: it raises ReadoutError.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    params, cfg = cfg.operating_point(params)
    report = {"tol": tol, "passed": True, "states": {}}
    for state in QubitState:
        system = build_system(params, cfg, state)
        res = oracle_moments(system, steps)
        mean_a, var_a = analytic.of(state)
        mean_o, var_o = res.richardson
        if not (math.isfinite(mean_o) and math.isfinite(var_o)):
            raise ReadoutError(f"oracle moments of {state.name} not finite: {mean_o}, {var_o}")
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
