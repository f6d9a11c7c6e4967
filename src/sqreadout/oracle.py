"""Brute-force verifier for homodyne moments via discretized Gaussian modes.

The measurement interval is split into K bins; the white input noise in each
bin is represented by one discrete Gaussian mode, the coherent drive is a
constant, and the cavity is propagated exactly with the closed 2x2 matrix
exponential of the drift, which needs no eigenbasis (so it holds at the ICS
exceptional point chi = 2 Omega, where the drift is defective).  The
integrated record M becomes a linear form over the initial mode plus all bin
modes.  Means and variances are then exact quadratic forms of the mode
statistics; the only approximation is the piecewise-constant noise kernel,
whose error falls off as O(1/K) and is removed by Richardson extrapolation.
None of the analytic closed forms enter here.
"""

from __future__ import annotations

import math

from .core import MeasurementMoments, QubitState, ReadoutParams, Record, StabilityError


def _split(a: np.ndarray):
    """(s, B, mu): a = s I + B, s = tr a / 2, B^2 = mu^2 I, Re mu >= 0; eigenvalues s +- mu."""
    import numpy as np
    s = 0.5 * (a[0, 0] + a[1, 1])
    b = a - s * np.eye(2)
    return s, b, np.sqrt(complex(b[0, 1] * b[1, 0] - b[0, 0] * b[1, 1]))


def _expm_minus_one(a: np.ndarray, t):
    """exp(a t) - I = c0 I + c1 B at one time or an array of times; returns (c0, c1, B).

    exp(a t) = g [(1 + e^{-2 mu t})/2 I + (1 - e^{-2 mu t})/(2 mu) B], g = e^{(s+mu)t}
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  Re mu >= 0, so no factor grows
    at long times; expm1 of g - 1 and of e^{-2 mu t} - 1 keeps c0 accurate at
    short times and c1 as mu -> 0, where it tends to t and no eigenbasis exists.
    """
    import numpy as np
    s, b, mu = _split(a)
    t = np.asarray(t, dtype=float)
    g_m1 = np.expm1((s + mu) * t)
    if mu == 0:
        return g_m1, (1.0 + g_m1) * t, b
    gd = (1.0 + g_m1) * np.expm1(-2.0 * mu * t)
    return g_m1 + 0.5 * gd, gd * (-0.5 / mu), b


class LinearReadoutSystem(Record):
    """Linear cavity dynamics plus measurement chain, as the oracle sees it.

    drift            : 2x2 complex matrix acting on (mode, conjugate mode)
    input_mean       : constant coherent drive amplitude in the working frame
    input_corr       : white-noise pair (N_in, M_in)
    init_cov         : fluctuation pair (N0, M0) of the initial mode, whose
                       mean is zero
    output_transform : 2x2 Bogoliubov map from working-frame output to the
                       lab-frame field entering the homodyne detector
    """

    drift: np.ndarray
    input_mean: complex
    input_corr: tuple[float, complex]
    init_cov: tuple[float, complex]
    output_transform: np.ndarray
    homodyne_angle: float
    kappa: float
    tau: float

    def __post_init__(self):
        import numpy as np
        drift = np.asarray(self.drift, dtype=complex).reshape(2, 2)
        out = np.asarray(self.output_transform, dtype=complex).reshape(2, 2)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "input_mean", complex(self.input_mean))
        object.__setattr__(self, "output_transform", out)
        if not (self.kappa > 0 and self.tau > 0):
            raise ValueError("kappa and tau must be positive")
        s, _, mu = _split(drift)
        if (s + mu).real > 1e-12 * self.kappa:
            raise StabilityError(f"drift has growing eigenvalues: {s + mu}, {s - mu}")
        for n, m in (self.input_corr, self.init_cov):
            if n < 0 or abs(m) > math.sqrt(n * (n + 1.0)) + 1e-9 * (1.0 + n):
                raise ValueError(f"unphysical Gaussian moments N={n}, M={m}")
        det = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"output transform is not symplectic: det={det}")


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
    s, _, mu = _split(system.drift)
    omega = abs(s.imag) + abs(mu.imag)
    return max(4096, math.ceil(64.0 * (omega + system.kappa) * system.tau))


def _propagators(system: LinearReadoutSystem, steps: int):
    """Bin width dt, E - I for the bin propagator E = exp(A dt), and E's integrals over a bin."""
    import numpy as np
    dt = system.tau / steps
    c0, c1, b = _expm_minus_one(system.drift, dt)
    e_m1 = c0 * np.eye(2) + c1 * b
    f_int = np.linalg.solve(system.drift, e_m1)                   # int_0^dt e^{Au} du
    g_int = np.linalg.solve(system.drift, f_int - dt * np.eye(2))  # int_0^dt int_0^u e^{Aw} dw du
    return dt, e_m1, f_int, g_int


def _row_powers(system: LinearReadoutSystem, steps: int, row: np.ndarray) -> np.ndarray:
    """row @ (E^n - I) as column n of a (2, K+1) array, E^n = exp(A n dt) from the closed form."""
    import numpy as np
    c0, c1, b = _expm_minus_one(system.drift, np.arange(steps + 1) * (system.tau / steps))
    return np.outer(row, c0) + np.outer(row @ b, c1)


def _linear_form(system: LinearReadoutSystem, steps: int):
    """Coefficients of M over (initial mode, bin modes).

    Returns (ell0, ell) where ell0 is the 2-vector weight of (a(0), a^dag(0))
    and ell[:, j] the 2-vector weight of the j-th bin mode pair.
    """
    import numpy as np
    dt, e_m1, f_int, g_int = _propagators(system, steps)
    k = system.kappa
    wp = np.exp([-1j * system.homodyne_angle, 1j * system.homodyne_angle]) @ system.output_transform

    dmat = -math.sqrt(k / dt) * f_int
    hmat = -math.sqrt(k / dt) * g_int

    # column n is p S_n, with S_n = sum_{m<n} E^m = (E^n - I)(E - I)^{-1}, n = 0..K
    p_geo = np.linalg.inv(e_m1).T @ _row_powers(system, steps, wp @ f_int)
    base = math.sqrt(k * dt) * wp + k * (wp @ hmat)
    # column n corresponds to bin j = K-1-n
    ell_rev = base[:, None] + k * (dmat.T @ p_geo[:, :steps])
    return k * p_geo[:, steps], ell_rev[:, ::-1], dt


def _pair_variance(u: np.ndarray, v: np.ndarray, n: float, m: complex) -> float:
    """Variance contribution of modes with weights u b + v b^dag and moments (n, m)."""
    import numpy as np
    return float(np.sum(u * u * m + v * v * np.conj(m) + u * v * (2.0 * n + 1.0)).real)


def _moments_once(system: LinearReadoutSystem, steps: int) -> tuple[float, float]:
    import numpy as np
    ell0, ell, dt = _linear_form(system, steps)
    a_bar = system.input_mean
    mean = math.sqrt(dt) * (np.sum(ell[0]) * a_bar + np.sum(ell[1]) * a_bar.conjugate())
    n_in, m_in = system.input_corr
    n0, m0 = system.init_cov
    var = _pair_variance(ell[0], ell[1], n_in, m_in)
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


def commutator_defect(system: LinearReadoutSystem, steps: int) -> float:
    """|[a(tau), a^dag(tau)] - 1| of the discretized propagation (symplectic check)."""
    import numpy as np
    dt, _, f_int, _ = _propagators(system, steps)
    dmat = -math.sqrt(system.kappa / dt) * f_int
    e0 = np.array([1.0, 0.0])
    rows = e0[:, None] + _row_powers(system, steps, e0)     # row 0 of E^n in column n
    # a(tau) weighs bin j by row 0 of E^{K-1-j} D and a(0) by row 0 of E^K
    u, v = dmat.T @ rows[:, :steps]
    comm = float(np.sum(np.abs(u) ** 2 - np.abs(v) ** 2)
                 + abs(rows[0, steps]) ** 2 - abs(rows[1, steps]) ** 2)
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
        mean_a, var_a = analytic.of(state)
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
