"""Readout with intracavity squeezing from a two-photon (parametric) drive.

The cavity obeys
    da/dt = -(i sigma chi + kappa/2) a - 2i Omega e^{i theta} a^dag - sqrt(kappa) a_in
with vacuum input, starting from the stationary state of the driven cavity.
All closed forms are evaluated in complex arithmetic so that the degenerate-
parametric branch lambda = sqrt(chi^2 - 4 Omega^2) imaginary needs no rewrites;
results are projected back to the real axis with a residue check.  Each form
is written once with a function namespace fn: math (and cmath) for the public
scalar API, numpy for the optimizer's search grid.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass

from .core import (ImaginaryResidueError, MeasurementMoments, QubitState, ReadoutError,
                   ReadoutParams, StabilityError, reduce_angle, scheme_moments)
from .oracle import LinearReadoutSystem

# formulas are analytic in lambda^2; a tiny offset removes the removable
# singularity of the cot(psi)/csc(psi) groupings at chi = 2 Omega
_LAMBDA_FLOOR = 1e-7
_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class IcsConfig:
    """Two-photon drive setting: amplitude Omega >= 0 (rate units) and phase theta."""

    omega_2ph: float
    theta: float = 0.0

    def __post_init__(self):
        if self.omega_2ph < 0:
            raise ValueError(f"two-photon amplitude must be non-negative, got {self.omega_2ph}")
        object.__setattr__(self, "theta", reduce_angle(self.theta))

    def operating_point(self, params: ReadoutParams) -> tuple[ReadoutParams, "IcsConfig"]:
        """The scheme runs at the phases it is given: params and cfg unchanged."""
        return params, self

    def signal(self, params: ReadoutParams, state: QubitState) -> float:
        return ics_signal(params, self, state)

    def noise(self, params: ReadoutParams, state: QubitState) -> float:
        return ics_noise(params, self, state)

    def linear_system(self, params: ReadoutParams, state: QubitState) -> LinearReadoutSystem:
        """Oracle model: two-photon-driven cavity with vacuum input, from its stationary state."""
        import numpy as np
        _require_stable(params, self)
        k = params.kappa
        s = int(state)
        a_bar = params.alpha_in * complex(math.cos(params.phi_in), math.sin(params.phi_in))
        ph = complex(math.cos(self.theta), math.sin(self.theta))
        drift = np.array([[-1j * s * params.chi - k / 2.0, -2j * self.omega_2ph * ph],
                          [2j * self.omega_2ph * np.conj(ph), 1j * s * params.chi - k / 2.0]])
        init = ics_initial_correlations(k, self)
        return LinearReadoutSystem(drift, a_bar, (0.0, 0.0), init,
                                   np.eye(2), params.phi_h, k, params.tau)


@dataclass(frozen=True)
class StabilityReport:
    """Verdict on the two-photon-driven cavity operating point."""

    stable: bool
    steady_state_ok: bool
    reason: str

    def __bool__(self) -> bool:
        return bool(self.stable and self.steady_state_ok)


def _lambda(chi, omega_2ph, fn=math):
    """lambda = sqrt(chi^2 - 4 Omega^2) on the principal branch.

    fn is the function namespace of every closed form here: math for scalars,
    numpy to broadcast over arrays of operating points.
    """
    x = chi * chi - 4.0 * omega_2ph * omega_2ph
    return cmath.sqrt(complex(x, 0.0)) if fn is math else fn.sqrt(x + 0j)


def ics_lambda(chi: float, omega_2ph: float) -> complex:
    """Oscillation rate lambda = sqrt(chi^2 - 4 Omega^2), principal branch."""
    return _lambda(chi, omega_2ph)


def _lambda_safe(chi, omega_2ph, kappa, fn=math):
    lam = _lambda(chi, omega_2ph, fn)
    floor = _LAMBDA_FLOOR * kappa
    if fn is math:
        return complex(floor, 0.0) if abs(lam) < floor else lam
    return fn.where(abs(lam) < floor, complex(floor, 0.0), lam)


def _real(value, scale=1.0, fn=math):
    residue = abs(value.imag)
    if fn is math:
        too_large = residue > _IMAG_TOL * max(1.0, abs(value.real), scale)
    else:
        bound = _IMAG_TOL * fn.maximum(fn.maximum(1.0, abs(value.real)), scale)
        too_large = fn.any(residue > bound)
    if too_large:
        worst = residue if fn is math else fn.max(residue)
        raise ImaginaryResidueError(f"imaginary residue {worst:g} too large in ICS evaluation")
    return value.real


def _stability(kappa, chi, omega_2ph, fn=math):
    """(lambda, unstable, steady): the mean field is unstable when lambda is
    imaginary with |lambda| >= kappa/2, and a stationary state needs 4 Omega < kappa.

    The verdicts are bools for scalars and boolean masks for arrays.
    """
    lam = _lambda(chi, omega_2ph, fn)
    return lam, (abs(lam.imag) > 0) & (abs(lam) >= kappa / 2.0), 4.0 * omega_2ph < kappa


def ics_stability(params: ReadoutParams, cfg: IcsConfig) -> StabilityReport:
    """Check mean-field stability and existence of the stationary fluctuation state."""
    lam, unstable, steady = _stability(params.kappa, params.chi, cfg.omega_2ph)
    if unstable:
        reason = f"imaginary lambda with |lambda|={abs(lam):g} >= kappa/2={params.kappa / 2:g}"
    else:
        reason = "lambda real" if lam.imag == 0 else "imaginary lambda below kappa/2"
    if not steady:
        reason += "; no stationary state: 4*Omega >= kappa"
    return StabilityReport(not unstable, steady, reason)


def _require_stable(params: ReadoutParams, cfg: IcsConfig) -> None:
    verdict = ics_stability(params, cfg)
    if not verdict:
        raise StabilityError(verdict.reason)


@contextmanager
def _overflow_as_readout_error(kappa_tau: float):
    """Report an overflow of the scalar closed forms as a ReadoutError naming kappa*tau.

    On the imaginary-lambda branch cos(lambda tau) grows as cosh(|lambda| tau),
    past the float range at long times, before the e^{-kappa tau} decay tames it.
    """
    try:
        yield
    except OverflowError as exc:
        raise ReadoutError(f"ICS closed form overflows at kappa*tau = {kappa_tau:g} "
                           f"(cosh(|lambda| tau) on the imaginary-lambda branch: {exc})") from exc


def _sinc(z, fn=math):
    """sin(z)/z, regular at z = 0."""
    if fn is math:
        return 1.0 - z * z / 6.0 if abs(z) < 1e-6 else cmath.sin(z) / z
    with fn.errstate(divide="ignore", invalid="ignore"):
        return fn.where(abs(z) < 1e-6, 1.0 - z * z / 6.0, fn.sin(z) / z)


def _mean_field_terms(k, chi, om, alpha_in, phi_in, theta, sigma, fn=math):
    """(lambda, pref, t0, ts, tc) of the driven mean field, from <a(0)> = 0:

    <a(t)> = pref [t0 + (ts/lambda) sin(lambda t) e^{-kt/2} + tc cos(lambda t) e^{-kt/2}].
    """
    lam = _lambda_safe(chi, om, k, fn)
    pref = 2.0 * math.sqrt(k) * alpha_in / (k * k + 4.0 * lam * lam)
    e_in = cmath.exp(1j * phi_in)
    e_out = cmath.exp(1j * (theta - phi_in))
    t0 = 4j * om * e_out - (k - 2j * sigma * chi) * e_in
    ts = -((2.0 * lam * lam + 1j * k * sigma * chi) * e_in + 2j * om * k * e_out)
    tc = (k - 2j * sigma * chi) * e_in - 4j * om * e_out
    return lam, pref, t0, ts, tc


def ics_mean_field(params: ReadoutParams, cfg: IcsConfig, state: QubitState,
                   t: float) -> complex:
    """Coherent cavity amplitude <a(t)> under the tone, from <a(0)> = 0."""
    _require_stable(params, cfg)
    if t < 0:
        raise ValueError("t must be non-negative")
    lam, pref, t0, ts, tc = _mean_field_terms(params.kappa, params.chi, cfg.omega_2ph,
                                              params.alpha_in, params.phi_in, cfg.theta,
                                              int(state))
    decay = math.exp(-params.kappa * t / 2.0)
    with _overflow_as_readout_error(params.kappa * t):
        return pref * (t0 + ts / lam * cmath.sin(lam * t) * decay
                       + tc * cmath.cos(lam * t) * decay)


def _integrated_output_mean(k, tau, chi, om, alpha_in, phi_in, theta, sigma, fn=math):
    """sqrt(kappa) * integral of <a_out(t)> dt over [0, tau], term-by-term closed form."""
    cfn = cmath if fn is math else fn
    lam, pref, t0, ts, tc = _mean_field_terms(k, chi, om, alpha_in, phi_in, theta, sigma, fn)
    half_k = k / 2.0
    den = lam * lam + half_k * half_k
    decay = cmath.exp(-k * tau / 2.0)
    # int sin(lam t)/lam e^{-kt/2} dt  and  int cos(lam t) e^{-kt/2} dt
    int_s = (1.0 - decay * (cfn.cos(lam * tau) + half_k * tau * _sinc(lam * tau, fn))) / den
    int_c = (half_k + decay * (lam * cfn.sin(lam * tau) - half_k * cfn.cos(lam * tau))) / den
    integral = t0 * tau + ts * int_s + tc * int_c
    a_bar = alpha_in * cmath.exp(1j * phi_in)
    return math.sqrt(k) * (a_bar * tau + math.sqrt(k) * pref * integral)


def _signal(kt, chi, om, alpha_in, phi_in, phi_h, theta, sigma, fn=math):
    """Mean homodyne record <M> at kappa = 1 for qubit state sigma = +-1."""
    j = _integrated_output_mean(1.0, kt, chi, om, alpha_in, phi_in, theta, sigma, fn)
    return 2.0 * (j * cmath.exp(-1j * phi_h)).real


def ics_signal(params: ReadoutParams, cfg: IcsConfig, state: QubitState) -> float:
    """Mean homodyne record <M> for one qubit state."""
    _require_stable(params, cfg)
    p = params.normalized()
    with _overflow_as_readout_error(p.tau):
        return _signal(p.tau, p.chi, cfg.omega_2ph / params.kappa, p.alpha_in, p.phi_in,
                       p.phi_h, cfg.theta, int(state))


def ics_signal_separation(params: ReadoutParams, cfg: IcsConfig) -> float:
    """Pointer-state separation <M>_up - <M>_down.

    Equals the factored closed form
    (16 (chi/kappa) a / sqrt(kappa)) cos^2 psi sin(phi_h - phi_in) {kappa tau - ...}
    with tan(psi) = 2 lambda / kappa, evaluated here through the per-state means
    so it stays regular at sin(2 psi) = 0.
    """
    return ics_signal(params, cfg, QubitState.UP) - ics_signal(params, cfg, QubitState.DOWN)


def _noise_components(kt, chi, om, fn=math):
    """(G0, Gs, Gc) at kappa = 1, each checked for an imaginary residue."""
    cfn = cmath if fn is math else fn
    k = 1.0
    lam = _lambda_safe(chi, om, k, fn)
    psi = (cmath.atan if fn is math else fn.arctan)(2.0 * lam / k)
    r = _squeeze_param(k, om, fn)
    lt = lam * kt
    cs, sn = cfn.cos, cfn.sin
    cot = cs(psi) / sn(psi)
    th2 = fn.tanh(r / 2.0)
    ch = fn.cosh(r)
    ekt = math.exp(-kt)
    ek2 = math.exp(-kt / 2.0)

    g0 = (0.5 * kt * (1.0 + ch + (5.0 + 8.0 * cs(2 * psi) + 2.0 * cs(4 * psi) - ch) * th2 ** 2)
          - 2.0 * cs(psi) ** 2 * (5.0 + 3.0 * cs(4 * psi) + cs(2 * psi) * (9.0 - 2.0 * ch)
                                  - 3.0 * ch) * th2 ** 2
          - ekt * (2.0 - cs(2 * psi + 2 * lt) - cs(4 * psi + 2 * lt))
          * (cs(2 * psi) - ch) * cot ** 2 * th2 ** 2
          - 8.0 * ek2 * cs(psi) ** 2 * th2 ** 2 * (
              (cs(lt) - cot * sn(4 * psi + lt)) * fn.cosh(r / 2.0) ** 2
              + 4.0 * cs(psi) ** 2 * cot * sn(2 * psi + lt) * fn.sinh(r / 2.0) ** 2))

    gs = (2.0 * cs(psi) ** 2 * (-1.0 - 3.0 * cs(4 * psi) + ch
                                + cs(2 * psi) * (-3.0 + 2.0 * kt + 2.0 * ch)) * th2
          - 2.0 * ekt * cs(psi) * cot * sn(3 * psi + 2 * lt) * (cs(2 * psi) - ch) * th2
          - 4.0 * ek2 * cs(psi) * cot * (sn(3 * psi + lt) * fn.sinh(r)
                                         - 2.0 * cs(psi) * sn(4 * psi + lt) * th2))

    # sinh^2(r/2) coth(r/2) is rewritten as sinh(r)/2 so that r -> 0 stays finite
    gc = (8.0 * cs(psi) ** 4 * (3.0 - 2.0 * kt + 6.0 * cs(2 * psi) - 2.0 * ch) * th2
          - 16.0 * ek2 * cs(psi) ** 4 * cot * (
              0.5 * fn.sinh(r) / cs(psi) ** 2 * sn(4 * psi + lt)
              - 4.0 * fn.sinh(r / 2.0) ** 2 * th2 * sn(2 * psi + lt))
          + 8.0 * ekt * cs(psi) ** 2 * fn.sinh(r / 2.0) * (
              cs(psi) * cs(3 * psi + 2 * lt) * fn.cosh(r / 2.0)
              - (1.0 - cs(psi) * cs(3 * psi + 2 * lt)) * cot ** 2
              * fn.sinh(r / 2.0) * th2))

    scale = kt * fn.cosh(r) + 1.0
    return _real(g0, scale, fn), _real(gs, scale, fn), _real(gc, scale, fn)


def ics_noise_components(params: ReadoutParams, cfg: IcsConfig) -> tuple[float, float, float]:
    """Noise decomposition (G0, Gs, Gc):

    <M_N^2> = G0 - sin(2 phi_h - theta) Gs + (sigma chi / kappa) cos(2 phi_h - theta) Gc.
    """
    _require_stable(params, cfg)
    p = params.normalized()
    with _overflow_as_readout_error(p.tau):
        return _noise_components(p.tau, p.chi, cfg.omega_2ph / params.kappa)


def ics_noise(params: ReadoutParams, cfg: IcsConfig, state: QubitState) -> float:
    """Homodyne noise <M_N^2> for one qubit state under the two-photon drive."""
    g0, gs, gc = ics_noise_components(params, cfg)
    p = params.normalized()
    d = 2.0 * p.phi_h - cfg.theta
    return g0 - math.sin(d) * gs + int(state) * p.chi * math.cos(d) * gc


def _squeeze_param(kappa, omega_2ph, fn=math):
    return fn.log((kappa + 4.0 * omega_2ph) / (kappa - 4.0 * omega_2ph))


def ics_squeeze_param(kappa: float, omega_2ph: float) -> float:
    """Output-field squeeze parameter r = ln[(kappa + 4 Omega)/(kappa - 4 Omega)]."""
    if not 0 <= 4.0 * omega_2ph < kappa:
        raise ValueError(f"need 0 <= 4*Omega < kappa, got Omega={omega_2ph}, kappa={kappa}")
    return _squeeze_param(kappa, omega_2ph)


def _omega_from_r(kappa, r, fn=math):
    return 0.25 * kappa * (fn.exp(r) - 1.0) / (fn.exp(r) + 1.0)


def ics_omega_from_r(kappa: float, r: float) -> float:
    """Inverse map: two-photon amplitude giving output squeeze parameter r."""
    if r < 0:
        raise ValueError("squeeze parameter must be non-negative")
    return _omega_from_r(kappa, r)


def ics_photon_number(params: ReadoutParams, cfg: IcsConfig, t: float) -> float:
    """Intracavity photon number n(t) = fluctuation part + |<a(t)>|^2.

    The fluctuation part is drive-independent; the coherent part carries the
    full dependence on the tone phase relative to the two-photon drive (the
    parametric interaction amplifies or deamplifies the displacement).
    """
    _require_stable(params, cfg)
    if t < 0:
        raise ValueError("t must be non-negative")
    k = params.kappa
    om = cfg.omega_2ph
    lam = _lambda_safe(params.chi, om, k)
    psi = cmath.atan(2.0 * lam / k)
    r = ics_squeeze_param(k, om)
    lt = lam * t
    with _overflow_as_readout_error(k * t):
        q0 = ((2.0 - cmath.cos(2 * lt) - cmath.cos(2 * psi + 2 * lt))
              * (cmath.cos(2 * psi) - math.cosh(r)) / cmath.sin(psi) ** 2)
    fluct = _real((4.0 * cmath.cos(psi) ** 2 - math.exp(-k * t) * q0)
                  * math.tanh(r / 2.0) ** 2 / 8.0)
    mean = ics_mean_field(params, cfg, QubitState.UP, t)
    return fluct + abs(mean) ** 2


def ics_initial_correlations(kappa: float, cfg: IcsConfig) -> tuple[float, complex]:
    """Stationary cavity-fluctuation moments (<A^dag A>, <A A>) before the tone."""
    if not 4.0 * cfg.omega_2ph < kappa:
        raise StabilityError("no stationary state: 4*Omega >= kappa")
    den = kappa * kappa - 16.0 * cfg.omega_2ph ** 2
    n0 = 8.0 * cfg.omega_2ph ** 2 / den
    m0 = -1j * cmath.exp(1j * cfg.theta) * 2.0 * kappa * cfg.omega_2ph / den
    return n0, m0


def ics_moments(params: ReadoutParams, cfg: IcsConfig) -> MeasurementMoments:
    """Signal and noise for both qubit states."""
    return scheme_moments(params, cfg)


def optimal_theta(params: ReadoutParams, cfg_omega: float) -> float:
    """Noise-minimizing drive phase: 2 phi_h - theta = pi/2 on the Gs > 0 branch."""
    probe = IcsConfig(cfg_omega, 0.0)
    _, gs, _ = ics_noise_components(params, probe)
    shift = math.pi / 2.0 if gs >= 0 else -math.pi / 2.0
    return reduce_angle(2.0 * params.phi_h - shift)
