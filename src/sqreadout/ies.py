"""Readout with an injected squeezed-vacuum reservoir (and the unsqueezed limit).

The cavity obeys  da/dt = -(i sigma chi + kappa/2) a - sqrt(kappa) a_in  with a
white squeezed input of parameter r and reference phase varphi; the cavity
fluctuations start in the corresponding stationary squeezed state while the
coherent tone switches on at t = 0.  The signal of both qubit states and the
noise shape F come from one kernel, _pair_kernel, built once for a kappa*tau,
tone and homodyne phase.
"""

from __future__ import annotations

import cmath
import math

from .core import (PSI_BOUNDS_DEFAULT, SEARCH_PHI_H, SEARCH_PHI_IN, MeasurementMoments,
                   QubitState, ReadoutParams, Record, _stable_squeeze_mix, reduce_angle,
                   replace, psi_from_rate, require_finite, scheme_moments)


class IesConfig(Record):
    """Injected-squeezing setting: squeeze r >= 0 and reference phase varphi (None: optimal)."""

    r: float
    varphi: float | None = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeeze parameter must be non-negative, got {self.r}")
        require_finite(self, ("r", "varphi"))
        if self.varphi is not None:
            object.__setattr__(self, "varphi", reduce_angle(self.varphi))

    def operating_point(self, params: ReadoutParams) -> tuple[ReadoutParams, "IesConfig"]:
        """The scheme runs at the phases it is given, an unset varphi made the optimal one."""
        if self.varphi is None:
            return params, replace(self, varphi=optimal_varphi(params))
        return params, self

    def record_fields(self, params: ReadoutParams) -> dict:
        """The scheme's own fields of the output record, at its operating point."""
        return {"r": self.r, "varphi": self.varphi, "noise_shape": ies_noise_shape(params),
                "n_tau": ies_photon_number(params, self, params.tau)}

    def moments(self, params: ReadoutParams) -> MeasurementMoments:
        params, cfg = self.operating_point(params)      # an unset varphi: the optimal one
        p = params.normalized()
        up, down, _ = _pair_kernel(p.tau, p.alpha_in, p.phi_in, p.phi_h)(p.chi)
        return MeasurementMoments(up, down, *_noise_pair(p, cfg))

    def linear_system(self, params: ReadoutParams, state: QubitState) -> LinearReadoutSystem:
        """Oracle model: the squeezed white input also fills the cavity at t = 0."""
        from .oracle import LinearReadoutSystem, squeezed_vacuum
        params, cfg = self.operating_point(params)
        k = params.kappa
        s = int(state)
        a_bar = params.alpha_in * complex(math.cos(params.phi_in), math.sin(params.phi_in))
        drift = ((-1j * s * params.chi - k / 2.0, 0.0), (0.0, 1j * s * params.chi - k / 2.0))
        noise = squeezed_vacuum(cfg.r, cfg.varphi)
        return LinearReadoutSystem(drift, a_bar, noise, noise, params.phi_h, k, params.tau)

    @staticmethod
    def search(kappa_tau: float, r_max: float, fix_chi: float | None = None):
        """(box, objective, point) of the SNR search at unit kappa and alpha_in.

        The box is psi alone: PSI_BOUNDS_DEFAULT, or the point atan(2 fix_chi)
        when fix_chi pins chi.  The summed noise 2 kappa tau [cosh 2r + phase F
        sinh 2r] is linear in phase = cos(varphi - 2 phi_h), so phase = -sign(F),
        and it is least at tanh 2r = |F|, clipped to [0, r_max]; r_max = 0 is
        the standard readout.  objective(psi) is the SNR of a float psi from
        the pair kernel, built once here; point(psi) is (SNR, argmax record).
        """
        tanh_max = math.tanh(2.0 * r_max)
        pair = _pair_kernel(kappa_tau, 1.0, SEARCH_PHI_IN, SEARCH_PHI_H)

        def scored(psi):
            up, down, shape = pair(0.5 * math.tan(psi))
            sep = abs(up - down)
            f = abs(shape)
            r = r_max if f >= tanh_max else 0.5 * math.atanh(f)
            # positive while |F| < coth(2 r_max); a physical F has |F| <= 1
            noise = 2.0 * kappa_tau * (math.cosh(2.0 * r) - f * math.sinh(2.0 * r))
            return sep / math.sqrt(noise), r, shape

        def point(psi):
            snr, r, shape = scored(psi)
            return snr, {"psi": psi, "r": r, "phase": -1.0 if shape >= 0 else 1.0,
                         "chi_over_kappa": 0.5 * math.tan(psi)}

        box = PSI_BOUNDS_DEFAULT if fix_chi is None else (math.atan(2.0 * fix_chi),) * 2
        return [box], lambda psi: scored(psi)[0], point


class StandardConfig(IesConfig):
    """The plain dispersive readout: injected squeezing fixed at r = 0 and varphi = 0."""

    r = 0.0
    varphi = 0.0

    def __post_init__(self):
        if self.r != 0.0 or self.varphi != 0.0:
            raise ValueError(f"the standard readout has r = 0 and varphi = 0, got {self}")

    def record_fields(self, params: ReadoutParams) -> dict:
        return {"n_tau": ies_photon_number(params, self, params.tau)}


def _pair_kernel(kt, alpha_in, phi_in, phi_h):
    """chi -> (<M>_up, <M>_down, F) at kappa = 1, for this kt, tone and homodyne
    phase: the mean homodyne record of both qubit states and the noise shape
    F(tau) of ies_noise_shape.  a_bar, the homodyne rotation and the factors of
    kt are computed here, once.

    <a(t)> = i a_bar / z * (1 - exp(-izt)) with z = sigma chi - i/2, so the
    integral of <a_out(t)> over [0, kt] is a_bar kt + (i a_bar / z) B with
    B = kt - (1 - e^w)/(iz), w = -iz kt, which stays regular for every chi.
    B = iz kt^2 phi2(w) with phi2(w) = (e^w - 1 - w)/w^2, whose two leading
    orders cancel in the direct form: below |w| = 0.005 phi2 is summed as its
    Taylor series to w^6; above it the direct form is used, whose rounding
    stays below 5e-14 of the cavity term.  chi is a float.
    """
    a_bar = alpha_in * cmath.exp(1j * phi_in)
    a_kt, i_a = a_bar * kt, 1j * a_bar
    rot = cmath.exp(-1j * phi_h)
    scale, tilt = 1.0 / (2.0 * kt), 3.0 - 2.0 * kt
    decay, half_decay = math.exp(-kt), 4.0 * math.exp(-kt / 2.0)
    exp, atan, cos, sin = cmath.exp, math.atan, math.cos, math.sin

    def mean(z):
        w = -1j * z * kt
        if abs(w) < 0.005:
            taylor = 1.0            # 2 phi2(w) = 1 + w/3 (1 + w/4 (1 + ... (1 + w/8)))
            for m in range(8, 2, -1):
                taylor = 1.0 + w * taylor / m
            bracket = 0.5j * z * kt * kt * taylor
        else:
            bracket = kt - (1.0 - exp(w)) / (1j * z)
        return 2.0 * ((a_kt + i_a / z * bracket) * rot).real

    def pair(chi):
        psi = atan(2.0 * chi)
        ct = chi * kt
        return mean(chi - 0.5j), mean(-chi - 0.5j), scale * (
            3.0 + 3.0 * cos(2.0 * psi) - tilt * cos(4.0 * psi) - 3.0 * cos(6.0 * psi)
            + 4.0 * cos(psi) * sin(2.0 * psi)
            * (decay * sin(3.0 * psi + 2.0 * ct) - half_decay * sin(3.0 * psi + ct)))

    return pair


def _noise_pair(p, cfg):
    """Homodyne noise <M_N^2> (up, down) under injected squeezing at normalized params p;
    state-independent factors computed once.  The sigma-dependent rotation enters every
    phase as sigma*psi and sigma*chi*tau; at r = 0 the result is exactly kappa*tau."""
    kt, d = p.tau, cfg.varphi - 2.0 * p.phi_h
    const, tilt = 3.0 * math.cos(d), 3.0 - 2.0 * kt
    half_decay, decay = 16.0 * math.exp(-kt / 2.0), 4.0 * math.exp(-kt)

    def ies_noise(psi, ct):     # named for the quantity an overflow message names
        c1, s2 = math.cos(psi), math.sin(2.0 * psi)
        bracket = (const - tilt * math.cos(4.0 * psi - d) + 6.0 * s2 * math.sin(4.0 * psi - d)
                   - half_decay * c1 * s2 * math.sin(3.0 * psi - d + ct)
                   + decay * c1 * s2 * math.sin(3.0 * psi - d + 2.0 * ct))
        return kt * _stable_squeeze_mix(cfg.r, -0.5 * bracket / kt)

    psi, ct = psi_from_rate(p.chi, 1.0), p.chi * p.tau     # sigma = -1 negates both exactly
    return ies_noise(psi, ct), ies_noise(-psi, -ct)


def ies_noise_shape(params: ReadoutParams) -> float:
    """Shape factor F(tau) of the squeezing-sensitive part of the summed noise.

    The two-state noise sum equals
    2 kappa tau [cosh 2r + cos(varphi - 2 phi_h) sinh 2r * F(tau)],
    so the phase-optimal choice is varphi - 2 phi_h = pi when F > 0 and 0 when F < 0.
    """
    p = params.normalized()
    if not p.tau > 0:
        raise ValueError("kappa*tau must be positive")
    return _pair_kernel(p.tau, 0.0, 0.0, 0.0)(p.chi)[2]


def ies_photon_number(params: ReadoutParams, cfg: IesConfig, t: float) -> float:
    """Intracavity photon number n(t) for the injected-squeezing readout."""
    if t < 0:
        raise ValueError("t must be non-negative")
    kt = params.kappa * t
    psi = psi_from_rate(params.chi, params.kappa)
    drive = (4.0 * params.alpha_in ** 2 / params.kappa) * math.cos(psi) ** 2 * (
        1.0 + math.exp(-kt) - 2.0 * math.cos(params.chi * t) * math.exp(-kt / 2.0))
    return math.sinh(cfg.r) ** 2 + drive


def ies_moments(params: ReadoutParams, cfg: IesConfig) -> MeasurementMoments:
    """Signal and noise for both qubit states."""
    return scheme_moments(params, cfg)


def optimal_varphi(params: ReadoutParams) -> float:
    """Noise-minimizing squeeze phase: varphi = 2 phi_h + pi if F > 0, else 2 phi_h."""
    shift = math.pi if ies_noise_shape(params) > 0 else 0.0
    return reduce_angle(2.0 * params.phi_h + shift)
