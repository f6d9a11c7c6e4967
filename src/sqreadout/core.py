"""Shared parameter types, SNR/fidelity arithmetic and bisection for dispersive readout.

All quantities are expressed in rate units of the cavity linewidth kappa:
the homodyne record only ever depends on the dimensionless groups
kappa*tau, chi/kappa and alpha_in/sqrt(kappa), so every engine normalizes
its inputs to kappa=1 on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Callable


class ReadoutError(Exception):
    """Base class for readout computation errors."""


class DegenerateNoiseError(ReadoutError):
    """Total measurement noise is not positive."""


class ZeroSignalError(ReadoutError):
    """Scheme produces no pointer-state separation."""


class StabilityError(ReadoutError):
    """Requested operating point has no stable / stationary solution."""


class BracketError(ReadoutError):
    """Root bracketing failed."""


class IndefiniteCovarianceError(ReadoutError):
    """Reconstructed quadrature covariance is not positive definite."""


TWO_PI = 2.0 * math.pi
DEFAULT_EPSILON = 0.05  #: dispersive-approximation accuracy of the reference figures


def reduce_angle(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    out = math.remainder(phi, TWO_PI)
    if out <= -math.pi:
        out += TWO_PI
    return out


class QubitState(IntEnum):
    """Qubit eigenstate entering as the c-number sigma_z = +1 (up) or -1 (down)."""

    UP = 1
    DOWN = -1


@dataclass(frozen=True)
class ReadoutParams:
    """Cavity and measurement-tone parameters shared by every scheme.

    kappa     : cavity photon loss rate (> 0; sets the unit system)
    chi       : dispersive shift per sigma_z
    alpha_in  : measurement-tone amplitude, units sqrt(rate) (>= 0)
    phi_in    : tone phase
    phi_h     : homodyne measurement angle
    tau       : integration time of the homodyne record (> 0)
    """

    kappa: float
    chi: float
    alpha_in: float
    phi_in: float
    phi_h: float
    tau: float

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.alpha_in < 0:
            raise ValueError(f"alpha_in must be non-negative, got {self.alpha_in}")
        object.__setattr__(self, "phi_in", reduce_angle(self.phi_in))
        object.__setattr__(self, "phi_h", reduce_angle(self.phi_h))

    @property
    def kappa_tau(self) -> float:
        return self.kappa * self.tau

    def normalized(self) -> "ReadoutParams":
        """Equivalent parameter set in units kappa = 1."""
        k = self.kappa
        return ReadoutParams(1.0, self.chi / k, self.alpha_in / math.sqrt(k),
                             self.phi_in, self.phi_h, k * self.tau)

    def with_(self, **changes) -> "ReadoutParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class MeasurementMoments:
    """First and second moments of the measurement operator for both qubit states."""

    signal_up: float
    signal_down: float
    noise_up: float
    noise_down: float

    def __post_init__(self):
        if self.noise_up < 0 or self.noise_down < 0:
            raise DegenerateNoiseError("measurement noise must be non-negative")

    def of(self, state: QubitState) -> tuple[float, float]:
        """(signal, noise) of one qubit state."""
        if state == QubitState.UP:
            return self.signal_up, self.noise_up
        return self.signal_down, self.noise_down

    @property
    def separation(self) -> float:
        return abs(self.signal_up - self.signal_down)

    @property
    def noise_sum(self) -> float:
        return self.noise_up + self.noise_down


@dataclass(frozen=True)
class ReadoutSummary:
    """Separation, noise, SNR and the implied single-shot fidelity."""

    separation: float
    noise_sum: float
    snr: float
    fidelity: float
    error: float


def psi_from_rate(x: float, kappa: float) -> float:
    """Cavity response angle psi = atan(2x/kappa) for a rate x."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    return math.atan(2.0 * x / kappa)


def snr(moments: MeasurementMoments) -> float:
    """Signal-to-noise ratio |<M>_up - <M>_down| / sqrt(noise_up + noise_down)."""
    total = moments.noise_sum
    if not total > 0:
        raise DegenerateNoiseError(f"total noise {total} is not positive")
    return moments.separation / math.sqrt(total)


def fidelity_and_error(snr_value: float) -> tuple[float, float]:
    """Measurement fidelity (1 + erf(SNR/2))/2 and error 1 - fidelity."""
    if snr_value < 0:
        raise ValueError("SNR must be non-negative")
    # erfc avoids cancellation in the error for large SNR
    error = 0.5 * math.erfc(0.5 * snr_value)
    return 1.0 - error, error


def _stable_squeeze_mix(r: float, c: float) -> float:
    """cosh(2r) - c*sinh(2r) for |c| <= 1 without cancellation: e^{-2r} + (1-c) sinh(2r).

    Exactly 1 at r = 0 and exactly e^{-2r} at c = 1.
    """
    return math.exp(-2.0 * r) + (1.0 - c) * math.sinh(2.0 * r)


def summarize(moments: MeasurementMoments) -> ReadoutSummary:
    """Bundle moments into separation/noise/SNR/fidelity."""
    s = snr(moments)
    fid, err = fidelity_and_error(s)
    return ReadoutSummary(moments.separation, moments.noise_sum, s, fid, err)


def required_tone_amplitude(snr_at_unit_amplitude: float, target_snr: float) -> float:
    """Tone amplitude alpha_in/sqrt(kappa) needed to reach a target SNR.

    The signal is strictly linear in alpha_in while the noise does not
    depend on it, so the required amplitude is target / SNR(alpha_in=sqrt(kappa)).
    """
    if target_snr < 0:
        raise ValueError("target SNR must be non-negative")
    if target_snr == 0:
        return 0.0
    if not snr_at_unit_amplitude > 0:
        raise ZeroSignalError("scheme SNR vanishes at unit tone amplitude")
    return target_snr / snr_at_unit_amplitude


def scheme_moments(params: ReadoutParams, cfg) -> MeasurementMoments:
    """Signal and noise for both qubit states at the scheme's operating point.

    cfg is any scheme config: it supplies operating_point(params) -> (params,
    cfg), moments(params) of both states at that point, and the oracle's
    linear_system(params, state).
    """
    params, cfg = cfg.operating_point(params)
    return cfg.moments(params)


def standard_readout_moments(params: ReadoutParams) -> MeasurementMoments:
    """Moments of the plain dispersive readout (no squeezing anywhere)."""
    from . import ies

    return ies.ies_moments(params, ies.IesConfig(r=0.0, varphi=0.0))


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
