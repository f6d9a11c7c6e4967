"""Shared parameter types, SNR/fidelity arithmetic and bisection for dispersive readout.

All quantities are expressed in rate units of the cavity linewidth kappa:
the homodyne record only ever depends on the dimensionless groups
kappa*tau, chi/kappa and alpha_in/sqrt(kappa), so every engine normalizes
its inputs to kappa=1 on entry.
"""

from __future__ import annotations

import math
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
# the SNR searches (IesConfig/IcsConfig.search): box psi x r, tone phi_in = 0, homodyne phi_h = pi/2
PSI_BOUNDS_DEFAULT = (0.01, 1.56)
R_MAX_DEFAULT = math.log(10.0)
SEARCH_PHI_IN, SEARCH_PHI_H = 0.0, math.pi / 2.0


def reduce_angle(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    out = math.remainder(phi, TWO_PI)
    if out <= -math.pi:
        out += TWO_PI
    return out


def require_finite(record, names) -> None:
    """Raise ValueError naming the first of the record's fields names that is not finite;
    None, an unset field, passes."""
    for name in names:
        value = getattr(record, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class Record:
    """Immutable value type that behaves as a frozen dataclass, without the import cost.

    A subclass's fields are its parents' fields followed by its own annotations,
    in order; a class attribute of a field's name is that field's default.
    Each subclass gets one compiled __init__ taking the fields by position or
    keyword, which then runs the class's __post_init__, if any.  Records are
    equal, and hash, by their field tuple, and only against the same type.
    Assignment raises; a __post_init__ rewrites a field through object.__setattr__,
    which, unlike a write to __dict__, keeps the instance's compact attribute storage.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = (*cls._fields, *(f for f in own if f not in cls._fields))
        defaults = {f"_{f}": getattr(cls, f) for f in fields if hasattr(cls, f)}
        params = ", ".join(f"{f}=_{f}" if f"_{f}" in defaults else f for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__, **defaults}
        exec(f"def __init__(self, {params}):{body}{post}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, /, **changes) -> Record:
    """A new record with some fields changed; the class's validation runs again."""
    for f in record._fields:
        if f not in changes:
            changes[f] = getattr(record, f)
    return type(record)(**changes)


class QubitState(IntEnum):
    """Qubit eigenstate entering as the c-number sigma_z = +1 (up) or -1 (down)."""

    UP = 1
    DOWN = -1


class ReadoutParams(Record):
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
        # the sum is non-finite if any field is (or on overflow, which require_finite passes)
        if not math.isfinite(self.kappa + self.chi + self.alpha_in + self.phi_in + self.phi_h
                             + self.tau):
            require_finite(self, ("kappa", "chi", "alpha_in", "phi_in", "phi_h", "tau"))
        # reduce_angle is the identity on (-pi, pi], where most angles already are
        if not -math.pi < self.phi_in <= math.pi:
            object.__setattr__(self, "phi_in", reduce_angle(self.phi_in))
        if not -math.pi < self.phi_h <= math.pi:
            object.__setattr__(self, "phi_h", reduce_angle(self.phi_h))

    @property
    def kappa_tau(self) -> float:
        return self.kappa * self.tau

    def normalized(self) -> "ReadoutParams":
        """Equivalent parameter set in units kappa = 1; at kappa = 1, the record itself."""
        k = self.kappa
        if k == 1.0:
            return self
        return ReadoutParams(1.0, self.chi / k, self.alpha_in / math.sqrt(k),
                             self.phi_in, self.phi_h, k * self.tau)

    def with_(self, **changes) -> "ReadoutParams":
        return replace(self, **changes)


class MeasurementMoments(Record):
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


class ReadoutSummary(Record):
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
    cfg), moments(params) of both states at that point, the oracle's
    linear_system(params, state) and the CLI's record_fields(params).
    """
    params, cfg = cfg.operating_point(params)
    return cfg.moments(params)


def standard_readout_moments(params: ReadoutParams) -> MeasurementMoments:
    """Moments of the plain dispersive readout (no squeezing anywhere)."""
    from . import ies

    return ies.ies_moments(params, ies.StandardConfig())


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
    return _bisect_bracket(f, lo, fa, hi, tol)


def _bisect_bracket(f, a, fa, b, tol):
    """bisect's loop on a < b, where fa = f(a) and f(b) are non-zero and of opposite sign."""
    max_iter = math.ceil(math.log2((b - a) / tol)) + 2
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
