"""Readout with simultaneous injected and intracavity squeezing.

The qubit information lives on the Bogoliubov mode
beta = cosh(r_c) a + e^{i theta} sinh(r_c) a^dag of the two-photon-driven
cavity, whose frequency is omega_sq and whose dispersive shift chi_sq is
squeezing-enhanced.  Matching the injected squeezing to the drive
(r_c = r, theta - varphi = pi) turns the beta input into plain vacuum, so the
measurement noise is kappa*tau*exp(-2r) on the squeezed quadrature while the
signal rides the antisqueezed tone amplitude alpha_in*exp(r).
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings

from .core import (DEFAULT_EPSILON, MeasurementMoments, QubitState, ReadoutParams, BracketError,
                   Record, _bisect_bracket, _stable_squeeze_mix, psi_from_rate, reduce_angle,
                   replace, require_finite, scheme_moments)

_SCAN_POINTS = 4096     # geometric cells of the omega_sq root scan


def chi_sq(g: float, r: float, omega_sq: float, epsilon: float) -> float:
    """Squeezing-enhanced dispersive coupling of the Bogoliubov mode.

    chi_sq = chi [cosh r + sinh^2 r / (cosh r + 2 omega_sq epsilon / g)]
    with chi = g*epsilon.  As epsilon -> 0 it tends to chi cosh 2r / cosh r,
    which is 0.990 chi e^r at e^r = 10; it reaches chi e^r only for large r.
    """
    if not g > 0:
        raise ValueError("coupling g must be positive")
    if not epsilon >= 0 or not math.isfinite(epsilon):
        raise ValueError("epsilon must be a finite non-negative number")
    if epsilon > 0.25:
        warnings.warn(f"epsilon={epsilon:g} is large; the dispersive picture is dubious",
                      stacklevel=2)
    return _chi_sq_function(g, r, epsilon)(omega_sq)


def _chi_sq_function(g: float, r: float, epsilon: float):
    """omega_sq -> chi_sq(g, r, omega_sq, epsilon) for a float omega_sq, with chi,
    cosh r and sinh^2 r computed once; chi_sq checks (g, epsilon), this does not."""
    chi = g * epsilon
    ch, sh2 = math.cosh(r), math.sinh(r) ** 2
    return lambda omega_sq: chi * (ch + sh2 / (ch + 2.0 * omega_sq * epsilon / g))


def input_noise_budget(r_c: float, r: float, theta: float,
                       delta_p: float) -> tuple[float, complex]:
    """Thermal and two-photon noise (N, M) seen by the Bogoliubov-mode input.

    With Delta = r_c - r and theta - varphi = pi + delta_p,
    N = sinh^2 Delta + sin^2(delta_p/2) sinh 2r_c sinh 2r and
    M = e^{i theta}/2 [sinh 2Delta + 2 sin^2(delta_p/2) cosh 2r_c sinh 2r + i sin delta_p sinh 2r],
    the paper's sums of O(cosh^2 2r) terms with their cancellation done in closed form, so
    both are exact to rounding and exactly zero at the matched point.
    """
    d, s2, sh = r_c - r, math.sin(0.5 * delta_p) ** 2, math.sinh(2.0 * r)
    n = math.sinh(d) ** 2 + s2 * math.sinh(2.0 * r_c) * sh
    m = cmath.rect(0.5, theta) * complex(math.sinh(2.0 * d) + 2.0 * s2 * math.cosh(2.0 * r_c) * sh,
                                         math.sin(delta_p) * sh)
    return n, m


class BogoliubovFrame(Record):
    """Pump-frame cavity parameters that diagonalize to the Bogoliubov mode, stored as
    (omega_sq, r_c, theta): delta_c = omega_sq cosh 2r_c, omega_2ph = omega_sq sinh(2r_c)/2."""

    omega_sq: float
    r_c: float
    theta: float = 0.0

    def __post_init__(self):
        if not self.omega_sq > 0:
            raise ValueError("omega_sq must be positive")
        if self.r_c < 0:
            raise ValueError("frame squeeze parameter must be non-negative")
        object.__setattr__(self, "theta", reduce_angle(self.theta))
        self.delta_c        # a detuning out of the float range raises here

    @property
    def delta_c(self) -> float:
        delta_c = self.omega_sq * math.cosh(2.0 * self.r_c)
        if not math.isfinite(delta_c):
            raise OverflowError("delta_c out of range")
        return delta_c

    @property
    def omega_2ph(self) -> float:
        return 0.5 * self.omega_sq * math.sinh(2.0 * self.r_c)


class DispersiveParams(Record):
    """Derived dispersive-frame quantities for one operating point."""

    g: float
    delta_q: float
    epsilon: float
    chi: float
    chi_sq: float
    psi_sq: float
    omega_sq: float
    omega_sigma_up: float
    omega_sigma_down: float
    psi_sigma_up: float
    psi_sigma_down: float

    @classmethod
    def derive(cls, kappa: float, chi: float, r: float, omega_sq: float,
               epsilon: float = DEFAULT_EPSILON) -> "DispersiveParams":
        """Fix (g, delta_q) from (chi, epsilon, omega_sq, r) and derive the rest."""
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        g = chi / epsilon
        delta_q = omega_sq + g * math.cosh(r) / epsilon
        csq = chi_sq(g, r, omega_sq, epsilon)
        om_up = omega_sq + csq
        om_down = omega_sq - csq
        return cls(g=g, delta_q=delta_q, epsilon=epsilon, chi=chi, chi_sq=csq,
                   psi_sq=psi_from_rate(csq, kappa), omega_sq=omega_sq,
                   omega_sigma_up=om_up, omega_sigma_down=om_down,
                   psi_sigma_up=psi_from_rate(om_up, kappa),
                   psi_sigma_down=psi_from_rate(om_down, kappa))

    def omega_sigma(self, state: QubitState) -> float:
        return self.omega_sigma_up if state == QubitState.UP else self.omega_sigma_down

    def psi_sigma(self, state: QubitState) -> float:
        return self.psi_sigma_up if state == QubitState.UP else self.psi_sigma_down

    @property
    def critical_photon_number(self) -> float:
        """n_c = 1/(4 epsilon^2), the dispersive-approximation budget."""
        return 1.0 / (4.0 * self.epsilon ** 2)


class MismatchParams(Record):
    """Imperfect matching r_c = r + delta_r, theta - varphi = pi + delta_p: the input budget
    (n_thermal, m_corr) = (N, M) of input_noise_budget, r0 = asinh(2|M|)/2, phi0 = arg M."""

    delta_r: float
    delta_p: float
    n_thermal: float
    m_corr: complex
    r0: float
    phi0: float

    @classmethod
    def derive(cls, r: float, theta: float, delta_r: float, delta_p: float) -> "MismatchParams":
        r_c = r + delta_r
        n, m = input_noise_budget(r_c, r, theta, delta_p)
        # the transformed pure squeezed input keeps |M| = sinh(2 r0)/2 with N = sinh^2(r0)
        r0 = 0.5 * math.asinh(2.0 * abs(m))
        phi0 = cmath.phase(m) if abs(m) > 0 else 0.0
        rounding = 1e-8 * math.cosh(r_c) ** 2 * math.cosh(r) ** 2
        if abs(n - math.sinh(r0) ** 2) > rounding * (1.0 + n):
            raise ValueError("input correlations lost purity; inconsistent (N, M) pair")
        return cls(delta_r, delta_p, n, m, r0, reduce_angle(phi0))


def combined_noise(params: ReadoutParams, r: float, theta: float = 0.0) -> float:
    """Matched-scheme homodyne noise kappa*tau*[cosh 2r - cos(2 phi_h - theta) sinh 2r].

    Qubit-state independent; equals kappa*tau*exp(-2r) exactly at 2 phi_h = theta.
    """
    c = math.cos(reduce_angle(2.0 * params.phi_h - theta))
    return params.kappa_tau * _stable_squeeze_mix(r, c)


def combined_signal(params: ReadoutParams, disp: DispersiveParams, r: float,
                    theta: float, state: QubitState) -> float:
    """Mean homodyne record <M> of the matched scheme for one qubit state.

    Assumes the tone phase maximizes the Bogoliubov drive, 2 phi_in = theta,
    so the effective tone amplitude is alpha_in * e^r.
    """
    return _signal_pair(params, disp, r, theta)[state != QubitState.UP]


def _signal_pair(params, disp, r, theta):
    """(<M>_up, <M>_down) of combined_signal; state-independent factors computed once."""
    if abs(reduce_angle(2.0 * params.phi_in - theta)) > 1e-9:
        raise ValueError("combined signal requires the tone phase choice 2*phi_in = theta")
    p = params.normalized()
    kt, ch, sh = p.tau, math.cosh(r), math.sinh(r)
    pref, lead, decay = 2.0 * p.alpha_in * math.exp(r), 2.0 - kt, 4.0 * math.exp(-kt / 2.0)

    def combined_signal(omega, psi):    # named for the quantity an overflow message names
        om_t = omega / params.kappa * kt
        thp = 2.0 * psi + p.phi_h - p.phi_in
        thm = 2.0 * psi - p.phi_h - p.phi_in
        return pref * ((lead + 2.0 * math.cos(2.0 * psi))
                       * (math.cos(thp) * ch - math.cos(thm + theta) * sh)
                       - decay * math.cos(psi) ** 2
                       * (math.cos(thp + om_t) * ch - math.cos(thm + theta + om_t) * sh))

    return (combined_signal(disp.omega_sigma_up, disp.psi_sigma_up),
            combined_signal(disp.omega_sigma_down, disp.psi_sigma_down))


def _perp_kernel(kt):
    """(psi_up, psi_down, omega_up*tau, omega_down*tau) -> signed perpendicular separation over
    2 alpha_in/sqrt(kappa) before the e^{2r} gain, at kappa*tau = kt; 2 - kt, e^{-kt/2} once."""
    lead, decay = 2.0 - kt, math.exp(-kt / 2.0)

    def perp_separation(psi_up, psi_down, phase_up, phase_down):
        return ((lead + 2.0 * math.cos(2 * psi_down)) * math.sin(2 * psi_down)
                - (lead + 2.0 * math.cos(2 * psi_up)) * math.sin(2 * psi_up)
                - decay
                * (math.sin(phase_down) + 2.0 * math.sin(2 * psi_down + phase_down)
                   + math.sin(4 * psi_down + phase_down)
                   - 4.0 * math.cos(psi_up) ** 2 * math.sin(2 * psi_up + phase_up)))

    return perp_separation


def _perp_function(params: ReadoutParams, r: float, epsilon: float):
    """omega_sq -> the signed perpendicular separation before the e^{2r} gain, with the bits of
    separation_components.  Built once per solve, which checks (g, epsilon): chi, cosh r,
    sinh^2 r, 2 alpha_in/sqrt(kappa) and the _perp_kernel are built here, not per omega_sq."""
    k = params.kappa
    kt = params.kappa_tau
    separation = _perp_kernel(kt)
    coupling = _chi_sq_function(params.chi / epsilon, r, epsilon)
    amplitude = 2.0 * (params.alpha_in / math.sqrt(k))

    def perp(omega_sq):
        csq = coupling(omega_sq)
        up, down = omega_sq + csq, omega_sq - csq
        return amplitude * separation(math.atan(2.0 * up / k), math.atan(2.0 * down / k),
                                      up / k * kt, down / k * kt)

    return perp


def separation_components(params: ReadoutParams, disp: DispersiveParams,
                          r: float) -> tuple[float, float]:
    """|<M>_up - <M>_down| along and perpendicular to the measurement direction.

    The parallel component is the combined_signal difference at the phases
    2 phi_h = theta = 0, phi_in = phi_h, and carries no net squeezing factor; the
    perpendicular one (theta - 2 phi_h = pi, phi_in - phi_h = pi/2) is amplified by e^{2r}.
    """
    up, down = _signal_pair(params.with_(phi_h=0.0, phi_in=0.0), disp, r, 0.0)
    p = params.normalized()
    perp = 2.0 * p.alpha_in * _perp_kernel(p.tau)(disp.psi_sigma_up, disp.psi_sigma_down,
                                                  disp.omega_sigma_up / params.kappa * p.tau,
                                                  disp.omega_sigma_down / params.kappa * p.tau)
    return abs(up - down), math.exp(2.0 * r) * abs(perp)


def solve_omega_sq(params: ReadoutParams, r: float,
                   epsilon: float = DEFAULT_EPSILON) -> float:
    """Bogoliubov-mode frequency that nulls the perpendicular separation.

    The scan grid has _SCAN_POINTS geometric cells from lo, just below
    (kappa/2)sec(psi_sq), up to max(10 kappa, 5/tau, 1.5 lo), its points the
    running products lo*ratio*ratio*... rounded step by step.  A scalar walk
    takes steps of 512 cells up to the first step whose ends change sign (or
    whose start is a zero), then walks that step in strides of 64, 8 and 1.
    Its one-cell bracket is a full scan's first sign change whenever no step
    it passes over holds an even number of them; the physical separation
    changes sign once on the grid.  Bisection refines that bracket, from the end
    values the walk has evaluated, to 1e-10*kappa on the same _perp_function.
    The root runs from ~pi/tau at short times to (kappa/2)sec(psi_sq) at long times.
    """
    k = params.kappa
    g = params.chi / epsilon
    # lower edge: self-consistent long-time frequency (kappa/2)sec(psi_sq), eight steps
    # from kappa/2; the first, through chi_sq, checks (g, epsilon)
    def edge(csq):
        return 0.5 * k * math.sqrt(1.0 + (2.0 * csq / k) ** 2)
    csq = chi_sq(g, r, 0.5 * k, epsilon)
    coupling = _chi_sq_function(g, r, epsilon)
    for _ in range(7):
        csq = coupling(edge(csq))
    lo = 0.99 * edge(csq)
    # strong chi e^r at small epsilon can lift lo past 10 kappa
    hi = max(max(10.0, 5.0 / params.kappa_tau) * k, 1.5 * lo)

    ratio = (hi / lo) ** (1.0 / _SCAN_POINTS)
    perp = _perp_function(params, r, epsilon)
    a, fa, b, fb = lo, perp(lo), None, None
    for stride in (512, 64, 8, 1):      # cells per step, at most 8 steps per stride
        end, f_end = b, fb      # the coarser step's end: the eighth step lands on its bits
        for _ in range(8):
            if fa == 0.0:
                return a
            # stride more factors of the running product, multiplied left to right
            b = math.prod(itertools.repeat(ratio, stride), start=a)
            fb = f_end if b == end else perp(b)
            if fa * fb < 0:
                break
            a, fa = b, fb
        else:   # only the first stride can end without a bracket
            raise BracketError(
                f"no perpendicular-separation sign change in omega_sq/kappa "
                f"in [{lo / k:g}, {hi / k:g}]")
    return _bisect_bracket(perp, a, fa, b, 1e-10 * k)


def beta_photon_number(params: ReadoutParams, disp: DispersiveParams, r: float,
                       state: QubitState, t: float) -> float:
    """Photon number of the Bogoliubov mode at time t (beta-vacuum start).

    The drive seen by the mode is alpha_in * e^r, so
    n(t) = 4 (alpha_in e^r)^2/kappa cos^2(psi_sigma) [1 + e^{-kt} - 2 e^{-kt/2} cos(omega_sigma t)].
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    kt = params.kappa * t
    om = disp.omega_sigma(state)
    psi = disp.psi_sigma(state)
    amp2 = (params.alpha_in * math.exp(r)) ** 2 / params.kappa
    return 4.0 * amp2 * math.cos(psi) ** 2 * (
        1.0 + math.exp(-kt) - 2.0 * math.exp(-kt / 2.0) * math.cos(om * t))


def asymptotic_snr(limit: str, params: ReadoutParams, disp: DispersiveParams,
                   r: float, snr_std: float) -> float:
    """Short- and long-time SNR of the matched scheme relative to the standard one.

    short: 6 |sin x/x^2 - 2(1 - cos x)/x^3| (chi_sq/chi) e^r SNR_std with
    x = omega_sq*tau, the leading order in kappa*tau at disp's omega_sq;
    long: (sin psi_sq / sin 2 psi) e^r SNR_std, with tan(psi) = 2 chi / kappa
    for the unsqueezed readout.

    The short-time prefactor peaks at 0.8102 at x = 2.606, which with
    chi_sq ~ chi e^r (epsilon -> 0) gives 0.81 e^{2r} SNR_std.  At the
    default root x = pi it is 0.774 (chi_sq/chi) e^r instead.
    """
    if limit == "short":
        x = disp.omega_sq * params.tau
        shape = 6.0 * abs(math.sin(x) / x ** 2 - 2.0 * (1.0 - math.cos(x)) / x ** 3)
        return shape * disp.chi_sq / disp.chi * math.exp(r) * snr_std
    if limit == "long":
        psi = psi_from_rate(params.chi, params.kappa)
        return math.sin(disp.psi_sq) / math.sin(2.0 * psi) * math.exp(r) * snr_std
    raise ValueError(f"limit must be 'short' or 'long', got {limit!r}")


def mismatch_noise(params: ReadoutParams, disp: DispersiveParams, r: float,
                   mismatch: MismatchParams, theta: float,
                   state: QubitState) -> float:
    """Homodyne noise with imperfect matching, at the squeezed angle 2 phi_h = theta.

    Sum of the white-noise floor R0, a transient filtered through the cavity R1,
    and the two-photon correlation contribution R2, the last two built from the input
    budget (N, M) that mismatch holds; collapses to kappa*tau*exp(-2r) when both
    mismatches vanish, and stays finite at any kappa*tau.  Off that angle the
    formula does not hold, so any other phi_h raises ValueError.
    """
    return _mismatch_noise_pair(params, disp, r, mismatch, theta)[state != QubitState.UP]


def _mismatch_noise_pair(params, disp, r, mismatch, theta):
    """(up, down) of mismatch_noise; state-independent factors computed once.  R1 mixes by -2N,
    R2 has the amplitude sinh 2r0 = 2|M| and the phase phi0 = arg M, and the factors of kt enter
    as e^{-kt/2} cosh(kt/2) = (1 + e^{-kt})/2 and e^{-kt} e^{kt} = 1, so none grows with kt."""
    if abs(reduce_angle(2.0 * params.phi_h - theta)) > 1e-9:
        raise ValueError("mismatched-scheme noise is known only on the squeezed "
                         "quadrature 2*phi_h = theta")
    kt = params.normalized().tau
    gain = math.exp(-2.0 * (r + mismatch.delta_r))     # e^{-2 r_c}
    decay, decay2 = math.exp(-kt / 2.0), math.exp(-kt)
    r0_term = kt * _stable_squeeze_mix(r, math.cos(mismatch.delta_p))
    r1_amp, r1_rest = -16.0 * gain * mismatch.n_thermal, 0.5 * (1.0 + decay2)
    r2_amp = 2.0 * gain * abs(mismatch.m_corr)

    def mismatch_noise(omega, psi):
        om_t = omega / params.kappa * kt
        c = math.cos(psi)

        def ang(n: int) -> float:
            return n * psi + theta - mismatch.phi0
        r1_term = r1_amp * c ** 2 * (r1_rest - decay * math.cos(om_t))
        r2_term = (r2_amp * c
                   * ((1.0 - 2.0 * kt) * math.cos(ang(1)) - 2.0 * (1.0 - kt) * math.cos(ang(3))
                      - 3.0 * math.cos(ang(5))
                      + 8.0 * decay * c * math.cos(ang(4) + om_t)
                      - 4.0 * decay2 * c ** 2 * math.cos(ang(3) + 2.0 * om_t)))
        return r0_term + r1_term + r2_term

    return (mismatch_noise(disp.omega_sigma_up, disp.psi_sigma_up),
            mismatch_noise(disp.omega_sigma_down, disp.psi_sigma_down))


class CombinedConfig(Record):
    """Operating point of the combined scheme.

    omega_sq = None requests the perpendicular-separation root solve, and
    theta = None means 0.  The injected-squeezing phase is tied to the drive by
    theta - varphi = pi + delta_p.
    """

    r: float
    theta: float | None = 0.0
    omega_sq: float | None = None
    epsilon: float = DEFAULT_EPSILON
    delta_r: float = 0.0
    delta_p: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeeze parameter must be non-negative")
        if not self.epsilon > 0 or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be a finite positive number, got {self.epsilon}")
        require_finite(self, ("r", "theta", "delta_r", "delta_p", "omega_sq"))
        if self.omega_sq is not None and not self.omega_sq > 0:
            raise ValueError("omega_sq must be positive")
        object.__setattr__(self, "theta", reduce_angle(self.theta or 0.0))
        object.__setattr__(self, "delta_p", reduce_angle(self.delta_p))

    @property
    def r_c(self) -> float:
        return self.r + self.delta_r

    @property
    def varphi(self) -> float:
        return reduce_angle(self.theta - math.pi - self.delta_p)

    @property
    def matched(self) -> bool:
        return self.delta_r == 0.0 and self.delta_p == 0.0

    def operating_point(self, params: ReadoutParams) -> tuple[ReadoutParams, "CombinedConfig"]:
        """Squeezed-quadrature phases phi_h = phi_in = theta/2, with omega_sq solved once,
        so later calls at this point reuse the root."""
        op = operating_params(params, self)
        if self.omega_sq is None:
            return op, replace(self, omega_sq=solve_omega_sq(op, self.r_c, self.epsilon))
        return op, self

    def record_fields(self, params: ReadoutParams) -> dict:
        """The scheme's own fields of the output record, at its operating point."""
        disp = self.dispersive(params)
        frame = BogoliubovFrame(self.omega_sq, self.r_c, self.theta)
        return {"r": self.r, "theta": self.theta, "varphi": self.varphi,
                "delta_r": self.delta_r, "delta_p": self.delta_p,
                "epsilon": self.epsilon, "omega_sq": self.omega_sq,
                "delta_c": frame.delta_c, "omega_2ph": frame.omega_2ph,
                "chi_sq": disp.chi_sq, "psi_sq": disp.psi_sq,
                "g": disp.g, "delta_q": disp.delta_q,
                "n_critical": disp.critical_photon_number,
                **{f"n_beta_{s.name.lower()}": beta_photon_number(
                    params, disp, self.r_c, s, params.tau) for s in QubitState}}

    def dispersive(self, params: ReadoutParams) -> DispersiveParams:
        """Dispersive parameters at omega_sq (the root, if unset); the signal side uses r_c."""
        w = self.omega_sq
        if w is None:
            w = solve_omega_sq(params, self.r_c, self.epsilon)
        return DispersiveParams.derive(params.kappa, params.chi, self.r_c, w, self.epsilon)

    def delta_p_moments(self, params: ReadoutParams):
        """delta_p -> moments(params) with that delta_p, reduced like the field; the dispersive
        parameters and the signals, which do not depend on delta_p, are derived once."""
        disp = self.dispersive(params)
        signals = _signal_pair(params, disp, self.r_c, self.theta)

        def moments(delta_p: float) -> MeasurementMoments:
            if not math.isfinite(delta_p):
                raise ValueError(f"delta_p must be finite, got {delta_p}")
            delta_p = reduce_angle(delta_p)
            if self.delta_r == 0.0 and delta_p == 0.0:
                noises = [combined_noise(params, self.r, self.theta)] * 2
            else:
                mm = MismatchParams.derive(self.r, self.theta, self.delta_r, delta_p)
                noises = _mismatch_noise_pair(params, disp, self.r, mm, self.theta)
            return MeasurementMoments(*signals, *noises)

        return moments

    def moments(self, params: ReadoutParams) -> MeasurementMoments:
        return self.delta_p_moments(params)(self.delta_p)

    def linear_system(self, params: ReadoutParams, state: QubitState) -> LinearReadoutSystem:
        """Oracle model: the cavity mode a under H = omega_sigma beta^dag beta, beta =
        cosh(r_c) a + e^{i theta} sinh(r_c) a^dag (detuning omega_sigma cosh 2r_c, two-photon
        rate omega_sigma sinh 2r_c), fed by the tone and the injected squeezed vacuum, from
        the beta vacuum (the squeezed vacuum of -r_c).  Only omega_sigma = omega_sq +- chi_sq
        (DispersiveParams) is shared with the closed forms: chi_sq comes from the qubit's
        nonlinearity at order epsilon, which no linear model can check."""
        from .oracle import LinearReadoutSystem, squeezed_vacuum
        k = params.kappa
        a_bar = params.alpha_in * complex(math.cos(params.phi_in), math.sin(params.phi_in))
        om = self.dispersive(params).omega_sigma(state)
        det, pump = om * math.cosh(2.0 * self.r_c), om * math.sinh(2.0 * self.r_c)
        ph = complex(math.cos(self.theta), math.sin(self.theta))
        drift = ((-1j * det - k / 2.0, -1j * pump * ph),
                 (1j * pump * ph.conjugate(), 1j * det - k / 2.0))
        return LinearReadoutSystem(drift, a_bar, squeezed_vacuum(self.r, self.varphi),
                                   squeezed_vacuum(-self.r_c, self.theta), params.phi_h, k,
                                   params.tau)


def operating_params(params: ReadoutParams, cfg: CombinedConfig) -> ReadoutParams:
    """Parameters with the scheme's phase convention applied (phi_h = phi_in = theta/2)."""
    half = reduce_angle(cfg.theta / 2.0)
    return params.with_(phi_h=half, phi_in=half)


def combined_moments(params: ReadoutParams, cfg: CombinedConfig) -> MeasurementMoments:
    """Signal and noise for both qubit states, matched or mismatched.

    The measurement runs on the squeezed quadrature (phi_h = theta/2) with the
    tone along it (phi_in = phi_h); caller-supplied phi_h/phi_in are overridden
    by this operating convention (CombinedConfig.operating_point).
    """
    return scheme_moments(params, cfg)
