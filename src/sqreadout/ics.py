"""Readout with intracavity squeezing from a two-photon (parametric) drive.

The cavity obeys
    da/dt = -(i sigma chi + kappa/2) a - 2i Omega e^{i theta} a^dag - sqrt(kappa) a_in
with vacuum input, starting from the stationary state of the driven cavity
before the qubit shift acts.  The quadratures (X, P) of e^{-i theta/2} a obey
dv/dt = M v - sqrt(kappa) v_in with M = -kappa/2 + N, N = [[0, a], [-b, 0]],
a = sigma chi - 2 Omega and b = sigma chi + 2 Omega, so N^2 = -lambda^2 with
lambda^2 = chi^2 - 4 Omega^2, and
    e^{M t} = e^{-kappa t/2} [cos(lambda t) + (sin(lambda t)/lambda) N].
Every closed form here is a real function of lambda^2 built on those two
coefficients, which are entire in lambda^2 (cosh and sinh on the imaginary
branch), so no branch of lambda, no complex arithmetic in lambda and no floor
at the exceptional point chi = 2 Omega is needed.  The paper's angle psi,
tan psi = 2 lambda/kappa, enters only as kappa^2/4 + lambda^2 =
(kappa^2/4)/cos^2 psi.  Each form, the mean field's complex products too
(_state_parts), is written once in real arithmetic on scalars, with a function
namespace fn: math for the public API and the SNR search, mpmath for a
high-precision check.  One kernel answers for both qubit states: _pair_kernel,
built once for a kappa*tau, tone and phases, maps (chi, Omega) to the mean
records of both states and the noise decomposition (G0, Gs, Gc), which shares
the signal's integrals i_c, i_s.  ics_moments, ics_noise_components and the SNR
search all run it.
"""

from __future__ import annotations

import math

from .core import (PSI_BOUNDS_DEFAULT, SEARCH_PHI_H, SEARCH_PHI_IN, MeasurementMoments,
                   QubitState, ReadoutParams, Record, StabilityError, reduce_angle,
                   replace, require_finite)


class IcsConfig(Record):
    """Two-photon drive setting: amplitude Omega >= 0 (rate units), phase theta (None: optimal)."""

    omega_2ph: float
    theta: float | None = 0.0

    def __post_init__(self):
        if self.omega_2ph < 0:
            raise ValueError(f"two-photon amplitude must be non-negative, got {self.omega_2ph}")
        require_finite(self, ("omega_2ph", "theta"))
        if self.theta is not None:
            object.__setattr__(self, "theta", reduce_angle(self.theta))

    def operating_point(self, params: ReadoutParams) -> tuple[ReadoutParams, "IcsConfig"]:
        """The scheme runs at the phases it is given, an unset theta made the optimal one."""
        if self.theta is None:
            return params, replace(self, theta=optimal_theta(params, self.omega_2ph))
        return params, self

    def record_fields(self, params: ReadoutParams) -> dict:
        """The scheme's own fields of the output record, at its operating point."""
        lam = ics_lambda(params.chi, self.omega_2ph)
        return {"omega_2ph": self.omega_2ph, "theta": self.theta,
                "lambda_re": lam.real, "lambda_im": lam.imag,
                "r_out": ics_squeeze_param(params.kappa, self.omega_2ph),
                "n_tau": ics_photon_number(params, self, params.tau)}

    def moments(self, params: ReadoutParams) -> MeasurementMoments:
        return ics_moments(params, self)

    def linear_system(self, params: ReadoutParams, state: QubitState) -> LinearReadoutSystem:
        """Oracle model: two-photon-driven cavity with vacuum input, from its stationary state."""
        from .oracle import LinearReadoutSystem
        params, cfg = self.operating_point(params)
        _require_stable(params, cfg)
        k = params.kappa
        s = int(state)
        a_bar = params.alpha_in * complex(math.cos(params.phi_in), math.sin(params.phi_in))
        ph = complex(math.cos(cfg.theta), math.sin(cfg.theta))
        drift = ((-1j * s * params.chi - k / 2.0, -2j * cfg.omega_2ph * ph),
                 (2j * cfg.omega_2ph * ph.conjugate(), 1j * s * params.chi - k / 2.0))
        init = ics_initial_correlations(k, cfg)
        return LinearReadoutSystem(drift, a_bar, (0.0, 0.0), init, params.phi_h, k, params.tau)

    @staticmethod
    def search(kappa_tau: float, r_max: float, fix_chi: float | None = None):
        """(box, objective, point) of the SNR search at unit kappa and alpha_in.

        The box is (psi, r) in PSI_BOUNDS_DEFAULT x [0, r_max]: tan(psi) =
        2 lambda / kappa fixes lambda and r the drive amplitude, or fix_chi pins
        chi and the psi axis is the point 0.  The noise 2 G0 - 2 phase Gs is
        linear in phase = sin(2 phi_h - theta), so phase = sign(Gs) (-1 on a
        tie).  At r_max <= ln 10 every point is stable and stationary: 4 Omega
        <= 0.82 kappa and lambda^2 >= -4 Omega^2 > -kappa^2/4.  objective(psi, r)
        is the SNR, a float from the pair kernel built once here, at float
        coordinates; point(psi, r) is (SNR, argmax record).
        """
        pair = _pair_kernel(kappa_tau, 1.0, SEARCH_PHI_IN, SEARCH_PHI_H, 0.0)

        def coupling(psi, omega):
            if fix_chi is not None:
                return fix_chi
            lam = 0.5 * math.tan(psi)
            return math.sqrt(lam * lam + 4.0 * omega * omega)

        def objective(psi, r):
            omega = _omega_from_r(1.0, r)
            up, down, g0, gs, _ = pair(coupling(psi, omega), omega)
            noise = 2.0 * g0 - 2.0 * abs(gs)
            return abs(up - down) / math.sqrt(noise) if noise > 0 else 0.0

        def point(psi, r):
            omega = _omega_from_r(1.0, r)
            gs = pair(coupling(psi, omega), omega)[3]
            key, value = (("lambda_over_kappa", 0.5 * math.tan(psi)) if fix_chi is None
                          else ("chi_over_kappa", fix_chi))
            return objective(psi, r), {"psi": psi, "r": r, "phase": 1.0 if gs > 0 else -1.0,
                                       "omega_2ph_over_kappa": omega, key: value}

        box = [PSI_BOUNDS_DEFAULT if fix_chi is None else (0.0, 0.0), (0.0, r_max)]
        return box, objective, point


class StabilityReport(Record):
    """Verdict on the two-photon-driven cavity operating point."""

    stable: bool
    steady_state_ok: bool
    reason: str

    def __bool__(self) -> bool:
        return bool(self.stable and self.steady_state_ok)


def _lambda_sq(chi, omega_2ph):
    """lambda^2 = chi^2 - 4 Omega^2."""
    return chi * chi - 4.0 * omega_2ph * omega_2ph


def ics_lambda(chi: float, omega_2ph: float) -> complex:
    """Oscillation rate lambda = sqrt(chi^2 - 4 Omega^2), principal branch.

    The rates are scaled by a power of two, exactly, so chi^2 cannot overflow.
    """
    e = math.frexp(max(abs(chi), 2.0 * abs(omega_2ph)))[1]
    x = _lambda_sq(math.ldexp(chi, -e), math.ldexp(omega_2ph, -e))
    root = math.ldexp(math.sqrt(abs(x)), e)
    return complex(root, 0.0) if x >= 0 else complex(0.0, root)


def _stability(kappa, chi, omega_2ph):
    """(lambda^2, unstable, steady): the mean field is unstable when lambda is
    imaginary with |lambda| >= kappa/2, and a stationary state needs 4 Omega < kappa.

    The verdicts are bools for scalars and boolean masks for arrays.
    """
    x = _lambda_sq(chi, omega_2ph)
    return x, 4.0 * x <= -kappa * kappa, 4.0 * omega_2ph < kappa


def ics_stability(params: ReadoutParams, cfg: IcsConfig) -> StabilityReport:
    """Check mean-field stability and existence of the stationary fluctuation state."""
    x, unstable, steady = _stability(params.kappa, params.chi, cfg.omega_2ph)
    if unstable:
        reason = (f"imaginary lambda with |lambda|={math.sqrt(-x):g} "
                  f">= kappa/2={params.kappa / 2:g}")
    else:
        reason = "lambda real" if x >= 0 else "imaginary lambda below kappa/2"
    if not steady:
        reason += "; no stationary state: 4*Omega >= kappa"
    return StabilityReport(not unstable, steady, reason)


def _require_stable(params: ReadoutParams, cfg: IcsConfig) -> None:
    verdict = ics_stability(params, cfg)
    if not verdict:
        raise StabilityError(verdict.reason)


def _oscillation(x, t, fn=math):
    """(g, C, S, xS) at kappa = 1 and lambda^2 = x, where g C, g S and g xS are
    e^{-t/2} times cos(lambda t), sin(lambda t)/lambda and lambda sin(lambda t).

    All three are entire in x.  On the real branch g = e^{-t/2} and
    S = t sin(lambda t)/(lambda t), which is t at x = 0.  On the imaginary
    branch (x < 0, mu = sqrt(-x)) the growth e^{mu t} of cosh and sinh moves
    into g = e^{(mu - 1/2) t}, which stays below 1 for mu < 1/2 at any t, and
    C = (1 + e^{-2 mu t})/2, S = (1 - e^{-2 mu t})/(2 mu), xS = -mu (1 - e^{-2 mu t})/2,
    with expm1 keeping S accurate as mu -> 0.  x and t are scalars of one
    number type (float or mpmath).
    """
    mu = fn.sqrt(abs(x))
    if x < 0:
        em = fn.expm1(-2.0 * mu * t)
        return fn.exp((mu - 0.5) * t), 1.0 + 0.5 * em, -0.5 * em / mu, 0.5 * mu * em
    lt = mu * t
    sn = fn.sin(lt)
    return fn.exp(-0.5 * t), fn.cos(lt), (t * (sn / lt) if lt > 0 else t), mu * sn


def _tone_phases(phi_in, theta, fn=math):
    """(e_in, e_out) = (e^{i phi_in}, e^{i (theta - phi_in)})."""
    return (fn.cos(phi_in) + 1j * fn.sin(phi_in),
            fn.cos(theta - phi_in) + 1j * fn.sin(theta - phi_in))


def _state_parts(chi, om, x, alpha_in, er, ei, o_r, o_i):
    """(pref, t0 and ts of sigma = +1, t0 and ts of sigma = -1), each of t0 and ts as
    its real and imaginary parts, with e_in = er + i ei and e_out = o_r + i o_i:

    <a(t)> = pref [t0 (1 - g C) + ts g S] for qubit state sigma = +-1 from <a(0)> = 0,
    with pref = 2 alpha_in/(1 + 4 lambda^2), (g, C, S) from _oscillation,
    t0 = 4i Omega e_out - (1 - 2i sigma chi) e_in and
    ts = -[(2 lambda^2 + i sigma chi) e_in + 2i Omega e_out].
    The complex products are spelled out in real arithmetic: each part is the
    float that CPython's complex product gives, up to the sign of a zero.
    """
    q4, q2, x2, two = 4.0 * om, 2.0 * om, 2.0 * x, 2.0 * chi
    dr, di = -(q4 * o_i), q4 * o_r                  # 4i Omega e_out
    hr, hi = -(q2 * o_i), q2 * o_r                  # 2i Omega e_out
    return (2.0 * alpha_in / (1.0 + 4.0 * x),
            dr - (er + two * ei), di - (ei - two * er),
            -(x2 * er - chi * ei + hr), -(x2 * ei + chi * er + hi),
            dr - (er - two * ei), di - (ei + two * er),
            -(x2 * er + chi * ei + hr), -(x2 * ei - chi * er + hi))


def _mean_field(t, chi, om, alpha_in, phi_in, theta, sigma, fn=math):
    """<a(t)> at kappa = 1 for qubit state sigma = +-1, from <a(0)> = 0."""
    x = _lambda_sq(chi, om)
    e_in, e_out = _tone_phases(phi_in, theta, fn)
    pref, *parts = _state_parts(chi, om, x, alpha_in, e_in.real, e_in.imag, e_out.real,
                                e_out.imag)
    t0r, t0i, tsr, tsi = parts[:4] if sigma > 0 else parts[4:]
    g, c, s, _ = _oscillation(x, t, fn)
    u, v = 1.0 - g * c, g * s
    return pref * (t0r * u + tsr * v + 1j * (t0i * u + tsi * v))


def ics_mean_field(params: ReadoutParams, cfg: IcsConfig, state: QubitState,
                   t: float) -> complex:
    """Coherent cavity amplitude <a(t)> under the tone, from <a(0)> = 0."""
    _require_stable(params, cfg)
    if t < 0:
        raise ValueError("t must be non-negative")
    p = params.normalized()
    return _mean_field(params.kappa * t, p.chi, cfg.omega_2ph / params.kappa, p.alpha_in,
                       p.phi_in, cfg.theta, int(state))


def _sandwich(p, q, x, om, den):
    """(tr T, T_12, (T_11 - T_22)/(a + b)) of T = (p + q N)(V_0 - V_s)(p + q N)^T
    at kappa = 1; none of the three depends on sigma.

    V_0 = 1 + (4 Omega/d0) [[4 Omega, -1], [-1, 4 Omega]], d0 = 1 - 16 Omega^2, is
    the (X, P) covariance at t = 0 (vacuum = 1), and V_s = 1 - (Omega/den)
    [[2a, 1], [1, -2b]], den = 1/4 + lambda^2, the stationary one under the
    qubit shift, M V_s + V_s M^T = -1.
    """
    q4, q2, w2 = 4.0 * om, 2.0 * om, om * om
    d0 = (1.0 - q4) * (1.0 + q4)
    dd = 16.0 * om * om / d0                    # diagonal of V_0 - 1
    d12 = om / den - q4 / d0                    # off-diagonal of V_0 - V_s
    pp, pq, qq, dd2, w8, xd = p * p, p * q, q * q, 2.0 * dd, 8.0 * w2, x / den
    return (pp * (dd2 - w8 / den) - 8.0 * om * pq * d12
            + qq * (dd * (2.0 * x + 16.0 * w2) + w8 * x / den),
            pp * d12 - q4 * pq * (dd + xd) - qq * x * d12,
            q2 * pp / den + 2.0 * pq * d12 - q2 * qq * (dd2 + xd))


def _pair_kernel(kt, alpha_in, phi_in, phi_h, theta, fn=math):
    """(chi, Omega) -> (<M>_up, <M>_down, G0, Gs, Gc) at kappa = 1, for this kt,
    tone and phases; the phase factors e_in, e_out, a_bar and the homodyne
    projection are computed here, once, and the kernel does the rest.

    Signal: with i_c, i_s the integrals over [0, kt] of e^{-u/2} cos(lambda u)
    and of e^{-u/2} sin(lambda u)/lambda, int_0^kt e^{M u} du = M^{-1} (e^{M kt} - 1)
    = i_c + i_s N, M^{-1} = -(1/2 + N)/(1/4 + lambda^2).  At small kt, i_s and
    kt - i_c are O(kt^2) differences of O(1) terms and keep about
    16 + 2 log10(kt) digits.  The integral of <a_out(t)> over [0, kt] is, term by
    term, a_bar kt + pref [t0 kt + ts i_s - t0 i_c] (t0 and ts of _state_parts, in
    real arithmetic for every number type); only t0 and ts depend on sigma.

    Noise: for the quadrature h = (cos phi, sin phi), phi = phi_h - theta/2, of the
    record, <M_N^2> = kt + h^T W h with
        W = 2 Phi2 (V_s - 1) + Psi (V_0 - V_s) Psi^T
    (V_0 and V_s as in _sandwich), where Psi = i_c + i_s N and
    Phi2 = int_0^kt Psi(u) du = M^{-1} (Psi - kt) = f0 + f1 N.  So G0 = kt + tr W/2,
    Gs = -W_12 and sigma chi Gc = (W_11 - W_22)/2, whose factor a + b = 2 sigma chi
    is divided out in closed form.  These equal the G0, Gs and Gc of the paper's
    supplement identically, without its cot(psi) groupings.  The 1/(1 - 16 Omega^2)
    of V_0 only multiplies entries of Psi, which are O(kt) without cancellation,
    so the noise keeps its digits up to threshold.
    """
    e_in, e_out = _tone_phases(phi_in, theta, fn)
    a_kt = alpha_in * e_in * kt
    akr, aki = a_kt.real, a_kt.imag
    er, ei, o_r, o_i = e_in.real, e_in.imag, e_out.real, e_out.imag
    c_h, s_h = fn.cos(phi_h), fn.sin(phi_h)

    def pair(chi, om):
        x = _lambda_sq(chi, om)
        g, c, s, xs = _oscillation(x, kt, fn)
        den = x + 0.25
        i_c = (0.5 + g * (xs - 0.5 * c)) / den
        i_s = (1.0 - g * (c + 0.5 * s)) / den
        f0 = (0.5 * (kt - i_c) + x * i_s) / den
        f1 = (kt - i_c - 0.5 * i_s) / den
        f, q2 = 2.0 * f0 + f1, 2.0 * om
        tr, t12, y = _sandwich(i_c, i_s, x, om, den)
        g0, gs, gc = (kt + 4.0 * om * om * f / den + 0.5 * tr,
                      q2 * (f0 - 2.0 * x * f1) / den - t12, y - q2 * f / den)
        pref, u0r, u0i, usr, usi, d0r, d0i, dsr, dsi = _state_parts(chi, om, x, alpha_in,
                                                                    er, ei, o_r, o_i)
        # J = a_bar kt + pref (jr + i ji) per state.  CPython before 3.14 multiplies
        # the float pref by the complex jr + i ji as complex(pref, 0) times it; the
        # zero terms of that product are kept, so a zero mean (alpha_in = 0) keeps
        # its sign too
        jr, ji = u0r * kt + usr * i_s - u0r * i_c, u0i * kt + usi * i_s - u0i * i_c
        up = 2.0 * ((akr + (pref * jr - 0.0 * ji)) * c_h + (aki + (pref * ji + 0.0 * jr)) * s_h)
        jr, ji = d0r * kt + dsr * i_s - d0r * i_c, d0i * kt + dsi * i_s - d0i * i_c
        return up, 2.0 * ((akr + (pref * jr - 0.0 * ji)) * c_h
                          + (aki + (pref * ji + 0.0 * jr)) * s_h), g0, gs, gc

    return pair


def ics_noise_components(params: ReadoutParams, cfg: IcsConfig) -> tuple[float, float, float]:
    """Noise decomposition (G0, Gs, Gc):

    <M_N^2> = G0 - sin(2 phi_h - theta) Gs + (sigma chi / kappa) cos(2 phi_h - theta) Gc.
    """
    _require_stable(params, cfg)
    p = params.normalized()
    return _pair_kernel(p.tau, 0.0, 0.0, 0.0, 0.0)(p.chi, cfg.omega_2ph / params.kappa)[2:]


def ics_squeeze_param(kappa: float, omega_2ph: float) -> float:
    """Output-field squeeze parameter r = ln[(kappa + 4 Omega)/(kappa - 4 Omega)]."""
    if not 0 <= 4.0 * omega_2ph < kappa:
        raise ValueError(f"need 0 <= 4*Omega < kappa, got Omega={omega_2ph}, kappa={kappa}")
    return math.log((kappa + 4.0 * omega_2ph) / (kappa - 4.0 * omega_2ph))


def _omega_from_r(kappa, r):
    e = math.exp(r)
    return 0.25 * kappa * (e - 1.0) / (e + 1.0)


def ics_omega_from_r(kappa: float, r: float) -> float:
    """Inverse map: two-photon amplitude giving output squeeze parameter r."""
    if not (0 < kappa < math.inf and 0 <= r < math.inf):
        raise ValueError(f"kappa must be positive and the squeeze parameter non-negative, "
                         f"both finite, got kappa={kappa}, r={r}")
    return _omega_from_r(kappa, r)


def _photon_fluctuation(t, chi, om, fn=math):
    """Fluctuation part of n(t) at kappa = 1: (tr V(t) - 2)/4 with
    V(t) = V_s + e^{M t} (V_0 - V_s) e^{M^T t} (see _sandwich)."""
    x = _lambda_sq(chi, om)
    g, c, s, _ = _oscillation(x, t, fn)
    den = 0.25 + x
    return 0.25 * (8.0 * om * om / den + _sandwich(g * c, g * s, x, om, den)[0])


def ics_photon_number(params: ReadoutParams, cfg: IcsConfig, t: float) -> float:
    """Intracavity photon number n(t) = fluctuation part + |<a(t)>|^2.

    The fluctuation part is drive-independent; the coherent part carries the
    full dependence on the tone phase relative to the two-photon drive (the
    parametric interaction amplifies or deamplifies the displacement).
    """
    _require_stable(params, cfg)
    if t < 0:
        raise ValueError("t must be non-negative")
    p = params.normalized()
    kt, om = params.kappa * t, cfg.omega_2ph / params.kappa
    return (_photon_fluctuation(kt, p.chi, om)
            + abs(_mean_field(kt, p.chi, om, p.alpha_in, p.phi_in, cfg.theta, 1)) ** 2)


def ics_initial_correlations(kappa: float, cfg: IcsConfig) -> tuple[float, complex]:
    """Stationary cavity-fluctuation moments (<A^dag A>, <A A>) before the tone."""
    if not 4.0 * cfg.omega_2ph < kappa:
        raise StabilityError("no stationary state: 4*Omega >= kappa")
    # factored, or kappa^2 - 16 Omega^2 cancels as 4 Omega -> kappa
    den = (kappa - 4.0 * cfg.omega_2ph) * (kappa + 4.0 * cfg.omega_2ph)
    n0 = 8.0 * cfg.omega_2ph ** 2 / den
    m0 = complex(math.sin(cfg.theta), -math.cos(cfg.theta)) * 2.0 * kappa * cfg.omega_2ph / den
    return n0, m0


def ics_moments(params: ReadoutParams, cfg: IcsConfig) -> MeasurementMoments:
    """Signal and noise for both qubit states, from one _pair_kernel call.

    The separation <M>_up - <M>_down equals the factored closed form
    (16 (chi/kappa) a / sqrt(kappa)) cos^2 psi sin(phi_h - phi_in) {kappa tau - ...}
    with tan(psi) = 2 lambda / kappa, evaluated here through the per-state means
    so it stays regular at sin(2 psi) = 0.  The noises follow the decomposition of
    ics_noise_components.
    """
    params, cfg = cfg.operating_point(params)       # an unset theta: the optimal one
    _require_stable(params, cfg)
    p = params.normalized()
    up, down, g0, gs, gc = _pair_kernel(p.tau, p.alpha_in, p.phi_in, p.phi_h, cfg.theta)(
        p.chi, cfg.omega_2ph / params.kappa)
    d = 2.0 * p.phi_h - cfg.theta
    common = g0 - math.sin(d) * gs
    split = p.chi * math.cos(d) * gc
    return MeasurementMoments(up, down, common + split, common - split)


def optimal_theta(params: ReadoutParams, cfg_omega: float) -> float:
    """Noise-minimizing drive phase: 2 phi_h - theta = pi/2 on the Gs > 0 branch."""
    probe = IcsConfig(cfg_omega, 0.0)
    _, gs, _ = ics_noise_components(params, probe)
    shift = math.pi / 2.0 if gs >= 0 else -math.pi / 2.0
    return reduce_angle(2.0 * params.phi_h - shift)
