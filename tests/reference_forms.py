"""Closed forms as written before the kernels and pair forms that replaced them.

The ICS and IES scalar forms below predate the lean search kernels.  Each call
recomputed every factor: lambda^2, the tone and homodyne phase factors,
e^{-kappa tau/2} and e^{-kappa tau}, and (for IES) the Taylor series of the
short-time bracket on both sides of |w| = 0.005.  sqreadout's kernels hoist the
factors that stay fixed and run the same float operations in the same order, so
they must give the same bits as these.  Only the scalar (math) paths are kept;
they work at kappa = 1.

The per-state forms at the end (the combined signal and mismatch noise, the IES
noise, separation_components and bisect) predate the pair forms that compute
both qubit states in one pass and the bisection that starts from a bracket with
known end values.  They take the library's records, as the forms they stand for
did, and the pair forms must give their bits.
"""

from __future__ import annotations

import cmath
import math

from sqreadout.core import reduce_angle

SEARCH_PHI_IN, SEARCH_PHI_H = 0.0, math.pi / 2.0


# ------------------------------------------------------------------ ICS


def lambda_sq(chi, omega_2ph):
    return chi * chi - 4.0 * omega_2ph * omega_2ph


def oscillation(x, t):
    mu = math.sqrt(abs(x))
    if x < 0:
        em = math.expm1(-2.0 * mu * t)
        return math.exp((mu - 0.5) * t), 1.0 + 0.5 * em, -0.5 * em / mu, 0.5 * mu * em
    lt = mu * t
    sn = math.sin(lt)
    return math.exp(-0.5 * t), math.cos(lt), (t * (sn / lt) if lt > 0 else t), mu * sn


def integrals(x, t):
    g, c, s, xs = oscillation(x, t)
    den = x + 0.25
    return (0.5 + g * (xs - 0.5 * c)) / den, (1.0 - g * (c + 0.5 * s)) / den


def mean_field_terms(chi, om, alpha_in, phi_in, theta):
    x = lambda_sq(chi, om)
    e_in = math.cos(phi_in) + 1j * math.sin(phi_in)
    e_out = math.cos(theta - phi_in) + 1j * math.sin(theta - phi_in)
    return x, 2.0 * alpha_in / (1.0 + 4.0 * x), e_in, e_out


def state_terms(chi, om, x, e_in, e_out, sigma):
    return (4j * om * e_out - (1.0 - 2j * sigma * chi) * e_in,
            -((2.0 * x + 1j * sigma * chi) * e_in + 2j * om * e_out))


def signal_pair(kt, chi, om, alpha_in, phi_in, phi_h, theta):
    """((i_c, i_s), <M>_up, <M>_down)."""
    x, pref, e_in, e_out = mean_field_terms(chi, om, alpha_in, phi_in, theta)
    i_c, i_s = integrals(x, kt)
    a_bar = alpha_in * e_in
    c_h, s_h = math.cos(phi_h), math.sin(phi_h)
    means = []
    for sigma in (1, -1):
        t0, ts = state_terms(chi, om, x, e_in, e_out, sigma)
        j = a_bar * kt + pref * (t0 * kt + ts * i_s - t0 * i_c)
        means.append(2.0 * (j.real * c_h + j.imag * s_h))
    return (i_c, i_s), means[0], means[1]


def sandwich(p, q, x, om, den):
    d0 = (1.0 - 4.0 * om) * (1.0 + 4.0 * om)
    dd = 16.0 * om * om / d0
    d12 = om / den - 4.0 * om / d0
    pp, pq, qq, w2 = p * p, p * q, q * q, om * om
    return (pp * (2.0 * dd - 8.0 * w2 / den) - 8.0 * om * pq * d12
            + qq * (dd * (2.0 * x + 16.0 * w2) + 8.0 * w2 * x / den),
            pp * d12 - 4.0 * om * pq * (dd + x / den) - qq * x * d12,
            2.0 * om * pp / den + 2.0 * pq * d12 - 2.0 * om * qq * (2.0 * dd + x / den))


def noise_components(kt, chi, om, ints):
    """(G0, Gs, Gc) from the integrals of signal_pair."""
    x = lambda_sq(chi, om)
    i_c, i_s = ints
    den = 0.25 + x
    f0 = (0.5 * (kt - i_c) + x * i_s) / den
    f1 = (kt - i_c - 0.5 * i_s) / den
    tr, t12, y = sandwich(i_c, i_s, x, om, den)
    return (kt + 4.0 * om * om * (2.0 * f0 + f1) / den + 0.5 * tr,
            2.0 * om * (f0 - 2.0 * x * f1) / den - t12,
            y - 2.0 * om * (2.0 * f0 + f1) / den)


def omega_from_r(r):
    e = math.exp(r)
    return 0.25 * 1.0 * (e - 1.0) / (e + 1.0)


def ics_objective(kappa_tau, fix_chi=None):
    """(psi, r) -> (SNR, Gs): the scalar ICS search objective."""
    def scored(psi, r):
        omega = omega_from_r(r)
        lam = 0.5 * math.tan(psi)
        chi = math.sqrt(lam * lam + 4.0 * omega * omega) if fix_chi is None else fix_chi
        ints, up, down = signal_pair(kappa_tau, chi, omega, 1.0, SEARCH_PHI_IN, SEARCH_PHI_H,
                                     0.0)
        g0, gs, _ = noise_components(kappa_tau, chi, omega, ints)
        sep, noise = abs(up - down), 2.0 * g0 - 2.0 * abs(gs)
        return (sep / math.sqrt(noise) if noise > 0 else 0.0), gs

    return scored


# ------------------------------------------------------------------ IES


def integrated_output_mean(tau, chi, alpha_in, phi_in, sigma):
    a_bar = alpha_in * cmath.exp(1j * phi_in)
    z = sigma * chi - 0.5j
    w = -1j * z * tau
    taylor = 1.0
    for m in range(8, 2, -1):
        taylor = 1.0 + w * taylor / m
    series = 0.5j * z * tau * tau * taylor
    bracket = series if abs(w) < 0.005 else tau - (1.0 - cmath.exp(w)) / (1j * z)
    return a_bar * tau + 1j * a_bar / z * bracket


def ies_signal(kt, chi, alpha_in, phi_in, phi_h, sigma):
    j = integrated_output_mean(kt, chi, alpha_in, phi_in, sigma)
    return 2.0 * (j * cmath.exp(-1j * phi_h)).real


def noise_shape(kt, chi):
    psi = math.atan(2.0 * chi)
    ct = chi * kt
    return (1.0 / (2.0 * kt)) * (
        3.0 + 3.0 * math.cos(2.0 * psi) - (3.0 - 2.0 * kt) * math.cos(4.0 * psi)
        - 3.0 * math.cos(6.0 * psi)
        + 4.0 * math.cos(psi) * math.sin(2.0 * psi)
        * (math.exp(-kt) * math.sin(3.0 * psi + 2.0 * ct)
           - 4.0 * math.exp(-kt / 2.0) * math.sin(3.0 * psi + ct)))


def ies_objective(kappa_tau, r_max):
    """psi -> (SNR, r, F): the scalar IES search objective (r_max = 0: standard)."""
    tanh_max = math.tanh(2.0 * r_max)

    def scored(psi):
        chi = 0.5 * math.tan(psi)
        sep = abs(ies_signal(kappa_tau, chi, 1.0, SEARCH_PHI_IN, SEARCH_PHI_H, 1)
                  - ies_signal(kappa_tau, chi, 1.0, SEARCH_PHI_IN, SEARCH_PHI_H, -1))
        shape = noise_shape(kappa_tau, chi)
        f = abs(shape)
        r = r_max if f >= tanh_max else 0.5 * math.atanh(f)
        noise = 2.0 * kappa_tau * (math.cosh(2.0 * r) - f * math.sinh(2.0 * r))
        return sep / math.sqrt(noise), r, shape

    return scored


# ------------------------------------------------------- per-state forms


def stable_squeeze_mix(r, c):
    return math.exp(-2.0 * r) + (1.0 - c) * math.sinh(2.0 * r)


def ies_noise(params, cfg, state):
    p = params.normalized()
    kt = p.tau
    s = int(state)
    psi = s * math.atan(2.0 * p.chi / 1.0)
    ct = s * p.chi * p.tau
    d = cfg.varphi - 2.0 * p.phi_h
    bracket = (3.0 * math.cos(d)
               - (3.0 - 2.0 * kt) * math.cos(4.0 * psi - d)
               + 6.0 * math.sin(2.0 * psi) * math.sin(4.0 * psi - d)
               - 16.0 * math.exp(-kt / 2.0) * math.cos(psi) * math.sin(2.0 * psi)
               * math.sin(3.0 * psi - d + ct)
               + 4.0 * math.exp(-kt) * math.cos(psi) * math.sin(2.0 * psi)
               * math.sin(3.0 * psi - d + 2.0 * ct))
    return kt * stable_squeeze_mix(cfg.r, -0.5 * bracket / kt)


def combined_signal(params, disp, r, theta, state):
    if abs(reduce_angle(2.0 * params.phi_in - theta)) > 1e-9:
        raise ValueError("combined signal requires the tone phase choice 2*phi_in = theta")
    p = params.normalized()
    kt = p.tau
    om = disp.omega_sigma(state) / params.kappa
    psi = disp.psi_sigma(state)
    thp = 2.0 * psi + p.phi_h - p.phi_in
    thm = 2.0 * psi - p.phi_h - p.phi_in
    c2 = math.cos(psi) ** 2
    ch, sh = math.cosh(r), math.sinh(r)
    pref = 2.0 * p.alpha_in * math.exp(r)
    return pref * ((2.0 - kt + 2.0 * math.cos(2.0 * psi))
                   * (math.cos(thp) * ch - math.cos(thm + theta) * sh)
                   - 4.0 * math.exp(-kt / 2.0) * c2
                   * (math.cos(thp + om * kt) * ch - math.cos(thm + theta + om * kt) * sh))


def mismatch_noise(params, disp, r, mismatch, theta, state):
    if abs(reduce_angle(2.0 * params.phi_h - theta)) > 1e-9:
        raise ValueError("mismatched-scheme noise is known only on the squeezed "
                         "quadrature 2*phi_h = theta")
    p = params.normalized()
    kt = p.tau
    r_c = r + mismatch.delta_r
    varphi = theta - math.pi - mismatch.delta_p
    psi = disp.psi_sigma(state)
    om_t = disp.omega_sigma(state) / params.kappa * kt

    r0_term = kt * stable_squeeze_mix(r, -math.cos(varphi - theta))
    r1_term = (8.0 * math.exp(-2.0 * r_c - kt / 2.0) * math.cos(psi) ** 2
               * (math.cosh(kt / 2.0) - math.cos(om_t))
               * (1.0 - math.cosh(2.0 * r_c) * math.cosh(2.0 * r)
                  - math.cos(theta - varphi) * math.sinh(2.0 * r_c) * math.sinh(2.0 * r)))

    def ang(n):
        return n * psi + theta - mismatch.phi0

    r2_term = (math.exp(-2.0 * r_c - kt) * math.sinh(2.0 * mismatch.r0) * math.cos(psi)
               * (math.exp(kt) * ((1.0 - 2.0 * kt) * math.cos(ang(1))
                                  - 2.0 * (1.0 - kt) * math.cos(ang(3))
                                  - 3.0 * math.cos(ang(5)))
                  + 8.0 * math.exp(kt / 2.0) * math.cos(psi) * math.cos(ang(4) + om_t)
                  - 4.0 * math.cos(psi) ** 2 * math.cos(ang(3) + 2.0 * om_t)))
    return r0_term + r1_term + r2_term


def perp_separation(kt, psi_up, psi_down, phase_up, phase_down):
    return ((2.0 - kt + 2.0 * math.cos(2 * psi_down)) * math.sin(2 * psi_down)
            - (2.0 - kt + 2.0 * math.cos(2 * psi_up)) * math.sin(2 * psi_up)
            - math.exp(-kt / 2.0)
            * (math.sin(phase_down) + 2.0 * math.sin(2 * psi_down + phase_down)
               + math.sin(4 * psi_down + phase_down)
               - 4.0 * math.cos(psi_up) ** 2 * math.sin(2 * psi_up + phase_up)))


def separation_components(params, disp, r):
    up, down = (combined_signal(params.with_(phi_h=0.0, phi_in=0.0), disp, r, 0.0, s)
                for s in (1, -1))
    p = params.normalized()
    perp = 2.0 * p.alpha_in * perp_separation(p.tau, disp.psi_sigma_up, disp.psi_sigma_down,
                                              disp.omega_sigma_up / params.kappa * p.tau,
                                              disp.omega_sigma_down / params.kappa * p.tau)
    return abs(up - down), math.exp(2.0 * r) * abs(perp)


def bisect(f, lo, hi, tol):
    """Bracketed bisection that evaluates both ends of its bracket first."""
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
        raise ValueError("no bracket")
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
