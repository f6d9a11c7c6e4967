"""Sixty-digit references for the ICS, IES and mismatched combined closed forms.

Each function transcribes the complex-arithmetic closed form of the paper's
supplemental material (the form sqreadout evaluated before its ICS forms were
rewritten as real functions of lambda^2) and evaluates it in mpmath.  At 60
digits; lambda = 0 itself is replaced by LAMBDA_ZERO.  The cot(psi)
groupings multiply a cancelling difference by cot^2 psi = kappa^2/(4 lambda^2),
which costs up to 2 log10(kappa/|lambda|) digits, 50 at LAMBDA_ZERO, so the
forms that hold them work with GUARD more digits.

All functions work at kappa = 1 and return mpmath numbers; callers compare
them with float results after float().
"""

from __future__ import annotations

import mpmath as mp

DPS = 60
GUARD = 60
LAMBDA_ZERO = mp.mpf("1e-25")


def _lam(chi, om):
    lam = mp.sqrt(mp.mpc(mp.mpf(chi) ** 2 - 4 * mp.mpf(om) ** 2))
    return mp.mpc(LAMBDA_ZERO) if lam == 0 else lam


def _mean_field_terms(chi, om, alpha_in, phi_in, theta, sigma):
    lam = _lam(chi, om)
    om, chi = mp.mpf(om), mp.mpf(chi)
    pref = 2 * mp.mpf(alpha_in) / (1 + 4 * lam * lam)
    e_in = mp.expj(mp.mpf(phi_in))
    e_out = mp.expj(mp.mpf(theta) - mp.mpf(phi_in))
    t0 = 4j * om * e_out - (1 - 2j * sigma * chi) * e_in
    ts = -((2 * lam * lam + 1j * sigma * chi) * e_in + 2j * om * e_out)
    tc = (1 - 2j * sigma * chi) * e_in - 4j * om * e_out
    return lam, pref, t0, ts, tc


def ics_mean_field(chi, om, alpha_in, phi_in, theta, sigma, t):
    """<a(t)> at kappa = 1 from <a(0)> = 0."""
    with mp.workdps(DPS):
        t = mp.mpf(t)
        lam, pref, t0, ts, tc = _mean_field_terms(chi, om, alpha_in, phi_in, theta, sigma)
        decay = mp.exp(-t / 2)
        return pref * (t0 + ts / lam * mp.sin(lam * t) * decay + tc * mp.cos(lam * t) * decay)


def ics_signal(kt, chi, om, alpha_in, phi_in, phi_h, theta, sigma):
    """Mean homodyne record <M> at kappa = 1."""
    with mp.workdps(DPS):
        tau = mp.mpf(kt)
        lam, pref, t0, ts, tc = _mean_field_terms(chi, om, alpha_in, phi_in, theta, sigma)
        den = lam * lam + mp.mpf(1) / 4
        decay = mp.exp(-tau / 2)
        int_s = (1 - decay * (mp.cos(lam * tau) + mp.sin(lam * tau) / (2 * lam))) / den
        int_c = (mp.mpf(1) / 2 + decay * (lam * mp.sin(lam * tau) - mp.cos(lam * tau) / 2)) / den
        a_bar = mp.mpf(alpha_in) * mp.expj(mp.mpf(phi_in))
        j = a_bar * tau + pref * (t0 * tau + ts * int_s + tc * int_c)
        return 2 * mp.re(j * mp.expj(-mp.mpf(phi_h)))


def ics_noise_components(kt, chi, om):
    """(G0, Gs, Gc) at kappa = 1: <M_N^2> = G0 - sin(d) Gs + sigma chi cos(d) Gc."""
    with mp.workdps(DPS + GUARD):
        kt, om = mp.mpf(kt), mp.mpf(om)
        lam = _lam(chi, om)
        psi = mp.atan(2 * lam)
        r = mp.log((1 + 4 * om) / (1 - 4 * om))
        lt = lam * kt
        cs, sn = mp.cos, mp.sin
        cot = cs(psi) / sn(psi)
        th2 = mp.tanh(r / 2)
        ch = mp.cosh(r)
        ekt = mp.exp(-kt)
        ek2 = mp.exp(-kt / 2)
        g0 = (kt / 2 * (1 + ch + (5 + 8 * cs(2 * psi) + 2 * cs(4 * psi) - ch) * th2 ** 2)
              - 2 * cs(psi) ** 2 * (5 + 3 * cs(4 * psi) + cs(2 * psi) * (9 - 2 * ch)
                                    - 3 * ch) * th2 ** 2
              - ekt * (2 - cs(2 * psi + 2 * lt) - cs(4 * psi + 2 * lt))
              * (cs(2 * psi) - ch) * cot ** 2 * th2 ** 2
              - 8 * ek2 * cs(psi) ** 2 * th2 ** 2 * (
                  (cs(lt) - cot * sn(4 * psi + lt)) * mp.cosh(r / 2) ** 2
                  + 4 * cs(psi) ** 2 * cot * sn(2 * psi + lt) * mp.sinh(r / 2) ** 2))
        gs = (2 * cs(psi) ** 2 * (-1 - 3 * cs(4 * psi) + ch
                                  + cs(2 * psi) * (-3 + 2 * kt + 2 * ch)) * th2
              - 2 * ekt * cs(psi) * cot * sn(3 * psi + 2 * lt) * (cs(2 * psi) - ch) * th2
              - 4 * ek2 * cs(psi) * cot * (sn(3 * psi + lt) * mp.sinh(r)
                                           - 2 * cs(psi) * sn(4 * psi + lt) * th2))
        gc = (8 * cs(psi) ** 4 * (3 - 2 * kt + 6 * cs(2 * psi) - 2 * ch) * th2
              - 16 * ek2 * cs(psi) ** 4 * cot * (
                  mp.sinh(r) / 2 / cs(psi) ** 2 * sn(4 * psi + lt)
                  - 4 * mp.sinh(r / 2) ** 2 * th2 * sn(2 * psi + lt))
              + 8 * ekt * cs(psi) ** 2 * mp.sinh(r / 2) * (
                  cs(psi) * cs(3 * psi + 2 * lt) * mp.cosh(r / 2)
                  - (1 - cs(psi) * cs(3 * psi + 2 * lt)) * cot ** 2
                  * mp.sinh(r / 2) * th2))
        return mp.re(g0), mp.re(gs), mp.re(gc)


def ics_noise(kt, chi, om, phi_h, theta, sigma):
    with mp.workdps(DPS):
        g0, gs, gc = ics_noise_components(kt, chi, om)
        d = 2 * mp.mpf(phi_h) - mp.mpf(theta)
        return g0 - mp.sin(d) * gs + sigma * mp.mpf(chi) * mp.cos(d) * gc


def ics_photon_number(chi, om, alpha_in, phi_in, theta, t):
    """Intracavity photon number n(t) at kappa = 1 (qubit up)."""
    with mp.workdps(DPS + GUARD):
        t, om = mp.mpf(t), mp.mpf(om)
        lam = _lam(chi, om)
        psi = mp.atan(2 * lam)
        r = mp.log((1 + 4 * om) / (1 - 4 * om))
        lt = lam * t
        q0 = ((2 - mp.cos(2 * lt) - mp.cos(2 * psi + 2 * lt))
              * (mp.cos(2 * psi) - mp.cosh(r)) / mp.sin(psi) ** 2)
        fluct = mp.re((4 * mp.cos(psi) ** 2 - mp.exp(-t) * q0) * mp.tanh(r / 2) ** 2 / 8)
        mean = ics_mean_field(chi, om, alpha_in, phi_in, theta, 1, t)
        return fluct + abs(mean) ** 2


def ies_signal(kt, chi, alpha_in, phi_in, phi_h, sigma):
    """Mean homodyne record <M> of the injected-squeezing readout at kappa = 1."""
    with mp.workdps(DPS):
        tau = mp.mpf(kt)
        a_bar = mp.mpf(alpha_in) * mp.expj(mp.mpf(phi_in))
        z = sigma * mp.mpf(chi) - 0.5j
        cavity = 1j * a_bar / z * (tau - (1 - mp.exp(-1j * z * tau)) / (1j * z))
        return 2 * mp.re((a_bar * tau + cavity) * mp.expj(-mp.mpf(phi_h)))


def input_noise_budget(r_c, r, theta, delta_p):
    """(N, M) of the combined scheme's Bogoliubov-mode input as the paper writes them, sums of
    O(cosh^2 2r) terms in theta and varphi = theta - pi - delta_p that cancel at the matched
    point (to ~1e-57 here, not to exact zeros)."""
    with mp.workdps(DPS):
        r_c, r, theta = mp.mpf(r_c), mp.mpf(r), mp.mpf(theta)
        varphi = theta - mp.pi - mp.mpf(delta_p)
        chc, shc, ch, sh = mp.cosh(r_c), mp.sinh(r_c), mp.cosh(r), mp.sinh(r)
        n = (chc ** 2 * sh ** 2 + shc ** 2 * ch ** 2
             + mp.cos(theta - varphi) * mp.sinh(2 * r_c) * mp.sinh(2 * r) / 2)
        m = (mp.expj(varphi) * chc ** 2 * mp.sinh(2 * r)
             + mp.expj(theta) * mp.sinh(2 * r_c) * (sh ** 2 + ch ** 2)
             + mp.expj(2 * theta - varphi) * shc ** 2 * mp.sinh(2 * r)) / 2
        return n, m


def mismatch_noise(kt, omega, psi, r, r_c, theta, delta_p):
    """R0 + R1 + R2 of the mismatched combined scheme at kappa = 1 on the squeezed quadrature
    2 phi_h = theta, for a qubit state of frequency omega and angle psi, as the paper writes
    it: R1 mixes by 1 - cosh 2r_c cosh 2r - cos(theta - varphi) sinh 2r_c sinh 2r and R2 has
    the squeeze r0 and phase phi0 of the budget above, with the factors
    e^{-2r_c - kt/2} cosh(kt/2) and e^{-2r_c - kt} e^{kt} that overflow a float."""
    with mp.workdps(DPS):
        kt, om, psi, r, r_c, theta = (mp.mpf(x) for x in (kt, omega, psi, r, r_c, theta))
        varphi = theta - mp.pi - mp.mpf(delta_p)
        _, m = input_noise_budget(r_c, r, theta, delta_p)
        r0, phi0 = mp.asinh(2 * abs(m)) / 2, mp.arg(m)
        om_t, c = om * kt, mp.cos(psi)

        def ang(n):
            return n * psi + theta - phi0
        r0_term = kt * (mp.cosh(2 * r) + mp.cos(varphi - theta) * mp.sinh(2 * r))
        r1_term = (8 * mp.exp(-2 * r_c - kt / 2) * c ** 2 * (mp.cosh(kt / 2) - mp.cos(om_t))
                   * (1 - mp.cosh(2 * r_c) * mp.cosh(2 * r)
                      - mp.cos(theta - varphi) * mp.sinh(2 * r_c) * mp.sinh(2 * r)))
        r2_term = (mp.exp(-2 * r_c - kt) * mp.sinh(2 * r0) * c
                   * (mp.exp(kt) * ((1 - 2 * kt) * mp.cos(ang(1)) - 2 * (1 - kt) * mp.cos(ang(3))
                                    - 3 * mp.cos(ang(5)))
                      + 8 * mp.exp(kt / 2) * c * mp.cos(ang(4) + om_t)
                      - 4 * c ** 2 * mp.cos(ang(3) + 2 * om_t)))
        return r0_term + r1_term + r2_term
