"""The pair forms give the bits of the per-state forms they replaced.

reference_forms keeps the combined signal and mismatch noise, the IES noise,
separation_components and bisect as written when each qubit state was its own
call and the omega_sq bisection evaluated its bracket ends again.  The pair
forms compute the factors both states share once and then run the same float
operations per state, so every output is compared with float.hex.  The one
exception is the mismatch noise, which now reads the exact input budget and keeps
no factor that grows with kappa*tau: it is compared at 1e-12 with the per-state
form, and with 60 digits where that form overflows.
"""

import math

import numpy as np
import pytest

from sqreadout import combined, figures, ies
from sqreadout.core import DegenerateNoiseError, MeasurementMoments, QubitState, ReadoutParams

import mp_reference
import reference_forms as ref

N_POINTS = 20_000
LN10 = math.log(10.0)


def hexes(values):
    return [float(v).hex() for v in values]


def outcome(values):
    """The bits of values(), or the error it raises, which must stay the same: some
    mismatched points give a negative noise, which MeasurementMoments rejects."""
    try:
        return hexes(values())
    except DegenerateNoiseError as exc:
        return repr(exc)


def phases(rng, n):
    """Phases in (-pi, pi], one in five on 0, +-pi/2 or pi."""
    draw = rng.uniform(-math.pi, math.pi, n)
    special = rng.choice([0.0, math.pi / 2.0, -math.pi / 2.0, math.pi], n)
    return np.where(rng.uniform(size=n) < 0.2, special, draw).tolist()


def base_points(rng, n):
    """(kappa, kappa*tau, chi, alpha_in, r): kappa*tau in [1e-3, 1e3], chi in [0.05, 2] kappa,
    r in [0, ln 10] (one in ten exactly 0 or ln 10)."""
    kappa = rng.choice([0.5, 1.0, 3.0], n)
    kt = 10 ** rng.uniform(-3.0, 3.0, n)
    chi = rng.uniform(0.05, 2.0, n) * kappa
    alpha = np.where(rng.uniform(size=n) < 0.05, 0.0, rng.uniform(0.1, 3.0, n))
    r = np.select([rng.uniform(size=n) < 0.05, rng.uniform(size=n) < 0.05], [0.0, LN10],
                  rng.uniform(0.0, LN10, n))
    return kappa.tolist(), kt.tolist(), chi.tolist(), alpha.tolist(), r.tolist()


def combined_points(seed, n):
    """(kappa, kappa*tau, chi, alpha_in, r, delta_r, delta_p, theta, omega_sq, epsilon): a quarter
    matched, a quarter with one of delta_r, delta_p zero, the rest both in [-0.2, 0.2], with
    r + delta_r >= 0; omega_sq in [0.1, 100] kappa."""
    rng = np.random.default_rng(seed)
    kappa, kt, chi, alpha, r = base_points(rng, n)
    kind = np.arange(n) % 4
    dr = np.maximum(rng.uniform(-0.2, 0.2, n), -np.array(r))
    dp = rng.uniform(-0.2, 0.2, n)
    dr = np.where((kind == 0) | (kind == 1), 0.0, dr)
    dp = np.where((kind == 0) | (kind == 2), 0.0, dp)
    omega = 10 ** rng.uniform(-1.0, 2.0, n) * np.array(kappa)
    eps = rng.choice([0.01, 0.05, 0.1, 0.2], n)
    return list(zip(kappa, kt, chi, alpha, r, dr.tolist(), dp.tolist(), phases(rng, n),
                    omega.tolist(), eps.tolist()))


def operating(kappa, kt, chi, alpha, theta, phi_h, half_turn):
    """Params with 2 phi_in = theta (phi_in shifted by pi every other point) and phi_h as given."""
    phi_in = theta / 2.0 + (math.pi if half_turn else 0.0)
    return ReadoutParams(kappa, chi, alpha, phi_in, phi_h, kt / kappa)


def checked_noise_pair(p, disp, r, mm, theta, point):
    """The mismatch noise of both states, each within 1e-12 of the per-state form where that
    is finite, and judged at 60 digits where it is not: there it must be finite and within
    1e-12.  Where the two forms differ by more than 1e-12 (at kappa*tau ~ 500, R0 and R2 can
    cancel to 1/300 of R0), the pair form must be the closer to 60 digits.  Returns the noises
    and how many were judged at 60 digits."""
    got = list(combined._mismatch_noise_pair(p, disp, r, mm, theta))
    try:
        want = [ref.mismatch_noise(p, disp, r, mm, theta, s) for s in QubitState]
    except OverflowError:       # e^{kappa tau} above kappa*tau = 709.78
        want = [math.inf, math.inf]
    judged = 0
    for s, g, w in zip(QubitState, got, want):
        if math.isfinite(w) and abs(g - w) <= 1e-12 * abs(w):
            continue
        exact = mp_reference.mismatch_noise(p.kappa_tau, disp.omega_sigma(s) / p.kappa,
                                            disp.psi_sigma(s), r, r + mm.delta_r, theta,
                                            mm.delta_p)
        if math.isfinite(w):
            assert abs(g - exact) < abs(w - exact), point
        else:
            assert abs(g - exact) <= 1e-12 * abs(exact), point
            judged += 1
    return got, judged


class TestCombinedPairs:
    def test_points_cover_the_domain(self):
        points = combined_points(0, N_POINTS)
        matched = sum(dr == 0.0 and dp == 0.0 for _, _, _, _, _, dr, dp, *_ in points)
        assert N_POINTS // 4 <= matched < N_POINTS // 3
        assert all(r + dr >= 0.0 for _, _, _, _, r, dr, *_ in points)
        assert min(p[1] for p in points) < 2e-3 and max(p[1] for p in points) > 500.0

    def test_signal_same_bits_as_the_per_state_form(self):
        rng = np.random.default_rng(1)
        phis = phases(rng, N_POINTS)
        for i, (kappa, kt, chi, alpha, r, dr, dp, theta, omega, eps) in enumerate(
                combined_points(1, N_POINTS)):
            p = operating(kappa, kt, chi, alpha, theta, phis[i], i % 2)
            disp = combined.DispersiveParams.derive(kappa, chi, r + dr, omega, eps)
            want = [ref.combined_signal(p, disp, r + dr, theta, s) for s in QubitState]
            got = combined._signal_pair(p, disp, r + dr, theta)
            assert hexes(got) == hexes(want), (p, r, dr, theta, omega, eps)

    def test_mismatch_noise_matches_the_per_state_form(self):
        judged = 0
        for i, point in enumerate(combined_points(2, N_POINTS)):
            kappa, kt, chi, alpha, r, dr, dp, theta, omega, eps = point
            p = operating(kappa, kt, chi, alpha, theta, theta / 2.0, i % 2)
            disp = combined.DispersiveParams.derive(kappa, chi, r + dr, omega, eps)
            mm = combined.MismatchParams.derive(r, theta, dr, dp)
            judged += checked_noise_pair(p, disp, r, mm, theta, point)[1]
        # 946 noises at this seed lie where the per-state form leaves the float range
        assert judged >= 900

    def test_moments_match_the_per_state_forms(self):
        judged = 0
        for point in combined_points(3, N_POINTS):
            kappa, kt, chi, alpha, r, dr, dp, theta, omega, eps = point
            cfg = combined.CombinedConfig(r=r, theta=theta, omega_sq=omega, epsilon=eps,
                                          delta_r=dr, delta_p=dp)
            p, cfg = cfg.operating_point(ReadoutParams(kappa, chi, alpha, 0.0, 0.0, kt / kappa))
            disp = cfg.dispersive(p)
            signals = [ref.combined_signal(p, disp, cfg.r_c, cfg.theta, s) for s in QubitState]
            if cfg.matched:
                noises = [combined.combined_noise(p, r, cfg.theta)] * 2
            else:
                mm = combined.MismatchParams.derive(r, cfg.theta, dr, cfg.delta_p)
                noises, n = checked_noise_pair(p, disp, r, mm, cfg.theta, point)
                judged += n
            # a negative noise is rejected; the others are the pair forms' bits
            want = outcome(lambda: MeasurementMoments(*signals, *noises)._values())
            assert outcome(lambda: cfg.moments(p)._values()) == want, (p, cfg)
        assert judged >= 700      # 763 at this seed

    def test_separation_components_same_bits(self):
        rng = np.random.default_rng(4)
        phis = phases(rng, 2 * N_POINTS)
        for i, (kappa, kt, chi, alpha, r, dr, _, _, omega, eps) in enumerate(
                combined_points(4, N_POINTS)):
            p = ReadoutParams(kappa, chi, alpha, phis[2 * i], phis[2 * i + 1], kt / kappa)
            disp = combined.DispersiveParams.derive(kappa, chi, r + dr, omega, eps)
            got = combined.separation_components(p, disp, r + dr)
            assert hexes(got) == hexes(ref.separation_components(p, disp, r + dr)), (p, r, omega)

    def test_phase_checks_raise_as_before(self):
        p = ReadoutParams(1.0, 0.5, 1.0, 0.3, 0.1, 1.0)
        disp = combined.DispersiveParams.derive(1.0, 0.5, LN10, 5.0, 0.05)
        mm = combined.MismatchParams.derive(LN10, 0.0, 0.1, 0.05)
        with pytest.raises(ValueError, match="2\\*phi_in = theta"):
            combined._signal_pair(p, disp, LN10, 0.0)
        with pytest.raises(ValueError, match="squeezed quadrature 2\\*phi_h = theta"):
            combined._mismatch_noise_pair(p, disp, LN10, mm, 0.0)


class TestIesNoisePair:
    def test_same_bits_as_the_per_state_form(self):
        rng = np.random.default_rng(5)
        kappa, kt, chi, alpha, r = base_points(rng, N_POINTS)
        chi = np.where(rng.uniform(size=N_POINTS) < 0.1, -np.array(chi), chi).tolist()
        varphi, phi_h, phi_in = phases(rng, N_POINTS), phases(rng, N_POINTS), phases(rng, N_POINTS)
        for point in zip(kappa, kt, chi, alpha, r, varphi, phi_h, phi_in):
            k, t, c, a, sq, vp, ph, pi = point
            p = ReadoutParams(k, c, a, pi, ph, t / k)
            cfg = ies.IesConfig(sq, vp)
            want = [ref.ies_noise(p, cfg, s) for s in QubitState]
            assert hexes(ies._noise_pair(p.normalized(), cfg)) == hexes(want), point
            assert hexes(cfg.moments(p)._values()[2:]) == hexes(want), point


class TestOmegaSqBisection:
    def test_root_is_the_per_state_bisection_of_the_walk_bracket(self, monkeypatch):
        # the bisection starts from the walk's (a, f(a), b); the per-state bisect, which
        # evaluates a and b again, gives the same root on the same bracket
        real, brackets = combined._bisect_bracket, []

        def compared(f, a, fa, b, tol):
            root = real(f, a, fa, b, tol)
            brackets.append(b)
            assert f(a) == fa
            assert root == ref.bisect(f, a, b, tol), (a, b, tol)
            return root

        monkeypatch.setattr(combined, "_bisect_bracket", compared)
        rng = np.random.default_rng(6)
        kappa, kt, chi, alpha, r = base_points(rng, N_POINTS)
        eps = rng.choice([0.01, 0.05, 0.1, 0.2], N_POINTS).tolist()
        for k, t, c, a, sq, e in zip(kappa, kt, chi, alpha, r, eps):
            combined.solve_omega_sq(ReadoutParams(k, c, a, 0.0, 0.0, t / k), sq, e)
        # only a silent tone (alpha_in = 0) makes the walk start on an exact zero
        assert len(brackets) == sum(a > 0 for a in alpha) > 0.9 * N_POINTS


class TestFig2aCurves:
    def test_values_are_the_pointwise_coupling(self):
        rows = figures.fig2a_rows()
        assert len(rows) == 201
        for row in rows:
            w = row["omega_sq_over_kappa"]
            for eps, tag in ((0.1, "enhancement_eps_0_1"), (0.05, "enhancement_eps_0_05")):
                want = combined.chi_sq(figures.CHI_DEFAULT / eps, figures.R_DEFAULT, w, eps)
                assert row[tag] == want / figures.CHI_DEFAULT
