"""The ICS, IES and mismatched combined closed forms judged against 60-digit references.

mp_reference evaluates the paper's complex-arithmetic closed forms in mpmath,
and the mismatched combined budget and noise as the paper writes them.
sqreadout evaluates real-valued forms of the ICS ones; the float results are
compared with the references, and the same sqreadout source run on mpmath
numbers shows that the two forms are the same functions.  Where a compared
value can fall below ~1e-12, the test states its absolute floor.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from sqreadout import combined, figures, ics, ies, oracle
from sqreadout.core import QubitState, ReadoutParams

import mp_reference as ref

LN10 = math.log(10.0)


def rel_err(got, want):
    return float(abs(got - want) / abs(want))


def ics_point(kt, chi, omega, alpha_in=1.0, phi_in=0.0, phi_h=math.pi / 2.0, theta=0.0):
    return ReadoutParams(1.0, chi, alpha_in, phi_in, phi_h, kt), ics.IcsConfig(omega, theta)


def stable_points(seed, n):
    """Seeded stable ICS points: kappa*tau in [1e-2, 1e2], |lambda| < 0.48 kappa."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield ics_point(10 ** rng.uniform(-2, 2), rng.uniform(0.0, 1.5), rng.uniform(0.0, 0.24),
                        rng.uniform(0.3, 2.0), *rng.uniform(-math.pi, math.pi, 3))


class TestIcsFloatAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_stable_points(self, seed):
        for p, cfg in stable_points(seed, 25):
            kt, chi, om, th = p.tau, p.chi, cfg.omega_2ph, cfg.theta
            m = ics.ics_moments(p, cfg)
            for s in QubitState:
                signal, noise = m.of(s)
                assert noise == pytest.approx(
                    float(ref.ics_noise(kt, chi, om, p.phi_h, th, int(s))), rel=1e-9)
                # the means pass through zero with the phases: 1e-12 absolute floor
                assert signal == pytest.approx(float(ref.ics_signal(
                    kt, chi, om, p.alpha_in, p.phi_in, p.phi_h, th, int(s))), rel=1e-9, abs=1e-12)
                assert ics.ics_mean_field(p, cfg, s, kt) == pytest.approx(complex(
                    ref.ics_mean_field(chi, om, p.alpha_in, p.phi_in, th, int(s), kt)),
                    rel=1e-9, abs=1e-12)
            assert ics.ics_photon_number(p, cfg, kt) == pytest.approx(
                float(ref.ics_photon_number(chi, om, p.alpha_in, p.phi_in, th, kt)), rel=1e-9)

    @pytest.mark.parametrize("decade", range(2, 10))
    def test_noise_across_lambda_decades(self, decade):
        # real and imaginary lambda of size 10^-decade kappa, down to 1e-9 kappa
        rng = np.random.default_rng(100 + decade)
        for i in range(20):
            om, kt = rng.uniform(0.02, 0.2), 10 ** rng.uniform(-2, 2)
            lam2 = (-1) ** i * (rng.uniform(1.0, 10.0) * 10.0 ** -decade) ** 2
            p, cfg = ics_point(kt, math.sqrt(4.0 * om * om + lam2), om,
                               phi_h=rng.uniform(-math.pi, math.pi),
                               theta=rng.uniform(-math.pi, math.pi))
            m = ics.ics_moments(p, cfg)
            for s in QubitState:
                assert m.of(s)[1] == pytest.approx(float(ref.ics_noise(
                    kt, p.chi, om, p.phi_h, cfg.theta, int(s))), rel=1e-9), (decade, i, s)

    def test_exceptional_point(self):
        # chi = 2 Omega: lambda = 0 exactly in floats, and the limit is regular
        p, cfg = ics_point(1.0, 0.2, 0.1)
        assert ics.ics_lambda(p.chi, cfg.omega_2ph) == 0.0
        up = ics.ics_moments(p, cfg).noise_up
        assert up == pytest.approx(1.25557864538, rel=1e-9)
        assert up == pytest.approx(float(ref.ics_noise(1.0, 0.2, 0.1, p.phi_h, 0.0, 1)), rel=1e-12)

    @pytest.mark.parametrize("kt, printed", [(1e-4, (1.25016249081, 1.25003749498)),
                                             (0.01, (12562.2754289, 12437.6918334))])
    def test_near_threshold(self, kt, printed):
        # 4 Omega within 4e-9 of kappa at chi = kappa/2, where threshold and the
        # exceptional point meet: cosh r ~ 2.5e8 multiplies O(kappa tau^2) terms
        p, cfg = ics_point(kt, 0.5, 0.25 - 1e-9)
        m = ics.ics_moments(p, cfg)
        for s, value in zip(QubitState, printed):
            got = m.of(s)[1]
            assert got == pytest.approx(value, rel=1e-9)
            assert got == pytest.approx(float(ref.ics_noise(kt, 0.5, 0.25 - 1e-9, p.phi_h, 0.0,
                                                            int(s))), rel=1e-9)

    # (Omega, kappa*tau, noise) of the near-threshold ICS point ics[0] of the
    # oracle_check benchmark workload at seeds 0, 1 and 2
    ORACLE_POINTS = [(0.249999999, 0.015848931924611134, 0.991),
                     (0.24999999970747103, 0.015848931924611134, 3.35),
                     (0.2499999995530223, 0.019552705289981105, 5.06)]

    @pytest.mark.parametrize("omega, kt, noise", ORACLE_POINTS, ids=["seed0", "seed1", "seed2"])
    def test_oracle_workload_near_threshold_points(self, omega, kt, noise):
        p = ReadoutParams(1.0, 0.5, 1.0, 0.0, math.pi / 2.0, kt)
        cfg = ics.IcsConfig(omega, ics.optimal_theta(p, omega))
        m = ics.ics_moments(p, cfg)
        for s, got in zip(QubitState, (m.noise_up, m.noise_down)):
            assert got == pytest.approx(noise, rel=3e-3)
            assert got == pytest.approx(float(ref.ics_noise(kt, 0.5, omega, p.phi_h, cfg.theta,
                                                            int(s))), rel=1e-9)
        assert oracle.oracle_check(p, cfg, m, steps=4096)["passed"]


class TestIcsInitialCorrelationsNearThreshold:
    """The stationary moments 8 Omega^2/den and 2 kappa Omega/den as 4 Omega -> kappa."""

    @pytest.mark.parametrize("gap", [1e-9, 1e-6])
    def test_against_50_digits(self, gap):
        # den = kappa^2 - 16 Omega^2 unfactored is 2.0e-9 off at gap 1e-9
        omega = 0.25 - gap
        n0, m0 = ics.ics_initial_correlations(1.0, ics.IcsConfig(omega, 0.7))
        with mp.workdps(50):
            om = mp.mpf(omega)
            den = 1 - 16 * om ** 2
            assert rel_err(n0, 8 * om ** 2 / den) < 1e-15
            assert rel_err(abs(m0), 2 * om / den) < 1e-15


class TestIcsRealFormsInMpmath:
    """sqreadout's real-valued ICS forms run on mpmath numbers equal the references: the
    pair kernel and the mean field run _state_parts, the one spelling floats run too."""

    POINTS = [(0.01, 0.5, 0.15), (1.0, 0.2, 0.1), (1.0, 0.2, 0.15), (3.0, 1.3, 0.05),
              (100.0, 0.0, 0.24), (0.3, 0.7, 0.2)]

    @pytest.mark.parametrize("kt, chi, om", POINTS)
    def test_same_functions(self, kt, chi, om):
        a, phi_in, phi_h, theta = 1.3, 0.4, 1.1, -0.7
        with mp.workdps(ref.DPS):
            kt_, chi_, om_, a_, pin_, ph_, th_ = map(mp.mpf, (kt, chi, om, a, phi_in, phi_h,
                                                                theta))
            # one pair-kernel call gives both means and the noise decomposition
            up, down, *noise = ics._pair_kernel(kt_, a_, pin_, ph_, th_, mp)(chi_, om_)
            for got, want in zip(noise, ref.ics_noise_components(kt, chi, om)):
                assert rel_err(got, want) < 1e-40
            for s, mean in ((1, up), (-1, down)):
                assert rel_err(mean,
                               ref.ics_signal(kt, chi, om, a, phi_in, phi_h, theta, s)) < 1e-40
                assert rel_err(ics._mean_field(kt_, chi_, om_, a_, pin_, th_, s, mp),
                               ref.ics_mean_field(chi, om, a, phi_in, theta, s, kt)) < 1e-40
            n = (ics._photon_fluctuation(kt_, chi_, om_, mp)
                 + abs(ics._mean_field(kt_, chi_, om_, a_, pin_, th_, 1, mp)) ** 2)
            assert rel_err(n, ref.ics_photon_number(chi, om, a, phi_in, theta, kt)) < 1e-40


class TestIesShortTimeSignal:
    def test_gap_point(self):
        # chi = kappa/2, phi_h - phi_in = -pi/2: the O(tau^2) part of each mean
        # cancels and <M> ~ -(kappa tau)^3 / 6
        got = ies.ies_signal(ReadoutParams(1.0, 0.5, 1.0, math.pi / 2.0, 0.0, 1e-4),
                             QubitState.UP)
        want = ref.ies_signal(1e-4, 0.5, 1.0, math.pi / 2.0, 0.0, 1)
        assert got == pytest.approx(-1.666625e-13, rel=1e-6)
        assert rel_err(got, want) < 1e-9

    @pytest.mark.parametrize("kt", [1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0])
    def test_against_reference(self, kt):
        rng = np.random.default_rng(7)
        for chi in (0.05, 0.5, 2.0):
            phi_in, phi_h = rng.uniform(-math.pi, math.pi, 2)
            for s in QubitState:
                got = ies.ies_signal(ReadoutParams(1.0, chi, 1.0, phi_in, phi_h, kt), s)
                assert rel_err(got, ref.ies_signal(kt, chi, 1.0, phi_in, phi_h, int(s))) < 1e-12


def mismatches(rng, n):
    """0, +-U(0, 0.2) or +-10^U(-8, -1), a third each."""
    kind, sign = rng.integers(0, 3, n), rng.choice([-1.0, 1.0], n)
    size = np.where(kind == 1, rng.uniform(0.0, 0.2, n), 10 ** rng.uniform(-8.0, -1.0, n))
    return np.where(kind == 0, 0.0, sign * size).tolist()


class TestMismatchAgainstReference:
    """The combined scheme's input budget (N, M) and mismatched noise R0 + R1 + R2 against
    the paper's forms, whose O(cosh^2 2r) sums and factors e^{kt} float arithmetic cannot hold."""

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, LN10])
    def test_budget_exactly_zero_when_matched(self, r):
        for theta in (0.0, 0.7, -2.5, math.pi):
            n, m = combined.input_noise_budget(r, r, theta, 0.0)
            assert (n, m) == (0.0, 0j) and type(n) is float and type(m) is complex
        mm = combined.MismatchParams.derive(r, 0.7, 0.0, 0.0)
        assert (mm.n_thermal, mm.m_corr, mm.r0, mm.phi0) == (0.0, 0j, 0.0, 0.0)

    def test_budget_against_60_digits(self):
        rng = np.random.default_rng(29)
        n = 2000
        r = rng.uniform(0.0, LN10, n).tolist()
        theta = rng.uniform(-math.pi, math.pi, n).tolist()
        for sq, dr, dp, th in zip(r, mismatches(rng, n), mismatches(rng, n), theta):
            r_c = max(sq + dr, 0.0)
            got_n, got_m = combined.input_noise_budget(r_c, sq, th, dp)
            if r_c == sq and dp == 0.0:
                assert (got_n, got_m) == (0.0, 0j)
                continue
            want_n, want_m = ref.input_noise_budget(r_c, sq, th, dp)
            assert rel_err(got_n, want_n) < 1e-14, (r_c, sq, th, dp)
            assert rel_err(got_m, want_m) < 1e-14, (r_c, sq, th, dp)

    @pytest.mark.parametrize("kt", figures.kappa_tau_grid()
                             + [300.0, 700.0, 710.0, 800.0, 1500.0, 1e4])
    def test_noise_against_60_digits(self, kt):
        # finite where the paper's e^{-2r_c - kt} e^{kt} leaves the float range (kt > 709.78)
        for dr, dp in ((0.1, 0.1), (0.1, 0.05), (0.1, 0.01), (0.0, 0.05), (0.2, 0.05),
                       (0.1, 0.0), (0.1, 0.2), (-0.1, -0.05), (1e-6, 1e-6)):
            cfg = combined.CombinedConfig(r=LN10, delta_r=dr, delta_p=dp)
            p, cfg = cfg.operating_point(ReadoutParams(1.0, 0.5, 1.0, 0.0, 0.0, kt))
            disp = cfg.dispersive(p)
            m = cfg.moments(p)
            for s in QubitState:
                want = ref.mismatch_noise(kt, disp.omega_sigma(s), disp.psi_sigma(s), LN10,
                                          LN10 + dr, 0.0, dp)
                assert rel_err(m.of(s)[1], want) < 1e-12, (kt, dr, dp, s)
