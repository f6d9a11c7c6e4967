import cmath
import math

import numpy as np
import pytest

from sqreadout.core import QubitState, ReadoutParams, StabilityError
from sqreadout import ics, ies, oracle
from sqreadout.core import standard_readout_moments

import mp_reference
import reference_forms


def make_params(kappa_tau=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0,
                phi_h=math.pi / 2.0):
    return ReadoutParams(1.0, chi, alpha_in, phi_in, phi_h, kappa_tau)


def stable_draw(rng):
    # Omega <= 0.24 kappa keeps |lambda| < kappa/2 and 4*Omega < kappa for any chi
    return make_params(kappa_tau=rng.uniform(0.1, 5.0), chi=rng.uniform(0.05, 2.0),
                       alpha_in=rng.uniform(0.3, 2.0),
                       phi_in=rng.uniform(-math.pi, math.pi),
                       phi_h=rng.uniform(-math.pi, math.pi)), \
        ics.IcsConfig(rng.uniform(0.0, 0.24), rng.uniform(-math.pi, math.pi))


class TestLambda:
    def test_no_drive(self):
        assert ics.ics_lambda(1.0, 0.0) == 1.0

    def test_degenerate_point(self):
        assert ics.ics_lambda(0.5, 0.25) == 0.0

    def test_imaginary_branch(self):
        lam = ics.ics_lambda(0.3, 0.25)
        assert lam.real == pytest.approx(0.0, abs=1e-15)
        assert lam.imag == pytest.approx(0.4, rel=1e-12)

    def test_rates_near_the_float_limit(self):
        # chi^2 alone overflows; lambda itself is in range
        assert ics.ics_lambda(1e300, 0.0) == 1e300
        assert ics.ics_lambda(1e300, 1e300).imag == pytest.approx(math.sqrt(3.0) * 1e300,
                                                                  rel=1e-15)
        assert ics.ics_lambda(0.0, 0.0) == 0.0


class TestStability:
    def test_real_lambda_stable(self):
        v = ics.ics_stability(make_params(chi=0.5), ics.IcsConfig(0.1))
        assert v and v.stable and v.steady_state_ok

    def test_imaginary_lambda_unstable(self):
        v = ics.ics_stability(make_params(chi=0.0), ics.IcsConfig(0.3))
        assert not v.stable

    def test_imaginary_lambda_below_threshold(self):
        v = ics.ics_stability(make_params(chi=0.0), ics.IcsConfig(0.2))
        assert v.stable and v.steady_state_ok

    def test_steady_state_flag(self):
        v = ics.ics_stability(make_params(chi=2.0), ics.IcsConfig(0.26))
        assert v.stable and not v.steady_state_ok

    @pytest.mark.parametrize("omega", [0.1, 0.3])
    def test_numpy_inputs_give_a_bool(self, omega):
        # a sweep over np.linspace hands in numpy floats
        p = make_params(chi=np.float64(0.5))
        verdict = ics.ics_stability(p, ics.IcsConfig(np.float64(omega)))
        assert bool(verdict) is (omega < 0.25)
        if verdict:
            assert ics.ics_moments(p, ics.IcsConfig(np.float64(omega))) == \
                ics.ics_moments(make_params(), ics.IcsConfig(omega))
        else:
            with pytest.raises(StabilityError):
                ics.ics_moments(p, ics.IcsConfig(np.float64(omega)))


class TestSqueezeParam:
    def test_zero_drive(self):
        assert ics.ics_squeeze_param(1.0, 0.0) == 0.0

    def test_ln2_point(self):
        assert ics.ics_squeeze_param(1.0, 1.0 / 12.0) == pytest.approx(math.log(2.0),
                                                                       rel=1e-12)

    def test_inverse(self):
        assert ics.ics_omega_from_r(1.0, math.log(10.0)) == pytest.approx(9.0 / 44.0,
                                                                          rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, math.log(10.0)])
    def test_round_trip(self, r):
        omega = ics.ics_omega_from_r(1.0, r)
        assert ics.ics_squeeze_param(1.0, omega) == pytest.approx(r, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ics.ics_squeeze_param(1.0, 0.25)


class TestMeanField:
    def test_no_tone(self):
        p = make_params(alpha_in=0.0)
        assert ics.ics_mean_field(p, ics.IcsConfig(0.1, 0.3), QubitState.UP, 2.0) == 0.0

    def test_initial_condition(self):
        p = make_params()
        val = ics.ics_mean_field(p, ics.IcsConfig(0.1, 0.3), QubitState.UP, 0.0)
        assert abs(val) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("state", list(QubitState))
    def test_no_drive_reduces_to_plain_cavity(self, t, state):
        p = make_params(chi=0.7, alpha_in=1.3, phi_in=0.4)
        got = ics.ics_mean_field(p, ics.IcsConfig(0.0, 0.0), state, t)
        z = int(state) * p.chi - 0.5j * p.kappa
        expected = (1j * math.sqrt(p.kappa) * p.alpha_in * cmath.exp(1j * p.phi_in) / z
                    * (1.0 - cmath.exp(-1j * z * t)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unstable_raises(self):
        p = make_params(chi=0.0)
        with pytest.raises(StabilityError):
            ics.ics_mean_field(p, ics.IcsConfig(0.3, 0.0), QubitState.UP, 1.0)


@pytest.mark.parametrize("closed_form, reference, kappa_t", [
    (lambda p, cfg: ics.ics_moments(p, cfg).signal_up,
     lambda p, cfg: mp_reference.ics_signal(p.tau, p.chi, cfg.omega_2ph, p.alpha_in, p.phi_in,
                                            p.phi_h, cfg.theta, 1), 1600.0),
    (lambda p, cfg: ics.ics_noise_components(p, cfg),
     lambda p, cfg: mp_reference.ics_noise_components(p.tau, p.chi, cfg.omega_2ph), 800.0),
    (lambda p, cfg: ics.ics_photon_number(p, cfg, p.tau),
     lambda p, cfg: mp_reference.ics_photon_number(p.chi, cfg.omega_2ph, p.alpha_in, p.phi_in,
                                                   cfg.theta, p.tau), 800.0),
    (lambda p, cfg: ics.ics_mean_field(p, cfg, QubitState.UP, p.tau),
     lambda p, cfg: mp_reference.ics_mean_field(p.chi, cfg.omega_2ph, p.alpha_in, p.phi_in,
                                                cfg.theta, 1, p.tau), 1600.0),
], ids=["signal", "noise", "photon-number", "mean-field"])
def test_long_time_overflow_is_a_readout_error(closed_form, reference, kappa_t):
    # stable (|lambda| = 0.48 kappa < kappa/2), and cosh(|lambda| t) alone leaves the
    # float range here; paired with e^{-kappa t/2} it does not, so there is no error
    p, cfg = make_params(kappa_tau=kappa_t, chi=0.0), ics.IcsConfig(0.24, 0.0)
    got, want = closed_form(p, cfg), reference(p, cfg)
    if not isinstance(got, tuple):
        got, want = (got,), (want,)
    for g, w in zip(got, want):
        assert g == pytest.approx(complex(w), rel=1e-9)


class TestSignal:
    def test_no_drive_matches_plain_readout(self):
        p = make_params()
        m_ics = ics.ics_moments(p, ics.IcsConfig(0.0, 0.0))
        m = standard_readout_moments(p)
        assert m_ics.signal_up - m_ics.signal_down == pytest.approx(
            m.signal_up - m.signal_down, rel=1e-10)

    def test_homodyne_aligned_with_tone(self):
        p = make_params(phi_h=0.2, phi_in=0.2)
        assert ics.ics_moments(p, ics.IcsConfig(0.1, 0.5)).separation == pytest.approx(
            0.0, abs=1e-12)

    def test_separation_is_the_difference_of_the_means(self):
        # the moments carry the pair kernel's means at the normalized point unchanged
        rng = np.random.default_rng(21)
        for _ in range(50):
            p, cfg = stable_draw(rng)
            q = p.normalized()
            up, down, *_ = ics._pair_kernel(q.tau, q.alpha_in, q.phi_in, q.phi_h, cfg.theta)(
                q.chi, cfg.omega_2ph / p.kappa)
            m = ics.ics_moments(p, cfg)
            assert (m.signal_up, m.signal_down) == (up, down)
            assert m.separation == abs(up - down)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_factored_form(self, seed):
        rng = np.random.default_rng(seed)
        p, cfg = stable_draw(rng)
        lam = ics.ics_lambda(p.chi, cfg.omega_2ph)
        if abs(lam) < 0.05:
            return
        psi = cmath.atan(2.0 * lam / p.kappa)
        kt = p.kappa_tau
        val = (16.0 * p.chi * p.alpha_in * cmath.cos(psi) ** 2
               * math.sin(p.phi_h - p.phi_in)
               * (kt - 4.0 * cmath.cos(psi) ** 2
                  * (1.0 - cmath.sin(2.0 * psi + lam * p.tau) / cmath.sin(2.0 * psi)
                     * math.exp(-kt / 2.0))))
        m = ics.ics_moments(p, cfg)
        assert m.signal_up - m.signal_down == pytest.approx(val.real, rel=1e-9, abs=1e-10)


def array_oscillation(x, t):
    """ics._oscillation over an array of lambda^2, each branch picked by np.where."""
    mu = np.sqrt(abs(x))
    neg = x < 0
    mu_neg = np.where(neg, mu, 0.0)
    em = np.expm1(-2.0 * mu_neg * t)
    lt = np.where(neg, 0.0, mu * t)
    sn = np.sin(lt)
    c = np.where(neg, 1.0 + 0.5 * em, np.cos(lt))
    s = np.where(neg, -0.5 * em / np.where(neg, mu, 1.0),
                 np.where(lt > 0, t * (sn / np.where(lt > 0, lt, 1.0)), t))
    return np.exp((mu_neg - 0.5) * t), c, s, np.where(neg, 0.5 * mu * em, mu * sn)


def per_state_signal(kt, chi, om, alpha_in, phi_in, phi_h, theta, sigma, fn=math):
    """<M> at kappa = 1 for one qubit state, as written before the pair kernel:
    lambda^2, the integrals and every phase factor are computed again for each
    sigma, in complex arithmetic.  With fn = np, chi and om are arrays."""
    x = chi * chi - 4.0 * om * om
    e_in = fn.cos(phi_in) + 1j * fn.sin(phi_in)
    e_out = fn.cos(theta - phi_in) + 1j * fn.sin(theta - phi_in)
    t0 = 4j * om * e_out - (1.0 - 2j * sigma * chi) * e_in
    ts = -((2.0 * x + 1j * sigma * chi) * e_in + 2j * om * e_out)
    pref = 2.0 * alpha_in / (1.0 + 4.0 * x)
    g, c, s, xs = (array_oscillation if fn is np else ics._oscillation)(x, kt)
    i_c, i_s = (0.5 + g * (xs - 0.5 * c)) / (x + 0.25), (1.0 - g * (c + 0.5 * s)) / (x + 0.25)
    a_bar = alpha_in * (fn.cos(phi_in) + 1j * fn.sin(phi_in))
    j = a_bar * kt + pref * (t0 * kt + ts * i_s - t0 * i_c)
    return 2.0 * (j.real * fn.cos(phi_h) + j.imag * fn.sin(phi_h))


def pair_arguments(rng, kt, n):
    """n stable (chi, Omega) pairs at one kappa*tau, a third each with real lambda,
    imaginary lambda and lambda^2 = 0 exactly, plus the tone and drive phases."""
    om = rng.uniform(0.0, 0.24, n)
    chi = np.where(np.arange(n) % 3 == 0, rng.uniform(2.0 * om, 1.5),
                   np.where(np.arange(n) % 3 == 1, rng.uniform(0.0, 2.0 * om), 2.0 * om))
    return kt, chi, om, rng.uniform(0.3, 2.0), *rng.uniform(-math.pi, math.pi, 3)


KAPPA_TAUS = [1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3]


class TestSignalPair:
    """One kernel for both qubit states and the noise, with the same bits as
    the per-state forms and the public API."""

    @pytest.mark.parametrize("kt", KAPPA_TAUS)
    def test_floats(self, kt):
        rng = np.random.default_rng(int(kt * 1e4))
        kt, chi, om, a, phi_in, phi_h, theta = pair_arguments(rng, kt, 30)
        assert np.count_nonzero(chi * chi - 4.0 * om * om == 0.0) == 10
        pair = ics._pair_kernel(kt, a, phi_in, phi_h, theta)
        for c, w in zip(chi.tolist(), om.tolist()):
            up, down, *noise = pair(c, w)
            assert up == per_state_signal(kt, c, w, a, phi_in, phi_h, theta, 1)
            assert down == per_state_signal(kt, c, w, a, phi_in, phi_h, theta, -1)
            p = ReadoutParams(1.0, c, a, phi_in, phi_h, kt)
            cfg = ics.IcsConfig(w, theta)
            m = ics.ics_moments(p, cfg)
            assert (up, down) == (m.signal_up, m.signal_down)
            assert tuple(noise) == ics.ics_noise_components(p, cfg)
            x = c * c - 4.0 * w * w
            g, co, si, xs = ics._oscillation(x, kt)
            integrals = ((0.5 + g * (xs - 0.5 * co)) / (x + 0.25),
                         (1.0 - g * (co + 0.5 * si)) / (x + 0.25))
            assert tuple(noise) == reference_forms.noise_components(kt, c, w, integrals)

    @pytest.mark.parametrize("kt", KAPPA_TAUS)
    def test_arrays(self, kt):
        rng = np.random.default_rng(int(kt * 1e4) + 1)
        kt, chi, om, a, phi_in, phi_h, theta = pair_arguments(rng, kt, 30)
        pair = ics._pair_kernel(kt, a, phi_in, phi_h, theta)
        up, down, *noise = np.array([pair(c, w) for c, w in zip(chi.tolist(), om.tolist())]).T
        # the per-state form evaluated over whole arrays: numpy's elementary functions
        # and complex loops round apart from libm's and CPython's in a few entries, by
        # up to 1.1e-13 a max(kt, 1) where the short-time integrals cancel
        floor = 1e-12 * a * max(kt, 1.0)
        for sigma, got in ((1, up), (-1, down)):
            np.testing.assert_allclose(got, per_state_signal(kt, chi, om, a, phi_in, phi_h, theta,
                                                             sigma, np), rtol=0.0, atol=floor)
        # the noise components over arrays of the kernel's own float integrals: numpy's
        # +, *, / round as CPython's do, so the bits agree
        x = chi * chi - 4.0 * om * om
        g, c, s, xs = np.array([ics._oscillation(v, kt) for v in x.tolist()]).T
        integrals = (0.5 + g * (xs - 0.5 * c)) / (x + 0.25), (1.0 - g * (c + 0.5 * s)) / (x + 0.25)
        for got, want in zip(noise, reference_forms.noise_components(kt, chi, om, integrals)):
            assert np.array_equal(got, want)


class TestNoise:
    @pytest.mark.parametrize("kappa_tau", [0.3, 1.0, 5.0])
    def test_no_drive_vacuum(self, kappa_tau):
        p = make_params(kappa_tau=kappa_tau)
        m = ics.ics_moments(p, ics.IcsConfig(0.0, 0.0))
        for noise in (m.noise_up, m.noise_down):
            assert noise == pytest.approx(kappa_tau, rel=1e-14)

    def test_phase_extremum(self):
        p = make_params()
        omega = 0.15

        def summed(theta):
            cfg = ics.IcsConfig(omega, theta)
            return ics.ics_moments(p, cfg).noise_sum

        _, gs, _ = ics.ics_noise_components(p, ics.IcsConfig(omega, 0.0))
        sign = 1.0 if gs > 0 else -1.0
        best_theta = 2.0 * p.phi_h - sign * math.pi / 2.0
        best = summed(best_theta)
        for delta in (0.07, -0.07, 0.3, -0.3):
            assert summed(best_theta + delta) > best

    def test_imaginary_lambda_real_output(self):
        p = make_params(chi=0.2)
        cfg = ics.IcsConfig(0.15, 0.9)
        m = ics.ics_moments(p, cfg)
        for val in (m.noise_up, m.noise_down):
            assert isinstance(val, float) and val > 0


class TestInitialCorrelations:
    def test_printed_value(self):
        n0, m0 = ics.ics_initial_correlations(1.0, ics.IcsConfig(0.125, 0.0))
        assert n0 == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert abs(m0) <= math.sqrt(n0 * (n0 + 1.0))

    def test_cavity_filtering_leaves_mixed_state(self):
        # the stationary intracavity state is mixed: |M| / sqrt(N(N+1)) =
        # kappa / sqrt(2 (kappa^2 - 8 Omega^2)) < 1
        omega = 0.2
        n0, m0 = ics.ics_initial_correlations(1.0, ics.IcsConfig(omega, 0.7))
        bound = math.sqrt(n0 * (n0 + 1.0))
        assert abs(m0) < bound
        assert abs(m0) / bound == pytest.approx(
            1.0 / math.sqrt(2.0 * (1.0 - 8.0 * omega ** 2)), rel=1e-12)


class TestPhotonNumber:
    def test_zero_everything(self):
        p = make_params(alpha_in=0.0)
        assert ics.ics_photon_number(p, ics.IcsConfig(0.0, 0.0), 4.0) == pytest.approx(
            0.0, abs=1e-15)

    def test_initial_value_equals_steady_state(self):
        p = make_params(alpha_in=0.0)
        cfg = ics.IcsConfig(0.2, 1.1)
        n0, _ = ics.ics_initial_correlations(1.0, cfg)
        assert ics.ics_photon_number(p, cfg, 0.0) == pytest.approx(n0, rel=1e-12)

    def test_independent_quadrature_check(self):
        # fluctuation part via the closed-form propagators of
        # a(t) = Lambda(t) a(0) - Gamma(t) a^dag(0) + input terms (qubit up)
        # and an explicit Simpson integral of kappa*int |Gamma|^2
        p = make_params(chi=0.5, alpha_in=1.7, phi_in=0.0)
        cfg = ics.IcsConfig(0.1, 0.3)
        t = 5.0
        k, s, chi = p.kappa, int(QubitState.UP), p.chi
        lam = ics.ics_lambda(chi, cfg.omega_2ph)

        def sinc(z):
            return 1.0 - z * z / 6.0 if abs(z) < 1e-6 else cmath.sin(z) / z

        def Lambda_t(u):
            return (cmath.cos(lam * u) - 1j * s * chi * u * sinc(lam * u)) * math.exp(-k * u / 2.0)

        def Gamma_t(u):
            return (2j * cmath.exp(1j * cfg.theta) * cfg.omega_2ph * u * sinc(lam * u)
                    * math.exp(-k * u / 2.0))

        n0, m0 = ics.ics_initial_correlations(1.0, cfg)
        lt, gt = Lambda_t(t), Gamma_t(t)
        nfl = (abs(lt) ** 2 * n0 + abs(gt) ** 2 * (1 + n0)
               - 2.0 * (np.conj(lt) * gt * np.conj(m0)).real)
        us = np.linspace(0.0, t, 8001)
        g2 = np.array([abs(Gamma_t(u)) ** 2 for u in us])
        w = np.ones(len(us))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        nfl += (t / (len(us) - 1)) / 3.0 * float(np.sum(w * g2))
        mean = ics.ics_mean_field(p, cfg, QubitState.UP, t)
        assert ics.ics_photon_number(p, cfg, t) == pytest.approx(nfl + abs(mean) ** 2,
                                                                 rel=1e-8)

    def test_matches_single_formula_at_operating_phase(self):
        # with theta - 2 phi_in = pi/2 the drive part collapses to the single
        # trigonometric expression in psi and lambda
        p = make_params(chi=0.5, alpha_in=1.7, phi_in=0.2)
        cfg = ics.IcsConfig(0.1, 2.0 * p.phi_in + math.pi / 2.0)
        t = 5.0
        lam = ics.ics_lambda(p.chi, cfg.omega_2ph)
        psi = math.atan(2.0 * lam.real)
        r = ics.ics_squeeze_param(1.0, cfg.omega_2ph)
        th = math.tanh(r / 2.0)
        e1, e2 = math.exp(-t), math.exp(-t / 2.0)
        lt = lam.real * t
        q0 = ((2.0 - math.cos(2 * lt) - math.cos(2 * psi + 2 * lt))
              * (math.cos(2 * psi) - math.cosh(r)) / math.sin(psi) ** 2)
        cot = math.cos(psi) / math.sin(psi)
        q1 = 4.0 * p.alpha_in ** 2 * math.cos(psi) ** 2 * (
            1.0 + e1 - 2.0 * e2 * math.cos(lt)
            + (math.sin(2 * psi) - 2.0 * e2 * math.sin(2 * psi + lt)
               + e1 * math.sin(2 * psi + 2 * lt)) * cot * th
            + 2.0 * (math.cos(psi) - e2 * cot * math.sin(psi + lt)) ** 2 * th ** 2)
        printed = (4.0 * math.cos(psi) ** 2 - e1 * q0) * th ** 2 / 8.0 + q1
        assert ics.ics_photon_number(p, cfg, t) == pytest.approx(printed, rel=1e-12)


class TestReductionToNoSqueezing:
    def test_all_outputs(self):
        p = make_params(chi=0.7, alpha_in=1.3, phi_in=0.3, phi_h=1.1, kappa_tau=1.7)
        cfg = ics.IcsConfig(0.0, 0.9)
        m_ics = ics.ics_moments(p, cfg)
        m_std = ies.ies_moments(p, ies.IesConfig(0.0, 0.0))
        assert m_ics.signal_up == pytest.approx(m_std.signal_up, abs=1e-10)
        assert m_ics.signal_down == pytest.approx(m_std.signal_down, abs=1e-10)
        assert m_ics.noise_up == pytest.approx(m_std.noise_up, rel=1e-10)
        assert m_ics.noise_down == pytest.approx(m_std.noise_down, rel=1e-10)
        n_ics = ics.ics_photon_number(p, cfg, 2.0)
        n_ies = ies.ies_photon_number(p, ies.IesConfig(0.0, 0.0), 2.0)
        assert n_ics == pytest.approx(n_ies, rel=1e-10)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_stable_draws(self, seed):
        rng = np.random.default_rng(2000 + seed)
        for _ in range(10):
            p, cfg = stable_draw(rng)
            report = oracle.oracle_check(p, cfg, ics.ics_moments(p, cfg), steps=4096)
            assert report["passed"], report

    def test_reference_point(self):
        p = make_params(kappa_tau=1.0, chi=0.5, phi_h=math.pi / 4.0)
        cfg = ics.IcsConfig(0.15, 2.0 * p.phi_h - math.pi / 2.0)
        report = oracle.oracle_check(p, cfg, ics.ics_moments(p, cfg), steps=8192)
        assert report["passed"]

    def test_imaginary_lambda_point(self):
        p = make_params(kappa_tau=2.0, chi=0.2, phi_h=0.9, alpha_in=1.3)
        cfg = ics.IcsConfig(0.15, 1.0)
        report = oracle.oracle_check(p, cfg, ics.ics_moments(p, cfg), steps=8192)
        assert report["passed"]
