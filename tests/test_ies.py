import math

import numpy as np
import pytest

from sqreadout.core import QubitState, ReadoutParams, psi_from_rate
from sqreadout import ies, oracle


def make_params(kappa_tau=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0,
                phi_h=math.pi / 2.0):
    return ReadoutParams(1.0, chi, alpha_in, phi_in, phi_h, kappa_tau)


def factored_separation(params):
    """Closed form with the sin(2 psi) factor pulled out (breaks at sin(2 psi)=0)."""
    p = params.normalized()
    psi = psi_from_rate(p.chi, 1.0)
    kt = p.tau
    bracket = kt - 4.0 * math.cos(psi) ** 2 * (
        1.0 - math.sin(2.0 * psi + p.chi * p.tau) / math.sin(2.0 * psi)
        * math.exp(-kt / 2.0))
    return (4.0 * p.alpha_in * math.sin(2.0 * psi)
            * math.sin(p.phi_h - p.phi_in) * bracket)


class TestSignal:
    def test_no_dispersive_shift(self):
        m = ies.StandardConfig().moments(make_params(chi=0.0))
        assert m.signal_up == m.signal_down

    def test_homodyne_aligned_with_tone(self):
        m = ies.StandardConfig().moments(make_params(phi_h=0.4, phi_in=0.4))
        assert m.signal_up - m.signal_down == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_factored_form(self, seed):
        rng = np.random.default_rng(seed)
        p = make_params(kappa_tau=rng.uniform(0.2, 4.0), chi=rng.uniform(0.1, 2.0),
                        alpha_in=rng.uniform(0.5, 2.0),
                        phi_in=rng.uniform(-math.pi, math.pi),
                        phi_h=rng.uniform(-math.pi, math.pi))
        m = ies.StandardConfig().moments(p)
        sep = m.signal_up - m.signal_down
        assert sep == pytest.approx(factored_separation(p), rel=1e-11, abs=1e-12)

    def test_independent_of_squeezing(self):
        # the mean field never sees the squeezed fluctuations
        p = make_params()
        m1 = ies.ies_moments(p, ies.IesConfig(0.0, 0.0))
        m2 = ies.ies_moments(p, ies.IesConfig(1.2, 0.7))
        assert m1.signal_up == m2.signal_up
        assert m1.signal_down == m2.signal_down


class TestNoise:
    @pytest.mark.parametrize("kappa_tau", [0.3, 1.0, 5.0])
    def test_vacuum_input(self, kappa_tau):
        p = make_params(kappa_tau=kappa_tau)
        cfg = ies.IesConfig(0.0, 1.3)
        for s in QubitState:
            assert cfg.moments(p).of(s)[1] == pytest.approx(kappa_tau, rel=1e-15)

    def test_noise_floor(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = make_params(kappa_tau=rng.uniform(0.05, 6.0), chi=rng.uniform(0.02, 3.0),
                            phi_h=rng.uniform(-math.pi, math.pi))
            cfg = ies.IesConfig(rng.uniform(0.0, 1.6), rng.uniform(-math.pi, math.pi))
            floor = p.kappa_tau * math.exp(-2.0 * cfg.r)
            for s in QubitState:
                assert cfg.moments(p).of(s)[1] >= floor * (1.0 - 1e-12)

    def test_phase_extremum(self):
        p = make_params()
        shape = ies.ies_noise_shape(p)
        assert shape > 0
        r = 0.8

        def summed(varphi):
            cfg = ies.IesConfig(r, varphi)
            return cfg.moments(p).noise_sum

        best = summed(2.0 * p.phi_h + math.pi)
        for delta in (0.05, -0.05, 0.2, -0.2):
            assert summed(2.0 * p.phi_h + math.pi + delta) > best

    def test_short_and_long_time_floor(self):
        # the phase-optimal summed noise approaches 2*kt*e^{-2r} as kt -> 0;
        # at kt = 1e3 and chi = kappa/2 an O(1/kt) residue of ~8% remains
        r = 1.0
        for kt, expected in ((1e-3, 1.0000), (1e3, 1.0804)):
            p = make_params(kappa_tau=kt)
            shape = ies.ies_noise_shape(p)
            noise = 2.0 * kt * (math.cosh(2 * r) - abs(shape) * math.sinh(2 * r))
            assert noise / (2.0 * kt * math.exp(-2 * r)) == pytest.approx(expected, abs=2e-4)


class TestNoiseShape:
    def test_zero_chi_collapses_to_one(self):
        p = make_params(chi=0.0)
        assert ies.ies_noise_shape(p) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_consistent_with_state_sum(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            p = make_params(kappa_tau=rng.uniform(0.1, 5.0), chi=rng.uniform(0.05, 2.0),
                            phi_h=rng.uniform(-math.pi, math.pi))
            cfg = ies.IesConfig(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
            direct = cfg.moments(p).noise_sum
            shape = ies.ies_noise_shape(p)
            closed = 2.0 * p.kappa_tau * (
                math.cosh(2 * cfg.r)
                + math.cos(cfg.varphi - 2 * p.phi_h) * math.sinh(2 * cfg.r) * shape)
            assert direct == pytest.approx(closed, rel=1e-10)

    def test_shape_magnitude_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            p = make_params(kappa_tau=rng.uniform(0.02, 20.0), chi=rng.uniform(0.0, 5.0))
            assert abs(ies.ies_noise_shape(p)) <= 1.0 + 1e-12


class TestPhotonNumber:
    def test_initial_value(self):
        p = make_params()
        cfg = ies.IesConfig(0.9, 0.0)
        assert ies.ies_photon_number(p, cfg, 0.0) == pytest.approx(math.sinh(0.9) ** 2,
                                                                   rel=1e-14)

    def test_steady_coherent_drive(self):
        p = make_params(alpha_in=1.5)
        psi = psi_from_rate(p.chi, p.kappa)
        n = ies.ies_photon_number(p, ies.IesConfig(0.0, 0.0), 200.0)
        assert n == pytest.approx(4.0 * 1.5 ** 2 * math.cos(psi) ** 2, rel=1e-12)

    def test_squeezed_vacuum_occupancy(self):
        p = make_params(alpha_in=0.0)
        n = ies.ies_photon_number(p, ies.IesConfig(math.log(10.0), 0.0), 3.0)
        assert n == pytest.approx(24.5025, rel=1e-10)


class TestMoments:
    def test_reduces_to_standard(self):
        from sqreadout.core import standard_readout_moments

        p = make_params()
        m1 = ies.ies_moments(p, ies.IesConfig(0.0, 0.0))
        m2 = standard_readout_moments(p)
        assert m1 == m2

    def test_noise_always_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = make_params(kappa_tau=rng.uniform(0.05, 5.0), chi=rng.uniform(0.0, 3.0),
                            phi_h=rng.uniform(-math.pi, math.pi))
            cfg = ies.IesConfig(rng.uniform(0.0, 2.0), rng.uniform(-math.pi, math.pi))
            m = ies.ies_moments(p, cfg)
            assert m.noise_up > 0 and m.noise_down > 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_draws(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(10):
            p = make_params(kappa_tau=rng.uniform(0.1, 5.0), chi=rng.uniform(0.05, 2.0),
                            alpha_in=rng.uniform(0.3, 2.0),
                            phi_in=rng.uniform(-math.pi, math.pi),
                            phi_h=rng.uniform(-math.pi, math.pi))
            cfg = ies.IesConfig(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
            report = oracle.oracle_check(p, cfg, ies.ies_moments(p, cfg), steps=4096)
            assert report["passed"], report

    def test_reference_point(self):
        p = make_params(kappa_tau=1.0, chi=0.5)
        cfg = ies.IesConfig(math.log(2.0), 2.0 * p.phi_h + math.pi)
        report = oracle.oracle_check(p, cfg, ies.ies_moments(p, cfg), steps=8192)
        assert report["passed"]

    def test_noise_shape_reconstructed_from_oracle(self):
        # F follows from the summed oracle noise at the two extremal phases:
        # F = [S(varphi-2phi_h=0) - S(pi)] / (4 kt sinh 2r)
        p = make_params(kappa_tau=1.0, chi=0.5)
        r = 0.6
        sums = {}
        for shift in (0.0, math.pi):
            cfg = ies.IesConfig(r, 2.0 * p.phi_h + shift)
            total = 0.0
            for s in QubitState:
                system = oracle.build_system(p, cfg, s)
                total += oracle.oracle_moments(system, steps=8192).richardson[1]
            sums[shift] = total
        f_oracle = (sums[0.0] - sums[math.pi]) / (4.0 * p.kappa_tau * math.sinh(2 * r))
        assert ies.ies_noise_shape(p) == pytest.approx(f_oracle, rel=1e-3)
