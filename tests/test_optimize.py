import math

import numpy as np
import pytest

from sqreadout.core import BracketError, QubitState, ReadoutParams
from sqreadout import ics, ies, optimize


class TestBisect:
    def test_linear(self):
        assert optimize.bisect(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(
            1.0, abs=1e-12)

    def test_cosine(self):
        assert optimize.bisect(math.cos, 1.0, 2.0, 1e-12) == pytest.approx(
            math.pi / 2.0, abs=1e-11)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            optimize.bisect(lambda x: x + 5.0, 0.0, 1.0, 1e-6)

    def test_call_count_bound(self):
        counter = {"n": 0}

        def f(x):
            counter["n"] += 1
            return x - 0.37

        tol = 1e-9
        optimize.bisect(f, 0.0, 1.0, tol)
        # two endpoint evaluations plus the bisection steps
        assert counter["n"] <= math.ceil(math.log2(1.0 / tol)) + 4

    def test_residual_shrinks_with_tol(self):
        f = lambda x: math.tanh(x - 0.3)
        prev = None
        for tol in (1e-3, 1e-6, 1e-9, 1e-12):
            x = optimize.bisect(f, -1.0, 1.0, tol)
            res = abs(f(x))
            if prev is not None:
                assert res <= prev
            prev = res


class TestMaximizeOverBox:
    def test_parabola_vertex(self):
        val, x, evals, converged = optimize.maximize_over_box(
            lambda a, b: -(a - 0.3) ** 2 - (b - 0.7) ** 2, [(0.0, 1.0), (0.0, 1.0)])
        assert converged
        assert x[0] == pytest.approx(0.3, abs=1e-6)
        assert x[1] == pytest.approx(0.7, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_never_below_grid(self):
        def rippled(a, b):
            return math.sin(7 * a) * math.cos(5 * b) + 0.3 * a

        n = 64
        grid_best = max(
            rippled(i / (n - 1), j / (n - 1)) for i in range(n) for j in range(n))
        val, _, _, _ = optimize.maximize_over_box(rippled, [(0.0, 1.0), (0.0, 1.0)])
        assert val >= grid_best

    def test_degenerate_axis(self):
        val, x, _, converged = optimize.maximize_over_box(
            lambda a, b: -(b - 0.25) ** 2, [(0.5, 0.5), (0.0, 1.0)])
        assert x[0] == 0.5
        assert x[1] == pytest.approx(0.25, abs=1e-6)


class TestMaximizeSnr:
    def test_deterministic(self):
        a = optimize.maximize_snr("ies", 1.0)
        b = optimize.maximize_snr("ies", 1.0)
        assert a == b

    def test_fixed_coupling_reference_values(self):
        ies_opt = optimize.maximize_snr("ies", 1.0, fix_chi=0.5)
        assert ies_opt.best_snr == pytest.approx(0.2946, abs=3e-3)
        assert ies_opt.argmax["r"] == pytest.approx(0.805, abs=0.02)
        ics_opt = optimize.maximize_snr("ics", 1.0, fix_chi=0.5)
        assert ics_opt.best_snr == pytest.approx(0.2080, abs=3e-3)
        assert ics_opt.argmax["r"] == pytest.approx(1.508, abs=0.03)

    def test_standard_fixed_and_free(self):
        fixed = optimize.maximize_snr("standard", 1.0, fix_chi=0.5)
        assert fixed.best_snr == pytest.approx(0.18260738, rel=1e-6)
        free = optimize.maximize_snr("standard", 1.0)
        assert free.best_snr == pytest.approx(0.7408, abs=3e-3)
        assert free.best_snr > fixed.best_snr

    def test_free_optimum_exceeds_fixed(self):
        free = optimize.maximize_snr("ies", 1.0)
        assert free.best_snr == pytest.approx(0.8024, abs=5e-3)
        assert free.argmax["chi_over_kappa"] > 2.0

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            optimize.maximize_snr("laser", 1.0)


class TestAnalyticIesSetting:
    @pytest.mark.parametrize("kappa_tau, chi", [(0.03, 0.5), (1.0, 0.5), (3.0, 1.0)],
                             ids=["r_max", "F>0", "F<0"])
    def test_no_grid_point_beats_it(self, kappa_tau, chi):
        best = optimize.maximize_snr("ies", kappa_tau, fix_chi=chi)
        assert best.evaluations == 1 and best.converged
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        sep = ies.ies_moments(params, ies.IesConfig(0.0, 0.0)).separation
        brute = 0.0
        for phase in np.linspace(-1.0, 1.0, 21):
            # cos(varphi - 2 phi_h) = phase at phi_h = pi/2
            varphi = math.pi + math.acos(phase)
            for r in np.linspace(0.0, optimize.R_MAX_DEFAULT, 4001):
                cfg = ies.IesConfig(float(r), varphi)
                noise = sum(ies.ies_noise(params, cfg, s) for s in QubitState)
                brute = max(brute, sep / math.sqrt(noise))
        assert brute <= best.best_snr * (1.0 + 1e-12)
        assert brute >= best.best_snr * (1.0 - 1e-6)
        shape = ies.ies_noise_shape(params)
        r = best.argmax["r"]
        if r < optimize.R_MAX_DEFAULT:
            assert math.tanh(2.0 * r) == pytest.approx(abs(shape), rel=1e-12)
        else:
            assert abs(shape) >= math.tanh(2.0 * r)
        assert best.argmax["phase"] == (-1.0 if shape >= 0 else 1.0)


def two_phase_ics_search(kappa_tau, fix_chi=None):
    """Reference: the ICS search before the phase was set per point.

    One grid + golden-section box search per phase extreme sin(2 phi_h - theta)
    = -1, +1; the better one wins, ties going to -1.
    """
    def objective(psi, r, phase_sin):
        omega = ics.ics_omega_from_r(1.0, r)
        if fix_chi is None:
            lam = 0.5 * math.tan(psi)
            chi = math.sqrt(lam * lam + 4.0 * omega * omega)
        else:
            chi = fix_chi
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        cfg = ics.IcsConfig(omega, 0.0)
        if not ics.ics_stability(params, cfg):
            return 0.0
        sep = abs(ics.ics_signal_separation(params, cfg))
        g0, gs, _ = ics.ics_noise_components(params, cfg)
        noise = 2.0 * g0 - 2.0 * phase_sin * gs
        if noise <= 0:
            return 0.0
        return sep / math.sqrt(noise)

    psi_bounds = optimize.PSI_BOUNDS_DEFAULT if fix_chi is None else (0.0, 0.0)
    best = None
    for phase in (-1.0, 1.0):
        val, x, _, _ = optimize.maximize_over_box(
            lambda p, r, ph=phase: objective(p, r, ph),
            [psi_bounds, (0.0, optimize.R_MAX_DEFAULT)])
        if best is None or val > best[0]:
            best = (val, x, phase)
    return best


class TestIcsOneSearch:
    @pytest.mark.parametrize("kappa_tau, fix_chi", [
        (0.05, 0.5), (0.3, 0.2), (1.0, 0.5), (3.0, 1.0), (30.0, 0.5), (2.0, None)])
    def test_matches_two_phase_search(self, kappa_tau, fix_chi):
        val, (psi, r), phase = two_phase_ics_search(kappa_tau, fix_chi)
        report = optimize.maximize_snr("ics", kappa_tau, fix_chi=fix_chi)
        assert report.best_snr == val
        assert (report.argmax["psi"], report.argmax["r"], report.argmax["phase"]) == (psi, r, phase)
        assert report.argmax["omega_2ph_over_kappa"] == ics.ics_omega_from_r(1.0, r)
        if fix_chi is None:
            assert report.argmax["lambda_over_kappa"] == 0.5 * math.tan(psi)
        else:
            assert report.argmax["chi_over_kappa"] == fix_chi
