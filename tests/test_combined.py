import math
import re
import warnings

import numpy as np
import pytest

from sqreadout.core import (QubitState, ReadoutParams, reduce_angle, replace, scheme_moments,
                            snr, standard_readout_moments)
from sqreadout import combined, ies, oracle

LN10 = math.log(10.0)


def make_params(kappa_tau=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0, phi_h=0.0):
    return ReadoutParams(1.0, chi, alpha_in, phi_in, phi_h, kappa_tau)


class TestChiSq:
    def test_no_squeezing(self):
        assert combined.chi_sq(10.0, 0.0, 3.0, 0.05) == pytest.approx(0.5, rel=1e-15)

    def test_small_epsilon_limit(self):
        r = LN10
        eps = 1e-9
        val = combined.chi_sq(0.5 / eps, r, 3.0, eps) / 0.5
        expected = math.cosh(r) + math.sinh(r) ** 2 / math.cosh(r)
        assert val == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(9.90199, abs=1e-4)
        assert val < math.exp(r)

    def test_monotone_decreasing_in_omega_sq(self):
        vals = [combined.chi_sq(10.0, LN10, w, 0.05) for w in np.linspace(0.0, 50.0, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_enhancement_window_and_monotone_in_r(self):
        for eps in (0.01, 0.05, 0.1):
            prev = 0.0
            for r in np.linspace(0.0, LN10, 30):
                ratio = combined.chi_sq(0.5 / eps, r, 4.0, eps) / 0.5
                assert 1.0 - 1e-12 <= ratio <= math.exp(r) + 1e-12
                assert ratio >= prev
                prev = ratio

    def test_large_epsilon_warns(self):
        with pytest.warns(UserWarning):
            combined.chi_sq(1.0, 1.0, 3.0, 0.3)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_r_raises(self, r):
        # chi_sq(1, nan, 1, 0.05) returned nan
        with pytest.raises(ValueError, match="squeeze parameter r must be finite"):
            combined.chi_sq(1.0, r, 1.0, 0.05)
        with pytest.raises(ValueError, match="squeeze parameter r must be finite"):
            combined.chi_sq_function(1.0, r, 0.05)


class TestInputNoiseBudget:
    def test_matched_cancellation(self):
        n, m = combined.input_noise_budget(LN10, LN10, 0.7, 0.0)
        assert n == 0.0
        assert m == 0.0

    def test_trivial_vacuum(self):
        n, m = combined.input_noise_budget(0.0, 0.0, 0.3, 0.3 - math.pi - 1.0)
        assert n == 0.0 and m == 0.0

    def test_pure_degree_mismatch(self):
        r = 0.8
        n, _ = combined.input_noise_budget(r + 0.1, r, 0.0, 0.0)
        assert n == pytest.approx(math.sinh(0.1) ** 2, rel=1e-12)
        assert n == pytest.approx(0.01003, abs=2e-5)

    def test_purity_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rc, r = rng.uniform(0.0, 2.0, 2)
            th, ph = rng.uniform(-math.pi, math.pi, 2)
            n, m = combined.input_noise_budget(rc, r, th, th - math.pi - ph)
            assert abs(m) <= math.sqrt(n * (n + 1.0)) + 1e-9
            assert abs(m) == pytest.approx(math.sqrt(n * (n + 1.0)), abs=1e-9)


class TestCombinedNoise:
    def test_no_squeezing(self):
        p = make_params()
        assert combined.combined_noise(p, 0.0) == pytest.approx(p.kappa_tau, rel=1e-15)

    @pytest.mark.parametrize("r", [0.0, 0.5, LN10])
    @pytest.mark.parametrize("kappa_tau", [0.1, 1.0, 10.0])
    def test_squeezed_quadrature(self, r, kappa_tau):
        p = make_params(kappa_tau=kappa_tau)
        got = combined.combined_noise(p, r, theta=0.0)
        assert got == pytest.approx(kappa_tau * math.exp(-2.0 * r), rel=1e-12)

    def test_antisqueezed_quadrature(self):
        p = make_params(phi_h=math.pi / 2.0)
        got = combined.combined_noise(p, LN10, theta=0.0)
        assert got == pytest.approx(p.kappa_tau * math.exp(2.0 * LN10), rel=1e-12)

    def test_squeeze_antisqueeze_product(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            kt = rng.uniform(0.1, 10.0)
            r = rng.uniform(0.0, LN10)
            theta = rng.uniform(-math.pi, math.pi)
            p = make_params(kappa_tau=kt, phi_h=theta / 2.0)
            q = make_params(kappa_tau=kt, phi_h=theta / 2.0 + math.pi / 2.0)
            prod = combined.combined_noise(p, r, theta) * combined.combined_noise(q, r, theta)
            assert prod == pytest.approx(kt * kt, rel=1e-10)


class TestCombinedSignal:
    def test_reduces_to_standard_at_zero_detuning(self):
        p = make_params(phi_h=0.4, phi_in=0.0)
        disp = combined.DispersiveParams.derive(1.0, 0.5, 0.0, 1e-6, 0.05)
        got = combined._signal_pair(p, disp, 0.0, 0.0)[0]
        expected = ies.StandardConfig().moments(p).of(QubitState.UP)[0]
        assert got == pytest.approx(expected, rel=1e-4)

    def test_requires_tone_phase_convention(self):
        p = make_params(phi_in=0.3)
        disp = combined.DispersiveParams.derive(1.0, 0.5, 1.0, 3.0, 0.05)
        with pytest.raises(ValueError):
            combined._signal_pair(p, disp, 1.0, 0.0)


class TestSeparationComponents:
    def test_no_qubit_dependence_means_no_separation(self):
        disp = combined.DispersiveParams(
            g=10.0, delta_q=100.0, epsilon=0.05, chi=0.5, chi_sq=0.0,
            psi_sq=0.0, omega_sq=3.0, omega_sigma_up=3.0, omega_sigma_down=3.0,
            psi_sigma_up=math.atan(6.0), psi_sigma_down=math.atan(6.0))
        par, perp = combined.separation_components(make_params(), disp, 0.7)
        assert par == pytest.approx(0.0, abs=1e-15)
        assert perp == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_regression(self):
        # tan(psi_+)=6.5, tan(psi_-)=4.5 at kappa*tau=1: oracle-verified values
        # of the two printed projections (r = 0 so the e^{2r} factor is inert)
        disp = combined.DispersiveParams(
            g=10.0, delta_q=100.0, epsilon=0.05, chi=0.5, chi_sq=0.5,
            psi_sq=math.atan(1.0), omega_sq=2.75,
            omega_sigma_up=3.25, omega_sigma_down=2.25,
            psi_sigma_up=math.atan(6.5), psi_sigma_down=math.atan(4.5))
        par, perp = combined.separation_components(make_params(), disp, 0.0)
        assert par == pytest.approx(0.205038, abs=2e-6)
        assert perp == pytest.approx(0.057693, abs=2e-6)

    def test_parallel_matches_signal_difference(self):
        p = make_params()
        cfg = combined.CombinedConfig(r=LN10, omega_sq=4.0)
        disp = cfg.dispersive(p)
        op = combined.operating_params(p, cfg)
        up, down = combined._signal_pair(op, disp, LN10, 0.0)
        sep = abs(up - down)
        par, _ = combined.separation_components(p, disp, LN10)
        assert par == pytest.approx(sep, rel=1e-10)


class TestSolveOmegaSq:
    def test_perpendicular_nulled(self):
        p = make_params()
        w = combined.solve_omega_sq(p, LN10)
        disp = combined.DispersiveParams.derive(1.0, 0.5, LN10, w, 0.05)
        _, perp = combined.separation_components(p, disp, LN10)
        assert perp < 1e-9
        assert w == pytest.approx(5.694336, abs=1e-5)

    def test_long_time_limit(self):
        p = make_params(kappa_tau=1e3)
        w = combined.solve_omega_sq(p, LN10)
        disp = combined.DispersiveParams.derive(1.0, 0.5, LN10, w, 0.05)
        target = 0.5 / math.cos(disp.psi_sq)
        assert w == pytest.approx(target, rel=0.01)

    def test_short_time_limit_is_pi_over_tau(self):
        # the asymptotic root of the perpendicular projection sits at
        # omega_sq*tau = pi (the leading-order condition v(1+cos v) = 2 sin v)
        p = make_params(kappa_tau=1e-3)
        w = combined.solve_omega_sq(p, LN10)
        assert w * p.tau == pytest.approx(math.pi, rel=1e-3)

    def test_no_bracket_raises(self, monkeypatch):
        from sqreadout.core import BracketError

        def never_called(*args, **kwargs):
            raise AssertionError("bisection reached without a sign change")

        # a sign-definite separation on the scanned grid; the scan itself must give up
        monkeypatch.setattr(combined, "_perp_function", stand_in(lambda phase_up: 1.0))
        monkeypatch.setattr(combined, "_bisect_bracket", never_called)
        with pytest.raises(BracketError, match=r"in omega_sq/kappa in \[4\.90\d*, 10\]"):
            combined.solve_omega_sq(make_params(), LN10)

    @pytest.mark.parametrize("kappa_tau, chi, r, epsilon, root", [
        (3.48, 1.34, 2.13, 0.02, 11.1619),   # lower edge 11.01 kappa above 10 kappa
        (8.55, 1.08, 2.26, 0.1, 10.0762),    # lower edge 9.97 kappa, root above 10 kappa
    ], ids=["inverted", "narrow"])
    def test_upper_edge_clears_lower_edge(self, kappa_tau, chi, r, epsilon, root):
        p = make_params(kappa_tau=kappa_tau, chi=chi)
        w = combined.solve_omega_sq(p, r, epsilon)
        assert w == pytest.approx(root, abs=1e-4)
        # the signed perpendicular separation changes sign across the root
        perp = perp_function(p, r, epsilon)
        below, above = (perp(w * f) for f in (1.0 - 1e-8, 1.0 + 1e-8))
        assert below * above < 0

    @pytest.mark.parametrize("epsilon, chi", [(math.nan, 0.5), (0.05, 0.0), (0.05, -0.5),
                                              (-0.05, 0.5)],
                             ids=["epsilon-nan", "g-zero", "g-negative", "epsilon-negative"])
    def test_invalid_coupling_raises(self, epsilon, chi):
        with pytest.raises(ValueError, match="coupling g must be positive"):
            combined.solve_omega_sq(make_params(chi=chi), LN10, epsilon)

    def test_large_epsilon_warns(self):
        with pytest.warns(UserWarning, match="epsilon=0.3 is large"):
            w = combined.solve_omega_sq(make_params(), LN10, 0.3)
        assert w > 0.5

    def test_one_coupling_per_solve(self):
        # a solve builds one chi_sq_function, which warns once; moments derives chi_sq once more
        for call, count in ((lambda: combined.solve_omega_sq(make_params(), LN10, 0.3), 1),
                            (lambda: scheme_moments(make_params(),
                                                    combined.CombinedConfig(r=LN10, epsilon=0.3)),
                             2)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert len(caught) == count

    def test_bisection_function_is_the_scalar_separation(self):
        # the function bisect refines is built once per solve; at every omega_sq
        # it gives the bits of the perpendicular part of separation_components
        rng = np.random.default_rng(17)
        for p, r, eps in seeded_operating_points(60, seed=23):
            perp = perp_function(p, r, eps)
            for w in (10.0 ** rng.uniform(-1.0, 2.0, 10) * p.kappa).tolist():
                disp = combined.DispersiveParams.derive(p.kappa, p.chi, r, w, eps)
                got = math.exp(2.0 * r) * abs(perp(w))
                assert got == combined.separation_components(p, disp, r)[1]

    def test_monotone_bridge_between_limits(self):
        # the root decreases monotonically from ~pi/tau at short times to the
        # time-independent (kappa/2) sec(psi_sq) at long times
        roots = [combined.solve_omega_sq(make_params(kappa_tau=kt), LN10)
                 for kt in (0.05, 0.2, 1.0, 5.0, 50.0)]
        assert all(b < a for a, b in zip(roots, roots[1:]))
        assert roots[-1] == pytest.approx(4.953, abs=0.01)


def perp_function(params, r, epsilon):
    """The solve's separation at (r, epsilon): _perp_function on its one coupling."""
    return combined._perp_function(
        params, combined.chi_sq_function(params.chi / epsilon, r, epsilon))


def stand_in(kernel):
    """A _perp_function whose separation is kernel(omega_up tau) on the solve's coupling."""
    def build(params, coupling):
        k, kt = params.kappa, params.kappa_tau
        return lambda omega_sq: kernel((omega_sq + coupling(omega_sq)) / k * kt)
    return build


def scalar_walk_omega_sq(params, r, epsilon=0.05, grid_points=4096):
    """Reference: the point-by-point scan that picked the bracket before the array pass."""
    from sqreadout.core import BracketError, bisect

    k = params.kappa
    chi = params.chi

    perp_at = perp_function(params, r, epsilon)

    w = 0.5 * k
    for _ in range(8):
        csq = combined.chi_sq(chi / epsilon, r, w, epsilon)
        w = 0.5 * k * math.sqrt(1.0 + (2.0 * csq / k) ** 2)
    lo = 0.99 * w
    hi = max(max(10.0, 5.0 / params.kappa_tau) * k, 1.5 * lo)

    ratio = (hi / lo) ** (1.0 / grid_points)
    a = lo
    fa = perp_at(a)
    for _ in range(grid_points):
        b = a * ratio
        fb = perp_at(b)
        if fa == 0.0:
            return a
        if fa * fb < 0:
            return bisect(perp_at, a, b, tol=1e-10 * k)
        a, fa = b, fb
    raise BracketError(
        f"no perpendicular-separation sign change in omega_sq/kappa "
        f"in [{lo / k:g}, {hi / k:g}]")


def seeded_operating_points(count, seed):
    """(params, r, epsilon) spanning kappa*tau in [1e-3, 1e3] and chi in [0.05, 1.5] kappa."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kappa = float(rng.choice([0.5, 1.0, 3.0]))
        kt = 10.0 ** rng.uniform(-3.0, 3.0)
        chi = rng.uniform(0.05, 1.5) * kappa
        alpha_in = float(rng.choice([0.2, 1.0, 4.0]))
        yield (ReadoutParams(kappa, chi, alpha_in, 0.0, 0.0, kt / kappa),
               rng.uniform(0.0, 2.5), float(rng.choice([0.01, 0.05, 0.1, 0.2])))


def full_scan(params, r, epsilon=0.05):
    """Reference: (lo, hi, grid, f) with f the scalar separation on all 4,097 grid points."""
    k = params.kappa
    w = 0.5 * k
    for _ in range(8):
        csq = combined.chi_sq(params.chi / epsilon, r, w, epsilon)
        w = 0.5 * k * math.sqrt(1.0 + (2.0 * csq / k) ** 2)
    lo = 0.99 * w
    hi = max(max(10.0, 5.0 / params.kappa_tau) * k, 1.5 * lo)
    ratio = (hi / lo) ** (1.0 / combined._SCAN_POINTS)
    grid = np.multiply.accumulate(np.concatenate(([lo], np.full(combined._SCAN_POINTS, ratio))))
    perp = perp_function(params, r, epsilon)
    return lo, hi, grid, np.array([perp(w) for w in grid.tolist()])


def sign_changes(f):
    return np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0))


def full_scan_omega_sq(params, r, epsilon, scan):
    """Reference: the root from the first sign change of full_scan, as before the coarse pass."""
    from sqreadout.core import BracketError, bisect

    lo, hi, grid, f = scan
    hit = sign_changes(f)
    if hit.size == 0:
        raise BracketError(
            f"no perpendicular-separation sign change in omega_sq/kappa "
            f"in [{lo / params.kappa:g}, {hi / params.kappa:g}]")
    i = hit[0]
    if f[i] == 0.0:
        return float(grid[i])
    return bisect(perp_function(params, r, epsilon), float(grid[i]),
                  float(grid[i + 1]), tol=1e-10 * params.kappa)


def figure_convention_points(count=101):
    """(params, r, epsilon) at chi = kappa/2 over kappa*tau in [1e-3, 1e3], r and r_c of the figures."""
    for r in (LN10, LN10 + 0.1, LN10 + 0.2, 1.0, 0.5):
        for kt in np.geomspace(1e-3, 1e3, count):
            yield ReadoutParams(1.0, 0.5, 1.0, 0.0, math.pi / 2.0, kt), r, 0.05


def separations_before_bisection(monkeypatch, params, r=LN10):
    """(root, the omega_sq values the solve separates at before its bisection)."""
    real_function, real_bisect = combined._perp_function, combined._bisect_bracket
    scanned, before_bisection = [], []

    def recorded(*args):
        perp = real_function(*args)
        return lambda omega_sq: scanned.append(omega_sq) or perp(omega_sq)

    def counted(f, a, fa, b, tol):
        before_bisection.append(len(scanned))
        return real_bisect(f, a, fa, b, tol)

    with monkeypatch.context() as m:
        m.setattr(combined, "_perp_function", recorded)
        m.setattr(combined, "_bisect_bracket", counted)
        root = combined.solve_omega_sq(params, r)
    assert len(before_bisection) == 1
    return root, scanned[:before_bisection[0]]


class TestOmegaSqCoarseToFineScan:
    """Steps of 512 cells, then a regula falsi on the cell index, pick the full scan's bracket."""

    @pytest.mark.parametrize("points", [
        lambda: seeded_operating_points(1200, seed=11),
        figure_convention_points,
    ], ids=["seeded", "figure-convention"])
    def test_roots_identical_to_full_scan(self, points):
        from sqreadout.core import BracketError

        for p, r, eps in points():
            scan = full_scan(p, r, eps)
            try:
                expected = full_scan_omega_sq(p, r, eps, scan)
            except BracketError as exc:
                with pytest.raises(BracketError, match=re.escape(str(exc))):
                    combined.solve_omega_sq(p, r, eps)
            else:
                assert combined.solve_omega_sq(p, r, eps) == expected, (p, r, eps)
            # one sign change on the full grid: no coarse cell can hide an even number
            assert sign_changes(scan[3]).size == 1, (p, r, eps)

    def test_fig4b_roots_identical_to_full_scan(self):
        # the roots fig4b_rows(count=11) solves at kappa*tau = 1, r_c = ln 10 + delta_r
        from sqreadout import figures

        for delta_r in figures._linspace(0.0, 0.2, 11):
            cfg = combined.CombinedConfig(r=figures.R_DEFAULT, delta_r=delta_r)
            op, cfg = cfg.operating_point(figures._params(1.0))
            scan = full_scan(op, cfg.r_c, cfg.epsilon)
            assert cfg.omega_sq == full_scan_omega_sq(op, cfg.r_c, cfg.epsilon, scan), delta_r

    def test_walk_evaluates_at_most_36_full_scan_points(self, monkeypatch):
        # lo and at most 8 steps of 512 cells, then at most 16 probes: a probe that does not
        # halve the 512-cell bracket is followed by a bisection of the index.  Every point
        # is the running product from lo, so it lies on the full-scan grid.
        for kappa_tau in (1e-3, 0.3, 3.0, 300.0):
            p = make_params(kappa_tau=kappa_tau)
            grid = set(full_scan(p, LN10)[2].tolist())
            _, scanned = separations_before_bisection(monkeypatch, p)
            assert 0 < len(scanned) <= 1 + 8 + 16, kappa_tau
            assert all(w in grid for w in scanned), kappa_tau

    @pytest.mark.parametrize("kernel", [
        lambda phase: 1.0 if phase > 31.5 else -1e-9,
        lambda phase: math.tanh(1e3 * (phase - 41.2)),
        lambda phase: 1.0 if phase > 35.0 else -math.inf,
    ], ids=["lopsided-step", "steep-tanh", "non-finite-weight"])
    def test_safeguard_bounds_the_probes(self, monkeypatch, kernel):
        # stand-ins that change sign inside the grid, whose up phase runs over [29.5, 44.7]
        # at kappa*tau = 3: interpolation alone crawls along a lopsided step, and -inf makes
        # the first interpolation weight NaN, which the index bisection replaces
        monkeypatch.setattr(combined, "_perp_function", stand_in(kernel))
        p = make_params(kappa_tau=3.0)
        root, scanned = separations_before_bisection(monkeypatch, p)
        assert len(scanned) <= 1 + 8 + 16
        assert root == scalar_walk_omega_sq(p, LN10)

    @pytest.mark.parametrize("kappa_tau, evaluations", [
        (1e-3, 50), (0.3, 35), (1.0, 29), (3.0, 31), (100.0, 31), (300.0, 29)])
    def test_bisection_starts_from_the_walk_bracket(self, monkeypatch, kappa_tau, evaluations):
        # no omega_sq is separated twice: each probe lies strictly inside its bracket, and
        # the bisection starts from the bracket and the lower end value the search holds
        real_function, scanned = combined._perp_function, []

        def recorded(*args):
            perp = real_function(*args)
            return lambda omega_sq: scanned.append(omega_sq) or perp(omega_sq)

        monkeypatch.setattr(combined, "_perp_function", recorded)
        combined.solve_omega_sq(make_params(kappa_tau=kappa_tau), LN10)
        assert len(scanned) == evaluations
        assert len(set(scanned)) == evaluations


class TestOmegaSqArrayScan:
    """The array pass must pick the bracket the scalar walk picked."""

    def test_roots_identical_to_scalar_walk(self):
        from sqreadout.core import BracketError

        for p, r, eps in seeded_operating_points(200, seed=2024):
            try:
                expected = scalar_walk_omega_sq(p, r, eps)
            except BracketError as exc:
                with pytest.raises(BracketError, match=re.escape(str(exc))):
                    combined.solve_omega_sq(p, r, eps)
                continue
            assert combined.solve_omega_sq(p, r, eps) == expected, (p, r, eps)

    def test_first_of_several_sign_changes(self, monkeypatch):
        # the physical separation changes sign once on the grid, so an oscillating
        # stand-in checks that the first bracket is the one refined
        monkeypatch.setattr(combined, "_perp_function", stand_in(math.cos))
        p = make_params(kappa_tau=3.0)
        perp = perp_function(p, LN10, 0.05)
        f = [perp(w) for w in np.geomspace(4.0, 10.0, 500).tolist()]
        assert np.count_nonzero(np.diff(np.sign(f))) > 2
        assert combined.solve_omega_sq(p, LN10) == scalar_walk_omega_sq(p, LN10)


class TestBetaPhotons:
    def test_starts_empty(self):
        p = make_params()
        disp = combined.DispersiveParams.derive(1.0, 0.5, LN10, 5.0, 0.05)
        for s in QubitState:
            assert combined.beta_photon_number(p, disp, LN10, s, 0.0) == pytest.approx(
                0.0, abs=1e-12)

    def test_no_tone(self):
        p = make_params(alpha_in=0.0)
        disp = combined.DispersiveParams.derive(1.0, 0.5, LN10, 5.0, 0.05)
        assert combined.beta_photon_number(p, disp, LN10, QubitState.UP, 2.0) == 0.0


class TestAsymptoticSnr:
    def test_short_formula(self):
        # 6 |sin x/x^2 - 2(1 - cos x)/x^3| (chi_sq/chi) e^r SNR_std at x = omega_sq*tau = 5
        p = make_params()
        disp = combined.DispersiveParams.derive(1.0, 0.5, LN10, 5.0, 0.05)
        x = 5.0
        shape = 6.0 * abs(math.sin(x) / x ** 2 - 2.0 * (1.0 - math.cos(x)) / x ** 3)
        gain = combined.chi_sq(10.0, LN10, 5.0, 0.05) / 0.5
        assert combined.asymptotic_snr("short", p, disp, LN10, 0.18) == pytest.approx(
            shape * gain * 10.0 * 0.18, rel=1e-12)

    def test_short_limit_matches_program_at_default_root(self):
        # kappa*tau = 1e-3 at the solved omega_sq: 44.28832 against 44.28827 SNR_std
        p = make_params(kappa_tau=1e-3, phi_h=math.pi / 2.0)
        cfg = combined.CombinedConfig(r=LN10)
        disp = cfg.dispersive(p)
        s_std = snr(standard_readout_moments(p))
        s = snr(combined.combined_moments(p, cfg))
        assert combined.asymptotic_snr("short", p, disp, LN10, s_std) == pytest.approx(
            s, rel=1e-5)

    def test_long_formula_trivial_point(self):
        # craft psi_sq with sin(psi_sq) = sin(2 psi) so the prefactor is exp(r)
        p = make_params(chi=0.5)
        disp = combined.DispersiveParams(
            g=10.0, delta_q=100.0, epsilon=0.05, chi=0.5, chi_sq=0.5,
            psi_sq=math.pi / 2.0, omega_sq=3.0, omega_sigma_up=3.5,
            omega_sigma_down=2.5, psi_sigma_up=1.4, psi_sigma_down=1.37)
        assert combined.asymptotic_snr("long", p, disp, 0.0, 0.18) == pytest.approx(
            0.18, rel=1e-12)

    def test_unknown_limit(self):
        p = make_params()
        disp = combined.DispersiveParams.derive(1.0, 0.5, 1.0, 5.0, 0.05)
        with pytest.raises(ValueError):
            combined.asymptotic_snr("sideways", p, disp, 1.0, 0.18)


class TestMismatch:
    def test_refuses_off_axis_angles(self):
        # the closed form holds on the squeezed quadrature 2 phi_h = theta only; its
        # value there, 0.0679, is far off elsewhere, where even the matched noise is
        # 8.74 (phi_h = 0.3) and 70.8 (phi_h = 1)
        cfg = combined.CombinedConfig(r=LN10, delta_r=0.1, delta_p=0.05)
        p, cfg = cfg.operating_point(make_params())
        disp = cfg.dispersive(p)
        mm = combined.MismatchParams.derive(LN10, 0.0, 0.1, 0.05)
        on_axis = combined._mismatch_noise_pair(p, disp, LN10, mm, 0.0)[0]
        assert on_axis == pytest.approx(0.0679, abs=1e-4)
        for phi_h in (0.3, 1.0, math.pi / 4.0):
            with pytest.raises(ValueError, match="squeezed quadrature"):
                combined._mismatch_noise_pair(p.with_(phi_h=phi_h), disp, LN10, mm, 0.0)
        # phi_h = pi is the same quadrature as phi_h = 0
        assert combined._mismatch_noise_pair(p.with_(phi_h=math.pi), disp, LN10, mm,
                                             0.0)[0] == on_axis

    def test_matched_limit_exact(self):
        p = make_params()
        disp = combined.DispersiveParams.derive(1.0, 0.5, LN10, 5.0, 0.05)
        mm = combined.MismatchParams.derive(LN10, 0.0, 0.0, 0.0)
        for got in combined._mismatch_noise_pair(p, disp, LN10, mm, 0.0):
            assert got == pytest.approx(p.kappa_tau * 1e-2, rel=1e-12)

    def test_continuity_near_matched_point(self):
        # the noise is continuous in the mismatches; because the record starts
        # from the transient beta-vacuum it may dip a few permille below the
        # stationary floor kt*e^{-2r} before the mismatch penalty takes over
        p = make_params()
        rng = np.random.default_rng(3)
        floor = p.kappa_tau * math.exp(-2.0 * LN10)
        for _ in range(40):
            dr = rng.uniform(-0.02, 0.02)
            dp = rng.uniform(-0.02, 0.02)
            cfg = combined.CombinedConfig(r=LN10, delta_r=dr, delta_p=dp)
            disp = cfg.dispersive(p)
            mm = combined.MismatchParams.derive(LN10, 0.0, dr, dp)
            for noise in combined._mismatch_noise_pair(p, disp, LN10, mm, 0.0):
                assert noise > 0.0
                # dips below the stationary floor are bounded linearly in the
                # mismatch size (transient beta-vacuum start)
                assert noise >= floor * (1.0 - 15.0 * (abs(dr) + abs(dp)))
                assert noise == pytest.approx(floor, rel=1.5)
        for scale in (1e-4, 1e-6):
            mm = combined.MismatchParams.derive(LN10, 0.0, scale, scale)
            cfg = combined.CombinedConfig(r=LN10, delta_r=scale, delta_p=scale)
            disp = cfg.dispersive(p)
            noise = combined._mismatch_noise_pair(p, disp, LN10, mm, 0.0)[0]
            assert noise == pytest.approx(floor, rel=50.0 * scale + 1e-9)

    def test_delta_p_reduced_like_theta(self):
        # unreduced, theta - pi - delta_p in the closed form and the reduced varphi of the
        # oracle split by about |delta_p| * 1e-16 rad: at 1e15, UP variance 72.73 against 74.35
        cfg = combined.CombinedConfig(r=LN10, theta=7.0, delta_r=0.1, delta_p=1e15)
        assert cfg.delta_p == reduce_angle(1e15) and cfg.theta == reduce_angle(7.0)
        assert cfg == combined.CombinedConfig(LN10, 7.0, delta_r=0.1, delta_p=reduce_angle(1e15))
        # shipped values lie in (-pi, pi] and keep their bits
        assert combined.CombinedConfig(r=LN10, delta_p=-0.2).delta_p == -0.2
        p, cfg = cfg.operating_point(make_params())
        assert oracle.oracle_check(p, cfg, cfg.moments(p), steps=4096)["passed"]

    def test_oracle_agreement(self):
        p = make_params()
        for (dr, dp) in ((0.01, 0.05), (0.1, 0.1)):
            cfg = combined.CombinedConfig(r=LN10, delta_r=dr, delta_p=dp)
            op = combined.operating_params(p, cfg)
            moments = combined.combined_moments(p, cfg)
            report = oracle.oracle_check(op, cfg, moments, steps=8192)
            assert report["passed"], report

    def test_headline_mismatch_ratio(self):
        p = make_params()
        cfg = combined.CombinedConfig(r=LN10, delta_r=0.1, delta_p=0.1)
        ratio = snr(combined.combined_moments(p, cfg)) / (
            10.0 * snr(standard_readout_moments(p.with_(phi_h=math.pi / 2.0))))
        assert ratio == pytest.approx(0.7424, abs=2e-3)


def moments_hex(m):
    return [getattr(m, f).hex() for f in ("signal_up", "signal_down", "noise_up", "noise_down")]


class TestDeltaPMap:
    """One map per operating point gives the moments of every delta_p with the per-config bits."""

    @pytest.mark.parametrize("kappa_tau, delta_r, theta", [
        (1.0, 0.1, 0.0), (0.05, -0.07, 1.3), (20.0, 0.0, -2.9)])
    def test_equals_a_config_per_delta_p(self, kappa_tau, delta_r, theta):
        op, cfg = combined.CombinedConfig(r=LN10, theta=theta, delta_r=delta_r).operating_point(
            make_params(kappa_tau=kappa_tau))
        at = cfg.delta_p_moments(op)
        # in (-pi, pi], at its edge, and outside it, where the map reduces like the field
        for dp in (0.0, -0.0, 0.05, -0.2, math.pi, -math.pi, 3.5, -7.0, 2.0 * math.pi, 1e15):
            expected = replace(cfg, delta_p=dp).moments(op)
            assert moments_hex(at(dp)) == moments_hex(expected), dp

    def test_matched_point(self):
        op, cfg = combined.CombinedConfig(r=LN10).operating_point(make_params())
        got = cfg.delta_p_moments(op)(0.0)
        assert cfg.matched and moments_hex(got) == moments_hex(cfg.moments(op))
        assert got.noise_up == got.noise_down == combined.combined_noise(op, LN10, cfg.theta)
        # a multiple of 2 pi reduces to the matched point too
        assert moments_hex(cfg.delta_p_moments(op)(-2.0 * math.pi)) == moments_hex(got)

    @pytest.mark.parametrize("delta_p", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_p_raises(self, delta_p):
        op, cfg = combined.CombinedConfig(r=LN10, delta_r=0.1).operating_point(make_params())
        with pytest.raises(ValueError, match="delta_p must be finite"):
            cfg.delta_p_moments(op)(delta_p)


class TestCombinedMoments:
    def test_headline_snr(self):
        p = make_params()
        cfg = combined.CombinedConfig(r=LN10)
        assert snr(combined.combined_moments(p, cfg)) == pytest.approx(5.549, abs=2e-3)

    def test_noise_state_independent(self):
        p = make_params()
        m = combined.combined_moments(p, combined.CombinedConfig(r=LN10))
        assert m.noise_up == m.noise_down

    def test_dispersive_at_the_solved_root(self):
        # an unset omega_sq is solved where it is needed, and the root does not
        # depend on the phases operating_point sets
        p = make_params(kappa_tau=0.3)
        cfg = combined.CombinedConfig(r=LN10, delta_r=0.1)
        op, solved = cfg.operating_point(p)
        assert solved.omega_sq == combined.solve_omega_sq(p, LN10 + 0.1)
        assert solved.operating_point(op) == (op, solved)
        assert cfg.dispersive(p) == solved.dispersive(p) == combined.DispersiveParams.derive(
            1.0, p.chi, LN10 + 0.1, solved.omega_sq)

    def test_zero_squeezing_is_a_detuned_readout(self):
        # at r = 0 the scheme is a plain readout of a detuned cavity measured
        # along the tone quadrature; with the perpendicular-nulling omega_sq
        # its SNR sits below the resonant baseline measured at the optimal angle
        p = make_params(phi_h=math.pi / 2.0)
        std = snr(standard_readout_moments(p))
        solved = combined.combined_moments(p, combined.CombinedConfig(r=0.0))
        assert snr(solved) == pytest.approx(0.137, abs=0.002)
        assert snr(solved) < std

    def test_oracle_agreement_random_operating_points(self):
        rng = np.random.default_rng(21)
        p0 = make_params()
        for _ in range(5):
            cfg = combined.CombinedConfig(r=rng.uniform(0.0, LN10),
                                          theta=rng.uniform(-math.pi, math.pi),
                                          omega_sq=rng.uniform(1.0, 8.0))
            p = p0.with_(tau=rng.uniform(0.3, 3.0))
            op = combined.operating_params(p, cfg)
            report = oracle.oracle_check(op, cfg, combined.combined_moments(p, cfg),
                                         steps=4096)
            assert report["passed"], report


class TestFrameAndMismatchTypes:
    def test_frame_round_trip(self):
        frame = combined.BogoliubovFrame(3.0, 0.7, 0.4)
        assert math.sqrt(frame.delta_c ** 2 - 4.0 * frame.omega_2ph ** 2) == pytest.approx(
            frame.omega_sq, rel=1e-12)
        assert 0.5 * math.atanh(2.0 * frame.omega_2ph / frame.delta_c) == pytest.approx(
            frame.r_c, rel=1e-12)

    @pytest.mark.parametrize("epsilon", [0.0, -0.05, math.nan, math.inf])
    def test_config_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            combined.CombinedConfig(r=LN10, epsilon=epsilon)

    @pytest.mark.parametrize("omega_sq", [0.0, -1.0])
    def test_config_rejects_non_positive_omega_sq(self, omega_sq):
        with pytest.raises(ValueError, match="omega_sq must be positive"):
            combined.CombinedConfig(r=1.0, omega_sq=omega_sq)

    def test_frame_validation(self):
        with pytest.raises(ValueError, match="omega_sq must be positive"):
            combined.BogoliubovFrame(0.0, 0.5)
        with pytest.raises(ValueError, match="frame squeeze parameter must be non-negative"):
            combined.BogoliubovFrame(1.0, -0.1)

    def test_frame_stores_only_what_the_others_derive_from(self):
        # a detuning and two-photon rate that disagree with (omega_sq, r_c) cannot be given
        assert combined.BogoliubovFrame._fields == ("omega_sq", "r_c", "theta")
        with pytest.raises(TypeError):
            combined.BogoliubovFrame(1.0, 0.1, 5.0, 100.0, 0.0)
        frame = combined.BogoliubovFrame(2.5, 1.3, 7.0)
        assert frame.theta == reduce_angle(7.0)
        assert frame.delta_c == 2.5 * math.cosh(2.0 * 1.3)
        assert frame.omega_2ph == 0.5 * 2.5 * math.sinh(2.0 * 1.3)

    @pytest.mark.parametrize("r_c", [9.0, 9.5, 12.0, 300.0])
    def test_frame_where_its_frequencies_round_together(self, r_c):
        # from r_c ~ 9.5 on, omega_sq cosh 2r_c and omega_sq sinh 2r_c round to one float,
        # or sinh to the larger: the frame is still real
        frame = combined.BogoliubovFrame(1e-100, r_c)
        assert frame.delta_c == pytest.approx(2.0 * frame.omega_2ph, rel=1e-15)

    @pytest.mark.parametrize("omega_sq, r_c", [(1e300, 0.5 * math.log(10.0)), (1e307, 1.0)])
    def test_frame_squares_no_frequency(self, omega_sq, r_c):
        # delta_c^2 would overflow, though delta_c itself is in range
        frame = combined.BogoliubovFrame(omega_sq, r_c)
        assert math.isfinite(frame.delta_c) and frame.delta_c > 2.0 * frame.omega_2ph

    def test_frame_out_of_range_overflows(self):
        # a non-finite detuning fails at construction
        for omega_sq, r_c in ((1e308, math.log(10.0)), (1.0, math.nan)):
            with pytest.raises(OverflowError, match="delta_c out of range"):
                combined.BogoliubovFrame(omega_sq, r_c)

    def test_mismatch_params(self):
        mm = combined.MismatchParams.derive(1.0, 0.3, 0.1, 0.05)
        assert mm.n_thermal > 0
        assert mm.r0 == pytest.approx(math.asinh(math.sqrt(mm.n_thermal)), rel=1e-12)
        assert abs(mm.m_corr) == pytest.approx(0.5 * math.sinh(2 * mm.r0), rel=1e-9)
        assert combined.MismatchParams.derive(1.0, 0.3, 0.0, 0.0).n_thermal == 0.0
