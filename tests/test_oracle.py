import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sqreadout.core import QubitState, ReadoutParams, StabilityError, replace
from sqreadout import combined, ics, ies, oracle


def make_params(kappa_tau=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0,
                phi_h=math.pi / 2.0):
    return ReadoutParams(1.0, chi, alpha_in, phi_in, phi_h, kappa_tau)


def ref_expm_minus_one(a, t):
    """exp(a t) - I = c0 I + c1 B from the closed form, over an array of times."""
    s = 0.5 * (a[0, 0] + a[1, 1])
    b = a - s * np.eye(2)
    mu = np.sqrt(complex(b[0, 1] * b[1, 0] - b[0, 0] * b[1, 1]))
    t = np.asarray(t, dtype=float)
    g_m1 = np.expm1((s + mu) * t)
    if mu == 0:
        return g_m1, (1.0 + g_m1) * t, b
    gd = (1.0 + g_m1) * np.expm1(-2.0 * mu * t)
    return g_m1 + 0.5 * gd, gd * (-0.5 / mu), b


def ref_moments_once(system, steps):
    """Reference: the K-bin mean and variance of M summed bin by bin.

    The oracle's sums as they were before interval splitting: the weight of every
    bin mode is one column of O(K) arrays, E^n - I comes from the closed form at
    each n dt, and the quadratic forms are summed over all bins.
    """
    drift = np.array(system.drift)
    k, dt = system.kappa, system.tau / steps
    c0, c1, b = ref_expm_minus_one(drift, dt)
    e_m1 = c0 * np.eye(2) + c1 * b
    f_int = np.linalg.solve(drift, e_m1)                    # int_0^dt e^{Au} du
    g_int = np.linalg.solve(drift, f_int - dt * np.eye(2))  # int_0^dt int_0^u e^{Aw} dw du
    phi = system.homodyne_angle
    wp = np.exp([-1j * phi, 1j * phi])
    dmat = -math.sqrt(k / dt) * f_int
    hmat = -math.sqrt(k / dt) * g_int
    c0, c1, b = ref_expm_minus_one(drift, np.arange(steps + 1) * dt)
    row = wp @ f_int
    # column n is row S_n, S_n = sum_{m<n} E^m = (E^n - I)(E - I)^{-1}, n = 0..K
    p_geo = np.linalg.inv(e_m1).T @ (np.outer(row, c0) + np.outer(row @ b, c1))
    base = math.sqrt(k * dt) * wp + k * (wp @ hmat)
    ell = (base[:, None] + k * (dmat.T @ p_geo[:, :steps]))[:, ::-1]   # column j: bin j
    ell0 = k * p_geo[:, steps]

    def pair_variance(u, v, n, m):
        return float(np.sum(u * u * m + v * v * np.conj(m) + u * v * (2.0 * n + 1.0)).real)

    a_bar = system.input_mean
    mean = math.sqrt(dt) * (np.sum(ell[0]) * a_bar + np.sum(ell[1]) * a_bar.conjugate())
    var = pair_variance(ell[0], ell[1], *system.input_corr)
    var += pair_variance(ell0[:1], ell0[1:], *system.init_cov)
    return float(mean.real), var


def draw_system(rng, scheme):
    """One seeded stable oracle system of a scheme, kappa*tau log-uniform on [1e-4, 1e3]."""
    while True:
        chi = rng.uniform(0.05, 2.0) if scheme == "combined" else rng.uniform(-2.0, 2.0)
        p = ReadoutParams(1.0, chi, rng.uniform(0.0, 2.0), rng.uniform(-math.pi, math.pi),
                          rng.uniform(-math.pi, math.pi), 10.0 ** rng.uniform(-4.0, 3.0))
        state = QubitState.UP if rng.random() < 0.5 else QubitState.DOWN
        if scheme == "ies":
            cfg = ies.IesConfig(rng.uniform(0.0, 2.0), rng.uniform(-math.pi, math.pi))
        elif scheme == "ics":
            cfg = ics.IcsConfig(rng.uniform(0.0, 0.6), rng.uniform(-math.pi, math.pi))
            if not ics.ics_stability(p, cfg):
                continue
        else:
            delta = rng.uniform(-0.2, 0.2, size=2) if rng.random() < 0.5 else (0.0, 0.0)
            cfg = combined.CombinedConfig(r=rng.uniform(0.0, math.log(10.0)),
                                          theta=rng.uniform(-math.pi, math.pi),
                                          omega_sq=rng.uniform(0.5, 200.0),
                                          delta_r=float(delta[0]), delta_p=float(delta[1]))
            p = combined.operating_params(p, cfg)
        return oracle.build_system(p, cfg, state)


def assert_matches_reference(system, steps, both_quadratures=False):
    # the split sums against the bin-by-bin sums: rounding of either order; in a
    # squeezed variance rounding scales with the antisqueezed one, so both_quadratures
    # bounds it by the larger variance of the measured quadrature and its conjugate
    mean, var = oracle._moments_once(system, steps)
    mean_ref, var_ref = ref_moments_once(system, steps)
    scale = abs(var_ref)
    if both_quadratures:
        turned = replace(system, homodyne_angle=system.homodyne_angle + math.pi / 2.0)
        scale = max(scale, ref_moments_once(turned, steps)[1])
    assert abs(var - var_ref) <= 1e-12 * scale, (steps, var, var_ref)
    scale = max(abs(mean_ref), math.sqrt(abs(var_ref)))
    assert abs(mean - mean_ref) <= 1e-12 * scale, (steps, mean, mean_ref)


class TestStandardReadout:
    def test_vacuum_variance(self):
        system = oracle.build_system(make_params(), ies.IesConfig(0.0, 0.0),
                                     QubitState.UP)
        result = oracle.oracle_moments(system, steps=8192)
        assert result.var_M == pytest.approx(1.0, rel=1e-4)
        assert result.richardson[1] == pytest.approx(1.0, rel=1e-6)

    def test_zero_tone_mean(self):
        p = make_params(alpha_in=0.0)
        system = oracle.build_system(p, ies.IesConfig(0.7, 0.4), QubitState.DOWN)
        result = oracle.oracle_moments(system, steps=4096)
        assert result.mean_M == 0.0


class TestConvergence:
    def test_first_order_doubling(self):
        p = make_params(chi=0.8)
        cfg = ies.IesConfig(0.9, 1.1)
        system = oracle.build_system(p, cfg, QubitState.UP)
        r1 = oracle.oracle_moments(system, steps=2048)   # residual over (2048, 4096)
        r2 = oracle.oracle_moments(system, steps=4096)   # residual over (4096, 8192)
        factor = abs(r1.residual[1]) / abs(r2.residual[1])
        assert factor >= 1.8

    def test_residual_certifies_error(self):
        # the reported K -> 2K residual bounds both the raw and the
        # extrapolated error against the exact value
        p = make_params(chi=0.7)
        cfg = ies.IesConfig(0.6, 0.9)
        analytic = cfg.moments(p).of(QubitState.UP)[1]
        system = oracle.build_system(p, cfg, QubitState.UP)
        res = oracle.oracle_moments(system, steps=4096)
        certificate = 2.0 * abs(res.residual[1])
        assert abs(res.var_M - analytic) < certificate
        assert abs(res.richardson[1] - analytic) < certificate

    def test_constant_tone_mean_is_exact(self):
        # a flat bin mode represents a constant drive exactly, so the mean
        # carries no discretization error even at coarse K
        p = make_params(chi=0.7, phi_h=0.3)
        cfg = ies.IesConfig(0.6, 0.9)
        analytic = cfg.moments(p).of(QubitState.UP)[0]
        system = oracle.build_system(p, cfg, QubitState.UP)
        res = oracle.oracle_moments(system, steps=128)
        assert res.mean_M == pytest.approx(analytic, abs=1e-10)

    @pytest.mark.parametrize("kappa_tau, rel", [(1e-3, 1e-5), (1e-2, 1e-8)])
    def test_short_time_mean(self, kappa_tau, rel):
        # phi_h - phi_in = -pi/2 makes the mean a small difference of O(kappa*tau)
        # terms; E^n - I written with expm1 keeps the bin weights accurate there
        p = make_params(kappa_tau=kappa_tau, phi_in=math.pi / 2.0, phi_h=0.0)
        cfg = ies.IesConfig(0.5, 0.0)
        system = oracle.build_system(p, cfg, QubitState.UP)
        res = oracle.oracle_moments(system, steps=4096)
        assert res.mean_M == pytest.approx(cfg.moments(p).of(QubitState.UP)[0], rel=rel, abs=0.0)


class TestInvariants:
    def test_variance_nonnegative_and_phase_invariant(self):
        rng = np.random.default_rng(4)
        p = make_params(chi=0.6, alpha_in=1.4)
        cfg = ies.IesConfig(0.8, 0.5)
        base = oracle.oracle_moments(
            oracle.build_system(p, cfg, QubitState.UP), steps=2048)
        assert base.var_M >= 0.0
        for _ in range(3):
            shift = rng.uniform(-math.pi, math.pi)
            shifted = oracle.oracle_moments(
                oracle.build_system(p.with_(phi_in=p.phi_in + shift), cfg,
                                    QubitState.UP), steps=2048)
            assert shifted.var_M == pytest.approx(base.var_M, rel=1e-12)

    @pytest.mark.parametrize("scheme,steps", [("ies", 8192), ("ics", 8192),
                                              ("combined", 65536),
                                              ("ics_exceptional", 8192)])
    def test_commutator_preserved(self, scheme, steps):
        # the defect scales as (|drift| tau)^3 / K^2, so the fast-rotating
        # combined frame needs more bins for the same 1e-9 budget
        p = make_params()
        if scheme == "ies":
            system = oracle.build_system(p, ies.IesConfig(0.5, 0.2), QubitState.UP)
        elif scheme == "ics":
            system = oracle.build_system(p, ics.IcsConfig(0.2, 0.4), QubitState.UP)
        elif scheme == "ics_exceptional":
            # chi = 2 Omega: the drift is defective
            system = oracle.build_system(make_params(chi=0.2), ics.IcsConfig(0.1, 0.3),
                                         QubitState.DOWN)
        else:
            cfg = combined.CombinedConfig(r=1.0, omega_sq=4.0)
            system = oracle.build_system(combined.operating_params(p, cfg), cfg,
                                         QubitState.UP)
        assert oracle.commutator_defect(system, steps=steps) < 1e-9


class TestBuildSystem:
    def test_ies_vacuum(self):
        system = oracle.build_system(make_params(), ies.IesConfig(0.0, 0.0),
                                     QubitState.UP)
        assert system.input_corr == (0.0, 0.0)
        assert system.init_cov == (0.0, 0.0)

    def test_ics_initial_covariance(self):
        system = oracle.build_system(make_params(), ics.IcsConfig(0.125, 0.0),
                                     QubitState.UP)
        assert system.init_cov[0] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_combined_matched_vacuum_input(self):
        # the cavity mode is fed the injected squeezed vacuum and starts in the beta
        # vacuum; at the matched point both are vacuum for beta = c a + e^{i theta} s a^dag
        r, theta = 1.3, 0.4
        cfg = combined.CombinedConfig(r=r, theta=theta, omega_sq=4.0)
        p = combined.operating_params(make_params(), cfg)
        system = oracle.build_system(p, cfg, QubitState.DOWN)
        n, m = system.input_corr
        assert n == pytest.approx(math.sinh(r) ** 2, rel=1e-15)
        assert m == pytest.approx(0.5 * math.sinh(2.0 * r) * cmath.exp(1j * (theta - math.pi)),
                                  rel=1e-15)
        c, s, ph = math.cosh(r), math.sinh(r), cmath.exp(1j * theta)
        for n, m in (system.input_corr, system.init_cov):
            n_beta = c * c * n + s * s * (n + 1.0) + 2.0 * c * s * (ph.conjugate() * m).real
            m_beta = c * c * m + ph * ph * s * s * m.conjugate() + c * s * ph * (2.0 * n + 1.0)
            assert abs(n_beta) < 1e-14 * c ** 4 and abs(m_beta) < 1e-14 * c ** 4

    @pytest.mark.parametrize("delta_r, delta_p", [(0.0, 0.0), (0.15, -0.1)],
                             ids=["matched", "mismatched"])
    def test_combined_model_uses_no_closed_form(self, monkeypatch, delta_r, delta_p):
        # the combined oracle model shares only DispersiveParams with the closed forms
        def closed_form(*args, **kwargs):
            raise AssertionError("the oracle model called a closed form")

        for name in ("input_noise_budget", "combined_noise", "_signal_pair",
                     "_mismatch_noise_pair"):
            monkeypatch.setattr(combined, name, closed_form)
        p, cfg = combined.CombinedConfig(r=1.3, theta=0.4, delta_r=delta_r,
                                         delta_p=delta_p).operating_point(make_params())
        for state in QubitState:
            assert oracle.build_system(p, cfg, state).input_corr[0] > 0.0

    @pytest.mark.parametrize("r, delta_r", [(0.0, 0.0), (1.0, 0.0), (math.log(10.0), 0.2),
                                            (math.log(10.0), -0.2)])
    def test_combined_drift_rotates_at_omega_sigma(self, r, delta_r):
        # H = omega_sigma beta^dag beta in the cavity mode: eigenvalues -kappa/2 -+ i omega_sigma,
        # so K is the one the diagonal drift of the beta mode gives
        p = make_params(kappa_tau=3.0)
        for omega_sq in (0.7, 5.0, 60.0):
            cfg = combined.CombinedConfig(r=r, theta=2.1, omega_sq=omega_sq, delta_r=delta_r)
            op = combined.operating_params(p, cfg)
            for state in QubitState:
                system = oracle.build_system(op, cfg, state)
                om = cfg.dispersive(op).omega_sigma(state)
                s, _, mu = oracle._split(oracle._Mat.of(system.drift))
                got = sorted((s - mu, s + mu), key=lambda z: z.imag)
                for z, want in zip(got, (complex(-0.5, -abs(om)), complex(-0.5, abs(om)))):
                    assert abs(z - want) <= 1e-12 * abs(want), (z, want)
                diagonal = replace(system, drift=((-1j * om - 0.5, 0.0), (0.0, 1j * om - 0.5)))
                assert oracle.default_steps(system) == oracle.default_steps(diagonal)

    def test_unstable_ics_raises(self):
        with pytest.raises(StabilityError):
            oracle.build_system(make_params(chi=0.0), ics.IcsConfig(0.3, 0.0),
                                QubitState.UP)

    def test_minimum_steps(self):
        system = oracle.build_system(make_params(), ies.IesConfig(0.0, 0.0),
                                     QubitState.UP)
        with pytest.raises(ValueError):
            oracle.oracle_moments(system, steps=32)

    def test_default_steps_scale_with_rotation(self):
        p = make_params()
        slow = oracle.build_system(p, ies.IesConfig(0.0, 0.0), QubitState.UP)
        cfg = combined.CombinedConfig(r=1.0, omega_sq=200.0)
        fast = oracle.build_system(combined.operating_params(p, cfg), cfg,
                                   QubitState.UP)
        assert oracle.default_steps(fast) > oracle.default_steps(slow)
        assert oracle.default_steps(slow) == 4096


class TestNegativeControl:
    def test_corrupted_noise_fails(self):
        p = make_params()
        cfg = ies.IesConfig(0.5, 0.3)
        good = ies.ies_moments(p, cfg)
        bad = type(good)(signal_up=good.signal_up, signal_down=good.signal_down,
                         noise_up=good.noise_up * 1.01, noise_down=good.noise_down)
        assert oracle.oracle_check(p, cfg, good, steps=4096)["passed"]
        assert not oracle.oracle_check(p, cfg, bad, steps=4096)["passed"]

    def test_systems_compare_and_hash_by_value(self):
        kwargs = dict(input_mean=0.3 + 0.1j, input_corr=(0.1, 0.2j), init_cov=(0.0, 0.0),
                      homodyne_angle=0.4, kappa=1.0, tau=2.0)
        a = oracle.LinearReadoutSystem(drift=np.diag([-0.5 - 1j, -0.5 + 1j]), **kwargs)
        b = oracle.LinearReadoutSystem(drift=((-0.5 - 1j, 0), (0, -0.5 + 1j)), **kwargs)
        assert a == b and hash(a) == hash(b)
        assert a.drift == ((-0.5 - 1j, 0j), (0j, -0.5 + 1j))
        assert a != oracle.LinearReadoutSystem(drift=np.diag([-0.5 - 1j, -0.6 + 1j]), **kwargs)
        built = [oracle.build_system(make_params(), ies.IesConfig(0.5, 0.2), QubitState.UP)
                 for _ in range(2)]
        assert built[0] == built[1] and len(set(built)) == 1

    def test_unphysical_moments_rejected(self):
        with pytest.raises(ValueError):
            oracle.LinearReadoutSystem(
                drift=np.diag([-0.5, -0.5]), input_mean=0.0,
                input_corr=(0.1, 1.0), init_cov=(0.0, 0.0),
                homodyne_angle=0.0, kappa=1.0, tau=1.0)


class TestExtremeCorners:
    """Domain corners where the closed forms are most fragile."""

    def test_large_chi_long_time(self):
        p = make_params(chi=5.0, kappa_tau=20.0, phi_in=0.3, phi_h=1.2)
        cfg = ies.IesConfig(1.2, 0.7)
        assert oracle.oracle_check(p, cfg, ies.ies_moments(p, cfg))["passed"]

    def test_near_marginal_imaginary_lambda(self):
        # |lambda| = 0.479 kappa, just inside the kappa/2 stability edge
        p = make_params(chi=0.03, kappa_tau=3.0, phi_in=0.1, phi_h=0.9)
        cfg = ics.IcsConfig(0.24, 1.7)
        assert ics.ics_stability(p, cfg).stable
        assert oracle.oracle_check(p, cfg, ics.ics_moments(p, cfg),
                                   steps=16384)["passed"]

    def test_fast_bogoliubov_rotation(self):
        p = make_params(kappa_tau=5.0)
        cfg = combined.CombinedConfig(r=math.log(10.0), omega_sq=50.0, theta=2.5)
        op = combined.operating_params(p, cfg)
        assert oracle.oracle_check(op, cfg, combined.combined_moments(p, cfg))["passed"]

    def test_negative_mismatches(self):
        p = make_params(kappa_tau=5.0)
        cfg = combined.CombinedConfig(r=1.8, omega_sq=3.0, theta=-3.0,
                                      delta_r=-0.15, delta_p=-0.12)
        op = combined.operating_params(p, cfg)
        assert oracle.oracle_check(op, cfg, combined.combined_moments(p, cfg),
                                   steps=16384)["passed"]


@st.composite
def mismatched_points(draw):
    """(params, cfg) with delta_r, delta_p in [-0.2, 0.2], r in [0, ln 10] with r_c >= 0,
    kappa*tau in [0.01, 100] and chi in [0.1, 1] kappa; omega_sq is the root."""
    delta_r, delta_p = (draw(st.floats(-0.2, 0.2)) for _ in range(2))
    r = draw(st.floats(max(0.0, -delta_r), math.log(10.0)))
    kappa_tau = 10.0 ** draw(st.floats(-2.0, 2.0))
    params = make_params(kappa_tau=kappa_tau, chi=draw(st.floats(0.1, 1.0)))
    return params, combined.CombinedConfig(r=r, delta_r=delta_r, delta_p=delta_p)


class TestCombinedAgainstOracle:
    """combined_moments, the mismatched noise included, against the cavity-mode oracle model."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(point=mismatched_points())
    # long times, where the paper's factor e^{kappa tau} leaves the float range from 709.78
    @example(point=(make_params(kappa_tau=300.0),
                    combined.CombinedConfig(r=math.log(10.0), delta_r=0.1, delta_p=0.05)))
    @example(point=(make_params(kappa_tau=800.0),
                    combined.CombinedConfig(r=math.log(10.0), delta_r=0.1, delta_p=0.05)))
    def test_within_the_oracle_residual(self, point):
        # 10 K -> 2K residuals bound the oracle's own error; the 1e-12 relative floor is
        # the rounding of the closed forms and of the oracle's sums
        params, cfg = point
        analytic = combined.combined_moments(params, cfg)
        op, cfg = cfg.operating_point(params)
        for state in QubitState:
            res = oracle.oracle_moments(oracle.build_system(op, cfg, state))
            for got, want, residual in zip(analytic.of(state), res.richardson, res.residual):
                assert abs(got - want) <= 10.0 * abs(residual) + 1e-12 * abs(want), (
                    state, got, want, residual)


class TestClosedFormExponential:
    """exp(A t) of the oracle's closed 2x2 form against exact references."""

    @staticmethod
    def expm(a, ts):
        a = oracle._Mat.of(np.asarray(a, dtype=complex).tolist())
        return np.array([np.reshape(oracle._expm_minus_one(a, t), (2, 2)) for t in ts]) + np.eye(2)

    @pytest.mark.parametrize("a", [-0.5, -0.5 - 0.3j, -2.0 + 1.5j, 0.0])
    def test_jordan_block(self, a):
        # mu = 0: the drift is defective and has no eigenbasis
        ts = np.linspace(0.0, 20.0, 101)
        want = np.exp(a * ts)[:, None, None] * np.array([[1.0, 1.0], [0.0, 1.0]])
        want[:, 0, 1] *= ts
        np.testing.assert_allclose(self.expm([[a, 1.0], [0.0, a]], ts), want,
                                   rtol=0.0, atol=1e-13)
        # a split of 1e-10 goes through the expm1 branch, O(1e-20 t^2) away
        np.testing.assert_allclose(self.expm([[a, 1.0], [1e-20, a]], ts), want,
                                   rtol=0.0, atol=1e-13)

    def test_diagonalizable_matches_eigendecomposition(self):
        rng = np.random.default_rng(9)
        ts = np.linspace(0.0, 5.0, 51)
        checked = 0
        while checked < 50:
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a -= (np.max(np.linalg.eigvals(a).real) + rng.uniform(0.0, 1.0)) * np.eye(2)
            evals, vecs = np.linalg.eig(a)
            if np.linalg.cond(vecs) > 10.0:
                continue
            want = np.einsum("ij,tj,jk->tik", vecs, np.exp(np.outer(ts, evals)),
                             np.linalg.inv(vecs))
            np.testing.assert_allclose(self.expm(a, ts), want, rtol=0.0, atol=1e-13)
            checked += 1

    def test_complex_expm1_against_mpmath(self):
        # |z| from 1e-20 to 30 in every direction, and on both axes
        rng = np.random.default_rng(12)
        mags = np.geomspace(1e-20, 30.0, 400)
        zs = [complex(m * math.cos(w), m * math.sin(w))
              for m, w in zip(mags, rng.uniform(-math.pi, math.pi, mags.size))]
        zs += [complex(m, 0.0) for m in (-30.0, -1e-8, 1e-20, 0.7)]
        zs += [complex(0.0, m) for m in (-30.0, 1e-12, 2.5)]
        with mp.workdps(40):
            for z in zs:
                got = oracle._expm1(z)
                want = mp.expm1(mp.mpc(z.real, z.imag))
                assert abs(mp.mpc(got.real, got.imag) - want) <= 1e-15 * abs(want), z

    def test_long_time_no_overflow(self):
        # chi = 0, Omega = 0.24 kappa: the modes decay at kappa/2 -+ 2 Omega, so
        # e^{st} cosh(mu t) would overflow (and e^{st} underflow) by kappa*tau = 3000
        p = make_params(chi=0.0, kappa_tau=3000.0)
        system = oracle.build_system(p, ics.IcsConfig(0.24, 0.0), QubitState.UP)
        res = oracle.oracle_moments(system)
        # the discretization defect falls as 1/K^2; 4e-7 at this K
        assert oracle.commutator_defect(system, steps=res.steps) < 1e-6
        assert np.all(np.isfinite([res.mean_M, res.var_M, *res.richardson, *res.residual]))
        assert res.var_M > 0.0
        assert abs(res.residual[1]) < 1e-6 * res.var_M


class TestReferenceSums:
    """The O(log K) interval-split sums against the O(K) bin-by-bin reference."""

    @pytest.mark.parametrize("scheme", ["ies", "ics", "combined"])
    def test_random_stable_points(self, scheme):
        rng = np.random.default_rng({"ies": 31, "ics": 32, "combined": 33}[scheme])
        for _ in range(300):
            system = draw_system(rng, scheme)
            steps = int(10.0 ** rng.uniform(math.log10(64), math.log10(8192)))
            assert_matches_reference(system, steps, both_quadratures=scheme == "combined")

    @pytest.mark.parametrize("steps", [4097, 6400])
    def test_non_power_of_two_bins(self, steps):
        rng = np.random.default_rng(steps)
        for scheme in ("ies", "ics", "combined"):
            for _ in range(3):
                assert_matches_reference(draw_system(rng, scheme), steps)

    @pytest.mark.parametrize("kappa_tau", [1e-4, 1.0, 100.0])
    def test_exceptional_point(self, kappa_tau):
        # chi = 2 Omega: the drift is defective, mu = 0
        p = make_params(chi=0.2, kappa_tau=kappa_tau, phi_in=0.4, phi_h=1.1)
        system = oracle.build_system(p, ics.IcsConfig(0.1, 0.7), QubitState.DOWN)
        assert oracle._split(oracle._Mat.of(system.drift))[2] == 0
        for steps in (4096, 8192):
            assert_matches_reference(system, steps)

    @pytest.mark.parametrize("kappa_tau", [1e-4, 1.0, 100.0])
    def test_near_threshold(self, kappa_tau):
        # 4 Omega within 4e-9 of kappa: the slow mode decays at ~2e-9 kappa
        p = make_params(chi=0.5, kappa_tau=kappa_tau, phi_in=0.2, phi_h=0.9)
        system = oracle.build_system(p, ics.IcsConfig(0.25 - 1e-9, 0.3), QubitState.UP)
        for steps in (4096, 8192):
            assert_matches_reference(system, steps)

    def test_long_time(self):
        # kappa*tau = 3000: K = 192,000 and 2K through oracle_moments
        p = make_params(chi=0.0, kappa_tau=3000.0)
        system = oracle.build_system(p, ics.IcsConfig(0.24, 0.0), QubitState.UP)
        res = oracle.oracle_moments(system)
        assert res.steps == 192000
        for steps in (res.steps, 2 * res.steps):
            assert_matches_reference(system, steps)


class TestExceptionalPoint:
    """chi = 2 Omega, where the ICS drift is defective."""

    @pytest.mark.parametrize("steps", [4096, 65536])
    def test_oracle_check_passes(self, steps):
        p = make_params(chi=0.2)
        cfg = ics.IcsConfig(0.1, ics.optimal_theta(p, 0.1))
        analytic = ics.ics_moments(p, cfg)
        report = oracle.oracle_check(p, cfg, analytic, steps=steps)
        assert report["passed"]
        for entry in report["states"].values():
            assert entry["mean_oracle"] == pytest.approx(entry["mean_analytic"], rel=1e-9)
            assert abs(entry["residual"][0]) < 1e-9 * abs(entry["mean_oracle"])

    def test_default_steps_at_defective_drift(self):
        p = make_params(chi=0.2, kappa_tau=100.0)
        system = oracle.build_system(p, ics.IcsConfig(0.1), QubitState.UP)
        assert oracle.default_steps(system) == 6400
