import math

import numpy as np
import pytest

from sqreadout.core import IndefiniteCovarianceError, QubitState, ReadoutParams
from sqreadout import combined, figures, ics, ies, phasespace

LN10 = math.log(10.0)


def make_params(kappa_tau=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0,
                phi_h=math.pi / 2.0):
    return ReadoutParams(1.0, chi, alpha_in, phi_in, phi_h, kappa_tau)


class TestReconstruct:
    def test_vacuum_state(self):
        p = make_params(alpha_in=0.0)
        st = phasespace.pointer_state(p, ies.IesConfig(0.0, 0.0))[QubitState.UP]
        assert st.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert st.mean[1] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(st.cov, 0.25 * np.eye(2), atol=1e-12)

    def test_angle_set_independence(self):
        # built from the noises at 0, pi/4 and pi/2, the covariance gives the
        # noise h^T cov h 4 kappa tau at any other angle, h = (cos phi, sin phi)
        p = make_params()
        for cfg in (ies.IesConfig(0.8, 0.9), ics.IcsConfig(0.2, 0.4),
                    combined.CombinedConfig(r=1.0, theta=0.4)):
            states = phasespace.pointer_state(p, cfg)
            op, solved = cfg.operating_point(p)
            for phi in (math.pi / 6, math.pi / 3, 2.0):
                moments = solved.moments(op.with_(phi_h=op.phi_h + phi))
                h = np.array([math.cos(phi), math.sin(phi)])
                for state, st in states.items():
                    predicted = float(h @ st.cov @ h) * 4.0 * op.kappa_tau
                    assert predicted == pytest.approx(moments.of(state)[1], rel=1e-9), cfg

    def test_uncertainty_bound_on_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = make_params(kappa_tau=rng.uniform(0.2, 4.0), chi=rng.uniform(0.1, 1.5),
                            phi_h=rng.uniform(-math.pi, math.pi))
            cfg = ies.IesConfig(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
            st = phasespace.pointer_state(p, cfg)[QubitState.DOWN]
            assert st.det >= 1.0 / 16.0 - 1e-12
        for _ in range(25):
            p = make_params(kappa_tau=rng.uniform(0.2, 4.0), chi=rng.uniform(0.1, 1.5),
                            phi_h=rng.uniform(-math.pi, math.pi))
            cfg = ics.IcsConfig(rng.uniform(0.0, 0.24), rng.uniform(-math.pi, math.pi))
            st = phasespace.pointer_state(p, cfg)[QubitState.UP]
            assert st.det >= 1.0 / 16.0 - 1e-12

    def test_combined_covariance_state_independent(self):
        p = make_params(phi_h=0.0)
        cfg = combined.CombinedConfig(r=LN10)
        states = phasespace.pointer_state(p, cfg)
        st_up, st_down = states[QubitState.UP], states[QubitState.DOWN]
        assert np.allclose(st_up.cov, st_down.cov, atol=1e-12)
        assert st_up.mean != st_down.mean

    def test_combined_eigenvalues(self):
        p = make_params(phi_h=0.0)
        st = phasespace.pointer_state(p, combined.CombinedConfig(r=LN10))[QubitState.UP]
        eigs = np.linalg.eigvalsh(st.cov)
        assert eigs[0] == pytest.approx(math.exp(-2 * LN10) / 4.0, rel=1e-10)
        assert eigs[1] == pytest.approx(math.exp(2 * LN10) / 4.0, rel=1e-10)

    def test_schemes_covariances_differ_between_states(self):
        p = make_params()
        states = phasespace.pointer_state(p, ies.IesConfig(0.8, 0.4))
        st_up, st_down = states[QubitState.UP], states[QubitState.DOWN]
        assert not np.allclose(st_up.cov, st_down.cov, atol=1e-6)
        cfg = ics.IcsConfig(0.2, 0.4)
        states = phasespace.pointer_state(p, cfg)
        st_up, st_down = states[QubitState.UP], states[QubitState.DOWN]
        assert not np.allclose(st_up.cov, st_down.cov, atol=1e-6)

    def test_solve_from_three_samples(self):
        # the means come from the signals at 0 and pi/2, the covariance from all three noises
        samples = [(math.cos(phi), 1.0) for phi in phasespace.PROBE_ANGLES]
        st = phasespace.reconstruct_state(samples, 1.0, 1.0)
        assert st.mean == (0.5, math.cos(math.pi / 2.0) / 2.0)
        assert np.allclose(st.cov, 0.25 * np.eye(2), atol=1e-12)

    def test_pointer_state_asks_three_moments(self):
        # one moments call per probe angle answers for both qubit states
        calls = []

        class Counting(ies.IesConfig):
            def moments(self, params):
                calls.append(params.phi_h)
                return super().moments(params)

        p = make_params()
        states = phasespace.pointer_state(p, Counting(0.8, 0.9))
        assert list(states) == list(QubitState)
        assert calls == [p.with_(phi_h=p.phi_h + phi).phi_h for phi in phasespace.PROBE_ANGLES]

    def test_figS5_rows_make_nine_moments_calls(self, monkeypatch):
        # three kappa*tau rows, one pointer_state each: three probe angles, both states
        calls = []
        real = combined.CombinedConfig.moments

        def counted(self, params):
            calls.append(params)
            return real(self, params)

        monkeypatch.setattr(combined.CombinedConfig, "moments", counted)
        figures.figS5_rows()
        assert len(calls) == 9


class TestRecordContract:
    def test_equal_fields_compare_and_hash_equal(self):
        a = phasespace.GaussianState2D((0.4, -0.2), np.array([[0.3, 0.1], [0.1, 0.5]]))
        b = phasespace.GaussianState2D((0.4, -0.2), ((0.3, 0.1), (0.1, 0.5)))
        assert a == b and hash(a) == hash(b)
        assert a.cov == ((0.3, 0.1), (0.1, 0.5))
        assert a != phasespace.GaussianState2D((0.4, -0.2), ((0.3, 0.1), (0.1, 0.6)))

    def test_pointer_states_compare_by_value(self):
        p = make_params()
        first, second = (phasespace.pointer_state(p, ies.IesConfig(0.8, 0.9)) for _ in range(2))
        assert first == second
        assert len(set(first.values()) | set(second.values())) == 2

    def test_zero_covariance_rejected(self):
        # no major variance to divide by: the check reads xx and det only
        with pytest.raises(IndefiniteCovarianceError, match="not positive definite"):
            phasespace.GaussianState2D((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))


def seeded_covariances():
    """General, near-round and diagonal-up-to-rounding covariances, xy of both signs."""
    rng = np.random.default_rng(20)
    covs = []
    for _ in range(40):
        a, b = rng.uniform(0.05, 3.0, 2)
        c = rng.uniform(-0.95, 0.95) * math.sqrt(a * b)
        covs.append(((a, c), (c, b)))
    for _ in range(20):
        # strongly squeezed (up to e^{+-2 ln 10}) along a random axis
        r, t = rng.uniform(0.0, LN10), rng.uniform(-math.pi, math.pi)
        lo, hi = math.exp(-2.0 * r) / 4.0, math.exp(2.0 * r) / 4.0
        c, s = math.cos(t), math.sin(t)
        xy = (lo - hi) * c * s
        covs.append(((lo * c * c + hi * s * s, xy), (xy, lo * s * s + hi * c * c)))
    for spread in (1e-6, 1e-9, 1e-14):
        for _ in range(10):
            a = rng.uniform(0.1, 2.0)
            d1, d2, d3 = rng.uniform(-spread, spread, 3) * a
            covs.append(((a + d1, d3), (d3, a + d2)))
    for _ in range(20):
        a, b = 10.0 ** rng.uniform(-6.0, 1.0, 2)
        c = rng.uniform(-4.0, 4.0) * 1e-16 * max(a, b)
        covs.append(((a, c), (c, b)))
    return covs


class TestClosedForms:
    def test_against_eigh(self):
        # numpy's symmetric eigensolver is the reference for the 2x2 closed forms
        for cov in seeded_covariances():
            st = phasespace.GaussianState2D((0.0, 0.0), cov)
            (xx, xy), (_, yy) = cov
            ref_vals, ref_vecs = np.linalg.eigh(np.array(cov))
            minor, major = st.eigenvalues
            assert abs(minor - ref_vals[0]) <= 1e-13 * major, cov
            assert abs(major - ref_vals[1]) <= 1e-13 * major, cov
            assert abs(st.det - np.linalg.det(np.array(cov))) <= 1e-14 * (xx * yy + xy * xy), cov
            diag = phasespace.ellipse(st)
            assert diag.xi2_dB == pytest.approx(10.0 * math.log10(ref_vals[0] / 0.25),
                                                abs=1e-12 * major / minor), cov
            assert -math.pi / 2.0 < diag.theta_N <= math.pi / 2.0, cov
            gap = major - minor
            if gap <= 1e-12 * major:
                assert diag.theta_N == 0.0, cov
                continue
            # the axis of eigh's minor eigenvector, to its conditioning eps major / gap
            ref = math.atan2(ref_vecs[1, 0], ref_vecs[0, 0])
            assert abs(math.remainder(diag.theta_N - ref, math.pi)) <= 1e-12 * major / gap, cov
            if abs(xy) <= 1e-12 * major:
                # diagonal up to rounding: the axes are X and Y, the minor variance keeps
                # its relative accuracy however strong the squeeze
                assert diag.theta_N == (0.0 if xx <= yy else math.pi / 2.0), cov
                assert minor == pytest.approx(min(xx, yy), rel=1e-14, abs=0.0), cov

    def test_figS5_axes_exactly_on_x(self):
        # the combined states are diagonal up to rounding: theta_N is 0.0, not +-1e-17
        rows = figures.figS5_rows()
        assert [(row["theta_N_up"], row["theta_N_down"]) for row in rows] == [(0.0, 0.0)] * 3


class TestEllipse:
    def test_round_state_conventions(self):
        st = phasespace.GaussianState2D((0.0, 0.0), 0.25 * np.eye(2))
        diag = phasespace.ellipse(st)
        assert diag.theta_N == 0.0
        assert diag.xi2_dB == pytest.approx(0.0, abs=1e-12)
        assert diag.xi2_N == pytest.approx(1.0, rel=1e-12)

    def test_squeezed_state_db(self):
        r = 0.7
        st = phasespace.GaussianState2D(
            (0.0, 0.0), np.diag([math.exp(-2 * r) / 4.0, math.exp(2 * r) / 4.0]))
        diag = phasespace.ellipse(st)
        assert diag.theta_N == pytest.approx(0.0, abs=1e-12)
        assert diag.xi2_dB == pytest.approx(-8.6859 * r, abs=1e-3)

    def test_theta_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.uniform(0.1, 1.0)
            b = rng.uniform(0.1, 1.0)
            c = rng.uniform(-0.9, 0.9) * math.sqrt(a * b)
            cov = np.array([[a, c], [c, b]]) + 0.3 * np.eye(2)
            diag = phasespace.ellipse(phasespace.GaussianState2D((0, 0), cov))
            assert -math.pi / 2.0 < diag.theta_N <= math.pi / 2.0

    def test_mirror_symmetry_at_ies_optimum(self):
        p, cfg = figures.ies_optimal_setting(1.0)
        states = phasespace.pointer_state(p, cfg)
        up = phasespace.ellipse(states[QubitState.UP])
        down = phasespace.ellipse(states[QubitState.DOWN])
        assert up.theta_N != 0.0
        assert up.theta_N == pytest.approx(-down.theta_N, abs=1e-6)
        assert up.xi2_N == pytest.approx(down.xi2_N, rel=1e-9)


class TestWigner:
    def test_vacuum_peak(self):
        st = phasespace.GaussianState2D((0.0, 0.0), 0.25 * np.eye(2))
        x, y, w = phasespace.wigner_grid(st, (-4.0, 4.0), 201)
        assert w.max() == pytest.approx(2.0 / math.pi, rel=1e-12)
        iy, ix = np.unravel_index(np.argmax(w), w.shape)
        assert x[ix] == pytest.approx(0.0, abs=1e-12)
        assert y[iy] == pytest.approx(0.0, abs=1e-12)

    def test_normalization(self):
        st = phasespace.GaussianState2D((0.4, -0.2), np.array([[0.3, 0.1], [0.1, 0.5]]))
        x, y, w = phasespace.wigner_grid(st, (-6.0, 6.0), 401)
        cell = (x[1] - x[0]) * (y[1] - y[0])
        assert float(w.sum() * cell) == pytest.approx(1.0, abs=1e-6)

    def test_combined_states_share_covariance(self):
        p = make_params(phi_h=0.0, kappa_tau=2.0)
        cfg = combined.CombinedConfig(r=1.0)
        states = phasespace.pointer_state(p, cfg)
        st_up, st_down = states[QubitState.UP], states[QubitState.DOWN]
        assert np.allclose(st_up.cov, st_down.cov, atol=1e-12)
        _, _, w_up = phasespace.wigner_grid(st_up, (-8.0, 8.0), 101)
        _, _, w_down = phasespace.wigner_grid(st_down, (-8.0, 8.0), 101)
        assert not np.allclose(w_up, w_down)

    def test_resolution_floor(self):
        st = phasespace.GaussianState2D((0.0, 0.0), 0.25 * np.eye(2))
        with pytest.raises(ValueError):
            phasespace.wigner_grid(st, (-4.0, 4.0), 8)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(IndefiniteCovarianceError):
            phasespace.GaussianState2D((0.0, 0.0), np.array([[0.25, 0.5], [0.5, 0.25]]))


class TestIcsLongTimeSqueezing:
    def test_degree_converges_to_reference(self):
        p, cfg = figures.ics_optimal_setting(200.0)
        diag = phasespace.ellipse(phasespace.pointer_state(p, cfg)[QubitState.UP])
        assert abs(diag.xi2_dB) == pytest.approx(1.28, abs=0.02)
