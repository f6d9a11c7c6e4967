"""Contract of the scheme protocol: each config type answers for its own scheme.

A config supplies operating_point, moments, linear_system and record_fields;
the scheme moments, the oracle, the phase-space reconstruction and the CLI
record use nothing else.
"""

import math

import pytest

from sqreadout.core import QubitState, ReadoutParams, scheme_moments
from sqreadout import combined, ics, ies, oracle, phasespace


def make_params(kappa_tau=1.0):
    return ReadoutParams(1.0, 0.5, 1.0, 0.0, math.pi / 2.0, kappa_tau)


class DelegatingConfig:
    """A scheme known only through the protocol methods, borrowed from another config."""

    def __init__(self, inner):
        self.inner = inner

    def operating_point(self, params):
        params, inner = self.inner.operating_point(params)
        return params, DelegatingConfig(inner)

    def moments(self, params):
        return self.inner.moments(params)

    def linear_system(self, params, state):
        return self.inner.linear_system(params, state)


INNER = [ies.IesConfig(0.8, 1.1), combined.CombinedConfig(r=1.0, theta=0.4)]


@pytest.mark.parametrize("inner", INNER, ids=["ies", "combined"])
class TestSchemeProtocol:
    """A new scheme plugs in through its config type alone: no consumer switches on it."""

    def test_scheme_moments(self, inner):
        p = make_params(kappa_tau=0.7)
        assert scheme_moments(p, DelegatingConfig(inner)) == scheme_moments(p, inner)

    def test_oracle_check(self, inner):
        p = make_params(kappa_tau=0.7)
        analytic = scheme_moments(p, inner)
        got = oracle.oracle_check(p, DelegatingConfig(inner), analytic, steps=256)
        assert got == oracle.oracle_check(p, inner, analytic, steps=256)

    def test_pointer_state(self, inner):
        p = make_params(kappa_tau=0.7)
        got = phasespace.pointer_state(p, DelegatingConfig(inner))
        assert got == phasespace.pointer_state(p, inner)


class TestCombinedOperatingPoint:
    def test_oracle_runs_there(self):
        # combined_moments overrides the caller's phases (here phi_h = pi/2); the
        # oracle must too, or the correct closed form fails (UP mean 1.85 against 3.41)
        p, cfg = make_params(), combined.CombinedConfig(r=1.0)
        analytic = combined.combined_moments(p, cfg)
        assert oracle.oracle_check(p, cfg, analytic, steps=1024)["passed"]

    def test_phases_and_root(self):
        # phi_h = phi_in = theta/2, and omega_sq solved once for every later call
        p = make_params(kappa_tau=0.7)
        cfg = combined.CombinedConfig(r=math.log(10.0), theta=0.6)
        op, solved = cfg.operating_point(p)
        assert op.phi_h == op.phi_in == 0.3
        assert solved.omega_sq == combined.solve_omega_sq(p, cfg.r_c, cfg.epsilon)
        assert solved.operating_point(op) == (op, solved)
        assert scheme_moments(p, cfg) == combined.combined_moments(p, cfg)


class TestUnsetFields:
    """None leaves a field to the config: operating_point makes a phase the noise-optimal one."""

    # the noise shape F and the ICS Gs are positive at the first point and negative at the second
    POINTS = [(0.5, 1.0), (1.0, 3.0)]

    @pytest.mark.parametrize("chi, kappa_tau", POINTS, ids=["F>0", "F<0"])
    def test_ies_varphi(self, chi, kappa_tau):
        p = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        want = ies.IesConfig(0.7, ies.optimal_varphi(p))
        assert ies.IesConfig(0.7, None).operating_point(p) == (p, want)
        assert scheme_moments(p, ies.IesConfig(0.7, None)) == scheme_moments(p, want)
        assert ies.ies_moments(p, ies.IesConfig(0.7, None)) == ies.ies_moments(p, want)

    @pytest.mark.parametrize("chi, kappa_tau", POINTS, ids=["Gs>0", "Gs<0"])
    def test_ics_theta(self, chi, kappa_tau):
        p = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        want = ics.IcsConfig(0.15, ics.optimal_theta(p, 0.15))
        assert ics.IcsConfig(0.15, None).operating_point(p) == (p, want)
        assert scheme_moments(p, ics.IcsConfig(0.15, None)) == scheme_moments(p, want)
        assert ics.ics_moments(p, ics.IcsConfig(0.15, None)) == ics.ics_moments(p, want)

    @pytest.mark.parametrize("chi, kappa_tau", POINTS, ids=["F>0", "F<0"])
    def test_ies_methods_fill_varphi(self, chi, kappa_tau):
        # the config's own moments and oracle model run at its operating point too
        p = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        unset, want = ies.IesConfig(0.5, None), ies.IesConfig(0.5, ies.optimal_varphi(p))
        assert unset.moments(p) == want.moments(p)
        for state in QubitState:
            assert unset.linear_system(p, state) == want.linear_system(p, state)

    @pytest.mark.parametrize("chi, kappa_tau", POINTS, ids=["Gs>0", "Gs<0"])
    def test_ics_linear_system_fills_theta(self, chi, kappa_tau):
        p = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        unset, want = ics.IcsConfig(0.1, None), ics.IcsConfig(0.1, ics.optimal_theta(p, 0.1))
        for state in QubitState:
            assert unset.linear_system(p, state) == want.linear_system(p, state)

    def test_combined_theta_means_zero(self):
        assert combined.CombinedConfig(1.0, None) == combined.CombinedConfig(1.0, 0.0)
        assert combined.CombinedConfig(1.0, None).theta == 0.0

    def test_library_defaults_unchanged(self):
        assert ies.IesConfig(0.7).varphi == 0.0 and ics.IcsConfig(0.15).theta == 0.0
        assert combined.CombinedConfig(1.0).theta == 0.0


class TestStandardConfig:
    def test_is_ies_without_squeezing(self):
        p = make_params(kappa_tau=0.7)
        assert ies.StandardConfig() == ies.StandardConfig(0.0, 0.0)
        assert ies.StandardConfig().operating_point(p) == (p, ies.StandardConfig())
        assert ies.StandardConfig().moments(p) == ies.IesConfig(0.0, 0.0).moments(p)

    @pytest.mark.parametrize("fields", [(0.5, 0.0), (0.0, 1.0), (0.0, None), (math.nan, 0.0)])
    def test_fields_are_fixed(self, fields):
        with pytest.raises(ValueError, match="standard readout has r = 0 and varphi = 0"):
            ies.StandardConfig(*fields)


@pytest.mark.parametrize("cfg, keys", [
    (ies.StandardConfig(), "n_tau"),
    (ies.IesConfig(0.5, None), "r varphi noise_shape n_tau"),
    (ics.IcsConfig(0.15, None), "omega_2ph theta lambda_re lambda_im r_out n_tau"),
    (combined.CombinedConfig(1.0, delta_r=0.1), "r theta varphi delta_r delta_p epsilon omega_sq "
     "delta_c omega_2ph chi_sq psi_sq g delta_q n_critical n_beta_up n_beta_down"),
], ids=["standard", "ies", "ics", "combined"])
def test_record_fields(cfg, keys):
    # each config names its own record fields, in the order the CLI prints them
    p, cfg = cfg.operating_point(make_params())
    fields = cfg.record_fields(p)
    assert list(fields) == keys.split()
    assert all(math.isfinite(value) for value in fields.values())


def counting(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that counts its calls under calls[name]."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(wrapper) if isinstance(owner, type)
                        else wrapper)


class TestSharedWork:
    """One moments evaluation computes the work both qubit states share once."""

    def test_ics_one_kernel(self, monkeypatch):
        calls = {}
        for name in ("_pair_kernel", "_oscillation", "_require_stable"):
            counting(monkeypatch, ics, name, calls)
        p = ReadoutParams(1.0, 0.5, 1.0, 0.0, math.pi / 2.0, 3.16)
        ics.ics_moments(p, ics.IcsConfig(0.15, 0.3))
        assert calls == {"_pair_kernel": 1, "_oscillation": 1, "_require_stable": 1}

    def test_ies_one_kernel(self, monkeypatch):
        calls = {}
        counting(monkeypatch, ies, "_pair_kernel", calls)
        ies.ies_moments(make_params(), ies.IesConfig(0.5, 0.3))
        assert calls == {"_pair_kernel": 1}

    def test_ies_one_noise_pair(self, monkeypatch):
        calls = {}
        for name in ("_noise_pair", "ies_noise"):
            counting(monkeypatch, ies, name, calls)
        ies.ies_moments(make_params(), ies.IesConfig(0.5, 0.3))
        assert calls == {"_noise_pair": 1}

    @pytest.mark.parametrize("delta_r, delta_p, noise_pairs", [
        (0.0, 0.0, 0), (0.1, 0.05, 1)], ids=["matched", "mismatched"])
    def test_combined_one_pair_each(self, monkeypatch, delta_r, delta_p, noise_pairs):
        cfg = combined.CombinedConfig(r=1.0, delta_r=delta_r, delta_p=delta_p)
        op, solved = cfg.operating_point(make_params())
        calls = {}
        for name in ("_signal_pair", "_mismatch_noise_pair", "combined_signal", "mismatch_noise"):
            counting(monkeypatch, combined, name, calls)
        combined.combined_moments(op, solved)
        assert calls == {"_signal_pair": 1, **({"_mismatch_noise_pair": 1} if noise_pairs else {})}

    @pytest.mark.parametrize("delta_r, delta_p, mismatch_derives", [
        (0.0, 0.0, 0), (0.1, 0.05, 1)], ids=["matched", "mismatched"])
    def test_combined_one_derive(self, monkeypatch, delta_r, delta_p, mismatch_derives):
        cfg = combined.CombinedConfig(r=1.0, delta_r=delta_r, delta_p=delta_p)
        op, solved = cfg.operating_point(make_params())
        dispersive, mismatch = {}, {}
        counting(monkeypatch, combined.DispersiveParams, "derive", dispersive)
        counting(monkeypatch, combined.MismatchParams, "derive", mismatch)
        combined.combined_moments(op, solved)
        assert dispersive.get("derive", 0) == 1
        assert mismatch.get("derive", 0) == mismatch_derives
