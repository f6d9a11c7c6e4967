"""Contract of the scheme protocol: each config type answers for its own scheme.

A config supplies operating_point, moments and linear_system; the scheme
moments, the oracle and the phase-space reconstruction use nothing else.
"""

import math

import pytest

from sqreadout.core import ReadoutParams, scheme_moments
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
        for name in ("_signal_pair", "_integrals", "_require_stable"):
            counting(monkeypatch, ics, name, calls)
        p = ReadoutParams(1.0, 0.5, 1.0, 0.0, math.pi / 2.0, 3.16)
        ics.ics_moments(p, ics.IcsConfig(0.15, 0.3))
        assert calls == {"_signal_pair": 1, "_integrals": 1, "_require_stable": 1}

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
