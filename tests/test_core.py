import math

import numpy as np
import pytest

from sqreadout.core import (DegenerateNoiseError, MeasurementMoments, QubitState,
                            ReadoutParams, ZeroSignalError, fidelity_and_error,
                            psi_from_rate, reduce_angle, replace, required_tone_amplitude,
                            snr, standard_readout_moments, summarize)
from sqreadout import combined
from sqreadout.ics import IcsConfig
from sqreadout.ies import IesConfig


def make_params(kappa_tau=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0,
                phi_h=math.pi / 2.0, kappa=1.0):
    return ReadoutParams(kappa, chi * kappa, alpha_in * math.sqrt(kappa),
                         phi_in, phi_h, kappa_tau / kappa)


class TestPsiFromRate:
    def test_zero_rate(self):
        assert psi_from_rate(0.0, 1.0) == 0.0

    def test_forced_by_definition(self):
        assert psi_from_rate(0.5, 1.0) == pytest.approx(math.pi / 4.0, abs=1e-15)

    def test_odd(self):
        for x in (0.1, 0.5, 2.0, 17.0):
            assert psi_from_rate(-x, 1.0) == -psi_from_rate(x, 1.0)

    def test_strictly_increasing(self):
        xs = np.linspace(-5, 5, 101)
        vals = [psi_from_rate(x, 1.0) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            psi_from_rate(1.0, 0.0)


class TestSnr:
    def test_simple(self):
        m = MeasurementMoments(1.0, -1.0, 2.0, 2.0)
        assert snr(m) == pytest.approx(1.0, abs=1e-15)

    def test_identical_pointer_states(self):
        m = MeasurementMoments(0.7, 0.7, 1.0, 3.0)
        assert snr(m) == 0.0

    def test_degenerate_noise(self):
        with pytest.raises(DegenerateNoiseError):
            MeasurementMoments(1.0, 0.0, -1.0, 0.5)
        with pytest.raises(DegenerateNoiseError):
            snr(MeasurementMoments(1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        su, sd, nu, nd = rng.uniform(0.1, 3.0, 4)
        c = rng.uniform(0.1, 10.0)
        base = snr(MeasurementMoments(su, -sd, nu, nd))
        scaled = snr(MeasurementMoments(c * su, -c * sd, c * c * nu, c * c * nd))
        assert scaled == pytest.approx(base, rel=1e-12)


class TestFidelity:
    def test_zero(self):
        assert fidelity_and_error(0.0) == (0.5, 0.5)

    def test_monotone_and_limit(self):
        grid = np.linspace(0.0, 20.0, 200)
        fids = [fidelity_and_error(s)[0] for s in grid]
        assert all(b >= a for a, b in zip(fids, fids[1:]))
        assert fids[-1] == pytest.approx(1.0, abs=1e-15)

    def test_erf_accuracy(self):
        # tabulated erf values
        assert math.erf(1.0) == pytest.approx(0.84270079294971486934, abs=1e-14)
        assert math.erf(2.0) == pytest.approx(0.99532226501895273416, abs=1e-14)
        assert math.erf(0.5) == pytest.approx(0.52049987781304653768, abs=1e-14)

    def test_reference_errors(self):
        assert fidelity_and_error(5.5)[1] == pytest.approx(4.4e-5, abs=0.7e-5)
        assert fidelity_and_error(0.18)[1] == pytest.approx(0.45, abs=0.005)

    def test_error_complements_fidelity(self):
        fid, err = fidelity_and_error(2.3)
        assert fid + err == pytest.approx(1.0, abs=1e-15)


class TestRequiredToneAmplitude:
    def test_zero_target(self):
        assert required_tone_amplitude(0.5, 0.0) == 0.0

    def test_zero_signal(self):
        with pytest.raises(ZeroSignalError):
            required_tone_amplitude(0.0, 1.0)

    @pytest.mark.parametrize("target", [0.3, 1.0, 4.0])
    def test_round_trip_standard(self, target):
        p = make_params()
        unit = snr(standard_readout_moments(p))
        a = required_tone_amplitude(unit, target)
        achieved = snr(standard_readout_moments(p.with_(alpha_in=a)))
        assert achieved == pytest.approx(target, rel=1e-9)

    def test_round_trip_combined(self):
        p = make_params(kappa_tau=0.2)
        cfg = combined.CombinedConfig(r=math.log(10.0))
        unit = snr(combined.combined_moments(p, cfg))
        a = required_tone_amplitude(unit, 1.0)
        achieved = snr(combined.combined_moments(p.with_(alpha_in=a), cfg))
        assert achieved == pytest.approx(1.0, rel=1e-9)


class TestStandardReadout:
    @pytest.mark.parametrize("kappa_tau", [0.3, 1.0, 4.0])
    def test_vacuum_noise(self, kappa_tau):
        m = standard_readout_moments(make_params(kappa_tau=kappa_tau))
        assert m.noise_up == pytest.approx(kappa_tau, rel=1e-15)
        assert m.noise_down == pytest.approx(kappa_tau, rel=1e-15)

    def test_headline_snr(self):
        assert snr(standard_readout_moments(make_params())) == pytest.approx(0.18, abs=0.005)

    def test_no_dispersive_shift(self):
        m = standard_readout_moments(make_params(chi=0.0))
        assert m.separation == 0.0

    def test_kappa_rescaling_invariance(self):
        base = standard_readout_moments(make_params())
        other = standard_readout_moments(make_params(kappa=3.7))
        assert other.signal_up == pytest.approx(base.signal_up, rel=1e-12)
        assert other.noise_up == pytest.approx(base.noise_up, rel=1e-12)


class TestParams:
    def test_angle_reduction(self):
        p = ReadoutParams(1.0, 0.5, 1.0, 3.5 * math.pi, -math.pi, 1.0)
        assert -math.pi < p.phi_in <= math.pi
        assert p.phi_in == pytest.approx(-0.5 * math.pi)
        assert p.phi_h == pytest.approx(math.pi)

    def test_reduce_angle_halfopen(self):
        assert reduce_angle(-math.pi) == pytest.approx(math.pi)
        assert reduce_angle(math.pi) == pytest.approx(math.pi)

    def test_reduce_angle_is_identity_in_range(self):
        # ReadoutParams stores an angle in (-pi, pi] as given, without reduce_angle
        rng = np.random.default_rng(3)
        for x in [math.pi, -0.0, 0.0, math.nextafter(-math.pi, 0.0), *rng.uniform(-4, 4, 200)]:
            p = ReadoutParams(1.0, 0.5, 1.0, float(x), float(x), 1.0)
            assert repr(p.phi_in) == repr(p.phi_h) == repr(reduce_angle(float(x)))

    @pytest.mark.parametrize("kwargs", [
        {"kappa": 0.0}, {"kappa": -1.0}, {"tau": 0.0}, {"alpha_in": -0.1},
        {"kappa": math.inf}, {"chi": math.nan}, {"alpha_in": math.inf},
        {"phi_in": math.inf}, {"phi_h": math.nan}, {"tau": math.inf},
    ])
    def test_validation(self, kwargs):
        base = dict(kappa=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0, phi_h=0.0, tau=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ReadoutParams(**base)

    def test_normalized_is_the_record_at_unit_kappa(self):
        p = ReadoutParams(1.0, 0.37, 1.9, 0.4, -1.1, 2.5)
        assert p.normalized() is p

    def test_normalized_rescales_other_kappa(self):
        p = ReadoutParams(2.0, 0.37, 1.9, 0.4, -1.1, 2.5)
        q = p.normalized()
        assert [v.hex() for v in q._values()] == [
            v.hex() for v in (1.0, 0.37 / 2.0, 1.9 / math.sqrt(2.0), 0.4, -1.1, 2.0 * 2.5)]

    def test_summary_consistency(self):
        m = standard_readout_moments(make_params())
        s = summarize(m)
        assert s.snr == pytest.approx(s.separation / math.sqrt(s.noise_sum), rel=1e-15)
        assert s.error == pytest.approx(1.0 - s.fidelity, abs=1e-15)
        assert 0.5 <= s.fidelity <= 1.0


class TestRecord:
    ARGS = (1.0, 0.5, 1.0, 0.25, 1.5, 2.0)
    FIELDS = ("kappa", "chi", "alpha_in", "phi_in", "phi_h", "tau")

    def test_positional_keyword_and_default_construction(self):
        p = ReadoutParams(*self.ARGS)
        assert p == ReadoutParams(**dict(zip(self.FIELDS, self.ARGS)))
        assert tuple(getattr(p, f) for f in self.FIELDS) == self.ARGS
        assert IesConfig(0.5) == IesConfig(r=0.5, varphi=0.0)
        assert combined.CombinedConfig(1.0).omega_sq is None

    @pytest.mark.parametrize("build", [
        lambda: IesConfig(),                        # missing field
        lambda: IesConfig(0.5, phi=1.0),            # unknown field
        lambda: IesConfig(0.5, r=0.6),              # repeated field
        lambda: ReadoutParams(1.0, 0.5, 1.0, 0.0, 0.0),
    ], ids=["missing", "unknown", "repeated", "missing-positional"])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_immutable(self):
        cfg = IesConfig(0.5, 0.1)
        with pytest.raises(AttributeError):
            cfg.r = 0.7
        with pytest.raises(AttributeError):
            del cfg.varphi
        assert cfg == IesConfig(0.5, 0.1)

    def test_equality_and_hash_by_type_and_fields(self):
        assert IesConfig(1.0, 0.0) != IcsConfig(1.0, 0.0)
        assert IesConfig(1.0, 0.0) != (1.0, 0.0)
        assert IesConfig(1.0, 0.2) != IesConfig(1.0, 0.3)
        a, b = ReadoutParams(*self.ARGS), ReadoutParams(*self.ARGS)
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({IesConfig(0.5, 0.1), IesConfig(0.5, 0.1), IcsConfig(0.5, 0.1)}) == 2

    def test_repr_has_dataclass_format(self):
        import dataclasses

        twin = dataclasses.make_dataclass("IesConfig", [("r", float), ("varphi", float, 0.0)],
                                          frozen=True)
        assert repr(IesConfig(0.5, 0.25)) == repr(twin(0.5, 0.25)) == \
            "IesConfig(r=0.5, varphi=0.25)"

    def test_replace_validates_again(self):
        p = ReadoutParams(*self.ARGS)
        assert p.with_(tau=3.0) == ReadoutParams(*self.ARGS[:5], 3.0)
        with pytest.raises(ValueError, match="tau must be positive"):
            p.with_(tau=-1.0)
        cfg = replace(IcsConfig(0.1, 0.2), theta=7.0)
        assert cfg.theta == reduce_angle(7.0) and cfg.omega_2ph == 0.1
        assert replace(combined.CombinedConfig(1.0), theta=7.0).theta == reduce_angle(7.0)
        with pytest.raises(TypeError):
            replace(cfg, phi=1.0)

    def test_subclass_inherits_fields(self):
        class Tagged(IesConfig):
            tag: str = "x"

        class Plain(IesConfig):
            pass

        t = Tagged(0.5, 7.0, tag="y")
        assert (t.r, t.varphi, t.tag) == (0.5, reduce_angle(7.0), "y")
        assert repr(Tagged(0.5)) == "TestRecord.test_subclass_inherits_fields.<locals>." \
            "Tagged(r=0.5, varphi=0.0, tag='x')"
        assert Plain(0.5, 0.1) != IesConfig(0.5, 0.1)
        assert replace(Plain(0.5), r=0.6) == Plain(0.6)
        with pytest.raises(ValueError):
            Plain(-1.0)


def test_qubit_state_values():
    assert int(QubitState.UP) == 1
    assert int(QubitState.DOWN) == -1
    assert len(list(QubitState)) == 2
