import importlib
import math

import pytest

import sqreadout

# the names `from sqreadout import ...` offers, by the submodule defining them
EXPORTS = {
    "core": ["DegenerateNoiseError", "MeasurementMoments", "QubitState", "ReadoutParams",
             "ReadoutSummary", "ReadoutError", "StabilityError", "bisect", "fidelity_and_error",
             "psi_from_rate", "required_tone_amplitude", "scheme_moments", "snr",
             "standard_readout_moments", "summarize"],
    "ies": ["IesConfig", "ies_moments", "ies_noise_shape", "ies_photon_number"],
    "ics": ["IcsConfig", "ics_lambda", "ics_mean_field", "ics_moments", "ics_photon_number",
            "ics_squeeze_param", "ics_omega_from_r", "ics_stability"],
    "combined": ["BogoliubovFrame", "CombinedConfig", "DispersiveParams", "MismatchParams",
                 "asymptotic_snr", "beta_photon_number", "chi_sq", "combined_moments",
                 "combined_noise", "input_noise_budget", "separation_components",
                 "solve_omega_sq"],
    "oracle": ["LinearReadoutSystem", "OracleResult", "build_system", "commutator_defect",
               "oracle_check", "oracle_moments"],
    "optimize": ["OptimumReport", "maximize_snr"],
    "phasespace": ["EllipseDiagnostics", "GaussianState2D", "ellipse", "pointer_state",
                   "reconstruct_state", "wigner_grid"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestPackageExports:
    def test_count(self):
        assert len(NAMES) == len({name for _, name in NAMES}) == 53

    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_the_submodule_object(self, module, name):
        assert getattr(sqreadout, name) is getattr(
            importlib.import_module(f"sqreadout.{module}"), name)

    def test_readme_example(self):
        from sqreadout import (ReadoutParams, CombinedConfig, combined_moments, snr,
                               fidelity_and_error)

        params = ReadoutParams(kappa=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0, phi_h=0.0, tau=1.0)
        moments = combined_moments(params, CombinedConfig(r=math.log(10)))
        assert snr(moments) == pytest.approx(5.549, abs=1e-3)
        assert fidelity_and_error(snr(moments))[1] == pytest.approx(4.4e-5, rel=0.05)

    def test_dir_lists_every_name(self):
        assert {name for _, name in NAMES} <= set(dir(sqreadout))
        assert "__version__" in dir(sqreadout)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            sqreadout.no_such_name
        assert not hasattr(sqreadout, "solve")
