"""Dispersive qubit readout with injected and intracavity squeezing.

Analytic signal/noise engines for the three squeezing schemes, a brute-force
Gaussian oracle that cross-validates them, SNR optimization, phase-space
reconstruction and a CLI for figure reproduction.  Each name below loads its
submodule on first access (PEP 562): importing the package loads none of them.
"""

import importlib

_EXPORTS = {
    "core": "DegenerateNoiseError MeasurementMoments QubitState ReadoutParams ReadoutSummary "
            "ReadoutError StabilityError bisect fidelity_and_error psi_from_rate "
            "required_tone_amplitude scheme_moments snr standard_readout_moments summarize",
    "ies": "IesConfig ies_moments ies_noise ies_noise_shape ies_photon_number ies_signal",
    "ics": "IcsConfig ics_lambda ics_mean_field ics_moments ics_photon_number "
           "ics_squeeze_param ics_omega_from_r ics_stability",
    "combined": "BogoliubovFrame CombinedConfig DispersiveParams MismatchParams asymptotic_snr "
                "beta_photon_number chi_sq combined_moments combined_noise combined_signal "
                "input_noise_budget mismatch_noise separation_components solve_omega_sq",
    "oracle": "LinearReadoutSystem OracleResult build_system commutator_defect oracle_check "
              "oracle_moments",
    "optimize": "OptimumReport maximize_snr",
    "phasespace": "EllipseDiagnostics GaussianState2D ellipse pointer_state reconstruct_state "
                  "wigner_grid",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
