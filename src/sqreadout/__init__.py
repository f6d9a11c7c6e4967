"""Dispersive qubit readout with injected and intracavity squeezing.

Analytic signal/noise engines for the three squeezing schemes, a brute-force
Gaussian oracle that cross-validates them, SNR optimization, phase-space
reconstruction and a CLI for figure reproduction.
"""

from .core import (DegenerateNoiseError, MeasurementMoments, QubitState,
                   ReadoutParams, ReadoutSummary, ReadoutError, StabilityError,
                   fidelity_and_error, psi_from_rate, required_tone_amplitude,
                   scheme_moments, snr, standard_readout_moments, summarize)
from .ies import IesConfig, ies_moments, ies_noise, ies_noise_shape, ies_photon_number, ies_signal
from .ics import (IcsConfig, ics_lambda, ics_mean_field, ics_moments, ics_photon_number,
                  ics_squeeze_param, ics_omega_from_r, ics_stability)
from .combined import (BogoliubovFrame, CombinedConfig, DispersiveParams,
                       MismatchParams, asymptotic_snr, beta_photon_number,
                       chi_sq, combined_moments, combined_noise, combined_signal,
                       input_noise_budget, mismatch_noise, separation_components,
                       solve_omega_sq)
from .oracle import (LinearReadoutSystem, OracleResult, build_system,
                     commutator_defect, oracle_check, oracle_moments)
from .optimize import OptimumReport, bisect, maximize_snr
from .phasespace import (EllipseDiagnostics, GaussianState2D, ellipse,
                         pointer_state, reconstruct_state, wigner_grid)

__version__ = "0.1.0"
