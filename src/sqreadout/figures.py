"""Reference-figure data sets (CSV rows) for the readout schemes.

Conventions follow the fixed-coupling reference curves: chi = kappa/2,
alpha_in = sqrt(kappa), e^r = 10 and epsilon = 1/20 for the combined scheme,
with the injected/intracavity curves optimized over the squeeze parameter in
1 <= e^r <= 10 at that same coupling.  The figS1/figS3 "optimal" data sets
additionally free the cavity response angle psi.  The builders run at these
constants and take only their kappa*tau grid (fig4b its kappa*tau and point
count, figS5 its squeeze).
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import (QubitState, ReadoutParams, fidelity_and_error, required_tone_amplitude,
                   snr, standard_readout_moments)
from . import combined, ics, ies, optimize, phasespace

R_DEFAULT = math.log(10.0)
CHI_DEFAULT = 0.5
EPS_DEFAULT = combined.DEFAULT_EPSILON
R_FIGS5 = 1.0
MISMATCH_SET = (0.1, 0.05, 0.01)


def _params(kappa_tau: float, alpha_in: float = 1.0) -> ReadoutParams:
    return ReadoutParams(1.0, CHI_DEFAULT, alpha_in, 0.0, math.pi / 2.0, kappa_tau)


def _std_columns(kappa_tau: float) -> dict:
    """The standard-readout reference curves: its SNR, times e^r and times e^2r."""
    std = snr(standard_readout_moments(_params(kappa_tau)))
    return {"snr_std": std, "snr_std_e_r": math.exp(R_DEFAULT) * std,
            "snr_std_e_2r": math.exp(2.0 * R_DEFAULT) * std}


def combined_snr(kappa_tau: float, delta_r: float = 0.0, delta_p: float = 0.0) -> float:
    cfg = combined.CombinedConfig(r=R_DEFAULT, delta_r=delta_r, delta_p=delta_p)
    return snr(combined.combined_moments(_params(kappa_tau), cfg))


def _mismatch_snr(kappa_tau: float):
    """(delta_r, delta_p) -> combined_snr(kappa_tau, delta_r, delta_p), per builder call.  Root,
    dispersive parameters and signals need no delta_p: one CombinedConfig.delta_p_moments per
    delta_r, which every delta_p column reads."""
    p = _params(kappa_tau)
    maps = {}

    def mismatch_snr(delta_r: float, delta_p: float) -> float:
        if delta_r not in maps:
            op, cfg = combined.CombinedConfig(r=R_DEFAULT, delta_r=delta_r).operating_point(p)
            maps[delta_r] = cfg.delta_p_moments(op)
        return snr(maps[delta_r](delta_p))

    return mismatch_snr


def kappa_tau_grid(start: float = 1e-2, stop: float = 1e2, count: int = 25) -> list[float]:
    import numpy as np
    return np.geomspace(start, stop, count).tolist()


def _kappa_taus(grid: Iterable[float] | None, *default: float) -> list[float]:
    """A builder's kappa*tau values as floats: its grid, else kappa_tau_grid(*default)."""
    return kappa_tau_grid(*default) if grid is None else [float(kt) for kt in grid]


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced floats from start to stop, the values of numpy.linspace."""
    if count < 2:
        return [start] * count
    step = (stop - start) / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def fig2a_rows() -> list[dict]:
    """Dispersive-coupling enhancement chi_sq/chi versus omega_sq."""
    curves = {}
    for eps in (0.1, 0.05):
        g = CHI_DEFAULT / eps
        combined.chi_sq(g, R_DEFAULT, 0.0, eps)     # checks (g, epsilon) once per curve
        curves[f"enhancement_eps_{eps:g}".replace(".", "_")] = combined._chi_sq_function(
            g, R_DEFAULT, eps)
    return [{"omega_sq_over_kappa": w, **{tag: f(w) / CHI_DEFAULT for tag, f in curves.items()}}
            for w in _linspace(0.0, 50.0, 201)]


def fig2a_inset_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """omega_sq nulling the perpendicular separation, versus kappa*tau."""
    rows = []
    for kt in _kappa_taus(grid, 1e-3, 1e3, 25):
        w = combined.solve_omega_sq(_params(kt), R_DEFAULT)
        rows.append({"kappa_tau": kt, "omega_sq_over_kappa": w,
                     "omega_sq_tau": w * kt})
    return rows


def _scheme_snrs(kt: float) -> dict:
    ies_opt = optimize.maximize_snr("ies", kt, fix_chi=CHI_DEFAULT)
    ics_opt = optimize.maximize_snr("ics", kt, fix_chi=CHI_DEFAULT)
    return {
        "kappa_tau": kt,
        "snr_combined": combined_snr(kt),
        "snr_ies_opt": ies_opt.best_snr,
        "snr_ics_opt": ics_opt.best_snr,
        **_std_columns(kt),
        "r_opt_ies": ies_opt.argmax["r"],
        "r_opt_ics": ics_opt.argmax["r"],
    }


def fig2b_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """SNR versus kappa*tau for all schemes plus the reference curves."""
    return [_scheme_snrs(kt) for kt in _kappa_taus(grid)]


def _error_row(fig2b_row: dict) -> dict:
    """The fig2c row of a fig2b row: the measurement error of each scheme's SNR."""
    return {"kappa_tau": fig2b_row["kappa_tau"],
            **{f"error_{tag}": fidelity_and_error(fig2b_row[f"snr_{tag}"])[1]
               for tag in ("combined", "ies_opt", "ics_opt", "std")}}


def fig2c_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """Measurement error versus kappa*tau for all schemes, from the fig2b rows."""
    return [_error_row(row) for row in fig2b_rows(grid)]


def _fig3_point(kt: float) -> dict:
    """Required tone amplitude for SNR = 1 and the implied photon numbers."""
    row = {"kappa_tau": kt}     # tau = kappa*tau at kappa = 1

    # the root does not depend on alpha_in, so one solve serves both amplitudes
    p1 = _params(kt)
    op, cfg = combined.CombinedConfig(r=R_DEFAULT).operating_point(p1)
    a_comb = required_tone_amplitude(snr(cfg.moments(op)), 1.0)
    p = _params(kt, a_comb)
    disp = cfg.dispersive(p)
    row["alpha_combined"] = a_comb
    row["n_combined"] = max(combined.beta_photon_number(p, disp, R_DEFAULT, s, kt)
                            for s in QubitState)

    ies_opt = optimize.maximize_snr("ies", kt, fix_chi=CHI_DEFAULT)
    a_ies = required_tone_amplitude(ies_opt.best_snr, 1.0)
    cfg_i = ies.IesConfig(ies_opt.argmax["r"], 0.0)
    row["alpha_ies"] = a_ies
    row["n_ies"] = ies.ies_photon_number(_params(kt, a_ies), cfg_i, kt)

    ics_opt = optimize.maximize_snr("ics", kt, fix_chi=CHI_DEFAULT)
    a_ics = required_tone_amplitude(ics_opt.best_snr, 1.0)
    p_ics = _params(kt, a_ics)
    omega = ics_opt.argmax["omega_2ph_over_kappa"]
    cfg_c = ics.IcsConfig(omega, ics.optimal_theta(p_ics, omega))
    row["alpha_ics"] = a_ics
    row["n_ics"] = ics.ics_photon_number(p_ics, cfg_c, kt)

    a_std = required_tone_amplitude(_std_columns(kt)["snr_std"], 1.0)
    row["alpha_std"] = a_std
    row["n_std"] = ies.ies_photon_number(_params(kt, a_std), ies.IesConfig(0.0, 0.0), kt)
    row["n_critical"] = disp.critical_photon_number
    return row


def fig3_rows(grid: Iterable[float] | None = None) -> list[dict]:
    # the default grid keeps the reference points kappa*tau = 0.2 and 1
    kts = sorted({*kappa_tau_grid(0.05, 10.0, 20), 0.2, 1.0}) if grid is None else _kappa_taus(grid)
    return [_fig3_point(kt) for kt in kts]


def fig4a_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """Mismatched-scheme SNR versus kappa*tau for the standard mismatch set."""
    rows = []
    for kt in _kappa_taus(grid):
        row = {"kappa_tau": kt, **_std_columns(kt)}
        mismatch_snr = _mismatch_snr(kt)
        for dp in MISMATCH_SET:
            row[f"snr_dp_{dp:g}".replace(".", "_")] = mismatch_snr(0.1, dp)
        rows.append(row)
    return rows


def fig4b_rows(kappa_tau: float = 1.0, count: int = 41) -> list[dict]:
    """SNR versus the mismatch magnitude at fixed kappa*tau: delta_p at delta_r = 0.1, and
    delta_r at delta_p = 0.05, whose delta_r = 0.1 point shares the first column's root."""
    mismatch_snr = _mismatch_snr(float(kappa_tau))
    return [{"delta": d, "snr_vs_delta_p": mismatch_snr(0.1, d),
             "snr_vs_delta_r": mismatch_snr(d, 0.05)} for d in _linspace(0.0, 0.2, count)]


def _free_optimum_rows(scheme: str, coupling: str, grid: Iterable[float] | None) -> list[dict]:
    """Free (psi, r) optimum of a squeezed scheme, with its optimal coupling (chi or
    lambda) over kappa, beside the free standard optimum, versus kappa*tau."""
    rows = []
    for kt in _kappa_taus(grid):
        best = optimize.maximize_snr(scheme, kt)
        std = optimize.maximize_snr("standard", kt)
        rows.append({"kappa_tau": kt, f"snr_{scheme}_opt": best.best_snr,
                     "psi_opt": best.argmax["psi"], "r_opt": best.argmax["r"],
                     f"{coupling}_opt_over_kappa": best.argmax[f"{coupling}_over_kappa"],
                     "snr_std_opt": std.best_snr, "psi_std_opt": std.argmax["psi"]})
    return rows


def figS1_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """Free (psi, r) optimum of the injected-squeezing readout versus kappa*tau."""
    return _free_optimum_rows("ies", "chi", grid)


def figS3_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """Free (psi, r) optimum of the intracavity-squeezing readout versus kappa*tau."""
    return _free_optimum_rows("ics", "lambda", grid)


def ies_optimal_setting(kappa_tau: float) -> tuple[ReadoutParams, ies.IesConfig]:
    """Operating point of the free IES optimum, in the mirror-symmetric frame.

    The measurement axis is phi_h = 0 and the squeeze phase is 0 or pi, so the
    two pointer-state noise ellipses are mirror images about the X axis.
    """
    best = optimize.maximize_snr("ies", kappa_tau)
    chi = best.argmax["chi_over_kappa"]
    p = ReadoutParams(1.0, chi, 1.0, -math.pi / 2.0, 0.0, kappa_tau)
    return p, ies.IesConfig(best.argmax["r"], ies.optimal_varphi(p))


def ics_optimal_setting(kappa_tau: float) -> tuple[ReadoutParams, ics.IcsConfig]:
    """Operating point of the free ICS optimum with its noise-optimal drive phase."""
    best = optimize.maximize_snr("ics", kappa_tau)
    omega = best.argmax["omega_2ph_over_kappa"]
    lam = best.argmax["lambda_over_kappa"]
    chi = math.sqrt(lam * lam + 4.0 * omega * omega)
    p = ReadoutParams(1.0, chi, 1.0, -math.pi / 2.0, 0.0, kappa_tau)
    return p, ics.IcsConfig(omega, ics.optimal_theta(p, omega))


def _combined_setting(kappa_tau: float, r: float) -> tuple[ReadoutParams, combined.CombinedConfig]:
    """Matched combined scheme at squeeze r, at its operating point (omega_sq solved)."""
    return combined.CombinedConfig(r=r).operating_point(_params(kappa_tau))


#: pointer-state operating points versus kappa*tau, keyed by the figure that
#: shows them; `readout wigner --preset` offers exactly these keys
PHASE_SPACE_SETTINGS = {
    "figS2": ies_optimal_setting,
    "figS4": ics_optimal_setting,
    "figS5": lambda kappa_tau: _combined_setting(kappa_tau, R_FIGS5),
}


def _ellipse_rows(name: str, grid: Iterable[float] | None) -> list[dict]:
    rows = []
    for kt in _kappa_taus(grid, 0.1, 10.0, 17):
        p, cfg = PHASE_SPACE_SETTINGS[name](kt)
        row = {"kappa_tau": kt}
        for state, st in phasespace.pointer_state(p, cfg).items():
            diag = phasespace.ellipse(st)
            tag = state.name.lower()
            row[f"theta_N_{tag}"] = diag.theta_N
            row[f"xi2_{tag}"] = diag.xi2_N
            row[f"xi2_dB_{tag}"] = diag.xi2_dB
        rows.append(row)
    return rows


def figS2_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """Squeeze direction and degree of the optimal-IES pointer states."""
    return _ellipse_rows("figS2", grid)


def figS4_rows(grid: Iterable[float] | None = None) -> list[dict]:
    """Squeeze direction and degree of the optimal-ICS pointer states."""
    return _ellipse_rows("figS4", grid)


def figS5_rows(r: float = R_FIGS5) -> list[dict]:
    """Combined-scheme pointer-state diagnostics at kappa*tau in {1, 2, 5}."""
    rows = []
    for kt in (1.0, 2.0, 5.0):
        p, cfg = _combined_setting(kt, r)
        row = {"kappa_tau": kt}
        for state, st in phasespace.pointer_state(p, cfg).items():
            diag = phasespace.ellipse(st)
            tag = state.name.lower()
            row[f"mean_x_{tag}"] = st.mean[0]
            row[f"mean_y_{tag}"] = st.mean[1]
            row[f"theta_N_{tag}"] = diag.theta_N
            row[f"xi2_dB_{tag}"] = diag.xi2_dB
        rows.append(row)
    return rows


def _fig2bc_tables() -> dict[str, list[dict]]:
    rows = fig2b_rows()
    return {"fig2b": rows, "fig2c": [_error_row(row) for row in rows]}


_FIGURE_BUILDERS = {
    "fig2a": lambda: {"fig2a": fig2a_rows(), "fig2a_inset": fig2a_inset_rows()},
    # fig2c is the error map of the fig2b SNRs, and fig3a and fig3b plot the same
    # table: one build each, written under both stems
    "fig2b": _fig2bc_tables,
    "fig3a": lambda: dict.fromkeys(("fig3a", "fig3b"), fig3_rows()),
    "fig4a": lambda: {"fig4a": fig4a_rows()},
    "fig4b": lambda: {"fig4b": fig4b_rows()},
    "figS1": lambda: {"figS1": figS1_rows()},
    "figS2": lambda: {"figS2": figS2_rows()},
    "figS3": lambda: {"figS3": figS3_rows()},
    "figS4": lambda: {"figS4": figS4_rows()},
    "figS5": lambda: {"figS5": figS5_rows()},
}
FIGURES = tuple(_FIGURE_BUILDERS)


def figure_tables(name: str) -> dict[str, list[dict]]:
    """All CSV tables for one figure, keyed by file stem."""
    if name not in _FIGURE_BUILDERS:
        raise KeyError(f"unknown figure {name!r}; expected one of {FIGURES}")
    return _FIGURE_BUILDERS[name]()
