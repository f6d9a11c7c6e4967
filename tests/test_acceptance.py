"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Four
sub-criteria check their stated values at the operating point, or in the
limit, that the value describes:

- 4a and 4c: 0.81 e^{2r} and omega_sq*tau = 2.58 describe the short-time SNR
  maximum over omega_sq with chi_sq -> chi e^r (small epsilon), not the
  default operating point, whose root solve nulls the perpendicular
  separation at omega_sq*tau -> pi (ratio 44.29 there).  4a asserts
  0.81 e^{2r} +- 5% at the located maximum; 4c asserts its location against
  x* = 2.6062, the stationary point of the leading-order shape, and prints
  2.58, which lies 1.0% from x* on the flat top of the peak.
- 7: the stated pair (0.47, 1.1) is longer than the largest separation any
  homodyne angle gives at those inputs (0.213), so the reference values come
  from the brute-force oracle, within its K -> 2K residual.
- 8b: 2 kt e^{-2r} is the kt -> infinity limit of the injected-squeezing
  noise; the test checks the 1/kt approach from kt = 1e3 and the limit
  extrapolated from it to the stated 2%.
"""

import math
import time

import numpy as np
import pytest

from sqreadout.core import (QubitState, ReadoutParams, bisect, fidelity_and_error,
                            required_tone_amplitude, snr, standard_readout_moments)
from sqreadout import combined, figures, ics, ies, optimize, oracle, phasespace

LN10 = math.log(10.0)


def make_params(kappa_tau=1.0, chi=0.5, alpha_in=1.0, phi_in=0.0,
                phi_h=math.pi / 2.0):
    return ReadoutParams(1.0, chi, alpha_in, phi_in, phi_h, kappa_tau)


def report(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def test_criterion_01_matched_noise_law():
    ok = True
    worst = 0.0
    for r in (0.0, 0.5, LN10):
        for kt in (0.1, 1.0, 10.0):
            p = make_params(kappa_tau=kt, phi_h=0.0)
            got = combined.combined_noise(p, r, theta=0.0)
            dev = abs(got / (kt * math.exp(-2.0 * r)) - 1.0)
            worst = max(worst, dev)
            ok = ok and dev <= 1e-12
    assert report("criterion 1 (matched noise = kt e^-2r)", ok,
                  f"worst relative deviation {worst:.2e} (tol 1e-12)")


# headline SNRs shared with criterion 3
def _headline_snrs():
    p = make_params()
    vals = {
        "combined": snr(combined.combined_moments(p, combined.CombinedConfig(r=LN10))),
        "standard": snr(standard_readout_moments(p)),
        "ies": optimize.maximize_snr("ies", 1.0, fix_chi=0.5).best_snr,
        "ics": optimize.maximize_snr("ics", 1.0, fix_chi=0.5).best_snr,
    }
    return vals


def test_criterion_02_headline_snrs():
    start = time.perf_counter()
    vals = _headline_snrs()
    elapsed = time.perf_counter() - start
    windows = {"combined": (5.5, 0.2), "standard": (0.18, 0.02),
               "ies": (0.29, 0.02), "ics": (0.21, 0.02)}
    ok = all(abs(vals[k] - c) <= w for k, (c, w) in windows.items())
    ok = ok and elapsed < 10.0
    detail = ", ".join(f"{k}={vals[k]:.4f}" for k in windows)
    assert report("criterion 2 (headline SNRs)", ok,
                  f"{detail}; runtime {elapsed:.2f}s (<10s)")


def test_criterion_03_error_magnitudes():
    err_55 = fidelity_and_error(5.5)[1]
    ok = 3e-5 <= err_55 <= 6e-5
    vals = _headline_snrs()
    baseline_errors = {k: fidelity_and_error(vals[k])[1]
                       for k in ("standard", "ies", "ics")}
    ok = ok and all(0.40 <= e <= 0.47 for e in baseline_errors.values())
    detail = (f"error(5.5)={err_55:.3e}; baselines "
              + ", ".join(f"{k}={e:.4f}" for k, e in baseline_errors.items()))
    assert report("criterion 3 (error magnitudes)", ok, detail)


def _combined_at(kt):
    p = make_params(kappa_tau=kt)
    cfg = combined.CombinedConfig(r=LN10)
    disp = cfg.dispersive(p)
    w = disp.omega_sq
    s = snr(combined.combined_moments(p, cfg))
    s_std = snr(standard_readout_moments(p))
    return p, w, disp, s, s_std


# Short-time operating point of criteria 4a and 4c.  To leading order in
# kappa*tau the combined/standard SNR ratio is
# 6 |sin x/x^2 - 2(1 - cos x)/x^3| (chi_sq/chi) e^r with x = omega_sq*tau.
# Its peak, 0.8102 at x* = 2.6062, is what the stated values describe, with
# chi_sq -> chi e^r; that needs 2 omega_sq epsilon^2/chi << cosh r, which
# SHORT_EPSILON gives (~1e-4 against 5.05).
SHORT_KT = 1e-3
SHORT_EPSILON = 1e-4


def _short_time_peak():
    """(omega_sq*tau, SNR/SNR_std) at the SNR maximum over omega_sq, kt = 1e-3."""
    p = make_params(kappa_tau=SHORT_KT)
    s_std = snr(standard_readout_moments(p))

    def ratio_at(x):
        cfg = combined.CombinedConfig(r=LN10, omega_sq=x / p.tau, epsilon=SHORT_EPSILON)
        return snr(combined.combined_moments(p, cfg)) / s_std

    x, ratio, _ = optimize.golden_section_max(ratio_at, 1.5, 4.0, 1e-6)
    return x, ratio


def test_criterion_04a_short_time_snr_ratio():
    _, ratio = _short_time_peak()
    _, _, _, s, s_std = _combined_at(SHORT_KT)
    target = 0.81 * math.exp(2.0 * LN10)
    ok = abs(ratio / target - 1.0) <= 0.05
    assert report("criterion 4a (peak SNR ratio over omega_sq at kt=1e-3 vs 0.81 e^2r)", ok,
                  f"measured {ratio:.2f}, stated {target:.2f}; "
                  f"default root point {s / s_std:.2f}")


def test_criterion_04b_long_time_snr_ratio():
    p, _, disp, s, s_std = _combined_at(1e3)
    target = combined.asymptotic_snr("long", p, disp, LN10, s_std) / s_std
    ratio = s / s_std
    ok = abs(ratio / target - 1.0) <= 0.05
    assert report("criterion 4b (SNR ratio at kt=1e3 vs (sin psi_sq/sin 2psi) e^r)",
                  ok, f"measured {ratio:.4f}, target {target:.4f}")


def test_criterion_04c_short_time_omega_sq():
    x, _ = _short_time_peak()
    # x* solves d/dx [sin x/x^2 - 2(1 - cos x)/x^3] = 0
    x_star = bisect(
        lambda v: v * v * math.cos(v) - 4.0 * v * math.sin(v) + 6.0 * (1.0 - math.cos(v)),
        2.0, 3.0, 1e-12)
    # the leading-order shape holds up to O(kappa*tau) corrections
    ok = abs(x / x_star - 1.0) <= SHORT_KT
    assert report("criterion 4c (SNR-optimal omega_sq*tau at kt=1e-3 vs x*)", ok,
                  f"measured {x:.4f}, x* {x_star:.4f} (tol {SHORT_KT:g} relative), "
                  f"stated 2.58")


def test_criterion_04d_long_time_omega_sq():
    _, w, disp, _, _ = _combined_at(1e3)
    target = 0.5 / math.cos(disp.psi_sq)
    ok = abs(w / target - 1.0) <= 0.01
    assert report("criterion 4d (omega_sq at kt=1e3 vs (kappa/2) sec psi_sq)", ok,
                  f"measured {w:.4f}, target {target:.4f}")


def test_criterion_05_required_amplitudes_and_photons():
    kt = 0.2
    p = make_params(kappa_tau=kt)
    results = {}

    cfg = combined.CombinedConfig(r=LN10)
    disp = cfg.dispersive(p)
    a_comb = required_tone_amplitude(snr(combined.combined_moments(p, cfg)), 1.0)
    p_comb = p.with_(alpha_in=a_comb)
    n_comb = max(combined.beta_photon_number(p_comb, disp, LN10, s, p.tau)
                 for s in QubitState)
    results["combined"] = (a_comb, n_comb)

    ies_opt = optimize.maximize_snr("ies", kt, fix_chi=0.5)
    a_ies = required_tone_amplitude(ies_opt.best_snr, 1.0)
    n_ies = ies.ies_photon_number(p.with_(alpha_in=a_ies),
                                  ies.IesConfig(ies_opt.argmax["r"], 0.0), p.tau)
    results["ies"] = (a_ies, n_ies)

    ics_opt = optimize.maximize_snr("ics", kt, fix_chi=0.5)
    a_ics = required_tone_amplitude(ics_opt.best_snr, 1.0)
    omega = ics.ics_omega_from_r(1.0, ics_opt.argmax["r"])
    p_ics = p.with_(alpha_in=a_ics)
    n_ics = ics.ics_photon_number(p_ics, ics.IcsConfig(omega, ics.optimal_theta(p_ics, omega)),
                                  p.tau)
    results["ics"] = (a_ics, n_ics)

    n_c = disp.critical_photon_number
    ok = (abs(results["combined"][0] - 3.5) <= 0.2
          and abs(results["combined"][1] - 29.0) <= 2.0
          and abs(results["ies"][0] - 52.0) <= 3.0
          and abs(results["ies"][1] - 107.0) <= 8.0
          and abs(results["ics"][0] - 239.0) <= 15.0
          and abs(results["ics"][1] - 2238.0) <= 150.0
          and abs(n_c - 100.0) < 1e-9)
    detail = ", ".join(f"{k}: alpha={a:.2f} n={n:.1f}" for k, (a, n) in results.items())
    assert report("criterion 5 (required amplitudes and photons at kt=0.2)", ok,
                  f"{detail}, n_c={n_c:g}")


def test_criterion_06_mismatch_robustness():
    p = make_params()
    cfg = combined.CombinedConfig(r=LN10, delta_r=0.1, delta_p=0.1)
    ratio = snr(combined.combined_moments(p, cfg)) / (
        math.exp(LN10) * snr(standard_readout_moments(p)))
    ok = abs(ratio - 0.72) <= 0.04

    floor = p.kappa_tau * math.exp(-2.0 * LN10)
    devs = []
    for d in (1e-4, 1e-6, 0.0):
        cfg_d = combined.CombinedConfig(r=LN10, delta_r=d, delta_p=d)
        noise = combined.combined_moments(p, cfg_d).noise_up
        devs.append(abs(noise / floor - 1.0))
    ok = ok and devs[0] < 1e-2 and devs[1] < 1e-4 and devs[2] <= 1e-12
    assert report("criterion 6 (mismatch robustness)", ok,
                  f"SNR ratio {ratio:.4f} (0.72+-0.04); noise deviation at "
                  f"delta=1e-4,1e-6,0: {devs[0]:.1e},{devs[1]:.1e},{devs[2]:.1e}")


def _oracle_separation(params, disp, phi_h):
    """|<M>_up - <M>_down| at r = 0 from the oracle, with the K -> 2K change of both means."""
    k = params.kappa
    means, residual = [], 0.0
    for state in QubitState:
        om = disp.omega_sigma(state)
        system = oracle.LinearReadoutSystem(
            np.diag([-1j * om - k / 2.0, 1j * om - k / 2.0]),
            params.alpha_in * complex(math.cos(params.phi_in), math.sin(params.phi_in)),
            (0.0, 0j), (0.0, 0j), phi_h, k, params.tau)
        res = oracle.oracle_moments(system)
        means.append(res.richardson[0])
        residual += abs(res.residual[0])
    return abs(means[0] - means[1]), residual


def test_criterion_07_worked_separation_example():
    disp = combined.DispersiveParams(
        g=10.0, delta_q=100.0, epsilon=0.05, chi=0.5, chi_sq=0.5,
        psi_sq=math.atan(1.0), omega_sq=2.75,
        omega_sigma_up=3.25, omega_sigma_down=2.25,
        psi_sigma_up=math.atan(6.5), psi_sigma_down=math.atan(4.5))
    p = make_params()
    par, perp = combined.separation_components(p, disp, 0.0)
    # documented phases: parallel phi_h = phi_in = 0, perpendicular phi_h = -pi/2
    ref_par, res_par = _oracle_separation(p, disp, 0.0)
    ref_perp, res_perp = _oracle_separation(p, disp, -math.pi / 2.0)
    # oracle residual plus a rounding floor for its 8192-bin sums
    tol = res_par + res_perp + 1e-12
    ok = abs(par - ref_par) <= tol and abs(perp - ref_perp) <= tol
    # the two projections are orthogonal quadratures, so their norm is the
    # largest separation any homodyne angle gives
    bound = math.hypot(ref_par, ref_perp)
    assert report("criterion 7 (worked separation example vs oracle)", ok,
                  f"parallel {par:.4f} (oracle {ref_par:.4f}), "
                  f"perpendicular {perp:.4f} (oracle {ref_perp:.4f}), tol {tol:.1e}; "
                  f"stated (0.47, 1.1) has norm {math.hypot(0.47, 1.1):.2f} "
                  f"> largest separation {bound:.3f}")


def _ies_noise_ratio(kt, r=1.0):
    """Phase-optimal IES noise over 2 kt e^-2r at chi = kappa/2."""
    shape = ies.ies_noise_shape(make_params(kappa_tau=kt))
    noise = 2.0 * kt * (math.cosh(2 * r) - abs(shape) * math.sinh(2 * r))
    return noise / (2.0 * kt * math.exp(-2.0 * r))


@pytest.mark.parametrize("kt,label", [(1e-3, "8a"), (1e3, "8b")])
def test_criterion_08_ies_noise_limits(kt, label):
    if label == "8a":
        ratio = _ies_noise_ratio(kt)
        ok = abs(ratio - 1.0) <= 0.02
        detail = f"noise/(2 kt e^-2r) = {ratio:.4f} (tol 2%)"
    else:
        # 2 kt e^-2r is the kt -> infinity limit: the shape factor is
        # -1 + 3/kt + O(e^{-kt/2}), so the ratio is 1 + 3(e^{4r} - 1)/(2 kt)
        ratios = [_ies_noise_ratio(kt * 10.0 ** n) for n in range(3)]
        rates = [(ratios[n + 1] - 1.0) / (ratios[n] - 1.0) for n in range(2)]
        limit = (10.0 * ratios[2] - ratios[1]) / 9.0
        ok = (all(abs(q - 0.1) <= 1e-3 for q in rates)
              and abs(limit - 1.0) <= 0.02)
        detail = (f"noise/(2 kt e^-2r) = {ratios[0]:.4f}, deviation falls "
                  f"{rates[0]:.4f}, {rates[1]:.4f} per decade (0.1 +- 1e-3), "
                  f"kt -> inf limit {limit:.6f} (tol 2%)")
    assert report(f"criterion {label} (IES noise limit at kt={kt:g})", ok, detail)


def test_criterion_09_ics_long_time_squeezing():
    degrees = {}
    ok = True
    for kt in (50.0, 200.0):
        p, cfg = figures.ics_optimal_setting(kt)
        diag = phasespace.ellipse(phasespace.pointer_state(p, cfg)[QubitState.UP])
        degrees[kt] = abs(diag.xi2_dB)
        ok = ok and abs(degrees[kt] - 1.27) <= 0.05
    detail = ", ".join(f"kt={k:g}: {v:.3f} dB" for k, v in degrees.items())
    assert report("criterion 9 (ICS long-time squeezing 1.27 dB)", ok, detail)


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(12345)
    failures = []
    count = 0

    def check(params, cfg, moments):
        nonlocal count
        count += 1
        rep = oracle.oracle_check(params, cfg, moments, steps=4096)
        if not rep["passed"]:
            failures.append((cfg, rep))

    for _ in range(50):
        p = make_params(kappa_tau=rng.uniform(0.1, 5.0), chi=rng.uniform(0.05, 2.0),
                        alpha_in=rng.uniform(0.3, 2.0),
                        phi_in=rng.uniform(-math.pi, math.pi),
                        phi_h=rng.uniform(-math.pi, math.pi))
        cfg = ies.IesConfig(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
        check(p, cfg, ies.ies_moments(p, cfg))

    for _ in range(50):
        p = make_params(kappa_tau=rng.uniform(0.1, 5.0), chi=rng.uniform(0.05, 2.0),
                        alpha_in=rng.uniform(0.3, 2.0),
                        phi_in=rng.uniform(-math.pi, math.pi),
                        phi_h=rng.uniform(-math.pi, math.pi))
        cfg = ics.IcsConfig(rng.uniform(0.0, 0.24), rng.uniform(-math.pi, math.pi))
        check(p, cfg, ics.ics_moments(p, cfg))

    for _ in range(50):
        mismatched = rng.random() < 0.5
        cfg = combined.CombinedConfig(
            r=rng.uniform(0.0, LN10), theta=rng.uniform(-math.pi, math.pi),
            omega_sq=rng.uniform(1.0, 8.0),
            delta_r=rng.uniform(-0.1, 0.1) if mismatched else 0.0,
            delta_p=rng.uniform(-0.1, 0.1) if mismatched else 0.0)
        p = make_params(kappa_tau=rng.uniform(0.1, 5.0), alpha_in=rng.uniform(0.3, 2.0))
        op = combined.operating_params(p, cfg)
        check(op, cfg, combined.combined_moments(p, cfg))

    # negative control: a perturbed formula must be flagged
    p = make_params()
    cfg = ies.IesConfig(0.5, 0.3)
    good = ies.ies_moments(p, cfg)
    bad = type(good)(good.signal_up, good.signal_down,
                     good.noise_up * 1.005, good.noise_down)
    control = not oracle.oracle_check(p, cfg, bad, steps=4096)["passed"]

    ok = not failures and control and count == 150
    assert report("criterion 10 (oracle equivalence, 150 draws + control)", ok,
                  f"{count - len(failures)}/{count} draws agree; "
                  f"negative control {'flagged' if control else 'MISSED'}")


def test_criterion_11_phase_space_properties():
    rng = np.random.default_rng(777)
    det_ok = True
    for _ in range(30):
        p = make_params(kappa_tau=rng.uniform(0.2, 4.0), chi=rng.uniform(0.1, 1.5),
                        phi_h=rng.uniform(-math.pi, math.pi))
        cfg = ies.IesConfig(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
        det_ok = det_ok and phasespace.pointer_state(p, cfg)[QubitState.UP].det >= 1 / 16 - 1e-12
        cfg2 = ics.IcsConfig(rng.uniform(0.0, 0.24), rng.uniform(-math.pi, math.pi))
        det_ok = det_ok and phasespace.pointer_state(p, cfg2)[QubitState.DOWN].det >= 1 / 16 - 1e-12

    # the covariance built at 0, pi/4, pi/2 predicts the noise at pi/6 and pi/3
    p = make_params()
    cfg = ies.IesConfig(0.8, 0.9)
    st1 = phasespace.pointer_state(p, cfg)[QubitState.UP]
    angle_ok = True
    for phi in (math.pi / 6, math.pi / 3):
        h = np.array([math.cos(phi), math.sin(phi)])
        noise = cfg.moments(p.with_(phi_h=p.phi_h + phi)).noise_up
        predicted = float(h @ st1.cov @ h) * 4.0 * p.kappa_tau
        angle_ok = angle_ok and abs(predicted - noise) < 1e-9 * noise

    stc = phasespace.GaussianState2D((0.4, -0.2), np.array([[0.3, 0.1], [0.1, 0.5]]))
    x, y, w = phasespace.wigner_grid(stc, (-6.0, 6.0), 401)
    norm = float(w.sum() * (x[1] - x[0]) * (y[1] - y[0]))
    norm_ok = abs(norm - 1.0) <= 1e-6

    pc = make_params(phi_h=0.0)
    ccfg = combined.CombinedConfig(r=LN10)
    states = phasespace.pointer_state(pc, ccfg)
    up, down = states[QubitState.UP], states[QubitState.DOWN]
    state_ok = bool(np.all(np.abs(np.subtract(up.cov, down.cov)) < 1e-12))

    pi_, ci = figures.ies_optimal_setting(1.0)
    states = phasespace.pointer_state(pi_, ci)
    t_up = phasespace.ellipse(states[QubitState.UP]).theta_N
    t_down = phasespace.ellipse(states[QubitState.DOWN]).theta_N
    mirror_ok = abs(t_up + t_down) <= 1e-6 and t_up != 0.0

    ok = det_ok and angle_ok and norm_ok and state_ok and mirror_ok
    assert report("criterion 11 (phase-space properties)", ok,
                  f"det>=1/16 {det_ok}, angle-set {angle_ok}, norm {norm:.8f}, "
                  f"state-indep {state_ok}, mirror theta_N |{t_up:.4f}|")


def test_criterion_12_reduction_identities():
    p = make_params(kappa_tau=1.7, chi=0.7, alpha_in=1.3, phi_in=0.3, phi_h=1.1)
    m_std = standard_readout_moments(p)
    m_ies = ies.ies_moments(p, ies.IesConfig(0.0, 0.8))
    m_ics = ics.ics_moments(p, ics.IcsConfig(0.0, 0.9))
    devs = []
    for m in (m_ies, m_ics):
        devs.append(max(abs(m.signal_up - m_std.signal_up),
                        abs(m.signal_down - m_std.signal_down),
                        abs(m.noise_up - m_std.noise_up),
                        abs(m.noise_down - m_std.noise_down)))
    n_std = ies.ies_photon_number(p, ies.IesConfig(0.0, 0.0), 1.2)
    n_ics = ics.ics_photon_number(p, ics.IcsConfig(0.0, 0.0), 1.2)
    devs.append(abs(n_ics - n_std))
    ok = all(d <= 1e-10 for d in devs)
    assert report("criterion 12 (reduction identities)", ok,
                  f"max deviations: ies {devs[0]:.1e}, ics {devs[1]:.1e}, "
                  f"photons {devs[2]:.1e} (tol 1e-10)")
