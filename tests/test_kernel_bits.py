"""The lean ICS and IES kernels give the bits of the forms they replaced.

reference_forms keeps the scalar closed forms as written before the kernels,
when every call recomputed every factor.  The kernels hoist the factors that
stay fixed and run the same float operations, so every output is compared
with float.hex, which also tells -0.0 from 0.0.  The signs of zeros are those
of CPython's complex arithmetic before 3.14, which multiplies a float by a
complex as complex(x, 0) times it; the scalar ICS kernel copies that.
"""

import math

import numpy as np
import pytest

from sqreadout import ics, ies, optimize
from sqreadout.core import PSI_BOUNDS_DEFAULT, R_MAX_DEFAULT

import reference_forms as ref

N_POINTS = 20_000


def hexes(values):
    return [float(v).hex() for v in values]


def phases(rng, n):
    """Phases in (-pi, pi], one in five on 0, +-pi/2 or pi, where products hit exact zeros."""
    draw = rng.uniform(-math.pi, math.pi, n)
    special = rng.choice([0.0, math.pi / 2.0, -math.pi / 2.0, math.pi], n)
    return np.where(rng.uniform(size=n) < 0.2, special, draw).tolist()


def ics_points(seed, n):
    """(kt, chi, Omega, alpha_in, phi_in, phi_h, theta): a fifth each with real lambda,
    imaginary lambda, chi within 1e-9 relative of 2 Omega, chi = 2 Omega exactly, and
    4 Omega within 1e-9 of kappa."""
    rng = np.random.default_rng(seed)
    kind = np.arange(n) % 5
    om = np.where(kind == 4, 0.25 - rng.uniform(0.0, 2.5e-10, n), rng.uniform(0.0, 0.2499, n))
    chi = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [rng.uniform(2.0 * om, 3.0), rng.uniform(0.0, 2.0 * om),
         2.0 * om * (1.0 + rng.uniform(-1e-9, 1e-9, n)), 2.0 * om],
        rng.uniform(0.0, 1.5, n))
    chi = np.where(rng.uniform(size=n) < 0.1, -chi, chi)
    alpha = np.where(rng.uniform(size=n) < 0.05, 0.0, rng.uniform(0.1, 3.0, n))
    return list(zip((10 ** rng.uniform(-4, 3, n)).tolist(), chi.tolist(), om.tolist(),
                    alpha.tolist(), phases(rng, n), phases(rng, n), phases(rng, n)))


def ies_points(seed, n):
    """(kt, chi, alpha_in, phi_in, phi_h): half with |w| = |chi - i/2| kt within 1e-12 to
    1e-3 relative of 0.005, on both sides, where the Taylor series takes over."""
    rng = np.random.default_rng(seed)
    chi = np.where(rng.uniform(size=n) < 0.5, rng.uniform(-3.0, 3.0, n),
                   10 ** rng.uniform(-6, 2, n))
    gap = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-12, -3, n)
    near = 0.005 / np.abs(chi - 0.5j) * (1.0 + gap)
    kt = np.where(np.arange(n) % 2 == 0, near, 10 ** rng.uniform(-5, 3, n))
    alpha = np.where(rng.uniform(size=n) < 0.05, 0.0, rng.uniform(0.1, 3.0, n))
    return list(zip(kt.tolist(), chi.tolist(), alpha.tolist(), phases(rng, n), phases(rng, n)))


class TestIcsKernel:
    def test_points_cover_the_branches(self):
        points = ics_points(0, N_POINTS)
        x = [chi * chi - 4.0 * om * om for _, chi, om, *_ in points]
        assert min(sum(v > 0 for v in x), sum(v < 0 for v in x), x.count(0.0)) > N_POINTS // 10
        assert sum(4.0 * om > 1.0 - 1e-9 for _, _, om, *_ in points) == N_POINTS // 5

    def test_same_bits_as_the_unhoisted_forms(self):
        for kt, chi, om, alpha, phi_in, phi_h, theta in ics_points(0, N_POINTS):
            integrals, up, down = ref.signal_pair(kt, chi, om, alpha, phi_in, phi_h, theta)
            want = (up, down, *ref.noise_components(kt, chi, om, integrals))
            got = ics._pair_kernel(kt, alpha, phi_in, phi_h, theta)(chi, om)
            assert hexes(got) == hexes(want), (kt, chi, om, alpha, phi_in, phi_h, theta)

    def test_search_objective(self):
        rng = np.random.default_rng(1)
        for kt, psi, r, chi in zip((10 ** rng.uniform(-3, 3, N_POINTS)).tolist(),
                                   rng.uniform(*PSI_BOUNDS_DEFAULT, N_POINTS).tolist(),
                                   rng.uniform(0.0, R_MAX_DEFAULT, N_POINTS).tolist(),
                                   rng.uniform(0.0, 3.0, N_POINTS).tolist()):
            fix_chi = chi if chi < 2.0 else None
            x = (psi, r) if fix_chi is None else (0.0, r)
            _, objective, point = ics.IcsConfig.search(kt, R_MAX_DEFAULT, fix_chi)
            snr, gs = ref.ics_objective(kt, fix_chi)(*x)
            value, argmax = point(*x)
            assert hexes([objective(*x), value]) == hexes([snr, snr])
            assert argmax["phase"] == (1.0 if gs > 0 else -1.0)


class TestIesKernel:
    def test_points_cover_the_series_switch(self):
        w = [abs(chi - 0.5j) * kt for kt, chi, *_ in ies_points(2, N_POINTS)]
        assert min(sum(4.9e-3 < v < 0.005 for v in w), sum(0.005 <= v < 5.1e-3 for v in w)) > 2000

    def test_same_bits_as_the_unhoisted_forms(self):
        for kt, chi, alpha, phi_in, phi_h in ies_points(2, N_POINTS):
            want = (ref.ies_signal(kt, chi, alpha, phi_in, phi_h, 1),
                    ref.ies_signal(kt, chi, alpha, phi_in, phi_h, -1), ref.noise_shape(kt, chi))
            got = ies._pair_kernel(kt, alpha, phi_in, phi_h)(chi)
            assert hexes(got) == hexes(want), (kt, chi, alpha, phi_in, phi_h)

    @pytest.mark.parametrize("r_max", [R_MAX_DEFAULT, 0.0], ids=["ies", "standard"])
    def test_search_objective(self, r_max):
        rng = np.random.default_rng(3)
        for kt, psi in zip((10 ** rng.uniform(-4, 3, N_POINTS // 2)).tolist(),
                           rng.uniform(*PSI_BOUNDS_DEFAULT, N_POINTS // 2).tolist()):
            _, objective, point = ies.IesConfig.search(kt, r_max)
            snr, r, shape = ref.ies_objective(kt, r_max)(psi)
            value, argmax = point(psi)
            assert hexes([objective(psi), value, argmax["r"]]) == hexes([snr, snr, r])
            assert argmax["phase"] == (-1.0 if shape >= 0 else 1.0)


#: the search of each scheme name, as maximize_snr runs it
SEARCHES = {"ies": (ies.IesConfig, R_MAX_DEFAULT), "standard": (ies.IesConfig, 0.0),
            "ics": (ics.IcsConfig, R_MAX_DEFAULT)}
SHIPPED_GRID = np.geomspace(1e-2, 1e2, 25).tolist()      # fig2b, fig2c, fig4a, figS1, figS3


def reference_report(scheme, kappa_tau, fix_chi):
    """(best_snr, psi, r, phase, evaluations, converged) of maximize_snr's box search run
    on the unhoisted objective; a two-axis grid evaluates it point by point."""
    config, r_max = SEARCHES[scheme]
    bounds, _, _ = config.search(kappa_tau, r_max, fix_chi)
    if config is ies.IesConfig:
        scored = ref.ies_objective(kappa_tau, r_max)
    else:
        scored = ref.ics_objective(kappa_tau, fix_chi)
        grid = np.vectorize(lambda psi, r: scored(psi, r)[0])

    def objective(*x):
        return grid(*x) if np.ndim(x[0]) else scored(*x)[0]

    if all(lo == hi for lo, hi in bounds):
        x, evals, converged = [lo for lo, _ in bounds], 0, True
    else:
        _, x, evals, converged = optimize.maximize_over_box(objective, bounds)
    if config is ies.IesConfig:
        snr, r, shape = scored(*x)
        return snr, x[0], r, -1.0 if shape >= 0 else 1.0, evals + 1, converged
    snr, gs = scored(*x)
    return snr, x[0], x[1], 1.0 if gs > 0 else -1.0, evals + 1, converged


@pytest.mark.parametrize("scheme", ["standard", "ies", "ics"])
@pytest.mark.parametrize("fix_chi", [0.5, None], ids=["fixed_chi", "free"])
def test_reports_on_the_shipped_grid(scheme, fix_chi):
    for kt in SHIPPED_GRID:
        report = optimize.maximize_snr(scheme, kt, fix_chi=fix_chi)
        got = (report.best_snr, report.argmax["psi"], report.argmax["r"],
               report.argmax["phase"], report.evaluations, report.converged)
        assert got == reference_report(scheme, kt, fix_chi), kt
