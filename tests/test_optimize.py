import math

import numpy as np
import pytest

from sqreadout.core import PSI_BOUNDS_DEFAULT, BracketError, QubitState, ReadoutParams, bisect
from sqreadout import ics, ies, optimize

R_MAX = optimize.R_MAX_DEFAULT


def scan_maximize_over_box(objective, bounds):
    """Reference: maximize_over_box with one scalar objective call per grid point.

    The recursive grid scan and the coordinate-descent golden sections as they
    were before the grid became one array call and the refinement evaluated
    the box edges.
    """
    n, tol = 64, 1e-6
    axes = []
    for lo, hi in bounds:
        if hi < lo:
            raise ValueError("empty bounds")
        if hi == lo:
            axes.append([lo])
        else:
            axes.append([lo + (hi - lo) * i / (n - 1) for i in range(n)])

    best_val = -math.inf
    best_x: list[float] = []
    evals = 0

    def scan(prefix: list[float], depth: int):
        nonlocal best_val, best_x, evals
        if depth == len(axes):
            v = objective(*prefix)
            evals += 1
            if v > best_val or (v == best_val and prefix[::-1] < best_x[::-1]):
                best_val, best_x = v, list(prefix)
            return
        for x in axes[depth]:
            scan(prefix + [x], depth + 1)

    scan([], 0)

    x = list(best_x)
    converged = False
    for _ in range(200):
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):
            if hi == lo:
                continue
            cell = (hi - lo) / (n - 1)
            a = max(lo, x[i] - cell)
            b = min(hi, x[i] + cell)

            def slice_f(xi: float, i=i) -> float:
                trial = list(x)
                trial[i] = xi
                return objective(*trial)

            xi, vi, used = optimize.golden_section_max(slice_f, a, b, tol)
            evals += used
            if vi > best_val:
                moved = max(moved, abs(xi - x[i]))
                x[i] = xi
                best_val = vi
        if moved < tol:
            converged = True
            break
    return best_val, x, evals, converged


def array_grid_maximize_over_box(objective, bounds):
    """Reference: maximize_over_box with its grid as one array call for every box, as it
    was before a box with one free axis became a scalar scan."""
    n, tol = 64, 1e-6
    axes = [[lo] if hi == lo else [lo + (hi - lo) * i / (n - 1) for i in range(n)]
            for lo, hi in bounds]
    shape = tuple(len(axis) for axis in axes)
    grid = np.broadcast_to(objective(*np.meshgrid(*axes, indexing="ij")), shape)
    ranked = np.where(np.isnan(grid), -np.inf, grid).transpose().ravel()
    best = np.unravel_index(int(np.argmax(ranked)), shape[::-1])[::-1]
    x = [axis[i] for axis, i in zip(axes, best)]
    best_val = objective(*x)
    evals = grid.size
    converged = False
    for _ in range(200):
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):
            if hi == lo:
                continue
            cell = (hi - lo) / (n - 1)
            a, b = max(lo, x[i] - cell), min(hi, x[i] + cell)

            def slice_f(xi, i=i):
                trial = list(x)
                trial[i] = xi
                return objective(*trial)

            xi, vi, used = optimize.golden_section_max(slice_f, a, b, tol)
            evals += used
            for edge, reached in ((lo, a == lo), (hi, b == hi)):
                if reached:
                    v_edge = slice_f(edge)
                    evals += 1
                    if v_edge > vi:
                        xi, vi = edge, v_edge
            if vi > best_val:
                moved = max(moved, abs(xi - x[i]))
                x[i] = xi
                best_val = vi
        if moved < tol:
            converged = True
            break
    return best_val, x, evals, converged


class TestBisect:
    def test_linear(self):
        assert bisect(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(
            1.0, abs=1e-12)

    def test_cosine(self):
        assert bisect(math.cos, 1.0, 2.0, 1e-12) == pytest.approx(
            math.pi / 2.0, abs=1e-11)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x + 5.0, 0.0, 1.0, 1e-6)

    def test_call_count_bound(self):
        counter = {"n": 0}

        def f(x):
            counter["n"] += 1
            return x - 0.37

        tol = 1e-9
        bisect(f, 0.0, 1.0, tol)
        # two endpoint evaluations plus the bisection steps
        assert counter["n"] <= math.ceil(math.log2(1.0 / tol)) + 4

    def test_residual_shrinks_with_tol(self):
        f = lambda x: math.tanh(x - 0.3)
        prev = None
        for tol in (1e-3, 1e-6, 1e-9, 1e-12):
            x = bisect(f, -1.0, 1.0, tol)
            res = abs(f(x))
            if prev is not None:
                assert res <= prev
            prev = res


class TestMaximizeOverBox:
    def test_parabola_vertex(self):
        val, x, evals, converged = optimize.maximize_over_box(
            lambda a, b: -(a - 0.3) ** 2 - (b - 0.7) ** 2, [(0.0, 1.0), (0.0, 1.0)])
        assert converged
        assert x[0] == pytest.approx(0.3, abs=1e-6)
        assert x[1] == pytest.approx(0.7, abs=1e-6)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_never_below_grid(self):
        def rippled(a, b):
            return np.sin(7 * a) * np.cos(5 * b) + 0.3 * a

        n = 64
        grid_best = max(
            rippled(i / (n - 1), j / (n - 1)) for i in range(n) for j in range(n))
        val, _, _, _ = optimize.maximize_over_box(rippled, [(0.0, 1.0), (0.0, 1.0)])
        assert val >= grid_best

    def test_degenerate_axis(self):
        val, x, _, converged = optimize.maximize_over_box(
            lambda a, b: -(b - 0.25) ** 2, [(0.5, 0.5), (0.0, 1.0)])
        assert x[0] == 0.5
        assert x[1] == pytest.approx(0.25, abs=1e-6)

    def test_edge_optimum_is_the_edge(self):
        # a ridge through grid cell (38, 62) that climbs to the upper b edge between
        # two a nodes: the grid picks an interior b and coordinate ascent walks b up
        # to the edge, which golden sections alone never sample
        c = 38 / 63 - 0.5 * 62 / 63

        def ridge(a, b):
            return b - 1000.0 * (a - c - 0.5 * b) ** 2

        bounds = [(0.0, 1.0), (0.0, 1.0)]
        val, x, _, converged = optimize.maximize_over_box(ridge, bounds)
        assert converged and x[1] == 1.0
        assert x[0] == pytest.approx(c + 0.5, abs=1e-6)
        ref_val, ref_x, _, _ = scan_maximize_over_box(ridge, bounds)
        assert ref_x[1] < 1.0 and val > ref_val

    @pytest.mark.parametrize("objective", [
        lambda a, b: -np.round(4.0 * ((a - 0.5) ** 2 + (b - 0.4) ** 2)),
        lambda a, b: np.round(np.sin(7 * a) * np.cos(5 * b) + 0.3 * a, 1),
        lambda a, b: -(a - 0.3) ** 2 - (b - 0.7) ** 2 + 0.5 * a * b,
        lambda a, b: np.where(b < 0.6, np.nan, -(a - 0.3) ** 2 - (b - 0.7) ** 2),
    ], ids=["plateau", "rippled_plateaus", "tilted_bowl", "nan_region"])
    def test_matches_point_by_point_scan(self, objective):
        # ties break toward the smallest coordinates, last coordinate first; NaN never wins
        bounds = [(0.0, 1.0), (0.1, 0.9)]
        val, x, _, converged = optimize.maximize_over_box(objective, bounds)
        ref_val, ref_x, _, ref_converged = scan_maximize_over_box(objective, bounds)
        assert (val, x, converged) == (ref_val, ref_x, ref_converged)


    @pytest.mark.parametrize("objective", [
        lambda a, b: -np.round(4.0 * ((a - 0.5) ** 2 + (b - 0.4) ** 2)),
        lambda a, b: np.round(np.sin(7 * a) * np.cos(5 * b) + 0.3 * a, 1),
        lambda a, b: np.where(b < 0.6, np.nan, -(a - 0.3) ** 2 - (b - 0.7) ** 2),
        lambda a, b: b - 3.0 * a,
    ], ids=["plateau", "rippled_plateaus", "nan_region", "edge"])
    @pytest.mark.parametrize("bounds", [[(0.3, 0.3), (0.1, 0.9)], [(0.0, 1.0), (0.8, 0.8)]],
                             ids=["free_b", "free_a"])
    def test_one_free_axis_matches_the_array_grid(self, objective, bounds):
        # the scalar grid keeps the array grid's rules: NaN never wins, the first maximum does
        got = optimize.maximize_over_box(objective, bounds)
        assert got == array_grid_maximize_over_box(objective, bounds)

    def test_one_free_axis_of_nan_picks_its_first_cell(self):
        val, x, evals, converged = optimize.maximize_over_box(lambda a: math.nan, [(0.2, 1.0)])
        assert math.isnan(val) and x == [0.2] and evals > 64 and converged

    def test_settle_stops_an_interior_search_after_one_sweep(self):
        # the refined point is the first bracket's maximum to 1e-6; the old drivers sweep
        # again around it
        def objective(a):
            return -(a - 0.49) ** 2

        bounds = [(0.0, 1.0)]
        val, x, evals, converged = optimize.maximize_over_box(objective, bounds, settle=True)
        ref_val, ref_x, ref_evals, _ = array_grid_maximize_over_box(objective, bounds)
        cell = 1.0 / 63
        best = round(0.49 / cell) * cell
        first, first_val, used = optimize.golden_section_max(objective, best - cell,
                                                             best + cell, 1e-6)
        assert (val, x, evals, converged) == (first_val, [first], 64 + used, True)
        assert ref_evals > evals and abs(x[0] - ref_x[0]) <= 1e-6
        assert val == pytest.approx(ref_val, abs=1e-12)

    @pytest.mark.parametrize("objective", [lambda a: -(a - 1.0) ** 2, lambda a: -a],
                             ids=["hi_edge", "lo_edge"])
    def test_settle_keeps_edge_brackets(self, objective):
        # brackets that reach a box edge sweep as before, with the same bits
        bounds = [(0.0, 1.0)]
        got = optimize.maximize_over_box(objective, bounds, settle=True)
        assert got == array_grid_maximize_over_box(objective, bounds)

    def test_settle_leaves_two_axis_boxes_alone(self):
        def objective(a, b):
            return -(a - 0.41) ** 2 - (b - 0.53) ** 2

        bounds = [(0.0, 1.0), (0.0, 1.0)]
        assert (optimize.maximize_over_box(objective, bounds, settle=True)
                == array_grid_maximize_over_box(objective, bounds))

    def test_refined_point_at_an_interior_bracket_end_sweeps_again(self):
        # a plateau that ends just inside the upper end of the first bracket, past which
        # the objective drops: the first sweep refines to within tol of that end, so a
        # settling search does not stop and sweeps again, as the old drivers do
        step = 31 / 63      # the grid node above the best cell, 30/63
        top = step - 0.5e-6

        def objective(a):
            return np.where(a < step, np.minimum(a, top), 0.0)

        a, b = 30 / 63 - 1 / 63, 30 / 63 + 1 / 63
        first, _, used = optimize.golden_section_max(objective, a, b, 1e-6)
        assert 0.0 <= b - first <= 1e-6
        got = optimize.maximize_over_box(objective, [(0.0, 1.0)], settle=True)
        assert got == array_grid_maximize_over_box(objective, [(0.0, 1.0)])
        assert got[0] == top and got[2] > 64 + used


class TestMaximizeSnr:
    def test_deterministic(self):
        a = optimize.maximize_snr("ies", 1.0)
        b = optimize.maximize_snr("ies", 1.0)
        assert a == b

    def test_fixed_coupling_reference_values(self):
        ies_opt = optimize.maximize_snr("ies", 1.0, fix_chi=0.5)
        assert ies_opt.best_snr == pytest.approx(0.2946, abs=3e-3)
        assert ies_opt.argmax["r"] == pytest.approx(0.805, abs=0.02)
        ics_opt = optimize.maximize_snr("ics", 1.0, fix_chi=0.5)
        assert ics_opt.best_snr == pytest.approx(0.2080, abs=3e-3)
        assert ics_opt.argmax["r"] == pytest.approx(1.508, abs=0.03)

    def test_standard_fixed_and_free(self):
        fixed = optimize.maximize_snr("standard", 1.0, fix_chi=0.5)
        assert fixed.best_snr == pytest.approx(0.18260738, rel=1e-6)
        free = optimize.maximize_snr("standard", 1.0)
        assert free.best_snr == pytest.approx(0.7408, abs=3e-3)
        assert free.best_snr > fixed.best_snr

    def test_free_optimum_exceeds_fixed(self):
        free = optimize.maximize_snr("ies", 1.0)
        assert free.best_snr == pytest.approx(0.8024, abs=5e-3)
        assert free.argmax["chi_over_kappa"] > 2.0

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            optimize.maximize_snr("laser", 1.0)

    def test_any_config_search_plugs_in(self, monkeypatch):
        # one path for every table entry: a box with a free axis is searched, a box
        # without one is evaluated once
        class Parabola:
            @staticmethod
            def search(kappa_tau, r_max, fix_chi=None):
                def objective(psi):
                    return -(psi - 0.3) ** 2
                box = [(0.0, 1.0)] if fix_chi is None else [(fix_chi, fix_chi)]
                return box, objective, lambda psi: (objective(psi), {"psi": psi})

        monkeypatch.setitem(optimize._SEARCHES, "parabola", (Parabola, 0.0))
        free = optimize.maximize_snr("parabola", 1.0)
        assert free.argmax["psi"] == pytest.approx(0.3, abs=1e-6) and free.converged
        assert free.evaluations > 64
        fixed = optimize.maximize_snr("parabola", 1.0, fix_chi=0.5)
        assert fixed == optimize.OptimumReport(-(0.5 - 0.3) ** 2, {"psi": 0.5}, 1, True)


class TestAnalyticIesSetting:
    @pytest.mark.parametrize("kappa_tau, chi", [(0.03, 0.5), (1.0, 0.5), (3.0, 1.0)],
                             ids=["r_max", "F>0", "F<0"])
    def test_no_grid_point_beats_it(self, kappa_tau, chi):
        best = optimize.maximize_snr("ies", kappa_tau, fix_chi=chi)
        assert best.evaluations == 1 and best.converged
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        sep = ies.ies_moments(params, ies.IesConfig(0.0, 0.0)).separation
        brute = 0.0
        for phase in np.linspace(-1.0, 1.0, 21):
            # cos(varphi - 2 phi_h) = phase at phi_h = pi/2
            varphi = math.pi + math.acos(phase)
            for r in np.linspace(0.0, optimize.R_MAX_DEFAULT, 4001):
                cfg = ies.IesConfig(float(r), varphi)
                noise = sum(ies.ies_noise(params, cfg, s) for s in QubitState)
                brute = max(brute, sep / math.sqrt(noise))
        assert brute <= best.best_snr * (1.0 + 1e-12)
        assert brute >= best.best_snr * (1.0 - 1e-6)
        shape = ies.ies_noise_shape(params)
        r = best.argmax["r"]
        if r < optimize.R_MAX_DEFAULT:
            assert math.tanh(2.0 * r) == pytest.approx(abs(shape), rel=1e-12)
        else:
            assert abs(shape) >= math.tanh(2.0 * r)
        assert best.argmax["phase"] == (-1.0 if shape >= 0 else 1.0)


def two_phase_ics_search(kappa_tau, fix_chi=None):
    """Reference: the ICS search before the phase was set per point.

    One grid + golden-section box search per phase extreme sin(2 phi_h - theta)
    = -1, +1; the better one wins, ties going to -1.
    """
    def objective(psi, r, phase_sin):
        omega = ics.ics_omega_from_r(1.0, r)
        if fix_chi is None:
            lam = 0.5 * math.tan(psi)
            chi = math.sqrt(lam * lam + 4.0 * omega * omega)
        else:
            chi = fix_chi
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        cfg = ics.IcsConfig(omega, 0.0)
        if not ics.ics_stability(params, cfg):
            return 0.0
        sep = ics.ics_moments(params, cfg).separation
        g0, gs, _ = ics.ics_noise_components(params, cfg)
        noise = 2.0 * g0 - 2.0 * phase_sin * gs
        if noise <= 0:
            return 0.0
        return sep / math.sqrt(noise)

    bounds, _, _ = ics.IcsConfig.search(kappa_tau, R_MAX, fix_chi)
    best = None
    for phase in (-1.0, 1.0):
        val, x, _, _ = scan_maximize_over_box(lambda p, r, ph=phase: objective(p, r, ph), bounds)
        if best is None or val > best[0]:
            best = (val, x, phase)
    return best


class TestIcsOneSearch:
    @pytest.mark.parametrize("kappa_tau, fix_chi", [
        (0.05, 0.5), (0.3, 0.2), (1.0, 0.5), (3.0, 1.0), (30.0, 0.5), (2.0, None)])
    def test_matches_two_phase_search(self, kappa_tau, fix_chi):
        val, (psi, r), phase = two_phase_ics_search(kappa_tau, fix_chi)
        report = optimize.maximize_snr("ics", kappa_tau, fix_chi=fix_chi)
        assert_old_ics_optimum(report, val, r, kappa_tau)
        assert (report.argmax["psi"], report.argmax["phase"]) == (psi, phase)
        r = report.argmax["r"]
        assert report.argmax["omega_2ph_over_kappa"] == ics.ics_omega_from_r(1.0, r)
        if fix_chi is None:
            assert report.argmax["lambda_over_kappa"] == 0.5 * math.tan(psi)
        else:
            assert report.argmax["chi_over_kappa"] == fix_chi


def public_ies_objective(kappa_tau, r_max):
    """Reference: the IES/standard search objective through the public API."""
    def objective(psi):
        chi = 0.5 * math.tan(psi)
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        sep = ies.ies_moments(params, ies.IesConfig(0.0, 0.0)).separation
        shape = ies.ies_noise_shape(params)
        f = abs(shape)
        r = r_max if f >= math.tanh(2.0 * r_max) else 0.5 * math.atanh(f)
        noise = 2.0 * kappa_tau * (math.cosh(2.0 * r) - f * math.sinh(2.0 * r))
        return sep / math.sqrt(noise), r, (-1.0 if shape >= 0 else 1.0)

    return objective


def public_ics_objective(kappa_tau, fix_chi=None):
    """Reference: the ICS search objective through the public API."""
    def objective(psi, r):
        omega = ics.ics_omega_from_r(1.0, r)
        lam = 0.5 * math.tan(psi)
        chi = math.sqrt(lam * lam + 4.0 * omega * omega) if fix_chi is None else fix_chi
        params = ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kappa_tau)
        cfg = ics.IcsConfig(omega, 0.0)
        if not ics.ics_stability(params, cfg):
            return 0.0, -1.0
        sep = ics.ics_moments(params, cfg).separation
        g0, gs, _ = ics.ics_noise_components(params, cfg)
        noise = 2.0 * g0 - 2.0 * abs(gs)
        return (sep / math.sqrt(noise) if noise > 0 else 0.0), (1.0 if gs > 0 else -1.0)

    return objective


def random_points(count, seed):
    """(kappa_tau, psi, r, chi) drawn over the search boxes, log-uniform in kappa_tau."""
    rng = np.random.default_rng(seed)
    return [(float(10 ** rng.uniform(-2, 2)), float(rng.uniform(*PSI_BOUNDS_DEFAULT)),
             float(rng.uniform(0.0, R_MAX)), float(rng.uniform(0.05, 2.0)))
            for _ in range(count)]


class TestScalarObjective:
    def test_same_bits_as_public_api(self):
        # the search objectives skip the params objects and the stability checks of
        # the public API, but perform the same float operations
        for kt, psi, r, chi in random_points(3000, seed=0):
            for fix_chi, x in ((None, (psi, r)), (chi, (0.0, r))):
                _, objective, point = ics.IcsConfig.search(kt, R_MAX, fix_chi)
                val, phase = public_ics_objective(kt, fix_chi)(*x)
                snr, argmax = point(*x)
                assert objective(*x) == snr == val and argmax["phase"] == phase
            for r_max in (R_MAX, 0.0):
                _, objective, point = ies.IesConfig.search(kt, r_max)
                val, r_opt, phase = public_ies_objective(kt, r_max)(psi)
                snr, argmax = point(psi)
                assert objective(psi) == snr == val
                assert (argmax["r"], argmax["phase"]) == (r_opt, phase)


def near_exceptional_r(chi):
    """Squeeze parameters around chi = 2 Omega, where lambda = 0 (needs chi < kappa/2)."""
    r_ep = math.log((1.0 + 2.0 * chi) / (1.0 - 2.0 * chi))
    return [r_ep * (1.0 + e) for e in (0.0, 1e-14, -1e-14, 1e-12, -1e-12, 1e-9, -1e-9,
                                        1e-6, -1e-6, 1e-3, -1e-3)]


class TestArrayObjective:
    """One array call over many points against one scalar call per point.

    Both agree within 1e-9 relative or 1e-13 absolute (SNR at alpha_in =
    sqrt(kappa)).  The absolute floor covers short times: there the SNR, down to
    ~1e-6, is a small difference of O(kappa tau) terms, and last-bit
    differences between numpy's and libm's elementary functions reach a few
    1e-9 relative (below 2e-14 absolute).
    """

    def test_ics_fixed_chi(self):
        rng = np.random.default_rng(1)
        for chi in (0.05, 0.2, 0.45, 0.5, 1.0, 2.0):
            for kt in (0.01, 0.3, 1.0, 3.0, 100.0):
                rs = list(rng.uniform(0.0, R_MAX, 40)) + [0.0, R_MAX]
                if chi < 0.5:
                    rs += near_exceptional_r(chi)
                rs = np.array(rs)
                _, objective, _ = ics.IcsConfig.search(kt, R_MAX, chi)
                snr = objective(np.zeros_like(rs), rs)
                for i, r in enumerate(rs):
                    assert snr[i] == pytest.approx(objective(0.0, float(r)),
                                                   rel=1e-9, abs=1e-13), (chi, kt, r)

    def test_ics_free(self):
        points = random_points(2000, seed=2)
        by_kt = {}
        for kt, psi, r, _ in points:
            by_kt.setdefault(round(math.log10(kt), 1), []).append((psi, r))
        for key, pairs in by_kt.items():
            _, objective, _ = ics.IcsConfig.search(10 ** key, R_MAX)
            psi, r = np.array(pairs).T
            scalar = [objective(float(p), float(x)) for p, x in pairs]
            np.testing.assert_allclose(objective(psi, r), scalar, rtol=1e-9, atol=1e-13)


class TestIcsSearchBox:
    def test_every_point_is_stable_and_stationary(self):
        # the ICS objective has no stability mask because no point of its box needs
        # one: 4 Omega <= 0.82 kappa at r <= ln 10, lambda^2 >= 0 on the free box and
        # lambda^2 >= -4 Omega^2 > -kappa^2/4 at any fixed chi
        box, _, _ = ics.IcsConfig.search(1.0, R_MAX)
        psi, r = np.meshgrid(*(np.linspace(lo, hi, 501) for lo, hi in box), indexing="ij")
        omega = ics._omega_from_r(1.0, r, np)
        lam = 0.5 * np.tan(psi)
        _, unstable, steady = ics._stability(1.0, np.sqrt(lam * lam + 4.0 * omega * omega), omega)
        assert not unstable.any() and steady.all()
        for fix_chi in (0.0, 0.05, 0.5, 2.0):
            (psi_box, (lo, hi)), _, _ = ics.IcsConfig.search(1.0, R_MAX, fix_chi)
            omega = ics._omega_from_r(1.0, np.linspace(lo, hi, 100001), np)
            _, unstable, steady = ics._stability(1.0, fix_chi, omega)
            assert psi_box == (0.0, 0.0) and not unstable.any() and steady.all()


#: the search of each scheme name, as maximize_snr runs it
SEARCHES = {"ies": (ies.IesConfig, R_MAX), "standard": (ies.IesConfig, 0.0),
            "ics": (ics.IcsConfig, R_MAX)}


def scan_maximize_snr(scheme, kappa_tau, fix_chi=None):
    """Reference: maximize_snr with its grid scanned one scalar call per point.

    Returns (best_snr, (psi, r, phase)).
    """
    config, r_max = SEARCHES[scheme]
    bounds, objective, point = config.search(kappa_tau, r_max, fix_chi)
    _, x, _, _ = scan_maximize_over_box(objective, bounds)
    val, argmax = point(*x)
    return val, (argmax["psi"], argmax["r"], argmax["phase"])


COMPARISON_GRID = [float(kt) for kt in np.geomspace(1e-2, 1e2, 61)]
# free ICS optima on the r = ln 10 edge that the point-by-point scan reports up to
# 3.5e-7 inside it, because its golden sections never sample the edge
EDGE_MOVES = (13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 25, 26, 29)

# From kappa*tau = 1 on, the fixed-chi ICS search stops after a sweep that stays inside
# its r box, where the old drivers above sweep again (maximize_snr's settle).  A search
# whose brackets reach a box edge keeps their bits; a settled one lies within SETTLE_X in
# r and SETTLE_VALUE relative in the SNR of theirs.
SETTLE_X, SETTLE_VALUE = 1e-6, 1e-12


def assert_old_ics_optimum(report, ref_val, ref_r, kappa_tau):
    """A fixed-chi ICS report against an old driver's (SNR, r), as judged above."""
    r = report.argmax["r"]
    if (report.best_snr, r) == (ref_val, ref_r):
        return
    assert kappa_tau >= optimize.ICS_SETTLE_KAPPA_TAU, (kappa_tau, report)
    assert 0.0 < r < R_MAX and report.converged, (kappa_tau, report)
    assert math.fabs(r - ref_r) <= SETTLE_X, (kappa_tau, r, ref_r)
    assert report.best_snr == pytest.approx(ref_val, rel=SETTLE_VALUE), (kappa_tau, report)


class TestMaximizeSnrMatchesScan:
    @pytest.mark.parametrize("scheme", ["ies", "standard", "ics"])
    @pytest.mark.parametrize("fix_chi", [0.5, None], ids=["fixed_chi", "free"])
    def test_comparison_grid(self, scheme, fix_chi):
        for i, kt in enumerate(COMPARISON_GRID):
            report = optimize.maximize_snr(scheme, kt, fix_chi=fix_chi)
            val, (psi, r, phase) = scan_maximize_snr(scheme, kt, fix_chi)
            argmax = (report.argmax["psi"], report.argmax["r"], report.argmax["phase"])
            if scheme == "ics" and fix_chi is None and i in EDGE_MOVES:
                assert argmax == (psi, R_MAX, phase) and r < R_MAX
                assert 0.0 < report.best_snr / val - 1.0 < 1.1e-9
            elif scheme == "ics" and fix_chi is not None:
                assert_old_ics_optimum(report, val, r, kt)
                assert (argmax[0], argmax[2]) == (psi, phase), (i, kt)
            else:
                assert (report.best_snr, argmax) == (val, (psi, r, phase)), (i, kt)


@pytest.mark.parametrize("scheme, fix_chi", [("ics", 0.5)])
def test_one_axis_searches_match_the_array_grid(scheme, fix_chi):
    # the one-axis searches scan their grid with scalar calls; on this grid no cell the
    # numpy pass would pick differs from the one the scalar scan picks (only the ICS
    # objective takes arrays).  Searches below kappa*tau = 1 or whose brackets reach the
    # r edge keep every sweep and the same report; the others settle after one sweep
    config, r_max = SEARCHES[scheme]
    settled = 0
    for kt in COMPARISON_GRID:
        bounds, objective, point = config.search(kt, r_max, fix_chi)
        _, x, evals, converged = array_grid_maximize_over_box(objective, bounds)
        old = optimize.OptimumReport(*point(*x), evals + 1, converged)
        report = optimize.maximize_snr(scheme, kt, fix_chi=fix_chi)
        if report.evaluations == old.evaluations:
            assert report == old, kt
            continue
        settled += 1
        assert_old_ics_optimum(report, old.best_snr, old.argmax["r"], kt)
        assert report.argmax["psi"] == old.argmax["psi"] and report.evaluations < old.evaluations
    assert settled == 26     # kappa*tau from 1 to 46


def test_flat_fixed_chi_top_keeps_its_sweeps():
    # at kappa*tau = 0.464 the r top is flat to rounding over +-3e-6: a settled search
    # would stop 1.76e-6 from the old drivers' r, whose own second sweep moved r by as
    # much.  Below kappa*tau = 1 the search keeps its sweeps and the old report
    kt = COMPARISON_GRID[25]
    bounds, objective, point = ics.IcsConfig.search(kt, R_MAX, 0.5)
    _, x, evals, converged = array_grid_maximize_over_box(objective, bounds)
    report = optimize.maximize_snr("ics", kt, fix_chi=0.5)
    assert report == optimize.OptimumReport(*point(*x), evals + 1, converged)
    _, settled, _, _ = optimize.maximize_over_box(objective, bounds, settle=True)
    assert math.fabs(settled[1] - x[1]) > SETTLE_X


def test_interior_fixed_chi_search_makes_one_refinement_sweep():
    # the 64-cell grid, one golden section over two r cells and the reported point; the
    # old drivers sweep a second time (117 evaluations) to confirm the same maximum
    report = optimize.maximize_snr("ics", 1.0, fix_chi=0.5)
    assert report.evaluations == 64 + 26 + 1 and report.converged


def test_short_time_fixed_chi_search_keeps_its_sweeps():
    # at kappa*tau = 0.01 rounding sets the argmax, just below the r = ln 10 edge: every
    # bracket reaches the edge, so the search keeps its three sweeps and the old report
    bounds, objective, point = ics.IcsConfig.search(0.01, R_MAX, 0.5)
    _, x, evals, converged = array_grid_maximize_over_box(objective, bounds)
    report = optimize.maximize_snr("ics", 0.01, fix_chi=0.5)
    assert report == optimize.OptimumReport(*point(*x), evals + 1, converged)
    assert report.argmax["r"] == 2.302574856124044
    assert report.best_snr == pytest.approx(2.356429417229637e-06, rel=1e-10)
