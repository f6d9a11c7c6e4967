import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from sqreadout.core import PSI_BOUNDS_DEFAULT, BracketError, ReadoutParams, bisect
from sqreadout import ics, ies, optimize

import mp_reference

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


def stride_walk_evaluations(values):
    """Reference: how many of a one-axis grid's 64 values the stride walk evaluates.

    The walk sees the points 0, 16, 32, 48 and 63, then each stride of 4 and of 1
    between the neighbours (among the points seen) of the first maximum seen so
    far, a NaN below every number.
    """
    seen = {0, 16, 32, 48, 63}
    for stride in (4, 1):
        best = max(sorted(seen), key=lambda i: -math.inf if math.isnan(values[i]) else values[i])
        below = max([i for i in seen if i < best], default=best)
        above = min([i for i in seen if i > best], default=best)
        seen.update(range(below, above, stride))
    return len(seen)


def array_grid_maximize_over_box(objective, bounds, settle=False):
    """Reference: maximize_over_box as it was before a box with one free axis became a scalar
    scan: a 64-point grid per axis for every box, whose best cell is the first maximum
    along the reversed axes (NaN never wins), then sweeps without pattern moves.  The
    former array pass is evaluated one point at a time, in the order of its ranking.  A
    box with one free axis still picks its cell from the full scan, but counts the
    evaluations of the stride walk, and with settle stops as maximize_over_box does."""
    n, tol = 64, 1e-6
    axes = [[lo] if hi == lo else [lo + (hi - lo) * i / (n - 1) for i in range(n)]
            for lo, hi in bounds]
    best_val, x, values = -math.inf, None, []
    for cell in itertools.product(*reversed(axes)):
        v = objective(*reversed(cell))
        values.append(v)
        if x is None or v > best_val:
            best_val, x = (-math.inf if math.isnan(v) else v), list(reversed(cell))
    best_val = objective(*x)
    free = sum(hi > lo for lo, hi in bounds)
    evals = stride_walk_evaluations(values) if free == 1 else len(values)
    converged = False
    for _ in range(200):
        moved, settled = 0.0, False
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
            settled = (settle and free == 1 and lo < a and b < hi
                       and min(xi - a, b - xi) > tol)
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
        if moved < tol or settled:
            converged = True
            break
    return best_val, x, evals, converged


def pattern_scan_maximize_over_box(objective, bounds):
    """Reference: maximize_over_box on a box with two free axes, its 16-point grid
    scanned recursively with the tie rule spelled out, then sweeps whose brackets reach
    one 16-grid cell and evaluate the box edges, each followed by Hooke-Jeeves pattern
    moves along the sweep's displacement."""
    n, tol = 16, 1e-6
    axes = [[lo] if hi == lo else [lo + (hi - lo) * i / (n - 1) for i in range(n)]
            for lo, hi in bounds]
    best_val, best_x, evals = -math.inf, None, 0

    def scan(prefix):
        nonlocal best_val, best_x, evals
        if len(prefix) == len(axes):
            v = objective(*prefix)
            evals += 1
            if best_x is None or v > best_val or (
                    v == best_val and prefix[::-1] < best_x[::-1]):
                best_val, best_x = (-math.inf if math.isnan(v) else v), list(prefix)
            return
        for xi in axes[len(prefix)]:
            scan(prefix + [xi])

    scan([])
    x, best_val = best_x, objective(*best_x)
    converged = False
    for _ in range(200):
        start, moved = list(x), 0.0
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
            for edge in (e for e, reached in ((lo, a == lo), (hi, b == hi)) if reached):
                v_edge = slice_f(edge)
                evals += 1
                if v_edge > vi:
                    xi, vi = edge, v_edge
            if vi > best_val:
                moved = max(moved, abs(xi - x[i]))
                x[i], best_val = xi, vi
        if moved < tol:
            converged = True
            break
        for k in itertools.count(1):
            trial = [min(hi, max(lo, s + 2 ** k * (xi - s)))
                     for s, xi, (lo, hi) in zip(start, x, bounds)]
            if trial == x:
                break
            v = objective(*trial)
            evals += 1
            if not v > best_val:
                break
            x, best_val = trial, v
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


class TestGoldenSection:
    @pytest.mark.parametrize("lo, hi, tol, name", [
        (0.0, 1.0, 0.0, "tol"), (0.0, 1.0, -1e-6, "tol"), (0.0, 1.0, math.nan, "tol"),
        (0.0, 1.0, math.inf, "tol"), (0.0, math.inf, 1e-6, "ends"),
        (-math.inf, 1.0, 1e-6, "ends"), (math.nan, 1.0, 1e-6, "ends"), (1.0, 0.0, 1e-6, "ends")],
        ids=["zero_tol", "negative_tol", "nan_tol", "inf_tol", "inf_hi", "inf_lo", "nan_lo",
             "reversed"])
    def test_unusable_arguments_raise(self, lo, hi, tol, name):
        # tol <= 0 spun forever once the bracket stalled a few ulps wide; reversed ends
        # returned an unrefined probe point after two evaluations
        calls = itertools.count()

        def f(x):
            if next(calls) > 10_000:
                raise RuntimeError("golden section did not stop")
            return -(x - 0.3) ** 2

        with pytest.raises(ValueError, match=name):
            optimize.golden_section_max(f, lo, hi, tol)


class TestMaximizeOverBox:
    @pytest.mark.parametrize("bounds", [
        [(0.0, math.inf)], [(math.nan, 1.0)], [(0.0, math.nan)], [(-math.inf, 0.0)],
        [(0.0, 1.0), (0.0, math.inf)]],
        ids=["inf_hi", "nan_lo", "nan_hi", "inf_lo", "second_axis"])
    def test_non_finite_bounds_are_named(self, bounds):
        # each of these searched a NaN grid and reported (nan, [nan], 67-70, True)
        bad = next(b for b in bounds if not all(map(math.isfinite, b)))
        with pytest.raises(ValueError, match=re.escape(f"non-finite bounds {bad}")):
            optimize.maximize_over_box(lambda *x: -sum(xi * xi for xi in x), bounds)

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

    def test_no_free_axis_is_one_cell(self):
        val, x, evals, converged = optimize.maximize_over_box(lambda a, b: a - b,
                                                             [(0.5, 0.5), (0.25, 0.25)])
        assert (val, x, evals, converged) == (0.25, [0.5, 0.25], 1, True)

    def test_two_axes_of_nan_pick_their_first_cell(self):
        # compared by repr, as nan != nan; the 256 grid cells and one sweep
        bounds = [(0.0, 1.0), (0.1, 0.9)]
        got = optimize.maximize_over_box(lambda a, b: math.nan, bounds)
        assert repr(got) == repr(pattern_scan_maximize_over_box(lambda a, b: math.nan, bounds))
        assert repr(got) == repr((math.nan, [0.0, 0.1], 309, True))

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
        lambda a, b: -1000.0 * (a - b) ** 2 - (a + b - 1.23) ** 2,
    ], ids=["plateau", "rippled_plateaus", "tilted_bowl", "nan_region", "diagonal_ridge"])
    def test_matches_point_by_point_scan(self, objective):
        # ties break toward the smallest coordinates, last coordinate first; NaN never wins
        bounds = [(0.0, 1.0), (0.1, 0.9)]
        got = optimize.maximize_over_box(objective, bounds)
        assert got == pattern_scan_maximize_over_box(objective, bounds)

    def test_pattern_moves_follow_a_diagonal_ridge(self):
        # coordinate sweeps alone crawl along a narrow diagonal ridge and stop at the
        # 200-sweep cap; pattern moves along each sweep's displacement follow it
        def ridge(a, b):
            return -1000.0 * (a - b) ** 2 - (a + b - 1.23) ** 2

        bounds = [(0.0, 1.0), (0.0, 1.0)]
        val, _, evals, converged = optimize.maximize_over_box(ridge, bounds)
        ref_val, _, ref_evals, ref_converged = array_grid_maximize_over_box(ridge, bounds)
        assert converged and not ref_converged
        assert val > ref_val and evals < ref_evals / 5

    @pytest.mark.parametrize("objective", [
        lambda a, b: -np.round(4.0 * ((a - 0.5) ** 2 + (b - 0.4) ** 2)),
        lambda a, b: np.round(np.sin(7 * a) * np.cos(5 * b) + 0.3 * a, 1),
        lambda a, b: np.where(b < 0.6, np.nan, -(a - 0.3) ** 2 - (b - 0.7) ** 2),
        lambda a, b: b - 3.0 * a,
    ], ids=["plateau", "rippled_plateaus", "nan_region", "edge"])
    @pytest.mark.parametrize("bounds", [[(0.3, 0.3), (0.1, 0.9)], [(0.0, 1.0), (0.8, 0.8)]],
                             ids=["free_b", "free_a"])
    def test_one_free_axis_matches_the_array_grid(self, objective, bounds):
        # the stride walk picks the full grid's cell: NaN never wins, the first maximum does
        got = optimize.maximize_over_box(objective, bounds)
        assert got == array_grid_maximize_over_box(objective, bounds)

    def test_one_free_axis_of_nan_picks_its_first_cell(self):
        val, x, evals, converged = optimize.maximize_over_box(lambda a: math.nan, [(0.2, 1.0)])
        # the walk sees cells 0, 16, 32, 48, 63, then 4, 8, 12, then 1, 2, 3; the sweep
        # adds one golden section over the first grid cell and the lower box edge
        _, _, used = optimize.golden_section_max(lambda a: math.nan, 0.2, 0.2 + 0.8 / 63, 1e-6)
        assert math.isnan(val) and x == [0.2] and evals == 11 + used + 1 and converged

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
        # the walk sees 17 of the 64 cells: 5 at stride 16, then 6 at strides 4 and 1
        assert (val, x, evals, converged) == (first_val, [first], 17 + used, True)
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
                == pattern_scan_maximize_over_box(objective, bounds))

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
        assert got[0] == top and got[2] > 17 + used


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

    @pytest.mark.parametrize("scheme, kappa_tau, fix_chi, name", [
        ("ies", 1.0, math.nan, "fix_chi"),
        ("ics", 1.0, math.nan, "fix_chi"),
        ("ies", 1.0, math.inf, "fix_chi"),
        ("ics", math.inf, None, "kappa_tau"),
    ], ids=["ies-nan_chi", "ics-nan_chi", "ies-inf_chi", "ics-inf_kt"])
    def test_non_finite_input_is_named(self, scheme, kappa_tau, fix_chi, name):
        # a NaN coupling made a NaN report marked converged (or SNR 0), an infinite one a
        # report at psi = pi/2, and an infinite kappa*tau a bare math domain error
        with pytest.raises(ValueError, match=name):
            optimize.maximize_snr(scheme, kappa_tau, fix_chi=fix_chi)

    def test_free_ics_search_converges_on_every_node(self):
        # coordinate sweeps alone crawled along the (psi, r) ridge and stopped at the
        # 200-sweep cap from kappa*tau ~ 158 on
        unconverged = [kt for kt in np.geomspace(1e-3, 1e3, 61).tolist()
                       if not optimize.maximize_snr("ics", kt).converged]
        assert unconverged == []

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

        monkeypatch.setitem(optimize._SEARCHES, "parabola", (Parabola, 0.0, math.inf))
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
                noise = cfg.moments(params).noise_sum
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
        if fix_chi is None:
            assert_free_ics_optimum(report, val, psi, r, phase)
        else:
            assert_old_ics_optimum(report, val, r, kappa_tau)
            assert (report.argmax["psi"], report.argmax["phase"]) == (psi, phase)
        psi, r = report.argmax["psi"], report.argmax["r"]
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


class TestIcsSearchBox:
    def test_every_point_is_stable_and_stationary(self):
        # the ICS objective has no stability mask because no point of its box needs
        # one: 4 Omega <= 0.82 kappa at r <= ln 10, lambda^2 >= 0 on the free box and
        # lambda^2 >= -4 Omega^2 > -kappa^2/4 at any fixed chi
        box, _, _ = ics.IcsConfig.search(1.0, R_MAX)
        psi, r = np.meshgrid(*(np.linspace(lo, hi, 501) for lo, hi in box), indexing="ij")
        omega = np.vectorize(ics._omega_from_r)(1.0, r)
        lam = 0.5 * np.tan(psi)
        _, unstable, steady = ics._stability(1.0, np.sqrt(lam * lam + 4.0 * omega * omega), omega)
        assert not unstable.any() and steady.all()
        for fix_chi in (0.0, 0.05, 0.5, 2.0):
            (psi_box, (lo, hi)), _, _ = ics.IcsConfig.search(1.0, R_MAX, fix_chi)
            omega = np.vectorize(ics._omega_from_r)(1.0, np.linspace(lo, hi, 100001))
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


# The free ICS search starts from a 16x16 grid and follows the (psi, r) ridge by pattern
# moves, where the old 64x64 searches crawl along it, so it is judged by value: never more
# than FREE_BELOW relative below theirs.  Its argmax moves onto the r = ln 10 edge, gaining
# up to 1.1e-9 (EDGE_MOVES), or along a top flat to FREE_FLAT, by up to FREE_X.
FREE_BELOW, FREE_FLAT, FREE_X = 1e-10, 2e-12, 2e-5


def assert_free_ics_optimum(report, ref_val, ref_psi, ref_r, ref_phase, edge=False):
    """A free ICS report against an old search's optimum, as judged above; a failure
    reports the argmax move."""
    psi, r = report.argmax["psi"], report.argmax["r"]
    gain = report.best_snr / ref_val - 1.0
    move = (gain, psi - ref_psi, r - ref_r)
    assert gain >= -FREE_BELOW and report.converged, move
    assert report.argmax["phase"] == ref_phase, move
    if edge:
        assert r == R_MAX and ref_r < R_MAX and 0.0 < gain < 1.1e-9, move
    else:
        assert abs(gain) <= FREE_FLAT and max(abs(move[1]), abs(move[2])) <= FREE_X, move


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
            if scheme == "ics" and fix_chi is None:
                assert_free_ics_optimum(report, val, psi, r, phase, edge=i in EDGE_MOVES)
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
    # the stride walk's 17 of the 64 r cells, one golden section over two r cells and the
    # reported point; the old drivers sweep a second time (+26) to confirm the same maximum
    report = optimize.maximize_snr("ics", 1.0, fix_chi=0.5)
    assert report.evaluations == 17 + 26 + 1 and report.converged


def test_short_time_fixed_chi_search_keeps_its_sweeps():
    # at kappa*tau = 0.01 rounding sets the argmax, just below the r = ln 10 edge: every
    # bracket reaches the edge, so the search keeps its three sweeps and the old report
    bounds, objective, point = ics.IcsConfig.search(0.01, R_MAX, 0.5)
    _, x, evals, converged = array_grid_maximize_over_box(objective, bounds)
    report = optimize.maximize_snr("ics", 0.01, fix_chi=0.5)
    assert report == optimize.OptimumReport(*point(*x), evals + 1, converged)
    assert report.argmax["r"] == 2.302574856124044
    assert report.best_snr == pytest.approx(2.356429417229637e-06, rel=1e-10)


def full_grid_report(scheme, kappa_tau, fix_chi=None):
    """Reference: maximize_snr with its one-axis grid scanned in full (the evaluations
    still count the stride walk, see array_grid_maximize_over_box)."""
    config, r_max = SEARCHES[scheme]
    bounds, objective, point = config.search(kappa_tau, r_max, fix_chi)
    settle = scheme == "ics" and kappa_tau >= optimize.ICS_SETTLE_KAPPA_TAU
    _, x, evals, converged = array_grid_maximize_over_box(objective, bounds, settle=settle)
    return optimize.OptimumReport(*point(*x), evals + 1, converged)


@pytest.mark.parametrize("scheme, fix_chi, lo, hi", [
    ("ies", None, 1e-4, 1e4), ("standard", None, 1e-4, 1e4),
    ("ics", 0.05, 3e-3, 1e3), ("ics", 0.5, 3e-3, 1e3), ("ics", 5.0, 3e-3, 1e3)])
def test_stride_walk_picks_the_full_grid_cell(scheme, fix_chi, lo, hi):
    # every one-axis search of maximize_snr, the same report as with the full grid: the
    # psi searches over eight decades, the fixed-chi ICS search over r from kappa*tau =
    # 3e-3 on (below about 2e-3 rounding sets its cell, see the next test)
    moved = [kt for kt in np.geomspace(lo, hi, 401).tolist()
             if optimize.maximize_snr(scheme, kt, fix_chi=fix_chi)
             != full_grid_report(scheme, kt, fix_chi)]
    assert moved == []


def mp_fixed_chi_ics_snr(kappa_tau, chi, r):
    """The fixed-chi ICS search objective at 60 digits, at the float Omega of r."""
    omega = ics._omega_from_r(1.0, r)
    up, down = (mp_reference.ics_signal(kappa_tau, chi, omega, 1.0, 0.0, math.pi / 2.0, 0.0, s)
                for s in (1, -1))
    g0, gs, _ = mp_reference.ics_noise_components(kappa_tau, chi, omega)
    with mpmath.workdps(mp_reference.DPS):
        return abs(up - down) / mpmath.sqrt(2 * g0 - 2 * abs(gs))


@pytest.mark.parametrize("chi, walk_better", [(0.05, False), (0.5, True)])
def test_short_time_fixed_chi_cell_is_set_by_rounding(chi, walk_better):
    # below kappa*tau ~ 2e-3 the float objective is rounding noise (the ICS mean keeps
    # about 16 + 2 log10(kappa*tau) digits): at kappa*tau = 1e-4 the walk and the full
    # grid pick different cells and report r and SNR apart (by 4.7 % at chi = 0.05, 8e-4
    # at chi = 0.5), while their 60-digit SNRs differ by 1.1e-5 and 1.2e-6.  Each float
    # SNR is farther from its own 60-digit value than that, so neither cell is chosen by
    # the SNR, and both lie below the 60-digit value at the r = ln 10 edge.
    kt = 1e-4
    report, old = optimize.maximize_snr("ics", kt, fix_chi=chi), full_grid_report("ics", kt, chi)
    r, old_r = report.argmax["r"], old.argmax["r"]
    exact, old_exact = mp_fixed_chi_ics_snr(kt, chi, r), mp_fixed_chi_ics_snr(kt, chi, old_r)
    edge = mp_fixed_chi_ics_snr(kt, chi, R_MAX)
    facts = (r, old_r, report.best_snr, old.best_snr, float(exact), float(old_exact), float(edge))
    assert r != old_r and report.best_snr != old.best_snr, facts
    gap = abs(exact / old_exact - 1)
    assert abs(report.best_snr / exact - 1) > gap and abs(old.best_snr / old_exact - 1) > gap, facts
    assert (exact > old_exact) == walk_better and max(exact, old_exact) < edge, facts
