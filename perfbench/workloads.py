"""The four benchmark workloads: seeded inputs, timed units and output checks.

A workload is a fixed list of units built from ``--seed``.  A unit is one call
a user makes (one figure-table row, one oracle check, one CLI process) and
returns its output as a list of flat dicts or, for the CLI, exit code and
stdout.  Seed 0 puts every input on its shipped value (a subset of the shipped
figure grids); any other seed moves each input by a bounded random jitter
(a quarter of the shipped grid cell in log kappa*tau, a few percent for other
parameters), so every seed does about the same work on different numbers.

The unit closures look module attributes up at call time, so the tracer's
attribute swap reaches them.
"""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    outcome: Callable[[object], str | None] = lambda out: None   # cause if not as expected


@dataclass
class Workload:
    name: str
    units: list[Unit]
    warmup: Callable[[], None]
    check: Callable[[dict], list[tuple[str, str]]]   # invariants: outputs -> [(unit, cause)]
    min_passes: int = 2      # enough units for a tail percentile with ten beyond it
    tolerances: Callable[[str, str], str] = field(default=lambda unit, key: "value")
    speed_job: str = "loop"  # host-speed job doing the kind of work the units do (hostspeed.JOBS)


class Draw:
    """Seeded jitter around shipped inputs; seed 0 returns them unchanged."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.shipped = seed == DEFAULT_SEED

    def u(self) -> float:
        return 0.0 if self.shipped else self.rng.uniform(-1.0, 1.0)

    def log_node(self, x: float, cell: float, lo: float, hi: float) -> float:
        """x moved by up to a quarter of the log-grid cell, kept in [lo, hi]."""
        return min(hi, max(lo, x * math.exp(0.25 * cell * self.u())))

    def scale(self, x: float, frac: float) -> float:
        return x * (1.0 + frac * self.u())


def geomspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _nodes(d: Draw, lo: float, hi: float, n: int, picks) -> list[float]:
    """Shipped geometric grid nodes picked by index, each jittered."""
    grid = geomspace(lo, hi, n)
    cell = math.log(hi / lo) / (n - 1)
    return [d.log_node(grid[i], cell, lo, hi) for i in picks]


def _finite(outputs: dict) -> list[tuple[str, str]]:
    bad = []
    for unit, rows in outputs.items():
        for row in rows:
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    bad.append((unit, f"{key} is not finite"))
    return bad


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return a == b or abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ----------------------------------------------------------- fixed_chi_figures


def fixed_chi_figures(seed: int) -> Workload:
    from sqreadout import figures

    d = Draw(seed)
    # shipped grids: fig2a inset 25 nodes on [1e-3, 1e3]; fig2b/2c/4a 25 nodes on
    # [1e-2, 1e2]; fig3 20 nodes on [0.05, 10] (plus 0.2 and 1); every 4th is kept
    inset = _nodes(d, 1e-3, 1e3, 25, range(0, 25, 4))
    snr_kts = _nodes(d, 1e-2, 1e2, 25, range(0, 25, 4))
    fig3_kts = _nodes(d, 0.05, 10.0, 20, range(0, 20, 4))
    fig4a_kts = _nodes(d, 1e-2, 1e2, 25, range(2, 25, 4))
    figS5_r = d.scale(1.0, 0.05)

    units = [Unit("fig2a", lambda: figures.fig2a_rows())]
    units += [Unit(f"fig2a_inset[{i}]", lambda kt=kt: figures.fig2a_inset_rows(grid=[kt]))
              for i, kt in enumerate(inset)]
    for table, fn in (("fig2b", "fig2b_rows"), ("fig2c", "fig2c_rows")):
        units += [Unit(f"{table}[{i}]", lambda kt=kt, fn=fn: getattr(figures, fn)(grid=[kt]))
                  for i, kt in enumerate(snr_kts)]
    for table in ("fig3a", "fig3b"):    # the shipped fig3a and fig3b build the same table
        units += [Unit(f"{table}[{i}]", lambda kt=kt: figures.fig3_rows(grid=[kt]))
                  for i, kt in enumerate(fig3_kts)]
    units += [Unit(f"fig4a[{i}]", lambda kt=kt: figures.fig4a_rows(grid=[kt]))
              for i, kt in enumerate(fig4a_kts)]
    # fig4b stays at its shipped kappa*tau on every seed: its 22 root solves all share
    # that one value, and as the slowest unit it sets unit_tail_s, which a jittered
    # kappa*tau moved by up to a third between seeds
    units.append(Unit("fig4b", lambda: figures.fig4b_rows(kappa_tau=1.0, count=11)))
    units.append(Unit("figS5", lambda: figures.figS5_rows(r=figS5_r)))

    def warmup():
        figures.fig2b_rows(grid=[1.0])

    def check(outputs: dict) -> list[tuple[str, str]]:
        from sqreadout import combined, core

        bad = _finite(outputs)
        for i in range(len(snr_kts)):
            b, c = outputs.get(f"fig2b[{i}]"), outputs.get(f"fig2c[{i}]")
            if b and c:
                for scheme in ("combined", "ies_opt", "ics_opt", "std"):
                    err = core.fidelity_and_error(b[0][f"snr_{scheme}"])[1]
                    if not close(err, c[0][f"error_{scheme}"], 1e-12):
                        bad.append((f"fig2c[{i}]", f"error_{scheme} != error(fig2b snr)"))
                if min(b[0]["snr_combined"], b[0]["snr_ies_opt"], b[0]["snr_ics_opt"]) <= 0:
                    bad.append((f"fig2b[{i}]", "non-positive SNR"))
        for i in range(len(fig3_kts)):
            a, b = outputs.get(f"fig3a[{i}]"), outputs.get(f"fig3b[{i}]")
            if a and b and a != b:
                bad.append((f"fig3b[{i}]", "fig3b differs from fig3a"))
        for i, kt in enumerate(inset):
            rows = outputs.get(f"fig2a_inset[{i}]")
            if not rows:
                continue
            p = core.ReadoutParams(1.0, figures.CHI_DEFAULT, 1.0, 0.0, math.pi / 2.0, kt)

            def perp(w):
                disp = combined.DispersiveParams.derive(1.0, p.chi, figures.R_DEFAULT, w,
                                                        figures.EPS_DEFAULT)
                return combined.separation_components(p, disp, figures.R_DEFAULT)[1]

            # a root solved to 1e-10 kappa is a sharp minimum of |perp| at 1e-5 relative
            # (at 1e-7 the short-time separations, ~1e-13, sit at the rounding floor)
            w = rows[0]["omega_sq_over_kappa"]
            if not perp(w) < min(perp(w * (1 - 1e-5)), perp(w * (1 + 1e-5))):
                bad.append((f"fig2a_inset[{i}]", "omega_sq does not null the perpendicular separation"))
        return bad

    def tolerances(unit: str, key: str) -> str:
        # argmax of the fix_chi search, and photon numbers evaluated at it
        return "argmax" if key in ("r_opt_ies", "r_opt_ics", "n_ies", "n_ics") else "value"

    return Workload("fixed_chi_figures", units, warmup, check, tolerances=tolerances)


# ---------------------------------------------------------------- free_optimum


def free_optimum(seed: int) -> Workload:
    from sqreadout import figures, optimize

    d = Draw(seed)
    # kappa*tau = 10^-0.5 and 10^0.5 lie on both the shipped figS1/figS3 grid
    # (25 nodes on [1e-2, 1e2]) and the figS2/figS4 grid (17 nodes on [0.1, 10]),
    # so figS2/figS4 repeat exactly the optima that figS1/figS3 just computed.
    # A third, figS1-only point keeps the median unit inside the cheaper IES group.
    cell = math.log(1e4) / 24
    kt_ies = d.log_node(10 ** -0.5, cell, 0.1, 10.0)
    kt_ics = d.log_node(10 ** 0.5, cell, 0.1, 10.0)
    kt_short = d.log_node(10 ** -1.5, cell, 1e-2, 1e2)
    units = [Unit("figS1[0]", lambda: figures.figS1_rows(grid=[kt_ies])),
             Unit("figS2[0]", lambda: figures.figS2_rows(grid=[kt_ies])),
             Unit("figS1[1]", lambda: figures.figS1_rows(grid=[kt_short])),
             Unit("figS3[0]", lambda: figures.figS3_rows(grid=[kt_ics])),
             Unit("figS4[0]", lambda: figures.figS4_rows(grid=[kt_ics]))]

    def warmup():
        optimize.maximize_snr("standard", 1.0)
        figures.figS5_rows()

    def check(outputs: dict) -> list[tuple[str, str]]:
        bad = _finite(outputs)
        for unit, key in (("figS1[0]", "snr_ies_opt"), ("figS1[1]", "snr_ies_opt"),
                          ("figS3[0]", "snr_ics_opt")):
            rows = outputs.get(unit)
            # r = 0 is on the search grid and reduces either scheme to the standard readout
            if rows and rows[0][key] < rows[0]["snr_std_opt"] * (1.0 - 1e-9):
                bad.append((unit, f"{key} below the standard-readout optimum"))
        return bad

    def tolerances(unit: str, key: str) -> str:
        if key in ("kappa_tau", "snr_ies_opt", "snr_ics_opt", "snr_std_opt"):
            return "value"
        return "argmax"     # search coordinates and ellipses at the found optimum

    return Workload("free_optimum", units, warmup, check, min_passes=3, tolerances=tolerances)


# ---------------------------------------------------------------- oracle_check

_CHI = (0.5, 0.25, 1.0, 0.35, 0.75, 0.15, 0.6, 0.3, 0.9, 0.45)
_R = (1.0, 2.3, 0.5, 1.8, 0.2, 1.5, 2.0, 0.8, 1.2, 2.2)
_OMEGA = (None, 0.05, 0.1, 0.15, 0.2, None, 0.12, 0.08, 0.18, 0.22)   # None: near threshold
_CHI_COMB = (0.5, 0.3, 0.8, 0.4, 0.6, 0.5, 0.35, 0.7, 0.45, 0.55)
_R_COMB = (2.3, 1.0, 1.8, 0.5, 2.0, 1.5, 0.8, 2.2, 1.2, 0.6)


def _report_rows(report: dict) -> list[dict]:
    rows = []
    for state, entry in report["states"].items():
        row = {"state": state}
        for key in ("mean_analytic", "mean_oracle", "var_analytic", "var_oracle", "steps",
                    "mean_ok", "var_ok"):
            row[key] = entry[key]
        row["residual_mean"], row["residual_var"] = entry["residual"]
        rows.append(row)
    rows.append({"passed": report["passed"]})
    return rows


def oracle_points(seed: int) -> list[tuple[str, object, object]]:
    """(label, params, config) for ten kappa*tau strata on [0.01, 100] per scheme."""
    from sqreadout import combined, core, ics, ies

    d = Draw(seed)
    kts = _nodes(d, 10 ** -1.8, 10 ** 1.8, 10, range(10))
    points = []
    for i, kt in enumerate(kts):
        p = core.ReadoutParams(1.0, d.scale(_CHI[i], 0.05), 1.0, 0.0, math.pi / 2.0, kt)
        cfg = ies.IesConfig(d.scale(_R[i], 0.05), ies.optimal_varphi(p))
        points.append((f"ies[{i}]", p, cfg))
    for i, kt in enumerate(kts):
        if _OMEGA[i] is None:
            # near threshold: 4 Omega within 1e-10..1e-8 of kappa at the shipped
            # chi = kappa/2, where threshold and exceptional point chi = 2 Omega meet
            chi, omega = 0.5, 0.25 - 1e-9 * 10 ** d.u()
        else:
            chi, omega = d.scale(_CHI[-1 - i], 0.05), d.scale(_OMEGA[i], 0.05)
        p = core.ReadoutParams(1.0, chi, 1.0, 0.0, math.pi / 2.0, kt)
        points.append((f"ics[{i}]", p, ics.IcsConfig(omega, ics.optimal_theta(p, omega))))
    for i, kt in enumerate(kts):
        cfg = combined.CombinedConfig(r=d.scale(_R_COMB[i], 0.05))
        p = core.ReadoutParams(1.0, d.scale(_CHI_COMB[i], 0.05), 1.0, 0.0, 0.0, kt)
        points.append((f"combined[{i}]", combined.operating_params(p, cfg), cfg))
    return points


def oracle_check(seed: int) -> Workload:
    from sqreadout import combined, ics, ies, oracle

    def analytic(p, cfg):
        # the same dispatch as `readout oracle-check`: omega_sq is solved here and
        # again for each qubit state inside the oracle
        if isinstance(cfg, ies.IesConfig):
            return ies.ies_moments(p, cfg)
        if isinstance(cfg, ics.IcsConfig):
            return ics.ics_moments(p, cfg)
        return combined.combined_moments(p, cfg)

    def verdict(rows) -> str | None:
        if rows[-1]["passed"]:
            return None
        worst = max(rows[:-1], key=lambda r: abs(r["var_analytic"] - r["var_oracle"])
                    / max(abs(r["var_oracle"]), 1e-30))
        return "oracle verdict failed: {} var analytic={:.6g} oracle={:.6g}".format(
            worst["state"], worst["var_analytic"], worst["var_oracle"])

    units = [Unit(label, lambda p=p, cfg=cfg: _report_rows(
                  oracle.oracle_check(p, cfg, analytic(p, cfg))), verdict)
             for label, p, cfg in oracle_points(seed)]

    def warmup():
        units[0].run()

    def tolerances(unit: str, key: str) -> str:
        return "oracle" if key.endswith("_oracle") else "value"

    return Workload("oracle_check", units, warmup, _finite, tolerances=tolerances)


# ------------------------------------------------------------------- cli_calls


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cli_argvs(seed: int) -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) for one pass, 2 of 10 invalid by design."""
    d = Draw(seed)
    cell = math.log(1e4) / 24

    def kt(x):
        return _fmt(d.log_node(x, cell, 1e-2, 1e2))

    return [
        ("snr-standard", ["snr", "--scheme", "standard", "--kappa-tau", kt(0.1)], 0),
        ("snr-ies", ["snr", "--scheme", "ies", "--kappa-tau", kt(1.0),
                     "--r", _fmt(d.scale(1.0, 0.05))], 0),
        ("snr-ics", ["snr", "--scheme", "ics", "--kappa-tau", kt(3.16),
                     "--omega-2ph", _fmt(d.scale(0.15, 0.05))], 0),
        ("snr-combined", ["snr", "--scheme", "combined", "--kappa-tau", kt(1.0)], 0),
        ("mismatch", ["mismatch", "--scheme", "combined", "--kappa-tau", kt(2.15),
                      "--delta-r", "0.1", "--delta-p", _fmt(d.scale(0.05, 0.1))], 0),
        ("oracle-check", ["oracle-check", "--scheme", "combined", "--kappa-tau", kt(0.46)], 0),
        ("sweep-combined", ["sweep", "--scheme", "combined", "--var", "kappa_tau",
                            "--start", kt(0.01), "--stop", kt(100.0), "--count", "41",
                            "--spacing", "log"], 0),
        ("sweep-ies", ["sweep", "--scheme", "ies", "--var", "r", "--start", "0",
                       "--stop", _fmt(d.scale(2.0, 0.1)), "--count", "21",
                       "--kappa-tau", kt(1.0)], 0),
        # documented exit codes: 2 configuration error, 3 stability error
        ("snr-epsilon-0", ["snr", "--scheme", "combined", "--kappa-tau", kt(1.0),
                           "--epsilon", "0"], 2),
        ("snr-ics-unstable", ["snr", "--scheme", "ics", "--kappa-tau", kt(1.0),
                              "--omega-2ph", _fmt(d.scale(0.4, 0.2))], 3),
    ]


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_cli_process(argv: list[str], src: str, cwd: str) -> dict:
    proc = subprocess.run([sys.executable, "-m", "sqreadout.cli", *argv], cwd=cwd,
                          env=cli_env(src), capture_output=True, text=True, timeout=120)
    return {"exit": proc.returncode, "stdout": proc.stdout,
            "stderr_tail": (proc.stderr.strip().splitlines() or [""])[-1]}


def run_cli_inprocess(argv: list[str]) -> dict:
    """Same argv through ``cli.main`` in this process; exit codes as a process gives them."""
    import contextlib
    import io

    from sqreadout import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:           # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:            # an uncaught exception exits a process with 1
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return {"exit": code, "stdout": out.getvalue(),
            "stderr_tail": (err.getvalue().strip().splitlines() or [""])[-1]}


def cli_calls(seed: int, src: str, cwd: str, in_process: bool = False) -> Workload:
    def runner(argv):
        if in_process:
            return lambda: run_cli_inprocess(argv)
        return lambda: run_cli_process(argv, src, cwd)

    def exit_code(expect):
        def outcome(out) -> str | None:
            if out["exit"] == expect:
                return None
            return f"exit {out['exit']}, expected {expect}: {out['stderr_tail']}"
        return outcome

    units = [Unit(label, runner(argv), exit_code(expect))
             for label, argv, expect in cli_argvs(seed)]

    def warmup():
        run_cli_process(["snr", "--scheme", "standard"], src, cwd)

    def check(outputs: dict) -> list[tuple[str, str]]:
        bad = []
        for unit, out in outputs.items():
            if out["exit"] != 0:
                continue
            try:
                for rec in _cli_records(unit, out["stdout"]):
                    if not close(rec["snr"], rec["separation"] / math.sqrt(rec["noise_sum"]), 1e-9):
                        bad.append((unit, "snr != separation / sqrt(noise_sum)"))
            except (KeyError, ValueError, ZeroDivisionError) as exc:
                bad.append((unit, f"unparsable output: {exc!r}"))
        return bad

    return Workload("cli_calls", units, warmup, check,
                    speed_job="loop" if in_process else "spawn")


def _cli_records(unit: str, text: str) -> list[dict]:
    lines = text.strip().splitlines()
    if unit.startswith("sweep"):
        keys = lines[0].split(",")
        recs = [dict(zip(keys, line.split(","))) for line in lines[1:]]
        if len(recs) not in (21, 41):
            raise ValueError(f"{len(recs)} sweep rows")
    elif unit.startswith(("snr", "mismatch")):
        recs = [dict(line.split("=", 1) for line in lines)]
    else:
        return []
    return [{k: float(rec[k]) for k in ("snr", "separation", "noise_sum")} for rec in recs]


_ORACLE_LINE = re.compile(r"^(up|down) (mean|var): analytic=(\S+) oracle=(\S+) rel_dev=\S+ ok=(\S+)$")
_STEPS_LINE = re.compile(r"^(up|down) steps=(\d+) richardson_residual=\((\S+),(\S+)\)$")


def parse_oracle_cli(text: str) -> tuple[list[tuple], dict]:
    """(analytic/oracle/ok per state and field, residuals per state) from oracle-check output."""
    moments, residuals = [], {}
    for line in text.splitlines():
        m = _ORACLE_LINE.match(line)
        if m:
            moments.append((m[1], m[2], float(m[3]), float(m[4]), m[5]))
        m = _STEPS_LINE.match(line)
        if m:
            residuals[m[1]] = {"mean": abs(float(m[3])), "var": abs(float(m[4])), "steps": int(m[2])}
    return moments, residuals
