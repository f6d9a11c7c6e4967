"""Command-line front end: scheme evaluation, figure data, sweeps, validation.

Exit codes: 0 ok, 2 configuration error, 3 stability error, 4 solver failure,
5 oracle non-convergence.  All CSV output is deterministic (12 significant
digits, '.' decimal separator, no locale).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Sequence

from .core import (BracketError, OracleConvergenceError, QubitState, ReadoutParams,
                   SolverError, StabilityError, ZeroSignalError, psi_from_rate,
                   snr, summarize)
from . import combined, figures, ics, ies, oracle, phasespace

SCHEMES = ("standard", "ies", "ics", "combined")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_SOLVER = 4
EXIT_ORACLE = 5

_PARAM_KEYS = ("kappa", "chi", "alpha_in", "phi_in", "phi_h", "tau")
_SCHEME_KEYS = {
    "standard": (),
    "ies": ("r", "varphi"),
    "ics": ("omega_2ph", "theta"),
    "combined": ("r", "theta", "omega_sq", "epsilon", "delta_r", "delta_p"),
}
_DEFAULTS = {
    "kappa": 1.0, "chi": 0.5, "alpha_in": 1.0, "phi_in": 0.0,
    "phi_h": math.pi / 2.0, "tau": 1.0,
    "r": math.log(10.0), "varphi": None, "omega_2ph": 0.1, "theta": None,
    "omega_sq": None, "epsilon": 0.05, "delta_r": 0.0, "delta_p": 0.0,
}


def fmt(value) -> str:
    """Deterministic 12-significant-digit rendering."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(stream, rows: Sequence[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    stream.write(",".join(keys) + "\n")
    for row in rows:
        stream.write(",".join(fmt(row[k]) for k in keys) + "\n")


def write_kv(stream, record: dict) -> None:
    for key, value in record.items():
        stream.write(f"{key}={fmt(value)}\n")


def _open_out(path: str | None):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def write_gnuplot(path: str, csv_path: str, rows: Sequence[dict], logx: bool) -> None:
    """Ready-to-run gnuplot script for a CSV table (first column on x)."""
    keys = list(rows[0].keys())
    lines = ["set datafile separator ','", "set key autotitle columnhead"]
    if logx:
        lines.append("set logscale x")
    plot = ", ".join(f"'{csv_path}' using 1:{i + 2} with lines"
                     for i in range(len(keys) - 1))
    lines.append(f"plot {plot}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_config(path: str, scheme_hint: str | None) -> dict:
    """Flat option dict from an INI-style key=value file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    opts: dict = {}
    if parser.has_section("readout"):
        for key, value in parser.items("readout"):
            opts[key] = value
    scheme = scheme_hint or opts.get("scheme")
    if scheme and parser.has_section(scheme):
        for key, value in parser.items(scheme):
            opts[key] = value
    return opts


def _as_float(opts: dict, key: str):
    value = opts.get(key, _DEFAULTS.get(key))
    if value is None or value == "":
        return None
    return float(value)


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and command-line flags (flags win)."""
    opts: dict = {}
    if getattr(args, "config", None):
        opts.update(load_config(args.config, getattr(args, "scheme", None)))
    for key in ("scheme", *(_PARAM_KEYS), "r", "varphi", "omega_2ph", "theta",
                "omega_sq", "epsilon", "delta_r", "delta_p"):
        flag = getattr(args, key, None)
        if flag is not None:
            opts[key] = flag
    if getattr(args, "kappa_tau", None) is not None:
        kappa = _as_float(opts, "kappa") or 1.0
        opts["tau"] = float(args.kappa_tau) / kappa
    scheme = opts.get("scheme", "combined")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    out = {"scheme": scheme}
    for key in _PARAM_KEYS:
        out[key] = _as_float(opts, key)
    for key in _SCHEME_KEYS[scheme]:
        out[key] = _as_float(opts, key)
    return out


def _params_from(opts: dict) -> ReadoutParams:
    return ReadoutParams(opts["kappa"], opts["chi"], opts["alpha_in"],
                         opts["phi_in"], opts["phi_h"], opts["tau"])


def evaluate_record(opts: dict) -> dict:
    """Full summary record (inputs, SNR/fidelity, derived quantities) for one point."""
    scheme = opts["scheme"]
    params = _params_from(opts)
    record = {"scheme": scheme}
    for key in _PARAM_KEYS:
        record[key] = opts[key]
    record["kappa_tau"] = params.kappa_tau
    record["psi"] = psi_from_rate(params.chi, params.kappa)

    if scheme == "standard":
        moments = ies.ies_moments(params, ies.IesConfig(0.0, 0.0))
        record["n_tau"] = ies.ies_photon_number(params, ies.IesConfig(0.0, 0.0), params.tau)
    elif scheme == "ies":
        varphi = opts.get("varphi")
        if varphi is None:
            varphi = ies.optimal_varphi(params)
        cfg = ies.IesConfig(opts["r"], varphi)
        moments = ies.ies_moments(params, cfg)
        record.update(r=cfg.r, varphi=cfg.varphi,
                      noise_shape=ies.ies_noise_shape(params),
                      n_tau=ies.ies_photon_number(params, cfg, params.tau))
    elif scheme == "ics":
        omega = opts["omega_2ph"]
        theta = opts.get("theta")
        if theta is None:
            theta = ics.optimal_theta(params, omega)
        cfg = ics.IcsConfig(omega, theta)
        verdict = ics.ics_stability(params, cfg)
        if not verdict:
            raise StabilityError(verdict.reason)
        moments = ics.ics_moments(params, cfg)
        lam = ics.ics_lambda(params.chi, omega)
        record.update(omega_2ph=omega, theta=cfg.theta,
                      lambda_re=lam.real, lambda_im=lam.imag,
                      r_out=ics.ics_squeeze_param(params.kappa, omega),
                      n_tau=ics.ics_photon_number(params, cfg, params.tau))
    else:
        cfg = combined.CombinedConfig(
            r=opts["r"], theta=opts.get("theta") or 0.0,
            omega_sq=opts.get("omega_sq"), epsilon=opts["epsilon"],
            delta_r=opts["delta_r"], delta_p=opts["delta_p"])
        omega_sq, disp = combined.resolve_operating_point(params, cfg)
        moments = combined.combined_moments(params, cfg, disp)
        op = combined.operating_params(params, cfg)
        frame = combined.BogoliubovFrame.from_squeeze(omega_sq, cfg.r_c, cfg.theta)
        record.update(r=cfg.r, theta=cfg.theta, varphi=cfg.varphi,
                      delta_r=cfg.delta_r, delta_p=cfg.delta_p,
                      epsilon=cfg.epsilon, omega_sq=omega_sq,
                      delta_c=frame.delta_c, omega_2ph=frame.omega_2ph,
                      chi_sq=disp.chi_sq, psi_sq=disp.psi_sq,
                      g=disp.g, delta_q=disp.delta_q,
                      n_critical=disp.critical_photon_number,
                      n_beta_up=combined.beta_photon_number(op, disp, cfg.r_c,
                                                            QubitState.UP, params.tau),
                      n_beta_down=combined.beta_photon_number(op, disp, cfg.r_c,
                                                              QubitState.DOWN, params.tau))

    summary = summarize(moments)
    record.update(signal_up=moments.signal_up, signal_down=moments.signal_down,
                  noise_up=moments.noise_up, noise_down=moments.noise_down,
                  separation=summary.separation, noise_sum=summary.noise_sum,
                  snr=summary.snr, fidelity=summary.fidelity, error=summary.error)
    return record


def _sweep_point(payload: tuple[dict, str, float]) -> dict:
    opts, var, value = payload
    opts = dict(opts)
    if var == "kappa_tau":
        opts["tau"] = value / opts["kappa"]
    else:
        opts[var] = value
    record = evaluate_record(opts)
    return {var: value, **record}


_SWEEPABLE = ("kappa_tau", "tau", "chi", "alpha_in", "phi_in", "phi_h",
              "r", "varphi", "omega_2ph", "theta", "omega_sq", "epsilon",
              "delta_r", "delta_p")


def sweep_values(start: float, stop: float, count: int, spacing: str) -> list[float]:
    if count < 2:
        raise ValueError("sweep needs count >= 2")
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ValueError("log spacing needs positive endpoints")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio ** i for i in range(count)]
    if spacing == "linear":
        step = (stop - start) / (count - 1)
        return [start + step * i for i in range(count)]
    raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def run_parallel(worker, payloads: list, jobs: int) -> list:
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(worker, payloads))


# ---------------------------------------------------------------- commands


def cmd_snr(args) -> int:
    opts = resolve_options(args)
    record = evaluate_record(opts)
    stream, close = _open_out(args.output)
    try:
        if args.format == "csv":
            write_csv(stream, [record])
        else:
            write_kv(stream, record)
    finally:
        if close:
            stream.close()
    return EXIT_OK


def cmd_figure(args) -> int:
    tables = figures.figure_tables(args.name)
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    for stem, rows in tables.items():
        csv_path = os.path.join(outdir, f"{stem}.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            write_csv(fh, rows)
        print(f"wrote {csv_path} ({len(rows)} rows)")
        if args.gnuplot:
            write_gnuplot(os.path.join(outdir, f"{stem}.gp"), csv_path, rows,
                          logx=rows[0].get("kappa_tau") is not None)
    return EXIT_OK


def cmd_sweep(args) -> int:
    opts = resolve_options(args)
    if args.var not in _SWEEPABLE:
        raise ValueError(f"cannot sweep {args.var!r}; options: {_SWEEPABLE}")
    if args.var not in ("kappa_tau", *(_PARAM_KEYS)) and args.var not in opts:
        raise ValueError(f"{args.var!r} is not a parameter of scheme {opts['scheme']!r}")
    values = sweep_values(args.start, args.stop, args.count, args.spacing)
    payloads = [(opts, args.var, v) for v in values]
    rows = run_parallel(_sweep_point, payloads, args.jobs)
    stream, close = _open_out(args.output)
    try:
        write_csv(stream, rows)
    finally:
        if close:
            stream.close()
    if args.gnuplot and args.output not in (None, "-"):
        write_gnuplot(args.output + ".gp", args.output, rows, logx=args.spacing == "log")
    return EXIT_OK


def _scheme_config(opts: dict):
    scheme = opts["scheme"]
    params = _params_from(opts)
    if scheme in ("standard", "ies"):
        r = opts.get("r", 0.0) if scheme == "ies" else 0.0
        varphi = opts.get("varphi")
        if varphi is None:
            varphi = ies.optimal_varphi(params)
        return params, ies.IesConfig(r, varphi)
    if scheme == "ics":
        omega = opts["omega_2ph"]
        theta = opts.get("theta")
        if theta is None:
            theta = ics.optimal_theta(params, omega)
        return params, ics.IcsConfig(omega, theta)
    cfg = combined.CombinedConfig(r=opts["r"], theta=opts.get("theta") or 0.0,
                                  omega_sq=opts.get("omega_sq"), epsilon=opts["epsilon"],
                                  delta_r=opts["delta_r"], delta_p=opts["delta_p"])
    # solved once here: the moments, the oracle and the pointer states all reuse it
    return combined.operating_params(params, cfg), combined.with_solved_omega_sq(params, cfg)


def cmd_oracle_check(args) -> int:
    opts = resolve_options(args)
    params, cfg = _scheme_config(opts)
    if isinstance(cfg, ies.IesConfig):
        analytic = ies.ies_moments(params, cfg)
    elif isinstance(cfg, ics.IcsConfig):
        analytic = ics.ics_moments(params, cfg)
    else:
        analytic = combined.combined_moments(params, cfg)
    report = oracle.oracle_check(params, cfg, analytic, steps=args.steps, tol=args.tol)
    stream = sys.stdout
    stream.write(f"scheme={opts['scheme']} tol={fmt(report['tol'])}\n")
    for name, entry in report["states"].items():
        for field in ("mean", "var"):
            a = entry[f"{field}_analytic"]
            o = entry[f"{field}_oracle"]
            dev = abs(a - o) / max(abs(o), 1e-30)
            stream.write(f"{name.lower()} {field}: analytic={fmt(a)} oracle={fmt(o)} "
                         f"rel_dev={fmt(dev)} ok={entry[f'{field}_ok']}\n")
        stream.write(f"{name.lower()} steps={entry['steps']} "
                     f"richardson_residual=({fmt(entry['residual'][0])},"
                     f"{fmt(entry['residual'][1])})\n")
    up, down = report["states"]["UP"], report["states"]["DOWN"]
    sep_o = abs(up["mean_oracle"] - down["mean_oracle"])
    snr_o = sep_o / math.sqrt(up["var_oracle"] + down["var_oracle"])
    snr_a = snr(analytic)
    stream.write(f"snr_analytic={fmt(snr_a)} snr_oracle={fmt(snr_o)} "
                 f"rel_dev={fmt(abs(snr_a - snr_o) / max(snr_o, 1e-30))}\n")
    stream.write(f"passed={report['passed']}\n")
    return EXIT_OK if report["passed"] else 1


_WIGNER_PRESETS = {"figS2", "figS4", "figS5"}


def _wigner_window(states: list[phasespace.GaussianState2D]) -> float:
    import numpy as np

    half = 0.0
    for st in states:
        sd = math.sqrt(float(np.linalg.eigvalsh(st.cov)[-1]))
        half = max(half, max(abs(st.mean[0]), abs(st.mean[1])) + 5.5 * sd)
    return math.ceil(2.0 * half) / 2.0


def _write_wigner(outdir: str, stem: str, params, cfg, resolution: int,
                  window: float | None, diagnostics: list[dict]) -> None:
    states = {s: phasespace.pointer_state(params, cfg, s) for s in QubitState}
    half = window if window is not None else _wigner_window(list(states.values()))
    for state, st in states.items():
        x, y, w = phasespace.wigner_grid(st, (-half, half), resolution)
        path = os.path.join(outdir, f"{stem}_{state.name.lower()}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,w\n")
            for iy in range(len(y)):
                for ix in range(len(x)):
                    fh.write(f"{fmt(float(x[ix]))},{fmt(float(y[iy]))},"
                             f"{fmt(float(w[iy, ix]))}\n")
        diag = phasespace.ellipse(st)
        diagnostics.append({"grid": f"{stem}_{state.name.lower()}",
                            "kappa_tau": params.kappa_tau,
                            "state": state.name.lower(),
                            "mean_x": st.mean[0], "mean_y": st.mean[1],
                            "theta_N": diag.theta_N, "xi2_N": diag.xi2_N,
                            "xi2_dB": diag.xi2_dB, "window": half,
                            "resolution": resolution})
        print(f"wrote {path}")


def cmd_wigner(args) -> int:
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    diagnostics: list[dict] = []
    if args.preset:
        if args.preset not in _WIGNER_PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; options: {sorted(_WIGNER_PRESETS)}")
        for kt in (1.0, 2.0, 5.0):
            if args.preset == "figS2":
                params, cfg = figures.ies_optimal_setting(kt)
            elif args.preset == "figS4":
                params, cfg = figures.ics_optimal_setting(kt)
            else:
                params = ReadoutParams(1.0, 0.5, 1.0, 0.0, 0.0, kt)
                cfg = combined.with_solved_omega_sq(params, combined.CombinedConfig(r=1.0))
            _write_wigner(outdir, f"{args.preset}_kt{kt:g}", params, cfg,
                          args.resolution, args.window, diagnostics)
        stem = args.preset
    else:
        opts = resolve_options(args)
        params, cfg = _scheme_config(opts)
        _write_wigner(outdir, f"wigner_{opts['scheme']}", params, cfg,
                      args.resolution, args.window, diagnostics)
        stem = f"wigner_{opts['scheme']}"
    diag_path = os.path.join(outdir, f"{stem}_diagnostics.csv")
    with open(diag_path, "w", encoding="utf-8") as fh:
        write_csv(fh, diagnostics)
    print(f"wrote {diag_path}")
    return EXIT_OK


def cmd_mismatch(args) -> int:
    opts = resolve_options(args)
    if opts["scheme"] != "combined":
        raise ValueError("mismatch analysis applies to the combined scheme")
    record = evaluate_record(opts)
    matched = dict(opts, delta_r=0.0, delta_p=0.0)
    record["snr_matched"] = evaluate_record(matched)["snr"]
    std = dict(opts, scheme="standard")
    snr_std = evaluate_record({k: std[k] for k in ("scheme", *(_PARAM_KEYS))})["snr"]
    record["snr_std"] = snr_std
    record["snr_over_e_r_snr_std"] = record["snr"] / (math.exp(opts["r"]) * snr_std)
    stream, close = _open_out(args.output)
    try:
        write_kv(stream, record)
    finally:
        if close:
            stream.close()
    return EXIT_OK


# ---------------------------------------------------------------- entry point


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file (INI sections)")
    sub.add_argument("--scheme", choices=SCHEMES)
    sub.add_argument("--kappa", type=float)
    sub.add_argument("--chi", type=float)
    sub.add_argument("--alpha-in", dest="alpha_in", type=float)
    sub.add_argument("--phi-in", dest="phi_in", type=float)
    sub.add_argument("--phi-h", dest="phi_h", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--kappa-tau", dest="kappa_tau", type=float,
                     help="set tau from kappa*tau")
    sub.add_argument("--r", type=float)
    sub.add_argument("--varphi", type=float)
    sub.add_argument("--omega-2ph", dest="omega_2ph", type=float)
    sub.add_argument("--theta", type=float)
    sub.add_argument("--omega-sq", dest="omega_sq", type=float)
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--delta-r", dest="delta_r", type=float)
    sub.add_argument("--delta-p", dest="delta_p", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readout",
        description="Dispersive-readout SNR with injected and intracavity squeezing")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("snr", help="evaluate one operating point")
    _add_param_flags(sp)
    sp.add_argument("--output", "-o")
    sp.add_argument("--format", choices=("kv", "csv"), default="kv")
    sp.set_defaults(func=cmd_snr)

    sp = subs.add_parser("figure", help="write reference-figure CSV data")
    sp.add_argument("name", choices=figures.FIGURES)
    sp.add_argument("--output-dir", default=".")
    sp.add_argument("--gnuplot", action="store_true")
    sp.set_defaults(func=cmd_figure)

    sp = subs.add_parser("sweep", help="sweep one parameter to CSV")
    _add_param_flags(sp)
    sp.add_argument("--var", required=True)
    sp.add_argument("--start", type=float, required=True)
    sp.add_argument("--stop", type=float, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    sp.add_argument("--output", "-o")
    sp.add_argument("--gnuplot", action="store_true")
    sp.set_defaults(func=cmd_sweep)

    sp = subs.add_parser("oracle-check", help="compare analytics with the brute-force oracle")
    _add_param_flags(sp)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.set_defaults(func=cmd_oracle_check)

    sp = subs.add_parser("wigner", help="phase-space grids of the pointer states")
    _add_param_flags(sp)
    sp.add_argument("--preset", help="figS2, figS4 or figS5")
    sp.add_argument("--window", type=float, help="half-width of the square grid")
    sp.add_argument("--resolution", type=int, default=201)
    sp.add_argument("--output-dir", default=".")
    sp.set_defaults(func=cmd_wigner)

    sp = subs.add_parser("mismatch", help="combined scheme with parameter mismatches")
    _add_param_flags(sp)
    sp.add_argument("--output", "-o")
    sp.set_defaults(func=cmd_mismatch)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except (BracketError, SolverError, ZeroSignalError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OracleConvergenceError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
