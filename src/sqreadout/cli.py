"""Command-line front end: scheme evaluation, figure data, sweeps, validation.

Exit codes: 0 ok, 1 oracle disagreement (oracle-check only), 2 configuration
error, 3 stability error, 4 solver or other numerical failure.  All CSV output
is deterministic (12 significant digits, '.' decimal separator, no locale).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import sys
from typing import Iterable, Sequence

from .core import (DEFAULT_EPSILON, ReadoutError, ReadoutParams, StabilityError, psi_from_rate,
                   snr, standard_readout_moments, summarize)

# scheme -> (module, config type, the options the config takes), imported by the command
SCHEMES = {
    "standard": (".ies", "StandardConfig", ()),
    "ies": (".ies", "IesConfig", ("r", "varphi")),
    "ics": (".ics", "IcsConfig", ("omega_2ph", "theta")),
    "combined": (".combined", "CombinedConfig",
                 ("r", "theta", "omega_sq", "epsilon", "delta_r", "delta_p")),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_SOLVER = 4

_PARAM_KEYS = ("kappa", "chi", "alpha_in", "phi_in", "phi_h", "tau")
_DEFAULTS = {
    "kappa": 1.0, "chi": 0.5, "alpha_in": 1.0, "phi_in": 0.0,
    "phi_h": math.pi / 2.0, "tau": 1.0,
    "r": math.log(10.0), "varphi": None, "omega_2ph": 0.1, "theta": None,
    "omega_sq": None, "epsilon": DEFAULT_EPSILON, "delta_r": 0.0, "delta_p": 0.0,
}
# _DEFAULTS is the one key table: the --flags, the option merge and the sweepable list
_SWEEPABLE = ("kappa_tau", *(k for k in _DEFAULTS if k != "kappa"))


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
    """Context manager of the output stream: stdout for None or '-', else the file."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


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
    import configparser

    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path!r}")
    opts = dict(parser.items("readout")) if parser.has_section("readout") else {}
    scheme = scheme_hint or opts.get("scheme")
    if scheme and parser.has_section(scheme):
        opts.update(parser.items(scheme))
    return opts


def _as_float(opts: dict, key: str):
    value = opts.get(key)
    if value in (None, ""):         # an empty config-file value means "not given"
        value = _DEFAULTS[key]
    return None if value is None else float(value)


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and command-line flags (flags win)."""
    opts: dict = {}
    if getattr(args, "config", None):
        opts.update(load_config(args.config, getattr(args, "scheme", None)))
    for key in ("scheme", *_DEFAULTS):
        flag = getattr(args, key, None)
        if flag is not None:
            opts[key] = flag
    if getattr(args, "kappa_tau", None) is not None:
        kappa = _as_float(opts, "kappa") or 1.0
        opts["tau"] = float(args.kappa_tau) / kappa
    scheme = opts.get("scheme", [*SCHEMES][-1])       # the last, combined, is the default
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEMES)}")
    return {"scheme": scheme,
            **{key: _as_float(opts, key) for key in (*_PARAM_KEYS, *SCHEMES[scheme][2])}}


def _scheme_point(opts: dict):
    """Operating point of the chosen scheme: (params, cfg, moments, extra record fields).

    cfg.operating_point resolves unset fields (None) and applies the scheme's phase
    convention, so the moments, the oracle and the pointer states share one point.
    """
    module, name, keys = SCHEMES[opts["scheme"]]
    params = ReadoutParams(*(opts[key] for key in _PARAM_KEYS))
    cfg = getattr(importlib.import_module(module, __package__), name)(**{k: opts[k] for k in keys})
    params, cfg = cfg.operating_point(params)
    return params, cfg, cfg.moments(params), cfg.record_fields(params)


def evaluate_record(opts: dict) -> dict:
    """Full summary record (inputs, SNR/fidelity, derived quantities) for one point."""
    params, _, moments, extra = _scheme_point(opts)
    record = {"scheme": opts["scheme"], **{key: opts[key] for key in _PARAM_KEYS},
              "kappa_tau": params.kappa_tau, "psi": psi_from_rate(params.chi, params.kappa),
              **extra}
    summary = summarize(moments)
    record.update(signal_up=moments.signal_up, signal_down=moments.signal_down,
                  noise_up=moments.noise_up, noise_down=moments.noise_down,
                  separation=summary.separation, noise_sum=summary.noise_sum,
                  snr=summary.snr, fidelity=summary.fidelity, error=summary.error)
    return record


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


def run_parallel(opts: dict, var: str, values: Sequence[float]) -> list[dict]:
    """Sweep rows, one record per value of var, evaluated in order.

    The name predates the removal of the sweep process pool; perfbench/tracer.py
    times the sweep under it.
    """
    def point(value):
        return ({**opts, "tau": value / opts["kappa"]} if var == "kappa_tau"
                else {**opts, var: value})
    return [{var: value, **evaluate_record(point(value))} for value in values]


# ---------------------------------------------------------------- commands


def cmd_snr(args) -> int:
    record = evaluate_record(resolve_options(args))
    with _open_out(args.output) as stream:
        if args.format == "csv":
            write_csv(stream, [record])
        else:
            write_kv(stream, record)
    return EXIT_OK


def cmd_figure(args) -> int:
    from .figures import figure_tables
    tables = figure_tables(args.name)
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
    rows = run_parallel(opts, args.var, values)
    with _open_out(args.output) as stream:
        write_csv(stream, rows)
    if args.gnuplot and args.output not in (None, "-"):
        write_gnuplot(args.output + ".gp", args.output, rows, logx=args.spacing == "log")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    from .oracle import oracle_check
    opts = resolve_options(args)
    params, cfg, analytic, _ = _scheme_point(opts)
    report = oracle_check(params, cfg, analytic, steps=args.steps, tol=args.tol)
    stream = sys.stdout
    stream.write(f"scheme={opts['scheme']} tol={fmt(report['tol'])}\n")
    for name, entry in report["states"].items():
        for field in ("mean", "var"):
            a, o = entry[f"{field}_analytic"], entry[f"{field}_oracle"]
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


def _wigner_window(states: list[phasespace.GaussianState2D]) -> float:
    half = 0.0
    for st in states:
        sd = math.sqrt(st.eigenvalues[1])
        half = max(half, max(abs(st.mean[0]), abs(st.mean[1])) + 5.5 * sd)
    return math.ceil(2.0 * half) / 2.0


def _write_wigner(outdir: str, stem: str, params, cfg, resolution: int,
                  window: float | None, diagnostics: list[dict]) -> None:
    from . import phasespace
    states = phasespace.pointer_state(params, cfg)
    half = window if window is not None else _wigner_window(list(states.values()))
    for state, st in states.items():
        x, y, w = phasespace.wigner_grid(st, (-half, half), resolution)
        path = os.path.join(outdir, f"{stem}_{state.name.lower()}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,w\n")
            for yv, row in zip(y.tolist(), w.tolist()):
                fh.writelines(f"{fmt(xv)},{fmt(yv)},{fmt(wv)}\n"
                              for xv, wv in zip(x.tolist(), row))
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
        from .figures import PHASE_SPACE_SETTINGS
        setting = PHASE_SPACE_SETTINGS.get(args.preset)
        if setting is None:
            raise ValueError(f"unknown preset {args.preset!r}; "
                             f"options: {sorted(PHASE_SPACE_SETTINGS)}")
        for kt in (1.0, 2.0, 5.0):
            params, cfg = setting(kt)
            _write_wigner(outdir, f"{args.preset}_kt{kt:g}", params, cfg,
                          args.resolution, args.window, diagnostics)
        stem = args.preset
    else:
        opts = resolve_options(args)
        params, cfg, _, _ = _scheme_point(opts)
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
    if "delta_p" not in opts:       # a config without delta_p has no mismatch to analyse
        raise ValueError("mismatch analysis applies to the combined scheme")
    record = evaluate_record(opts)
    record["snr_matched"] = snr(_scheme_point(dict(opts, delta_r=0.0, delta_p=0.0))[2])
    snr_std = snr(standard_readout_moments(ReadoutParams(*(opts[k] for k in _PARAM_KEYS))))
    record["snr_std"] = snr_std
    record["snr_over_e_r_snr_std"] = record["snr"] / (math.exp(opts["r"]) * snr_std)
    with _open_out(args.output) as stream:
        write_kv(stream, record)
    return EXIT_OK


# ---------------------------------------------------------------- entry point


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file (INI sections)")
    sub.add_argument("--scheme", choices=SCHEMES)
    for key in _DEFAULTS:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=float)
    sub.add_argument("--kappa-tau", dest="kappa_tau", type=float,
                     help="set tau from kappa*tau")


class _FigureNames:
    """figures.FIGURES, imported when first iterated; build_parser sets it as choices only
    after add_argument, which iterates choices and so would import figures for every command."""
    def __iter__(self):
        from .figures import FIGURES
        return iter(FIGURES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readout",
        description="Dispersive-readout SNR with injected and intracavity squeezing")
    subs = parser.add_subparsers(dest="command", required=True)
    flags = argparse.ArgumentParser(add_help=False)     # the shared flags, declared once
    _add_param_flags(flags)

    sp = subs.add_parser("snr", parents=[flags], help="evaluate one operating point")
    sp.add_argument("--output", "-o")
    sp.add_argument("--format", choices=("kv", "csv"), default="kv")
    sp.set_defaults(func=cmd_snr)

    sp = subs.add_parser("figure", help="write reference-figure CSV data")
    sp.add_argument("name").choices = _FigureNames()
    sp.add_argument("--output-dir", default=".")
    sp.add_argument("--gnuplot", action="store_true")
    sp.set_defaults(func=cmd_figure)

    sp = subs.add_parser("sweep", parents=[flags], help="sweep one parameter to CSV")
    sp.add_argument("--var", required=True)
    sp.add_argument("--start", type=float, required=True)
    sp.add_argument("--stop", type=float, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sp.add_argument("--output", "-o")
    sp.add_argument("--gnuplot", action="store_true")
    sp.set_defaults(func=cmd_sweep)

    sp = subs.add_parser("oracle-check", parents=[flags],
                         help="compare analytics with the brute-force oracle")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.set_defaults(func=cmd_oracle_check)

    sp = subs.add_parser("wigner", parents=[flags],
                         help="phase-space grids of the pointer states")
    sp.add_argument("--preset", help="figS2, figS4 or figS5")
    sp.add_argument("--window", type=float, help="half-width of the square grid")
    sp.add_argument("--resolution", type=int, default=201)
    sp.add_argument("--output-dir", default=".")
    sp.set_defaults(func=cmd_wigner)

    sp = subs.add_parser("mismatch", parents=[flags],
                         help="combined scheme with parameter mismatches")
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
    except (ReadoutError, ArithmeticError) as exc:     # overflow, division by zero
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
