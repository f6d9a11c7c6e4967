"""Command-line front end: scheme evaluation, figure data, sweeps, validation.

Exit codes: 0 ok, 1 oracle disagreement (oracle-check only), 2 configuration
error, 3 stability error, 4 solver or other numerical failure; each distinct
warning prints once on stderr as 'warning: <message>', and one that the caller's
filters raise (-W error) is a configuration error.  All CSV output is
deterministic (12 significant digits, '.' decimal separator, no locale).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import sys
import warnings
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
# the flags of every command that evaluates a scheme, as (flags, keywords) in --help order
_SCHEME_FLAGS = (
    (("--config",), {"help": "key=value config file (INI sections)"}),
    (("--scheme",), {"choices": SCHEMES}),
    *((("--" + key.replace("_", "-"),), {"dest": key, "type": float}) for key in _DEFAULTS),
    (("--kappa-tau",), {"dest": "kappa_tau", "type": float, "help": "set tau from kappa*tau"}),
)


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
    try:
        if not parser.read(path):
            raise ValueError(f"cannot read config file {path!r}")
        opts = dict(parser.items("readout")) if parser.has_section("readout") else {}
        scheme = scheme_hint or opts.get("scheme")
        if scheme and parser.has_section(scheme):
            opts.update(parser.items(scheme))
    except configparser.Error as exc:     # no section header, a duplicate key, a bare '%'
        one_line = " ".join(str(exc).split())       # a missing header's message spans three
        raise ValueError(f"malformed config file {path!r}: {one_line}") from exc
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
    """Operating point of the chosen scheme: (params, cfg).

    cfg.operating_point resolves unset fields (None) and applies the scheme's phase
    convention, so the moments, the oracle and the pointer states share one point.
    """
    module, name, keys = SCHEMES[opts["scheme"]]
    params = ReadoutParams(*(opts[key] for key in _PARAM_KEYS))
    cfg = getattr(importlib.import_module(module, __package__), name)(**{k: opts[k] for k in keys})
    return cfg.operating_point(params)


def evaluate_record(opts: dict) -> dict:
    """Full summary record (inputs, SNR/fidelity, derived quantities) for one point."""
    params, cfg = _scheme_point(opts)
    moments = cfg.moments(params)
    record = {"scheme": opts["scheme"], **{key: opts[key] for key in _PARAM_KEYS},
              "kappa_tau": params.kappa_tau, "psi": psi_from_rate(params.chi, params.kappa),
              **cfg.record_fields(params)}
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
    params, cfg = _scheme_point(opts)
    analytic = cfg.moments(params)
    report = oracle_check(params, cfg, analytic, steps=args.steps, tol=args.tol)
    stream = sys.stdout
    stream.write(f"scheme={opts['scheme']} tol={fmt(report['tol'])}\n")
    for name, entry in report["states"].items():
        for field in ("mean", "var"):
            a, o = entry[f"{field}_analytic"], entry[f"{field}_oracle"]
            stream.write(f"{name.lower()} {field}: analytic={fmt(a)} oracle={fmt(o)} "
                         f"rel_dev={fmt(_rel_dev(a, o))} ok={entry[f'{field}_ok']}\n")
        stream.write(f"{name.lower()} steps={entry['steps']} "
                     f"richardson_residual=({fmt(entry['residual'][0])},"
                     f"{fmt(entry['residual'][1])})\n")
    up, down = report["states"]["UP"], report["states"]["DOWN"]
    sep_o = abs(up["mean_oracle"] - down["mean_oracle"])
    snr_o = sep_o / math.sqrt(up["var_oracle"] + down["var_oracle"])
    snr_a = snr(analytic)
    stream.write(f"snr_analytic={fmt(snr_a)} snr_oracle={fmt(snr_o)} "
                 f"rel_dev={fmt(_rel_dev(snr_a, snr_o))}\n")
    stream.write(f"passed={report['passed']}\n")
    return EXIT_OK if report["passed"] else 1


def _rel_dev(analytic: float, oracle: float) -> float:
    """|analytic - oracle| / |oracle|, floored at 1e-30 and at 1e-30 |analytic|: a zero oracle
    value under a huge analytic one (both SNRs below the means' rounding) reads 1e30, not inf."""
    return abs(analytic - oracle) / max(abs(oracle), 1e-30 * max(1.0, abs(analytic)))


def _wigner_window(states: list[phasespace.GaussianState2D]) -> float:
    half = 0.0
    for st in states:
        sd = math.sqrt(st.eigenvalues[1])
        half = max(half, max(abs(st.mean[0]), abs(st.mean[1])) + 5.5 * sd)
    return math.ceil(2.0 * half) / 2.0


def cmd_wigner(args) -> int:
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    if args.preset:
        from .figures import PHASE_SPACE_SETTINGS
        setting = PHASE_SPACE_SETTINGS.get(args.preset)
        if setting is None:
            raise ValueError(f"unknown preset {args.preset!r}; "
                             f"options: {sorted(PHASE_SPACE_SETTINGS)}")
        stem = args.preset
        # lazily, so the files of the points before a failing one are still written
        points = ((f"{stem}_kt{kt:g}", *setting(kt)) for kt in (1.0, 2.0, 5.0))
    else:
        opts = resolve_options(args)
        stem = f"wigner_{opts['scheme']}"
        points = [(stem, *_scheme_point(opts))]
    from . import phasespace
    diagnostics: list[dict] = []
    for grid, params, cfg in points:
        states = phasespace.pointer_state(params, cfg)
        half = args.window if args.window is not None else _wigner_window(list(states.values()))
        # both grids of a point before either file, so a non-finite one leaves none
        grids = [phasespace.wigner_grid(st, (-half, half), args.resolution)
                 for st in states.values()]
        for (state, st), (x, y, w) in zip(states.items(), grids):
            name = f"{grid}_{state.name.lower()}"
            path = os.path.join(outdir, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("x,y,w\n")
                for yv, row in zip(y.tolist(), w.tolist()):
                    fh.writelines(f"{fmt(xv)},{fmt(yv)},{fmt(wv)}\n"
                                  for xv, wv in zip(x.tolist(), row))
            diag = phasespace.ellipse(st)
            diagnostics.append({"grid": name, "kappa_tau": params.kappa_tau,
                                "state": state.name.lower(),
                                "mean_x": st.mean[0], "mean_y": st.mean[1],
                                "theta_N": diag.theta_N, "xi2_N": diag.xi2_N,
                                "xi2_dB": diag.xi2_dB, "window": half,
                                "resolution": args.resolution})
            print(f"wrote {path}")
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
    params, cfg = _scheme_point(dict(opts, delta_r=0.0, delta_p=0.0))
    record["snr_matched"] = snr(cfg.moments(params))
    snr_std = snr(standard_readout_moments(ReadoutParams(*(opts[k] for k in _PARAM_KEYS))))
    record["snr_std"] = snr_std
    record["snr_over_e_r_snr_std"] = record["snr"] / (math.exp(opts["r"]) * snr_std)
    with _open_out(args.output) as stream:
        write_kv(stream, record)
    return EXIT_OK


# ---------------------------------------------------------------- entry point

_OUTPUT = (("--output", "-o"), {})
_OUTPUT_DIR = (("--output-dir",), {"default": "."})
_GNUPLOT = (("--gnuplot",), {"action": "store_true"})

# command -> (handler, help, takes the scheme flags, its own options as (flags, keywords));
# a callable `choices` is read only when its command runs
COMMANDS = {
    "snr": (cmd_snr, "evaluate one operating point", True, (
        _OUTPUT, (("--format",), {"choices": ("kv", "csv"), "default": "kv"}))),
    "figure": (cmd_figure, "write reference-figure CSV data", False, (
        (("name",), {"choices": lambda: importlib.import_module(".figures", __package__).FIGURES}),
        _OUTPUT_DIR, _GNUPLOT)),
    "sweep": (cmd_sweep, "sweep one parameter to CSV", True, (
        (("--var",), {"required": True}),
        (("--start",), {"type": float, "required": True}),
        (("--stop",), {"type": float, "required": True}),
        (("--count",), {"type": int, "required": True}),
        (("--spacing",), {"choices": ("linear", "log"), "default": "linear"}),
        _OUTPUT, _GNUPLOT)),
    "oracle-check": (cmd_oracle_check, "compare analytics with the brute-force oracle", True, (
        (("--steps",), {"type": int}), (("--tol",), {"type": float, "default": 1e-3}))),
    "wigner": (cmd_wigner, "phase-space grids of the pointer states", True, (
        (("--preset",), {"help": "figS2, figS4 or figS5"}),
        (("--window",), {"type": float, "help": "half-width of the square grid"}),
        (("--resolution",), {"type": int, "default": 201}), _OUTPUT_DIR)),
    "mismatch": (cmd_mismatch, "combined scheme with parameter mismatches", True, (_OUTPUT,)),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every command name, with the options of `command` alone."""
    parser = argparse.ArgumentParser(
        prog="readout",
        description="Dispersive-readout SNR with injected and intracavity squeezing")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, scheme_flags, options) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name != command:
            continue
        for flags, keywords in (_SCHEME_FLAGS if scheme_flags else ()) + options:
            choices = keywords.get("choices")
            sub.add_argument(*flags, **(dict(keywords, choices=choices()) if callable(choices)
                                        else keywords))
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # recorded under the caller's filters, which are restored on exit
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, error = COMMANDS[args.command][0](args), None
        except (ValueError, KeyError, OSError) as exc:
            code, error = EXIT_CONFIG, f"configuration error: {exc}"
        except StabilityError as exc:
            code, error = EXIT_STABILITY, f"stability error: {exc}"
        except (ReadoutError, ArithmeticError) as exc:     # overflow, division by zero
            code, error = EXIT_SOLVER, f"solver error: {_solver_message(exc)}"
        except Warning as exc:          # raised by the caller's filters, as -W error does
            code, error = EXIT_CONFIG, f"configuration error: {exc}"
    # each distinct message once, without its source line, before the error
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(error, file=sys.stderr)
    return code


def _solver_message(exc: Exception) -> str:
    """The message of a numerical failure.  An overflow names the innermost public
    function of the traceback, the quantity that left the float range: x ** y only
    says (34, 'Numerical result out of range')."""
    if not isinstance(exc, OverflowError):
        return str(exc)
    names, tb = [], exc.__traceback__
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    name = next((n for n in reversed(names) if n[0] not in "_<"), names[-1])
    return f"{name} overflowed: {exc.args[-1] if exc.args else 'overflow'}"


if __name__ == "__main__":
    sys.exit(main())
