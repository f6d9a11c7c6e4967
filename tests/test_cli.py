import argparse
import ast
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sqreadout import cli, ies
from sqreadout.core import MeasurementMoments, Record, standard_readout_moments


def run_cli(args):
    return cli.main(list(args))


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestSnrCommand:
    def test_combined_headline(self, tmp_path):
        out = tmp_path / "rec.txt"
        assert run_cli(["snr", "--scheme", "combined", "-o", str(out)]) == 0
        rec = parse_kv(out.read_text())
        assert float(rec["snr"]) == pytest.approx(5.549, abs=0.01)
        assert float(rec["omega_sq"]) == pytest.approx(5.6943, abs=1e-3)
        assert float(rec["n_critical"]) == 100.0

    def test_standard_point(self, tmp_path):
        out = tmp_path / "rec.txt"
        assert run_cli(["snr", "--scheme", "standard", "-o", str(out)]) == 0
        rec = parse_kv(out.read_text())
        assert float(rec["snr"]) == pytest.approx(0.1826, abs=1e-3)
        # the standard record names no squeezing: n_tau is its one own field
        keys = list(rec)
        assert keys[keys.index("psi") + 1:keys.index("signal_up")] == ["n_tau"]

    def test_ics_zero_drive_matches_standard(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(["snr", "--scheme", "ics", "--omega-2ph", "0", "-o", str(a)])
        run_cli(["snr", "--scheme", "standard", "-o", str(b)])
        ra, rb = parse_kv(a.read_text()), parse_kv(b.read_text())
        for key in ("snr", "separation", "noise_sum", "error"):
            assert float(ra[key]) == pytest.approx(float(rb[key]), rel=1e-9)

    def test_kappa_tau_flag(self, tmp_path):
        out = tmp_path / "rec.txt"
        run_cli(["snr", "--scheme", "standard", "--kappa", "2", "--kappa-tau", "1",
                 "-o", str(out)])
        rec = parse_kv(out.read_text())
        assert float(rec["tau"]) == pytest.approx(0.5)
        assert float(rec["kappa_tau"]) == pytest.approx(1.0)


class TestExitCodes:
    def test_config_error_unknown_scheme(self, capsys):
        assert run_cli(["snr", "--config", "/nonexistent/readout.ini"]) == 2

    def test_stability_error(self):
        assert run_cli(["snr", "--scheme", "ics", "--chi", "0",
                        "--omega-2ph", "0.3"]) == 3

    def test_zero_epsilon_is_config_error(self, capsys):
        assert run_cli(["snr", "--scheme", "combined", "--epsilon", "0"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_sweep_count_too_small(self):
        assert run_cli(["sweep", "--scheme", "standard", "--var", "chi",
                        "--start", "0.1", "--stop", "1.0", "--count", "1"]) == 2

    def test_sweep_unknown_variable(self):
        assert run_cli(["sweep", "--scheme", "standard", "--var", "banana",
                        "--start", "0.1", "--stop", "1.0", "--count", "3"]) == 2

    def test_unknown_figure(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["figure", "fig99"])
        assert err.value.code == 2

    def test_solver_error_exit_code(self, monkeypatch):
        from sqreadout import combined
        from sqreadout.core import BracketError

        def no_root(*args, **kwargs):
            raise BracketError("no sign change")

        monkeypatch.setattr(combined, "solve_omega_sq", no_root)
        assert run_cli(["snr", "--scheme", "combined"]) == 4

    @pytest.mark.parametrize("command, message", [
        ("snr", "total noise 0.0 is not positive"),              # DegenerateNoiseError
        ("wigner", "covariance not positive definite"),         # IndefiniteCovarianceError
    ], ids=["snr", "wigner"])
    def test_numerical_failure_exit_code(self, monkeypatch, capsys, tmp_path, command, message):
        # zero noise on both quadratures: no SNR and a singular pointer-state covariance
        monkeypatch.setattr(ies, "_noise_pair", lambda *args, **kwargs: (0.0, 0.0))
        args = [command, "--scheme", "standard"]
        if command == "wigner":
            args += ["--resolution", "17", "--window", "2", "--output-dir", str(tmp_path)]
        assert run_cli(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and message in err

    EPSILON_WARNING = "epsilon=0.3 is large; the dispersive picture is dubious"

    def test_warning_raised_as_error_is_config_error(self, capsys):
        # a caller's error filter turns chi_sq's warning into an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["snr", "--scheme", "combined", "--epsilon", "0.3"]) == 2
        assert capsys.readouterr().err == f"configuration error: {self.EPSILON_WARNING}\n"

    @pytest.mark.parametrize("how", ["-W", "PYTHONWARNINGS"])
    def test_warning_filter_of_the_interpreter(self, how):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        flags = ["-W", "error"] if how == "-W" else []
        if how == "PYTHONWARNINGS":
            env["PYTHONWARNINGS"] = "error"
        proc = subprocess.run([sys.executable, *flags, "-m", "sqreadout.cli", "snr", "--scheme",
                               "combined", "--epsilon", "0.3"], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"configuration error: {self.EPSILON_WARNING}\n"

    def test_closed_stdout_pipe_exits_quietly(self):
        # a reader that stops after one line, as `| head -1` does: the 2,000 rows (~0.5 MB)
        # overflow the pipe buffer, so the writer meets the closed pipe
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen([sys.executable, "-m", "sqreadout.cli", "sweep", "--scheme", "ies",
                                 "--var", "kappa_tau", "--start", "0.01", "--stop", "100",
                                 "--count", "2000", "--spacing", "log"], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline().startswith("kappa_tau,scheme,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (0, "")

    def test_negative_noise_exit_code(self, monkeypatch, capsys):
        # a closed form that goes negative is a numerical failure, not a bad option
        monkeypatch.setattr(ies, "_noise_pair", lambda *args, **kwargs: (-1.0, -1.0))
        assert run_cli(["snr", "--scheme", "standard"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and "non-negative" in err

    @pytest.mark.parametrize("argv", [
        ["snr", "--scheme", "ies", "--r", "400"],
        ["snr", "--scheme", "combined", "--chi", "1e200"],
        ["snr", "--scheme", "combined", "--epsilon", "1e-300"],
        ["sweep", "--scheme", "ies", "--var", "r", "--start", "0", "--stop", "400", "--count", "3"],
        ["oracle-check", "--scheme", "ies", "--r", "400"],
        # the oracle's K = 64 (|omega| + kappa) tau overflows its sums to nan
        ["oracle-check", "--scheme", "ics", "--phi-in", "-1", "--kappa", "1e300",
         "--omega-2ph", "1e5"],
    ], ids=["snr-ies-r", "snr-combined-chi", "snr-combined-epsilon", "sweep-ies-r", "oracle-check",
            "oracle-check-nan"])
    def test_arithmetic_failure_is_solver_error(self, capsys, argv):
        # overflow and division by zero are numerical failures, not the oracle
        # disagreement that exit 1 stands for
        assert run_cli(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("solver error:")

    @pytest.mark.parametrize("argv, quantity", [
        (["snr", "--scheme", "combined", "--epsilon", "1e300"], "critical_photon_number"),
        (["mismatch", "--scheme", "combined", "--epsilon", "1e300"], "critical_photon_number"),
        # delta_c = omega_sq cosh 2r is printed; at omega_sq = 1e300 it is 5e301, in range
        (["snr", "--scheme", "combined", "--omega-sq", "1e308"], "delta_c"),
        (["snr", "--scheme", "ies", "--alpha-in", "1e300"], "ies_photon_number"),
        (["snr", "--scheme", "ies", "--r", "400"], "ies_noise"),
    ], ids=["snr-epsilon", "mismatch-epsilon", "combined-omega-sq", "ies-alpha-in", "ies-r"])
    def test_overflow_names_the_quantity(self, capsys, argv, quantity):
        # x ** 2 out of range says only (34, 'Numerical result out of range'); the
        # message names the innermost public function, not a private helper.  A large
        # epsilon is named once, in plain words, before the error
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        warning = ("warning: epsilon=1e+300 is large; the dispersive picture is dubious\n"
                   if "--epsilon" in argv else "")
        assert err.startswith(f"{warning}solver error: {quantity} overflowed: ")
        assert "(34," not in err

    @pytest.mark.parametrize("argv", [
        ["snr", "--scheme", "combined", "--delta-r", "0.1", "--kappa-tau", "800"],
        ["mismatch", "--scheme", "combined", "--delta-r", "0.1", "--kappa-tau", "800"],
        ["oracle-check", "--scheme", "combined", "--delta-r", "0.1", "--delta-p", "0.05",
         "--kappa-tau", "800"],
    ], ids=["snr", "mismatch", "oracle-check"])
    def test_mismatched_combined_at_long_times(self, capsys, argv):
        # the paper's factors e^{-2r_c - kappa tau} e^{kappa tau} leave the float range above
        # kappa*tau = 709.78; their finite product is the one the noise uses
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert "noise_up=" in out or "var:" in out
        assert not re.search(r"\b(nan|inf)\b", out)
        if argv[0] == "oracle-check":
            assert out.endswith("passed=True\n")

    def test_oracle_check_skips_the_record_fields(self, capsys):
        # the photon number of this tone overflows, but oracle-check prints only moments
        assert run_cli(["oracle-check", "--scheme", "ies", "--alpha-in", "1e200"]) == 0
        assert capsys.readouterr().out.endswith("passed=True\n")

    @pytest.mark.parametrize("command", ["snr", "mismatch", "sweep"])
    def test_negative_frame_squeeze_fails_only_the_record(self, capsys, command):
        # r + delta_r < 0: the closed forms and the oracle hold, the printed frame does not
        argv = ["--scheme", "combined", "--r", "0.05", "--delta-r", "-0.1"]
        assert run_cli(["oracle-check", *argv]) == 0
        assert capsys.readouterr().out.endswith("passed=True\n")
        sweep = ["--var", "tau", "--start", "1", "--stop", "2", "--count", "2"]
        assert run_cli([command, *argv, *(sweep if command == "sweep" else [])]) == 2
        assert capsys.readouterr().err == (
            "configuration error: frame squeeze parameter must be non-negative\n")

    @pytest.mark.parametrize("argv", [
        ["snr", "--scheme", "combined", "--r", "9.5"],
        ["mismatch", "--scheme", "combined", "--r", "9.5", "--delta-r", "0.1", "--delta-p", "0.05"],
        ["snr", "--scheme", "combined", "--omega-sq", "1e300"],
    ], ids=["snr-r", "mismatch-r", "snr-omega-sq"])
    def test_frame_at_large_squeeze_or_frequency(self, capsys, argv):
        # delta_c and 2 Omega round to one float (r = 9.5) or square out of range
        # (omega_sq = 1e300), though the frame is real and every printed field finite
        assert run_cli(argv) == 0
        rec = parse_kv(capsys.readouterr().out)
        assert all(math.isfinite(float(value)) for key, value in rec.items() if key != "scheme")

    @pytest.mark.parametrize("command", ["snr", "oracle-check", "wigner", "mismatch"])
    @pytest.mark.parametrize("omega_sq", ["-1", "0"])
    def test_non_positive_omega_sq_is_config_error(self, capsys, tmp_path, command, omega_sq):
        extra = ["--output-dir", str(tmp_path)] if command == "wigner" else []
        assert run_cli([command, "--scheme", "combined", f"--omega-sq={omega_sq}", *extra]) == 2
        assert capsys.readouterr().err == "configuration error: omega_sq must be positive\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["snr", "--scheme", "combined", "--epsilon", "0.3"],
        ["mismatch", "--scheme", "combined", "--epsilon", "0.3"],
        ["sweep", "--scheme", "combined", "--epsilon", "0.3", "--var", "kappa_tau",
         "--start", "0.5", "--stop", "2", "--count", "3"],
    ], ids=["snr", "mismatch", "sweep"])
    def test_warning_is_one_plain_line(self, capsys, argv):
        # chi_sq warns from two call sites (and once per sweep point); stderr names the
        # message once, without source paths
        assert run_cli(argv) == 0
        loud = capsys.readouterr()
        assert loud.err == "warning: epsilon=0.3 is large; the dispersive picture is dubious\n"
        # the caller's filters decide what is recorded, and stdout does not change
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run_cli(argv) == 0
        assert capsys.readouterr() == (loud.out, "")


    @pytest.mark.parametrize("extra", [[], ["--theta", "0"]], ids=["optimal-theta", "theta-0"])
    def test_ics_long_time_overflow_exit_code(self, extra, tmp_path):
        # stable (|lambda| = 0.48 kappa) at a kappa*tau where cosh(|lambda| tau) alone
        # leaves the float range; each closed form pairs it with e^{-kappa tau/2}
        out = tmp_path / "rec.txt"
        argv = ["snr", "--scheme", "ics", "--chi", "0", "--omega-2ph", "0.24",
                "--kappa-tau", "800", *extra, "-o", str(out)]
        assert run_cli(argv) == 0
        rec = parse_kv(out.read_text())
        assert all(math.isfinite(float(rec[key])) for key in ("n_tau", "noise_sum", "snr"))


    @pytest.mark.parametrize("window", ["0", "-2", "nan", "inf"])
    def test_bad_wigner_window_is_config_error(self, capsys, tmp_path, window):
        # a zero, reversed or non-finite window would draw one point, a mirrored grid or NaN rows
        argv = ["wigner", "--scheme", "ies", "--window", window, "--resolution", "16",
                "--output-dir", str(tmp_path)]
        assert run_cli(argv) == 2
        assert "configuration error: window must be finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_non_finite_wigner_grid_is_solver_error(self, capsys, tmp_path):
        # a window so wide that the quadratic form of W overflows to inf - inf
        argv = ["wigner", "--scheme", "ies", "--resolution", "16", "--window", "1e300",
                "--output-dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)      # numpy's overflow warnings
            assert run_cli(argv) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("solver error: Wigner function W not finite")
        assert captured.out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_oracle_tol_is_config_error(self, capsys, tol):
        # nan would fail every check (exit 1), -1 and inf would pass on the floor or on anything
        assert run_cli(["oracle-check", "--scheme", "ies", "--tol", tol]) == 2
        assert "configuration error: tol must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["--scheme", "standard", "--alpha-in", "nan"], "alpha_in"),
        (["--scheme", "standard", "--alpha-in", "inf"], "alpha_in"),
        (["--scheme", "standard", "--chi", "nan"], "chi"),
        (["--scheme", "standard", "--phi-h", "nan"], "phi_h"),
        (["--scheme", "standard", "--kappa-tau", "inf"], "tau"),
        (["--scheme", "ies", "--r", "nan"], "r"),
        (["--scheme", "ies", "--varphi", "nan"], "varphi"),
        (["--scheme", "ics", "--theta", "nan"], "theta"),
        (["--scheme", "ics", "--omega-2ph", "inf"], "omega_2ph"),
        (["--scheme", "combined", "--theta", "nan"], "theta"),
        (["--scheme", "combined", "--omega-sq", "nan"], "omega_sq"),
        (["--scheme", "combined", "--delta-p", "inf"], "delta_p"),
    ])
    def test_non_finite_input_is_config_error(self, capsys, argv, field):
        assert run_cli(["snr", *argv]) == 2
        assert f"configuration error: {field} must be finite" in capsys.readouterr().err


class TestConfigFile:
    def test_sections_and_override(self, tmp_path):
        cfg = tmp_path / "readout.ini"
        cfg.write_text("""
[readout]
scheme = ies
kappa = 1.0
chi = 0.5
alpha_in = 1.0
tau = 1.0

[ies]
r = 0.5
varphi = 3.141592653589793
""")
        out = tmp_path / "rec.txt"
        assert run_cli(["snr", "--config", str(cfg), "-o", str(out)]) == 0
        rec = parse_kv(out.read_text())
        assert float(rec["r"]) == 0.5
        out2 = tmp_path / "rec2.txt"
        assert run_cli(["snr", "--config", str(cfg), "--r", "0.9",
                        "-o", str(out2)]) == 0
        assert float(parse_kv(out2.read_text())["r"]) == 0.9

    @pytest.mark.parametrize("scheme, body, line", [
        ("combined", "chi = 0.4\n", "epsilon =\n"),
        ("ies", "tau = 2.0\n\n[ies]\nvarphi = 1.0\n", "r =\n"),
    ], ids=["combined-epsilon", "ies-r"])
    def test_empty_value_takes_default(self, tmp_path, capsys, scheme, body, line):
        without = tmp_path / "without.ini"
        with_empty = tmp_path / "empty.ini"
        without.write_text(f"[readout]\nscheme = {scheme}\n{body}")
        with_empty.write_text(f"[readout]\nscheme = {scheme}\n{body}{line}")
        assert run_cli(["snr", "--config", str(without)]) == 0
        expected = capsys.readouterr().out
        assert run_cli(["snr", "--config", str(with_empty)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("text, detail", [
        ("r = 0.5\n", "File contains no section headers."),
        ("[ies]\nr = 0.5\nr = 0.6\n", "option 'r' in section 'ies' already exists"),
        ("[readout]\nscheme = ies\n\n[ies]\nr = 5%\n", "'%' must be followed by '%' or '('"),
    ], ids=["no-section-header", "duplicate-option", "bare-percent"])
    def test_malformed_file_is_config_error(self, tmp_path, capsys, text, detail):
        # configparser's errors are bad input (exit 2), not a traceback with exit 1
        cfg = tmp_path / "readout.ini"
        cfg.write_text(text)
        assert run_cli(["snr", "--scheme", "ies", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and detail in err
        assert err.startswith(f"configuration error: malformed config file {str(cfg)!r}: ")


class TestSweep:
    def test_deterministic(self, tmp_path):
        args = ["sweep", "--scheme", "standard", "--var", "kappa_tau",
                "--start", "0.2", "--stop", "2.0", "--count", "5",
                "--spacing", "log"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["-o", str(a)]) == 0
        assert run_cli(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_values_spacing(self):
        lin = cli.sweep_values(0.0, 1.0, 5, "linear")
        assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        log = cli.sweep_values(0.1, 10.0, 3, "log")
        assert log == pytest.approx([0.1, 1.0, 10.0])

    def test_mismatch_sweep(self, tmp_path):
        out = tmp_path / "mm.csv"
        assert run_cli(["sweep", "--scheme", "combined", "--var", "delta_p",
                        "--start", "0.0", "--stop", "0.1", "--count", "3",
                        "--delta-r", "0.1", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        snrs = [float(line.split(",")[header.index("snr")]) for line in lines[1:]]
        assert snrs[0] > snrs[-1]


class TestFigureCommand:
    def test_fig2b_values(self, tmp_path):
        assert run_cli(["figure", "fig2b", "--output-dir", str(tmp_path)]) == 0
        path = tmp_path / "fig2b.csv"
        header, *rows = path.read_text().strip().splitlines()
        cols = header.split(",")
        table = {c: [float(r.split(",")[i]) for r in rows] for i, c in enumerate(cols)}
        idx = min(range(len(table["kappa_tau"])),
                  key=lambda i: abs(table["kappa_tau"][i] - 1.0))
        assert table["kappa_tau"][idx] == pytest.approx(1.0, rel=1e-9)
        assert table["snr_combined"][idx] == pytest.approx(5.549, abs=0.01)
        assert table["snr_ies_opt"][idx] == pytest.approx(0.2946, abs=0.005)
        assert table["snr_ics_opt"][idx] == pytest.approx(0.2080, abs=0.005)
        assert table["snr_std"][idx] == pytest.approx(0.1826, abs=0.002)

    def test_gnuplot_script(self, tmp_path):
        assert run_cli(["figure", "fig4b", "--output-dir", str(tmp_path),
                        "--gnuplot"]) == 0
        assert (tmp_path / "fig4b.csv").exists()
        script = (tmp_path / "fig4b.gp").read_text()
        assert "plot" in script and "fig4b.csv" in script

    def test_idempotent(self, tmp_path):
        run_cli(["figure", "fig4b", "--output-dir", str(tmp_path)])
        first = (tmp_path / "fig4b.csv").read_bytes()
        run_cli(["figure", "fig4b", "--output-dir", str(tmp_path)])
        assert (tmp_path / "fig4b.csv").read_bytes() == first


class TestOracleCheckCommand:
    def test_passes_for_each_scheme(self):
        assert run_cli(["oracle-check", "--scheme", "standard",
                        "--steps", "4096"]) == 0
        assert run_cli(["oracle-check", "--scheme", "ies", "--r", "0.5",
                        "--steps", "4096"]) == 0
        assert run_cli(["oracle-check", "--scheme", "ics", "--omega-2ph", "0.15",
                        "--steps", "4096"]) == 0
        assert run_cli(["oracle-check", "--scheme", "combined",
                        "--steps", "8192"]) == 0

    @pytest.mark.parametrize("scheme, extra", [
        ("standard", []), ("ies", ["--r", "0.5"]), ("ics", ["--omega-2ph", "0.15"]),
        ("combined", ["--kappa-tau", "2.0"]),
    ], ids=["standard", "ies", "ics", "combined"])
    def test_snr_record_matches_analytic_moments(self, capsys, scheme, extra):
        args = ["--scheme", scheme, *extra]
        assert run_cli(["snr", *args]) == 0
        rec = parse_kv(capsys.readouterr().out)
        assert run_cli(["oracle-check", *args, "--steps", "1024"]) == 0
        analytic = {}
        for line in capsys.readouterr().out.splitlines():
            state, _, rest = line.partition(" ")
            field, _, rest = rest.partition(": analytic=")
            if field in ("mean", "var"):
                analytic[(state, field)] = rest.split()[0]
        assert len(analytic) == 4
        for state in ("up", "down"):
            assert analytic[(state, "mean")] == rec[f"signal_{state}"]
            assert analytic[(state, "var")] == rec[f"noise_{state}"]

    def test_large_delta_p_passes(self, capsys):
        # delta_p is reduced on construction, so both sides see the same phase
        assert run_cli(["oracle-check", "--scheme", "combined", "--kappa-tau", "1",
                        "--delta-p", "1e15"]) == 0
        assert capsys.readouterr().out.strip().endswith("passed=True")

    @pytest.mark.parametrize("steps", [[], ["--steps", "65536"]], ids=["default", "65536"])
    def test_exceptional_point_passes(self, capsys, steps):
        # chi = 2 Omega: the ICS drift is defective
        assert run_cli(["oracle-check", "--scheme", "ics", "--chi", "0.2", "--omega-2ph", "0.1",
                        "--kappa-tau", "1", *steps]) == 0
        assert capsys.readouterr().out.strip().endswith("passed=True")

    def test_negative_control(self, monkeypatch):
        true_noise = ies._noise_pair

        def corrupted(params, cfg):
            return tuple(1.01 * noise for noise in true_noise(params, cfg))

        monkeypatch.setattr(ies, "_noise_pair", corrupted)
        assert run_cli(["oracle-check", "--scheme", "ies", "--r", "0.5",
                        "--steps", "4096"]) != 0


class TestWignerCommand:
    def test_vacuum_peak(self, tmp_path):
        assert run_cli(["wigner", "--scheme", "standard", "--alpha-in", "0",
                        "--resolution", "101", "--window", "4",
                        "--output-dir", str(tmp_path)]) == 0
        path = tmp_path / "wigner_standard_up.csv"
        rows = path.read_text().strip().splitlines()[1:]
        w = np.array([float(r.split(",")[2]) for r in rows])
        assert w.max() == pytest.approx(2.0 / math.pi, rel=1e-9)
        assert len(rows) == 101 * 101

    def test_figS5_preset(self, tmp_path):
        assert run_cli(["wigner", "--preset", "figS5", "--resolution", "33",
                        "--output-dir", str(tmp_path)]) == 0
        diag_path = tmp_path / "figS5_diagnostics.csv"
        header, *rows = diag_path.read_text().strip().splitlines()
        cols = header.split(",")
        by_grid = {}
        for row in rows:
            vals = dict(zip(cols, row.split(",")))
            by_grid[vals["grid"]] = vals
        assert len(by_grid) == 6
        # equal squeeze degree for the two states at each time
        for kt in ("1", "2", "5"):
            up = by_grid[f"figS5_kt{kt}_up"]
            down = by_grid[f"figS5_kt{kt}_down"]
            assert float(up["xi2_dB"]) == pytest.approx(float(down["xi2_dB"]),
                                                        abs=1e-9)

    def test_figS4_preset_runs(self, tmp_path):
        assert run_cli(["wigner", "--preset", "figS4", "--resolution", "33",
                        "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "figS4_diagnostics.csv").exists()
        assert (tmp_path / "figS4_kt5_down.csv").exists()

    def test_figS2_preset_opposite_rotations(self, tmp_path):
        assert run_cli(["wigner", "--preset", "figS2", "--resolution", "33",
                        "--output-dir", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "figS2_diagnostics.csv").read_text().strip().splitlines()
        cols = header.split(",")
        thetas = {}
        for row in rows:
            vals = dict(zip(cols, row.split(",")))
            thetas[(vals["grid"], vals["state"])] = float(vals["theta_N"])
        for kt in ("1", "2", "5"):
            up = thetas[(f"figS2_kt{kt}_up", "up")]
            down = thetas[(f"figS2_kt{kt}_down", "down")]
            assert up == pytest.approx(-down, abs=1e-6)
            assert up != 0.0

    def test_preset_keeps_the_files_before_a_failing_point(self, monkeypatch, tmp_path, capsys):
        from sqreadout import figures
        from sqreadout.core import StabilityError
        setting = figures.PHASE_SPACE_SETTINGS["figS5"]

        def fails_at_2(kappa_tau):
            if kappa_tau == 2.0:
                raise StabilityError("no point at kappa*tau = 2")
            return setting(kappa_tau)

        monkeypatch.setitem(figures.PHASE_SPACE_SETTINGS, "figS5", fails_at_2)
        assert run_cli(["wigner", "--preset", "figS5", "--resolution", "16",
                        "--output-dir", str(tmp_path)]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["figS5_kt1_down.csv",
                                                              "figS5_kt1_up.csv"]
        assert capsys.readouterr().out.count("wrote") == 2

    def test_mismatched_combined_exits_2(self, tmp_path, capsys):
        # the mismatch noise is known on the squeezed quadrature only, so the
        # off-axis probes of the pointer-state reconstruction are refused
        assert run_cli(["wigner", "--scheme", "combined", "--delta-r", "0.1",
                        "--delta-p", "0.05", "--resolution", "16",
                        "--output-dir", str(tmp_path)]) == 2
        assert "squeezed quadrature 2*phi_h = theta" in capsys.readouterr().err


class TestMismatchCommand:
    def test_headline_ratio(self, tmp_path):
        out = tmp_path / "mm.txt"
        assert run_cli(["mismatch", "--scheme", "combined", "--delta-r", "0.1",
                        "--delta-p", "0.1", "-o", str(out)]) == 0
        rec = parse_kv(out.read_text())
        assert float(rec["snr_over_e_r_snr_std"]) == pytest.approx(0.742, abs=0.01)
        assert float(rec["snr_matched"]) == pytest.approx(5.549, abs=0.01)

    def test_requires_combined(self):
        assert run_cli(["mismatch", "--scheme", "ies"]) == 2


class TestFormatting:
    def test_fmt_significant_digits(self):
        assert cli.fmt(math.pi) == "3.14159265359"
        assert cli.fmt(1.0) == "1"
        assert cli.fmt(1e-13) == "1e-13"


class NoisyStandard(Record):
    """A scheme the package does not ship: the standard readout with its noise times e^{2r}."""

    r: float

    def operating_point(self, params):
        return params, self

    def moments(self, params):
        m, gain = standard_readout_moments(params), math.exp(2.0 * self.r)
        return MeasurementMoments(m.signal_up, m.signal_down, gain * m.noise_up,
                                  gain * m.noise_down)

    def record_fields(self, params):
        return {"r": self.r}


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def fresh_interpreter(code, *args):
    """JSON printed by code run in a new interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def module_level_imports(tree):
    """Names of the modules a module imports when it is itself imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        stack.extend(ast.iter_child_nodes(node))


class TestNumpyOnFirstUse:
    # the argvs of the cli_calls benchmark workload, none of which loads numpy, plus
    # oracle-check for every scheme, with their exit codes
    SCALAR_ARGVS = [
        (["snr", "--scheme", "standard", "--kappa-tau", "0.1"], 0),
        (["snr", "--scheme", "ies", "--kappa-tau", "1", "--r", "1"], 0),
        (["snr", "--scheme", "ics", "--kappa-tau", "3.16", "--omega-2ph", "0.15"], 0),
        (["snr", "--scheme", "combined", "--kappa-tau", "1"], 0),
        (["mismatch", "--scheme", "combined", "--kappa-tau", "2.15", "--delta-r", "0.1",
          "--delta-p", "0.05"], 0),
        (["sweep", "--scheme", "combined", "--var", "kappa_tau", "--start", "0.01",
          "--stop", "100", "--count", "41", "--spacing", "log"], 0),
        (["sweep", "--scheme", "ies", "--var", "r", "--start", "0", "--stop", "2",
          "--count", "21", "--kappa-tau", "1"], 0),
        (["snr", "--scheme", "combined", "--kappa-tau", "1", "--epsilon", "0"], 2),
        (["snr", "--scheme", "ics", "--kappa-tau", "1", "--omega-2ph", "0.4"], 3),
        (["oracle-check", "--scheme", "standard"], 0),
        (["oracle-check", "--scheme", "ies", "--r", "1"], 0),
        (["oracle-check", "--scheme", "ics", "--omega-2ph", "0.15"], 0),
        (["oracle-check", "--scheme", "combined", "--kappa-tau", "0.46"], 0),
    ]
    RUN = """
import contextlib, io, json, sys
from sqreadout import cli
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append([code, "numpy" in sys.modules])
print(json.dumps(results))
"""

    def run(self, argvs):
        return fresh_interpreter(self.RUN, json.dumps(argvs))

    def test_import_leaves_numpy_unloaded(self):
        assert fresh_interpreter(
            "import json, sys, sqreadout, sqreadout.cli; "
            "print(json.dumps('numpy' in sys.modules))") is False

    def test_scalar_commands_run_without_numpy(self):
        argvs = [argv for argv, _ in self.SCALAR_ARGVS]
        assert self.run(argvs) == [[code, False] for _, code in self.SCALAR_ARGVS]

    def test_scalar_near_threshold_runs_without_numpy(self):
        # 4 Omega within 4e-9 of kappa at chi = kappa/2: threshold and exceptional point meet
        argv = ["snr", "--scheme", "ics", "--chi", "0.5", "--omega-2ph", "0.249999999",
                "--kappa-tau", "0.0158489319246"]
        assert self.run([argv]) == [[0, False]]

    def test_array_commands_load_numpy_on_first_use(self, tmp_path):
        argvs = [["figure", "fig2a", "--output-dir", str(tmp_path)],
                 ["wigner", "--scheme", "ics", "--resolution", "16", "--output-dir", str(tmp_path)]]
        assert [self.run([argv]) for argv in argvs] == [[[0, True]]] * 2

    def test_figS5_runs_without_numpy(self, tmp_path):
        # the pointer states' 2x2 algebra is closed form; only the Wigner grid makes arrays
        argvs = [["figure", "figS5", "--output-dir", str(tmp_path)],
                 ["wigner", "--preset", "figS5", "--resolution", "16", "--output-dir", str(tmp_path)]]
        assert self.run(argvs) == [[0, False], [0, True]]

    def test_fixed_coupling_builders_run_without_numpy(self, tmp_path):
        # floats from the given grids, pure-Python linspaces and one-axis searches on a
        # scalar grid, the free IES searches of figS1 and figS2 among them: only the
        # default kappa*tau grids (numpy.geomspace) load numpy
        code = """
import contextlib, io, json, sys
from sqreadout import cli, figures
figures.fig2a_rows()
figures.fig2a_inset_rows(grid=[1e-3, 1.0])
figures.fig2b_rows(grid=[0.01, 1.0])
figures.fig2c_rows(grid=[3.0])
figures.fig3_rows(grid=[0.2, 1.0])
figures.fig4a_rows(grid=[0.5])
figures.fig4b_rows(kappa_tau=2.0, count=5)
figures.figS5_rows(r=1.05)
figures.figS1_rows(grid=[0.3, 3.0])
figures.figS2_rows(grid=[1.0])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["figure", "fig4b", "--output-dir", sys.argv[1]])
print(json.dumps([code, "numpy" in sys.modules]))
"""
        assert fresh_interpreter(code, str(tmp_path)) == [0, False]

    def test_free_ics_builders_run_without_numpy(self):
        # the free (psi, r) search scans a 16x16 grid with scalar calls, so figS3 and the
        # figS4 pointer states at its optimum make no arrays either
        code = """
import json, sys
from sqreadout import figures
figures.figS3_rows(grid=[0.1, 1.0, 10.0])
figures.figS4_rows(grid=[1.0])
print(json.dumps("numpy" in sys.modules))
"""
        assert fresh_interpreter(code) is False

    def test_each_command_loads_only_its_modules(self, tmp_path):
        # fresh interpreters: the cli imports core alone, snr adds its scheme's module and
        # oracle-check also the oracle; no command loads dataclasses (or the inspect it
        # pulls in), and configparser loads only to read --config
        code = """
import contextlib, io, json, sys
from sqreadout import cli
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "sqreadout")
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1])) if sys.argv[1:] else 0
stdlib = [m for m in ("dataclasses", "inspect", "configparser") if m in sys.modules]
print(json.dumps([before, code, loaded(), stdlib]))
"""
        base = ["sqreadout", "sqreadout.cli", "sqreadout.core"]
        assert fresh_interpreter(code) == [base, 0, base, []]
        for scheme in ("standard", "ies", "ics", "combined"):
            module = "ies" if scheme == "standard" else scheme
            assert fresh_interpreter(code, json.dumps(["snr", "--scheme", scheme])) == [
                base, 0, sorted([*base, f"sqreadout.{module}"]), []], scheme
        assert fresh_interpreter(code, json.dumps(["oracle-check", "--scheme", "combined"])) == [
            base, 0, sorted([*base, "sqreadout.combined", "sqreadout.oracle"]), []]
        for argv in (["sweep", "--scheme", "ies", "--var", "r", "--start", "0", "--stop", "1",
                      "--count", "3"],
                     ["sweep", "--scheme", "combined", "--var", "kappa_tau", "--start", "0.1",
                      "--stop", "1", "--count", "3"],
                     ["mismatch", "--scheme", "combined", "--delta-r", "0.1"]):
            _, exit_code, _, stdlib = fresh_interpreter(code, json.dumps(argv))
            assert (exit_code, stdlib) == (0, []), argv
        ini = tmp_path / "readout.ini"
        ini.write_text("[readout]\nscheme = ies\n\n[ies]\nr = 0.5\n")
        argv = ["snr", "--config", str(ini)]
        _, exit_code, _, stdlib = fresh_interpreter(code, json.dumps(argv))
        assert (exit_code, stdlib) == (0, ["configparser"])

    def test_no_module_imports_numpy_at_module_level(self):
        modules = sorted(SRC.glob("sqreadout/*.py"))
        assert len(modules) >= 10
        for path in modules:
            names = set(module_level_imports(ast.parse(path.read_text(encoding="utf-8"))))
            assert not {n for n in names if n == "numpy" or n.startswith("numpy.")}, path.name


class TestSchemeTable:
    def test_any_config_plugs_in(self, monkeypatch, capsys):
        # one path for every table entry: the config is built from its options and
        # answers for its operating point, moments and record fields
        monkeypatch.setitem(cli.SCHEMES, "noisy", (__name__, "NoisyStandard", ("r",)))
        assert run_cli(["snr", "--scheme", "noisy", "--r", "0.5"]) == 0
        rec = parse_kv(capsys.readouterr().out)
        assert run_cli(["snr", "--scheme", "standard"]) == 0
        std = parse_kv(capsys.readouterr().out)
        assert (rec["scheme"], rec["r"], rec["separation"]) == ("noisy", "0.5", std["separation"])
        assert float(rec["snr"]) == pytest.approx(float(std["snr"]) * math.exp(-0.5), rel=1e-12)
        # mismatch asks whether the config takes delta_p, not which scheme it is
        assert run_cli(["mismatch", "--scheme", "noisy"]) == 2

    def test_cli_names_schemes_only_in_its_table(self):
        # no scheme switch: a scheme name is a key of cli.SCHEMES and no other string in cli.py
        tree = ast.parse((SRC / "sqreadout" / "cli.py").read_text(encoding="utf-8"))
        table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["SCHEMES"])
        assert isinstance(table, ast.Dict)
        keys = {id(key) for key in table.keys}
        stray = [(node.lineno, node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and node.value in cli.SCHEMES and id(node) not in keys]
        assert stray == []
        assert len(keys) == len(cli.SCHEMES) == 4


class TestCommandTable:
    def test_only_the_running_command_has_options(self):
        parser = cli.build_parser("snr")
        args = parser.parse_args(["snr", "--scheme", "ies", "--r", "0.5", "--format", "csv"])
        assert (args.command, args.scheme, args.r, args.format) == ("snr", "ies", 0.5, "csv")
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subs.choices) == list(cli.COMMANDS)
        options = {name: [a.option_strings for a in sub._actions]
                   for name, sub in subs.choices.items()}
        assert options.pop("snr")[-2:] == [["--output", "-o"], ["--format"]]
        assert options == {name: [["-h", "--help"]] for name in options}


ODD_VALUES = ("0", "-0", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "-1e-300", "1e5",
              "-1e5")
SCHEME_FLOATS = [*("--" + key.replace("_", "-") for key in cli._DEFAULTS), "--kappa-tau"]
# the float options of each drawn command besides the scheme flags; figure takes no numbers
OWN_FLOATS = {"snr": (), "mismatch": (), "oracle-check": ("--tol",), "wigner": ("--window",),
              "sweep": ("--start", "--stop")}
MESSAGES = {2: "configuration error:|usage:", 3: "stability error:", 4: "solver error:"}


@st.composite
def odd_argvs(draw):
    """An argv with odd values on one to three float flags; wigner still needs --output-dir."""
    command = draw(st.sampled_from(sorted(OWN_FLOATS)))
    argv = [command, "--scheme", draw(st.sampled_from(sorted(cli.SCHEMES)))]
    if command == "sweep":
        argv += ["--var", draw(st.sampled_from(cli._SWEEPABLE)), "--start", "0.5", "--stop", "2",
                 "--count", str(draw(st.integers(-1, 5))),
                 "--spacing", draw(st.sampled_from(("linear", "log")))]
    elif command == "wigner":
        argv += ["--resolution", str(draw(st.integers(16, 32)))]
    flags = draw(st.lists(st.sampled_from(SCHEME_FLOATS + list(OWN_FLOATS[command])),
                          min_size=1, max_size=3, unique=True))
    # --flag=value, or argparse would read a value such as -inf as an option
    return argv + [f"{flag}={draw(st.sampled_from(ODD_VALUES))}" for flag in flags]


class TestOddInputs:
    # derandomized, so the verdict depends on the code alone; argvs that once failed are
    # examples, kept whatever the draws
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=odd_argvs())
    @example(argv=["snr", "--scheme", "ics", "--kappa=1e300", "--chi=1e300"])  # chi^2 overflowed
    # the quadratic form of W overflowed to inf - inf: 128 nan values, exit 0
    @example(argv=["wigner", "--scheme", "ies", "--resolution", "16", "--window=1e300"])
    # the means agree to rounding and the oracle SNR is 0: its rel_dev overflowed to inf, exit 0
    @example(argv=["oracle-check", "--scheme", "ies", "--alpha-in=1e300", "--phi-in=1e300",
                   "--phi-h=1e300"])
    def test_documented_exit_and_finite_output(self, tmp_path, argv):
        outdir = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))    # one per example
        if argv[0] == "wigner":
            argv = [*argv, "--output-dir", str(outdir)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse rejects the argv
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert not {"nan", "inf", "-inf"} & set(re.split(r"[\s,=()]+", out.lower()))
        elif code == 1:                     # an oracle disagreement, between finite moments
            sides = re.findall(r"(?:analytic|oracle)=(\S+)", out)
            assert argv[0] == "oracle-check" and sides
            assert all(math.isfinite(float(side)) for side in sides)
        else:
            assert code in MESSAGES and re.search(f"^({MESSAGES[code]})", err, re.M), (code, err)
        for path in outdir.iterdir():
            words = set(re.split(r"[\s,=()]+", path.read_text(encoding="utf-8").lower()))
            assert not {"nan", "inf", "-inf"} & words, path.name
