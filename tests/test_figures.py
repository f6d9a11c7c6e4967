"""Contract of the figure builders: the keywords they take and the tables they share."""

import numpy as np
import pytest

from sqreadout import cli, combined, figures, optimize
from sqreadout.core import fidelity_and_error


class TestBuilderKeywords:
    def test_fig2b_on_a_given_grid(self):
        rows = figures.fig2b_rows(grid=[0.7])
        assert [row["kappa_tau"] for row in rows] == [0.7]
        assert rows[0]["snr_combined"] > rows[0]["snr_std"] > 0

    def test_fig4b_at_a_given_point_and_count(self):
        rows = figures.fig4b_rows(kappa_tau=2.0, count=3)
        assert [row["delta"] for row in rows] == [0.0, 0.1, 0.2]
        for row in rows:
            d = row["delta"]
            assert row["snr_vs_delta_p"] == figures.combined_snr(2.0, delta_r=0.1, delta_p=d)
            assert row["snr_vs_delta_r"] == figures.combined_snr(2.0, delta_r=d, delta_p=0.05)

    def test_figS5_at_a_given_squeeze(self):
        rows = figures.figS5_rows(r=1.05)
        assert [row["kappa_tau"] for row in rows] == [1.0, 2.0, 5.0]
        assert rows != figures.figS5_rows()


class TestOneSolvePerRoot:
    """The omega_sq root depends on r_c = r + delta_r, not on delta_p."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = combined.solve_omega_sq

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(combined, "solve_omega_sq", counted)
        return calls

    def test_fig4a_solves_once_per_kappa_tau(self, solves):
        kt = 0.7
        row = figures.fig4a_rows(grid=[kt])[0]
        assert len(solves) == 1
        for dp in figures.MISMATCH_SET:
            tag = f"snr_dp_{dp:g}".replace(".", "_")
            assert row[tag] == figures.combined_snr(kt, delta_r=0.1, delta_p=dp)

    def test_fig4b_delta_p_series_solves_once(self, solves):
        rows = figures.fig4b_rows(count=11)
        assert len(solves) <= 12
        for row in rows:
            d = row["delta"]
            assert row["snr_vs_delta_p"] == figures.combined_snr(1.0, delta_r=0.1, delta_p=d)
            assert row["snr_vs_delta_r"] == figures.combined_snr(1.0, delta_r=d, delta_p=0.05)


class TestSharedOperatingPoint:
    """fig4a and fig4b read every delta_p column from one map per delta_r, with the bits of the
    per-point path combined_snr."""

    @pytest.mark.parametrize("count", [41, 11])
    def test_fig4b_equals_the_per_point_path(self, count):
        for row in figures.fig4b_rows(count=count):
            d = row["delta"]
            assert row["snr_vs_delta_p"].hex() == figures.combined_snr(1.0, 0.1, d).hex(), d
            assert row["snr_vs_delta_r"].hex() == figures.combined_snr(1.0, d, 0.05).hex(), d

    def test_fig4a_equals_the_per_point_path(self):
        kts = [0.013, 1.0, 57.0]
        rows = figures.fig4a_rows(grid=kts)
        assert [row["kappa_tau"] for row in rows] == kts
        for kt, row in zip(kts, rows):
            for dp in figures.MISMATCH_SET:
                got = row[f"snr_dp_{dp:g}".replace(".", "_")]
                assert got.hex() == figures.combined_snr(kt, 0.1, dp).hex(), (kt, dp)


def test_fig2c_is_the_error_of_fig2b():
    kt = 0.3
    snrs = figures.fig2b_rows(grid=[kt])[0]
    errors = figures.fig2c_rows(grid=[kt])[0]
    assert list(errors) == ["kappa_tau", "error_combined", "error_ies_opt", "error_ics_opt",
                            "error_std"]
    assert errors["kappa_tau"] == kt
    for scheme in ("combined", "ies_opt", "ics_opt", "std"):
        assert errors[f"error_{scheme}"] == fidelity_and_error(snrs[f"snr_{scheme}"])[1]


class TestFig2OneTable:
    def test_fig2b_gives_fig2c_from_one_build(self, monkeypatch):
        calls = []
        real = figures.fig2b_rows

        def counted(grid=None):
            calls.append(grid)
            return real(grid=[0.05, 1.0, 20.0] if grid is None else grid)

        monkeypatch.setattr(figures, "fig2b_rows", counted)
        tables = figures.figure_tables("fig2b")
        assert list(tables) == ["fig2b", "fig2c"] and len(calls) == 1
        want = figures.fig2c_rows()
        assert [{k: v.hex() for k, v in row.items()} for row in tables["fig2c"]] == [
            {k: v.hex() for k, v in row.items()} for row in want]
        assert tables["fig2b"] == real(grid=[0.05, 1.0, 20.0])

    def test_fig2c_is_no_longer_a_figure(self, tmp_path):
        assert "fig2c" not in figures.FIGURES
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "fig2c", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_figure_fig2b_writes_both_csvs(self, monkeypatch, tmp_path):
        real = figures.fig2b_rows
        monkeypatch.setattr(figures, "fig2b_rows", lambda grid=None: real(grid=grid or [1.0]))
        assert cli.main(["figure", "fig2b", "--output-dir", str(tmp_path)]) == 0
        header, row = (tmp_path / "fig2c.csv").read_text().splitlines()
        errors = figures.fig2c_rows(grid=[1.0])[0]
        assert header == ",".join(errors)
        assert row == ",".join(cli.fmt(v) for v in errors.values())


class TestFreeOptimumTables:
    """figS1 and figS3 are one free-optimum table, for IES and for ICS: its columns,
    in order, and its values are the two searches' own."""

    @pytest.mark.parametrize("name, scheme, coupling, grid", [
        ("figS1", "ies", "chi", [0.05, 1.0, 20.0]),
        ("figS3", "ics", "lambda", [0.1, 3.0]),
    ])
    def test_columns_and_values(self, name, scheme, coupling, grid):
        rows = getattr(figures, f"{name}_rows")(grid=grid)
        assert [row["kappa_tau"] for row in rows] == grid
        for kt, row in zip(grid, rows):
            best = optimize.maximize_snr(scheme, kt)
            std = optimize.maximize_snr("standard", kt)
            assert row == {"kappa_tau": kt, f"snr_{scheme}_opt": best.best_snr,
                           "psi_opt": best.argmax["psi"], "r_opt": best.argmax["r"],
                           f"{coupling}_opt_over_kappa": best.argmax[f"{coupling}_over_kappa"],
                           "snr_std_opt": std.best_snr, "psi_std_opt": std.argmax["psi"]}
            assert list(row) == ["kappa_tau", f"snr_{scheme}_opt", "psi_opt", "r_opt",
                                 f"{coupling}_opt_over_kappa", "snr_std_opt", "psi_std_opt"]

    # figS1 at kappa*tau = 1 and figS3 at 3 as built before the two builders became one;
    # the searches stop at a width of 1e-6 in (psi, r), so a numpy build that rounds a grid
    # cell otherwise may move an argmax within that width, and the optimum by far less
    RECORDED = {
        "figS1": (1.0, {"snr_ies_opt": 0.8024389350804252, "psi_opt": 1.468551496887085,
                        "r_opt": 0.5487435539767724, "chi_opt_over_kappa": 4.873170122542823,
                        "snr_std_opt": 0.7408388942906748, "psi_std_opt": 1.4214143791430378}),
        "figS3": (3.0, {"snr_ics_opt": 2.926190034244159, "psi_opt": 1.2283604826231498,
                        "r_opt": 1.4189166380774352, "lambda_opt_over_kappa": 1.4026036731096443,
                        "snr_std_opt": 2.7267033278745174, "psi_std_opt": 1.1909652112043687}),
    }

    @pytest.mark.parametrize("name", RECORDED)
    def test_recorded_values(self, name):
        kt, want = self.RECORDED[name]
        row = getattr(figures, f"{name}_rows")(grid=[kt])[0]
        assert list(row) == ["kappa_tau", *want]
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=1e-10 if key.startswith("snr") else 1e-5)


class TestPhaseSpaceSettings:
    def test_keys(self):
        assert sorted(figures.PHASE_SPACE_SETTINGS) == ["figS2", "figS4", "figS5"]

    def test_wigner_presets_are_the_table_keys(self, monkeypatch, tmp_path):
        # the figS2/figS4/figS5 presets run in test_cli; a key added to the table
        # becomes a preset too, so the CLI keeps no list of its own
        monkeypatch.setitem(figures.PHASE_SPACE_SETTINGS, "figX",
                            figures.PHASE_SPACE_SETTINGS["figS5"])
        assert cli.main(["wigner", "--preset", "figX", "--resolution", "16",
                         "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "figX_diagnostics.csv").exists()

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        assert cli.main(["wigner", "--preset", "figS9", "--output-dir", str(tmp_path)]) == 2
        assert "unknown preset 'figS9'" in capsys.readouterr().err

    def test_figS5_rows_and_preset_share_the_point(self, tmp_path):
        assert cli.main(["wigner", "--preset", "figS5", "--resolution", "16",
                         "--output-dir", str(tmp_path)]) == 0
        header, *lines = (tmp_path / "figS5_diagnostics.csv").read_text().splitlines()
        diag = [dict(zip(header.split(","), line.split(","))) for line in lines]
        for row in figures.figS5_rows():
            for state in ("up", "down"):
                d = next(x for x in diag if x["grid"] == f"figS5_kt{row['kappa_tau']:g}_{state}")
                for key in ("mean_x", "mean_y", "theta_N", "xi2_dB"):
                    assert d[key] == cli.fmt(row[f"{key}_{state}"])


class TestFig3OneTable:
    def test_fig3a_writes_both_stems_from_one_build(self, monkeypatch, tmp_path):
        calls = []
        real = figures.fig3_rows

        def counted():
            calls.append(1)
            return real(grid=[0.2, 1.0])

        monkeypatch.setattr(figures, "fig3_rows", counted)
        assert cli.main(["figure", "fig3a", "--output-dir", str(tmp_path)]) == 0
        assert len(calls) == 1
        a = (tmp_path / "fig3a.csv").read_bytes()
        assert a == (tmp_path / "fig3b.csv").read_bytes()
        assert a.count(b"\n") == 3

    def test_fig3b_is_no_longer_a_figure(self, tmp_path):
        assert "fig3b" not in figures.FIGURES
        with pytest.raises(SystemExit) as exc:
            cli.main(["figure", "fig3b", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2


def numeric_fields(rows):
    return [(key, value) for row in rows for key, value in row.items()
            if not isinstance(value, str)]


class TestFloatFields:
    """Every number a fixed-coupling builder or the SNR search hands out is a Python
    float, for numpy grid values too: a numpy scalar would make every later scalar
    operation a numpy-scalar operation."""

    EXPLICIT = {
        "fig2a_inset": lambda: figures.fig2a_inset_rows(grid=np.array([1e-3, 2.0])),
        "fig2b": lambda: figures.fig2b_rows(grid=np.array([0.05, 3.0])),
        "fig2c": lambda: figures.fig2c_rows(grid=np.array([1.0])),
        "fig3": lambda: figures.fig3_rows(grid=np.array([0.2, 4.0])),
        "fig4a": lambda: figures.fig4a_rows(grid=np.array([0.7])),
        "fig4b": lambda: figures.fig4b_rows(kappa_tau=np.float64(2.0), count=3),
        "figS5": lambda: figures.figS5_rows(r=1.05),
    }
    DEFAULT = {
        "fig2a": figures.fig2a_rows, "fig2a_inset": figures.fig2a_inset_rows,
        "fig2b": figures.fig2b_rows, "fig2c": figures.fig2c_rows, "fig3": figures.fig3_rows,
        "fig4a": figures.fig4a_rows, "fig4b": figures.fig4b_rows, "figS5": figures.figS5_rows,
    }

    @pytest.mark.parametrize("name", EXPLICIT)
    def test_explicit_grids(self, name):
        fields = numeric_fields(self.EXPLICIT[name]())
        assert fields and [key for key, value in fields if type(value) is not float] == []

    @pytest.mark.parametrize("name", DEFAULT)
    def test_default_grids(self, name):
        fields = numeric_fields(self.DEFAULT[name]())
        assert fields and [key for key, value in fields if type(value) is not float] == []

    @pytest.mark.parametrize("scheme", ["standard", "ies", "ics"])
    @pytest.mark.parametrize("fix_chi", [np.float64(0.5), None], ids=["fixed_chi", "free"])
    def test_optimum_reports(self, scheme, fix_chi):
        for kappa_tau in (np.float64(0.3), 3.0):
            report = optimize.maximize_snr(scheme, kappa_tau, fix_chi=fix_chi)
            values = [report.best_snr, *report.argmax.values()]
            assert [type(value) for value in values] == [float] * len(values)
            assert (type(report.evaluations), type(report.converged)) == (int, bool)
