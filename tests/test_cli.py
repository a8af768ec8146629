"""Tests for config parsing, output formats, and CLI exit codes."""

import re

import numpy as np
import pytest

import stokesbem.stokes_solver
import stokesbem.verification
from stokesbem import cli


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


RUN_TEXT = """
# minimal transient run
curve = circle
n_elements = 8
space = P0
assembly = reduced
order = 2
n_steps = 4
observation_points = 0,0; 0.5,0.5
output = series.csv
"""


class TestParseKeyValues:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_config(
            tmp_path / "a.cfg",
            "# heading\n\ncurve = circle  # trailing\n n_steps = 4 \n",
        )
        assert cli.parse_key_values(path) == {
            "curve": "circle",
            "n_steps": "4",
        }

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.parse_key_values("no_such_file.cfg")

    def test_line_without_equals(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", "curve circle\n")
        with pytest.raises(cli.ConfigError, match="key = value"):
            cli.parse_key_values(path)

    def test_repeated_key(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", "a = 1\na = 2\n")
        with pytest.raises(cli.ConfigError, match="repeated"):
            cli.parse_key_values(path)

    def test_empty_key(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", " = 2\n")
        with pytest.raises(cli.ConfigError, match="empty key"):
            cli.parse_key_values(path)


class TestBuildRunConfig:
    def base(self):
        return {
            "curve": "circle",
            "n_elements": "16",
            "n_steps": "8",
            "observation_points": "0,0",
        }

    def test_defaults(self):
        config = cli.build_run_config(self.base())
        assert config.kind == "P0"
        assert config.assembly == "galerkin"
        assert config.scheme.order == 3
        assert config.scheme.kappa == pytest.approx(0.125)
        assert config.output == "series.csv"
        assert config.snapshot_grid is None
        assert config.snapshot_steps == ()
        assert config.cfg.nu == 1.0

    def test_star_curve_parameters(self):
        raw = self.base() | {
            "curve": "star",
            "base_radius": "1.5",
            "amplitude": "0.2",
            "lobes": "5",
        }
        config = cli.build_run_config(raw)
        assert config.curve.kind == "star"
        assert config.curve.lobes == 5

    def test_unknown_curve(self):
        with pytest.raises(cli.ConfigError, match="curve"):
            cli.build_run_config(self.base() | {"curve": "triangle"})

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="unknown keys"):
            cli.build_run_config(self.base() | {"colour": "red"})

    def test_unknown_constraint_rejected(self):
        with pytest.raises(cli.ConfigError, match="constraint"):
            cli.build_run_config(self.base() | {"constraint": "pin"})

    def test_unknown_assembly_rejected(self):
        with pytest.raises(cli.ConfigError, match="assembly"):
            cli.build_run_config(self.base() | {"assembly": "spectral"})

    def test_bad_observation_pairs(self):
        with pytest.raises(cli.ConfigError, match="pairs"):
            cli.build_run_config(self.base() | {"observation_points": "0.5"})
        with pytest.raises(cli.ConfigError, match="no pairs"):
            cli.build_run_config(self.base() | {"observation_points": " ; "})

    def test_snapshot_keys_must_pair_up(self):
        with pytest.raises(cli.ConfigError, match="together"):
            cli.build_run_config(self.base() | {"snapshot_steps": "0 4"})
        with pytest.raises(cli.ConfigError, match="together"):
            cli.build_run_config(
                self.base() | {"snapshot_grid": "-1 -1 0.5 0.5 5 5"}
            )

    def test_snapshot_grid_token_count(self):
        with pytest.raises(cli.ConfigError, match="snapshot_grid"):
            cli.build_run_config(
                self.base()
                | {"snapshot_steps": "0", "snapshot_grid": "-1 -1 0.5 0.5 5"}
            )

    def test_integer_validation(self):
        with pytest.raises(cli.ConfigError, match="integer"):
            cli.build_run_config(self.base() | {"n_elements": "many"})

    @pytest.mark.parametrize("key, value", [
        ("observation_points", "nan,0; 0.2,0.1"),
        ("viscosity", "inf"),
        ("final_time", "-inf"),
        ("snapshot_grid", "-1 -1 nan 0.5 5 5"),
    ])
    def test_non_finite_number_names_the_key(self, key, value):
        raw = self.base() | {key: value}
        if key == "snapshot_grid":
            raw["snapshot_steps"] = "0"
        with pytest.raises(cli.ConfigError,
                           match=f"key '{key}' needs a finite number"):
            cli.build_run_config(raw)


class TestRunCommand:
    def test_series_layout_and_values(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "run.cfg", RUN_TEXT)
        assert cli.main(["run", path]) == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "step,time,point_id,ux,uy,p"
        assert len(lines) == 1 + 5 * 2
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "0"]
        assert float(first[3]) == 0.0

    def test_zero_data_writes_zero_rows(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path / "zero.cfg", RUN_TEXT + "data = zero\n"
        )
        assert cli.main(["run", path]) == 0
        for line in (tmp_path / "series.csv").read_text().splitlines()[1:]:
            _, _, _, ux, uy, p = line.split(",")
            assert ux == uy == p == "0"

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "run.cfg", RUN_TEXT)
        assert cli.main(["run", path]) == 0
        first = (tmp_path / "series.csv").read_bytes()
        assert cli.main(["run", path]) == 0
        assert (tmp_path / "series.csv").read_bytes() == first

    def test_snapshot_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(
            tmp_path / "run.cfg",
            RUN_TEXT
            + "snapshot_steps = 0 4\n"
            + "snapshot_grid = -1.3 -1.3 0.26 0.26 11 11\n"
            + "snapshot_prefix = snap\n",
        )
        assert cli.main(["run", path]) == 0
        for field in ("ux", "uy", "p", "vorticity"):
            for step in (0, 4):
                lines = (
                    (tmp_path / f"snap_{field}_{step}.txt")
                    .read_text()
                    .splitlines()
                )
                header = lines[0].split()
                assert header[:2] == ["11", "11"]
                assert [float(v) for v in header[2:]] == [
                    -1.3, -1.3, 0.26, 0.26,
                ]
                assert len(lines) == 12
                assert all(len(row.split()) == 11 for row in lines[1:])
        body = (tmp_path / "snap_p_4.txt").read_text()
        assert cli.MASKED_TOKEN in body

    def test_incompatible_data_is_config_error(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "run.cfg",
            "curve = circle\nn_elements = 8\nn_steps = 4\n"
            "observation_points = 0,0\ndata = manufactured\n"
            "viscosity = -1\n",
        )
        assert cli.main(["run", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("0,0; 0.5,0.5", "nan,0; 0.2,0.1"),
        ("n_steps = 4", "n_steps = 4\nviscosity = inf"),
    ])
    def test_non_finite_input_is_config_error(self, tmp_path, monkeypatch,
                                              capsys, old, new):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "run.cfg", RUN_TEXT.replace(old, new))
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_observation_point_on_boundary_is_config_error(
            self, tmp_path, monkeypatch, capsys):
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembly reached")

        monkeypatch.setattr(stokesbem.stokes_solver, "cq_weights", no_assembly)
        path = write_config(
            tmp_path / "run.cfg",
            RUN_TEXT.replace("0,0; 0.5,0.5", "0,0; 1,0"),
        )
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "observation point 1 lies on the boundary" in err

    def test_reduced_assembly_on_square_is_config_error(
            self, tmp_path, monkeypatch, capsys):
        def no_data_checks(*args, **kwargs):
            raise AssertionError("data checks reached")

        monkeypatch.setattr(stokesbem.stokes_solver, "_check_data_admissible",
                            no_data_checks)
        path = write_config(
            tmp_path / "run.cfg",
            RUN_TEXT.replace("curve = circle", "curve = square"),
        )
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "reduced integration requires a smooth curve" in err

    def test_snapshot_step_beyond_n_steps_fails_before_the_run(
            self, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation reached")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_simulation", no_run)
        path = write_config(
            tmp_path / "run.cfg",
            RUN_TEXT
            + "snapshot_steps = 2 9\n"
            + "snapshot_grid = -1.3 -1.3 0.26 0.26 11 11\n",
        )
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error: snapshot_steps must be in 0..4, got 9" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_all_masked_snapshot_grid_fails_before_the_run(
            self, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation reached")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_simulation", no_run)
        path = write_config(
            tmp_path / "run.cfg",
            RUN_TEXT.replace("n_elements = 8", "n_elements = 32")
            + "snapshot_steps = 4\n"
            + "snapshot_grid = 0.99 0.0 0.001 0.001 3 3\n",
        )
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "every grid cell lies within one element length" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("key, value", [
        ("output", "missing/series.csv"),
        ("snapshot_prefix", "missing/snap"),
    ])
    def test_missing_output_directory_fails_before_the_run(
            self, tmp_path, monkeypatch, capsys, key, value):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation reached")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_simulation", no_run)
        text = RUN_TEXT.replace("output = series.csv\n", "")
        path = write_config(tmp_path / "run.cfg", text + f"{key} = {value}\n")
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"'{key}'" in err and value in err

    @pytest.mark.parametrize("line, cause", [
        ("constraint = multiplier_rigid",
         "key 'constraint' must be one of ['augmented_Vtilde', "
         "'multiplier_m', 'none'], got 'multiplier_rigid'"),
        ("kappa = 0.05", "unknown keys: ['kappa']"),
    ])
    def test_removed_config_values_are_config_errors(
            self, tmp_path, monkeypatch, capsys, line, cause):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation reached")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_simulation", no_run)
        path = write_config(tmp_path / "run.cfg", RUN_TEXT + line + "\n")
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and cause in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_n_steps_names_the_key(self, tmp_path, monkeypatch,
                                               capsys, value):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation reached")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_simulation", no_run)
        path = write_config(tmp_path / "run.cfg",
                            RUN_TEXT.replace("n_steps = 4", f"n_steps = {value}"))
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"n_steps must be at least 1, got {value}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_unwritable_output_is_exit_1_without_traceback(
            self, tmp_path, monkeypatch, capsys):
        """An output path naming a directory passes the config check and
        fails in the writer; that is reported, not raised."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        path = write_config(tmp_path / "run.cfg",
                            RUN_TEXT.replace("series.csv", "taken"))
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert "cannot write output" in err and "taken" in err

    def test_numerical_failure_maps_to_exit_2(self, tmp_path, monkeypatch,
                                              capsys):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic breakdown")

        monkeypatch.setattr(cli, "run_simulation", explode)
        path = write_config(tmp_path / "run.cfg", RUN_TEXT)
        assert cli.main(["run", path]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_none_on_the_square_exits_2(self, tmp_path, monkeypatch, capsys):
        """The default constraint ``none`` leaves the square's leading
        system singular; the run is refused as a numerical failure that
        names the constraints that remove the kernel, and writes
        nothing."""
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "run.cfg", """
curve = square
n_elements = 16
space = P1_discontinuous
n_steps = 40
observation_points = 1.5,0.2
""")
        assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "rcond_1" in err
        assert "multiplier_m" in err
        assert not (tmp_path / "series.csv").exists()


class TestConvergeCommand:
    TEXT = """
curve = circle
space = P0
assembly = reduced
order = 3
data = manufactured
observation_points = 0,0; 0.5,0.5; -0.6,0.1
ladder = 8,8; 16,16
output = convergence.csv
"""

    def test_table_and_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path / "conv.cfg", self.TEXT)
        assert cli.main(["converge", path]) == 0
        out = capsys.readouterr().out
        assert "errU" in out and "--" in out
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,M,errU,ecrU,errP,ecrP"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "8" and first[3] == "" and first[5] == ""
        second = lines[2].split(",")
        assert float(second[3]) > 2.0

    def test_missing_output_directory_fails_before_the_sweep(
            self, tmp_path, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep reached")

        monkeypatch.setattr(cli, "convergence_sweep", no_sweep)
        missing = str(tmp_path / "missing" / "conv.csv")
        path = write_config(
            tmp_path / "conv.cfg",
            self.TEXT.replace("convergence.csv", missing),
        )
        assert cli.main(["converge", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "'output'" in err and missing in err

    def test_nonpositive_final_time_names_the_key(self, tmp_path,
                                                  monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep reached")

        monkeypatch.setattr(cli, "convergence_sweep", no_sweep)
        path = write_config(tmp_path / "conv.cfg",
                            self.TEXT + "final_time = 0\n")
        assert cli.main(["converge", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "final_time must be positive and finite, got 0.0" in err

    def test_non_doubling_ladder_is_config_error(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "conv.cfg",
            self.TEXT.replace("ladder = 8,8; 16,16", "ladder = 8,8; 16,24"),
        )
        assert cli.main(["converge", path]) == 1
        assert "double" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder", ["0,0", "8,0; 16,0", "0,8"])
    def test_zero_ladder_row_fails_before_the_sweep(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     ladder):
        """A 0,0 row passes the doubling check; it is still refused
        before any row runs."""
        def no_run(*args, **kwargs):
            raise AssertionError("simulation reached")

        monkeypatch.setattr(stokesbem.verification, "run_simulation", no_run)
        path = write_config(
            tmp_path / "conv.cfg",
            self.TEXT.replace("ladder = 8,8; 16,16", f"ladder = {ladder}"),
        )
        assert cli.main(["converge", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert re.search(r"ladder [NM] must be at least 1, got 0", err)
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_fresh_build_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "properties passed" in out
        assert "FAIL" not in out

    def test_injected_sign_error_fails_positivity(self, monkeypatch, capsys):
        original = stokesbem.verification.assemble_galerkin_V

        def flipped(space, freq, cfg):
            return -original(space, freq, cfg)

        monkeypatch.setattr(
            stokesbem.verification, "assemble_galerkin_V", flipped
        )
        assert cli.main(["verify"]) == 3
        out = capsys.readouterr().out
        failing = [
            ln for ln in out.splitlines()
            if ln.startswith("positivity") and "FAIL" in ln
        ]
        assert failing


class TestMainDispatch:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["plot"]) == 1
        assert "unknown command" in capsys.readouterr().err

    def test_run_argument_count(self, capsys):
        assert cli.main(["run"]) == 1
        assert cli.main(["run", "a", "b"]) == 1
        capsys.readouterr()

    def test_verify_takes_no_arguments(self, capsys):
        assert cli.main(["verify", "now"]) == 1
        capsys.readouterr()


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert cli._fmt(0.1) == "0.10000000000000001"
        assert cli._fmt(1.0) == "1"
        assert cli._fmt(-0.25) == "-0.25"
