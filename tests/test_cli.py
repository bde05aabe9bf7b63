"""Tests for the command-line interface: subcommands, artifacts, exit codes."""

import argparse
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fmds import cli, dissimilarity, fitting
from fmds.cli import _FIELD_OF_FLAG, _manifest_from_args, build_parser, main, verify_command
from fmds.fitting import pair_gradients
from fmds.io import ingest_tensor
from fmds.manifest import _COMMANDS, _FORMATS, RunManifest
from fmds.synthetic import _KINDS


def _run(*args):
    return main([str(a) for a in args])


def _digest_dir(directory):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(directory).iterdir())
    }


@pytest.fixture
def rotation_tensor(tmp_path):
    out = tmp_path / "synth"
    assert _run("synth", "--scenario", "smooth_rotation", "--n", "4", "--m", "20",
                "--seed", "7", "--out", out) == 0
    return out / "tensor.csv"


class TestArguments:
    @pytest.mark.parametrize("argv, digest", [
        (["fmds", "--input", "x.csv", "--out", "o"],
         "d58c1cdc0903bbd0d0b6c62834376faed91f7c21f60a85bef6771f4b9b8e8510"),
        (["synth", "--out", "o"],
         "5b8a75a0e935a0997d9f91ee50bbb5cac9b378d79e6202d5d0d0c99f73ee6c21"),
    ])
    def test_default_manifest_hash_pinned(self, argv, digest):
        assert _manifest_from_args(build_parser().parse_args(argv)).sha256() == digest

    def test_every_flag_maps_to_a_manifest_field(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        fields = set(RunManifest.__dataclass_fields__)
        for name, parser in commands.choices.items():
            for action in parser._actions:
                if action.dest != "help":
                    assert _FIELD_OF_FLAG.get(action.dest, action.dest) in fields, \
                        (name, action.dest)

    def test_choices_are_the_library_tuples(self):
        # one tuple per choice: a metric, format or scenario kind cannot be
        # added to the parser or to the library alone
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        choices = {(name, action.dest): action.choices
                   for name, parser in commands.choices.items() for action in parser._actions}
        for name in ("dissim", "cmds", "fmds"):
            assert choices[name, "metric"] is dissimilarity._METRICS
            assert choices[name, "format"] is _FORMATS
        assert choices["synth", "scenario"] is _KINDS
        # --init and --baseline choose among one map each, onto the library's names
        for flag, library in (("init", fitting._INIT_MODES),
                              ("baseline", tuple(fitting._METHODS))):
            assert choices["fmds", flag] is cli._VALUE_OF_FLAG[flag]
            assert tuple(cli._VALUE_OF_FLAG[flag].values()) == library

    def test_commands_are_one_set(self):
        # a command cannot be added to the parser, the run table or the
        # manifest's check alone
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert set(cli._RUNS) == set(_COMMANDS) == set(commands.choices) - {"verify"}

    @pytest.mark.parametrize("command", ["synth", "dissim", "cmds", "fmds", "verify"])
    def test_help_exits_cleanly(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--" in capsys.readouterr().out


class TestSynth:
    def test_writes_data_set(self, tmp_path):
        out = tmp_path / "s"
        assert _run("synth", "--scenario", "static_cloud", "--n", "3", "--m", "6",
                    "--seed", "1", "--out", out) == 0
        for name in ("panel.csv", "tensor.csv", "truth.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        digest = manifest["manifest_sha256"]
        assert digest in (out / "tensor.csv").read_text()
        assert digest in (out / "panel.csv").read_text()

    def test_tensor_ingestable(self, rotation_tensor):
        tensor = ingest_tensor(rotation_tensor)
        assert tensor.n == 4 and tensor.num_times == 20


class TestDissim:
    def test_weekly_windows(self, tmp_path):
        src = tmp_path / "panel"
        _run("synth", "--scenario", "random_walk_smoothed", "--n", "3", "--dim", "1",
             "--m", "10", "--seed", "2", "--out", src)
        out = tmp_path / "d"
        assert _run("dissim", "--input", src / "panel.csv", "--format", "wide_csv",
                    "--metric", "correlation", "--window", "5", "--stride", "5",
                    "--out", out) == 0
        tensor = ingest_tensor(out / "tensor.csv")
        assert tensor.num_times == 2 and tensor.n == 3

    def test_degenerate_series_exit(self, tmp_path):
        panel = tmp_path / "flat.csv"
        panel.write_text("object,1,2,3\naa,1,1,1\nbb,1,2,3\n")
        assert _run("dissim", "--input", panel, "--format", "wide_csv",
                    "--metric", "correlation", "--out", tmp_path / "o") == 4

    def test_window_too_long_exit(self, tmp_path):
        panel = tmp_path / "p.csv"
        panel.write_text("object,1,2\naa,1,2\nbb,2,1\n")
        assert _run("dissim", "--input", panel, "--format", "wide_csv",
                    "--window", "5", "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("metric", ["correlation", "euclidean"])
    def test_one_object_exit(self, tmp_path, capsys, metric):
        panel = tmp_path / "p.csv"
        panel.write_text("object,1,2,3,4\naa,1,3,2,4\n")
        out = tmp_path / "o"
        assert _run("dissim", "--input", panel, "--format", "wide_csv", "--metric", metric,
                    "--window", "3", "--out", out) == 4
        assert capsys.readouterr().err == "error: need at least 2 objects, got 1\n"
        assert not (out / "tensor.csv").exists()


class TestCmds:
    def test_single_slice_artifacts(self, tmp_path):
        tsv = tmp_path / "one.csv"
        tsv.write_text("t,i,j,d\n0,1,2,1\n0,1,3,1\n0,2,3,1\n")
        out = tmp_path / "c"
        assert _run("cmds", "--input", tsv, "--dim", "2", "--out", out) == 0
        assert (out / "coordinates_001.csv").exists()
        assert (out / "scatter_001.svg").exists()
        assert not (out / "coordinates_002.csv").exists()

    def test_summary_reports_negative_mass(self, rotation_tensor, tmp_path):
        out = tmp_path / "c"
        assert _run("cmds", "--input", rotation_tensor, "--dim", "2", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["slices"]) == 20
        for entry in summary["slices"]:
            assert "negative_mass" in entry and "eigenvalues" in entry

    @staticmethod
    def _markers(svg_path):
        circles = ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}circle")
        return [(float(c.get("cx")), float(c.get("cy"))) for c in circles]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_scatter_of_one_and_three_dimensions(self, rotation_tensor, tmp_path, dim):
        out = tmp_path / "c"
        assert _run("cmds", "--input", rotation_tensor, "--dim", dim, "--out", out) == 0
        for k in (1, 20):
            markers = self._markers(out / f"scatter_{k:03d}.svg")
            assert len(markers) == 4 and np.isfinite(markers).all()
            if dim == 1:
                # drawn along one horizontal line
                assert len({y for _, y in markers}) == 1

    def test_scatter_of_coincident_objects(self, tmp_path):
        tsv = tmp_path / "zero.csv"
        tsv.write_text("t,i,j,d\n0,1,2,0\n0,1,3,0\n0,2,3,0\n")
        out = tmp_path / "c"
        assert _run("cmds", "--input", tsv, "--dim", "2", "--out", out) == 0
        markers = self._markers(out / "scatter_001.svg")
        # every object at one point, padded into a finite plot range
        assert len(markers) == 3 and np.isfinite(markers).all()
        assert len(set(markers)) == 1

    def test_dim_too_large_exit(self, rotation_tensor, tmp_path):
        assert _run("cmds", "--input", rotation_tensor, "--dim", "4",
                    "--out", tmp_path / "c") == 4

    def test_rerun_deterministic(self, rotation_tensor, tmp_path):
        out = tmp_path / "c"
        args = ("cmds", "--input", rotation_tensor, "--dim", "2", "--out", out,
                "--deterministic")
        assert _run(*args) == 0
        first = _digest_dir(out)
        assert _run(*args) == 0
        assert _digest_dir(out) == first


class TestFmdsCommand:
    def test_fixture_run_converges(self, rotation_tensor, tmp_path):
        out = tmp_path / "f"
        assert _run("fmds", "--input", rotation_tensor, "--dim", "2", "--knots", "2",
                    "--max-epochs", "1000", "--seed", "42", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final_stress"] < summary["initial_stress"] * 10
        for name in ("coefficients.json", "trajectories.csv", "stress.csv",
                     "manifest.json", "trajectories_dim1.svg",
                     "trajectories_dim2.svg", "paths_2d.svg"):
            assert (out / name).exists()

    def test_huge_eps_converges_first_epoch(self, rotation_tensor, tmp_path):
        out = tmp_path / "f"
        assert _run("fmds", "--input", rotation_tensor, "--knots", "2",
                    "--eps", "1e30", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True and summary["epochs_run"] == 1

    def test_unit_grid_tensor_not_checked_again(self, rotation_tensor, tmp_path, monkeypatch):
        checked = []
        all_finite = dissimilarity._all_finite
        monkeypatch.setattr(dissimilarity, "_all_finite",
                            lambda values: checked.append(values.shape) or all_finite(values))
        assert _run("fmds", "--input", rotation_tensor, "--knots", "2", "--max-epochs", "1",
                    "--out", tmp_path / "f") == 0
        # the ingest checks the tensor's condensed pairs once; the unit-grid
        # tensor keeps them
        assert checked == [(6, 20)]

    def test_summary_reports_best_iterate(self, tmp_path):
        # the benchmark's fit_adam input: 50 epochs end far above the warm start
        src = tmp_path / "s"
        assert _run("synth", "--scenario", "smooth_rotation", "--n", "40", "--m", "40",
                    "--seed", "1", "--out", src) == 0
        out = tmp_path / "f"
        assert _run("fmds", "--input", src / "tensor.csv", "--dim", "2", "--knots", "4",
                    "--max-epochs", "50", "--eps", "1e-300", "--seed", "1", "--out", out,
                    "--deterministic") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs_run"] == 50
        assert summary["best_epoch"] == 0
        assert summary["best_stress"] == summary["initial_stress"]
        assert summary["initial_stress"] == pytest.approx(1.784e-6, rel=1e-3)
        assert summary["final_stress"] == pytest.approx(3.357, rel=1e-3)

    def test_stress_log_numbers_epochs_as_the_summary_does(self, tmp_path):
        src = tmp_path / "s"
        assert _run("synth", "--scenario", "smooth_rotation", "--n", "5", "--m", "40",
                    "--seed", "42", "--out", src) == 0
        out = tmp_path / "f"
        assert _run("fmds", "--input", src / "tensor.csv", "--knots", "4", "--max-epochs", "30",
                    "--init", "random", "--seed", "42", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        # the header follows the manifest line
        rows = [line.split(",") for line in (out / "stress.csv").read_text().splitlines()[2:]]
        stress = {int(epoch): float(value) for epoch, value, _ in rows}
        assert summary["best_epoch"] > 0
        assert stress[summary["best_epoch"]] == summary["best_stress"]
        assert int(rows[-1][0]) == summary["epochs_run"] == len(rows)

    def test_one_time_point_exit(self, tmp_path, capsys):
        tsv = tmp_path / "one.csv"
        tsv.write_text("t,i,j,d\n0,1,2,1\n0,1,3,1\n0,2,3,1\n")
        assert _run("fmds", "--input", tsv, "--out", tmp_path / "f") == 2
        assert "fitting needs at least two distinct time points" in capsys.readouterr().err

    @pytest.fixture
    def panel_30(self, tmp_path):
        out = tmp_path / "panel"
        assert _run("synth", "--scenario", "random_walk_smoothed", "--n", "4", "--dim", "1",
                    "--m", "30", "--seed", "3", "--out", out) == 0
        return out / "panel.csv"

    def test_default_window_gives_one_slice(self, panel_30, tmp_path, capsys):
        # the default window is the whole series: one stop, one slice
        assert _run("fmds", "--input", panel_30, "--format", "wide_csv",
                    "--out", tmp_path / "f") == 2
        assert capsys.readouterr().err.rstrip().endswith(
            "fitting needs at least two distinct time points; each window stop gives one "
            "slice, so --window must be shorter than the series")

    @pytest.mark.parametrize("knots", [[], ["--knots", "0"]])
    def test_fewer_than_four_time_points_exit(self, panel_30, tmp_path, capsys, knots):
        # a window of 29 on 30 columns gives two slices; no knot count helps
        assert _run("fmds", "--input", panel_30, "--format", "wide_csv", "--window", "29",
                    *knots, "--out", tmp_path / "f") == 4
        q = 5 if not knots else 4
        assert capsys.readouterr().err.rstrip().endswith(
            f"2 time points cannot determine {q} coefficients; "
            "a cubic fit needs at least 4 time points")

    def test_too_many_knots_named(self, panel_30, tmp_path, capsys):
        # with 4 or more time points a smaller knot count does help
        assert _run("fmds", "--input", panel_30, "--format", "wide_csv", "--window", "25",
                    "--knots", "3", "--out", tmp_path / "f") == 4
        assert ("6 time points cannot determine 7 coefficients; reduce the interior knot count"
                in capsys.readouterr().err)

    def test_zero_epochs_rejected(self, rotation_tensor, tmp_path):
        assert _run("fmds", "--input", rotation_tensor, "--max-epochs", "0",
                    "--out", tmp_path / "f") == 2

    @pytest.mark.parametrize("args", [
        ("fmds", "--alpha", "nan"),
        ("fmds", "--eps", "nan"),
        ("fmds", "--eps", "inf"),
        ("synth", "--noise", "nan"),
        ("synth", "--noise", "inf"),
    ])
    def test_non_finite_setting_exit(self, rotation_tensor, tmp_path, capsys, args):
        inputs = ("--input", rotation_tensor) if args[0] == "fmds" else ()
        capsys.readouterr()
        assert _run(*args, *inputs, "--out", tmp_path / "o") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.endswith(f"finite, got {args[-1]}")

    @pytest.mark.parametrize("command", ["fmds", "synth"])
    def test_negative_seed_exit(self, rotation_tensor, tmp_path, capsys, command):
        inputs = ("--input", rotation_tensor) if command == "fmds" else ()
        capsys.readouterr()
        assert _run(command, "--seed", "-1", *inputs, "--out", tmp_path / "o") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: random seed must be nonnegative, got -1"

    def test_missing_input_exit(self, tmp_path):
        assert _run("fmds", "--input", tmp_path / "absent.csv",
                    "--out", tmp_path / "f") == 3

    def test_non_finite_input_exit(self, tmp_path):
        tensor = tmp_path / "t.csv"
        tensor.write_text("t,i,j,d\n1,1,2,nan\n")
        assert _run("cmds", "--input", tensor, "--out", tmp_path / "c") == 3
        panel = tmp_path / "p.csv"
        panel.write_text("object,1,2,3\naa,1,inf,1\nbb,1,2,3\n")
        assert _run("dissim", "--input", panel, "--format", "wide_csv",
                    "--out", tmp_path / "d") == 3

    def test_not_utf8_input_exit(self, tmp_path, capsys):
        tensor = tmp_path / "t.csv"
        tensor.write_bytes(b"t,i,j,d\n0,1,2,0.5\xff\n")
        assert _run("cmds", "--input", tensor, "--out", tmp_path / "c") == 3
        panel = tmp_path / "p.csv"
        panel.write_bytes(b"object,1,2,3\naa,1,2,1\nbb,1,2,3\xff\n")
        assert _run("dissim", "--input", panel, "--format", "wide_csv",
                    "--out", tmp_path / "d") == 3
        err = capsys.readouterr().err
        assert f"{tensor}:2: not UTF-8 text" in err and f"{panel}:3: not UTF-8 text" in err

    def test_divergence_exit(self, rotation_tensor, tmp_path, capsys):
        assert _run("fmds", "--input", rotation_tensor, "--knots", "2",
                    "--alpha", "10.0", "--baseline", "gd", "--init", "random",
                    "--max-epochs", "50", "--out", tmp_path / "f") == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: diverged at epoch ")
        assert line.count("epoch") == 1

    @pytest.mark.parametrize("fit_args", [
        (),
        # the full-batch step is absolute; this alpha descends on this input
        ("--baseline", "gd", "--init", "random", "--alpha", "1e-3"),
    ], ids=["adam", "gd"])
    def test_rerun_byte_identical(self, rotation_tensor, tmp_path, fit_args):
        out = tmp_path / "f"
        args = ("fmds", "--input", rotation_tensor, "--dim", "2", "--knots", "2",
                "--max-epochs", "30", "--out", out, "--deterministic", *fit_args)
        assert _run(*args) == 0
        first = _digest_dir(out)
        assert _run(*args) == 0
        assert _digest_dir(out) == first

    def test_wide_csv_input(self, tmp_path):
        src = tmp_path / "panel"
        _run("synth", "--scenario", "random_walk_smoothed", "--n", "4", "--dim", "1",
             "--m", "24", "--seed", "3", "--out", src)
        out = tmp_path / "f"
        assert _run("fmds", "--input", src / "panel.csv", "--format", "wide_csv",
                    "--metric", "euclidean", "--window", "1", "--dim", "1",
                    "--knots", "2", "--max-epochs", "50", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs_run"] >= 1


    def test_panel_fit_peak_memory_is_two_condensed_arrays(self, tmp_path, capsys):
        import tracemalloc

        from fmds import SyntheticScenario, generate
        from fmds.io import write_panel

        panel, _, _ = generate(SyntheticScenario("random_walk_smoothed", n=40, p_true=1, m=400,
                                                 noise_sd=0.05, seed=1))
        write_panel(panel, tmp_path / "panel.csv")
        tracemalloc.start()
        try:
            assert _run("fmds", "--input", tmp_path / "panel.csv", "--format", "wide_csv",
                        "--metric", "correlation", "--window", "10", "--max-epochs", "2",
                        "--out", tmp_path / "f") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        condensed = 40 * 39 // 2 * 391 * 8
        # the (m, n, n) tensor, the squared targets and the stress's residual
        # array peaked at 4.5x the condensed d; d, its squares and one leaf
        # of residuals at 3.0x; with d squared as it is read, 2.1x
        assert peak <= 2.4 * condensed


class TestNoFullTensor:
    """No command builds a tensor's (m, n, n) ``values``: each works on the
    condensed pairs."""

    @pytest.fixture(autouse=True)
    def values_raise(self, monkeypatch):
        def values(tensor):
            raise AssertionError("the (m, n, n) array was built")

        monkeypatch.setattr(dissimilarity.DissimilarityTensor, "values", property(values))

    @pytest.fixture
    def panel(self, tmp_path):
        out = tmp_path / "panel"
        assert _run("synth", "--scenario", "random_walk_smoothed", "--n", "4", "--dim", "1",
                    "--m", "16", "--seed", "3", "--out", out) == 0
        return out / "panel.csv"

    def test_fmds_on_a_tensor(self, rotation_tensor, tmp_path):
        assert _run("fmds", "--input", rotation_tensor, "--knots", "2", "--max-epochs", "2",
                    "--out", tmp_path / "f") == 0

    def test_fmds_on_a_correlation_panel(self, panel, tmp_path):
        assert _run("fmds", "--input", panel, "--format", "wide_csv", "--metric", "correlation",
                    "--window", "4", "--dim", "1", "--knots", "1", "--max-epochs", "2",
                    "--out", tmp_path / "f") == 0

    def test_cmds(self, rotation_tensor, tmp_path):
        assert _run("cmds", "--input", rotation_tensor, "--dim", "2", "--out", tmp_path / "c") == 0

    @pytest.mark.parametrize("metric", ["euclidean", "correlation"])
    def test_dissim(self, panel, tmp_path, metric):
        assert _run("dissim", "--input", panel, "--format", "wide_csv", "--metric", metric,
                    "--window", "4", "--out", tmp_path / "d") == 0

    def test_verify(self, capsys):
        assert _run("verify") == 0


class TestNoDistanceStack:
    """``fmds fmds`` writes positions only: it never reads the trajectory's
    (points, n, n) fitted dissimilarities."""

    @pytest.fixture(autouse=True)
    def distances_raise(self, monkeypatch):
        def fitted_dissimilarities(trajectory):
            raise AssertionError("the (points, n, n) distance stack was built")

        monkeypatch.setattr(fitting.EmbeddingTrajectory, "fitted_dissimilarities",
                            property(fitted_dissimilarities))

    def test_fmds_on_a_tensor(self, rotation_tensor, tmp_path):
        assert _run("fmds", "--input", rotation_tensor, "--knots", "2", "--max-epochs", "2",
                    "--out", tmp_path / "f") == 0

    def test_fmds_on_a_correlation_panel(self, tmp_path):
        assert _run("synth", "--scenario", "random_walk_smoothed", "--n", "4", "--dim", "1",
                    "--m", "16", "--seed", "3", "--out", tmp_path / "s") == 0
        assert _run("fmds", "--input", tmp_path / "s" / "panel.csv", "--format", "wide_csv",
                    "--metric", "correlation", "--window", "4", "--knots", "1",
                    "--max-epochs", "2", "--out", tmp_path / "f") == 0


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert _run("verify") == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") == 4

    def test_report_lists_tolerance_and_deviation(self):
        report = verify_command()
        assert report.passed
        for check in report.checks:
            assert check.tolerance > 0
            assert check.max_deviation >= 0

    def test_fault_injection_fails_gradient_check(self, capsys, monkeypatch):
        def flipped(*args):
            g_h, g_j = pair_gradients(*args)
            return -g_h, -g_j

        monkeypatch.setattr(cli, "pair_gradients", flipped)
        assert _run("verify") == 4
        out = capsys.readouterr().out
        assert "FAIL" in out
        report = verify_command()
        names = [c.name for c in report.checks if not c.passed]
        assert names == ["pair gradients vs central differences"]
