"""Tests for file formats: panel/tensor ingestion, writers, SVG plots, manifests."""

import csv
import xml.etree.ElementTree as ET

import numpy as np
import numpy.testing as npt
import pytest

from fmds import (
    ConfigError,
    DissimilarityMatrix,
    DissimilarityTensor,
    FitConfig,
    IngestError,
    ObjectPanel,
    euclidean_dissimilarity,
)
from fmds import svgplot
from fmds.io import (
    ingest_panel,
    ingest_tensor,
    write_coordinates,
    write_panel,
    write_tensor,
    write_trajectories,
)
from fmds.manifest import RunManifest


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngestPanel:
    def test_well_formed(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "object,0.5,1.0,1.5,2.0\n"
                      "aa,1,2,3,4\n"
                      "bb,4,3,2,1\n"
                      "cc,0,0,1,1\n")
        panel = ingest_panel(path)
        assert panel.n == 3 and panel.num_times == 4
        assert panel.labels == ("aa", "bb", "cc")
        npt.assert_array_equal(panel.time_grid, [0.5, 1.0, 1.5, 2.0])
        npt.assert_array_equal(panel.values[1], [4, 3, 2, 1])

    def test_missing_cell_cited(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "object,1,2,3\naa,1,2,3\nbb,4,,6\n")
        with pytest.raises(IngestError, match=r"row 3, column 3"):
            ingest_panel(path)

    def test_non_numeric_cell_cited(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "object,1,2\naa,1,x\n")
        with pytest.raises(IngestError, match=r"row 2, column 3"):
            ingest_panel(path)

    def test_duplicate_label(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "object,1,2\naa,1,2\naa,3,4\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_panel(path)

    def test_non_numeric_header_falls_back(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "object,wk1,wk2\naa,1,2\nbb,3,4\n")
        panel = ingest_panel(path)
        npt.assert_array_equal(panel.time_grid, [1.0, 2.0])

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "object,1,2,3\naa,1,2\n")
        with pytest.raises(IngestError, match="expected 4 cells"):
            ingest_panel(path)

    def test_comments_skipped(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      "# manifest=abc\nobject,1,2\naa,1,2\nbb,3,4\n")
        assert ingest_panel(path).n == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_panel(tmp_path / "absent.csv")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        panel = ObjectPanel(("x", "y", "z"), rng.normal(size=(3, 6)),
                            np.linspace(0.0, 2.5, 6))
        write_panel(panel, tmp_path / "rt.csv", manifest_hash="f00")
        back = ingest_panel(tmp_path / "rt.csv")
        assert back.labels == panel.labels
        npt.assert_array_equal(back.values, panel.values)
        npt.assert_array_equal(back.time_grid, panel.time_grid)

    def test_quoted_label_round_trip(self, tmp_path):
        path = _write(tmp_path, "p.csv", 'object,1,2\n"a,b",1,2\n"say ""hi""",3,4\nc,5,6\n')
        panel = ingest_panel(path)
        assert panel.labels == ("a,b", 'say "hi"', "c")
        write_panel(panel, tmp_path / "rt.csv")
        back = ingest_panel(tmp_path / "rt.csv")
        assert back.labels == panel.labels
        npt.assert_array_equal(back.values, panel.values)

    def test_awkward_labels_round_trip_exactly(self, tmp_path):
        labels = ("a\nb", "#x", 'q"uote', "c,d", "r\rs", "e\r\n\n#f", "plain")
        panel = ObjectPanel(labels, np.arange(14.0).reshape(7, 2), np.array([0.5, 1.5]))
        write_panel(panel, tmp_path / "rt.csv", manifest_hash="f00")
        back = ingest_panel(tmp_path / "rt.csv")
        assert back.labels == labels
        npt.assert_array_equal(back.values, panel.values)

    def test_line_numbers_after_multiline_cell(self, tmp_path):
        path = _write(tmp_path, "p.csv",
                      '# manifest=abc\nobject,1,2\n"a\n# not a comment\n\nb",1,2\n'
                      "# comment\n\ncc,3,x\n")
        with pytest.raises(IngestError, match=r"p\.csv:9: non-numeric value 'x' at row 3, column 3"):
            ingest_panel(path)
        path = _write(tmp_path, "q.csv", 'object,1,2\n"a\nb",1,2\ncc,3\n')
        with pytest.raises(IngestError, match=r"q\.csv:4: expected 3 cells, found 2"):
            ingest_panel(path)


def test_writers_quote_labels(tmp_path):
    labels = ("a,b", 'q"uote', "line\nbreak", "plain")
    write_coordinates(np.ones((4, 2)), labels, tmp_path / "c.csv")
    write_trajectories(np.arange(2.0), np.ones((2, 4, 1)), labels, tmp_path / "t.csv")
    with open(tmp_path / "c.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert [row[0] for row in rows[1:]] == list(labels)
    with open(tmp_path / "t.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert [row[1] for row in rows[1:]] == list(labels) * 2
    assert all(len(row) == 3 for row in rows)
    assert "plain,1," in (tmp_path / "c.csv").read_text()


def test_svg_escapes_labels_and_titles():
    labels = ("A&B", "<c>")
    points = np.array([[0.0, 1.0], [1.0, 0.0]])
    documents = (
        svgplot.scatter_svg(points, labels, title="x & y"),
        svgplot.multiline_svg(np.arange(2.0), points, labels, title="a<b", ylabel="p&q"),
        svgplot.paths2d_svg(np.stack((points, points)), labels, title="t&"),
    )
    for document in documents:
        texts = [el.text for el in ET.fromstring(document).iter("{http://www.w3.org/2000/svg}text")]
        assert "A&B" in texts and "<c>" in texts


class TestIngestTensor:
    def test_complete_two_slices(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "t,i,j,d\n"
                      "1,1,2,0.5\n1,1,3,0.6\n1,2,3,0.7\n"
                      "2,1,2,0.1\n2,1,3,0.2\n2,2,3,0.3\n")
        tensor = ingest_tensor(path)
        assert tensor.n == 3 and tensor.num_times == 2
        assert tensor.slices[1].values[0, 2] == 0.2
        assert np.array_equal(tensor.slices[0].values, tensor.slices[0].values.T)

    def test_missing_pair_named(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "t,i,j,d\n"
                      "1,1,2,0.5\n1,1,3,0.6\n1,2,3,0.7\n"
                      "2,1,2,0.1\n2,2,3,0.3\n")
        with pytest.raises(IngestError, match=r"\(1, 3\) at t=2"):
            ingest_tensor(path)

    def test_negative_value(self, tmp_path):
        path = _write(tmp_path, "t.csv", "t,i,j,d\n1,1,2,-0.1\n")
        with pytest.raises(IngestError, match="negative"):
            ingest_tensor(path)

    def test_conflicting_duplicate(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "t,i,j,d\n1,1,2,0.5\n1,2,1,0.7\n")
        with pytest.raises(IngestError, match="conflicting"):
            ingest_tensor(path)

    def test_mirrored_duplicate_accepted(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "t,i,j,d\n1,1,2,0.5\n1,2,1,0.5\n")
        tensor = ingest_tensor(path)
        assert tensor.slices[0].values[0, 1] == 0.5

    def test_nonzero_self_dissimilarity(self, tmp_path):
        path = _write(tmp_path, "t.csv", "t,i,j,d\n1,1,1,0.2\n1,1,2,0.5\n")
        with pytest.raises(IngestError, match="self"):
            ingest_tensor(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "t.csv", "time,a,b,dist\n1,1,2,0.5\n")
        with pytest.raises(IngestError, match="header"):
            ingest_tensor(path)

    def test_arbitrary_integer_ids(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "t,i,j,d\n0,10,30,1\n0,10,77,2\n0,30,77,3\n")
        tensor = ingest_tensor(path)
        assert tensor.n == 3
        assert tensor.slices[0].values[0, 2] == 2.0

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = np.sort(rng.uniform(0.0, 5.0, 4))
        slices = tuple(
            euclidean_dissimilarity(rng.normal(size=(5, 3))) for _ in range(4)
        )
        tensor = DissimilarityTensor(grid, slices)
        write_tensor(tensor, tmp_path / "rt.csv", manifest_hash="abc123")
        back = ingest_tensor(tmp_path / "rt.csv")
        npt.assert_array_equal(back.time_grid, tensor.time_grid)
        for a, b in zip(back.slices, tensor.slices):
            npt.assert_array_equal(a.values, b.values)


class TestRunManifest:
    def test_dict_round_trip(self):
        manifest = RunManifest(command="fmds", input_path="x.csv", dim=3,
                               interior_knots=5, deterministic=True)
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_hash_stable_and_sensitive(self):
        a = RunManifest(command="cmds", input_path="x.csv")
        b = RunManifest(command="cmds", input_path="x.csv")
        c = RunManifest(command="cmds", input_path="y.csv")
        assert a.sha256() == b.sha256()
        assert a.sha256() != c.sha256()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            RunManifest.from_dict({"command": "cmds", "mystery": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"command": "explode"},
            {"command": "fmds", "max_epochs": 0},
            {"command": "fmds", "dim": 0},
            {"command": "fmds", "eps": -1.0},
            {"command": "dissim", "stride": 0},
            {"command": "dissim", "metric": "cosine"},
            {"command": "fmds", "init": "zeros"},
            {"command": "fmds", "alpha": 0.0},
            {"command": "fmds", "gamma1": 1.0},
            {"command": "fmds", "interior_knots": -1},
            {"command": "fmds", "baseline": "sgd"},
            {"command": "dissim", "window_len": 0},
            {"command": "dissim", "input_format": "xml"},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunManifest(**kwargs).validate()

    def test_fit_defaults_are_fit_configs(self):
        assert RunManifest(command="fmds").fit_config() == FitConfig()


def test_matrix_rejects_non_square():
    with pytest.raises(Exception):
        DissimilarityMatrix(np.zeros((2, 3)))
