"""Tests for file formats: panel/tensor ingestion, writers, SVG plots, manifests."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

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
import fmds
import fmds.cli
from fmds import SyntheticScenario, generate, svgplot
from fmds import io as fmds_io
from fmds.io import (
    _FLOAT,
    _records,
    ingest_panel,
    ingest_tensor,
    write_coordinates,
    write_json,
    write_panel,
    write_tensor,
    write_trajectories,
)
from fmds.manifest import RunManifest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the differential ingest test needs hypothesis
    st = None


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
        # a duplicate on the last of a few thousand rows, named at its line
        rows = "".join(f"o{k},1,2\n" for k in range(5000))
        path = _write(tmp_path, "many.csv", "object,1,2\n" + rows + "o1234,3,4\n")
        with pytest.raises(IngestError, match=r"many\.csv:5002: duplicate object label 'o1234'"):
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

    def test_not_utf8_cited(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"object,1,2\r\naa,1,2\r\n\xe9b,3,4\r\n")
        with pytest.raises(IngestError) as info:
            ingest_panel(path)
        assert str(info.value) == f"{path}:3: not UTF-8 text (byte 0xe9)"

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
        labels = ("a\nb", "#x", 'q"uote', "c,d", "r\rs", "e\r\n\n#f", "plain",
                  " #y", "c ", "\td",
                  # line breaks that only str.splitlines knows
                  "a\vb", "a\fb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b")
        panel = ObjectPanel(labels, np.arange(2.0 * len(labels)).reshape(-1, 2),
                            np.array([0.5, 1.5]))
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

    def test_only_unquoted_cells_are_stripped(self, tmp_path):
        path = _write(tmp_path, "p.csv", 'object,1\n  aa , 1 \n" bb ",2\n"c"c ,3\n')
        assert ingest_panel(path).labels == ("aa", " bb ", "cc ")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_cited(self, tmp_path, cell):
        path = _write(tmp_path, "p.csv", f"object,1,2\naa,1,2\n\nbb,3,{cell}\n")
        message = f"p.csv:4: non-finite value '{cell}' at row 3, column 3"
        with pytest.raises(IngestError, match=message):
            ingest_panel(path)
        path = _write(tmp_path, "q.csv", f"# c\nobject,1,{cell}\naa,1,2\n")
        with pytest.raises(IngestError, match="q.csv:2: non-finite time label"):
            ingest_panel(path)

    def test_peak_memory(self, tmp_path):
        # the panel_corr benchmark's 40 x 800 panel
        panel, _, _ = generate(SyntheticScenario("random_walk_smoothed", n=40, p_true=1, m=800,
                                                 noise_sd=0.05, seed=1))
        path = tmp_path / "p.csv"
        write_panel(panel, path, manifest_hash="abc")
        tracemalloc.start()
        try:
            back = ingest_panel(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # every cell of the file as a Python string before any was converted
        # peaked at 5.8x the file's size (3.7 MiB); converting one record at
        # a time, at 2.8x: the file's text, its lines and the values
        assert peak <= 3.25 * path.stat().st_size
        assert back.values.tobytes() == panel.values.tobytes()

    def test_peak_memory_below_the_file_size(self, tmp_path):
        rng = np.random.default_rng(3)
        panel = ObjectPanel(tuple(f"o{k}" for k in range(100)), rng.normal(size=(100, 2000)),
                            np.arange(2000.0))
        path = tmp_path / "p.csv"
        write_panel(panel, path)
        tracemalloc.start()
        try:
            back = ingest_panel(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rows and their array, read a few whole lines at a time; the
        # file's whole text next to them peaked at about twice the file's size
        assert peak < path.stat().st_size
        # the values are held once, in one growing array (1.56x the values
        # with a few lines); one array per row, copied into the panel at the
        # end, peaked at 2.32x
        assert peak <= 1.8 * back.values.nbytes
        assert back.values.tobytes() == panel.values.tobytes()
        assert back.values.flags.c_contiguous and back.values.flags.writeable

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_first_fault_in_file_order_named(self, tmp_path, end):
        # a '\r'-only file is one raw line: its lines before the bad byte
        # are still read first
        path = tmp_path / "p.csv"
        lines = ["object,1,2", "aa,1,x", "bb,1,2\xff", "cc,1,2"]
        path.write_bytes(end.join(lines).encode("latin-1"))
        with pytest.raises(IngestError) as info:
            ingest_panel(path)
        assert str(info.value) == f"{path}:2: non-numeric value 'x' at row 2, column 3"


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


@pytest.mark.parametrize("p", [1, 2, 3])
def test_writers_format_rows_as_numpy_scalars(tmp_path, p):
    # the per-value loop over numpy scalars the row templates replaced
    rng = np.random.default_rng(p)
    positions = rng.normal(size=(3, 4, p)) * 10.0 ** rng.integers(-300, 300, (3, 4, p))
    positions.flat[:4] = [-0.0, 5e-324, -1.2345678901234567e-5, 1e300]
    grid, labels = np.array([-0.0, 0.1, 1e17]), ("a", "b,c", "d", "e")
    write_trajectories(grid, positions, labels, tmp_path / "t.csv", manifest_hash="h")
    write_coordinates(positions[1], labels, tmp_path / "c.csv")
    head = ",".join(f"x{k + 1}" for k in range(p))
    trajectories = ["# manifest=h", "t,object," + head] + [
        "{:.17g},{},".format(t, cell) + ",".join("{:.17g}".format(v) for v in positions[k, i])
        for k, t in enumerate(grid) for i, cell in enumerate(("a", '"b,c"', "d", "e"))]
    coordinates = ["object," + head] + [
        cell + "," + ",".join("{:.17g}".format(v) for v in positions[1, i])
        for i, cell in enumerate(("a", '"b,c"', "d", "e"))]
    assert (tmp_path / "t.csv").read_text() == "\n".join(trajectories) + "\n"
    assert (tmp_path / "c.csv").read_text() == "\n".join(coordinates) + "\n"


# Run in a child whose locale encodes only ASCII; the source itself is ASCII.
_ASCII_LOCALE_SCRIPT = r"""
import json
import locale
import sys

import numpy as np

from fmds import ObjectPanel
from fmds.cli import main
from fmds.io import ingest_panel, write_coordinates, write_json, write_panel

assert locale.getpreferredencoding(False).lower() in ("ascii", "ansi_x3.4-1968")
out = sys.argv[1]
labels = ("\u00e9", "b\u00fc", "\u2028c")
panel = ObjectPanel(labels, np.random.default_rng(0).normal(size=(3, 8)), np.arange(8.0))
write_panel(panel, out + "/panel.csv")
assert ingest_panel(out + "/panel.csv").labels == labels
write_coordinates(panel.values[:, :2], labels, out + "/coordinates.csv")
write_json({"labels": labels}, out + "/labels.json")
with open(out + "/labels.json", encoding="utf-8") as handle:
    assert tuple(json.loads(handle.read())["labels"]) == labels
sys.exit(main(["fmds", "--input", out + "/panel.csv", "--format", "wide_csv",
               "--metric", "euclidean", "--window", "3", "--knots", "0",
               "--max-epochs", "2", "--out", out + "/fit", "--deterministic"]))
"""


def test_writers_encode_utf8_under_an_ascii_locale(tmp_path):
    env = {"PATH": os.environ.get("PATH", os.defpath), "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": str(Path(fmds.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", _ASCII_LOCALE_SCRIPT, str(tmp_path)],
                           env=env, capture_output=True, text=True, encoding="utf-8")
    assert child.returncode == 0, child.stderr
    for name in ("panel.csv", "coordinates.csv", "fit/trajectories.csv",
                 "fit/trajectories_dim1.svg", "fit/paths_2d.svg"):
        assert "\u00e9" in (tmp_path / name).read_text(encoding="utf-8"), name


def test_svg_pixels_of_arrays_match_scalars():
    rng = np.random.default_rng(5)
    values = rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, 50)
    frame = svgplot._Frame(values, values[::-1])
    for px, x in zip(frame.px(values).tolist(), values):
        assert f"{px:.6g}" == svgplot._fmt(frame.px(x))
    for py, y in zip(frame.py(values).tolist(), values):
        assert svgplot._POINT.format(py, py - 6) == f"{frame.py(y):.6g},{frame.py(y) - 6:.6g}"


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
        assert tensor.values[1, 0, 2] == 0.2
        assert np.array_equal(tensor.values[0], tensor.values[0].T)

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

    def test_sorted_duplicate_in_place_of_a_missing_pair(self, tmp_path):
        # as many pair rows as pairs, in order, but not strictly increasing
        path = _write(tmp_path, "t.csv", "t,i,j,d\n1,1,2,0.5\n1,2,1,0.5\n1,2,3,0.7\n")
        with pytest.raises(IngestError, match=r"missing pair \(1, 3\) at t=1"):
            ingest_tensor(path)

    def test_mirrored_duplicate_accepted(self, tmp_path):
        path = _write(tmp_path, "t.csv",
                      "t,i,j,d\n1,1,2,0.5\n1,2,1,0.5\n")
        tensor = ingest_tensor(path)
        assert tensor.values[0, 0, 1] == 0.5

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
        assert tensor.values[0, 0, 2] == 2.0

    @pytest.mark.parametrize("row, message", [
        ("2,1,2,nan", "4: non-finite value in row ['2', '1', '2', 'nan']"),
        ("2,1,2,inf", "4: non-finite value in row ['2', '1', '2', 'inf']"),
        ("nan,1,2,0.5", "4: non-finite value in row ['nan', '1', '2', '0.5']"),
        ("2,1,9223372036854775808,0.5", "4: object id outside the int64 range in "
         "row ['2', '1', '9223372036854775808', '0.5']"),
        ("2,-9223372036854775809,1,0.5", "4: object id outside the int64 range in "
         "row ['2', '-9223372036854775809', '1', '0.5']"),
    ])
    def test_non_finite_and_out_of_range_rows_cited(self, tmp_path, row, message):
        path = _write(tmp_path, "t.csv", f"# c\nt,i,j,d\n1,1,2,0.5\n{row}\n")
        with pytest.raises(IngestError) as info:
            ingest_tensor(path)
        assert str(info.value) == f"{path}:{message}"

    def test_extreme_int64_ids_accepted(self, tmp_path):
        low, high = -(2**63), 2**63 - 1
        path = _write(tmp_path, "t.csv", f"t,i,j,d\n0,{high},{low},1.5\n")
        tensor = ingest_tensor(path)
        assert tensor.values[0, 0, 1] == 1.5

    def test_first_spelling_of_a_signed_zero_time_names_it(self, tmp_path):
        path = _write(tmp_path, "t.csv", "t,i,j,d\n-0,1,1,0\n0,1,2,0.5\n")
        assert np.signbit(ingest_tensor(path).time_grid[0])

    def test_quoted_and_crlf_files_read_like_plain_ones(self, tmp_path):
        plain = ingest_tensor(_write(tmp_path, "a.csv", "t,i,j,d\n1,1,2,0.5\n1,2,3,1\n1,1,3,2\n"))
        awkward = tmp_path / "b.csv"
        awkward.write_bytes(b'"t", i ,j,"d"\r\n1,"1",2,0.5\r\n\r\n1,2,3,1\r\n1,1_0,3,2\r\n'
                            b"1,1,3,2\r\n1,10,1,2\r\n1,10,2,2\r\n")
        assert ingest_tensor(awkward).n == 4
        awkward.write_bytes(b'"t", i ,j,"d"\r\n1,"1",2,0.5\r\n\r\n1,2,3,1\r\n1,1,3,2\r\n')
        assert ingest_tensor(awkward).stacked().tobytes() == plain.stacked().tobytes()

    def test_peak_memory(self, tmp_path):
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=100, m=60, seed=5))
        write_tensor(tensor, tmp_path / "t.csv", manifest_hash="abc")
        tracemalloc.start()
        try:
            back = ingest_tensor(tmp_path / "t.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the line scan's per-row dict and tuples peaked at 161.5 MiB; the
        # file's text and its list of lines next to loadtxt at 11.9x the
        # tensor; one whole-file loadtxt table and the sort at 3.8x
        assert peak < 120 * 2**20
        assert peak <= 1.5 * tensor.values.nbytes
        assert back.stacked().tobytes() == tensor.stacked().tobytes()

    def test_line_scan_peak_memory(self, tmp_path):
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=50, m=30, seed=5))
        path = tmp_path / "t.csv"
        write_tensor(tensor, path, manifest_hash="abc")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1000] + ["# note\n"] + lines[1000:]))
        tracemalloc.start()
        try:
            back = ingest_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a list of every row's tuple and its structured array next to the
        # dict of first values peaked at 8.6x the file; the dict, the file's
        # text and its whole line list were 6.7x; the dict and the text,
        # split into lines one piece at a time, are 4.5x
        assert peak <= 5.0 * path.stat().st_size
        assert back.stacked().tobytes() == tensor.stacked().tobytes()

    # small byte chunks split '\r\n' line ends between two reads of the count
    @pytest.mark.parametrize("stream_rows, scan_bytes", [
        (fmds_io._STREAM_ROWS, fmds_io._LINE_BYTES), (3, 7), (1, 2)])
    @pytest.mark.parametrize("n, m, end, variant", [
        (6, 4, "\n", None),
        (6, 4, "\r\n", None),
        (6, 4, "\r", None),
        (6, 4, "\n", "no_final_line_end"),
        (6, 4, "\n", "minus_zero_time"),
        (6, 4, "\r\n", "mirrored"),
        (6, 1, "\n", None),
        (2, 4, "\n", None),
        (2, 1, "\r", "no_final_line_end"),
        (6, 4, "\n", "blank_lines"),
        (6, 4, "\r\n", "blank_lines"),
        (6, 4, "\r", "blank_lines"),
    ], ids=["lf", "crlf", "cr", "no_final_line_end", "minus_zero_time", "mirrored", "m1", "n2",
            "one_row", "blank_lines_lf", "blank_lines_crlf", "blank_lines_cr"])
    def test_plain_files_are_read_straight_from_the_file(self, tmp_path, monkeypatch,
                                                         stream_rows, scan_bytes, n, m, end,
                                                         variant):
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=n, m=max(m, 2), seed=5))
        tensor = DissimilarityTensor(tensor.time_grid[:m], tensor.values[:m])
        path = tmp_path / "t.csv"
        write_tensor(tensor, path, manifest_hash="abc")
        lines = path.read_text().splitlines()
        if variant == "minus_zero_time":
            assert lines[2].startswith("0,")
            lines[2] = "-" + lines[2]
        elif variant == "mirrored":
            lines[2::2] = [f"{t},{j},{i},{d}" for t, i, j, d in
                           (line.split(",") for line in lines[2::2])]
        elif variant == "blank_lines":
            # before and after the header, in the first time block, runs of
            # blank lines between blocks and at the end
            for at, count in ((len(lines), 2), (18, 3), (15, 1), (5, 1), (2, 1), (1, 1), (0, 2)):
                lines[at:at] = [""] * count
        final = "" if variant == "no_final_line_end" else end
        path.write_bytes((end.join(lines) + final).encode())
        expected = _ingest_outcome(_line_scan_tensor, path)

        def refuse(*args):
            raise AssertionError("not streamed straight from the file")

        # neither the line list nor the csv reader runs, no row is sorted,
        # and loadtxt reads at most stream_rows rows a call
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(k) or loadtxt(*a, **k))
        monkeypatch.setattr(fmds_io, "_STREAM_ROWS", stream_rows)
        monkeypatch.setattr(fmds_io, "_LINE_BYTES", scan_bytes)
        monkeypatch.setattr(fmds_io, "_text_lines", refuse)
        monkeypatch.setattr(fmds_io, "_records", refuse)
        monkeypatch.setattr(np, "argsort", refuse)
        back = ingest_tensor(path)
        assert all(k["max_rows"] <= stream_rows for k in calls)
        assert len(calls) == math.ceil(m * n * (n - 1) // 2 / stream_rows)
        assert (back.time_grid.tobytes(), back.stacked().tobytes()) == expected
        assert back.stacked().tobytes() == tensor.stacked().tobytes()
        assert np.signbit(back.time_grid[0]) == (variant == "minus_zero_time")

    def test_blank_line_in_a_write_order_file_streams(self, tmp_path, monkeypatch):
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=100, m=60, seed=5))
        path = tmp_path / "t.csv"
        write_tensor(tensor, path, manifest_hash="abc")
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1000] + ["\n"] + lines[1000:]))

        def refuse(*args):
            raise AssertionError("read by the line scan")

        monkeypatch.setattr(fmds_io, "_records", refuse)
        tracemalloc.start()
        try:
            back = ingest_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the line scan peaks at about 54 MiB here, 12x the tensor
        assert peak <= 1.5 * tensor.values.nbytes
        assert back.time_grid.tobytes() == tensor.time_grid.tobytes()
        assert back.stacked().tobytes() == tensor.stacked().tobytes()

    @pytest.mark.parametrize("scan_bytes", [fmds_io._LINE_BYTES, 1, 2, 3, 5])
    def test_plain_lines_counts_non_empty_lines(self, tmp_path, monkeypatch, scan_bytes):
        monkeypatch.setattr(fmds_io, "_LINE_BYTES", scan_bytes)
        rng = np.random.default_rng(scan_bytes)
        path = tmp_path / "t.csv"
        for _ in range(40):
            text = "".join(rng.choice(["a", "#", " ", "\n", "\r", "\r\n"], int(rng.integers(0, 30))))
            path.write_bytes(text.encode())
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            assert fmds_io._plain_lines(path) == sum(map(bool, lines))
        path.write_bytes(b"t,i,j,d\n\x85\n")
        assert fmds_io._plain_lines(path) is None

    @pytest.mark.parametrize("stream_rows", [fmds_io._STREAM_ROWS, 3, 1])
    @pytest.mark.parametrize("variant, outcome", [
        (lambda body: body[:7] + [""] + body[7:], "stream"),
        (lambda body: body[:7] + [body[8], body[7]] + body[9:], "line scan"),
        (lambda body: body[:17] + [body[18], body[17]] + body[19:], "line scan"),
        (lambda body: body[15:30] + body[:15] + body[30:], "line scan"),
        (lambda body: body[:7] + ["0,3,3,0"] + body[7:], "line scan"),
        (lambda body: body[:7] + [body[7]] + body[7:], "line scan"),
        (lambda body: _melted(body), "line scan"),
        (lambda body: body[:7] + body[8:], "missing pair (2, 5) at t=0.0"),
        (lambda body: body[:-1], "missing pair (5, 6) at t=1.0"),
        (lambda body: body[:16] + [body[30].split(",")[0] + body[16][body[16].index(","):]]
         + body[17:], "33: conflicting values for pair (1, 3) at t=0.6666666666666666: "
         "1.8090980296387864 vs 1.4149710649153342"),
        (lambda body: body[:7] + ["0,3,3,0.5"] + body[7:],
         "9: nonzero self-dissimilarity for object 3"),
    ], ids=["blank_line", "swapped_rows", "swapped_later_rows", "swapped_blocks", "self_row",
            "duplicate", "melted", "missing_row", "missing_last_row", "row_at_a_later_time",
            "nonzero_self_row"])
    def test_files_out_of_write_order_take_the_line_scan(self, tmp_path, monkeypatch,
                                                         stream_rows, variant, outcome):
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=6, m=4, seed=5))
        path = tmp_path / "t.csv"
        write_tensor(tensor, path)
        lines = path.read_text().splitlines()
        body = variant(lines[1:])
        path.write_text("\n".join(lines[:1] + body) + "\n")
        expected = _ingest_outcome(_line_scan_tensor, path)
        monkeypatch.setattr(fmds_io, "_STREAM_ROWS", stream_rows)
        if outcome in ("stream", "line scan"):
            def refuse(*args, **kwargs):
                raise AssertionError("sorted")

            # a blank line keeps write order; any other valid variant is read
            # by the line scan once the stream, in at most the reads of the
            # whole body, has given up on it
            scans, calls = [], []
            records, loadtxt = fmds_io._records, np.loadtxt
            monkeypatch.setattr(fmds_io, "_records", lambda *a: scans.append(a) or records(*a))
            monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(k) or loadtxt(*a, **k))
            monkeypatch.setattr(np, "argsort", refuse)
            back = ingest_tensor(path)
            assert len(scans) == (outcome == "line scan")
            assert len(calls) <= math.ceil(sum(map(bool, body)) / stream_rows)
            assert back.time_grid.tobytes() == tensor.time_grid.tobytes()
            assert back.stacked().tobytes() == tensor.stacked().tobytes()
        else:
            assert expected.endswith(outcome)
        assert _ingest_outcome(ingest_tensor, path) == expected

    def test_loadtxt_reads_max_rows_and_leaves_the_rest_of_the_handle(self, tmp_path):
        # the stream depends on it: a numpy that read ahead would fail here
        # rather than send every file to the line scan
        path = _write(tmp_path, "t.csv", "t,i,j,d\n" + "".join(f"{k},1,2,{k}\n" for k in range(7)))
        with open(path, encoding="ascii") as handle:
            assert fmds_io._read_header(handle) == 1
            parts = [fmds_io._load_rows(handle, 3) for _ in range(3)]
        assert [part["t"].tolist() for part in parts] == [[0, 1, 2], [3, 4, 5], [6]]

    @pytest.mark.parametrize("warning_call", [0, 1])
    def test_a_loadtxt_warning_takes_the_line_scan(self, tmp_path, monkeypatch, warning_call):
        # one failure route: a warning from any stream chunk, like a refused
        # line, leaves the file to the line scan, and no warning escapes
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=10, m=50, seed=5))
        path = tmp_path / "t.csv"
        write_tensor(tensor, path, manifest_hash="abc")
        calls, scans = [], []
        loadtxt, scan = np.loadtxt, fmds_io._scan_tensor

        def warning_loadtxt(*args, **kwargs):
            calls.append(args)
            if len(calls) - 1 == warning_call:
                warnings.warn("loadtxt warning", UserWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        monkeypatch.setattr(fmds_io, "_scan_tensor", lambda p: scans.append(p) or scan(p))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = ingest_tensor(path)
        assert (len(calls), scans, caught) == (warning_call + 1, [path], [])
        assert back.time_grid.tobytes() == tensor.time_grid.tobytes()
        assert back.stacked().tobytes() == tensor.stacked().tobytes()

    @pytest.mark.parametrize("variant, loadtxt_calls", [
        (lambda lines: lines[:4] + ["# note\n"] + lines[4:], 1),
        (lambda lines: lines[:4] + [" \t\n"] + lines[4:], 1),
        (lambda lines: lines[:4] + ['"' + lines[4].replace(",", '",', 1)] + lines[5:], 1),
        (lambda lines: lines[:4] + ["# na\u00efve\n"] + lines[4:], 0),
        (lambda lines: [line.replace("\n", "\x1c") for line in lines], 0),
    ], ids=["comment_line", "whitespace_line", "quoted_cell", "non_ascii_comment",
            "splitlines_line_ends"])
    def test_files_loadtxt_refuses_take_the_line_scan(self, tmp_path, monkeypatch, variant,
                                                       loadtxt_calls):
        _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=6, m=4, seed=5))
        path = tmp_path / "t.csv"
        write_tensor(tensor, path, manifest_hash="abc")
        lines = path.read_text().splitlines(keepends=True)
        path.write_bytes("".join(variant(lines)).encode("utf-8"))
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        back = ingest_tensor(path)
        assert len(calls) == loadtxt_calls
        assert back.time_grid.tobytes() == tensor.time_grid.tobytes()
        assert back.stacked().tobytes() == tensor.stacked().tobytes()

    def test_quoted_last_cell_before_a_splitlines_line_end(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b't,i,j,d\n-0,0,1,"-0"\x1c')
        plain = ingest_tensor(_write(tmp_path, "plain.csv", "t,i,j,d\n-0,0,1,-0\n"))
        back = ingest_tensor(path)
        assert back.time_grid.tobytes() == plain.time_grid.tobytes()
        assert back.stacked().tobytes() == plain.stacked().tobytes()

    @pytest.mark.parametrize("text", ["t,i,j,d\n", "# manifest=abc\nt,i,j,d", "t,i,j,d\r\n\r\n",
                                      "t,i,j,d\n  \n", "t,i,j,d\n# note\n"])
    def test_header_only_file(self, tmp_path, text):
        path = _write(tmp_path, "t.csv", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IngestError) as info:
                ingest_tensor(path)
        assert str(info.value) == f"{path}: no pair rows found"
        assert caught == []

    def test_not_utf8_cited(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"# c\nt,i,j,d\n0,1,2,0.5\xff\n")
        with pytest.raises(IngestError) as info:
            ingest_tensor(path)
        assert str(info.value) == f"{path}:3: not UTF-8 text (byte 0xff)"

    def test_first_fault_in_file_order_named(self, tmp_path):
        # rows out of write order, so the line scan reads the file
        path = tmp_path / "t.csv"
        path.write_bytes(b"t,i,j,d\n1,1,2,0.5\n0,1,2,abc\n0,1,3,0.5\xff\n")
        with pytest.raises(IngestError) as info:
            ingest_tensor(path)
        assert str(info.value) == f"{path}:3: malformed row ['0', '1', '2', 'abc']"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = np.sort(rng.uniform(0.0, 5.0, 4))
        values = np.stack(
            [euclidean_dissimilarity(rng.normal(size=(5, 3))).values for _ in range(4)]
        )
        tensor = DissimilarityTensor(grid, values)
        write_tensor(tensor, tmp_path / "rt.csv", manifest_hash="abc123")
        back = ingest_tensor(tmp_path / "rt.csv")
        npt.assert_array_equal(back.time_grid, tensor.time_grid)
        for a, b in zip(back.values, tensor.values):
            npt.assert_array_equal(a, b)


def _double_loop_tensor_text(tensor, manifest_hash):
    """The former write_tensor body: one formatted line per (t, i, j)."""
    lines = []
    if manifest_hash:
        lines.append(f"# manifest={manifest_hash}")
    lines.append("t,i,j,d")
    for t, vals in zip(tensor.time_grid, tensor.values):
        for i in range(tensor.n):
            for j in range(i + 1, tensor.n):
                lines.append(f"{_FLOAT.format(t)},{i + 1},{j + 1},{_FLOAT.format(vals[i, j])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [2, 3, 17])
@pytest.mark.parametrize("manifest_hash", [None, "abc123"])
def test_write_tensor_bytes_match_double_loop(tmp_path, n, manifest_hash):
    rng = np.random.default_rng(n)
    grid = np.array([-1.5, 0.0, 1e-300, 0.1, 7.0, 1e17])
    slices = []
    for scale in (0.0, 1e-310, 1e-20, 1.0, 3.3e5, 1e300):
        vals = np.abs(rng.normal(size=(n, n))) * scale
        np.fill_diagonal(vals, 0.0)
        slices.append((vals + vals.T) / 2)
    tensor = DissimilarityTensor(grid, np.stack(slices))
    write_tensor(tensor, tmp_path / "new.csv", manifest_hash=manifest_hash)
    (tmp_path / "old.csv").write_text(_double_loop_tensor_text(tensor, manifest_hash))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_json_bytes_match_dumps(tmp_path):
    payload = {"labels": ["bü", " c", "plain"], "eigenvalues": [[1.5, -0.0, 1e-300],
               [0.1, 1e17, 5e-324]], "epochs_run": 50, "converged": False, "deterministic": True,
               "best_epoch": None, "nested": {"z": [[]], "a": {"k": [1, 2.5]}}}
    write_json(payload, tmp_path / "summary.json")
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "summary.json").read_bytes() == expected.encode("utf-8")


# Run in a fresh interpreter, so that no earlier import has loaded numpy.ma.
_NO_MASKED_ARRAYS_SCRIPT = r"""
import sys

import numpy

before = "numpy.ma" in sys.modules
from fmds.io import ingest_tensor

tensor = ingest_tensor(sys.argv[1])
print(before, "numpy.ma" in sys.modules, tensor.n, tensor.num_times)
"""


def test_write_order_ingest_loads_no_masked_arrays(tmp_path):
    # numpy.ma costs about 1 MiB and 15 ms per process; np.unique imports it
    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=7, m=5, seed=3))
    write_tensor(tensor, tmp_path / "t.csv", manifest_hash="abc")
    env = dict(os.environ, PYTHONPATH=str(Path(fmds.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS_SCRIPT,
                            str(tmp_path / "t.csv")], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    before, after, n, m = child.stdout.split()
    if before == "True":
        pytest.skip("importing numpy alone loads numpy.ma (numpy 1.x)")
    assert (after, n, m) == ("False", "7", "5")


_VERIFY_NO_MASKED_ARRAYS_SCRIPT = r"""
import sys

import numpy

before = "numpy.ma" in sys.modules
from fmds.cli import main

code = main(["verify"])
print(before, "numpy.ma" in sys.modules, code)
"""


def test_verify_loads_no_masked_arrays():
    env = dict(os.environ, PYTHONPATH=str(Path(fmds.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _VERIFY_NO_MASKED_ARRAYS_SCRIPT], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    before, after, code = child.stdout.splitlines()[-1].split()
    if before == "True":
        pytest.skip("importing numpy alone loads numpy.ma (numpy 1.x)")
    assert (after, code) == ("False", "0")


_NO_OPENSSL_SCRIPT = r"""
import sys

import numpy

print("_hashlib" in sys.modules)
from fmds.cli import main

try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print("_hashlib" in sys.modules, code)
"""


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this Python has no built-in SHA-256 module")
@pytest.mark.parametrize("command", ["cmds", "help"])
def test_runs_that_draw_no_random_numbers_load_no_openssl(tmp_path, command):
    # hashlib loads OpenSSL, about 3.7 MiB of peak RSS
    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=7, m=5, seed=3))
    write_tensor(tensor, tmp_path / "t.csv", manifest_hash="abc")
    argv = {"cmds": ["cmds", "--input", str(tmp_path / "t.csv"), "--out", str(tmp_path / "o")],
            "help": ["--help"]}[command]
    env = dict(os.environ, PYTHONPATH=str(Path(fmds.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _NO_OPENSSL_SCRIPT, *argv], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    before, after = child.stdout.splitlines()[0], child.stdout.splitlines()[-1]
    if before == "True":
        pytest.skip("importing numpy alone loads OpenSSL (numpy 1.x)")
    assert after == "False 0"


_ENTRY_NO_OPENSSL_SCRIPT = r"""
import json
import os
import sys

import numpy

print("_hashlib" in sys.modules)
from fmds.cli import entry

codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["fmds", *argv]
    try:
        codes.append(entry())
    except SystemExit as exc:
        codes.append(exc.code)
maps = ""
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as lines:
        maps = lines.read()
print(json.dumps({"codes": codes, "blocked": sys.modules.get("_hashlib", 0) is None,
                  "random": "numpy.random" in sys.modules, "libcrypto": "libcrypto" in maps}))
"""


def _tiny_tensor(tmp_path):
    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=5, m=6, seed=3))
    write_tensor(tensor, tmp_path / "t.csv", manifest_hash="abc")
    return tmp_path / "t.csv"


@pytest.mark.skipif(not all(importlib.util.find_spec(name) for name in fmds.cli._BUILTIN_HASHES),
                    reason="this Python lacks a built-in hash module hashlib falls back to")
def test_the_program_entry_loads_no_openssl_for_runs_that_draw_random_numbers(tmp_path):
    tensor = _tiny_tensor(tmp_path)
    argvs = [["fmds", "--input", str(tensor), "--out", str(tmp_path / "f"), "--max-epochs", "1"],
             ["synth", "--n", "4", "--m", "5", "--out", str(tmp_path / "s")],
             ["verify"]]
    env = dict(os.environ, PYTHONPATH=str(Path(fmds.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _ENTRY_NO_OPENSSL_SCRIPT, json.dumps(argvs)],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    if child.stdout.splitlines()[0] == "True":
        pytest.skip("importing numpy alone loads OpenSSL (numpy 1.x)")
    state = json.loads(child.stdout.splitlines()[-1])
    # numpy.random was loaded, and with it hmac, on the built-in hashes
    assert state == {"codes": [0, 0, 0], "blocked": True, "random": True, "libcrypto": False}
    assert "was not found" not in child.stderr


@pytest.mark.parametrize("missing", [None, *fmds.cli._BUILTIN_HASHES])
def test_the_entry_blocks_openssl_only_when_every_built_in_hash_is_there(monkeypatch, missing):
    found = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == missing else found(name, *args))
    monkeypatch.setattr(fmds.cli, "main", lambda: 7)
    # restored on teardown, module and all
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    assert fmds.cli.entry() == 7
    if missing is None:
        assert "_hashlib" in sys.modules and sys.modules["_hashlib"] is None
    else:
        assert "_hashlib" not in sys.modules


def test_a_run_through_the_entry_writes_the_bytes_of_an_in_process_run(tmp_path):
    tensor = _tiny_tensor(tmp_path)
    out = tmp_path / "out"
    argv = ["fmds", "--input", str(tensor), "--out", str(out), "--max-epochs", "20",
            "--deterministic"]
    env = dict(os.environ, PYTHONPATH=str(Path(fmds.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "fmds.cli", *argv], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    # the manifest names its output directory, so both runs write to one path
    program = out.rename(tmp_path / "program")
    assert fmds.cli.main(argv) == 0
    names = sorted(p.name for p in program.iterdir())
    assert "trajectories.csv" in names and sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (program / name).read_bytes(), name


@pytest.mark.parametrize("command", ["synth", "verify"])
def test_main_sets_no_hash_module_block(tmp_path, monkeypatch, command):
    import numpy.random  # noqa: F401  # so no import during the run adds the key

    argv = {"synth": ["synth", "--n", "4", "--m", "5", "--out", str(tmp_path / "s")],
            "verify": ["verify"]}[command]
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    assert fmds.cli.main(argv) == 0
    assert "_hashlib" not in sys.modules


def test_the_console_script_is_the_function_the_main_clause_calls():
    tomllib = pytest.importorskip("tomllib")
    import ast

    root = Path(fmds.__file__).parents[2]
    if not (root / "pyproject.toml").exists():
        pytest.skip("not run from a source checkout")
    script = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["fmds"]
    clause, = [node for node in ast.parse(Path(fmds.cli.__file__).read_text()).body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = {ast.unparse(node.func) for node in ast.walk(clause) if isinstance(node, ast.Call)}
    assert {f"fmds.cli:{name}" for name in called - {"sys.exit"}} == {script}


if st is not None:
    @given(st.binary(max_size=2000))
    def test_manifest_sha256_is_hashlib_sha256(data):
        assert fmds.manifest._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("reader, text", [
    (ingest_panel, "object,1,2\naa,1,2\nbb,1,x\n" + "cc,1,2\n" * 100),
    (ingest_tensor, "t,i,j,d\n1,1,2,0.5\n0,1,2,abc\n" + "0,1,2,0.5\n" * 100),
], ids=["panel", "tensor_line_scan"])
def test_a_reader_that_raises_mid_file_closes_it(tmp_path, reader, text):
    path = _write(tmp_path, "f.csv", text)
    before = sorted(os.listdir("/proc/self/fd"))
    # the exception info keeps the reader's frame, and so its line source, alive
    with pytest.raises(IngestError) as info:
        reader(path)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert ":3: " in str(info.value)


def _line_scan_tensor(path):
    """The former ingest_tensor: a dict of first values filled row by row,
    each row checked as it is read, then one Python double loop per time
    point (the differential reference)."""
    records = _records(path)
    first = next(records, None)
    if first is None:
        raise IngestError(f"{path}: empty file")
    header_line, header = first
    if [h.strip().lower() for h in header] != ["t", "i", "j", "d"]:
        raise IngestError(f"{path}:{header_line}: header must be t,i,j,d")

    entries = {}
    ids = set()
    times = set()
    for lineno, cells in records:
        if len(cells) != 4:
            raise IngestError(f"{path}:{lineno}: expected 4 cells, found {len(cells)}")
        try:
            t = float(cells[0])
            i = int(cells[1])
            j = int(cells[2])
            d = float(cells[3])
        except ValueError:
            raise IngestError(f"{path}:{lineno}: malformed row {cells!r}") from None
        if d < 0:
            raise IngestError(f"{path}:{lineno}: negative dissimilarity {d}")
        if i == j:
            if d != 0.0:
                raise IngestError(f"{path}:{lineno}: nonzero self-dissimilarity for object {i}")
            ids.add(i)
            times.add(t)
            continue
        key = (t, min(i, j), max(i, j))
        if key in entries and abs(entries[key] - d) > 1e-10:
            raise IngestError(
                f"{path}:{lineno}: conflicting values for pair ({key[1]}, {key[2]}) "
                f"at t={t}: {entries[key]} vs {d}"
            )
        entries.setdefault(key, d)
        ids.update((i, j))
        times.add(t)

    if not entries:
        raise IngestError(f"{path}: no pair rows found")
    id_list = sorted(ids)
    n = len(id_list)
    grid = np.array(sorted(times))

    slices = []
    for t in grid:
        mat = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                key = (t, id_list[a], id_list[b])
                if key not in entries:
                    raise IngestError(
                        f"{path}: missing pair ({id_list[a]}, {id_list[b]}) at t={t}"
                    )
                mat[a, b] = entries[key]
                mat[b, a] = entries[key]
        slices.append(mat)
    return DissimilarityTensor(grid, np.stack(slices))


def _melted(body):
    """Write-order body rows as a full matrix per time point: every (i, j)
    in row-major order, the zero diagonal included."""
    values = {}
    for line in body:
        t, i, j, d = line.split(",")
        values[t, i, j] = values[t, j, i] = d
    times = list(dict.fromkeys(key[0] for key in values))
    ids = sorted({int(key[1]) for key in values})
    return [f"{t},{i},{j},{values.get((t, str(i), str(j)), '0')}"
            for t in times for i in ids for j in ids]


def _ingest_outcome(reader, path):
    try:
        tensor = reader(path)
    except IngestError as exc:
        return str(exc)
    return tensor.time_grid.tobytes(), tensor.stacked().tobytes()


_FAULTS = ("none", "negative", "conflict", "missing", "self", "cells", "float_id",
           "underscore_id", "hash", "quoted", "crlf", "not_utf8")
# the faults that make a file invalid
_INVALID = ("negative", "conflict", "missing", "self", "cells", "float_id", "hash", "not_utf8")
# line ends: the first three split lines for universal newlines too, the
# rest only for str.splitlines
_LINE_ENDS = ("\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x85")
# every line break str.splitlines knows
_BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# text between line breaks, with characters of two, three and four UTF-8 bytes
_TEXT = ("a", "bc", "#", '"', " ", "\u00e9", "\u20ac", "\U0001f600")
# lines that may stand between rows: blank, comments, and non-ASCII text
_FILLER = ("", "  ", "\t", "# note", " #x,y", "# na\u00efve \u00b5")


def _number(rnd, value):
    if value == 0.0 and rnd.random() < 0.5:
        return "-0"
    return rnd.choice([repr, _FLOAT.format])(value)


def _underscored(cell):
    sign = "-" if cell.startswith("-") else ""
    digits = cell.lstrip("-")
    return sign + (digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits)


def _tensor_text(draw):
    """A valid t,i,j,d file, then at most one fault, with the fault's name.
    A file made invalid may also get a byte that is not UTF-8 on the row
    where its fault is found or a later one (any row for a missing pair).

    Its rows are either shuffled, with duplicates and self rows, or in the
    order ``write_tensor`` writes them; its lines end in one of
    ``_LINE_ENDS`` and may have ``_FILLER`` lines between them. A
    ``not_utf8`` file holds a byte that is not UTF-8, as a lone surrogate
    for the ``surrogateescape`` error handler.
    """
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 5), label="n")
    ids = draw(st.lists(st.integers(-60, 10**6), min_size=n, max_size=n, unique=True))
    times = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3, unique=True))
    in_order = draw(st.booleans(), label="in_order")
    if in_order:
        ids.sort()
        times.sort()
    rows = []
    for t in times:
        for a in range(n):
            for b in range(a + 1, n):
                i, j = rnd.sample((ids[a], ids[b]), 2)
                d = rnd.choice([0.0, rnd.uniform(0.0, 10.0), rnd.uniform(0.0, 1e6)])
                rows.append([_number(rnd, t), str(i), str(j), _number(rnd, d)])
                if not in_order and rnd.random() < 0.2:  # a duplicate within 1e-10
                    near = d + rnd.uniform(0.0, 5e-11)
                    rows.append([_number(rnd, t), str(j), str(i), _number(rnd, near)])
        if not in_order:
            for obj in rnd.sample(ids, rnd.randint(0, 2)):
                rows.append([_number(rnd, t), str(obj), str(obj), _number(rnd, 0.0)])
    if not in_order:
        rnd.shuffle(rows)

    fault = draw(st.sampled_from(_FAULTS), label="fault")
    k = rnd.randrange(len(rows))
    row = rows[k]
    found = [row]  # the fault is found on the last of these rows in the file
    quoted = -1
    if fault == "negative":
        row[3] = "-0.5"
    elif fault == "conflict":
        found.append(row[:3] + [repr(float(row[3]) + 1e-3)])
        rows.insert(rnd.randint(0, len(rows)), found[-1])
    elif fault == "missing":
        pair = rnd.choice([r for r in rows if r[1] != r[2]])
        key = (float(pair[0]), {pair[1], pair[2]})
        rows = [r for r in rows if (float(r[0]), {r[1], r[2]}) != key]
        rows.append([pair[0], pair[1], pair[1], "0"])  # keeps the time point and both ids
        rows.append([pair[0], pair[2], pair[2], "0"])
        found = []  # a missing pair is found after the last row
    elif fault == "self":
        found = [[row[0], row[1], row[1], "0.5"]]
        rows.insert(rnd.randint(0, len(rows)), found[0])
    elif fault == "cells":
        row.append("1") if rnd.random() < 0.5 else row.pop()
    elif fault == "float_id":
        row[1] = row[1] + ".0"
    elif fault == "underscore_id":
        row[2] = _underscored(row[2])
    elif fault == "hash":
        row[3] = row[3] + " # note"
    elif fault == "quoted":
        quoted = rnd.randrange(4)
    elif fault == "not_utf8":
        row[rnd.randrange(4)] += "\udcff"
    if fault in _INVALID and draw(st.booleans(), label="then_not_utf8"):
        # a second fault on the row where the first is found or after it:
        # the first in file order is named
        at = max((x for x, r in enumerate(rows) if any(r is f for f in found)), default=0)
        later = rows[rnd.randrange(at, len(rows))]
        later[rnd.randrange(len(later))] += "\udcff"

    def line(r):
        cells = [rnd.choice(["", " ", "\t"]) + c + rnd.choice(["", "  "]) for c in r]
        if r is row and quoted >= 0:
            cells[quoted] = '"' + cells[quoted] + '"'
        return ",".join(cells)

    lead = rnd.sample(["", "# manifest=abc", "  ", "#x,y"], rnd.randint(0, 3))
    body = [line(r) for r in rows]
    for _ in range(draw(st.integers(0, 2), label="filler")):
        body.insert(rnd.randint(0, len(body)), rnd.choice(_FILLER))
    lines = lead + ["t,i,j,d"] + body
    end = "\r\n" if fault == "crlf" else draw(st.sampled_from(_LINE_ENDS), label="end")
    return end.join(lines) + end, fault


if st is not None:
    # 3-row chunks: the first time block spans several, and blocks straddle them
    @pytest.mark.parametrize("stream_rows", [fmds_io._STREAM_ROWS, 3])
    @settings(deadline=None, max_examples=400)
    @given(data=st.data())
    def test_ingest_tensor_matches_line_scan(tmp_path_factory, stream_rows, data):
        text, fault = _tensor_text(data.draw)
        path = tmp_path_factory.mktemp("diff") / "t.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        expected = _ingest_outcome(_line_scan_tensor, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fmds_io, "_STREAM_ROWS", stream_rows)
            assert _ingest_outcome(ingest_tensor, path) == expected
        if fault in ("none", "quoted", "crlf"):
            assert not isinstance(expected, str)
        elif fault in _INVALID:
            assert isinstance(expected, str)

    @settings(max_examples=300)
    @given(data=st.lists(st.one_of(
        st.sampled_from([b"\r", b"\n", b"\r\n", b"\n\n", b"\r\r", b" ", b"  ", b"\t"]),
        st.sampled_from(fmds_io._PLAIN).map(lambda b: bytes([b])))).map(b"".join),
        chunk=st.integers(1, 7))
    def test_plain_lines_match_universal_newlines(tmp_path_factory, data, chunk):
        path = tmp_path_factory.mktemp("lines") / "t.csv"
        path.write_bytes(data)
        lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fmds_io, "_LINE_BYTES", chunk)
            assert fmds_io._plain_lines(path) == sum(map(bool, lines))

    # reads of a few bytes end after one or two raw lines
    @pytest.mark.parametrize("size", [fmds_io._LINE_BYTES, 1, 2, 3, 5])
    @settings(max_examples=200)
    @given(text=st.lists(st.sampled_from(_BREAKS + _TEXT)).map("".join))
    def test_text_lines_match_splitlines(tmp_path_factory, size, text):
        path = tmp_path_factory.mktemp("lines") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fmds_io, "_LINE_BYTES", size)
            assert list(fmds_io._text_lines(path)) == text.splitlines(keepends=True)


@pytest.mark.parametrize("size", [fmds_io._LINE_BYTES, 1, 2, 3, 5])
@pytest.mark.parametrize("text", ["ab\r\ncd\r\n", "a\r\r\n\n\r", "x\u2028y\u2029z\n",
                                  "".join(_BREAKS), "no break", "".join(_TEXT)])
def test_text_lines_name_a_bad_byte_after_the_lines_before_it(tmp_path, monkeypatch, text,
                                                              size):
    monkeypatch.setattr(fmds_io, "_LINE_BYTES", size)
    path = tmp_path / "t.csv"
    for k in range(len(text) + 1):
        path.write_bytes(text[:k].encode("utf-8") + b"\xff" + text[k:].encode("utf-8"))
        # the whole text's lines up to the byte, the last holding it
        *before, _ = (text[:k] + "_").splitlines(keepends=True)
        lines = fmds_io._text_lines(path)
        assert [next(lines) for _ in before] == before
        with pytest.raises(IngestError) as info:
            next(lines)
        assert str(info.value) == f"{path}:{len(before) + 1}: not UTF-8 text (byte 0xff)"


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
            {"command": "fmds", "seed": -1},
            {"command": "synth", "seed": -1},
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
