"""CSV and JSON file formats.

Panels are wide CSV (header row of time labels, one row per object);
dissimilarity tensors are long CSV with columns t,i,j,d over the upper
triangle. Floats are written with 17 significant digits, and labels holding
a comma, quote or line break, or starting with '#', are quoted, so a
write/read round trip is exact. Lines starting with '#' outside a quoted
cell are comments; writers use them to embed the producing manifest's hash.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dissimilarity import DissimilarityMatrix, DissimilarityTensor, ObjectPanel
from .errors import IngestError

_FLOAT = "{:.17g}"


def _records(path) -> list[tuple[int, list[str]]]:
    """CSV records of a text file, each with the 1-based line it starts on.

    Blank lines and lines starting with '#' are skipped between records;
    inside a quoted cell they belong to the cell, so a quoted label may hold
    a line break or start with '#'. Cells are stripped of surrounding
    whitespace.
    """
    try:
        with open(path, newline="") as handle:
            raw = handle.read()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    # line number of the record the reader is inside; empty between records
    start: list[int] = []

    def lines():
        for lineno, line in enumerate(raw.splitlines(keepends=True), start=1):
            if not start:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                start.append(lineno)
            yield line

    # the reader pulls lines only until its current record is complete
    return [(start.pop(), [c.strip() for c in row]) for row in csv.reader(lines())]


def _label_cell(label) -> str:
    """An object label as one CSV cell, quoted only when it must be."""
    text = str(label)
    if any(ch in text for ch in ',"\r\n') or text.lstrip().startswith("#"):
        return '"' + text.replace('"', '""') + '"'
    return text


def ingest_panel(path) -> ObjectPanel:
    """Read a wide-CSV observation panel.

    The header row carries time labels (parsed as numbers when they all
    are; otherwise the grid falls back to 1..m); the first column carries
    object labels; the body must be fully numeric with no missing cells.
    """
    rows = _records(path)
    if len(rows) < 2:
        raise IngestError(f"{path}: need a header row and at least one object row")
    header_line, header = rows[0]
    if len(header) < 2:
        raise IngestError(f"{path}:{header_line}: header must list at least one time label")
    time_labels = header[1:]
    m = len(time_labels)

    try:
        grid = np.array([float(lbl) for lbl in time_labels])
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise IngestError(
                f"{path}:{header_line}: numeric time labels must be strictly increasing"
            )
    except ValueError:
        grid = np.arange(1.0, m + 1.0)

    labels: list[str] = []
    values = np.empty((len(rows) - 1, m))
    for r, (lineno, cells) in enumerate(rows[1:]):
        if len(cells) != m + 1:
            raise IngestError(
                f"{path}:{lineno}: expected {m + 1} cells, found {len(cells)}"
            )
        label = cells[0]
        if not label:
            raise IngestError(f"{path}:{lineno}: empty object label (row {r + 2}, column 1)")
        if label in labels:
            raise IngestError(f"{path}:{lineno}: duplicate object label {label!r}")
        labels.append(label)
        for c, cell in enumerate(cells[1:]):
            if cell == "":
                raise IngestError(
                    f"{path}:{lineno}: missing value at row {r + 2}, column {c + 2}"
                )
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise IngestError(
                    f"{path}:{lineno}: non-numeric value {cell!r} at row {r + 2}, "
                    f"column {c + 2}"
                ) from None
    return ObjectPanel(tuple(labels), values, grid)


def write_panel(panel: ObjectPanel, path, manifest_hash: str | None = None) -> None:
    lines = []
    if manifest_hash:
        lines.append(f"# manifest={manifest_hash}")
    lines.append("object," + ",".join(_FLOAT.format(t) for t in panel.time_grid))
    for label, row in zip(panel.labels, panel.values):
        lines.append(_label_cell(label) + "," + ",".join(_FLOAT.format(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def ingest_tensor(path) -> DissimilarityTensor:
    """Read a long-CSV dissimilarity tensor (columns t,i,j,d).

    Rows may give either triangle; conflicting duplicates beyond 1e-10 are
    rejected, as are negative values and incomplete pair coverage at any
    time point. Object ids are arbitrary integers and are mapped to
    0..n-1 in sorted order.
    """
    rows = _records(path)
    if not rows:
        raise IngestError(f"{path}: empty file")
    header_line, header = rows[0]
    if [h.lower() for h in header] != ["t", "i", "j", "d"]:
        raise IngestError(f"{path}:{header_line}: header must be t,i,j,d")

    entries: dict[tuple[float, int, int], float] = {}
    ids: set[int] = set()
    times: set[float] = set()
    for lineno, cells in rows[1:]:
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
    index = {obj: k for k, obj in enumerate(id_list)}
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
        slices.append(DissimilarityMatrix(mat))
    return DissimilarityTensor(grid, tuple(slices))


def write_tensor(tensor: DissimilarityTensor, path, manifest_hash: str | None = None) -> None:
    """Write the upper triangle of every slice as t,i,j,d rows (ids 1-based)."""
    lines = []
    if manifest_hash:
        lines.append(f"# manifest={manifest_hash}")
    lines.append("t,i,j,d")
    for t, slc in zip(tensor.time_grid, tensor.slices):
        vals = slc.values
        for i in range(tensor.n):
            for j in range(i + 1, tensor.n):
                lines.append(
                    f"{_FLOAT.format(t)},{i + 1},{j + 1},{_FLOAT.format(vals[i, j])}"
                )
    Path(path).write_text("\n".join(lines) + "\n")


def write_coordinates(configuration: np.ndarray, labels, path,
                      manifest_hash: str | None = None) -> None:
    """One row per object: label plus its embedded coordinates."""
    p = configuration.shape[1]
    lines = []
    if manifest_hash:
        lines.append(f"# manifest={manifest_hash}")
    lines.append("object," + ",".join(f"x{k + 1}" for k in range(p)))
    for label, row in zip(labels, configuration):
        lines.append(_label_cell(label) + "," + ",".join(_FLOAT.format(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectories(grid: np.ndarray, positions: np.ndarray, labels, path,
                       manifest_hash: str | None = None) -> None:
    """Long-format trajectory samples: t, object, x1..xp."""
    p = positions.shape[2]
    lines = []
    if manifest_hash:
        lines.append(f"# manifest={manifest_hash}")
    lines.append("t,object," + ",".join(f"x{k + 1}" for k in range(p)))
    for k, t in enumerate(grid):
        for i, label in enumerate(labels):
            coords = ",".join(_FLOAT.format(v) for v in positions[k, i])
            lines.append(f"{_FLOAT.format(t)},{_label_cell(label)},{coords}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_stress_log(stress_values: np.ndarray, displacements: np.ndarray, path,
                     manifest_hash: str | None = None) -> None:
    lines = []
    if manifest_hash:
        lines.append(f"# manifest={manifest_hash}")
    lines.append("epoch,stress,max_displacement")
    for e, (s, d) in enumerate(zip(stress_values, displacements)):
        lines.append(f"{e},{_FLOAT.format(s)},{_FLOAT.format(d)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
