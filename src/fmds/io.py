"""CSV and JSON file formats.

Panels are wide CSV (header row of time labels, one row per object);
dissimilarity tensors are long CSV with columns t,i,j,d over the upper
triangle. Floats are written with 17 significant digits, so every finite
double reads back as the same double. Labels holding a comma, a quote or
any line break ``str.splitlines`` knows, starting with '#' or with
surrounding whitespace are quoted, so every non-empty string label reads
back unchanged. Lines starting with '#' outside a quoted cell are
comments; writers use them to embed the producing manifest's hash.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from contextlib import closing

import numpy as np

from .dissimilarity import DissimilarityTensor, ObjectPanel
from .errors import IngestError

_FLOAT = "{:.17g}"
# one parsed t,i,j,d row, and the ids it may hold
_TENSOR_ROW = np.dtype([("t", "f8"), ("i", "i8"), ("j", "i8"), ("d", "f8")])
_INT64 = range(-(2**63), 2**63)
# The bytes a tensor file may hold for np.loadtxt to read it as it stands:
# printable ASCII, tabs, and only the line breaks that universal newlines
# splits exactly as str.splitlines does. '#' and '"' pass, for the comment
# lines before the header; loadtxt refuses a body line that holds one.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"
_SCAN_CHUNK = 1 << 20
# Rows per np.loadtxt call while a file in write order streams into its
# tensor: 64 KiB of parsed rows, below glibc's default 128 KiB mmap threshold,
# so freeing a chunk does not raise that threshold for the rest of the run.
_STREAM_ROWS = 1 << 11
# bytes of whole lines decoded at a time; one line at a time costs twice as much
_LINE_BYTES = 1 << 16


def _text_lines(path):
    r"""Yield ``text.splitlines(keepends=True)`` of a file's UTF-8 text,
    decoding about ``_LINE_BYTES`` of whole raw lines, each ending in b'\n',
    at a time. No UTF-8 sequence holds byte 0x0a, and a '\n' ends a line
    without splitting a '\r\n', so the lines are the same. A file whose
    lines end in '\r' alone is one raw line, held whole. A byte that is not
    UTF-8 is named once the complete lines before it have been yielded."""
    count = 0
    try:
        with open(path, "rb") as handle:
            while raw := b"".join(handle.readlines(_LINE_BYTES)):
                try:
                    lines = raw.decode("utf-8").splitlines(keepends=True)
                except UnicodeDecodeError as exc:
                    *lines, _ = (raw[:exc.start].decode("utf-8") + "_").splitlines(keepends=True)
                    yield from lines
                    raise IngestError(f"{path}:{count + len(lines) + 1}: not UTF-8 text "
                                      f"(byte {raw[exc.start]:#04x})") from None
                count += len(lines)
                yield from lines
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc


def _records(path):
    """Yield the CSV records of a file one at a time, each with the 1-based
    line it starts on, reading its lines from ``_text_lines``.

    Blank lines and lines starting with '#' are skipped between records;
    inside a quoted cell they belong to the cell, so a quoted label may hold
    a line break or start with '#'. Unquoted cells are stripped of
    surrounding whitespace; quoted cells are kept as written.
    """
    # line number of the record the reader is inside; empty between records
    start: list[int] = []
    # the lines of that record read so far
    consumed: list[str] = []

    def lines():
        for lineno, line in enumerate(_text_lines(path), start=1):
            if not start:
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                start.append(lineno)
            consumed.append(line)
            yield line

    # the reader pulls lines only until its current record is complete
    for row in csv.reader(lines()):
        text = "".join(consumed)
        consumed.clear()
        quoted = _quoted_cells(text) if '"' in text else ()
        cells = [c if k in quoted else c.strip() for k, c in enumerate(row)]
        # the reader ends a record only at '\r' or '\n', and keeps any other
        # line end str.splitlines knows in a quoted last cell
        end = text[-1:]
        if len(cells) - 1 in quoted and end not in "\r\n" and end.splitlines() == [""]:
            cells[-1] = cells[-1].removesuffix(end)
        yield start.pop(), cells


def _quoted_cells(text: str) -> set[int]:
    """Indices of the cells of one CSV record's text that open with a quote.

    This follows the csv module's default dialect: a cell is quoted only if
    a quote is its first character, a doubled quote inside it is literal,
    and text after its closing quote runs on unquoted to the next comma.
    """
    quoted: set[int] = set()
    pos = cell = 0
    while True:
        if text.startswith('"', pos):
            quoted.add(cell)
            close = text.find('"', pos + 1)
            while close != -1 and text.startswith('"', close + 1):
                close = text.find('"', close + 2)
            if close == -1:
                return quoted
            pos = close + 1
        comma = text.find(",", pos)
        if comma == -1:
            return quoted
        pos, cell = comma + 1, cell + 1


def _label_cell(label) -> str:
    """An object label as one CSV cell, quoted only when it must be."""
    text = str(label)
    if (',' in text or '"' in text or "".join(text.splitlines()) != text
            or text.lstrip().startswith("#") or text != text.strip()):
        return '"' + text.replace('"', '""') + '"'
    return text


def ingest_panel(path) -> ObjectPanel:
    """Read a wide-CSV observation panel.

    The header row carries time labels (parsed as numbers when they all
    are; otherwise the grid falls back to 1..m); the first column carries
    object labels; the body must be fully numeric with no missing cells.
    Each record is converted as soon as it is read, a few whole lines at a
    time, so an IngestError names the first fault in file order.
    """
    with closing(_records(path)) as records:
        header_line, header = next(records, (None, None))
        first = next(records, None)
        if first is None:
            raise IngestError(f"{path}: need a header row and at least one object row")
        if len(header) < 2:
            raise IngestError(f"{path}:{header_line}: header must list at least one time label")
        time_labels = header[1:]
        m = len(time_labels)

        try:
            grid = np.array([float(lbl) for lbl in time_labels])
            if not np.isfinite(grid).all():
                raise IngestError(f"{path}:{header_line}: non-finite time label")
            if grid.size > 1 and not np.all(np.diff(grid) > 0):
                raise IngestError(
                    f"{path}:{header_line}: numeric time labels must be strictly increasing"
                )
        except ValueError:
            grid = np.arange(1.0, m + 1.0)

        labels: list[str] = []
        seen: set[str] = set()
        values = []
        for r, (lineno, cells) in enumerate(itertools.chain([first], records)):
            if len(cells) != m + 1:
                raise IngestError(
                    f"{path}:{lineno}: expected {m + 1} cells, found {len(cells)}"
                )
            label = cells[0]
            if not label:
                raise IngestError(f"{path}:{lineno}: empty object label (row {r + 2}, column 1)")
            if label in seen:
                raise IngestError(f"{path}:{lineno}: duplicate object label {label!r}")
            seen.add(label)
            labels.append(label)
            row = np.empty(m)
            for c, cell in enumerate(cells[1:]):
                if cell == "":
                    raise IngestError(
                        f"{path}:{lineno}: missing value at row {r + 2}, column {c + 2}"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise IngestError(
                        f"{path}:{lineno}: non-numeric value {cell!r} at row {r + 2}, "
                        f"column {c + 2}"
                    ) from None
                if not math.isfinite(value):
                    raise IngestError(
                        f"{path}:{lineno}: non-finite value {cell!r} at row {r + 2}, "
                        f"column {c + 2}"
                    )
                row[c] = value
            values.append(row)
        return ObjectPanel(tuple(labels), np.array(values), grid)


def _write_csv(path, manifest_hash: str | None, header: str, blocks) -> None:
    """Write the manifest comment, if any, the header line and then each
    block of ``blocks``, one or more lines that each end in a line break,
    as UTF-8 whatever the locale."""
    with open(path, "w", encoding="utf-8") as handle:
        if manifest_hash:
            handle.write(f"# manifest={manifest_hash}\n")
        handle.write(header + "\n")
        handle.writelines(blocks)


def write_panel(panel: ObjectPanel, path, manifest_hash: str | None = None) -> None:
    _write_csv(path, manifest_hash, "object," + ",".join(_FLOAT.format(t) for t in panel.time_grid),
               (_label_cell(label) + "," + ",".join(_FLOAT.format(v) for v in row) + "\n"
                for label, row in zip(panel.labels, panel.values)))


def ingest_tensor(path) -> DissimilarityTensor:
    """Read a long-CSV dissimilarity tensor (columns t,i,j,d).

    Rows may give either triangle; conflicting duplicates beyond 1e-10 are
    rejected, as are non-finite and negative values, nonzero self rows, ids
    outside the int64 range and incomplete pair coverage at any time point.
    Object ids are arbitrary integers and are mapped to 0..n-1 in sorted
    order. The file must be UTF-8 text.

    ``np.loadtxt`` parses a file of plain rows in write order, as the
    writers make them, straight from the file into the tensor a chunk at a
    time. Any other file (rows out of that order, self rows, both triangles,
    duplicates, quoted cells, comment or whitespace-only lines in the body,
    non-ASCII text, ``int`` spellings like ``1_0``) or one that turns out
    invalid is read by the line scan, a few whole lines at a time, which
    builds the same tensor row by row or names the first fault in file order.
    """
    tensor = _array_tensor(path)
    return _scan_tensor(path) if tensor is None else tensor


def _is_tensor_header(cells) -> bool:
    return [c.strip().lower() for c in cells] == ["t", "i", "j", "d"]


def _plain_lines(path) -> int | None:
    """The number of non-empty lines in a file of ``_PLAIN`` bytes, split
    at '\n', '\r' and '\r\n' as universal newlines splits them, or None
    for any other file."""
    lines = 0
    last = b"\n"
    with open(path, "rb") as handle:
        while chunk := handle.read(_SCAN_CHUNK):
            if chunk.translate(None, _PLAIN):
                return None
            # a line ends at each '\n' or '\r' that follows a byte of text;
            # the chunk's first byte follows the last byte of the one before
            text = np.frombuffer(chunk, np.uint8)
            ends = text == ord("\n")
            ends |= text == ord("\r")
            lines += np.count_nonzero(ends[1:] > ends[:-1])
            lines += bool(ends[0]) and last not in b"\r\n"
            last = chunk[-1:]
    # a last line without a line end
    return lines + (last not in b"\r\n")


def _read_header(handle) -> int | None:
    """Read a text handle through a plain t,i,j,d header that follows only
    blank and '#' lines; the number of non-empty lines read, or None if
    there is no such header."""
    count = 0
    while line := handle.readline():
        count += line != "\n"
        if (rest := line.lstrip()) and rest[0] != "#":
            return count if _is_tensor_header(line.split(",")) else None
    return None


def _load_rows(handle, max_rows: int) -> np.ndarray:
    return np.loadtxt(handle, delimiter=",", comments=None, dtype=_TENSOR_ROW, ndmin=1,
                      max_rows=max_rows)


def _array_tensor(path) -> DissimilarityTensor | None:
    """The tensor ``np.loadtxt`` streams from the file as it stands, or None
    if it cannot, the rows are not in write order or they are invalid.

    That takes only ``_PLAIN`` bytes, and a plain t,i,j,d header after only
    blank and '#' lines; loadtxt then reads the rest of the same handle.
    """
    try:
        lines = _plain_lines(path)
        if lines is None:
            return None
        with warnings.catch_warnings():
            # numpy < 2 parses an int cell such as 1.0 through float, with a warning
            warnings.simplefilter("error", DeprecationWarning)
            # a loadtxt UserWarning, such as numpy's "input contained no data"
            # on a 0-row read, sends the file to the line scan
            warnings.simplefilter("error", UserWarning)
            # a blank line warns that a max_rows read does not count it
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data and will not "
                                    "be counted towards `max_rows", UserWarning)
            with open(path, encoding="ascii") as handle:
                header = _read_header(handle)
                if header is None:
                    return None
                return _stream_tensor(handle, lines - header)
    # a read fault is named by the line scan's read, a refused body by its rows
    except (OSError, ValueError, DeprecationWarning, UserWarning):
        return None


def _stream_tensor(handle, lines: int) -> DissimilarityTensor | None:
    """The tensor of a body of ``lines`` rows in write order, parsed
    ``_STREAM_ROWS`` rows at a time into its condensed pairs, or None if the
    body is in any other order.

    Write order is whole time blocks in strictly increasing time. The first
    block fixes the ids and n: its (min, max) id pairs run through every
    pair once, in ``np.triu_indices`` order of the sorted ids, and every
    later block repeats that sequence. Blank lines are skipped. A self row,
    a duplicate or a row out of that order returns None; a line loadtxt
    refuses or warns on raises.
    """

    def take(count):
        rows = _load_rows(handle, count)
        return rows if rows.size == count else None

    rows = take(min(_STREAM_ROWS, lines)) if lines else None
    if rows is None or not np.isfinite(t0 := rows["t"][0]):
        return None
    # the first time block ends where t first changes
    parts = [rows]
    read = rows.size
    while read < lines and (rows["t"] == t0).all():
        if (rows := take(min(_STREAM_ROWS, lines - read))) is None:
            return None
        parts.append(rows)
        read += rows.size
    rows = np.concatenate(parts) if len(parts) > 1 else rows
    del parts
    same = rows["t"] == t0
    pairs = rows.size if same.all() else int(same.argmin())
    lo = np.minimum(rows["i"][:pairs], rows["j"][:pairs])
    hi = np.maximum(rows["i"][:pairs], rows["j"][:pairs])
    # the sorted distinct ids by a sort and a neighbour mask: np.unique would
    # import numpy.ma, about 1 MiB, into every tensor run
    ids = np.concatenate((lo, hi))
    ids.sort()
    ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    n = ids.size
    m, extra = divmod(lines, pairs)
    a, b = np.triu_indices(n, 1)
    if extra or a.size != pairs or (lo != ids[a]).any() or (hi != ids[b]).any():
        return None

    grid = np.empty(m)
    condensed = np.empty((pairs, m))
    del ids, a, b
    start = 0
    while True:
        t, d = rows["t"], rows["d"]
        if not (np.isfinite(t).all() and np.isfinite(d).all()) or (d < 0).any():
            return None
        block, pair = np.divmod(np.arange(start, start + rows.size), pairs)
        # the first row of each block names its time, so a -0.0 there stays -0.0
        first = pair == 0
        grid[block[first]] = t[first]
        if ((t != grid[block]).any() or (np.minimum(rows["i"], rows["j"]) != lo[pair]).any()
                or (np.maximum(rows["i"], rows["j"]) != hi[pair]).any()):
            return None
        condensed[pair, block] = d
        start += rows.size
        if start == lines:
            break
        if (rows := take(min(_STREAM_ROWS, lines - start))) is None:
            return None
    if not (grid[1:] > grid[:-1]).all():
        return None
    return DissimilarityTensor._from_pairs(grid, condensed, n)


def _scan_tensor(path) -> DissimilarityTensor:
    """The tensor of the file's csv records, read a few whole lines at a time
    and checked in file order; its pairs are filled while their coverage is
    checked in time and id order. An IngestError names the first fault in
    file order, a byte that is not UTF-8 included."""
    with closing(_records(path)) as records:
        header_line, header = next(records, (None, None))
        if header is None:
            raise IngestError(f"{path}: empty file")
        if not _is_tensor_header(header):
            raise IngestError(f"{path}:{header_line}: header must be t,i,j,d")

        entries: dict[tuple[float, int, int], float] = {}
        ids: set[int] = set()
        times: set[float] = set()
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
            if i not in _INT64 or j not in _INT64:
                raise IngestError(f"{path}:{lineno}: object id outside the int64 range in row "
                                  f"{cells!r}")
            if not (math.isfinite(t) and math.isfinite(d)):
                raise IngestError(f"{path}:{lineno}: non-finite value in row {cells!r}")
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
    keys = [(low, high) for a, low in enumerate(id_list) for high in id_list[a + 1:]]
    # the set kept each time's first spelling, so a -0.0 there stays -0.0
    grid = np.array(sorted(times))
    pairs = np.empty((len(keys), grid.size))
    for k, t in enumerate(grid):
        try:
            pairs[:, k] = [entries[t, low, high] for low, high in keys]
        except KeyError as exc:
            _, low, high = exc.args[0]
            raise IngestError(f"{path}: missing pair ({low}, {high}) at t={t}") from None
    return DissimilarityTensor._from_pairs(grid, pairs, len(id_list))


def write_tensor(tensor: DissimilarityTensor, path, manifest_hash: str | None = None) -> None:
    """Write the upper triangle of every slice as t,i,j,d rows (ids 1-based),
    one slice at a time."""
    rows, cols = np.triu_indices(tensor.n, 1)
    ids = [f",{i + 1},{j + 1}," for i, j in zip(rows.tolist(), cols.tolist())]
    row = "{}{}" + _FLOAT + "\n"
    _write_csv(path, manifest_hash, "t,i,j,d", (
        "".join(row.format(time, pair, v) for pair, v in zip(ids, values.tolist()))
        for time, values in zip(map(_FLOAT.format, tensor.time_grid), tensor._pairs.T)))


def write_coordinates(configuration: np.ndarray, labels, path,
                      manifest_hash: str | None = None) -> None:
    """One row per object: label plus its embedded coordinates."""
    p = configuration.shape[1]
    coords = ",".join([_FLOAT] * p) + "\n"
    # one block: a write call per short line costs more than the lines
    _write_csv(path, manifest_hash, "object," + ",".join(f"x{k + 1}" for k in range(p)),
               ["".join(_label_cell(label) + "," + coords.format(*row.tolist())
                        for label, row in zip(labels, configuration))])


def write_trajectories(grid: np.ndarray, positions: np.ndarray, labels, path,
                       manifest_hash: str | None = None) -> None:
    """Long-format trajectory samples: t, object, x1..xp, written one grid
    point at a time."""
    p = positions.shape[2]
    cells = [_label_cell(label) for label in labels]
    row = "{},{}," + ",".join([_FLOAT] * p) + "\n"
    # one list of Python floats per grid point, never the whole array: they
    # format to the same bytes as numpy's scalars
    _write_csv(path, manifest_hash, "t,object," + ",".join(f"x{k + 1}" for k in range(p)), (
        "".join(row.format(time, cell, *coords) for cell, coords in zip(cells, points.tolist()))
        for time, points in zip(map(_FLOAT.format, grid), positions)))


def write_stress_log(stress_values: np.ndarray, displacements: np.ndarray, path,
                     manifest_hash: str | None = None) -> None:
    """One row per epoch, numbered from 1 as ``FitResult.best_epoch`` counts."""
    _write_csv(path, manifest_hash, "epoch,stress,max_displacement",
               ["".join(f"{e},{_FLOAT.format(s)},{_FLOAT.format(d)}\n"
                        for e, (s, d) in enumerate(zip(stress_values, displacements), start=1))])


def write_json(payload: dict, path) -> None:
    """Write ``payload`` as indented JSON, encoded into the file a chunk at a
    time, so the whole text never exists at once."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
