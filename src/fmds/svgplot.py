"""Minimal self-contained SVG plots.

No rendering dependency: plots are assembled as strings with fixed float
formatting, so identical data produces identical bytes; labels and titles
are XML-escaped. Numeric CSVs always accompany these files, so anything
fancier can be re-plotted elsewhere.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN = 56

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


_POINT = "{:.6g},{:.6g}"


def _escape(text) -> str:
    """A label or title as SVG text content (xml.sax.saxutils would pull in urllib)."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Frame:
    """Affine map from data coordinates to pixel coordinates, plus axes.

    ``px`` and ``py`` take a float or an array; an array gets the same
    IEEE operations, so its entries are the floats a scalar call returns.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.x_lo, self.x_hi = _padded_range(xs)
        self.y_lo, self.y_hi = _padded_range(ys)

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN + frac * (WIDTH - 2 * MARGIN)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)

    def axes(self, xlabel: str, ylabel: str) -> list[str]:
        left, right = MARGIN, WIDTH - MARGIN
        top, bottom = MARGIN, HEIGHT - MARGIN
        parts = [
            f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
            'fill="none" stroke="#333" stroke-width="1"/>',
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            px = self.px(xv)
            py = self.py(yv)
            parts.append(
                f'<text x="{_fmt(px)}" y="{bottom + 18}" font-size="11" '
                f'text-anchor="middle" fill="#333">{_fmt(xv)}</text>'
            )
            parts.append(
                f'<text x="{left - 6}" y="{_fmt(py + 4)}" font-size="11" '
                f'text-anchor="end" fill="#333">{_fmt(yv)}</text>'
            )
        parts.append(
            f'<text x="{(left + right) / 2}" y="{HEIGHT - 12}" font-size="12" '
            f'text-anchor="middle" fill="#000">{_escape(xlabel)}</text>'
        )
        parts.append(
            f'<text x="16" y="{(top + bottom) / 2}" font-size="12" text-anchor="middle" '
            f'fill="#000" transform="rotate(-90 16 {(top + bottom) / 2})">{_escape(ylabel)}</text>'
        )
        return parts


def _padded_range(values: np.ndarray) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.05 + 1e-9
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _document(body: list[str], title: str, comments: list[str]) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        *[f"<!-- {c} -->" for c in comments],
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2}" y="28" font-size="15" text-anchor="middle" '
        f'fill="#000">{_escape(title)}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _project(points: np.ndarray) -> np.ndarray:
    """Reduce a configuration to two plot coordinates.

    1-D data is drawn along a line; 3-D and higher use a fixed cabinet
    projection of the first three coordinates.
    """
    p = points.shape[1]
    if p == 1:
        return np.column_stack([points[:, 0], np.zeros(points.shape[0])])
    if p == 2:
        return points
    k = 0.5 * np.sqrt(0.5)
    return np.column_stack(
        [points[:, 0] + k * points[:, 2], points[:, 1] + k * points[:, 2]]
    )


def scatter_svg(points: np.ndarray, labels=None, title: str = "",
                comments: list[str] | None = None) -> str:
    """Scatter plot of a configuration (one marker per object)."""
    pts = _project(np.asarray(points, dtype=float))
    frame = _Frame(pts[:, 0], pts[:, 1])
    body = frame.axes("dimension 1", "dimension 2")
    xs, ys = frame.px(pts[:, 0]).tolist(), frame.py(pts[:, 1]).tolist()
    for i, (x, y) in enumerate(zip(xs, ys)):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}" fill-opacity="0.8"/>'
        )
        if labels is not None:
            body.append(
                f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
                f'font-size="10" fill="#333">{_escape(labels[i])}</text>'
            )
    return _document(body, title, comments or [])


def multiline_svg(x: np.ndarray, series: np.ndarray, labels, title: str = "",
                  xlabel: str = "t", ylabel: str = "value",
                  comments: list[str] | None = None) -> str:
    """One polyline per row of ``series`` against the shared x values."""
    x = np.asarray(x, dtype=float)
    series = np.asarray(series, dtype=float)
    frame = _Frame(x, series)
    body = frame.axes(xlabel, ylabel)
    xs = frame.px(x).tolist()
    for i, row in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ys = frame.py(row).tolist()
        pts = " ".join(map(_POINT.format, xs, ys))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        body.append(
            f'<text x="{WIDTH - MARGIN + 4}" y="{_fmt(ys[-1] + 4)}" '
            f'font-size="10" fill="{color}">{_escape(labels[i])}</text>'
        )
    return _document(body, title, comments or [])


def paths2d_svg(paths: np.ndarray, labels, title: str = "",
                comments: list[str] | None = None) -> str:
    """Planar trajectories: one path per object with a start marker.

    ``paths`` has shape (num_times, n, 2).
    """
    paths = np.asarray(paths, dtype=float)
    frame = _Frame(paths[:, :, 0], paths[:, :, 1])
    body = frame.axes("dimension 1", "dimension 2")
    px, py = frame.px(paths[:, :, 0]), frame.py(paths[:, :, 1])
    for i in range(paths.shape[1]):
        color = _PALETTE[i % len(_PALETTE)]
        xs, ys = px[:, i].tolist(), py[:, i].tolist()
        pts = " ".join(map(_POINT.format, xs, ys))
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        x0, y0 = xs[0], ys[0]
        body.append(f'<circle cx="{_fmt(x0)}" cy="{_fmt(y0)}" r="4" fill="{color}"/>')
        body.append(
            f'<text x="{_fmt(x0 + 6)}" y="{_fmt(y0 - 6)}" '
            f'font-size="10" fill="{color}">{_escape(labels[i])}</text>'
        )
    return _document(body, title, comments or [])
