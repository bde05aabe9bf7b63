"""Benchmark workloads: input generation, CLI arguments and output checks.

Inputs come from ``fmds.synthetic.generate`` under the workload seed and are
written here in the documented CSV formats (17 significant digits, so the
program reads back exactly the generated doubles). The checks recompute the
expected answer with this file's own numpy code, not with fmds functions, so
a defect in the program's B-spline or stress code cannot hide from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fmds.synthetic import SyntheticScenario, generate

# Full sizes are what the benchmark measures; tiny sizes keep the self-test fast.
SIZES = {
    "fit_adam": {
        "full": {"n": 40, "m": 40, "knots": 4, "epochs": 50},
        "tiny": {"n": 6, "m": 12, "knots": 2, "epochs": 3},
    },
    "cmds_ingest": {
        "full": {"n": 100, "m": 60, "dim": 2},
        "tiny": {"n": 8, "m": 5, "dim": 2},
    },
    "panel_corr": {
        "full": {"n": 40, "columns": 800, "window": 10, "epochs": 2, "noise": 0.05},
        "tiny": {"n": 6, "columns": 40, "window": 10, "epochs": 2, "noise": 0.05},
    },
}

STRESS_RTOL = 1e-9
CMDS_ATOL = 1e-8


@dataclass(frozen=True)
class Prepared:
    """A workload's generated inputs, bound to how the CLI is run and checked.

    ``argv(out)`` gives the CLI arguments for one run writing into ``out``;
    ``check(out)`` returns a description of the first failed output check,
    or None when every check passes.
    """

    argv: Callable[[Path], list[str]]
    check: Callable[[Path], str | None]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_tensor_csv(slices: np.ndarray, grid: np.ndarray, path: Path) -> None:
    """Upper triangle of every slice as t,i,j,d rows with 1-based ids."""
    n = slices.shape[1]
    rows, cols = np.triu_indices(n, 1)
    ids = [f"{a + 1},{b + 1}," for a, b in zip(rows.tolist(), cols.tolist())]
    lines = ["t,i,j,d"]
    for t, slc in zip(grid.tolist(), slices):
        ts = _fmt(t) + ","
        lines.extend(ts + pair + _fmt(v) for pair, v in zip(ids, slc[rows, cols].tolist()))
    path.write_text("\n".join(lines) + "\n")


def write_panel_csv(labels, values: np.ndarray, grid: np.ndarray, path: Path) -> None:
    lines = ["object," + ",".join(_fmt(t) for t in grid.tolist())]
    for label, row in zip(labels, values.tolist()):
        lines.append(label + "," + ",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reference computations


def bspline_basis(extended: np.ndarray, order: int, points: np.ndarray) -> np.ndarray:
    """Cox-de Boor basis values, shape (len(points), len(extended) - order).

    The right domain endpoint belongs to the last nonempty knot interval, so
    the basis is a partition of unity on the closed domain.
    """
    knots = np.asarray(extended, dtype=float)
    t = np.asarray(points, dtype=float)[:, None]
    spans = knots[1:] - knots[:-1]
    values = ((knots[:-1] <= t) & (t < knots[1:]) & (spans > 0)).astype(float)
    last = int(np.nonzero(spans > 0)[0][-1])
    values[t[:, 0] == knots[-1], last] = 1.0
    for k in range(2, order + 1):
        left_span = knots[k - 1:-1] - knots[:-k]
        right_span = knots[k:] - knots[1:-k + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(left_span > 0, (t - knots[:-k]) / left_span, 0.0)
            right = np.where(right_span > 0, (knots[k:] - t) / right_span, 0.0)
        values = left * values[:, :-1] + right * values[:, 1:]
    return values


def squared_stress(coeffs: np.ndarray, basis: np.ndarray, dsq: np.ndarray) -> float:
    """Sum over pairs h < j and times k of (d_hjk^2 - ||x_h(t_k) - x_j(t_k)||^2)^2."""
    pos = np.einsum("ipq,kq->kip", coeffs, basis)
    rows, cols = np.triu_indices(coeffs.shape[0], 1)
    diff = pos[:, rows] - pos[:, cols]
    resid = dsq[:, rows, cols] - (diff * diff).sum(axis=-1)
    return float((resid * resid).sum())


def correlation_tensor(values: np.ndarray, window: int) -> np.ndarray:
    """(1 - R) / 2 over every stride-1 window, shape (slices, n, n)."""
    windows = np.lib.stride_tricks.sliding_window_view(values, window, axis=1)
    centered = windows - windows.mean(axis=-1, keepdims=True)
    gram = np.einsum("iks,jks->kij", centered, centered)
    scale = np.sqrt(np.einsum("kii->ki", gram))
    r = np.clip(gram / (scale[:, :, None] * scale[:, None, :]), -1.0, 1.0)
    d = (1.0 - r) / 2.0
    idx = np.arange(values.shape[0])
    d[:, idx, idx] = 0.0
    return d


def check_fit_outputs(out: Path, dsq: np.ndarray, times: np.ndarray, epochs: int) -> str | None:
    """The epoch budget was spent, and final_stress is reproduced from the coefficients."""
    summary = json.loads((out / "summary.json").read_text())
    if summary["epochs_run"] != epochs:
        return f"epochs_run {summary['epochs_run']} != budget {epochs}"
    doc = json.loads((out / "coefficients.json").read_text())
    order = int(doc["order"])
    a, b = doc["knots_domain"]
    extended = np.concatenate([np.full(order, a), doc["knots_interior"], np.full(order, b)])
    unit = (times - doc["time_origin"]) / doc["time_span"]
    basis = bspline_basis(extended, order, unit)
    value = squared_stress(np.asarray(doc["coefficients"], dtype=float), basis, dsq)
    final = summary["final_stress"]
    if not np.isclose(value, final, rtol=STRESS_RTOL, atol=0.0):
        return f"recomputed stress {value!r} != final_stress {final!r}"
    return None


def check_cmds_outputs(out: Path, slices: np.ndarray) -> str | None:
    """Every slice's coordinates reproduce its distances."""
    for k, expected in enumerate(slices):
        path = out / f"coordinates_{k + 1:03d}.csv"
        if not path.exists():
            return f"missing {path.name}"
        lines = [line for line in path.read_text().splitlines()
                 if line and not line.startswith("#")]
        coords = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        if coords.shape[0] != expected.shape[0]:
            return f"{path.name}: {coords.shape[0]} rows for {expected.shape[0]} objects"
        diff = coords[:, None, :] - coords[None, :, :]
        err = float(np.abs(np.sqrt((diff * diff).sum(axis=-1)) - expected).max())
        if not err <= CMDS_ATOL:
            return f"{path.name}: distance error {err:.3e} > {CMDS_ATOL:g}"
    return None


# ---------------------------------------------------------------------------
# workloads


def _fit_args(inp: Path, out: Path, epochs: int, seed: int, extra: list[str]) -> list[str]:
    return ["fmds", "--input", str(inp), *extra, "--max-epochs", str(epochs),
            "--eps", "1e-300", "--seed", str(seed), "--out", str(out), "--deterministic"]


def prepare_fit_adam(work: Path, seed: int, size: dict) -> Prepared:
    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=size["n"], m=size["m"],
                                              seed=seed))
    slices = tensor.stacked()
    inp = work / "tensor.csv"
    write_tensor_csv(slices, tensor.time_grid, inp)
    extra = ["--dim", "2", "--knots", str(size["knots"])]
    return Prepared(
        argv=lambda out: _fit_args(inp, out, size["epochs"], seed, extra),
        check=lambda out: check_fit_outputs(out, slices ** 2, tensor.time_grid, size["epochs"]),
    )


def prepare_cmds_ingest(work: Path, seed: int, size: dict) -> Prepared:
    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=size["n"], m=size["m"],
                                              seed=seed))
    slices = tensor.stacked()
    inp = work / "tensor.csv"
    write_tensor_csv(slices, tensor.time_grid, inp)
    return Prepared(
        argv=lambda out: ["cmds", "--input", str(inp), "--dim", str(size["dim"]),
                          "--out", str(out), "--deterministic"],
        check=lambda out: check_cmds_outputs(out, slices),
    )


def prepare_panel_corr(work: Path, seed: int, size: dict) -> Prepared:
    panel, _, _ = generate(SyntheticScenario("random_walk_smoothed", n=size["n"], p_true=1,
                                             m=size["columns"], noise_sd=size["noise"],
                                             seed=seed))
    inp = work / "panel.csv"
    write_panel_csv(panel.labels, panel.values, panel.time_grid, inp)
    window = size["window"]
    dsq = correlation_tensor(panel.values, window) ** 2
    times = panel.time_grid[window - 1:]
    extra = ["--format", "wide_csv", "--metric", "correlation",
             "--window", str(window), "--stride", "1"]
    return Prepared(
        argv=lambda out: _fit_args(inp, out, size["epochs"], seed, extra),
        check=lambda out: check_fit_outputs(out, dsq, times, size["epochs"]),
    )


PREPARE = {
    "fit_adam": prepare_fit_adam,
    "cmds_ingest": prepare_cmds_ingest,
    "panel_corr": prepare_panel_corr,
}
