"""Command-line interface.

Subcommands: ``dissim`` turns an observation panel into a dissimilarity
tensor, ``cmds`` embeds each tensor slice independently, ``fmds`` fits
smooth embedding trajectories, ``synth`` writes synthetic data sets, and
``verify`` cross-checks the fast numeric paths against the brute-force
references. Exit codes: 0 success, 2 usage/config error, 3 ingest error,
4 numerical error or divergence.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import io, svgplot
from .bspline import eval_basis, make_knots
from .cmds import _mds_slices, _solution, classical_mds, reconstructed_dissimilarity
from .dissimilarity import (
    _METRICS,
    DissimilarityTensor,
    euclidean_dissimilarity,
    rolling_dissimilarity_tensor,
)
from .errors import ConfigError, FmdsError, IngestError, WindowTooLong
from .fitting import (
    CoefficientSet,
    evaluate_trajectories,
    fit,
    pair_gradients,
    pair_stress,
    stress,
)
from .manifest import _FORMATS, RunManifest
from .reference import central_difference_gradient, naive_bspline
from .synthetic import _KINDS, SyntheticScenario, generate

DENSE_GRID_POINTS = 200

# Each choice flag's values and their manifest spellings.
_VALUE_OF_FLAG = {"init": {"cmds": "cmds_warm", "random": "random"},
                  "baseline": {"adam": "adam", "gd": "full_batch_gd"}}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser. Flags carry no defaults: an absent flag leaves its
    ``RunManifest`` field, and so ``FitConfig``, to supply one."""
    parser = argparse.ArgumentParser(
        prog="fmds",
        description="Smooth low-dimensional embedding trajectories for "
        "time-varying dissimilarities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    no_defaults = {"argument_default": argparse.SUPPRESS}

    ingest = argparse.ArgumentParser(add_help=False, **no_defaults)
    ingest.add_argument("--input", required=True, help="input CSV file")
    ingest.add_argument(
        "--format", choices=_FORMATS,
        help="input layout: long t,i,j,d rows or a wide observation panel",
    )
    ingest.add_argument(
        "--metric", choices=_METRICS,
        help="dissimilarity metric for wide_csv inputs",
    )
    ingest.add_argument("--window", type=int,
                        help="rolling window length (default: full series)")
    ingest.add_argument("--stride", type=int, help="window step")

    out = argparse.ArgumentParser(add_help=False, **no_defaults)
    out.add_argument("--out", required=True, help="output directory")
    out.add_argument("--deterministic", action="store_true",
                     help="suppress timestamps so reruns are byte-identical")

    p_cmds = sub.add_parser("cmds", parents=[ingest, out], **no_defaults,
                            help="embed each tensor slice by classical MDS")
    p_cmds.add_argument("--dim", type=int, help="embedding dimension")

    p_fmds = sub.add_parser("fmds", parents=[ingest, out], **no_defaults,
                            help="fit smooth embedding trajectories")
    p_fmds.add_argument("--dim", type=int, help="embedding dimension")
    p_fmds.add_argument("--knots", type=int,
                        help="interior knot count (default: max(1, m // 10))")
    p_fmds.add_argument("--alpha", type=float, help="step size")
    p_fmds.add_argument("--gamma1", type=float, help="first-moment decay")
    p_fmds.add_argument("--gamma2", type=float, help="second-moment decay")
    p_fmds.add_argument("--eps", type=float, help="convergence tolerance")
    p_fmds.add_argument("--max-epochs", type=int, help="epoch budget")
    p_fmds.add_argument("--seed", type=int, help="random seed")
    p_fmds.add_argument("--init", choices=_VALUE_OF_FLAG["init"],
                        help="initialization mode")
    p_fmds.add_argument("--baseline", choices=_VALUE_OF_FLAG["baseline"],
                        help="optimizer: pairwise adam or full-batch gradient descent")

    sub.add_parser("dissim", parents=[ingest, out], **no_defaults,
                   help="build a dissimilarity tensor from a panel")

    sub.add_parser("verify", help="cross-check fast paths against references")

    p_synth = sub.add_parser("synth", parents=[out], **no_defaults,
                             help="write a synthetic data set")
    p_synth.add_argument("--scenario", choices=_KINDS)
    p_synth.add_argument("--n", type=int, help="object count")
    p_synth.add_argument("--dim", type=int, help="trajectory dimension")
    p_synth.add_argument("--m", type=int, help="time point count")
    p_synth.add_argument("--noise", type=float, help="observation noise sd")
    p_synth.add_argument("--seed", type=int, help="random seed")
    return parser


# Flags whose RunManifest field has another name; every other flag's dest
# is its field name.
_FIELD_OF_FLAG = {
    "input": "input_path", "format": "input_format", "window": "window_len",
    "knots": "interior_knots", "n": "scenario_n", "m": "scenario_m",
    "noise": "noise_sd", "out": "out_dir",
}


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    manifest = RunManifest.from_dict({
        _FIELD_OF_FLAG.get(flag, flag): _VALUE_OF_FLAG.get(flag, {}).get(value, value)
        for flag, value in vars(args).items()
    })
    manifest.validate()
    return manifest


def _svg_comments(manifest: RunManifest) -> list[str]:
    comments = [f"manifest={manifest.sha256()}"]
    if not manifest.deterministic:
        comments.append(f"generated {datetime.now(timezone.utc).isoformat()}")
    return comments


def _load_tensor(manifest: RunManifest) -> tuple[DissimilarityTensor, tuple[str, ...]]:
    """Load a tensor per the manifest, returning it with object labels."""
    if manifest.input_format == "tensor_csv":
        tensor = io.ingest_tensor(manifest.input_path)
        labels = tuple(f"o{i + 1}" for i in range(tensor.n))
        return tensor, labels
    panel = io.ingest_panel(manifest.input_path)
    window = manifest.window_len if manifest.window_len is not None else panel.num_times
    tensor = rolling_dissimilarity_tensor(panel, manifest.metric, window, manifest.stride)
    return tensor, panel.labels


def _out_dir(manifest: RunManifest) -> Path:
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_dissim_command(manifest: RunManifest) -> int:
    tensor, labels = _load_tensor(manifest)
    out = _out_dir(manifest)
    digest = manifest.sha256()
    io.write_tensor(tensor, out / "tensor.csv", manifest_hash=digest)
    io.write_json(
        {
            "manifest_sha256": digest,
            "objects": list(labels),
            "num_slices": tensor.num_times,
            "times": [float(t) for t in tensor.time_grid],
        },
        out / "summary.json",
    )
    print(f"wrote {tensor.num_times} slices for {tensor.n} objects to {out}")
    return 0


def run_cmds_command(manifest: RunManifest) -> int:
    """Per-slice classical MDS: coordinates, spectra, and scatter plots."""
    tensor, labels = _load_tensor(manifest)
    out = _out_dir(manifest)
    digest = manifest.sha256()
    comments = _svg_comments(manifest)

    solutions = [_solution(configuration, eigenvalues) for configuration, eigenvalues
                 in _mds_slices(tensor._pairs, tensor.n, manifest.dim)]

    slice_summaries = []
    for k, solution in enumerate(solutions):
        tag = f"{k + 1:03d}"
        io.write_coordinates(solution.configuration, labels,
                             out / f"coordinates_{tag}.csv", manifest_hash=digest)
        t = float(tensor.time_grid[k])
        svg = svgplot.scatter_svg(
            solution.configuration, labels,
            title=f"slice {k + 1} (t={t:g}), dim {manifest.dim}",
            comments=comments,
        )
        (out / f"scatter_{tag}.svg").write_text(svg, encoding="utf-8")
        slice_summaries.append({
            "index": k,
            "time": t,
            "negative_mass": solution.negative_mass,
            "eigenvalues": [float(v) for v in solution.eigenvalues],
        })

    io.write_json(
        {"manifest_sha256": digest, "dim": manifest.dim, "slices": slice_summaries},
        out / "summary.json",
    )
    print(f"embedded {tensor.num_times} slices at dim {manifest.dim} into {out}")
    return 0


def run_fmds_command(manifest: RunManifest) -> int:
    """Fit trajectories: coefficients, samples, stress log, and plots."""
    tensor, labels = _load_tensor(manifest)
    out = _out_dir(manifest)
    digest = manifest.sha256()
    comments = _svg_comments(manifest)

    # rescale time onto [0, 1] for spline conditioning; outputs report the
    # original units through the inverse map
    origin = float(tensor.time_grid[0])
    span = float(tensor.time_grid[-1] - tensor.time_grid[0])
    if span <= 0:
        raise ConfigError("fitting needs at least two distinct time points" + (
            "" if manifest.input_format == "tensor_csv" else
            "; each window stop gives one slice, so --window must be shorter than the series"))
    unit_tensor = tensor._on_grid((tensor.time_grid - origin) / span)

    result = fit(unit_tensor, manifest.fit_config())

    dense_unit = np.linspace(0.0, 1.0, DENSE_GRID_POINTS)
    trajectory = evaluate_trajectories(result.coefficients, dense_unit)
    dense_times = origin + dense_unit * span

    knots = result.coefficients.knots
    io.write_json(
        {
            "manifest_sha256": digest,
            "objects": list(labels),
            "dim": result.coefficients.p,
            "num_basis": result.coefficients.q,
            "order": knots.order,
            "knots_domain": [knots.domain[0], knots.domain[1]],
            "knots_interior": [float(v) for v in knots.interior],
            "time_origin": origin,
            "time_span": span,
            "coefficients": result.coefficients.coefficients.tolist(),
        },
        out / "coefficients.json",
    )
    io.write_trajectories(dense_times, trajectory.positions, labels,
                          out / "trajectories.csv", manifest_hash=digest)
    io.write_stress_log(result.stress_per_epoch, result.max_displacement_per_epoch,
                        out / "stress.csv", manifest_hash=digest)
    io.write_json(
        {
            "manifest_sha256": digest,
            "converged": result.converged,
            "epochs_run": result.epochs_run,
            "initial_stress": result.initial_stress,
            "final_stress": float(result.stress_per_epoch[-1]),
            "best_stress": result.best_stress,
            "best_epoch": result.best_epoch,
            "final_max_displacement": float(result.max_displacement_per_epoch[-1]),
            "eps": manifest.eps,
        },
        out / "summary.json",
    )

    for dim in range(result.coefficients.p):
        svg = svgplot.multiline_svg(
            dense_times, trajectory.positions[:, :, dim].T, labels,
            title=f"coordinate {dim + 1} over time",
            xlabel="t", ylabel=f"x{dim + 1}",
            comments=comments,
        )
        (out / f"trajectories_dim{dim + 1}.svg").write_text(svg, encoding="utf-8")
    if result.coefficients.p == 2:
        svg = svgplot.paths2d_svg(trajectory.positions, labels,
                                  title="embedding paths", comments=comments)
        (out / "paths_2d.svg").write_text(svg, encoding="utf-8")

    status = "converged" if result.converged else "epoch budget exhausted"
    print(f"{status} after {result.epochs_run} epochs; "
          f"final stress {result.stress_per_epoch[-1]:.6g}; outputs in {out}")
    return 0


def run_synth_command(manifest: RunManifest) -> int:
    scenario = SyntheticScenario(
        kind=manifest.scenario,
        n=manifest.scenario_n,
        p_true=manifest.dim,
        m=manifest.scenario_m,
        noise_sd=manifest.noise_sd,
        seed=manifest.seed,
    )
    panel, tensor, truth = generate(scenario)
    out = _out_dir(manifest)
    digest = manifest.sha256()
    io.write_panel(panel, out / "panel.csv", manifest_hash=digest)
    io.write_tensor(tensor, out / "tensor.csv", manifest_hash=digest)
    labels = tuple(f"o{i + 1}" for i in range(scenario.n))
    io.write_trajectories(tensor.time_grid, truth.transpose(1, 0, 2), labels,
                          out / "truth.csv", manifest_hash=digest)
    print(f"wrote scenario {scenario.kind!r} (n={scenario.n}, m={scenario.m}) to {out}")
    return 0


# Each manifest command's run: the keys are manifest._COMMANDS, every subcommand but verify
_RUNS = {"dissim": run_dissim_command, "cmds": run_cmds_command,
         "fmds": run_fmds_command, "synth": run_synth_command}


# ---------------------------------------------------------------------------
# verify: brute-force cross-checks runnable by end users


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    tolerance: float
    max_deviation: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_basis_agreement(rng: np.random.Generator) -> VerifyCheck:
    worst = 0.0
    for _ in range(300):
        order = int(rng.integers(1, 5))
        count = int(rng.integers(0, 6))
        a = float(rng.uniform(-3.0, 3.0))
        b = a + float(rng.uniform(0.5, 4.0))
        # a sort and a neighbour mask: np.unique would import numpy.ma
        interior = np.sort(rng.uniform(a, b, count))
        keep = (interior > a) & (interior < b)
        keep[1:] &= interior[1:] != interior[:-1]
        interior = interior[keep]
        kv = make_knots((a, b), interior, order)
        t = float(rng.uniform(a, b))
        worst = max(worst, float(np.abs(eval_basis(kv, t) - naive_bspline(kv, t)).max()))
    return VerifyCheck("basis vs recursive reference", 1e-12, worst)


def _random_instance(rng: np.random.Generator):
    n = int(rng.integers(3, 6))
    m = int(rng.integers(4, 8))
    p = int(rng.integers(1, 3))
    kv = make_knots((0.0, 1.0), [0.5], order=3)
    grid = np.linspace(0.0, 1.0, m)
    values = np.empty((m, n, n))
    for out in values:
        out[...] = euclidean_dissimilarity(rng.normal(size=(n, max(p, 2)))).values
    tensor = DissimilarityTensor(grid, values)
    coeffs = rng.normal(size=(n, p, kv.num_basis)) * 0.5
    return tensor, coeffs, kv


def _check_pair_gradients(rng: np.random.Generator) -> VerifyCheck:
    worst = 0.0
    for _ in range(10):
        tensor, coeffs, kv = _random_instance(rng)
        n = coeffs.shape[0]
        h, j = 0, n - 1
        analytic, _ = pair_gradients(coeffs[h], coeffs[j], tensor, h, j, kv)
        numeric = central_difference_gradient(
            lambda mat: pair_stress(mat, coeffs[j], tensor, h, j, kv), coeffs[h]
        )
        dev = float(np.abs(analytic - numeric).max() / (1.0 + np.abs(numeric).max()))
        worst = max(worst, dev)
    return VerifyCheck("pair gradients vs central differences", 1e-5, worst)


def _check_cmds_roundtrip(rng: np.random.Generator) -> VerifyCheck:
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 12))
        p = int(rng.integers(1, 4))
        points = rng.normal(size=(n, p))
        matrix = euclidean_dissimilarity(points)
        recon = reconstructed_dissimilarity(classical_mds(matrix, p))
        worst = max(worst, float(np.abs(recon.values - matrix.values).max()))
    return VerifyCheck("cmds exact-recovery roundtrip", 1e-8, worst)


def _check_stress_decomposition(rng: np.random.Generator) -> VerifyCheck:
    worst = 0.0
    for _ in range(10):
        tensor, coeffs, kv = _random_instance(rng)
        cs = CoefficientSet(coeffs, kv)
        total = stress(cs, tensor)
        n = coeffs.shape[0]
        parts = sum(
            pair_stress(coeffs[a], coeffs[b], tensor, a, b, kv)
            for a in range(n) for b in range(a + 1, n)
        )
        worst = max(worst, abs(parts - total) / (1.0 + abs(total)))
    return VerifyCheck("stress pair decomposition", 1e-10, worst)


def verify_command() -> VerifyReport:
    """Run the reference cross-checks; each check draws from a fixed seed."""
    rng = np.random.default_rng(2024)
    checks = (
        _check_basis_agreement(rng),
        _check_pair_gradients(rng),
        _check_cmds_roundtrip(rng),
        _check_stress_decomposition(rng),
    )
    return VerifyReport(checks)


def _print_verify(report: VerifyReport) -> None:
    width = max(len(c.name) for c in report.checks)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name:<{width}}  tol {check.tolerance:<8.1e}"
              f" max dev {check.max_deviation:<12.3e} {status}")
    print("all checks passed" if report.passed else "CHECKS FAILED")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "verify":
        report = verify_command()
        _print_verify(report)
        return 0 if report.passed else 4
    manifest = _manifest_from_args(args)
    status = _RUNS[manifest.command](manifest)
    io.write_json({"manifest_sha256": manifest.sha256(), **manifest.to_dict()},
                  Path(manifest.out_dir) / "manifest.json")
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FmdsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, IngestError):
            return 3
        return 2 if isinstance(exc, (ConfigError, WindowTooLong)) else 4


# CPython's built-in hash modules, which hashlib and hmac fall back to when
# _hashlib, OpenSSL's, cannot be imported
_BUILTIN_HASHES = (("_md5", "_sha1", "_sha2", "_blake2", "_sha3") if sys.version_info >= (3, 12)
                   else ("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3"))


def entry() -> int:
    """The ``fmds`` program: ``main`` on the process's arguments, with hashlib
    on CPython's built-in hashes.

    numpy.random imports hmac, which maps OpenSSL's libcrypto through _hashlib
    (about 3.6 MiB of peak RSS) though no seeded generator uses it. A _hashlib
    marked missing keeps it out, as on a CPython built without OpenSSL, unless
    a built-in module is missing too: ``import hashlib`` would then log an
    error for each of its hashes. ``main`` itself changes no process-wide state.
    """
    if all(importlib.util.find_spec(name) for name in _BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)
    return main()


if __name__ == "__main__":
    sys.exit(entry())
