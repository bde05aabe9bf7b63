"""How far the pinned fit values move with the BLAS kernels and the last bit.

    python3 scripts/kernel_spread.py

Reruns the fit values that tests pin to a recorded run, and the fit_adam
benchmark's final stress, each run in a child process on one BLAS thread
(OPENBLAS_NUM_THREADS=1):

- criterion 7's final stress and max error (tests/test_acceptance.py)
- the line fixture's final stress (tests/test_fitting.py)
- the full-batch agreement fixture's Adam and GD final stresses
- the final_stress in summary.json of the fit_adam benchmark's CLI fit
  (smooth_rotation n=40, m=40, 4 knots, 50 epochs, seed 1)

The runs are: the default kernel; each OPENBLAS_CORETYPE of the fixed list
(a core type that this CPU cannot run, that OpenBLAS replaces by another,
or whose kernel cannot be read back from numpy's OpenBLAS, is reported as
unavailable); and PERTURBATIONS runs whose warm starts are multiplied
entrywise by 1 + 1e-16 z, z standard normal, seeded 0 to PERTURBATIONS - 1.
Prints one JSON line: each run's values and the kernel it used, and each
value's min, max and (max - min) / |default|.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

CORETYPES = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott")
PERTURBATIONS = 5
SRC = Path(__file__).resolve().parents[1] / "src"


def _corename() -> str | None:
    """The kernel family of numpy's bundled OpenBLAS, or None if it has none."""
    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return None


def _values(perturb_seed: int | None) -> dict:
    """The pinned values of one run, in this process."""
    import numpy as np

    import fmds.fitting
    from fmds import (DissimilarityTensor, FitConfig, SyntheticScenario, euclidean_dissimilarity,
                      evaluate_trajectories, fit, generate)
    from fmds.cli import main as cli_main
    from fmds.io import write_tensor

    if perturb_seed is not None:
        warm_start = fmds.fitting.init_from_cmds
        rng = np.random.default_rng(perturb_seed)

        def perturbed(tensor, config, **kwargs):
            start = warm_start(tensor, config, **kwargs)
            noise = 1.0 + 1e-16 * rng.standard_normal(start.coefficients.shape)
            return fmds.fitting.CoefficientSet(start.coefficients * noise, start.knots)

        fmds.fitting.init_from_cmds = perturbed

    values = {}
    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=5, p_true=2, m=40, seed=42))
    result = fit(tensor, FitConfig(p=2, interior_knots=4, max_epochs=2000, rng_seed=42))
    fitted = evaluate_trajectories(result.coefficients, tensor.time_grid).fitted_dissimilarities
    values["criterion7_final_stress"] = float(result.stress_per_epoch[-1])
    values["criterion7_max_error"] = float(np.abs(fitted - tensor.stacked()).max())

    grid = np.linspace(0.0, 1.0, 5)
    line = np.stack([0.0 * grid, 1.0 + 0.4 * grid, -1.0 - 0.3 * grid])[:, :, None]
    line_tensor = DissimilarityTensor(
        grid, np.stack([euclidean_dissimilarity(line[:, k]).values for k in range(5)]))
    result = fit(line_tensor, FitConfig(p=1, interior_knots=1, max_epochs=500, rng_seed=42))
    values["line_final_stress"] = float(result.stress_per_epoch[-1])

    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=4, m=20, seed=3))
    for name, baseline in (("adam", "adam"), ("gd", "full_batch_gd")):
        config = FitConfig(p=2, interior_knots=2, alpha=1e-4, max_epochs=2000, rng_seed=0,
                           baseline=baseline)
        values[f"agreement_{name}_final_stress"] = float(fit(tensor, config).stress_per_epoch[-1])

    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=40, m=40, seed=1))
    with tempfile.TemporaryDirectory() as work:
        inp, out = Path(work) / "tensor.csv", Path(work) / "out"
        write_tensor(tensor, inp)
        code = cli_main(["fmds", "--input", str(inp), "--dim", "2", "--knots", "4",
                         "--max-epochs", "50", "--eps", "1e-300", "--seed", "1",
                         "--out", str(out), "--deterministic"])
        if code:
            raise RuntimeError(f"fmds fmds exited with {code}")
        values["fit_adam_cli_final_stress"] = json.loads(
            (out / "summary.json").read_text())["final_stress"]
    return {"kernel": _corename(), "values": values}


def _child(coretype: str | None, perturb_seed: int | None) -> dict | str:
    """One run in a fresh process: its result, or why it is unavailable."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    argv = [sys.executable, __file__, "--child"]
    if perturb_seed is not None:
        argv += ["--perturb-seed", str(perturb_seed)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if coretype is not None and done.returncode == -signal.SIGILL:
        return f"unavailable: {coretype} kernels use instructions this CPU lacks"
    if done.returncode:
        raise RuntimeError(f"child run failed ({done.returncode}):\n{done.stderr}")
    run = json.loads(done.stdout.splitlines()[-1])
    if coretype is not None and run["kernel"] is None:
        return f"unavailable: cannot check that OpenBLAS ran {coretype}"
    if coretype is not None and run["kernel"].lower() != coretype.lower():
        return f"unavailable: OpenBLAS ran {run['kernel']} instead"
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--perturb-seed", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_values(args.perturb_seed)))
        return 0

    runs = {"default": _child(None, None)}
    for coretype in CORETYPES:
        runs[coretype] = _child(coretype, None)
    for seed in range(PERTURBATIONS):
        runs[f"perturbed_{seed}"] = _child(None, seed)

    default = runs["default"]["values"]
    spread = {}
    for name, reference in default.items():
        seen = [run["values"][name] for run in runs.values() if isinstance(run, dict)]
        spread[name] = {"min": min(seen), "max": max(seen),
                        "relative": (max(seen) - min(seen)) / abs(reference)}
    print(json.dumps({"blas_threads": 1, "runs": runs, "spread": spread}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
