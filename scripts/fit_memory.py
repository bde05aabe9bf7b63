"""Peak traced memory of one ``fit`` next to the size of its condensed pairs.

    PYTHONPATH=src python3 scripts/fit_memory.py N M [EPOCHS]

Generates smooth_rotation data with N objects at M time points (seed 1),
then fits it with the default configuration for EPOCHS epochs (default 1)
under tracemalloc. The tensor exists before tracing starts, so the peak is
the fit's own working memory: the warm start, the Adam state and the
per-epoch stress. Prints the peak, the condensed pairs' size, their ratio,
the final stress and the wall time.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc

from fmds import FitConfig, SyntheticScenario, fit, generate

MIB = 2.0**20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="object count")
    parser.add_argument("m", type=int, help="time point count")
    parser.add_argument("epochs", type=int, nargs="?", default=1, help="epoch budget")
    args = parser.parse_args(argv)

    _, tensor, _ = generate(SyntheticScenario("smooth_rotation", n=args.n, m=args.m, seed=1))
    pairs = tensor._pairs.nbytes
    start = time.perf_counter()
    tracemalloc.start()
    try:
        result = fit(tensor, FitConfig(max_epochs=args.epochs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    wall = time.perf_counter() - start
    print(f"n={args.n} m={args.m} epochs={result.epochs_run}: fit peak {peak / MIB:.1f} MiB, "
          f"pairs {pairs / MIB:.1f} MiB, ratio {peak / pairs:.2f}; "
          f"final stress {float(result.stress_per_epoch[-1])!r}; {wall:.1f} s under tracemalloc")
    return 0


if __name__ == "__main__":
    sys.exit(main())
