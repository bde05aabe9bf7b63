"""Benchmark runner for the fmds CLI.

    python3 perfbench/run.py --workload fit_adam --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. Each workload generates its inputs
from ``--seed``, then runs the working tree's CLI (``python -m fmds.cli``
with ``PYTHONPATH=src``) as fresh child processes, one at a time (a closed
loop with one client), for ``--seconds`` seconds. Every run's outputs are
checked. The child's wall time, CPU time and peak RSS come from ``os.wait4``
in ``spawn.py``.

With ``--trace 0`` the result holds the end-to-end metrics: medians over the
runs of ``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and ``setup_s``, the median
wall time of fresh children that import the CLI and print ``--help``, run
between the measured runs.

With ``--trace 1`` untraced children alternate with in-process runs of
``fmds.cli.main`` traced by ``tracing.py``, and the result holds the
per-layer metrics (medians over the traced runs) named in ``layers.json``.

The last line of standard output is the result as JSON; the line before it
records the environment. A full record, with every sample and, when tracing,
every span, is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit_adam", "cmds_ingest", "panel_corr")

# One BLAS thread and no CLI fan-out, so runs on a small machine measure the
# program rather than the scheduler.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# setup children per measured run, spread over the run so slow drifts in the
# machine's speed reach setup_s as they reach the other metrics
SETUP_PER_STEP = 2
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(ROOT / "src"),
           "LC_ALL": "C.UTF-8", "PYTHONHASHSEED": "0"}
    env.update(THREAD_ENV)
    return env


def run_child(args: list[str], env: dict, cwd: Path) -> dict:
    """Run ``python -m fmds.cli <args>`` to completion through ``spawn.py``.

    Returns the child's exit code, wall time from spawn to exit, CPU time and
    peak RSS, and an error description when it exited non-zero.
    """
    log = cwd / "child.log"
    spec = {"argv": [sys.executable, "-m", "fmds.cli", *args], "env": env, "cwd": str(cwd),
            "log": str(log), "timeout": CHILD_TIMEOUT_S}
    done = subprocess.run([sys.executable, str(HERE / "spawn.py"), json.dumps(spec)],
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S + 30)
    sample = json.loads(done.stdout)
    sample["error"] = None
    if sample["exit"] != 0:
        sample["error"] = f"exit {sample['exit']}: {log.read_text()[-2000:]}"
    return sample


def run_checked(prepared, env: dict, work: Path, index: int) -> dict:
    out = work / f"out{index}"
    sample = run_child(prepared.argv(out), env, work)
    if sample["error"] is None:
        try:
            sample["error"] = prepared.check(out)
        except (OSError, ValueError, KeyError) as exc:
            sample["error"] = f"unreadable output: {exc!r}"
    shutil.rmtree(out, ignore_errors=True)
    return sample


def until(seconds: float, step):
    """Call ``step(i)`` for i = 0, 1, ... while the next call should end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def median_of(samples: list[dict], key: str) -> float:
    """Median over the samples whose run passed its checks, or over all if none did."""
    ok = [s for s in samples if s["error"] is None] or samples
    return statistics.median(s[key] for s in ok)


def traced_run(tracer, run_id: int, prepared, work: Path) -> dict:
    """One in-process CLI run with every layer traced; outputs checked like a child's."""
    from fmds import cli  # loaded before tracing starts: only loaded modules are traced

    out = work / f"traced{run_id}"
    error = None
    # keep the runner's own objects out of the collections the traced run triggers
    gc.collect()
    gc.freeze()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = tracer.run(run_id, cli.main, prepared.argv(out))
        error = f"exit {status}" if status != 0 else prepared.check(out)
    except Exception:  # a failed run is counted, not fatal to the benchmark
        error = traceback.format_exc()
    finally:
        gc.unfreeze()
    shutil.rmtree(out, ignore_errors=True)
    return {"run": run_id, "error": error}


def environment(workload: str, seed: int, trace: int, env: dict, size: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "python": sys.version,
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": workload,
        "sizes": size,
        "seed": seed,
        "trace": trace,
        "child_env": env,
    }


def trace_metrics(tracer, traced: list[dict], wall_s: float, setup_s: float,
                  workload: str, record: dict) -> dict:
    """Medians of the per-layer metrics over the traced runs, plus the memory pass."""
    import tracing

    spans_of = {t["run"]: [s for s in tracer.spans if s["run"] == t["run"]] for t in traced}
    per_run = [tracing.layer_metrics(spans, tracer.counts[run], wall_s, setup_s)
               for run, spans in spans_of.items()]
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    fit_peak, stress_peak = tracing.memory_pass(tracer.fit_call) if tracer.fit_call else (0.0, 0.0)
    metrics["fitting.fit_peak_mb"] = fit_peak
    metrics["fitting.stress_peak_mb"] = stress_peak

    layer_map = json.loads((HERE / "layers.json").read_text())
    predicted = layer_map["workloads"][workload]["dominant"]
    dominant = [tracing.dominant_layer(spans) for spans in spans_of.values()]
    found = statistics.mode(name for name, _ in dominant)
    verdict = "as predicted" if found == predicted else f"NOT the predicted {predicted}"
    print(f"dominant layer: {found} in {sum(n == found for n, _ in dominant)} of "
          f"{len(dominant)} traced runs, {verdict}", file=sys.stderr)
    if tracer.missing:
        print(f"warning: no function found for spans {tracer.missing}", file=sys.stderr)
    record.update(traced=traced, per_run=per_run, spans=tracer.spans, untraced_wall_s=wall_s,
                  missing_spans=tracer.missing, dominant=dominant,
                  predicted_dominant=predicted, layer_map=layer_map)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs are for the runner's self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fmds" / "cli.py").is_file():
        print(f"error: no fmds source tree at {ROOT / 'src' / 'fmds'}", file=sys.stderr)
        return 2
    # set before numpy loads a BLAS in this process, for the traced runs
    os.environ.update(THREAD_ENV)
    os.environ.pop("FMDS_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    size = workloads.SIZES[args.workload][args.size]
    env = child_env()
    tracer = tracing.Tracer() if args.trace else None
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))

    def step(i: int) -> dict:
        return {"setup": [run_child(["--help"], env, work) for _ in range(SETUP_PER_STEP)],
                "run": run_checked(prepared, env, work, i),
                "traced": traced_run(tracer, i, prepared, work) if tracer else None}

    try:
        prepared = workloads.PREPARE[args.workload](work, args.seed, size)
        run_child(["--help"], env, work)  # warm-up: byte-compiles and fills file caches
        steps = until(args.seconds, step)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup = [s for st in steps for s in st["setup"]]
    runs = [st["run"] for st in steps]
    traced = [st["traced"] for st in steps if st["traced"]]
    samples = setup + runs + traced
    failed = [s for s in samples if s["error"] is not None]
    for s in failed:
        print(f"failed run: {s['error']}", file=sys.stderr)
    counts = {"runs": len(runs), "setup_runs": len(setup), "traced_runs": len(traced),
              "error_rate": len(failed) / len(samples)}
    print(f"samples: {counts}", file=sys.stderr)
    record = {"environment": environment(args.workload, args.seed, args.trace, env, size),
              "sample_counts": counts, "setup": setup, "runs": runs}
    end_to_end = {"wall_s": median_of(runs, "wall_s"), "cpu_s": median_of(runs, "cpu_s"),
                  "peak_rss_mb": median_of(runs, "peak_rss_mb"),
                  "setup_s": median_of(setup, "wall_s")}
    record["end_to_end"] = end_to_end
    print(f"end-to-end medians: {end_to_end}", file=sys.stderr)
    if tracer:
        metrics = trace_metrics(tracer, traced, end_to_end["wall_s"], end_to_end["setup_s"],
                                args.workload, record)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end
        units = metric_units("end_to_end")

    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    record["result"] = result
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[kind]}


if __name__ == "__main__":
    sys.exit(main())
