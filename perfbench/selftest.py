"""Self-test of the benchmark runner at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload with and without tracing at tiny sizes and asserts that
every metric BENCHMARK.json names is reported with its unit and that no run
failed (error rate 0). It also asserts that the output checks reject a
corrupted output, and that the runner refuses a directory holding only the
benchmark. Named so that the repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_results(bench: dict, workloads: list[str]) -> None:
    for workload in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
            assert result["correct"] is True
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            assert set(result["metrics"]) == set(expected), (workload, kind)
            for name, unit in expected.items():
                metric = result["metrics"][name]
                assert metric["unit"] == unit and isinstance(metric["value"], float), name
            print(f"ok  {workload} trace={trace}: {len(expected)} metrics, "
                  f"{result['attempted']} runs, 0 failed")


def check_checks_reject_corruption(work: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads

    cases = (("fit_adam", "summary.json"), ("cmds_ingest", "coordinates_001.csv"))
    for workload, victim in cases:
        prepared = workloads.PREPARE[workload](work, 7, workloads.SIZES[workload]["tiny"])
        out = work / f"{workload}-out"
        sample = run.run_child(prepared.argv(out), run.child_env(), work)
        assert sample["error"] is None, sample["error"]
        assert prepared.check(out) is None, prepared.check(out)
        path = out / victim
        if victim == "summary.json":
            summary = json.loads(path.read_text())
            summary["final_stress"] *= 1.0 + 1e-6
            path.write_text(json.dumps(summary))
        else:
            lines = path.read_text().splitlines()
            label, x, *rest = lines[2].split(",")
            lines[2] = ",".join([label, repr(float(x) + 1e-6), *rest])
            path.write_text("\n".join(lines) + "\n")
        assert prepared.check(out) is not None, f"{workload}: corrupted {victim} passed"
        print(f"ok  {workload}: corrupted {victim} is rejected")


def check_refuses_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "fit_adam", 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  a directory holding only the benchmark is refused")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert set(names) == set(layer_map["workloads"]), "layers.json workloads"
    assert {m["name"] for m in bench["per_layer"]} == set(layer_map["metrics"]), "layers.json metrics"

    check_results(bench, names)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
    try:
        check_checks_reject_corruption(work)
        check_refuses_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
