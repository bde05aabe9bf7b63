"""Summarise paired benchmark runs into one committed ``BENCH_<slug>.json``.

    python3 scripts/bench_summary.py --slug ingest_memory \
        --parent p/.bench_out/cmds_ingest-seed901-trace0.json ... \
        --change c/.bench_out/cmds_ingest-seed901-trace0.json ...

Each file is a record that ``perfbench/run.py`` wrote to ``.bench_out/``.
The k-th parent file and the k-th change file form one pair: both must hold
the same workload, seed, trace setting and sizes, so a ``--size tiny``
self-test record never pairs with a full run. For every workload and metric the
summary holds each side's median and quartiles (linear interpolation, as
``statistics.quantiles(..., method="inclusive")``), every value, and how many
pairs the change won, lost and tied, with "better" taken from
``BENCHMARK.json``. It also lists the seeds and git SHAs the records name,
and the runs each side attempted and failed. It decides nothing: no gate or
bound is applied.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _side(records: list[dict]) -> dict:
    return {"git_sha": sorted({str(r["environment"].get("git_sha")) for r in records}),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records)}


def summarise(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """The summary of paired run records, grouped by workload."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent records but {len(change)} change records")
    workloads: dict[str, dict] = {}
    for k, (old, new) in enumerate(zip(parent, change)):
        key = [(r["environment"]["workload"], r["environment"]["seed"],
                r["environment"]["trace"], r["environment"]["sizes"]) for r in (old, new)]
        if key[0] != key[1]:
            raise ValueError(f"pair {k + 1} mixes runs {key[0]} and {key[1]}")
        group = workloads.setdefault(key[0][0], {"pairs": []})
        group["pairs"].append((old, new))

    summary = {}
    for workload, group in sorted(workloads.items()):
        pairs = group["pairs"]
        metrics = {}
        for name, entry in pairs[0][0]["result"]["metrics"].items():
            olds = [old["result"]["metrics"][name]["value"] for old, _ in pairs]
            news = [new["result"]["metrics"][name]["value"] for _, new in pairs]
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            gains = [sign * (b - a) for a, b in zip(olds, news)]
            base, moved = _spread(olds), _spread(news)
            metrics[name] = {
                "unit": entry["unit"],
                "better": better.get(name, "lower"),
                "parent": base,
                "change": moved,
                "change_wins": sum(g > 0 for g in gains),
                "change_losses": sum(g < 0 for g in gains),
                "ties": sum(g == 0 for g in gains),
                "median_change_pct": (100.0 * (moved["median"] - base["median"]) / base["median"]
                                      if base["median"] else None),
            }
        summary[workload] = {
            "pairs": len(pairs),
            "seeds": [old["environment"]["seed"] for old, _ in pairs],
            "trace": pairs[0][0]["environment"]["trace"],
            "parent": _side([old for old, _ in pairs]),
            "change": _side([new for _, new in pairs]),
            "metrics": metrics,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slug", required=True, help="names the output BENCH_<slug>.json")
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--note", default="", help="free text kept in the summary")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for kind in ("end_to_end", "per_layer")
              for m in benchmark[kind]}
    try:
        workloads = summarise([json.loads(p.read_text()) for p in args.parent],
                              [json.loads(p.read_text()) for p in args.change], better)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    out = args.out_dir / f"BENCH_{args.slug}.json"
    out.write_text(json.dumps({"slug": args.slug, "note": args.note, "workloads": workloads},
                              indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
