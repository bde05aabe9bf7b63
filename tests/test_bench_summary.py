"""``scripts/bench_summary.py`` on a synthetic set of paired run records."""

import json
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"


def _record(workload, seed, sha, wall, rss, failed=0, sizes=None):
    return {"environment": {"workload": workload, "seed": seed, "trace": 0, "git_sha": sha,
                            "sizes": sizes or {"n": 100, "m": 60}},
            "result": {"attempted": 20, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MiB"}}}}


def _write(directory, records):
    paths = []
    for k, record in enumerate(records):
        path = directory / f"{k}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    return paths


def test_medians_quartiles_and_wins(tmp_path):
    main = runpy.run_path(str(SCRIPT))["main"]
    (tmp_path / "p").mkdir()
    (tmp_path / "c").mkdir()
    walls = [1.0, 2.0, 3.0, 4.0, 5.0]
    parent = _write(tmp_path / "p", [_record("w", 900 + k, "aaa", wall, 80.0)
                                     for k, wall in enumerate(walls)])
    change = _write(tmp_path / "c", [_record("w", 900 + k, "bbb", wall - (k != 2) * 0.5,
                                             60.0 + k, failed=k == 4)
                                     for k, wall in enumerate(walls)])
    assert main(["--slug", "demo", "--parent", *parent, "--change", *change,
                 "--out-dir", str(tmp_path)]) == 0

    summary = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert summary["slug"] == "demo"
    group = summary["workloads"]["w"]
    assert group["pairs"] == 5 and group["seeds"] == [900, 901, 902, 903, 904]
    assert group["parent"] == {"git_sha": ["aaa"], "attempted": 100, "failed": 0}
    assert group["change"] == {"git_sha": ["bbb"], "attempted": 100, "failed": 1}
    wall = group["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "values": walls}
    assert wall["change"]["median"] == 3.0 and wall["change"]["q1"] == 1.5
    assert (wall["change_wins"], wall["change_losses"], wall["ties"]) == (4, 0, 1)
    rss = group["metrics"]["peak_rss_mb"]
    assert rss["unit"] == "MiB" and rss["better"] == "lower"
    assert rss["change_wins"] == 5 and rss["median_change_pct"] == pytest.approx(-22.5)


@pytest.mark.parametrize("other", [
    {"seed": 2},
    {"sizes": {"n": 8, "m": 6}},  # a --size tiny self-test record
])
def test_mismatched_pairs_refused(tmp_path, other):
    main = runpy.run_path(str(SCRIPT))["main"]
    parent = _write(tmp_path, [_record("w", 1, "a", 1.0, 1.0)])
    (tmp_path / "c").mkdir()
    change = _write(tmp_path / "c", [_record("w", other.get("seed", 1), "b", 1.0, 1.0,
                                             sizes=other.get("sizes"))])
    assert main(["--slug", "x", "--parent", *parent, "--change", *change,
                 "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "BENCH_x.json").exists()
