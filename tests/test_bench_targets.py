"""The benchmark's traced spans must name functions that still exist, and a
traced CLI run of each workload kind must enter them.

``perfbench/tracing.py`` wraps library functions by name; a renamed target
would only print a warning in a traced run, and a CLI path that stops
calling a target would only read 0 in its layer metric. The benchmark files
are executed from their source, so nothing is written next to them.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

import fmds.cli  # noqa: F401  (loads every module a traced CLI run touches)
from fmds import io as fmds_io

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# The spans each workload kind's traced run enters, so that the layer
# metrics reading them are nonzero.
ENTERED = {
    "fit_adam": {"io.ingest_tensor", "io.write", "svgplot.render", "bspline.basis_matrix",
                 "fitting.fit", "fitting.init_from_cmds", "fitting.stress",
                 "fitting.evaluate_trajectories"},
    "cmds_ingest": {"io.ingest_tensor", "io.write", "svgplot.render"},
    "panel_corr": {"io.ingest_panel", "dissimilarity.rolling_tensor", "io.write",
                   "svgplot.render", "bspline.basis_matrix", "fitting.fit",
                   "fitting.init_from_cmds", "fitting.stress", "fitting.evaluate_trajectories"},
}
# Known gap: the CLI's blocked CMDS (``cmds._mds_slices``) never calls
# ``classical_mds``, so ``cmds.classical_mds_s`` reads 0 on every workload
# until the span follows the blocked path.
KNOWN_GAPS = {"cmds.classical_mds"}


def test_every_trace_target_resolves():
    tracing = runpy.run_path(str(TRACING))
    resolve = tracing["_resolve"]
    unresolved = [name for name, module, patterns, _ in tracing["TARGETS"]
                  if not resolve(module, patterns)]
    assert tracing["TARGETS"]
    assert unresolved == []


def test_every_target_is_entered_or_a_known_gap():
    targets = {name for name, *_ in runpy.run_path(str(TRACING))["TARGETS"]}
    assert targets == set().union(*ENTERED.values()) | KNOWN_GAPS
    assert not KNOWN_GAPS & set().union(*ENTERED.values())


@pytest.mark.parametrize("workload", sorted(ENTERED))
def test_traced_run_enters_its_spans(tmp_path, workload):
    tracing = runpy.run_path(str(TRACING))
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    work = tmp_path / "work"
    work.mkdir()
    prepared = workloads["PREPARE"][workload](work, 3, workloads["SIZES"][workload]["tiny"])
    tracer = tracing["Tracer"]()
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert tracer.run(0, fmds.cli.main, prepared.argv(out)) == 0
    assert prepared.check(out) is None
    assert tracer.missing == []
    entered = {span["name"] for span in tracer.spans} - {tracing["ROOT_SPAN"]}
    assert entered == ENTERED[workload]
    metrics = tracing["layer_metrics"](tracer.spans, tracer.counts[0], 1.0, 0.0)
    assert [name for name in entered if not metrics[name + "_s"] > 0] == []
    if "fitting.fit" in entered:
        # fitting.adam_s subtracts, and fitting.stress_s averages over, the
        # initial stress and one per epoch
        stress_calls = sum(span["name"] == "fitting.stress" for span in tracer.spans)
        assert stress_calls == metrics["fitting.epochs_run"] + 1 > 1
    for gap in KNOWN_GAPS:
        assert metrics[gap + "_s"] == 0


@pytest.mark.parametrize("workload", ["fit_adam", "cmds_ingest"])
@pytest.mark.parametrize("seed", [1, 7])
def test_tensor_inputs_stream(tmp_path, monkeypatch, workload, seed):
    """The benchmark's tensor files are in write order and stream into their
    tensor; a change that sent them to the line scan would change what the
    benchmark's ingest measures."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    prepare = workloads["PREPARE"][workload]
    made = []
    generate = prepare.__globals__["generate"]
    monkeypatch.setitem(prepare.__globals__, "generate",
                        lambda *a, **k: made.append(generate(*a, **k)) or made[-1])
    argv = prepare(tmp_path, seed, workloads["SIZES"][workload]["tiny"]).argv(tmp_path / "out")
    (_, tensor, _), = made

    def refuse(*args):
        raise AssertionError("read by the line scan")

    monkeypatch.setattr(fmds_io, "_text_lines", refuse)
    monkeypatch.setattr(fmds_io, "_records", refuse)
    back = fmds_io.ingest_tensor(argv[argv.index("--input") + 1])
    assert back.time_grid.tobytes() == tensor.time_grid.tobytes()
    assert back.stacked().tobytes() == tensor.stacked().tobytes()
