"""The benchmark's traced spans must name functions that still exist.

``perfbench/tracing.py`` wraps library functions by name; a renamed target
would only print a warning in a traced run. The file is executed from its
source, so nothing is written next to it.
"""

import runpy
from pathlib import Path

import fmds.cli  # noqa: F401  (loads every module a traced CLI run touches)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    tracing = runpy.run_path(str(TRACING))
    resolve = tracing["_resolve"]
    unresolved = [name for name, module, patterns, _ in tracing["TARGETS"]
                  if not resolve(module, patterns)]
    assert tracing["TARGETS"]
    assert unresolved == []
