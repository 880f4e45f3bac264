"""Every entry point that ``bench/tracer.py`` wraps must still resolve, and
every span a benchmark workload declares must fire.

The tracer looks its functions and methods up by name when a traced
benchmark run starts; a rename that misses it, or a caller that stops going
through a traced function, would otherwise surface only there.  The two
tables are read from the file's source, not imported; the workloads are run
once each, traced, in this process.
"""

import ast
import importlib
import pathlib
import sys

import pytest

import jetkcc.cli as cli
from jetkcc.kcccore import InvariantPipeline

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                out[name] = ast.literal_eval(node.value)
    return out


TABLES = _tables()


def test_tracer_tables_are_found():
    assert set(TABLES) == {"FUNCTIONS", "METHODS"}
    assert TABLES["FUNCTIONS"] and TABLES["METHODS"]


@pytest.mark.parametrize(
    "module, name", [(mod, name) for mod, name, _ in TABLES["FUNCTIONS"]]
)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"jetkcc.{module}"), name))


@pytest.mark.parametrize("name", [name for name, _, _ in TABLES["METHODS"]])
def test_traced_pipeline_method_resolves(name):
    # the tracer replaces the method in the class's own namespace
    assert callable(InvariantPipeline.__dict__[name])


def _bench_modules():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
        import tracer
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return run, tracer


@pytest.mark.parametrize(
    "workload", ["problems-sweep", "pushforward-transform", "jacobi-scan"]
)
def test_every_declared_span_fires(workload, tmp_path, monkeypatch):
    run, tracer = _bench_modules()
    monkeypatch.chdir(ROOT)  # the workloads name their inputs from the root
    trace = tracer.Tracer()
    trace.install()  # rebinds cli.main, so it is called through the module
    try:
        codes = [
            cli.main(cmd.argv + ["--out", str(tmp_path / f"cmd{k}.json")])
            for k, cmd in enumerate(run.WORKLOADS[workload].commands(0))
        ]
    finally:
        trace.uninstall()
    assert codes == [0] * len(codes)
    summary = trace.summary()
    silent = [s for s in run.WORKLOADS[workload].spans if not summary["calls"].get(s)]
    assert not silent, f"declared spans never fired: {silent}"
    assert summary["counts"]["exprlang.nonfinite_values"] == 0
