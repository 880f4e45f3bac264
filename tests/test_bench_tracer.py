"""Every entry point that ``bench/tracer.py`` wraps must still resolve.

The tracer looks its functions and methods up by name when a traced
benchmark run starts; a rename that misses it would otherwise surface only
there.  The two tables are read from the file's source, not imported.
"""

import ast
import importlib
import pathlib

import pytest

from jetkcc.kcccore import InvariantPipeline

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
