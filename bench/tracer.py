"""Run-time spans around the public functions of each jetkcc module.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces every binding
of a traced function in every loaded ``jetkcc`` module namespace (the modules
``from .exprlang import differentiate`` and the like, so one function has
several bindings) and wraps four ``InvariantPipeline`` methods.  Each call is
a span; a span's self time is its duration minus the time covered by the
spans it caused.  The tracer's own bookkeeping is charged to no span.

Besides times it records exact counts: calls, pipelines built, non-finite
evaluated values, the node counts of the largest DAG built for each invariant
family through ``InvariantPipeline.expressions`` (by object identity and by
structure), and ``eval_node_visits``, the sum over evaluated expressions of
each one's identity-distinct node count, which is what the tree-walking
evaluator visits.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

import jetkcc.cli  # noqa: F401  (imports every traced module)
from jetkcc import exprlang as ex, kcccore

FAMILIES = ("eps", "P", "R", "B", "D")

# (module, function name, span label); a function may be bound in several
# modules, and every binding is replaced.
FUNCTIONS = (
    ("exprlang", "parse", "exprlang.parse"),
    ("exprlang", "differentiate", "exprlang.differentiate"),
    ("exprlang", "simplify", "exprlang.simplify"),
    ("exprlang", "substitute", "exprlang.substitute"),
    ("exprlang", "evaluate", "exprlang.evaluate"),
    ("exprlang", "evaluate_nested", "exprlang.evaluate_nested"),
    ("jetgeom", "build_affine_system", "jetgeom.build_affine"),
    ("jetgeom", "christoffel_sym", "jetgeom.christoffel"),
    ("kcccore", "jacobi_identity_residual", "kcccore.jacobi_residual"),
    ("kcccore", "sode_residual", "kcccore.sode_residual"),
    ("dtransform", "pushforward_system", "dtransform.pushforward"),
    ("dtransform", "transform_dtensor", "dtransform.transform_dtensor"),
    ("dtransform", "transform_jet_point", "dtransform.transform_point"),
    ("characterize", "extract_structure", "characterize.extract"),
    ("characterize", "star_star_nullspace", "characterize.nullspace"),
    ("cli", "load_problem", "cli.load"),
    ("cli", "load_change", "cli.load"),
    ("cli", "main", "cli.main"),
    ("cli", "render_json", "cli.render"),
)
# recursive functions: only the outermost call is a span
OUTERMOST_ONLY = ("render_json",)
# InvariantPipeline methods; those taking a selector get one label per family
METHODS = (
    ("__init__", "kcccore.pipeline_init", False),
    ("expressions", "kcccore.build", True),
    ("evaluate", "kcccore.eval", True),
    ("evaluate_batch", "kcccore.eval", True),
)


def _children(node) -> tuple:
    if isinstance(node, ex.Binary):
        return (node.left, node.right)
    if isinstance(node, ex.Unary):
        return (node.arg,)
    return ()


def _leaves(nested):
    if isinstance(nested, (tuple, list)):
        for part in nested:
            yield from _leaves(part)
    else:
        yield nested


def identity_nodes(roots) -> int:
    """Number of distinct node objects reachable from the roots."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(_children(node))
    return len(seen)


def structural_nodes(roots) -> int:
    """Number of structurally distinct subexpressions reachable from the
    roots: nodes equal as trees count once."""
    klass: dict[int, int] = {}
    table: dict[tuple, int] = {}
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in klass:
                continue
            kids = _children(node)
            if ready or not kids:
                if isinstance(node, ex.Num):
                    key = ("num", node.value)
                elif isinstance(node, ex.Const):
                    key = ("const", node.name)
                elif isinstance(node, ex.Var):
                    key = ("var", node.vid)
                else:
                    key = (node.op,) + tuple(klass[id(k)] for k in kids)
                klass[id(node)] = table.setdefault(key, len(table))
            else:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in klass)
    return len(table)


def _nonfinite(value) -> int:
    if isinstance(value, np.ndarray):
        return int(np.count_nonzero(~np.isfinite(value)))
    return 0 if math.isfinite(value) else 1


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: time of children
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # id -> [expression, times evaluated]; holding the expression keeps
        # its id from being reused
        self.evaluated: dict[int, list] = {}
        self.nonfinite = 0
        self.families: dict[tuple[int, str], object] = {}
        self.pipelines: list = []
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def _span(self, label, fn, args, kwargs, after=None):
        frame = [0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.self_s[label] = self.self_s.get(label, 0.0) + (end - start - frame[0])
            self.total_s[label] = self.total_s.get(label, 0.0) + (end - start)
            self.calls[label] = self.calls.get(label, 0) + 1
        if after is not None:
            after(result, args)
        if self.stack:
            # the parent's self time excludes this span and its bookkeeping
            self.stack[-1][0] += time.perf_counter() - start
        return result

    def _after_evaluate(self, result, args):
        entry = self.evaluated.setdefault(id(args[0]), [args[0], 0])
        entry[1] += 1
        self.nonfinite += _nonfinite(result)

    def _after_expressions(self, result, args):
        pipe, name = args[0], args[1]
        self.families[(id(pipe), name)] = result

    def _after_init(self, result, args):
        self.pipelines.append(args[0])

    def _wrap(self, label, fn, after=None):
        def traced(*args, **kwargs):
            return self._span(label, fn, args, kwargs, after)

        return traced

    def _wrap_outermost(self, label, fn):
        depth = [0]

        def traced(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return self._span(label, fn, args, kwargs)
            finally:
                depth[0] -= 1

        return traced

    def _wrap_method(self, label, fn, per_family, after):
        def traced(*args, **kwargs):
            name = f"{label}.{args[1]}" if per_family else label
            return self._span(name, fn, args, kwargs, after)

        return traced

    @staticmethod
    def _rebind(old, new, name):
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "jetkcc" or mod_name.startswith("jetkcc.")) and (
                getattr(mod, name, None) is old
            ):
                setattr(mod, name, new)

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        for mod_short, name, label in FUNCTIONS:
            original = getattr(sys.modules[f"jetkcc.{mod_short}"], name)
            if name in OUTERMOST_ONLY:
                wrapper = self._wrap_outermost(label, original)
            else:
                after = self._after_evaluate if name == "evaluate" else None
                wrapper = self._wrap(label, original, after)
            self._rebind(original, wrapper, name)
            self._undo.append((wrapper, original, name))
        afters = {"__init__": self._after_init, "expressions": self._after_expressions}
        cls = kcccore.InvariantPipeline
        for name, label, per_family in METHODS:
            original = cls.__dict__[name]
            wrapper = self._wrap_method(label, original, per_family, afters.get(name))
            setattr(cls, name, wrapper)
            self._undo.append((cls, original, name))

    def uninstall(self) -> None:
        for owner, original, name in reversed(self._undo):
            if isinstance(owner, type):
                setattr(owner, name, original)
            else:
                self._rebind(owner, original, name)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Self and total time and calls per label, plus the exact counts."""
        counts = {
            "exprlang.eval_node_visits": sum(
                times * identity_nodes([e]) for e, times in self.evaluated.values()
            ),
            "exprlang.nonfinite_values": self.nonfinite,
            "kcccore.pipelines_built": len(self.pipelines),
        }
        # per family, the largest DAG any pipeline built through expressions()
        for f in FAMILIES:
            best = (0, 0)
            for (_, name), family in self.families.items():
                if name == f:
                    roots = list(_leaves(family))
                    size = identity_nodes(roots)
                    if size > best[0]:
                        best = (size, structural_nodes(roots))
            counts[f"exprlang.nodes_identity.{f}"] = best[0]
            counts[f"exprlang.nodes_structural.{f}"] = best[1]
        return {
            "self_s": self.self_s,
            "total_s": self.total_s,
            "calls": self.calls,
            "counts": counts,
        }
