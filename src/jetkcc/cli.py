"""Command-line front end: JSON problem files in, deterministic JSON reports out.

A problem file describes dimensions, metrics, and a second-order system
(explicit components or a builder recipe), plus optional evaluation points
and section/variation data.  Every command loads such a file, runs one
computation or consistency check, and emits a machine-readable report whose
bytes depend only on (input files, seed, command, tool version).

Exit codes: 0 all checks passed, 1 a check failed, 2 bad input,
3 numeric degeneracy (singular metric or Jacobian) or an out-of-domain
evaluation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import exprlang as ex
from .exprlang import Expression, differentiate
from .jetgeom import (
    MAX_DIM,
    DegenerateMetricError,
    JetPointSet,
    MetricField,
    PdeSystem,
    batch_bindings,
    build_affine_system,
    build_first_order_system,
    point_set,
    sample_jet_points,
)
from .kcccore import (
    INVARIANT_NAMES,
    InvariantPipeline,
    SectionMap,
    SectionNotSolutionError,
    VariationField,
    invariant_slots,
    jacobi_identity_residual,
)
from .dtransform import CoordinateChange, SingularJacobianError, two_path_invariants
from .characterize import (
    HYPOTHESIS_TOL,
    HypothesisViolationError,
    NotVelocityQuadraticError,
    extract_structure,
    star_star_nullspace,
    temporal_pairs,
)

DEFAULT_SAMPLES = 20
DEFAULT_SEED = 0
DEFAULT_T_BOX = (-1.0, 1.0)
DEFAULT_X_BOX = (-1.0, 1.0)
DEFAULT_V_BOX = (-2.0, 2.0)
REBUILD_TOL = 1e-8


class InputError(ValueError):
    """Problem- or change-file content that fails validation; exit code 2."""


def _fail(path: str, msg: str):
    raise InputError(f"{path}: {msg}")


# ---------------------------------------------------------------------------
# JSON reading (duplicate keys rejected, parse errors carry position)
# ---------------------------------------------------------------------------


def _no_duplicate_pairs(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"duplicate key '{key}' in JSON object")
        out[key] = value
    return out


def _read_json(path: str):
    """Return (parsed document, sha256 hex digest of the raw bytes)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read '{path}': {err}") from err
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"'{path}' is not UTF-8: {err}") from err
    try:
        doc = json.loads(text, object_pairs_hook=_no_duplicate_pairs)
    except json.JSONDecodeError as err:
        raise InputError(
            f"'{path}' is not valid JSON: {err.msg} "
            f"(line {err.lineno}, column {err.colno})"
        ) from err
    return doc, digest


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


def _require_dict(obj, path, allowed=None):
    if not isinstance(obj, dict):
        _fail(path, "expected a JSON object")
    if allowed is not None:
        for key in obj:
            if key not in allowed:
                _fail(f"{path}.{key}", "unknown key")
    return obj


def _require_list(obj, path, length=None):
    if not isinstance(obj, list):
        _fail(path, "expected a JSON array")
    if length is not None and len(obj) != length:
        _fail(path, f"expected exactly {length} entries, got {len(obj)}")
    return obj


def _require_int(obj, path, low=None, high=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, "expected an integer")
    if low is not None and not low <= obj <= high:
        _fail(path, f"must be between {low} and {high}, got {obj}")
    return obj


def _require_float(obj, path):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, "expected a number")
    try:
        value = float(obj)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value}")
    return value


def _parse_expr(obj, m, n, path) -> Expression:
    if not isinstance(obj, str):
        _fail(path, "expected an expression string")
    try:
        return ex.parse(obj, m, n)
    except ex.ParseError as err:
        _fail(path, f"bad expression: {err}")


def _parse_box(obj, path):
    vals = _require_list(obj, path, length=2)
    lo = _require_float(vals[0], f"{path}[0]")
    hi = _require_float(vals[1], f"{path}[1]")
    if not lo < hi:
        _fail(path, f"box bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        _fail(path, f"box width hi - lo must be finite, got [{lo}, {hi}]")
    return (lo, hi)


def _load_metric(rows_obj, path, m, n, dim, factory):
    rows = _require_list(rows_obj, path, length=dim)
    parsed = []
    for a, row in enumerate(rows):
        row = _require_list(row, f"{path}[{a}]", length=dim)
        parsed.append(
            tuple(
                _parse_expr(entry, m, n, f"{path}[{a}][{b}]")
                for b, entry in enumerate(row)
            )
        )
    try:
        return factory(tuple(parsed))
    except ValueError as err:
        _fail(path, str(err))


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "m",
    "n",
    "temporal_metric",
    "spatial_metric",
    "system",
    "points",
    "section",
    "variation",
    "sample_box",
}


@dataclass(frozen=True)
class ProblemFile:
    """A validated problem: dimensions, metrics, system, optional extras."""

    m: int
    n: int
    h: MetricField
    phi: MetricField | None
    system: PdeSystem
    points: JetPointSet | None  # when given in-file
    section: SectionMap | None
    variation: VariationField | None
    t_box: tuple[float, float]
    x_box: tuple[float, float]
    v_box: tuple[float, float]
    sha256: str


def _load_system(obj, m, n, phi, h) -> PdeSystem:
    sys_obj = _require_dict(obj, "system")
    if "F" in sys_obj:
        _require_dict(sys_obj, "system", allowed={"F"})
        entries = _require_list(sys_obj["F"], "system.F")
        upper: dict[tuple[int, int, int], Expression] = {}
        for k, entry in enumerate(entries):
            path = f"system.F[{k}]"
            entry = _require_dict(entry, path, allowed={"i", "alpha", "beta", "expr"})
            for key in ("i", "alpha", "beta", "expr"):
                if key not in entry:
                    _fail(path, f"missing key '{key}'")
            i = _require_int(entry["i"], f"{path}.i", 1, n)
            a = _require_int(entry["alpha"], f"{path}.alpha", 1, m)
            b = _require_int(entry["beta"], f"{path}.beta", 1, m)
            e = _parse_expr(entry["expr"], m, n, f"{path}.expr")
            key3 = (i, min(a, b), max(a, b))
            if key3 in upper:
                _fail(
                    path,
                    f"duplicate coverage of component (i={key3[0]}, "
                    f"alpha={key3[1]}, beta={key3[2]})",
                )
            upper[key3] = e
        want = {
            (i, a, b)
            for i in range(1, n + 1)
            for a in range(1, m + 1)
            for b in range(a, m + 1)
        }
        missing = sorted(want - set(upper))
        if missing:
            _fail(
                "system.F",
                f"missing components {missing[:4]} "
                "(every (i, alpha <= beta) must appear exactly once)",
            )
        return PdeSystem.from_upper(m, n, upper)

    kind = sys_obj.get("type")
    if kind == "affine":
        _require_dict(sys_obj, "system", allowed={"type"})
        if phi is None:
            _fail("system", "the affine builder requires spatial_metric")
        return build_affine_system(h, phi)
    if kind == "first_order":
        _require_dict(sys_obj, "system", allowed={"type", "X", "symmetrize"})
        entries = _require_list(sys_obj.get("X"), "system.X")
        table: dict[tuple[int, int], Expression] = {}
        for k, entry in enumerate(entries):
            path = f"system.X[{k}]"
            entry = _require_dict(entry, path, allowed={"i", "alpha", "expr"})
            for key in ("i", "alpha", "expr"):
                if key not in entry:
                    _fail(path, f"missing key '{key}'")
            i = _require_int(entry["i"], f"{path}.i", 1, n)
            a = _require_int(entry["alpha"], f"{path}.alpha", 1, m)
            if (i, a) in table:
                _fail(path, f"duplicate flow component (i={i}, alpha={a})")
            table[(i, a)] = _parse_expr(entry["expr"], m, n, f"{path}.expr")
        symmetrize = sys_obj.get("symmetrize", False)
        if not isinstance(symmetrize, bool):
            _fail("system.symmetrize", "expected true or false")
        try:
            return build_first_order_system(table, m, n, symmetrize=symmetrize)
        except ValueError as err:
            _fail("system.X", str(err))
    _fail("system", "must contain 'F' or 'type' in {'affine', 'first_order'}")


def _load_points(obj, m, n) -> JetPointSet:
    entries = _require_list(obj, "points")
    if not entries:
        _fail("points", "must contain at least one point")
    ts, xs, vs = [], [], []
    for k, entry in enumerate(entries):
        path = f"points[{k}]"
        entry = _require_dict(entry, path, allowed={"t", "x", "v"})
        for key in ("t", "x", "v"):
            if key not in entry:
                _fail(path, f"missing key '{key}'")
        t = [
            _require_float(u, f"{path}.t[{a}]")
            for a, u in enumerate(_require_list(entry["t"], f"{path}.t", length=m))
        ]
        x = [
            _require_float(u, f"{path}.x[{i}]")
            for i, u in enumerate(_require_list(entry["x"], f"{path}.x", length=n))
        ]
        vrows = _require_list(entry["v"], f"{path}.v", length=n)
        v = [
            [
                _require_float(u, f"{path}.v[{i}][{a}]")
                for a, u in enumerate(
                    _require_list(row, f"{path}.v[{i}]", length=m)
                )
            ]
            for i, row in enumerate(vrows)
        ]
        ts.append(t)
        xs.append(x)
        vs.append(v)
    return JetPointSet(
        np.array(ts).T, np.array(xs).T, np.moveaxis(np.array(vs), 0, -1)
    )


def _load_t_curves(obj, m, n, path, factory):
    entries = _require_list(obj, path, length=n)
    comps = tuple(
        _parse_expr(entry, m, n, f"{path}[{i}]") for i, entry in enumerate(entries)
    )
    try:
        return factory(m, comps)
    except ValueError as err:
        _fail(path, str(err))


def load_problem(path: str) -> ProblemFile:
    """Read, validate, and assemble a problem file."""
    doc, digest = _read_json(path)
    root = _require_dict(doc, "<root>", allowed=_TOP_KEYS)
    for key in ("m", "n", "temporal_metric", "system"):
        if key not in root:
            _fail("<root>", f"missing key '{key}'")
    m = _require_int(root["m"], "m", 1, MAX_DIM)
    n = _require_int(root["n"], "n", 1, MAX_DIM)
    h = _load_metric(
        root["temporal_metric"], "temporal_metric", m, n, m, MetricField.temporal
    )
    phi = None
    if "spatial_metric" in root:
        phi = _load_metric(
            root["spatial_metric"], "spatial_metric", m, n, n, MetricField.spatial
        )
    system = _load_system(root["system"], m, n, phi, h)
    points = _load_points(root["points"], m, n) if "points" in root else None
    section = None
    if "section" in root:
        section = _load_t_curves(root["section"], m, n, "section", SectionMap)
    variation = None
    if "variation" in root:
        variation = _load_t_curves(
            root["variation"], m, n, "variation", VariationField
        )
    t_box, x_box, v_box = DEFAULT_T_BOX, DEFAULT_X_BOX, DEFAULT_V_BOX
    if "sample_box" in root:
        box = _require_dict(root["sample_box"], "sample_box", allowed={"t", "x", "v"})
        if "t" in box:
            t_box = _parse_box(box["t"], "sample_box.t")
        if "x" in box:
            x_box = _parse_box(box["x"], "sample_box.x")
        if "v" in box:
            v_box = _parse_box(box["v"], "sample_box.v")
    return ProblemFile(
        m=m,
        n=n,
        h=h,
        phi=phi,
        system=system,
        points=points,
        section=section,
        variation=variation,
        t_box=t_box,
        x_box=x_box,
        v_box=v_box,
        sha256=digest,
    )


def load_change(path: str, m: int, n: int) -> tuple[CoordinateChange, str]:
    """Read a coordinate-change file (four expression lists) for given dims."""
    doc, digest = _read_json(path)
    keys = {"t_forward", "x_forward", "t_inverse", "x_inverse"}
    root = _require_dict(doc, "<root>", allowed=keys)
    for key in keys:
        if key not in root:
            _fail("<root>", f"missing key '{key}'")
    lists = {}
    for key in ("t_forward", "t_inverse"):
        entries = _require_list(root[key], key, length=m)
        lists[key] = tuple(
            _parse_expr(entry, m, n, f"{key}[{k}]")
            for k, entry in enumerate(entries)
        )
    for key in ("x_forward", "x_inverse"):
        entries = _require_list(root[key], key, length=n)
        lists[key] = tuple(
            _parse_expr(entry, m, n, f"{key}[{k}]")
            for k, entry in enumerate(entries)
        )
    try:
        cc = CoordinateChange(
            m,
            n,
            lists["t_forward"],
            lists["x_forward"],
            lists["t_inverse"],
            lists["x_inverse"],
        )
    except ValueError as err:
        _fail("<root>", str(err))
    return cc, digest


# ---------------------------------------------------------------------------
# report serialization: 17 significant digits, fixed key order
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'  # keep the report valid JSON even off the happy path
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _inline(parts: list) -> str:
    return "[" + ", ".join(parts) + "]"


def _broken(parts: list, indent: int, brackets: str = "[]") -> str:
    inner = "  " * (indent + 1)
    body = (",\n" + inner).join(parts)
    return f"{brackets[0]}\n{inner}{body}\n{'  ' * indent}{brackets[1]}"


def _list_layout(parts: list, indent: int) -> str:
    """Rendered items as one JSON array: inline when there are at most 12
    and each is one line shorter than 25 characters, else one per line."""
    if len(parts) <= 12 and all("\n" not in p and len(p) < 25 for p in parts):
        return _inline(parts)
    return _broken(parts, indent)


@functools.lru_cache(maxsize=64)
def _row_template(size: int, indent: int) -> str:
    """``_list_layout`` of ``size`` finite floats as a ``%`` template
    (``"%.17g" % x`` is ``format(x, ".17g")``): a finite float takes at
    most 24 characters at 17 digits, so the layout depends on the count
    alone."""
    return _list_layout(["%.17g"] * size, indent)


@functools.lru_cache(maxsize=64)
def _zero_row(size: int, indent: int) -> str:
    """``_row_template`` filled with ``size`` zeros."""
    return _row_template(size, indent) % ((0.0,) * size)


def _render_row(row: np.ndarray, indent: int) -> str:
    """A 1-D float array, as ``render_json`` renders the list of its values."""
    if not row.any() and not np.signbit(row).any():  # all +0.0, so no -0
        return _zero_row(row.size, indent)
    if np.isfinite(row).all():
        return _row_template(row.size, indent) % tuple(row.tolist())
    return _list_layout([_fmt_float(u) for u in row.tolist()], indent)


def _render_points(points: JetPointSet, indent: int) -> str:
    """A point set, as ``render_json`` renders the list of its points as
    ``{"t": [...], "x": [...], "v": [[...], ...]}`` dicts, formatted from
    the stacks.  t and x are always inline: they hold at most 4 floats, and
    a float at 17 digits is at most 24 characters.  A point's v is inline
    unless one of its rows, ``"[" + ", ".join(parts) + "]"``, is 25
    characters or longer."""
    m, n, count = points.m, points.n, len(points)
    cols = np.concatenate([points.t, points.x, points.v.reshape(n * m, count)]).T
    flat = cols.ravel().tolist()
    if np.isfinite(cols).all():
        strs = ("\n".join(["%.17g"] * len(flat)) % tuple(flat)).split("\n")
    else:
        strs = [_fmt_float(u) for u in flat]
    lens = np.array(list(map(len, strs))).reshape(cols.shape)[:, m + n :]
    broken = (lens.reshape(count, n, m).sum(axis=2) + 2 * m >= 25).any(axis=1)
    key = "  " * (indent + 2)
    rows = [_inline(["%s"] * m)] * n
    templates = [
        "{\n"
        + f'{key}"t": {_inline(["%s"] * m)},\n'
        + f'{key}"x": {_inline(["%s"] * n)},\n'
        + f'{key}"v": {v}\n'
        + "  " * (indent + 1)
        + "}"
        for v in (_inline(rows), _broken(rows, indent + 2))
    ]
    return _list_layout([templates[b] for b in broken.tolist()], indent) % tuple(strs)


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON text: floats at 17 significant digits, dicts in
    insertion order (construction order is itself deterministic).  A 1-D
    float array renders as the list of its values, and a JetPointSet as the
    list of its points' {"t", "x", "v"} dicts."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return _list_layout([render_json(v, indent + 1) for v in value], indent)
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        return _render_row(value, indent)
    if isinstance(value, JetPointSet):
        return _render_points(value, indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return _broken(parts, indent, "{}")
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _emit(report: dict, out_path: str | None) -> None:
    text = render_json(report) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _envelope(command: str, problem_sha: str) -> dict:
    return {
        "tool": "jetkcc",
        "version": __version__,
        "command": command,
        "input_sha256": problem_sha,
    }


def _slot_labels(name: str) -> list:
    return [
        f"{s.kind}-{'up' if s.upper else 'down'}" for s in invariant_slots(name)
    ]


def _check(name: str, value: float, tolerance: float) -> dict:
    """One check row; it passes when value <= tolerance, so a nan fails."""
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "pass": value <= tolerance,
    }


def _finish_checks(report: dict, checks: list) -> int:
    """Attach check rows, print the first failure, return the exit code."""
    report["checks"] = checks
    ok = all(c["pass"] for c in checks)
    report["pass"] = ok
    if not ok:
        first = next(c for c in checks if not c["pass"])
        print(
            f"check failed: {first['name']} "
            f"(value {first['value']:.3e} > tolerance {first['tolerance']:.3e})",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# point selection
# ---------------------------------------------------------------------------


def _select_points(problem: ProblemFile, args) -> tuple[JetPointSet, dict]:
    """Points for a command: --points file, --samples/--seed, in-file points,
    or default sampling — in that order of precedence."""
    points_file = getattr(args, "points", None)
    if points_file is not None:
        doc, digest = _read_json(points_file)
        if isinstance(doc, dict):
            doc = _require_dict(doc, "<root>", allowed={"points"}).get("points")
        pts = _load_points(doc, problem.m, problem.n)
        meta = {
            "source": "file",
            "points_sha256": digest,
            "count": len(pts),
            "seed": None,
        }
        return pts, meta
    if args.samples is not None or problem.points is None:
        count = args.samples if args.samples is not None else DEFAULT_SAMPLES
        seed = args.seed
        pts = sample_jet_points(
            problem.m,
            problem.n,
            count,
            seed=seed,
            t_box=problem.t_box,
            x_box=problem.x_box,
            v_box=problem.v_box,
        )
        return pts, {"source": "samples", "count": count, "seed": seed}
    pts = problem.points
    return pts, {"source": "problem-file", "count": len(pts), "seed": None}


# ---------------------------------------------------------------------------
# command: invariants
# ---------------------------------------------------------------------------


def _parse_which(text: str) -> list:
    names = [w.strip() for w in text.split(",") if w.strip()]
    if not names:
        raise InputError("--which: no invariant selectors given")
    for name in names:
        if name not in INVARIANT_NAMES:
            raise InputError(
                f"--which: unknown selector '{name}' "
                f"(choose from {', '.join(INVARIANT_NAMES)})"
            )
    if len(set(names)) != len(names):
        raise InputError("--which: selectors must not repeat")
    return names


def run_invariants(problem: ProblemFile, points, which: list) -> dict:
    """Evaluate the selected invariants at every point; structural zeros are
    reported exactly, without evaluation.  Each component's values are a
    1-D array over the points.  A non-finite component raises
    EvaluationError naming the selector, the component, the point and the
    subexpression where the value first turns non-finite."""
    points = point_set(points)
    pipe = InvariantPipeline(problem.system, problem.h)
    # every family built before the first evaluate_batch: they are one tape
    families = {name: pipe.expressions(name) for name in which}
    blocks = []
    for name in which:
        entry = {"name": name, "slots": _slot_labels(name)}
        if ex.all_zero(families[name]):
            entry["structural_zero"] = True
            entry["max_abs"] = 0.0
            entry["components"] = []
        else:
            grid = pipe.evaluate_batch(name, points)
            bad = np.argwhere(~np.isfinite(grid))
            if bad.size:
                *idx, k = bad[0]
                leaf = families[name]
                for u in idx:
                    leaf = leaf[u]
                origin = ex.nonfinite_origin(leaf, batch_bindings(points))
                raise ex.EvaluationError(
                    f"invariant {name}: component {[int(u) + 1 for u in idx]} "
                    f"is {grid[tuple(bad[0])]} at point {k + 1} of {len(points)}",
                    expression=origin,
                )
            entry["structural_zero"] = False
            entry["max_abs"] = float(np.max(np.abs(grid)))
            entry["components"] = [
                {"index": [k + 1 for k in idx], "values": grid[idx]}
                for idx in np.ndindex(grid.shape[:-1])
            ]
        blocks.append(entry)
    return {"invariants": blocks}


def _cmd_invariants(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    which = _parse_which(args.which)
    points, meta = _select_points(problem, args)
    report = _envelope("invariants", problem.sha256)
    report["m"], report["n"] = problem.m, problem.n
    report["which"] = which
    report["seed"] = meta["seed"]
    report["points"] = dict(meta, values=points)
    report.update(run_invariants(problem, points, which))
    report["checks"] = []
    report["pass"] = True
    return report, 0


# ---------------------------------------------------------------------------
# command: check transform
# ---------------------------------------------------------------------------


def _scaled_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max(1, |a|, |b|), elementwise then maximized over all
    components and points at once; a nan anywhere makes the result nan, which
    fails every ``<= tol`` test."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf gives that nan
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        return float(np.max(np.abs(a - b) / scale))


def _cmd_check_transform(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    cc, change_sha = load_change(args.change, problem.m, problem.n)
    points, meta = _select_points(problem, args)
    paths = two_path_invariants(
        problem.system, problem.h, cc, points, INVARIANT_NAMES
    )
    checks = [
        _check(
            f"invariant {name} transforms as a d-tensor",
            _scaled_deviation(pushed, direct),
            args.tol,
        )
        for name, (pushed, direct) in paths.items()
    ]

    report = _envelope("check transform", problem.sha256)
    report["change_sha256"] = change_sha
    report["m"], report["n"] = problem.m, problem.n
    report["seed"] = meta["seed"]
    report["samples"] = meta["count"]
    report["tolerance"] = args.tol
    code = _finish_checks(report, checks)
    return report, code


# ---------------------------------------------------------------------------
# command: check fd
# ---------------------------------------------------------------------------


def _cmd_check_fd(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    points, meta = _select_points(problem, args)
    step = args.step
    base = batch_bindings(points)

    checks = []
    for i in range(1, problem.n + 1):
        for a in range(1, problem.m + 1):
            for b in range(a, problem.m + 1):
                comp = problem.system.component(i, a, b)
                for vid in sorted(ex.free_variables(comp), key=lambda u: u.name):
                    sym = np.asarray(
                        ex.evaluate(differentiate(comp, vid), base)
                    )
                    center = base.values[vid]
                    hi = ex.evaluate(comp, base.with_value(vid, center + step))
                    lo = ex.evaluate(comp, base.with_value(vid, center - step))
                    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
                        fd = (np.asarray(hi) - np.asarray(lo)) / (2.0 * step)
                    checks.append(
                        _check(
                            f"dF[{i},{a},{b}]/d{vid.name} vs central FD",
                            _scaled_deviation(sym, fd),
                            args.tol,
                        )
                    )

    report = _envelope("check fd", problem.sha256)
    report["m"], report["n"] = problem.m, problem.n
    report["seed"] = meta["seed"]
    report["samples"] = meta["count"]
    report["step"] = step
    report["tolerance"] = args.tol
    report["max_deviation"] = float(
        np.max([c["value"] for c in checks], initial=0.0)
    )
    code = _finish_checks(report, checks)
    return report, code


# ---------------------------------------------------------------------------
# command: characterize
# ---------------------------------------------------------------------------


def _coordinates(text: str, count: int, option: str, order: str = "") -> np.ndarray:
    """``count`` comma-separated finite numbers given to ``option``."""
    parts = [w.strip() for w in text.split(",")]
    if len(parts) != count:
        raise InputError(
            f"{option}: expected {count} comma-separated numbers{order}, "
            f"got {len(parts)}"
        )
    try:
        vals = [float(w) for w in parts]
    except ValueError as err:
        raise InputError(f"{option}: {err}") from err
    for word, value in zip(parts, vals):
        if not math.isfinite(value):
            raise InputError(f"{option}: {word!r} is not a finite number")
    return np.array(vals)


def _cmd_characterize(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    m, n = problem.m, problem.n
    base = _coordinates(args.base, m + n, "--base", " (t then x)")
    t, x = base[:m], base[m:]
    gamma, coupling, diag = extract_structure(
        problem.system, problem.h, t, x
    )

    gamma_rows = [
        {"index": [i + 1, p + 1, q + 1], "value": float(gamma[i, p, q])}
        for i in range(n)
        for p in range(n)
        for q in range(p, n)
    ]
    coupling_rows = [
        {
            "index": [i + 1, a + 1, v + 1, p + 1, q + 1],
            "value": float(coupling[i, a, v, p, q]),
        }
        for i in range(n)
        for a in range(m)
        for v in range(m)
        if a != v
        for p in range(n)
        for q in range(n)
        if p != q
    ]
    checks = [
        _check(
            "first invariant vanishes at probe velocities",
            diag.eps_max,
            HYPOTHESIS_TOL,
        ),
        _check(
            "quadratic coefficients rebuild the system",
            diag.rebuild_residual,
            REBUILD_TOL,
        ),
    ]

    report = _envelope("characterize", problem.sha256)
    report["m"], report["n"] = m, n
    report["base"] = {"t": [float(u) for u in t], "x": [float(u) for u in x]}
    report["spatial_coefficients"] = gamma_rows
    report["coupling_coefficients"] = coupling_rows
    report["diagnostics"] = {
        "fifth_invariant_max_abs": diag.fifth_max,
        "first_invariant_max_abs": diag.eps_max,
        "temporal_symmetry_residual": diag.symmetry_residual,
        "constant_part_max_abs": diag.constant_max,
        "linear_part_residual": diag.linear_residual,
        "spatial_coefficient_spread": diag.gamma_spread,
        "rebuild_residual": diag.rebuild_residual,
    }
    code = _finish_checks(report, checks)
    return report, code


# ---------------------------------------------------------------------------
# command: nullspace
# ---------------------------------------------------------------------------


def _cmd_nullspace(args) -> tuple[dict, int]:
    doc, digest = _read_json(args.metric)
    root = _require_dict(doc, "<root>", allowed={"m", "temporal_metric"})
    if "temporal_metric" not in root:
        _fail("<root>", "missing key 'temporal_metric'")
    rows = _require_list(root["temporal_metric"], "temporal_metric")
    m = len(rows)
    if "m" in root:
        m = _require_int(root["m"], "m", 1, MAX_DIM)
    if args.m is not None:
        if "m" in root and args.m != m:
            _fail("m", f"--m {args.m} contradicts the file's m = {m}")
        m = args.m
    h = _load_metric(rows, "temporal_metric", m, 1, m, MetricField.temporal)
    t = _coordinates(args.t, m, "--t")

    try:
        result = star_star_nullspace(h, t)
    except (DegenerateMetricError, ex.EvaluationError):
        raise
    except ValueError as err:  # e.g. a single time: no constraint system
        raise InputError(str(err)) from err

    report = _envelope("nullspace", digest)
    report["m"] = m
    report["t"] = [float(u) for u in t]
    report["unknown_pairs"] = [list(p) for p in temporal_pairs(m)]
    report["dimension"] = result.dimension
    report["singular_values"] = [float(s) for s in result.singular_values]
    report["basis"] = [
        {
            "components": [float(u) for u in vec],
            "residual": result.residual(vec),
        }
        for vec in result.basis
    ]
    report["zero_vector_residual"] = result.residual(
        np.zeros(len(result.pairs))
    )
    report["caveat"] = result.caveat
    if result.caveat:
        report["caveat_note"] = (
            "with two times the constraints only force antisymmetry, so a "
            "one-dimensional family always exists; dimension counts for "
            "m = 2 say nothing about larger m"
        )
    report["checks"] = []
    report["pass"] = True
    return report, 0


# ---------------------------------------------------------------------------
# command: check jacobi
# ---------------------------------------------------------------------------


def _cmd_check_jacobi(args) -> tuple[dict, int]:
    problem = load_problem(args.problem)
    if problem.section is None or problem.variation is None:
        raise InputError(
            "check jacobi requires 'section' and 'variation' entries "
            "in the problem file"
        )
    count = args.samples if args.samples is not None else DEFAULT_SAMPLES
    rng = np.random.default_rng(args.seed)
    lo, hi = problem.t_box
    t_points = rng.uniform(lo, hi, size=(count, problem.m))

    resid = jacobi_identity_residual(
        problem.system, problem.h, problem.section, problem.variation, t_points.T
    )
    rows = [
        {"t": [float(u) for u in t], "residual": [float(u) for u in r]}
        for t, r in zip(t_points, resid.T)
    ]
    worst = float(np.max(np.abs(resid)))
    report = _envelope("check jacobi", problem.sha256)
    report["m"], report["n"] = problem.m, problem.n
    report["seed"] = args.seed
    report["samples"] = count
    report["tolerance"] = args.tol
    report["points"] = rows
    checks = [_check("deviation form of the variational equations", worst, args.tol)]
    code = _finish_checks(report, checks)
    return report, code


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low`` (else a usage error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _step_size(text: str) -> float:
    """``--step`` value: finite and greater than 0 (else a usage error)."""
    step = _finite_float(text)
    if not step > 0.0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text!r}")
    return step


def _tolerance(text: str) -> float:
    """``--tol`` value: finite and at least 0 (else a usage error)."""
    tol = _finite_float(text)
    if tol < 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return tol


def _add_sampling(parser, default_samples=None):
    parser.add_argument(
        "--samples",
        type=_int_at_least(1),
        default=default_samples,
        metavar="N",
        help="number of random jet points to draw",
    )
    parser.add_argument(
        "--seed",
        type=_int_at_least(0),
        default=DEFAULT_SEED,
        metavar="S",
        help="rng seed for sampling (always recorded in the report)",
    )


def _add_out(parser):
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report here instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetkcc",
        description=(
            "Evaluate invariants of second-order PDE systems on multi-time "
            "jet spaces and run consistency checks, from JSON problem files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inv = sub.add_parser(
        "invariants", help="evaluate invariants at jet points"
    )
    inv.add_argument("problem", help="problem JSON file")
    inv.add_argument(
        "--which",
        default=",".join(INVARIANT_NAMES),
        help="comma-separated selectors from eps,P,R,B,D (default: all)",
    )
    inv.add_argument(
        "--points", default=None, metavar="FILE", help="JSON file of jet points"
    )
    _add_sampling(inv)
    _add_out(inv)
    inv.set_defaults(handler=_cmd_invariants)

    chk = sub.add_parser("check", help="consistency checks")
    chk_sub = chk.add_subparsers(dest="check_command", required=True)

    tr = chk_sub.add_parser(
        "transform", help="two-path tensor-law check under a coordinate change"
    )
    tr.add_argument("problem", help="problem JSON file")
    tr.add_argument("change", help="coordinate-change JSON file")
    _add_sampling(tr)
    tr.add_argument("--tol", type=_tolerance, default=1e-6, help="pass tolerance")
    _add_out(tr)
    tr.set_defaults(handler=_cmd_check_transform)

    fd = chk_sub.add_parser(
        "fd", help="symbolic derivatives of F vs central finite differences"
    )
    fd.add_argument("problem", help="problem JSON file")
    fd.add_argument(
        "--step", type=_step_size, default=1e-5, help="finite-difference step"
    )
    fd.add_argument("--tol", type=_tolerance, default=1e-5, help="pass tolerance")
    _add_sampling(fd)
    _add_out(fd)
    fd.set_defaults(handler=_cmd_check_fd)

    jac = chk_sub.add_parser(
        "jacobi",
        help="residual of the deviation form along the file's section",
    )
    jac.add_argument("problem", help="problem JSON file (needs section/variation)")
    jac.add_argument("--tol", type=_tolerance, default=1e-6, help="pass tolerance")
    _add_sampling(jac)
    _add_out(jac)
    jac.set_defaults(handler=_cmd_check_jacobi)

    ch = sub.add_parser(
        "characterize",
        help="extract connection and coupling coefficients at a base point",
    )
    ch.add_argument("problem", help="problem JSON file")
    ch.add_argument(
        "--base",
        required=True,
        help="comma-separated base coordinates: m time values then n space values",
    )
    _add_out(ch)
    ch.set_defaults(handler=_cmd_characterize)

    ns = sub.add_parser(
        "nullspace",
        help="null space of the coupling constraint system for a temporal metric",
    )
    ns.add_argument("metric", help="metric JSON file with 'temporal_metric' rows")
    ns.add_argument(
        "--t", required=True, help="comma-separated time coordinates"
    )
    ns.add_argument(
        "--m", type=int, default=None, help="number of times (cross-checked)"
    )
    _add_out(ns)
    ns.set_defaults(handler=_cmd_nullspace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except (DegenerateMetricError, SingularJacobianError, np.linalg.LinAlgError) as err:
        print(f"numeric degeneracy: {err}", file=sys.stderr)
        return 3
    except ex.EvaluationError as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return 3
    except (
        NotVelocityQuadraticError,
        HypothesisViolationError,
        SectionNotSolutionError,
    ) as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
