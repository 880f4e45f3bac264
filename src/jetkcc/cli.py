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

import functools
import gc
import hashlib
import json
import math
import os
import sys
import types
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__
from . import exprlang as ex
from .exprlang import MAX_DIM, Expression, differentiate
from .jetgeom import (
    DegenerateMetricError,
    JetPoint,
    JetPointSet,
    MetricField,
    PdeSystem,
    build_affine_system,
    build_first_order_system,
    point_set,
    sample_jet_points,
    uniform_draws,
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
MAX_SAMPLES = 1_000_000  # --samples above it is a usage error
DEFAULT_SEED = 0
DEFAULT_T_BOX = (-1.0, 1.0)
DEFAULT_X_BOX = (-1.0, 1.0)
DEFAULT_V_BOX = (-2.0, 2.0)
REBUILD_TOL = 1e-8
RECORD_BLOCK = 4096  # records per template fill when rendering a Records
FLOAT_KERNEL_MIN = 600  # shorter float arrays are cheaper in one "%" fill
FLOAT_KERNEL_CHUNK = 2048  # floats per _exact_texts call: its arrays stay small


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
    except RecursionError as err:  # the decoder recurses once per open bracket
        raise InputError(f"'{path}' is nested too deeply to read as JSON") from err
    return doc, digest


# ---------------------------------------------------------------------------
# schema helpers
# ---------------------------------------------------------------------------


def _require_dict(obj, path, allowed=None, required=()):
    if not isinstance(obj, dict):
        _fail(path, "expected a JSON object")
    if allowed is not None:
        for key in obj:
            if key not in allowed:
                _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            _fail(path, f"missing key '{key}'")
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


def _parse_expr(obj, path, m, n) -> Expression:
    """An expression string over (m, n); with m and n bound, a
    ``_load_nested`` leaf."""
    if not isinstance(obj, str):
        _fail(path, "expected an expression string")
    try:
        return ex.parse(obj, m, n)
    except ex.ParseError as err:
        _fail(path, f"bad expression: {err}")


def _load_nested(obj, path: str, leaf, *extents: int) -> tuple:
    """A nested JSON list with the given extents, ``leaf(item, path)`` applied
    to each item: each list's length is checked before its items are read."""
    items = _require_list(obj, path, length=extents[0])
    if len(extents) == 1:
        return tuple(leaf(u, f"{path}[{k}]") for k, u in enumerate(items))
    return tuple(
        _load_nested(u, f"{path}[{k}]", leaf, *extents[1:]) for k, u in enumerate(items)
    )


def _built(path: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``; a ValueError it raises is an input error
    at ``path``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as err:
        _fail(path, str(err))


def _parse_box(obj, path):
    lo, hi = _load_nested(obj, path, _require_float, 2)
    if not lo < hi:
        _fail(path, f"box bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        _fail(path, f"box width hi - lo must be finite, got [{lo}, {hi}]")
    return (lo, hi)


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


class ProblemFile(NamedTuple):
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


def _entries(obj, path: str, m: int, n: int, indices: tuple):
    """The entries of the JSON array ``path``, each an object of the integer
    ``indices`` (``i`` in 1..n, ``alpha`` and ``beta`` in 1..m) and ``expr``:
    yields each entry's path, its index tuple and its ``expr``."""
    keys = (*indices, "expr")
    for k, entry in enumerate(_require_list(obj, path)):
        where = f"{path}[{k}]"
        entry = _require_dict(entry, where, allowed=keys, required=keys)
        key = tuple(
            _require_int(entry[name], f"{where}.{name}", 1, n if name == "i" else m)
            for name in indices
        )
        yield where, key, entry["expr"]


def _load_system(obj, m, n, phi, h) -> PdeSystem:
    sys_obj = _require_dict(obj, "system")
    expr = functools.partial(_parse_expr, m=m, n=n)
    if "F" in sys_obj:
        _require_dict(sys_obj, "system", allowed={"F"})
        upper: dict[tuple[int, int, int], Expression] = {}
        indices = ("i", "alpha", "beta")
        for path, (i, a, b), text in _entries(sys_obj["F"], "system.F", m, n, indices):
            e = expr(text, f"{path}.expr")
            key3 = (i, min(a, b), max(a, b))
            if key3 in upper:
                _fail(
                    path,
                    f"duplicate coverage of component (i={key3[0]}, "
                    f"alpha={key3[1]}, beta={key3[2]})",
                )
            upper[key3] = e
        return _built("system.F", PdeSystem.from_upper, m, n, upper)

    kind = sys_obj.get("type")
    if kind == "affine":
        _require_dict(sys_obj, "system", allowed={"type"})
        if phi is None:
            _fail("system", "the affine builder requires spatial_metric")
        return build_affine_system(h, phi)
    if kind == "first_order":
        _require_dict(sys_obj, "system", allowed={"type", "X", "symmetrize"})
        table: dict[tuple[int, int], Expression] = {}
        for path, (i, a), text in _entries(
            sys_obj.get("X"), "system.X", m, n, ("i", "alpha")
        ):
            if (i, a) in table:
                _fail(path, f"duplicate flow component (i={i}, alpha={a})")
            table[(i, a)] = expr(text, f"{path}.expr")
        symmetrize = sys_obj.get("symmetrize", False)
        if not isinstance(symmetrize, bool):
            _fail("system.symmetrize", "expected true or false")
        return _built(
            "system.X", build_first_order_system, table, m, n, symmetrize=symmetrize
        )
    _fail("system", "must contain 'F' or 'type' in {'affine', 'first_order'}")


def _load_points(obj, m, n) -> JetPointSet:
    entries = _require_list(obj, "points")
    if not entries:
        _fail("points", "must contain at least one point")
    keys, points = ("t", "x", "v"), []
    for k, entry in enumerate(entries):
        path = f"points[{k}]"
        entry = _require_dict(entry, path, allowed=keys, required=keys)
        t, x, v = (
            _load_nested(entry[b], f"{path}.{b}", _require_float, *extents)
            for b, extents in zip(keys, ((m,), (n,), (n, m)))
        )
        points.append(JetPoint(t, x, v))
    return point_set(points)


def load_problem(path: str) -> ProblemFile:
    """Read, validate, and assemble a problem file."""
    doc, digest = _read_json(path)
    required = ("m", "n", "temporal_metric", "system")
    root = _require_dict(doc, "<root>", allowed=_TOP_KEYS, required=required)
    m = _require_int(root["m"], "m", 1, MAX_DIM)
    n = _require_int(root["n"], "n", 1, MAX_DIM)
    expr = functools.partial(_parse_expr, m=m, n=n)

    def table(key, factory, *extents):
        """``factory`` of the expression table ``key``; None without it."""
        if key in root:
            return _built(key, factory, _load_nested(root[key], key, expr, *extents))

    h = table("temporal_metric", MetricField.temporal, m, m)
    phi = table("spatial_metric", MetricField.spatial, n, n)
    system = _load_system(root["system"], m, n, phi, h)
    points = _load_points(root["points"], m, n) if "points" in root else None
    section = table("section", functools.partial(SectionMap, m), n)
    variation = table("variation", functools.partial(VariationField, m), n)
    boxes = {"t": DEFAULT_T_BOX, "x": DEFAULT_X_BOX, "v": DEFAULT_V_BOX}
    box = _require_dict(root.get("sample_box", {}), "sample_box", allowed=boxes)
    for key in boxes:
        if key in box:
            boxes[key] = _parse_box(box[key], f"sample_box.{key}")
    return ProblemFile(
        m, n, h, phi, system, points, section, variation, *boxes.values(), digest
    )


def load_change(path: str, m: int, n: int) -> tuple[CoordinateChange, str]:
    """Read a coordinate-change file (four expression lists) for given dims."""
    doc, digest = _read_json(path)
    keys = ("t_forward", "t_inverse", "x_forward", "x_inverse")
    root = _require_dict(doc, "<root>", allowed=keys, required=keys)
    expr = functools.partial(_parse_expr, m=m, n=n)
    maps = {
        key: _load_nested(root[key], key, expr, m if key[0] == "t" else n)
        for key in keys
    }
    return _built("<root>", CoordinateChange, m, n, **maps), digest


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


def _broken(parts: list, indent: int) -> str:
    inner = "  " * (indent + 1)
    body = (",\n" + inner).join(parts)
    return f"[\n{inner}{body}\n{'  ' * indent}]"


def _list_layout(parts: list, indent: int) -> str:
    """Rendered items as one JSON array: inline when there are at most 12
    and each is one line shorter than 25 characters, else one per line."""
    if len(parts) <= 12 and all("\n" not in p and len(p) < 25 for p in parts):
        return _inline(parts)
    return _broken(parts, indent)


@functools.lru_cache(maxsize=64)
def _zero_row(size: int, indent: int) -> str:
    """``_list_layout`` of ``size`` zeros."""
    return _list_layout(["0"] * size, indent)


def _halves(u: np.ndarray) -> tuple:
    """Veltkamp's split of u into two halves of at most 26 significant bits."""
    t = u * 134217729.0  # 2**27 + 1
    return t - (t - u), u - (t - (t - u))


_POWER_HALVES = _halves(10.0 ** np.arange(23))  # 10**0 to 10**22 are exact
# What "%.17g" can write for a magnitude in (1e-6, 1e17): a sign, the "0.000"
# of 1e-4 to 1e-1, 17 digits each with a point after it, "e-05"/"e-06" and "\0"
_CHARS = np.frombuffer(b"-0.000" + b"d." * 16 + b"de-056\0", np.uint8)


@functools.cache
def _kept_chars() -> np.ndarray:
    """Row ((X + 6) * 17 + s - 1) * 2 + sign bit: the ``_CHARS`` that ``%.17g``
    writes for decimal exponent X (-6 to 16) and s significant digits."""
    x, s, neg, col = np.ix_(range(-6, 17), range(1, 18), range(2), range(45))
    # g: the digit at or before a column of the 17 digits and their points
    g, sci, body = (col - 6) // 2, x < -4, (6 <= col) & (col < 39)
    return (
        (col == 0) & (neg == 1) | (col == 44)
        | (1 <= col) & (col < 2 - x) & (-4 <= x) & (x < 0)
        | body & (col % 2 == 0) & ((g < s) | (g <= x))
        | body & (col % 2 == 1) & (g == np.where(sci, 0, x)) & (g + 1 < s)
        | ((39 <= col) & (col < 42) | (col == 37 - x)) & sci
    ).reshape(-1, 45)


def _exact_texts(values: np.ndarray) -> list:
    """``"%.17g"`` of each of a 1-D array of floats of magnitude in (1e-6,
    1e17): the decimal exponent X, the 17 digits D = round-half-even(|x| *
    10**(16 - X)) from an exact product, and D laid out as ``%g`` writes it."""
    a = np.abs(values)
    (ah, al), x = _halves(a), np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    for _ in range(2):  # an exact test of 1e16 <= p + e < 1e17 fixes a log10 one off
        bh, bl = (h[16 - x] for h in _POWER_HALVES)
        p = a * (bh + bl)  # p + e = a * 10**(16 - x) exactly (Dekker 1971, no FMA)
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        x += (p > 1e17) | (p == 1e17) & (e >= 0)
        x -= (p < 1e16) | (p == 1e16) & (e < 0)
    floor = np.floor(e)  # p > 2**53 is an integer, and e - floor is exact
    d, frac = p.astype(np.int64) + floor.astype(np.int64), e - floor
    # no D rounds up to 10**17: that needs a double within 5e-18 (relative)
    # below a power of ten, and from 1e-5 to 1e17 the nearest is 4.5e-17 below
    d += (frac > 0.5) | (frac == 0.5) & (d % 2 == 1)
    # D's first 8 and last 9 digits, as two uint32 rows, make digit-major rows
    # 0-8 and 9-17 (row 0, the first half's ninth digit, is 0)
    halves = np.stack([d // 10**9, d % 10**9]).astype(np.uint32)
    digits = np.empty((18, d.size), np.uint8)
    for row in range(8, -1, -1):
        np.subtract(halves, halves // 10 * 10, out=digits[row::9], casting="unsafe")
        halves //= 10
    s = 17 - np.argmax(digits[:0:-1] != 0, axis=0)  # less D's trailing zeros
    rows = np.broadcast_to(_CHARS, (d.size, 45)).copy()
    rows[:, 6:39:2] = digits[1:].T + 48
    code = ((x + 6) * 17 + s - 1) * 2 + np.signbit(values)
    kept = np.compress(_kept_chars()[code].ravel(), rows)  # compress beats a mask
    return str(kept, "ascii").split("\0")[:-1]


def _float_texts(values: np.ndarray) -> list:
    """``"%.17g"`` of each of a 1-D array of finite floats: ``_exact_texts``
    in chunks, or one ``%`` fill where it does not apply or does not pay."""
    exact = (np.abs(values) > 1e-6) & (np.abs(values) < 1e17)
    if values.size < FLOAT_KERNEL_MIN or not exact.any():
        return ("%.17g\0" * values.size % tuple(values.tolist())).split("\0")[:-1]
    inside, texts = np.where(exact, values, 1.0), []
    for start in range(0, values.size, FLOAT_KERNEL_CHUNK):
        texts += _exact_texts(inside[start : start + FLOAT_KERNEL_CHUNK])
    outside = np.flatnonzero(~exact)
    for k, text in zip(outside.tolist(), _float_texts(values[outside])):
        texts[k] = text
    return texts


def _magnitude_texts(magnitudes: np.ndarray) -> list:
    """The texts of one block of ``_render_rows``' distinct magnitudes."""
    return _float_texts(magnitudes)


def _render_rows(grid: np.ndarray, indent: int) -> list:
    """The text of each row of a 2-D float array, as ``render_json`` renders
    the list of its values: the cached zero row if all +0.0 (one test finds
    those), value by value if one is not finite, else from its magnitude
    group's texts, one per distinct magnitude, with a "-" where the sign bit
    is set (``"%.17g"`` of -x is ``"-"`` + that of x, for -0.0 too).  The
    groups' magnitudes are formatted in blocks of at least ``RECORD_BLOCK``."""
    grid = grid.astype(float, copy=False)  # "%.17g" reads a float64 anyway
    texts = [_zero_row(grid.shape[1], indent)] * len(grid)
    groups: dict = {}
    for k in np.flatnonzero(grid.any(axis=1) | np.signbit(grid).any(axis=1)).tolist():
        if np.isfinite(grid[k]).all():
            groups.setdefault(np.abs(grid[k]).tobytes(), []).append(k)
        else:
            texts[k] = _list_layout([_fmt_float(u) for u in grid[k].tolist()], indent)
    block: list = []
    while groups:  # popped: a group's key is freed once it is in a block
        key, members = groups.popitem()
        block.append((members, *np.unique(np.frombuffer(key), return_inverse=True)))
        if groups and sum(m.size for _, m, _ in block) < RECORD_BLOCK:
            continue
        plain = _magnitude_texts(np.concatenate([m for _, m, _ in block]))
        for members, magnitudes, inverse in block:
            own, plain = plain[: magnitudes.size], plain[magnitudes.size :]
            table = np.array([own, ["-" + t for t in own]], object)
            signs = np.signbit(grid[members]).view(np.int8)
            for k, parts in zip(members, table[signs, inverse].tolist()):
                texts[k] = _list_layout(parts, indent)
        block = []
    return texts


class Records(dict):
    """Same-layout records held as columns, one row per record: record k
    renders as the dict ``{key: column[k]}``.  A column is an int array
    (count, w), or a float array (count), (count, w), or (count, r, w) of r
    lists of w values (r, w <= 12)."""


def _render_records(columns: Records, indent: int, out: list) -> None:
    """Append the text of the list of ``columns``' records, as ``_render``
    renders their dicts: one ``%`` template per record layout, filled in
    blocks of ``RECORD_BLOCK`` records.  A list of at most 12 ints or floats
    is inline (a float takes at most 24 characters at 17 digits), and a list
    of lists is inline unless one of its lists, ``"[" + ", ".join(parts) +
    "]"``, is 25 characters or longer.  A longer float row breaks: its text
    comes from ``_render_rows`` and is appended by reference between the
    filled pieces of its block."""
    count = len(next(iter(columns.values())))
    if not count:
        out.append("[]")
        return
    inner = "  " * (indent + 2)
    heads, fills, layout, rows = [], [], 0, []
    for key, col in columns.items():
        head = f"{inner}{json.encoder.encode_basestring_ascii(key)}: "
        width = col.shape[-1]
        if col.dtype.kind != "f":
            heads.append((head + _inline(["%d"] * width),) * 2)
            fills.append(col)
        elif col.ndim == 2 and width > 12:
            heads.append((head + "\0",) * 2)
            rows.append(_render_rows(col, indent + 2))
        else:
            texts = (
                _float_texts(col.ravel()) if np.isfinite(col).all()
                else [_fmt_float(u) for u in col.ravel().tolist()]
            )
            fills.append(np.array(texts, object).reshape(count, math.prod(col.shape[1:])))
            row = _inline(["%s"] * width) if col.ndim > 1 else "%s"
            if col.ndim < 3:
                heads.append((head + row,) * 2)
                continue
            lens = np.array(list(map(len, texts))).reshape(col.shape)
            broken = (lens.sum(axis=2) + 2 * width >= 25).any(axis=1)
            layout = layout | broken.astype(int) << len(heads)
            lists = [row] * col.shape[1]
            heads.append((head + _inline(lists), head + _broken(lists, indent + 2)))
    codes = np.broadcast_to(layout, count).tolist()
    templates = {
        code: "{\n" + ",\n".join(h[code >> j & 1] for j, h in enumerate(heads))
        + "\n" + "  " * (indent + 1) + "}"
        for code in set(codes)
    }
    items = [templates[c] for c in codes]
    table = np.hstack(fills) if fills else np.empty((count, 0))
    line = "\n" + "  " * (indent + 1)  # each record starts one
    for start in range(0, count, RECORD_BLOCK):
        stop = start + RECORD_BLOCK
        text = ("," if start else "[") + line + ("," + line).join(items[start:stop])
        pieces = (text % tuple(table[start:stop].ravel().tolist())).split("\0")
        out.append(pieces[0])  # the block's wide rows go between its pieces
        wide = [t for texts in zip(*(col[start:stop] for col in rows)) for t in texts]
        out += [f for pair in zip(wide, pieces[1:]) for f in pair]
    out.append("\n" + "  " * indent + "]")


def render_json(value, indent: int = 0) -> list:
    """Deterministic JSON text, as the list of fragments that joined make it:
    floats at 17 significant digits, dicts in insertion order (construction
    order is itself deterministic).  A 1-D float array renders as the list of
    its values, a JetPointSet as the list of its points' {"t", "x", "v"}
    dicts and a Records as the list of its record dicts.  Float rows come
    from ``_render_rows``: the rows of one array with the same magnitudes
    share one text per distinct magnitude, with a "-" where a value's sign
    bit is set."""
    out: list = []
    _render(value, indent, out)
    return out


def _render(value, indent: int, out: list) -> None:
    """Append the text of ``value`` to ``out``."""
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_fmt_float(float(value)))
    elif isinstance(value, str):
        out.append(json.encoder.encode_basestring_ascii(value))  # = json.dumps(value)
    elif isinstance(value, (list, tuple)):
        start = len(out)
        for v in value:
            out.append("")  # v's separator, set below; no other fragment is ""
            _render(v, indent + 1, out)
        if len(out) - start == 2 * len(value):  # one fragment per item
            out[start:] = [_list_layout(out[start + 1 :: 2], indent)]
        else:  # an item holds a dict, so it spans lines: one item per line
            inner = "\n" + "  " * (indent + 1)
            out[start:] = [f or "," + inner for f in out[start:]]
            out[start] = "[" + inner
            out.append("\n" + "  " * indent + "]")
    elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        out.append(_render_rows(value[None], indent)[0])
    elif isinstance(value, Records):
        _render_records(value, indent, out)
    elif isinstance(value, JetPointSet):
        points = Records(t=value.t.T, x=value.x.T, v=np.moveaxis(value.v, -1, 0))
        _render_records(points, indent, out)
    elif isinstance(value, dict):
        inner = "\n" + "  " * (indent + 1)
        sep, rest = "{" + inner, "," + inner
        for k, v in value.items():
            out.append(f"{sep}{json.encoder.encode_basestring_ascii(str(k))}: ")
            _render(v, indent + 1, out)
            sep = rest
        out.append("\n" + "  " * indent + "}" if value else "{}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")


# ``_emit`` joins each run of ``_WRITE_RUN`` fragments into one write when
# their text has at most ``_WRITE_CHARS`` characters
_WRITE_RUN, _WRITE_CHARS = 256, 1 << 16


def _writes(parts: list):
    """The texts to write for ``parts``, in order: each run of
    ``_WRITE_RUN`` fragments joined into one, or its fragments one by one
    where the run is longer than ``_WRITE_CHARS``."""
    for start in range(0, len(parts), _WRITE_RUN):
        run = parts[start : start + _WRITE_RUN]
        if sum(map(len, run)) <= _WRITE_CHARS:
            yield "".join(run)
        else:
            yield from run


def _emit(report: dict, out_path: str | None) -> None:
    """Write ``report`` and a newline to ``out_path``, or to stdout if None.
    The report is rendered whole before anything is written, then written in
    bounded runs of fragments (``_writes``): it is never joined, nor encoded
    whole."""
    parts = render_json(report)

    def write(fh):
        fh.writelines(_writes(parts))
        fh.write("\n")
        fh.flush()  # a closed pipe fails here, not at exit

    try:
        if out_path is None:
            write(sys.stdout)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                write(fh)
    except OSError as err:
        if out_path is None:  # leave nothing for the flush at exit to fail on
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "<stdout>" if out_path is None else out_path
        raise InputError(f"cannot write '{where}': {err}") from err


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
    1-D array over the points."""
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
            entry["structural_zero"] = False
            entry["max_abs"] = float(np.max(np.abs(grid)))
            index = np.indices(grid.shape[:-1]).reshape(grid.ndim - 1, -1).T + 1
            entry["components"] = Records(
                index=index, values=grid.reshape(-1, len(points))
            )
        blocks.append(entry)
    return {"invariants": blocks}


def _cmd_invariants(args) -> tuple[str, dict, list]:
    problem = load_problem(args.problem)
    which = _parse_which(args.which)
    points, meta = _select_points(problem, args)
    fields = {"m": problem.m, "n": problem.n}
    fields["which"] = which
    fields["seed"] = meta["seed"]
    fields["points"] = dict(meta, values=points)
    fields.update(run_invariants(problem, points, which))
    return problem.sha256, fields, []


# ---------------------------------------------------------------------------
# command: check transform
# ---------------------------------------------------------------------------


def _scaled_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max(1, |a|, |b|), elementwise then maximized over all
    components and points at once; a nan anywhere makes the result nan, which
    fails every ``<= tol`` test."""
    # a - b can overflow, and a value transformed by numpy products can be
    # inf already, so inf - inf gives that nan
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        return float(np.max(np.abs(a - b) / scale))


def _cmd_check_transform(args) -> tuple[str, dict, list]:
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

    fields = {"change_sha256": change_sha, "m": problem.m, "n": problem.n}
    fields["seed"] = meta["seed"]
    fields["samples"] = meta["count"]
    fields["tolerance"] = args.tol
    return problem.sha256, fields, checks


# ---------------------------------------------------------------------------
# command: check fd
# ---------------------------------------------------------------------------


def _cmd_check_fd(args) -> tuple[str, dict, list]:
    problem = load_problem(args.problem)
    points, meta = _select_points(problem, args)
    step = args.step
    base = points.bindings()

    checks = []
    for i in range(1, problem.n + 1):
        for a in range(1, problem.m + 1):
            for b in range(a, problem.m + 1):
                comp = problem.system.component(i, a, b)
                for vid in sorted(ex.free_variables(comp), key=lambda u: u.name):
                    name = f"dF[{i},{a},{b}]/d{vid.name}"
                    sym = np.asarray(ex.evaluate(differentiate(comp, vid), base))
                    try:
                        fd = ex.fd_partial(comp, vid, base, step)
                    except ex.EvaluationError as err:  # a point within step of the edge
                        raise ex.EvaluationError(
                            f"central difference for {name} with step {step} "
                            f"leaves the domain: {err}"
                        ) from err
                    checks.append(
                        _check(
                            f"{name} vs central FD",
                            _scaled_deviation(sym, fd),
                            args.tol,
                        )
                    )

    fields = {"m": problem.m, "n": problem.n}
    fields["seed"] = meta["seed"]
    fields["samples"] = meta["count"]
    fields["step"] = step
    fields["tolerance"] = args.tol
    fields["max_deviation"] = float(np.max([c["value"] for c in checks], initial=0.0))
    return problem.sha256, fields, checks


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


def _cmd_characterize(args) -> tuple[str, dict, list]:
    problem = load_problem(args.problem)
    m, n = problem.m, problem.n
    base = _coordinates(args.base, m + n, "--base", " (t then x)")
    t, x = base[:m], base[m:]
    gamma, coupling, diag = extract_structure(
        problem.system, problem.h, t, x
    )

    upper = np.broadcast_to(np.triu(np.ones((n, n), bool)), gamma.shape)  # p <= q
    off = np.ones(coupling.shape, bool)  # a != v and p != q
    off[:, range(m), range(m)] = off[..., range(n), range(n)] = False
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

    fields = {"m": m, "n": n}
    fields["base"] = {"t": [float(u) for u in t], "x": [float(u) for u in x]}
    fields["spatial_coefficients"] = Records(
        index=np.argwhere(upper) + 1, value=gamma[upper]
    )
    fields["coupling_coefficients"] = Records(
        index=np.argwhere(off) + 1, value=coupling[off]
    )
    fields["diagnostics"] = {
        "fifth_invariant_max_abs": diag.fifth_max,
        "first_invariant_max_abs": diag.eps_max,
        "temporal_symmetry_residual": diag.symmetry_residual,
        "constant_part_max_abs": diag.constant_max,
        "linear_part_residual": diag.linear_residual,
        "spatial_coefficient_spread": diag.gamma_spread,
        "rebuild_residual": diag.rebuild_residual,
    }
    return problem.sha256, fields, checks


# ---------------------------------------------------------------------------
# command: nullspace
# ---------------------------------------------------------------------------


def _cmd_nullspace(args) -> tuple[str, dict, list]:
    doc, digest = _read_json(args.metric)
    root = _require_dict(
        doc, "<root>", allowed=("m", "temporal_metric"), required=("temporal_metric",)
    )
    rows = _require_list(root["temporal_metric"], "temporal_metric")
    m = len(rows)
    if "m" in root:
        m = _require_int(root["m"], "m", 1, MAX_DIM)
    if args.m is not None:
        if "m" in root and args.m != m:
            _fail("m", f"--m {args.m} contradicts the file's m = {m}")
        m = args.m
    m = _require_int(m, "m", 1, MAX_DIM)  # a row count or --m
    expr = functools.partial(_parse_expr, m=m, n=1)
    rows = _load_nested(rows, "temporal_metric", expr, m, m)
    h = _built("temporal_metric", MetricField.temporal, rows)
    t = _coordinates(args.t, m, "--t")

    try:
        result = star_star_nullspace(h, t)
    except (DegenerateMetricError, ex.EvaluationError):
        raise
    except ValueError as err:  # e.g. a single time: no constraint system
        raise InputError(str(err)) from err

    fields = {"m": m}
    fields["t"] = [float(u) for u in t]
    fields["unknown_pairs"] = [list(p) for p in temporal_pairs(m)]
    fields["dimension"] = result.dimension
    fields["singular_values"] = [float(s) for s in result.singular_values]
    fields["basis"] = [
        {
            "components": [float(u) for u in vec],
            "residual": result.residual(vec),
        }
        for vec in result.basis
    ]
    fields["zero_vector_residual"] = result.residual(
        np.zeros(len(result.pairs))
    )
    fields["caveat"] = result.caveat
    if result.caveat:
        fields["caveat_note"] = (
            "with two times the constraints only force antisymmetry, so a "
            "one-dimensional family always exists; dimension counts for "
            "m = 2 say nothing about larger m"
        )
    return digest, fields, []


# ---------------------------------------------------------------------------
# command: check jacobi
# ---------------------------------------------------------------------------


def _cmd_check_jacobi(args) -> tuple[str, dict, list]:
    problem = load_problem(args.problem)
    if problem.section is None or problem.variation is None:
        raise InputError(
            "check jacobi requires 'section' and 'variation' entries "
            "in the problem file"
        )
    count = args.samples if args.samples is not None else DEFAULT_SAMPLES
    lo, hi = problem.t_box
    t_points = lo + (hi - lo) * uniform_draws(args.seed, (count, problem.m))

    resid = jacobi_identity_residual(
        problem.system, problem.h, problem.section, problem.variation, t_points.T
    )
    worst = float(np.max(np.abs(resid)))
    fields = {"m": problem.m, "n": problem.n}
    fields["seed"] = args.seed
    fields["samples"] = count
    fields["tolerance"] = args.tol
    fields["points"] = Records(t=t_points, residual=resid.T)
    checks = [_check("deviation form of the variational equations", worst, args.tol)]
    return problem.sha256, fields, checks


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _RefusedValue(ValueError):
    """An option value its type function refuses: a usage error."""


def _int_at_least(low: int, high: float = math.inf):
    """An option type: an integer from ``low`` to ``high`` (else a usage error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _RefusedValue(f"invalid int value: {text!r}") from None
        if value < low:
            raise _RefusedValue(f"must be at least {low}, got {value}")
        if value > high:
            raise _RefusedValue(f"must be at most {high}, got {value}")
        return value

    return parse


def _nonnegative(text: str, strict: bool = False) -> float:
    """An option value: finite and at least 0, or greater than 0 if ``strict``."""
    try:
        value = float(text)
    except ValueError:
        raise _RefusedValue(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise _RefusedValue(f"must be finite, got {text!r}")
    if value < 0.0 or strict and value == 0.0:
        bound = "greater than" if strict else "at least"
        raise _RefusedValue(f"must be {bound} 0, got {text!r}")
    return value


_PROBLEM = {"problem": dict(help="problem JSON file")}
_SAMPLING = {
    "--samples": dict(type=_int_at_least(1, MAX_SAMPLES), default=None, metavar="N",
                      help="number of random jet points to draw"),
    "--seed": dict(type=_int_at_least(0), default=DEFAULT_SEED, metavar="S",
                   help="rng seed for sampling (always recorded in the report)"),
}
_OUT = {"--out": dict(default=None, metavar="FILE",
                      help="write the report here instead of stdout")}

# The one grammar of the command line: each command path's help, handler and
# arguments (names and flags with their add_argument keywords, in help order).
_COMMANDS = {
    ("invariants",): ("evaluate invariants at jet points", _cmd_invariants, {
        **_PROBLEM,
        "--which": dict(default=",".join(INVARIANT_NAMES), help=(
            "comma-separated selectors from eps,P,R,B,D (default: all)")),
        "--points": dict(default=None, metavar="FILE", help="JSON file of jet points"),
        **_SAMPLING, **_OUT}),
    ("check", "transform"): (
        "two-path tensor-law check under a coordinate change", _cmd_check_transform,
        {**_PROBLEM, "change": dict(help="coordinate-change JSON file"), **_SAMPLING,
         "--tol": dict(type=_nonnegative, default=1e-6, help="pass tolerance"), **_OUT}),
    ("check", "fd"): (
        "symbolic derivatives of F vs central finite differences", _cmd_check_fd,
        {**_PROBLEM,
         "--step": dict(type=functools.partial(_nonnegative, strict=True), default=1e-5,
                        help="finite-difference step"),
         "--tol": dict(type=_nonnegative, default=1e-5, help="pass tolerance"),
         **_SAMPLING, **_OUT}),
    ("check", "jacobi"): (
        "residual of the deviation form along the file's section", _cmd_check_jacobi,
        {"problem": dict(help="problem JSON file (needs section/variation)"),
         "--tol": dict(type=_nonnegative, default=1e-6, help="pass tolerance"),
         **_SAMPLING, **_OUT}),
    ("characterize",): (
        "extract connection and coupling coefficients at a base point",
        _cmd_characterize,
        {**_PROBLEM, "--base": dict(required=True, help=(
            "comma-separated base coordinates: m time values then n space values")),
         **_OUT}),
    ("nullspace",): (
        "null space of the coupling constraint system for a temporal metric",
        _cmd_nullspace,
        {"metric": dict(help="metric JSON file with 'temporal_metric' rows"),
         "--t": dict(required=True, help="comma-separated time coordinates"),
         "--m": dict(type=int, default=None, help="number of times (cross-checked)"),
         **_OUT}),
}
_GROUP_HELP = {"check": "consistency checks"}


def _table_parse(argv: list) -> types.SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` of a well-formed command line, read
    from ``_COMMANDS``; None, for argparse to decide, on help, ``--``, an
    abbreviated, unknown, repeated or missing option, a missing or refused value,
    a space-form value or positional starting with ``-``, a wrong command or count."""
    path = next((p for p in _COMMANDS if tuple(argv[: len(p)]) == p), None)
    if path is None:
        return None
    _, handler, arguments = _COMMANDS[path]
    positionals, given = [], {}
    tokens = iter(argv[len(path) :])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "-")  # a missing value declines as one
            if value.startswith("-"):  # argparse's option rules decide it
                return None
        if flag not in arguments or flag in given or value == "--":
            return None
        given[flag] = value
    names = [name for name in arguments if not name.startswith("-")]
    required = {flag for flag, kw in arguments.items() if kw.get("required")}
    if len(positionals) != len(names) or not given.keys() >= required:
        return None
    fields = {"command": path[0], "handler": handler, **dict(zip(names, positionals))}
    fields.update({f"{word}_command": name for word, name in zip(path, path[1:])})
    try:
        for flag, keywords in arguments.items():
            if flag in given:
                fields[flag[2:]] = keywords.get("type", str)(given[flag])
            elif flag not in names:
                fields[flag[2:]] = keywords.get("default")
    except (TypeError, ValueError):  # a _RefusedValue among them
        return None
    return types.SimpleNamespace(**fields)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of ``_COMMANDS``, built (and argparse imported) on
    first use: it parses what ``_table_parse`` declines and writes every help
    and usage text."""
    import argparse

    class Store(argparse.Action):
        """argparse's store action, except that the ``[]`` Python 3.11's argparse
        makes of an ``=``-form value ``--`` (``--out=--``) is a usage error."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    def usage_type(parse):  # parse, with a _RefusedValue as a usage error
        def checked(text):
            try:
                return parse(text)
            except _RefusedValue as err:
                raise argparse.ArgumentTypeError(str(err)) from None

        return functools.wraps(parse)(checked)  # argparse names a type by __name__

    parser = argparse.ArgumentParser(
        prog="jetkcc",
        description=(
            "Evaluate invariants of second-order PDE systems on multi-time "
            "jet spaces and run consistency checks, from JSON problem files."
        ),
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (text, handler, arguments) in _COMMANDS.items():
        group = path[:-1]
        if group not in groups:  # added before its first command
            sub = groups[()].add_parser(group[0], help=_GROUP_HELP[group[0]])
            dest = f"{group[0]}_command"
            groups[group] = sub.add_subparsers(dest=dest, required=True)
        leaf = groups[group].add_parser(path[-1], help=text)
        for name, keywords in arguments.items():
            if "type" in keywords:
                keywords = dict(keywords, type=usage_type(keywords["type"]))
            leaf.add_argument(name, action=Store, **keywords)
        leaf.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    # The command runs with the collector off: the interned expression DAG it
    # builds can never be garbage, and the collector would walk it again and
    # again.  The caller's state comes back whether the command returns or
    # raises.  When the caller has frozen nothing, what the command left alive
    # is moved into the oldest generation (a freeze and an unfreeze, no pass),
    # so no young pass walks it once the collector is back on.  A warning is
    # one stderr line, `warning: <message>`; the caller's filters still apply.
    enabled = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print("warning:", msg, file=sys.stderr)
            return _main(argv)
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _table_parse(argv) or build_parser().parse_args(argv)
    # a handler returns (input digest, its own fields, its check rows); the
    # envelope, "pass", the first failing row's line and the exit code are set here
    try:
        sha, fields, checks = args.handler(args)
        first = next((c for c in checks if not c["pass"]), None)
        words = [args.command, getattr(args, "check_command", None)]
        report = {"tool": "jetkcc", "version": __version__}
        report.update(command=" ".join(filter(None, words)), input_sha256=sha)
        report.update(fields, checks=checks)
        report["pass"] = first is None
        if first is not None:
            msg = "check failed: {name} (value {value:.3e} > tolerance {tolerance:.3e})"
            print(msg.format_map(first), file=sys.stderr)
        _emit(report, args.out)
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
    return 0 if first is None else 1


if __name__ == "__main__":
    sys.exit(main())
