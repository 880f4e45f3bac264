"""Symbolic scalar expressions over jet coordinates t^a, x^i and velocities v^i_a.

Expression nodes are hash-consed: every constructor (``Num``, ``Const``,
``Var``, ``Unary``, ``Binary``) returns the one node of that structure,
looked up in a table keyed on the node's class, operator and children tuple
(interned too, so compared by identity), on the ``VariableId`` of a
variable, or on the bit pattern of a literal (``Num(-0.0)`` is not ``ZERO``,
but ``num`` folds ``-0.0`` to ``ZERO``).  Structurally equal expressions are
therefore the same object: equality is ``is`` and hashing is O(1).  The
table holds its nodes for the life of the process, so ids are never reused,
and ``differentiate`` (one memo per variable) and ``simplify`` keep their
results, keyed by node, for the life of the process too.

Interning also sets four fields on each node: ``kids`` (the children tuple
of its key), ``lit`` (its value if it is a literal or a negated literal,
else None), ``mask`` (a bit per jet variable it depends on) and ``index``
(its creation number).  Children are interned before their parents, so
creation order is topological.  Walks and constant folding read these
fields instead of dispatching on the class; ``free_variables`` decodes the mask;
``differentiate`` does not enter a subtree whose mask lacks its variable
(the derivative there is ``ZERO``); tapes are lowered by a sort on ``index``.

An indexed family of expressions (a system, a connection, an invariant) is
nested tuples, built by ``nested`` from one entry function, frozen by
``freeze`` and checked by ``check_family``; ``evaluate_nested`` evaluates it.

Results of the builders in the geometry modules are DAGs rather than trees.
Every traversal here walks the DAG iteratively with an identity memo, so
shared subtrees are processed once and recursion depth is never an issue.
There is one evaluator: a family's union DAG is lowered to one tape, run
with numpy on Python floats (one point) or on arrays (a batch), and constant
folding calls the same numpy functions, so every path rounds alike.  Over a
batch an out-of-domain point gives nan/inf.  At one point, and over a batch
in ``evaluate_in_domain``, EvaluationError is raised at the first operation,
in sample order, where a value left its domain, found by one walk (``_scan``).

Variables are 1-based: ``t1..tm`` (temporal), ``x1..xn`` (spatial) and
``v<i>_<a>`` (velocity of x^i in the t^a direction).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

TEMPORAL = "temporal"
SPATIAL = "spatial"
VELOCITY = "velocity"

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")


@dataclass(frozen=True, slots=True)
class VariableId:
    """Identity of a jet variable: kind plus its 1-based indices.

    Temporal variables use ``alpha`` only, spatial use ``i`` only, velocities
    use both.  The unused index is 0.
    """

    kind: str
    i: int = 0
    alpha: int = 0

    @property
    def name(self) -> str:
        if self.kind == TEMPORAL:
            return f"t{self.alpha}"
        if self.kind == SPATIAL:
            return f"x{self.i}"
        return f"v{self.i}_{self.alpha}"

    def in_bounds(self, m: int, n: int) -> bool:
        if self.kind == TEMPORAL:
            return 1 <= self.alpha <= m
        if self.kind == SPATIAL:
            return 1 <= self.i <= n
        return 1 <= self.i <= n and 1 <= self.alpha <= m


class Expression:
    """Base class; nodes are interned and immutable (see the module doc)."""

    __slots__ = ("kids", "lit", "mask", "index")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the interned node
        return (type(self), tuple(getattr(self, f) for f in self.__slots__))

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, as_expr(other))

    def __neg__(self):
        return neg(self)

    def __str__(self) -> str:
        return to_string(self)

    __repr__ = __str__


# every node ever built, by structure; never emptied, so ids stay unique and
# its size is the next creation number
_NODES: dict[tuple, Expression] = {}
# the mask bit of each jet variable, given out as variables are first used
_VAR_BITS: dict[VariableId, int] = {}


def _intern(cls, key: tuple, kids: tuple, values: tuple, lit=None, mask=0):
    """The node stored under ``key``; on first use it is built from
    ``values`` (in the order of ``cls.__slots__``) and the per-node fields."""
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for kid in kids:
            mask |= kid.mask
        fields = values + (kids, lit, mask, len(_NODES))
        for setter, value in zip(_SETTERS[cls], fields):
            setter(node, value)
        _NODES[key] = node
    return node


class Num(Expression):
    """Nonnegative numeric literal (negatives are ``neg`` nodes, so every
    printed expression re-parses to the same tree)."""

    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        return _intern(cls, (cls, value.hex()), (), (value,), lit=value)


class Const(Expression):
    """Named constant: ``pi`` or ``e``."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), (), (name,))


class Var(Expression):
    __slots__ = ("vid",)

    def __new__(cls, vid: VariableId):
        bit = _VAR_BITS.setdefault(vid, 1 << len(_VAR_BITS))
        return _intern(cls, (cls, vid), (), (vid,), mask=bit)


class Unary(Expression):
    __slots__ = ("op", "arg")  # op: "neg" or a function name

    def __new__(cls, op: str, arg: Expression):
        kids = (arg,)
        lit = -arg.value if op == "neg" and type(arg) is Num else None
        return _intern(cls, (cls, op, kids), kids, (op, arg), lit)


class Binary(Expression):
    __slots__ = ("op", "left", "right")  # op: + - * / ^

    def __new__(cls, op: str, left: Expression, right: Expression):
        kids = (left, right)
        return _intern(cls, (cls, op, kids), kids, (op, left, right))


# per class, the slot setters for its own fields, then for the common ones
_SETTERS = {
    cls: [getattr(cls, f).__set__ for f in cls.__slots__ + Expression.__slots__]
    for cls in (Num, Const, Var, Unary, Binary)
}
ZERO = Num(0.0)
ONE = Num(1.0)
PI = Const("pi")
E = Const("e")


def t_var(alpha: int) -> Var:
    return Var(VariableId(TEMPORAL, alpha=alpha))


def x_var(i: int) -> Var:
    return Var(VariableId(SPATIAL, i=i))


def v_var(i: int, alpha: int) -> Var:
    return Var(VariableId(VELOCITY, i=i, alpha=alpha))


def num(value: float) -> Expression:
    """Numeric literal; negatives normalize to neg(positive literal), and
    ``-0.0`` to ``ZERO`` (it prints as ``0``, so it must parse back to it)."""
    value = float(value)
    if value < 0.0:
        return Unary("neg", Num(-value))
    return Num(value) if value else ZERO


def as_expr(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        return num(float(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expression")


# ---------------------------------------------------------------------------
# smart constructors
#
# These perform the conservative simplifications promised by simplify():
# neutral elements, annihilation by zero, constant folding (only when the
# result is finite and defined), and double-negation removal.  Everything
# built through them comes out pre-simplified.
# ---------------------------------------------------------------------------


def neg(a) -> Expression:
    a = as_expr(a)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    if is_zero(a):
        return ZERO
    return Unary("neg", a)


def add(a, b) -> Expression:
    a, b = as_expr(a), as_expr(b)
    av, bv = a.lit, b.lit
    if av is None and bv is None:
        return Binary("+", a, b)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    if av is not None and bv is not None:
        s = av + bv
        if math.isfinite(s):
            return num(s)
    return Binary("+", a, b)


def sub(a, b) -> Expression:
    a, b = as_expr(a), as_expr(b)
    if a is b:
        # same node: difference is 0 wherever the operand is defined
        return ZERO
    av, bv = a.lit, b.lit
    if bv == 0.0:
        return a
    if av is not None and bv is not None:
        s = av - bv
        if math.isfinite(s):
            return num(s)
    if av == 0.0:
        return neg(b)
    return Binary("-", a, b)


def mul(a, b) -> Expression:
    a, b = as_expr(a), as_expr(b)
    av, bv = a.lit, b.lit
    if av is None and bv is None:
        return Binary("*", a, b)
    if av is not None and bv is not None:
        p = av * bv
        if math.isfinite(p):
            return num(p)
    if av == 0.0 or bv == 0.0:
        return ZERO
    if av == 1.0:
        return b
    if bv == 1.0:
        return a
    if av == -1.0:
        return neg(b)
    if bv == -1.0:
        return neg(a)
    # collapse stacked constant factors: c1 * (c2 * x) -> (c1*c2) * x
    for c, prod in ((av, b), (bv, a)):
        if c is not None and isinstance(prod, Binary) and prod.op == "*":
            for inner, other in (prod.kids, prod.kids[::-1]):
                iv = inner.lit
                if iv is not None and math.isfinite(c * iv):
                    return mul(num(c * iv), other)
    return Binary("*", a, b)


def div(a, b) -> Expression:
    a, b = as_expr(a), as_expr(b)
    av, bv = a.lit, b.lit
    if bv == 1.0:
        return a
    if bv == -1.0:
        return neg(a)
    if av == 0.0:
        return ZERO
    if av is not None and bv is not None and bv != 0.0:
        q = av / bv
        if math.isfinite(q):
            return num(q)
    return Binary("/", a, b)


def pow_(a, b) -> Expression:
    a, b = as_expr(a), as_expr(b)
    av, bv = a.lit, b.lit
    if bv == 1.0:
        return a
    if bv == 0.0:
        # empty product: x^0 == 1 for every x under the repeated-product
        # reading of integer powers
        return ONE
    if av == 0.0 and bv is not None and bv > 0.0:
        return ZERO
    return _folded(np.power, av, bv) or Binary("^", a, b)


def _folded(fn, *values):
    """The literal ``fn`` (a function of the tape) gives on literal values;
    None if a value is None (not a literal) or the result is not finite."""
    if None in values:
        return None
    with np.errstate(all="ignore"):
        v = fn(*values)
    return num(v) if math.isfinite(v) else None


def _unary(op: str, a: Expression) -> Expression:
    if op == "neg":
        return neg(a)
    return _folded(_UNARY_ARRAY[op], a.lit) or Unary(op, a)


def _function(op: str):
    def build(a) -> Expression:
        return _unary(op, as_expr(a))

    build.__name__ = build.__qualname__ = op
    return build


sin, cos, tan, exp, log, sqrt, sinh, cosh = map(_function, FUNCTIONS)

_BINARY = {"+": add, "-": sub, "*": mul, "/": div, "^": pow_}


def _rebuild(node: Expression, kids: list) -> Expression:
    """``node``'s operator applied to ``kids`` by the smart constructors; a
    leaf is returned as it is."""
    if len(kids) == 1:
        return _unary(node.op, kids[0])
    return _BINARY[node.op](*kids) if kids else node


def expr_sum(terms) -> Expression:
    """Balanced sum of many terms (keeps tree depth logarithmic)."""
    items = [as_expr(t) for t in terms]
    items = [t for t in items if not is_zero(t)]
    if not items:
        return ZERO
    while len(items) > 1:
        nxt = []
        for k in range(0, len(items) - 1, 2):
            nxt.append(add(items[k], items[k + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def is_zero(e: Expression) -> bool:
    """Structural zero test (use after simplify/smart construction)."""
    return isinstance(e, Num) and e.value == 0.0


def all_zero(nested) -> bool:
    """``is_zero`` of every expression in a nested tuple/list."""
    if isinstance(nested, (tuple, list)):
        return all(map(all_zero, nested))
    return is_zero(nested)


# ---------------------------------------------------------------------------
# families: nested tuples of expressions, indexed [i-1][j-1]...
#
# A family stored symmetric in its last two indices is built by an entry
# that orders that pair first, so interning hands the mirror the very node;
# an antisymmetric one negates the swapped entry below the diagonal.
# ---------------------------------------------------------------------------


def nested(extents, entry, *index):
    """Nested tuples of entry(i, j, ...) over range(e) for each extent e."""
    if len(index) == len(extents):
        return entry(*index)
    return tuple(nested(extents, entry, *index, k) for k in range(extents[len(index)]))


def entry_at(family, index, kinds: str):
    """The entry of a nested family at a 1-based index.  ``kinds`` gives
    each position's range, "s" for spatial (1..n) or "t" for temporal
    (1..m); an index outside its range raises ValueError naming it."""
    node = family
    for pos, (k, kind) in enumerate(zip(index, kinds)):
        if not 1 <= k <= len(node):
            label = "spatial" if kind == "s" else "temporal"
            raise ValueError(
                f"component {tuple(index)}: index {pos + 1} is {k}, "
                f"outside the {label} range 1..{len(node)}"
            )
        node = node[k - 1]
    return node


def freeze(family):
    """Nested tuples of expressions from nested tuples/lists of anything
    ``as_expr`` accepts."""
    if isinstance(family, (tuple, list)):
        return tuple(map(freeze, family))
    return as_expr(family)


def check_family(family, m: int, n: int, extents, what: str, symmetric=False):
    """Check a frozen family: its extents, its variables' index bounds
    (``check_bounds``) and, when ``symmetric``, that each mirror in the last
    two indices is the same node."""

    def walk(node, shape):
        if not shape:
            if not isinstance(node, Expression):
                raise TypeError(f"{what}: leaf is not an Expression")
            check_bounds(node, m, n)
            return
        if not isinstance(node, tuple) or len(node) != shape[0]:
            raise ValueError(f"{what}: expected extent {shape[0]} at depth")
        for kid in node:
            walk(kid, shape[1:])
        if symmetric and len(shape) == 2:
            d = shape[0]
            if any(node[a][b] is not node[b][a] for a in range(d) for b in range(a)):
                raise ValueError(
                    f"{what}: components must be stored symmetric "
                    f"in the two trailing indices"
                )

    walk(family, tuple(extents))


# ---------------------------------------------------------------------------
# traversal core
# ---------------------------------------------------------------------------


def _postorder_map(root: Expression, compute, memo: dict | None = None):
    """Apply ``compute(node, child_results)`` bottom-up over the DAG.

    Nodes are memoized by identity, so shared subtrees are computed once.
    A ``memo`` passed in is read and extended, so results carry over between
    calls with the same ``compute``.
    """
    if memo is None:
        memo = {}
    stack: list[tuple[Expression, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if node in memo:
            continue
        kids = node.kids
        if ready or not kids:
            memo[node] = compute(node, [memo[k] for k in kids])
        else:
            stack.append((node, True))
            for k in kids:
                if k not in memo:
                    stack.append((k, False))
    return memo[root]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax / identifier / index-range problem, with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class EvaluationError(ValueError):
    """Domain error or unbound variable; carries the offending subexpression."""

    def __init__(self, message: str, expression: Expression | None = None):
        if expression is not None:
            message = f"{message} in `{to_string(expression)}`"
        super().__init__(message)
        self.expression = expression


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class Bindings:
    """Values for jet variables; scalar floats or numpy arrays (all of one
    common shape) for vectorized evaluation."""

    m: int
    n: int
    values: dict[VariableId, float | np.ndarray] = field(default_factory=dict)

    @classmethod
    def jet(cls, m: int, n: int, t=(), x=(), v=()) -> "Bindings":
        """Bind the jet coordinates that are given; an empty block stays
        unbound.

        ``t``, ``x`` and ``v`` have shapes (m,), (n,) and (n, m) for one
        point, or those shapes plus a trailing batch axis.  One point is
        stored as Python floats, so the tape runs on floats and a domain
        error raises (a 0-d array would make it a batch, which returns nan
        instead); a batch is stored as arrays.
        """
        vids = {
            "t": [VariableId(TEMPORAL, alpha=a + 1) for a in range(m)],
            "x": [VariableId(SPATIAL, i=i + 1) for i in range(n)],
            "v": [
                VariableId(VELOCITY, i=i + 1, alpha=a + 1)
                for i in range(n)
                for a in range(m)
            ],
        }
        vals: dict[VariableId, float | np.ndarray] = {}
        blocks = (("t", t, (m,)), ("x", x, (n,)), ("v", v, (n, m)))
        for label, coords, extents in blocks:
            arr = np.asarray(coords, dtype=float)
            if arr.size == 0:
                continue
            if arr.shape[: len(extents)] != extents or arr.ndim > len(extents) + 1:
                raise ValueError(
                    f"{label} coordinates: expected shape {extents}, optionally "
                    f"with a trailing batch axis; got {arr.shape}"
                )
            # one row per variable, contiguous like a freshly built array
            rows = np.ascontiguousarray(arr.reshape(len(vids[label]), -1))
            one_point = arr.ndim == len(extents)
            vals.update(zip(vids[label], rows[:, 0].tolist() if one_point else rows))
        return cls(m, n, vals)

    @classmethod
    def from_names(cls, m: int, n: int, by_name: dict) -> "Bindings":
        return cls(m, n, {parse_variable_name(k, m, n): v for k, v in by_name.items()})

    def with_value(self, vid: VariableId, value) -> "Bindings":
        return Bindings(self.m, self.n, {**self.values, vid: value})


_VAR_NAME_RE = re.compile(r"^(?:t([0-9]+)|x([0-9]+)|v([0-9]+)_([0-9]+))$")


def parse_variable_name(name: str, m: int, n: int) -> VariableId:
    return _classify(name, m, n, 0)


def _classify(word: str, m: int, n: int, position: int) -> VariableId:
    mt = _VAR_NAME_RE.match(word)
    if not mt:
        raise ParseError(f"unknown identifier '{word}'", position)
    t, x, vi, va = (None if g is None else int(g) for g in mt.groups())
    i = x if x is not None else vi
    a = t if t is not None else va
    if i is not None and not 1 <= i <= n:
        msg = f"spatial index {i} out of range 1..{n} in '{word}'"
        raise ParseError(msg, position)
    if a is not None and not 1 <= a <= m:
        msg = f"temporal index {a} out of range 1..{m} in '{word}'"
        raise ParseError(msg, position)
    kind = TEMPORAL if t is not None else SPATIAL if x is not None else VELOCITY
    return VariableId(kind, i=i or 0, alpha=a or 0)


_UNARY_ARRAY = {"neg": np.negative} | {f: getattr(np, f) for f in FUNCTIONS}


_BINARY_ARRAY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    # np.divide, not /: two constant operands are plain floats, and float
    # division by zero raises instead of giving inf or nan
    "/": np.divide,
    "^": np.power,
}


def _variable_power(a, b):
    """``a ^ b`` for an exponent that depends on jet variables.  A float
    exponent of 2, -1 or 0.5 takes a NumPy fast path that rounds unlike the
    array loop a batch's exponent column runs, so one point runs that loop
    too."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    return np.power(a, np.reshape(b, np.shape(b) or 1)).reshape(shape)


def _leaf_value(node: Expression, values: dict):
    """The value of a literal, constant or variable under ``values``."""
    if type(node) is Var:
        if node.vid not in values:
            raise EvaluationError(f"unbound variable '{node.vid.name}'", node)
        return values[node.vid]
    if type(node) is Const:
        return math.pi if node.name == "pi" else math.e
    return node.value


def _reachable(roots) -> list:
    """Every node the roots reach, in creation (so topological) order."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for kid in stack.pop().kids:
            if kid not in seen:
                seen.add(kid)
                stack.append(kid)
    return sorted(seen, key=operator.attrgetter("index"))


class _Tape:
    """The union DAG of ``roots`` lowered to a topologically ordered program
    with one slot per distinct node, run with numpy on floats or arrays.

    Each instruction drops the operand slots it is the last reader of, so
    only the live frontier of the DAG is held; root slots are kept.
    """

    def __init__(self, roots):
        self.nodes = nodes = _reachable(roots)  # by slot
        slot_of = {node: s for s, node in enumerate(nodes)}
        self.outputs = [slot_of[r] for r in roots]
        read = bytearray(len(nodes))  # 1 where a later slot reads it; roots are kept
        for s in self.outputs:
            read[s] = 1
        self.leaves = []  # (slot, node) for literals and variables
        # (function, left slot, right slot or -1, out slot, drop left, drop right)
        self.code = []
        for s in range(len(nodes) - 1, -1, -1):  # last readers first
            node = nodes[s]
            kids = node.kids
            if not kids:
                self.leaves.append((s, node))
            elif len(kids) == 1:
                a = slot_of[kids[0]]
                self.code.append((_UNARY_ARRAY[node.op], a, -1, s, not read[a], False))
                read[a] = 1
            else:
                a, b = slot_of[kids[0]], slot_of[kids[1]]
                fn = _BINARY_ARRAY[node.op]
                if node.op == "^" and kids[1].mask:
                    fn = _variable_power
                self.code.append((fn, a, b, s, not read[a], not read[b]))
                read[a] = read[b] = 1
        self.code.reverse()
        self.leaves.reverse()

    def run(self, bindings: Bindings) -> list:
        """The root values, in the order of the roots."""
        slots = [None] * len(self.nodes)
        values = bindings.values
        for s, node in self.leaves:
            slots[s] = _leaf_value(node, values)
        if self.code:
            with np.errstate(all="ignore"):
                for fn, a, b, out, drop_a, drop_b in self.code:
                    slots[out] = fn(slots[a]) if b < 0 else fn(slots[a], slots[b])
                    if drop_a:
                        slots[a] = None
                    if drop_b:
                        slots[b] = None
        return [slots[s] for s in self.outputs]


def _run(roots, bindings: Bindings) -> list:
    """The roots' values, in order, from one tape.  Over a batch, out-of-domain
    points come back as nan/inf; at one point the values are floats, and the
    first domain error ``_scan`` finds raises EvaluationError."""
    values = _Tape(roots).run(bindings)
    if any(isinstance(v, np.ndarray) for v in bindings.values.values()):
        return values  # a batch
    values = list(map(float, values))
    for _, origin, message in _scan(roots, values, bindings):
        if message:
            raise EvaluationError(message, origin)
    return values


def _scan(roots, values, bindings: Bindings):
    """At each point where some root is not finite, in sample (C) order, and
    for each such root in order, yields the root, its origin (reached through
    the first non-finite operand until all operands are finite) and
    ``_domain_error``'s message.  ``values`` are the roots' values: floats at
    one point, else an array of shape (roots,) + batch shape.  One tape of
    every node runs over those points only (one point stays on floats)."""
    if isinstance(values, np.ndarray):
        bad = np.flatnonzero(~np.isfinite(values.reshape(len(roots), -1)).all(axis=0))
        flat = {
            vid: np.broadcast_to(v, values.shape[1:]).reshape(-1)[bad]
            for vid, v in bindings.values.items()
        }
        bindings = Bindings(bindings.m, bindings.n, flat)
    else:
        bad = [] if all(map(math.isfinite, values)) else [0]
    if not len(bad):
        return
    nodes = _reachable(roots)
    table = dict(zip(nodes, _Tape(nodes).run(bindings)))
    for k in range(len(bad)):

        def value(node):  # a 0-d array comes from a one-point variable power
            v = table[node]
            return float(v[k] if np.ndim(v) else v)

        for root in (r for r in roots if not math.isfinite(value(r))):
            node = root
            while failing := [kid for kid in node.kids if not math.isfinite(value(kid))]:
                node = failing[0]
            yield root, node, _domain_error(node, [value(kid) for kid in node.kids])


def _domain_error(node: Expression, operands: list) -> str | None:
    """Why ``node`` is not finite while its ``operands`` are, or None where
    the non-finite value stands: an input, a sum, difference, product or
    negation that overflows, a quotient by a non-zero divisor."""
    op = node.op if node.kids else None
    if op in (None, "+", "-", "*", "neg"):
        return None
    a = operands[0]
    if op == "log":
        return f"log of non-positive value {a}"
    if op == "sqrt":
        return f"sqrt of negative value {a}"
    if op == "/":
        return "division by zero" if operands[1] == 0.0 else None
    if op == "^":
        b = operands[1]
        if a == 0.0 and b < 0.0:
            return "zero raised to a negative power"
        if a < 0.0 and not float(b).is_integer():
            return "non-integer power of a non-positive base"
        return "overflow in power"
    # from finite operands only exp, sinh and cosh get here (sin, cos and
    # tan of a finite float are finite), and each only by overflowing
    return f"overflow in {op}"


def evaluate(e: Expression, bindings: Bindings):
    """Evaluate through one tape (see ``_run``): at one point a float, and a
    domain error raises EvaluationError identifying the offending
    subexpression; over array bindings an array, nan/inf where out of domain.
    """
    return _run([e], bindings)[0]


def _nesting(nested, leaves: list) -> tuple:
    """Shape of a rectangular nesting of tuples/lists; appends its leaves to
    ``leaves`` in nesting order."""
    if not isinstance(nested, (tuple, list)):
        leaves.append(nested)
        return ()
    shapes = {_nesting(part, leaves) for part in nested}
    if len(shapes) > 1:
        raise ValueError("expressions are not nested rectangularly")
    return (len(nested),) + (shapes.pop() if shapes else ())


def evaluate_nested(nested, bindings: Bindings):
    """Evaluate a nested tuple/list of expressions into a float ndarray.

    The array shape mirrors the nesting, plus a trailing batch axis when the
    bindings hold arrays (a leaf that evaluates to a plain scalar, a
    constant say, is broadcast along it).  The whole family is one tape
    (see ``_Tape``), so a node shared by several leaves is computed once; at
    one point the first leaf, in nesting order, with a domain error raises.
    """
    leaves: list[Expression] = []
    shape = _nesting(nested, leaves)
    values = _run(leaves, bindings)
    batch = np.broadcast_shapes(*(np.shape(v) for v in bindings.values.values()))
    rows = [np.broadcast_to(value, batch) for value in values]
    return np.array(rows, dtype=float).reshape(shape + batch)


def evaluate_in_domain(nested, bindings: Bindings):
    """``evaluate_nested`` with the one-point domain rule over a batch too: a
    batch raises what evaluating its points one at a time, in sample order,
    raises first (``_scan``).  Non-finite values that stand (an overflow, a
    non-finite input) are returned as they are."""
    out = evaluate_nested(nested, bindings)
    is_batch = any(isinstance(v, np.ndarray) for v in bindings.values.values())
    if is_batch and not np.isfinite(out).all():
        leaves: list[Expression] = []
        values = out.reshape((-1,) + out.shape[len(_nesting(nested, leaves)) :])
        for _, origin, message in _scan(leaves, values, bindings):
            if message:
                raise EvaluationError(message, origin)
    return out


def nonfinite_origin(e: Expression, bindings: Bindings) -> Expression | None:
    """Where a batch evaluation of ``e`` first turns non-finite: at the first
    point, in sample order, where ``e`` is not finite, the node ``_scan``
    walks back to (non-finite while all its operands are finite); None if
    ``e`` is finite at every point."""
    values = evaluate_nested([e], bindings)
    return next((origin for _, origin, _ in _scan([e], values, bindings)), None)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

# per variable: node -> derivative, for the life of the process
_DERIVATIVES: dict[VariableId, dict[Expression, Expression]] = {}


def differentiate(e: Expression, var) -> Expression:
    """Partial derivative with respect to one jet variable.

    All jet variables are independent coordinates here: d v1_1/d x1 == 0.
    Results come out pre-simplified (built through the smart constructors).
    The walk does not enter a subtree whose mask lacks the variable: its
    derivative is ``ZERO``, which the full rules give there too.
    """
    vid = var.vid if isinstance(var, Var) else var
    if not isinstance(vid, VariableId):
        raise TypeError("var must be a Var node or a VariableId")
    bit = _VAR_BITS.get(vid, 0)
    if not e.mask & bit:
        return ZERO
    memo = _DERIVATIVES.setdefault(vid, {})
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if node in memo:
            continue
        if ready:
            kids = [memo[k] if k.mask & bit else ZERO for k in node.kids]
            memo[node] = _derivative(node, kids)
        else:
            stack.append((node, True))
            for k in node.kids:
                if k.mask & bit and k not in memo:
                    stack.append((k, False))
    return memo[e]


def _derivative(node: Expression, kids: list) -> Expression:
    """The derivative of ``node`` (which depends on the variable) from its
    children's derivatives ``kids``."""
    if not kids:
        return ONE  # the variable itself
    op = node.op
    if len(kids) == 1:
        (da,) = kids
        a = node.arg
        if op == "neg":
            return neg(da)
        if is_zero(da):
            return ZERO
        if op == "sin":
            return mul(cos(a), da)
        if op == "cos":
            return neg(mul(sin(a), da))
        if op == "tan":
            return mul(add(ONE, pow_(tan(a), 2.0)), da)
        if op == "exp":
            return mul(node, da)
        if op == "log":
            return div(da, a)
        if op == "sqrt":
            return div(da, mul(2.0, node))
        if op == "sinh":
            return mul(cosh(a), da)
        return mul(sinh(a), da)  # cosh
    dl, dr = kids
    l, r = node.kids
    if op == "+":
        return add(dl, dr)
    if op == "-":
        return sub(dl, dr)
    if op == "*":
        if dl is ZERO or dr is ZERO:  # the full rule adds ZERO to the other term
            return mul(l, dr) if dl is ZERO else mul(dl, r)
        return add(mul(dl, r), mul(l, dr))
    if op == "/":
        return div(sub(mul(dl, r), mul(l, dr)), pow_(r, 2.0))
    # power
    rv = r.lit
    if rv is not None:
        if is_zero(dl):
            return ZERO
        return mul(mul(num(rv), pow_(l, num(rv - 1.0))), dl)
    # general u^w: u^w * (dw*log(u) + w*du/u)
    return mul(node, add(mul(dr, log(l)), mul(r, div(dl, l))))


def fd_partial(e: Expression, var, bindings: Bindings, step: float = 1e-6) -> float:
    """Central finite-difference partial; the numeric oracle for differentiate."""
    vid = var.vid if isinstance(var, Var) else var
    base = float(bindings.values[vid])
    hi = evaluate(e, bindings.with_value(vid, base + step))
    lo = evaluate(e, bindings.with_value(vid, base - step))
    return (hi - lo) / (2.0 * step)


# ---------------------------------------------------------------------------
# substitution / simplification / inspection
# ---------------------------------------------------------------------------


def substitute(e: Expression, mapping: dict) -> Expression:
    """Replace variables by expressions (simultaneous, one pass).

    Keys may be Var nodes or VariableIds; values anything coercible to an
    Expression.  The rebuild goes through the smart constructors, so the
    composed result is pre-simplified.
    """
    table: dict[VariableId, Expression] = {}
    for key, val in mapping.items():
        kid = key.vid if isinstance(key, Var) else key
        table[kid] = as_expr(val)

    def compute(node, kids):
        if type(node) is Var:
            return table.get(node.vid, node)
        if all(map(operator.is_, kids, node.kids)):
            return node  # nothing below it changed
        return _rebuild(node, kids)

    return _postorder_map(e, compute)


# node -> simplified node, for the life of the process
_SIMPLIFIED: dict[Expression, Expression] = {}


def simplify(e: Expression) -> Expression:
    """Conservative cleanup: rebuilds the DAG through the smart constructors.

    Guarantees: 0/1 neutral elements dropped, multiplication by zero folded,
    literal subtrees folded when finite and defined, double negation removed.
    The result evaluates identically to the input on any bindings where the
    input is defined.
    """
    # always rebuild through the smart constructors: the node may predate
    # them (e.g. it came straight from parse)
    return _postorder_map(e, _rebuild, _SIMPLIFIED)


def free_variables(e: Expression) -> frozenset[VariableId]:
    """The jet variables ``e`` depends on, decoded from its mask."""
    return frozenset(vid for vid, bit in _VAR_BITS.items() if e.mask & bit)


def check_bounds(e: Expression, m: int, n: int) -> None:
    """Raise ParseError if any variable index exceeds the (m, n) bounds."""
    for vid in free_variables(e):
        if not vid.in_bounds(m, n):
            raise ParseError(
                f"variable '{vid.name}' out of range for m={m}, n={n}", 0
            )


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _num_str(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expression) -> str:
    """Render with minimal parentheses; parse(to_string(e)) rebuilds e."""

    def compute(node, kids):
        # each result is (text, precedence)
        if isinstance(node, Num):
            return (_num_str(node.value), _PREC_ATOM)
        if isinstance(node, Const):
            return (node.name, _PREC_ATOM)
        if isinstance(node, Var):
            return (node.vid.name, _PREC_ATOM)
        if isinstance(node, Unary):
            (a,) = kids
            if node.op == "neg":
                text = a[0] if a[1] >= _PREC_NEG else f"({a[0]})"
                return (f"-{text}", _PREC_NEG)
            return (f"{node.op}({a[0]})", _PREC_ATOM)
        l, r = kids
        op = node.op
        if op in "+-":
            lt = l[0] if l[1] >= _PREC_ADD else f"({l[0]})"
            rt = r[0] if r[1] > _PREC_ADD else f"({r[0]})"
            return (f"{lt} {op} {rt}", _PREC_ADD)
        if op in "*/":
            lt = l[0] if l[1] >= _PREC_MUL else f"({l[0]})"
            rt = r[0] if r[1] > _PREC_MUL else f"({r[0]})"
            return (f"{lt}{op}{rt}", _PREC_MUL)
        # ^ is right-associative and binds tighter than unary minus
        lt = l[0] if l[1] > _PREC_POW else f"({l[0]})"
        rt = r[0] if r[1] >= _PREC_NEG else f"({r[0]})"
        return (f"{lt}^{rt}", _PREC_POW)

    return _postorder_map(e, compute)[0]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        mt = _TOKEN_RE.match(text, pos)
        if not mt:
            raise ParseError(f"unexpected character {ch!r}", pos)
        kind = mt.lastgroup
        tokens.append((kind, mt.group(), pos))
        pos = mt.end()
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Grammar (loosest to tightest): sums, products, unary minus, powers
    (right-associative), atoms.  No implicit multiplication.
    """

    def __init__(self, text: str, m: int, n: int):
        self.tokens = _tokenize(text)
        self.k = 0
        self.m = m
        self.n = n

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            shown = text if text else "end of input"
            raise ParseError(f"expected '{symbol}', found '{shown}'", pos)
        return self.take()

    def parse(self) -> Expression:
        e = self.sum_()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input '{text}'", pos)
        return e

    def chain(self, ops: str, operand) -> Expression:
        """Left-associative chain of ``operand`` joined by one of ``ops``."""
        e = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in ops:
                return e
            self.take()
            e = Binary(text, e, operand())

    def sum_(self) -> Expression:
        return self.chain("+-", lambda: self.chain("*/", self.factor))

    def factor(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return Binary("^", base, self.factor())
        return base

    def atom(self) -> Expression:
        kind, text, pos = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            e = self.sum_()
            self.expect_op(")")
            return e
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum_()
                self.expect_op(")")
                return Unary(text, arg)
            if text == "pi":
                return PI
            if text == "e":
                return E
            return Var(_classify(text, self.m, self.n, pos))
        shown = text if text else "end of input"
        raise ParseError(f"expected an expression, found '{shown}'", pos)


def parse(text: str, m: int, n: int) -> Expression:
    """Parse source text into an expression tree (unsimplified, as written).

    m and n bound the admissible temporal/spatial indices; violations raise
    ParseError with the offending position.
    """
    if not 1 <= m <= 4 or not 1 <= n <= 4:
        raise ValueError("dimensions must satisfy 1 <= m, n <= 4")
    return _Parser(text, m, n).parse()
