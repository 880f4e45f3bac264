"""Symbolic scalar expressions over jet coordinates t^a, x^i and velocities v^i_a.

Expression nodes are hash-consed: every constructor (``Num``, ``Const``,
``Var``, ``Unary``, ``Binary``) returns the one node of that structure,
looked up in the table of its operator or leaf class (``_NODES``): an
operator node under its own children tuple (interned too, so compared by
identity; the one tuple is both key and ``kids``), a variable under its
``VariableId`` and a literal under its bit pattern (``Num(-0.0)`` is not
``ZERO``, but ``num`` folds ``-0.0`` to ``ZERO``).  Structurally equal
expressions are therefore the same object: equality is ``is`` and hashing
is O(1).  The tables hold their nodes for the life of the process, so ids
are never reused, and ``differentiate`` keeps its results (one memo per
variable, keyed by node) for the life of the process too.

Nodes are canonical: the smart constructors (``add``, ``mul``, ``neg``, ...)
build every node, and ``parse`` returns ``simplify`` of the tree as written,
so no builder needs to simplify what it composes.  They are the one way to
combine nodes; a node has no arithmetic operators.  Calling ``Unary`` or
``Binary`` directly gives a raw node; only the smart constructors and the
parser call them.

Interning also sets three fields on each node: ``kids`` (its children),
``mask`` (a bit per jet variable it depends on) and ``index`` (its creation
number, from a counter), besides its own one: a leaf's ``value``, ``name``
or ``vid``, an operator node's ``op``.  ``lit`` is a node's value if it is
a literal or a negated literal, else None: a literal's ``value``, a field
of a ``Unary`` node, and None on the other classes.  ``left``, ``right``
and ``arg`` are read-only views of ``kids``.  Children are interned before
their parents, so creation order is topological.  Walks and constant
folding read these fields instead of dispatching on the class;
``free_variables`` decodes the mask; ``differentiate`` does not enter a
subtree whose mask lacks its variable (the derivative there is ``ZERO``);
tapes are lowered by a sort on ``index``.
The derivative rules are one table keyed by operator, ``_DERIVATIVE``, with
a rule for each operator of the tape; an operator without one raises
``KeyError``.  The smart constructors coerce only arguments that are not
nodes already (``as_expr``).

An indexed family of expressions (a system, a connection, an invariant) is
nested tuples, built by ``nested`` from one entry function, frozen by
``freeze`` and checked by ``check_family``; ``evaluate_nested`` evaluates it.
The family classes of the geometry modules derive from ``Family``, which
does the freezing, the check, ``component``, ``from_upper`` and ``evaluate``
from what each subclass declares.

Results of the builders in the geometry modules are DAGs rather than trees.
There is one walk of the DAG, ``_reachable``: it lists the nodes some roots
reach, each once, in creation order, and every pass (``substitute``,
``simplify``, ``to_string``, ``differentiate``, tape lowering) is a loop over
that list, so shared subtrees are processed once and recursion depth is
never an issue.  A family's nesting is read one way too: ``family_array``
makes it an object array, whose shape gives the extents and ``.flat`` the
leaves.

There is one evaluator: a family's union DAG is lowered to one tape (a flat
program of six list entries per instruction), run with numpy on Python
floats (one point) or on arrays (a batch), and constant folding calls the
same numpy functions, so every path rounds alike.  It has one non-finite
rule: an operation whose operands are finite and whose value is not (it
left its domain, or overflowed) is an EvaluationError, and a batch raises
what its first failing point raises alone (``_scan``).  Only a non-finite
input propagates.  A batch that runs in stages (a metric's entries, then
its determinant, say) goes through the one staged-batch helper,
``by_point``.

Variables are 1-based: ``t1..tm`` (temporal), ``x1..xn`` (spatial) and
``v<i>_<a>`` (velocity of x^i in the t^a direction).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import NamedTuple

import numpy as np

TEMPORAL = "temporal"
SPATIAL = "spatial"
VELOCITY = "velocity"
KINDS = (TEMPORAL, SPATIAL, VELOCITY)
MAX_DIM = 4

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")


class VariableId(NamedTuple):
    """Identity of a jet variable: kind plus its 1-based indices.

    Temporal variables use ``alpha`` only, spatial use ``i`` only, velocities
    use both.  The unused index is 0.  A tuple, so it equals the plain tuple
    of its fields; the dicts keyed by VariableIds (``_VAR_BITS``, a
    ``Bindings``' values, the derivative memo) never hold plain tuples.
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


class Frozen:
    """Base of the immutable value classes and expression nodes: each attribute
    is set once; assigning or deleting one raises AttributeError."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        kind = type(self).__name__
        raise AttributeError(f"{kind} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__


class Expression(Frozen):
    """Base class; nodes are interned and immutable (see the module doc)."""

    __slots__ = ("kids", "mask", "index")
    lit = None  # read by Binary, Var and Const; Num and Unary override it

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the interned node
        if self.kids:
            return (type(self), (self.op, *self.kids))
        return (type(self), (getattr(self, type(self).__slots__[0]),))

    def __str__(self) -> str:
        return to_string(self)

    __repr__ = __str__


# the mask bit of each jet variable, given out as variables are first used
_VAR_BITS: dict[VariableId, int] = {}
# creation numbers, given out as nodes are built
_CREATED = itertools.count()
_new = object.__new__
_set_kids, _set_mask, _set_index = (
    getattr(Expression, f).__set__ for f in Expression.__slots__
)


def _leaf(cls, key, value, mask=0):
    """The leaf stored under ``key`` in its class's table; on first use it is
    built with ``value`` in its one own field and the per-node fields."""
    table = _NODES[cls]
    node = table.get(key)
    if node is None:
        node = _new(cls)
        getattr(cls, cls.__slots__[0]).__set__(node, value)
        _set_kids(node, ())
        _set_mask(node, mask)
        _set_index(node, next(_CREATED))
        table[key] = node
    return node


class Num(Expression):
    """Nonnegative numeric literal (negatives are ``neg`` nodes, so every
    printed expression re-parses to the same tree)."""

    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        return _leaf(cls, value.hex(), value)


Num.lit = Num.value  # a literal's ``lit`` is its value, read from that slot


class Const(Expression):
    """Named constant: ``pi`` or ``e``."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _leaf(cls, name, name)


class Var(Expression):
    __slots__ = ("vid",)

    def __new__(cls, vid: VariableId):
        bit = _VAR_BITS.setdefault(vid, 1 << len(_VAR_BITS))
        return _leaf(cls, vid, vid, mask=bit)


class Unary(Expression):
    """Called directly it gives a raw node, which need not be canonical; only
    the smart constructors and the parser call it."""

    __slots__ = ("op", "lit")  # "neg" or a function name; -value of neg(Num)

    def __new__(cls, op: str, arg: Expression):
        return _unary_node(op, arg)

    @property
    def arg(self) -> Expression:
        return self.kids[0]


class Binary(Expression):
    """Called directly it gives a raw node, which need not be canonical; only
    the smart constructors and the parser call it."""

    __slots__ = ("op",)  # + - * / ^

    def __new__(cls, op: str, left: Expression, right: Expression):
        return _binary_node(op, left, right)

    @property
    def left(self) -> Expression:
        return self.kids[0]

    @property
    def right(self) -> Expression:
        return self.kids[1]


# every node ever built, by structure: one table per leaf class, keyed on the
# leaf's value (a literal on its bit pattern), and one per operator, keyed on
# the node's own ``kids`` tuple (interned nodes, so compared by identity), so
# one tuple is both key and kids.  Never emptied, so ids stay unique.
_NODES: dict = {
    key: {} for key in (Num, Const, Var, "neg", *FUNCTIONS, "+", "-", "*", "/", "^")
}
_set_unary_op, _set_unary_lit = Unary.op.__set__, Unary.lit.__set__
_set_binary_op = Binary.op.__set__


def _unary_node(op: str, arg: Expression) -> Unary:
    """The interned raw node ``op(arg)``; the smart constructors call this
    instead of ``Unary``, which costs a type call more."""
    table, kids = _NODES[op], (arg,)
    node = table.get(kids)
    if node is None:
        node = _new(Unary)
        _set_unary_op(node, op)
        _set_kids(node, kids)
        _set_unary_lit(node, -arg.value if op == "neg" and type(arg) is Num else None)
        _set_mask(node, arg.mask)
        _set_index(node, next(_CREATED))
        table[kids] = node
    return node


def _binary_node(op: str, left: Expression, right: Expression) -> Binary:
    """The interned raw node ``left op right`` (see ``_unary_node``)."""
    table, kids = _NODES[op], (left, right)
    node = table.get(kids)
    if node is None:
        node = _new(Binary)
        _set_binary_op(node, op)
        _set_kids(node, kids)
        _set_mask(node, left.mask | right.mask)
        _set_index(node, next(_CREATED))
        table[kids] = node
    return node


ZERO = Num(0.0)
ONE = Num(1.0)
TWO = Num(2.0)
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
        return _unary_node("neg", Num(-value))
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
# These perform the conservative simplifications that define a canonical
# node: neutral elements, annihilation by zero, constant folding (only when
# the result is finite and defined), and double-negation removal.  Everything
# built through them, and everything ``parse`` returns, is canonical, so
# ``simplify`` of it is the node itself.
# ---------------------------------------------------------------------------


def neg(a) -> Expression:
    a = a if isinstance(a, Expression) else as_expr(a)
    if isinstance(a, Unary) and a.op == "neg":
        return a.kids[0]
    if is_zero(a):
        return ZERO
    return _unary_node("neg", a)


def add(a, b) -> Expression:
    a = a if isinstance(a, Expression) else as_expr(a)
    b = b if isinstance(b, Expression) else as_expr(b)
    av, bv = a.lit, b.lit
    if av is None and bv is None:
        return _binary_node("+", a, b)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    if av is not None and bv is not None:
        s = av + bv
        if math.isfinite(s):
            return num(s)
    return _binary_node("+", a, b)


def sub(a, b) -> Expression:
    a = a if isinstance(a, Expression) else as_expr(a)
    b = b if isinstance(b, Expression) else as_expr(b)
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
    return _binary_node("-", a, b)


def mul(a, b) -> Expression:
    a = a if isinstance(a, Expression) else as_expr(a)
    b = b if isinstance(b, Expression) else as_expr(b)
    av, bv = a.lit, b.lit
    if av is None and bv is None:
        return _binary_node("*", a, b)
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
    return _binary_node("*", a, b)


def div(a, b) -> Expression:
    a = a if isinstance(a, Expression) else as_expr(a)
    b = b if isinstance(b, Expression) else as_expr(b)
    av, bv = a.lit, b.lit
    if bv == 1.0:
        return a
    if bv == -1.0:
        return neg(a)
    if av == 0.0 and bv != 0.0:
        return ZERO  # 0/x; 0/0 stays, like 1/0, and raises when evaluated
    if av is not None and bv is not None and bv != 0.0:
        q = av / bv
        if math.isfinite(q):
            return num(q)
    return _binary_node("/", a, b)


def pow_(a, b) -> Expression:
    a = a if isinstance(a, Expression) else as_expr(a)
    b = b if isinstance(b, Expression) else as_expr(b)
    av, bv = a.lit, b.lit
    if bv == 1.0:
        return a
    if bv == 0.0:
        # empty product: x^0 == 1 for every x under the repeated-product
        # reading of integer powers
        return ONE
    if av == 0.0 and bv is not None and bv > 0.0:
        return ZERO
    return _folded(np.power, av, bv) or _binary_node("^", a, b)


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
    return _folded(_UNARY_ARRAY[op], a.lit) or _unary_node(op, a)


def _function(op: str):
    def build(a) -> Expression:
        return _unary(op, a if isinstance(a, Expression) else as_expr(a))

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
    """Structural zero test; every canonical zero is ``ZERO``."""
    return isinstance(e, Num) and e.value == 0.0


def all_zero(nested) -> bool:
    """``is_zero`` of every expression in a nesting (see ``family_array``)."""
    return all(map(is_zero, family_array(nested).flat))


# ---------------------------------------------------------------------------
# families: nested tuples of expressions, indexed [i-1][j-1]...
# ---------------------------------------------------------------------------


def family_array(nested) -> np.ndarray:
    """A rectangular nesting of tuples/lists of expressions (or an object
    array) as a new object array: ``.shape`` gives its extents, ``.flat`` its
    leaves in nesting order, and a 0-based index tuple one entry.  A ragged
    nesting raises ValueError."""
    arr = np.array(nested, dtype=object)
    # numpy stops at the depth where the nesting turns ragged
    if any(isinstance(leaf, (tuple, list)) for leaf in arr.flat):
        raise ValueError("expressions are not nested rectangularly")
    return arr


def nested(extents, entry, symmetric=False, antisymmetric=False):
    """Nested tuples of entry(i, j, ...) over range(e) for each extent e.

    A family stored ``symmetric`` or ``antisymmetric`` in its last two
    indices (p, q) calls ``entry`` only for p <= q, or p < q when
    antisymmetric; each mirror (q, p) is the node built for (p, q), negated
    when antisymmetric, whose diagonal is then ``ZERO``."""
    if not (symmetric or antisymmetric):
        return _nested(extents, entry)
    built = {}

    def upper(*index):
        *head, p, q = index
        if p < q or symmetric and p == q:
            node = built[index] = entry(*index)
            return node
        if p == q:
            return ZERO
        mirror = built[(*head, q, p)]
        return mirror if symmetric else neg(mirror)

    return _nested(extents, upper)


def _nested(extents, entry, *index):
    if len(index) == len(extents):
        return entry(*index)
    return tuple(_nested(extents, entry, *index, k) for k in range(extents[len(index)]))


def entry_at(family, index, kinds: str):
    """The entry of a nested family at a 1-based index.  ``kinds`` gives
    each position's range, "s" for spatial (1..n) or "t" for temporal
    (1..m); an index of the wrong length or outside its range raises
    ValueError naming it."""
    if len(index) != len(kinds):
        raise ValueError(
            f"component {tuple(index)}: expected {len(kinds)} indices, got {len(index)}"
        )
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


def check_dimensions(m: int, n: int) -> None:
    """Refuse a jet space with m times or n coordinates outside 1..MAX_DIM."""
    if not 1 <= m <= MAX_DIM or not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimensions must satisfy 1 <= m, n <= {MAX_DIM}")


_NEGATED = np.frompyfunc(neg, 1, 1)  # neg of each entry of an object array


def check_family(
    family,
    m: int,
    n: int,
    extents,
    what: str,
    symmetric=False,
    kinds=KINDS,
    antisymmetric=False,
):
    """Check a frozen family: the dimensions (``check_dimensions``), its
    extents, that every leaf uses only variables of ``kinds`` within the
    (m, n) index bounds, and that each mirror in the last two indices is the
    same node when ``symmetric``, the negated node when ``antisymmetric``
    (so the diagonal is ``ZERO``).  A foreign variable raises
    ``ValueError("<what> uses variable 'x1'; allowed: t1..t2")``."""
    check_dimensions(m, n)
    try:
        arr = family_array(family)
    except ValueError:
        arr = None
    if arr is None or arr.shape != tuple(extents):
        raise ValueError(f"{what}: expected extents {tuple(extents)}")
    allowed = 0
    for vid, bit in _VAR_BITS.items():
        if vid.kind in kinds and vid.in_bounds(m, n):
            allowed |= bit
    for leaf in arr.flat:
        if leaf.mask & ~allowed:
            bad = min(
                vid.name for vid in free_variables(leaf) if not _VAR_BITS[vid] & allowed
            )
            ranges = {
                TEMPORAL: f"t1..t{m}",
                SPATIAL: f"x1..x{n}",
                VELOCITY: f"v1_1..v{n}_{m}",
            }
            raise ValueError(
                f"{what} uses variable '{bad}'; "
                f"allowed: {', '.join(ranges[k] for k in kinds)}"
            )
    if symmetric or antisymmetric:
        mirrors = arr if symmetric else _NEGATED(arr)
        if (np.swapaxes(arr, -1, -2) != mirrors).any():  # nodes compare by `is`
            kind = "symmetric" if symmetric else "antisymmetric"
            raise ValueError(
                f"{what}: components must be stored {kind} "
                f"in the two trailing indices"
            )


def _extents(axes: str, m: int, n: int) -> tuple:
    return tuple(n if axis == "s" else m for axis in axes)


class Family(Frozen):
    """An indexed family on a jet space of m times and n coordinates: nested
    tuples ``comps``, frozen by ``freeze`` and checked by ``check_family``
    when constructed.

    A subclass declares what the check needs.  ``axes`` has one letter per
    index, "s" for a spatial one (1..n) or "t" for a temporal one (1..m),
    which gives the extents; ``what`` names the family in messages;
    ``kinds`` are the variable kinds its entries may use; ``symmetric``
    asks each mirror in the last two indices to be the same node, and
    ``antisymmetric`` the negated node; ``full_grid`` makes ``from_upper``
    need every entry.
    """

    __slots__ = ("m", "n", "comps")
    what = "family"
    axes = ""
    kinds = KINDS
    symmetric = False
    antisymmetric = False
    full_grid = False

    def __init__(self, m: int, n: int, comps):
        comps = freeze(comps)
        extents = _extents(self.axes, m, n)
        check_family(
            comps, m, n, extents, self.what, self.symmetric, self.kinds,
            self.antisymmetric,
        )
        self._set(m=m, n=n, comps=comps)

    @classmethod
    def from_upper(cls, m: int, n: int, upper: dict):
        """The family of the 1-based entries ``upper``, keyed by their full
        index with the last two in order: p <= q, or p < q when the family
        is antisymmetric.  Each mirror is the entry's node, negated when
        antisymmetric, and a missing entry is ``ZERO``; a family that
        declares ``full_grid`` needs every entry instead."""
        extents = _extents(cls.axes, m, n)
        low, high = "ab" if cls.axes[-1] == "t" else "pq"
        for key in upper:
            label = f"entry ({','.join(map(str, key))})"
            if len(key) != len(extents):
                raise ValueError(f"{label} needs {len(extents)} indices")
            for k, bound in zip(key, extents):
                if not 1 <= k <= bound:
                    raise ValueError(f"{label} has index {k} outside 1..{bound}")
            if key[-2] > key[-1] or cls.antisymmetric and key[-2] == key[-1]:
                order = "<" if cls.antisymmetric else "<="
                raise ValueError(f"{label} must have {low} {order} {high}")
        if cls.full_grid:
            grid = itertools.product(*(range(1, e + 1) for e in extents))
            missing = [key for key in grid if key[-2] <= key[-1] and key not in upper]
            if missing:
                raise ValueError(
                    f"component grid mismatch: missing components {missing[:4]} "
                    f"(every index with {low} <= {high} must appear exactly once)"
                )
        comps = nested(
            extents,
            lambda *index: upper.get(tuple(k + 1 for k in index), ZERO),
            symmetric=not cls.antisymmetric,
            antisymmetric=cls.antisymmetric,
        )
        return cls(m, n, comps)

    @classmethod
    def zero(cls, m: int, n: int):
        return cls(m, n, nested(_extents(cls.axes, m, n), lambda *_: ZERO))

    def component(self, *index) -> Expression:
        return entry_at(self.comps, index, self.axes)

    def evaluate(self, t=(), x=(), v=()) -> np.ndarray:
        """Numeric component block at t, x, v of shapes (m,), (n,) and
        (n, m), any of them with a trailing batch axis of K, which the block
        then gets too; a block not given stays unbound.  An out-of-domain
        value raises EvaluationError at the first such point
        (``evaluate_nested``)."""
        return evaluate_nested(self.comps, Bindings.jet(self.m, self.n, t, x, v))


# ---------------------------------------------------------------------------
# traversal core
# ---------------------------------------------------------------------------


_BY_INDEX = operator.attrgetter("index")


def _reachable(roots, enter=None) -> list:
    """Every node the roots reach, in creation (so topological) order: the
    one walk of the DAG, so each pass is a loop over this list that reads a
    node's kids before the node.  With ``enter``, the walk goes into a kid
    only where ``enter(kid)`` holds; the roots are always listed."""
    seen = set(roots)
    stack = list(seen)
    see, push, pop = seen.add, stack.append, stack.pop
    while stack:
        for kid in pop().kids:
            if kid not in seen and (enter is None or enter(kid)):
                see(kid)
                push(kid)
    return sorted(seen, key=_BY_INDEX)


def _bottom_up(root: Expression, compute):
    """``compute(node, kid_results)`` for every node ``root`` reaches, each
    computed once, kids first; returns root's result."""
    done: dict = {}
    for node in _reachable([root]):
        done[node] = compute(node, [done[k] for k in node.kids])
    return done[root]


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
    """Out-of-domain or overflowing operation, or unbound variable; carries
    the offending subexpression."""

    def __init__(self, message: str, expression: Expression | None = None):
        if expression is not None:
            message = f"{message} in `{to_string(expression)}`"
        super().__init__(message)
        self.expression = expression


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class Bindings:
    """Values for jet variables; scalar floats or numpy arrays (all of one
    common shape) for vectorized evaluation."""

    __slots__ = ("values",)

    def __init__(self, values: dict | None = None):
        self.values = {} if values is None else values  # VariableId -> value

    @classmethod
    def jet(cls, m: int, n: int, t=(), x=(), v=()) -> "Bindings":
        """Bind the jet coordinates that are given; an empty block stays
        unbound.

        ``t``, ``x`` and ``v`` have shapes (m,), (n,) and (n, m) for one
        point, or those shapes plus a trailing batch axis.  One point is
        stored as Python floats, so the tape runs on floats (a 0-d array
        would make it a batch, which runs on arrays); a batch is stored as
        arrays.
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
        return cls(vals)

    @classmethod
    def from_names(cls, m: int, n: int, by_name: dict) -> "Bindings":
        return cls({_classify(k, m, n, 0): v for k, v in by_name.items()})

    def with_value(self, vid: VariableId, value) -> "Bindings":
        return Bindings({**self.values, vid: value})


_VAR_NAME_RE = re.compile(r"^(?:t([0-9]+)|x([0-9]+)|v([0-9]+)_([0-9]+))$")


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


def _product_rule(f, l, r, dl, dr):
    if dl is ZERO or dr is ZERO:  # the full rule adds ZERO to the other term
        return mul(l, dr) if dl is ZERO else mul(dl, r)
    return add(mul(dl, r), mul(l, dr))


def _power_rule(f, l, r, dl, dr):
    if r.lit is not None:  # a literal exponent: its derivative is ZERO
        return mul(mul(r, pow_(l, num(r.lit - 1.0))), dl)
    # general u^w: u^w * (dw*log(u) + w*du/u)
    return mul(f, add(mul(dr, log(l)), mul(r, div(dl, l))))


# the derivative of an operation node f from f, its operands and their
# derivatives (``differentiate`` calls it only when those are not all ZERO):
# one rule per operator of the tape
_DERIVATIVE = {
    "neg": lambda f, a, da: neg(da),
    "sin": lambda f, a, da: mul(cos(a), da),
    "cos": lambda f, a, da: neg(mul(sin(a), da)),
    "tan": lambda f, a, da: mul(add(ONE, pow_(tan(a), TWO)), da),
    "exp": lambda f, a, da: mul(f, da),
    "log": lambda f, a, da: div(da, a),
    "sqrt": lambda f, a, da: div(da, mul(TWO, f)),
    "sinh": lambda f, a, da: mul(cosh(a), da),
    "cosh": lambda f, a, da: mul(sinh(a), da),
    "+": lambda f, l, r, dl, dr: add(dl, dr),
    "-": lambda f, l, r, dl, dr: sub(dl, dr),
    "*": _product_rule,
    "/": lambda f, l, r, dl, dr: div(sub(mul(dl, r), mul(l, dr)), pow_(r, TWO)),
    "^": _power_rule,
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


class _Tape:
    """The union DAG of ``roots`` lowered to a topologically ordered program
    with one slot per distinct node, run with numpy on floats or arrays.

    Each instruction drops the operand slots it is the last reader of, so
    only the live frontier of the DAG is held; root slots are kept.  A caller
    that has walked the roots already passes that list as ``nodes``.
    """

    def __init__(self, roots, nodes=None):
        self.nodes = nodes = _reachable(roots) if nodes is None else nodes  # by slot
        slot_of = {node: s for s, node in enumerate(nodes)}
        self.outputs = [slot_of[r] for r in roots]
        read = bytearray(len(nodes))  # 1 where a later slot reads it; roots are kept
        for s in self.outputs:
            read[s] = 1
        self.leaves = []  # the slots of literals, constants and variables
        # six entries per instruction (see ``instructions``), each slot the
        # int ``slot_of`` holds; appended last reader first, then reversed
        self.code = code = []
        for node, s in reversed(slot_of.items()):
            kids = node.kids
            if not kids:
                self.leaves.append(s)
            elif len(kids) == 1:
                a = slot_of[kids[0]]
                code += False, not read[a], s, -1, a, _UNARY_ARRAY[node.op]
                read[a] = 1
            else:
                a, b = slot_of[kids[0]], slot_of[kids[1]]
                fn = _BINARY_ARRAY[node.op]
                if node.op == "^" and kids[1].mask:
                    fn = _variable_power
                code += not read[b], not read[a], s, b, a, fn
                read[a] = read[b] = 1
        code.reverse()
        self.leaves.reverse()

    def instructions(self):
        """The program in order: per instruction (function, left slot, right
        slot or -1, out slot, drop left, drop right)."""
        entries = iter(self.code)
        return zip(*[entries] * 6)

    def run(self, bindings: Bindings) -> list:
        """The root values, in the order of the roots."""
        nodes = self.nodes
        slots = [None] * len(nodes)
        values = bindings.values
        for s in self.leaves:
            slots[s] = _leaf_value(nodes[s], values)
        if self.code:
            with np.errstate(all="ignore"):
                for fn, a, b, out, drop_a, drop_b in self.instructions():
                    slots[out] = fn(slots[a]) if b < 0 else fn(slots[a], slots[b])
                    if drop_a:
                        slots[a] = None
                    if drop_b:
                        slots[b] = None
        return [slots[s] for s in self.outputs]


def _batch_shape(bindings: Bindings):
    """The common shape of array bindings, or None at one point (floats)."""
    values = bindings.values.values()
    if any(isinstance(v, np.ndarray) for v in values):
        return np.broadcast_shapes(*map(np.shape, values))
    return None


def _run(roots, bindings: Bindings) -> list:
    """The roots' values, in order, from one tape: floats at one point, else
    arrays (a constant root stays a scalar).  The first error ``_scan``
    finds, in sample order, raises; only a non-finite input propagates."""
    values = _Tape(roots).run(bindings)
    if _batch_shape(bindings) is None:
        values = list(map(float, values))
    if (error := _scan(roots, values, bindings)) is not None:
        raise error
    return values


def _scan(roots, values, bindings: Bindings) -> EvaluationError | None:
    """The EvaluationError (``_domain_error``) of the first origin, a node not
    finite while its operands are, or None.  At each point where some root is
    not finite, in sample (C) order, it searches depth first from those roots
    through non-finite operands, in operand order; a leaf (a non-finite
    input) is no origin.  ``values`` are the roots' values:
    floats at one point, else arrays or scalars of the batch shape, each
    tested for finiteness alone.  One tape of every node, lowered from the
    one walk that lists them, runs over those points only (on floats at one
    point).  A point whose inputs are all finite has an origin; one with a
    non-finite input is walked only if the table shows an origin there,
    which is tested for all such points at once."""
    shape = _batch_shape(bindings)
    if shape is None:
        bad = [] if all(map(math.isfinite, values)) else [0]
    else:
        finite = np.ones(shape, dtype=bool)
        for v in values:
            finite &= np.isfinite(v)
        bad = np.flatnonzero(~finite)
    if not len(bad):
        return None
    if shape is not None:
        flat = {
            vid: np.broadcast_to(v, shape).reshape(-1)[bad]
            for vid, v in bindings.values.items()
        }
        bindings = Bindings(flat)
    nodes = _reachable(roots)
    table = dict(zip(nodes, _Tape(nodes, nodes).run(bindings)))
    walked = np.ones(len(bad), dtype=bool)  # points whose inputs are finite
    for v in bindings.values.values():
        walked &= np.isfinite(v)
    if not walked.all():  # a point with a non-finite input may have no origin
        finite = {node: np.isfinite(v) for node, v in table.items()}
        for node in nodes:
            if node.kids:
                a, b = node.kids[0], node.kids[-1]
                walked |= ~finite[node] & finite[a] & finite[b]
    for k in np.flatnonzero(walked):

        def value(node):  # a 0-d array comes from a one-point variable power
            v = table[node]
            return float(v[k] if np.ndim(v) else v)

        stack, seen = [r for r in reversed(roots) if not math.isfinite(value(r))], set()
        while stack:
            if (node := stack.pop()) in seen:
                continue
            seen.add(node)
            operands = [value(kid) for kid in node.kids]
            failing = [kid for kid, u in zip(node.kids, operands) if not math.isfinite(u)]
            stack += reversed(failing)
            if not failing and (message := _domain_error(node, operands)):
                return EvaluationError(message, node)
    return None


def by_point(stages, batch, points):
    """``stages(batch)``, a batch that runs in stages, each raising on any
    failure.  On a ValueError, the one-point path ``stages(point)`` runs at
    each of ``points`` (the batch's points, or none for one point) in sample
    order and the first error propagates; if none raises, the batch's error
    is re-raised.  So the batch raises what its first failing point raises
    alone, and only error paths re-run points."""
    try:
        return stages(batch)
    except ValueError:
        for point in points:
            stages(point)
        raise


# what an overflow message calls the value of each binary operator
_OVERFLOWED = {
    "+": "sum", "-": "difference", "*": "product", "/": "quotient", "^": "power"
}


def _domain_error(node: Expression, operands: list) -> str | None:
    """Why ``node`` is not finite while its ``operands`` are; None only for a
    leaf, whose non-finite value is an input."""
    if not node.kids:
        return None
    op, a = node.op, operands[0]
    if op == "log":
        return f"log of non-positive value {a}"
    if op == "sqrt":
        return f"sqrt of negative value {a}"
    if op == "/" and operands[1] == 0.0:
        return "division by zero"
    if op == "^":
        b = operands[1]
        if a == 0.0 and b < 0.0:
            return "zero raised to a negative power"
        if a < 0.0 and not float(b).is_integer():
            return "non-integer power of a non-positive base"
    # every other operation gets here only by overflowing: sin, cos, tan and
    # the negation of a finite float are finite
    return f"overflow in {_OVERFLOWED.get(op, op)}"


def evaluate(e: Expression, bindings: Bindings):
    """Evaluate through one tape (see ``_run``): a float at one point, an
    array over array bindings; an operation that leaves its domain or
    overflows raises EvaluationError identifying the offending
    subexpression, at the first such point.
    """
    return _run([e], bindings)[0]


def evaluate_nested(nested, bindings: Bindings):
    """Evaluate a nested tuple/list of expressions into a float ndarray.

    The array shape mirrors the nesting, plus a trailing batch axis when the
    bindings hold arrays (a leaf that evaluates to a plain scalar, a
    constant say, is broadcast along it).  The whole family is one tape
    (see ``_Tape``), so a node shared by several leaves is computed once.
    A batch raises what evaluating its points one at a time, in sample
    order, raises first: at that point, the error of the first leaf in
    nesting order that is not finite.  Only a non-finite input propagates.
    """
    leaves = family_array(nested)
    values = _run(list(leaves.flat), bindings)
    out = np.empty((len(values),) + (_batch_shape(bindings) or ()))
    for row, value in enumerate(values):
        out[row] = value
    return out.reshape(leaves.shape + out.shape[1:])


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
    derivative is ``ZERO``, which the full rules give there too.  A node
    whose operands' derivatives are all ``ZERO`` gets ``ZERO``; any other
    gets the rule of its operator in ``_DERIVATIVE``.
    """
    vid = var.vid if isinstance(var, Var) else var
    if not isinstance(vid, VariableId):
        raise TypeError("var must be a Var node or a VariableId")
    bit = _VAR_BITS.get(vid, 0)
    if not e.mask & bit:
        return ZERO
    memo = _DERIVATIVES.setdefault(vid, {})
    if e not in memo:
        known = memo.get  # the memo holds only nodes that depend on the variable
        for node in _reachable([e], lambda k: k.mask & bit and k not in memo):
            kids = node.kids
            if not kids:
                memo[node] = ONE  # the variable itself
            elif len(kids) == 1:
                a = kids[0]
                da = known(a, ZERO)
                memo[node] = ZERO if da is ZERO else _DERIVATIVE[node.op](node, a, da)
            else:
                l, r = kids
                dl, dr = known(l, ZERO), known(r, ZERO)
                memo[node] = (
                    ZERO if dl is ZERO and dr is ZERO
                    else _DERIVATIVE[node.op](node, l, r, dl, dr)
                )
    return memo[e]


def fd_partial(e: Expression, var, bindings: Bindings, step: float = 1e-6):
    """Central finite-difference partial; the numeric oracle for differentiate.
    A float at one point, an array over batch bindings; inf where the
    difference of two finite sides overflows, nan where a non-finite input
    makes both sides the same infinity."""
    vid = var.vid if isinstance(var, Var) else var
    base = bindings.values[vid]
    hi = evaluate(e, bindings.with_value(vid, base + step))
    lo = evaluate(e, bindings.with_value(vid, base - step))
    with np.errstate(invalid="ignore", over="ignore"):  # overflow, inf - inf
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

    return _bottom_up(e, compute)


def simplify(e: Expression) -> Expression:
    """Conservative cleanup: rebuilds the DAG through the smart constructors,
    which gives the canonical node of a raw one (``parse`` is built on it);
    a canonical node comes back as itself.

    Guarantees: 0/1 neutral elements dropped, multiplication by zero folded,
    literal subtrees folded when finite and defined, double negation removed.
    The result evaluates identically to the input on any bindings where the
    input is defined.
    """
    return _bottom_up(e, _rebuild)


def free_variables(e: Expression) -> frozenset[VariableId]:
    """The jet variables ``e`` depends on, decoded from its mask."""
    return frozenset(vid for vid, bit in _VAR_BITS.items() if e.mask & bit)


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
    """Render with minimal parentheses; parse(to_string(e)) is e for every
    canonical e."""

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

    return _bottom_up(e, compute)[0]


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


# the binding power of each operator the parser stacks, the printer's
# precedences; an open parenthesis or function call has none
_POWER = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL}
_POWER |= {"neg": _PREC_NEG, "^": _PREC_POW}


def _expected(what: str, token: tuple) -> ParseError:
    _, text, pos = token
    return ParseError(f"expected {what}, found '{text or 'end of input'}'", pos)


def _atom(kind: str, text: str, pos: int, m: int, n: int) -> Expression:
    """The leaf of a number or of a name that is not a function."""
    if kind == "num":
        value = float(text)
        if not math.isfinite(value):  # an inf literal would propagate as an input
            raise ParseError(f"number '{text}' is beyond the float range", pos)
        return Num(value)
    if text == "pi":
        return PI
    if text == "e":
        return E
    return Var(_classify(text, m, n, pos))


def _raw_tree(text: str, m: int, n: int) -> Expression:
    """The tree of ``text`` as written, from one operator-precedence pass
    over its tokens: sums, products, unary minus, powers (right-associative)
    and atoms, loosest to tightest, with no implicit multiplication.  An
    operator waits on a stack until one that binds no tighter follows its
    right operand, its parenthesis closes or the input ends."""
    tokens = iter(_tokenize(text))
    operands: list[Expression] = []
    pending: list[str] = []  # operators, "(" and function names, innermost last

    def apply(op: str):
        if op in _BINARY_ARRAY:
            right = operands.pop()
            operands[-1] = Binary(op, operands[-1], right)
        else:  # "neg" or a function
            operands[-1] = Unary(op, operands[-1])

    while True:  # an operand is due: prefixes, then an atom
        kind, word, pos = token = next(tokens)
        if kind == "op" and word in ("-", "("):
            pending.append("neg" if word == "-" else word)
            continue
        if kind == "ident" and word in FUNCTIONS:
            if (opener := next(tokens))[:2] != ("op", "("):
                raise _expected("'('", opener)
            pending.append(word)
            continue
        if kind not in ("num", "ident"):
            raise _expected("an expression", token)
        operands.append(_atom(kind, word, pos, m, n))
        while True:  # an operand ended: a binary operator, a ")" or the end
            kind, word, pos = token = next(tokens)
            if kind == "op" and word in _BINARY_ARRAY:
                power = _POWER[word] + (word == "^")  # "^" is right-associative
                while pending and _POWER.get(pending[-1], 0) >= power:
                    apply(pending.pop())
                pending.append(word)
                break
            while pending and pending[-1] in _POWER:
                apply(pending.pop())
            if not pending:
                if kind == "end":
                    return operands[0]
                raise ParseError(f"unexpected trailing input '{word}'", pos)
            if kind != "op" or word != ")":
                raise _expected("')'", token)
            if (opener := pending.pop()) != "(":
                apply(opener)


def parse(text: str, m: int, n: int) -> Expression:
    """Parse source text into its canonical expression: ``simplify`` of the
    tree as written, the node the smart constructors build for it.

    m and n bound the admissible temporal/spatial indices; violations raise
    ParseError with the offending position.
    """
    check_dimensions(m, n)
    return simplify(_raw_tree(text, m, n))
