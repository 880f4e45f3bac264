"""SymPy as an independent oracle for the expression engine.

Skipped when SymPy is not installed (it is in the ``test`` extra).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from jetkcc import exprlang as ex
from jetkcc.exprlang import EvaluationError, differentiate, evaluate, parse
from test_exprlang import BIND_M, BIND_N, JET_VARS, POSITIVE_GRID, TEXTS, bnd

sympy = pytest.importorskip("sympy")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    text=TEXTS,
    pick=st.integers(0, 7),
    coords=st.lists(POSITIVE_GRID, min_size=8, max_size=8),
)
def test_differentiate_matches_sympy(text, pick, coords):
    # differentiate by a variable of the expression when it has one
    e = parse(text, BIND_M, BIND_N)
    free = sorted(ex.free_variables(e), key=lambda vid: vid.name)
    var = ex.Var(free[pick % len(free)]) if free else JET_VARS[pick]
    names = [v.vid.name for v in JET_VARS]
    b = bnd(BIND_M, BIND_N, **dict(zip(names, coords)))
    try:
        evaluate(e, b)  # SymPy folds 0/0 to nan, whose derivative is 0
        got = evaluate(differentiate(e, var), b)
    except EvaluationError:
        return  # out of the engine's domain here
    # SymPy reads the same text (its ^ is the power) and evaluates its
    # derivative exactly at the grid point, then to 30 digits
    symbols = {name: sympy.Symbol(name) for name in names}
    d = sympy.diff(sympy.sympify(text, locals=symbols), symbols[var.vid.name])
    exact = {symbols[name]: sympy.Rational(c) for name, c in zip(names, coords)}
    want = complex(sympy.N(d.subs(exact), 30))
    if not (math.isfinite(got) and math.isfinite(abs(want))) or want.imag:
        return  # out of the domain of either side
    scale = max(1.0, abs(got), abs(want.real))
    assert abs(got - want.real) <= 1e-10 * scale, (text, var.vid.name, got, want)
