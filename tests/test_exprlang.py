import functools
import math
import operator
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
from jetkcc import exprlang as ex
from jetkcc.exprlang import (
    Bindings,
    EvaluationError,
    ParseError,
    differentiate,
    evaluate,
    fd_partial,
    free_variables,
    parse,
    simplify,
    substitute,
    to_string,
)


def bnd(m, n, **by_name):
    return Bindings.from_names(m, n, by_name)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple_sum():
    e = parse("t1 + x2*v1_1", 2, 2)
    b = bnd(2, 2, t1=0.5, x2=3.0, v1_1=-2.0)
    assert evaluate(e, b) == pytest.approx(0.5 - 6.0)


def test_parse_precedence_and_right_assoc_power():
    # 2^3^2 = 2^(3^2) = 512
    assert evaluate(parse("2^3^2", 1, 1), bnd(1, 1)) == 512.0
    assert evaluate(parse("2 + 3 * 4", 1, 1), bnd(1, 1)) == 14.0
    assert evaluate(parse("(2 + 3) * 4", 1, 1), bnd(1, 1)) == 20.0
    assert evaluate(parse("2 - 3 - 4", 1, 1), bnd(1, 1)) == -5.0


def test_parse_unary_minus_binds_between_power_and_product():
    # -x1^2 is -(x1^2), not (-x1)^2
    e = parse("-x1^2", 1, 1)
    assert evaluate(e, bnd(1, 1, x1=3.0)) == -9.0
    # 2^-2 works: exponent position accepts a signed factor
    assert evaluate(parse("2^-2", 1, 1), bnd(1, 1)) == 0.25


def test_parse_functions_and_constants():
    e = parse("sin(pi/2) + exp(0) + log(e)", 1, 1)
    assert evaluate(e, bnd(1, 1)) == pytest.approx(3.0)


def test_parse_number_formats():
    assert evaluate(parse("1.5e2 + .5 + 2. + 3e-1", 1, 1), bnd(1, 1)) == pytest.approx(
        153.0 - 0.2 + 0.0, abs=1e-12
    )


def test_parse_whitespace_insensitive():
    a = parse("t1+x1 * v1_1", 1, 1)
    b = parse("  t1 + x1*v1_1  ", 1, 1)
    assert a == b


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("t1 + * x1", 1, 2)
    assert err.value.position == 5


def test_parse_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("sin(t1", 1, 1)
    with pytest.raises(ParseError):
        parse("(t1 + x1", 1, 1)


def test_parse_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse("t1 x1", 1, 1)
    assert err.value.position == 3


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("t3", 2, 2)
    with pytest.raises(ParseError, match="out of range"):
        parse("x3", 2, 2)
    with pytest.raises(ParseError, match="out of range"):
        parse("v1_3", 2, 2)
    with pytest.raises(ParseError, match="out of range"):
        parse("v0_1", 2, 2)
    # boundary cases are fine
    parse("t2 + x2 + v2_2", 2, 2)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("y1 + t1", 2, 2)
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("foo", 2, 2)


def test_function_requires_parentheses():
    with pytest.raises(ParseError):
        parse("sin t1", 1, 1)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2 t1", 1, 1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_unbound_variable():
    e = parse("t1 + x1", 1, 1)
    with pytest.raises(EvaluationError, match="unbound variable 'x1'"):
        evaluate(e, bnd(1, 1, t1=1.0))


# (expression, x1, the node that leaves its domain, message): one row per
# message of the domain table
DOMAIN_ERRORS = [
    ("1 + log(x1 - 2)", 1.0, "log(x1 - 2)", "log of non-positive value -1.0"),
    ("2*log(x1)", 0.0, "log(x1)", "log of non-positive value 0.0"),
    ("sqrt(-1 * x1) + 1", 4.0, "sqrt(-1*x1)", "sqrt of negative value -4.0"),
    ("sin(1/(x1 - 1))", 1.0, "1/(x1 - 1)", "division by zero"),
    ("3*(x1 - 1)^-2", 1.0, "(x1 - 1)^-2", "zero raised to a negative power"),
    ("1 + x1^-0.5", 0.0, "x1^-0.5", "zero raised to a negative power"),
    (
        "(0 - x1)^0.5 - 1",
        2.0,
        "(0 - x1)^0.5",
        "non-integer power of a non-positive base",
    ),
    ("x1^2.5", 1e200, "x1^2.5", "overflow in power"),
    ("(x1^2)^3", 1e60, "(x1^2)^3", "overflow in power"),
    ("2*exp(x1)", 1000.0, "exp(x1)", "overflow in exp"),
    ("sinh(x1) - cosh(x1)", 800.0, "sinh(x1)", "overflow in sinh"),
    ("cosh(-x1)", 800.0, "cosh(-x1)", "overflow in cosh"),
]


def test_evaluate_domain_errors_identify_subexpression():
    for src, x1, origin, message in DOMAIN_ERRORS:
        e = parse(src, 1, 1)
        with pytest.raises(EvaluationError) as err:
            evaluate(e, bnd(1, 1, x1=x1))
        assert err.value.expression is parse(origin, 1, 1), src
        assert str(err.value) == f"{message} in `{origin}`"
        # the batch gives a non-finite value there instead
        assert not np.isfinite(evaluate(e, bnd(1, 1, x1=np.array([x1])))[0])


# (expression, x1): non-finite at one point, but where the value stands
KEPT_NONFINITE = [
    ("x1 + x1", 1e308),
    ("x1 - (0 - x1)", 1e308),
    ("x1*x1", 1e200),
    ("-(x1*x1)", 1e200),
    ("x1/0.5", 1e308),
    ("log(x1)", math.nan),
    ("x1 + 1", math.inf),
]


@pytest.mark.parametrize("src, x1", KEPT_NONFINITE)
def test_overflow_and_nonfinite_inputs_are_returned(src, x1):
    e = parse(src, 1, 1)
    one = evaluate(e, bnd(1, 1, x1=x1))
    batch = evaluate(e, bnd(1, 1, x1=np.array([x1])))
    assert not math.isfinite(one)
    assert np.array(one).tobytes() == batch.tobytes()


@pytest.mark.parametrize("src", ["exp(log(x1))", "x1^0.5", "1/(1/x1)"])
def test_non_finite_inside_a_finite_root_does_not_raise(src):
    # the operation that leaves its domain is masked by a later one; one
    # point returns the batch's value instead of raising
    e = parse(src, 1, 1)
    one = evaluate(e, bnd(1, 1, x1=0.0))
    batch = evaluate(e, bnd(1, 1, x1=np.array([0.0])))
    assert one == 0.0 and type(one) is float
    assert batch.tobytes() == np.array(one).tobytes()


def test_evaluate_integer_power_of_negative_base():
    assert evaluate(parse("x1^3", 1, 1), bnd(1, 1, x1=-2.0)) == -8.0
    assert evaluate(parse("x1^-2", 1, 1), bnd(1, 1, x1=-2.0)) == 0.25


def test_power_overflow_is_an_evaluation_error():
    e = parse("x1^2.5", 1, 1)
    with pytest.raises(EvaluationError, match="overflow in power"):
        evaluate(e, Bindings.jet(1, 1, x=[1e200]))


def test_simplify_leaves_an_overflowing_power_unfolded():
    e = simplify(parse("1e200^2.5", 1, 1))
    assert isinstance(e, ex.Binary) and e.op == "^"
    with pytest.raises(EvaluationError, match="overflow in power"):
        evaluate(e, bnd(1, 1))


def test_evaluate_vectorized_matches_scalar_loop():
    e = parse("sin(t1)*x1^2 + exp(v1_1)/(1 + x1^2) + sinh(x1)^3", 1, 1)
    rng = np.random.default_rng(7)
    t = rng.uniform(-2, 2, size=40)
    x = rng.uniform(-2, 2, size=40)
    v = rng.uniform(-2, 2, size=40)
    arr = evaluate(e, Bindings.from_names(1, 1, {"t1": t, "x1": x, "v1_1": v}))
    for k in range(40):
        s = evaluate(e, bnd(1, 1, t1=t[k], x1=x[k], v1_1=v[k]))
        assert arr[k] == s  # one evaluator: the same bits


# ---------------------------------------------------------------------------
# differentiation: trivial cases asserted directly, everything else against
# the central-difference oracle
# ---------------------------------------------------------------------------


def test_differentiate_spec_basics():
    e = parse("v1_1^2", 1, 1)
    assert to_string(differentiate(e, ex.v_var(1, 1))) == "2*v1_1"
    # jet variables are independent: d v1_1 / d x1 == 0
    assert differentiate(parse("v1_1", 1, 1), ex.x_var(1)) == ex.ZERO


def test_differentiate_unused_variable_is_structural_zero():
    e = parse("sin(t1)*x1 + exp(x1)", 2, 2)
    assert differentiate(e, ex.t_var(2)) == ex.ZERO
    assert differentiate(e, ex.v_var(1, 1)) == ex.ZERO


def test_differentiate_linearity():
    rng = np.random.default_rng(3)
    f = parse("sin(t1)*x1^2", 1, 1)
    g = parse("exp(x1)/(2 + v1_1^2)", 1, 1)
    var = ex.x_var(1)
    combo = 2.5 * f - 1.5 * g
    d_combo = differentiate(combo, var)
    d_sep = 2.5 * differentiate(f, var) - 1.5 * differentiate(g, var)
    for _ in range(20):
        b = bnd(1, 1, t1=rng.uniform(-2, 2), x1=rng.uniform(-2, 2), v1_1=rng.uniform(-2, 2))
        assert evaluate(d_combo, b) == pytest.approx(evaluate(d_sep, b), rel=1e-12)


def test_differentiate_mixed_partials_commute():
    e = parse("sin(t1*x1)*exp(v1_1*x1) + x1^3*t1^2", 1, 1)
    d_tx = differentiate(differentiate(e, ex.t_var(1)), ex.x_var(1))
    d_xt = differentiate(differentiate(e, ex.x_var(1)), ex.t_var(1))
    rng = np.random.default_rng(11)
    for _ in range(20):
        b = bnd(1, 1, t1=rng.uniform(-1, 1), x1=rng.uniform(-1, 1), v1_1=rng.uniform(-1, 1))
        assert evaluate(d_tx, b) == pytest.approx(evaluate(d_xt, b), rel=1e-11, abs=1e-11)


FD_CASES = [
    "sin(t1)*cos(x1) + tan(v1_1/3)",
    "exp(t1*x1) - log(3 + x1^2)",
    "sqrt(4 + v1_1^2)*sinh(t1/2) + cosh(x1/3)",
    "(t1 + 2*x1)^3/(1 + v1_1^2)",
    "x1^v1_1",
    "2^t1",
    "(2 + x1^2)^(t1/2)",
    "-t1^2 + -x1*v1_1",
]


@pytest.mark.parametrize("src", FD_CASES)
def test_differentiate_against_fd_oracle(src):
    e = parse(src, 1, 1)
    rng = np.random.default_rng(zlib.crc32(src.encode()))
    for var in (ex.t_var(1), ex.x_var(1), ex.v_var(1, 1)):
        d = differentiate(e, var)
        for _ in range(10):
            b = bnd(
                1, 1,
                t1=rng.uniform(0.2, 1.5),
                x1=rng.uniform(0.2, 1.5),
                v1_1=rng.uniform(0.2, 1.5),
            )
            want = fd_partial(e, var, b)
            got = evaluate(d, b)
            assert got == pytest.approx(want, rel=2e-7, abs=2e-7)


def test_differentiate_integer_power_rule_keeps_negative_bases_legal():
    # d/dx (x^-2) = -2 x^-3 must evaluate for negative x (no log rewrite)
    e = parse("x1^-2", 1, 1)
    d = differentiate(e, ex.x_var(1))
    assert evaluate(d, bnd(1, 1, x1=-2.0)) == pytest.approx(-2.0 * (-2.0) ** -3)
    d2 = differentiate(d, ex.x_var(1))
    assert evaluate(d2, bnd(1, 1, x1=-2.0)) == pytest.approx(6.0 * (-2.0) ** -4)


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------


def test_simplify_spec_rules():
    x = ex.x_var(1)
    assert simplify(parse("x1 + 0", 1, 1)) == x
    assert simplify(parse("1 * x1", 1, 1)) == x
    assert simplify(parse("0 * log(x1)", 1, 1)) == ex.ZERO
    assert simplify(parse("x1^1", 1, 1)) == x
    assert simplify(parse("2 * 3", 1, 1)) == ex.Num(6.0)
    assert simplify(parse("-(-x1)", 1, 1)) == x
    assert simplify(parse("x1 - 0", 1, 1)) == x
    assert simplify(parse("x1/1", 1, 1)) == x
    assert simplify(parse("0/sin(x1)", 1, 1)) == ex.ZERO


def test_simplify_does_not_fold_undefined_literals():
    # 1/0 and log(0) must stay symbolic and fail at evaluation time
    e = simplify(parse("1/0", 1, 1))
    assert isinstance(e, ex.Binary)
    with pytest.raises(EvaluationError):
        evaluate(e, bnd(1, 1))
    e2 = simplify(parse("log(0)", 1, 1))
    assert isinstance(e2, ex.Unary)


SIMPLIFY_EQUIV_CASES = [
    "t1*(x1 + 0) - 0*v1_1 + (x1^1)*1",
    "sin(t1)^2 + cos(t1)^2 + 0*exp(x1)",
    "(1*t1 + 0)^3 / (1 + 0*x1 + v1_1^2)",
    "-(-(t1)) + -(x1 - x1*1)",
    "2^2 * t1 + 3*0 + x1/1",
]


@pytest.mark.parametrize("src", SIMPLIFY_EQUIV_CASES)
def test_simplify_preserves_values_on_random_bindings(src):
    e = parse(src, 1, 1)
    s = simplify(e)
    rng = np.random.default_rng(42)
    for _ in range(100):
        b = bnd(
            1, 1,
            t1=rng.uniform(-2, 2),
            x1=rng.uniform(-2, 2),
            v1_1=rng.uniform(-2, 2),
        )
        assert evaluate(s, b) == pytest.approx(evaluate(e, b), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_composition():
    e = parse("x1^2 + v1_1", 1, 1)
    composed = substitute(e, {ex.x_var(1): parse("sin(t1)", 1, 1)})
    b = bnd(1, 1, t1=0.7, v1_1=2.0)
    assert evaluate(composed, b) == pytest.approx(math.sin(0.7) ** 2 + 2.0)


def test_substitute_is_simultaneous():
    e = parse("x1 + x2", 2, 2)
    swapped = substitute(e, {ex.x_var(1): ex.x_var(2), ex.x_var(2): ex.x_var(1)})
    b = bnd(2, 2, x1=3.0, x2=5.0)
    assert evaluate(swapped, b) == 8.0
    # and x1 -> x2 really went through simultaneously, not sequentially
    e2 = parse("x1", 2, 2)
    once = substitute(e2, {ex.x_var(1): ex.x_var(2), ex.x_var(2): ex.num(99.0)})
    assert evaluate(once, b) == 5.0


def test_substitute_simplifies_composition():
    e = parse("x1 * v1_1", 1, 1)
    assert substitute(e, {ex.v_var(1, 1): ex.ZERO}) == ex.ZERO


# ---------------------------------------------------------------------------
# free variables, printing round trip
# ---------------------------------------------------------------------------


def test_free_variables():
    e = parse("t1*x2 + v2_1 - sin(x1)", 1, 2)
    names = {vid.name for vid in free_variables(e)}
    assert names == {"t1", "x2", "v2_1", "x1"}


ROUND_TRIP_CASES = [
    "t1 + x1*v1_1",
    "-x1^2",
    "(t1 + x1)^(2 - v1_1)",
    "sin(t1)/cos(t1) - -x1",
    "2 - 3 - 4",
    "2^3^2",
    "t1/(x1*v1_1)",
    "(t1 - x1)/(t1 + x1)",
    "-(t1 + x1)",
    "1.5e-3*x1 + 0.25",
]


@pytest.mark.parametrize("src", ROUND_TRIP_CASES)
def test_print_parse_round_trip_structural(src):
    e = parse(src, 1, 1)
    assert parse(to_string(e), 1, 1) == e


def test_round_trip_of_generated_derivative():
    e = differentiate(parse("sin(t1*x1)^3 / (1 + v1_1^2)", 1, 1), ex.x_var(1))
    again = parse(to_string(e), 1, 1)
    assert again == e


def test_shared_subtrees_evaluate_once_deep_dag():
    # chain of squarings: a tree copy would have 2^60 leaves
    e = parse("t1 + 1", 1, 1)
    for _ in range(60):
        e = e * e
    b = bnd(1, 1, t1=0.0)
    assert evaluate(e, b) == 1.0
    d = differentiate(e, ex.t_var(1))
    # d/dt (t+1)^(2^60) at t=0 is 2^60
    assert evaluate(d, b) == pytest.approx(2.0**60)


def test_bounds_check_helper():
    e = parse("t1 + x2", 2, 2)
    ex.check_bounds(e, 2, 2)
    with pytest.raises(ParseError, match="out of range"):
        ex.check_bounds(e, 2, 1)


# ---------------------------------------------------------------------------
# binding jet coordinates: one point vs a batch
# ---------------------------------------------------------------------------

BIND_M, BIND_N, BIND_K = 2, 2, 4
# coordinates on a 1/8 grid over [-2, 2]: exact zeros and poles are hit
# often, near-cancellations that would amplify the rounding differences of
# a rebuilt DAG are not
GRID = st.integers(-16, 16).map(lambda k: k / 8.0)


def grid_array(*shape):
    size = math.prod(shape)
    return st.lists(GRID, min_size=size, max_size=size).map(
        lambda vals: np.array(vals).reshape(shape)
    )


def _grow(inner):
    return st.one_of(
        st.builds(lambda f, a: f"{f}({a})", st.sampled_from(ex.FUNCTIONS), inner),
        st.builds(lambda a: f"-({a})", inner),
        st.builds(
            lambda a, op, b: f"({a}) {op} ({b})", inner, st.sampled_from("+-*/^"), inner
        ),
    )


LEAVES = ("t1", "t2", "x1", "x2", "v1_1", "v1_2", "v2_1", "v2_2")
LEAVES += ("0", "0.5", "2", "3", "pi")
EXPRESSIONS = st.recursive(st.sampled_from(LEAVES), _grow, max_leaves=8).map(
    lambda text: parse(text, BIND_M, BIND_N)
)


def test_jet_bindings_store_floats_for_one_point():
    b = Bindings.jet(1, 1, t=[0.5], x=np.array([-0.5]), v=np.array([[2.0]]))
    assert all(type(u) is float for u in b.values.values())
    with pytest.raises(EvaluationError, match="log"):
        evaluate(parse("log(x1)", 1, 1), b)
    batch = Bindings.jet(1, 1, x=np.array([[-0.5, 0.5]]))
    assert np.isnan(evaluate(parse("log(x1)", 1, 1), batch)[0])
    with pytest.raises(ValueError, match="x coordinates"):
        Bindings.jet(1, 2, x=[0.5])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    e=EXPRESSIONS,
    t=grid_array(BIND_M, BIND_K),
    x=grid_array(BIND_N, BIND_K),
    v=grid_array(BIND_N, BIND_M, BIND_K),
)
def test_one_point_evaluation_matches_batch_column(e, t, x, v):
    m, n, count = BIND_M, BIND_N, BIND_K
    batch = np.broadcast_to(evaluate(e, Bindings.jet(m, n, t, x, v)), (count,))
    for k in range(count):
        one = Bindings.jet(m, n, t[:, k], x[:, k], v[:, :, k])
        assert all(type(u) is float for u in one.values.values())
        by_name = {f"t{a + 1}": t[a, k] for a in range(m)}
        by_name.update({f"x{i + 1}": x[i, k] for i in range(n)})
        by_name.update(
            {f"v{i + 1}_{a + 1}": v[i, a, k] for i in range(n) for a in range(m)}
        )
        assert one.values == Bindings.from_names(m, n, by_name).values
        _assert_same_bits(e, one, batch[k])


def _assert_same_bits(e, one: Bindings, column):
    """One-point evaluation of ``e`` returns the bits of the batch column,
    or raises where the column is not finite."""
    try:
        value = evaluate(e, one)
    except EvaluationError:
        assert not np.isfinite(column), (to_string(e), column)
        return
    same = np.float64(value).tobytes() == np.float64(column).tobytes()
    assert same or (math.isnan(value) and np.isnan(column)), (value, column)


@pytest.mark.parametrize("power", [2.0, -1.0, 0.5, 3.0])
def test_variable_exponent_has_the_bits_of_the_batch_column(power):
    # NumPy squares, inverts or takes the root of a float base for a float
    # exponent of 2, -1 or 0.5, and rounds unlike its array loop; the grid of
    # the property above makes squares exact, so off-grid bases are used here
    e = parse("x1^x2", 1, 2)
    base = np.random.default_rng(3).uniform(0.0 if power == 0.5 else -3.0, 3.0, 500)
    x = np.stack([base, np.full(base.size, power)])
    batch = evaluate(e, Bindings.jet(1, 2, x=x))
    one = [evaluate(e, Bindings.jet(1, 2, x=x[:, k])) for k in range(base.size)]
    assert np.array(one).tobytes() == batch.tobytes()


def _family(rows, cols):
    """``rows`` x ``cols`` expressions nested as a tuple of tuples."""
    return st.lists(EXPRESSIONS, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: tuple(tuple(es[r * cols : (r + 1) * cols]) for r in range(rows))
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    family=st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: _family(*shape)
    ),
    t=grid_array(BIND_M, BIND_K),
    x=grid_array(BIND_N, BIND_K),
    v=grid_array(BIND_N, BIND_M, BIND_K),
)
def test_family_tape_matches_scalar_evaluation(family, t, x, v):
    m, n, count = BIND_M, BIND_N, BIND_K
    grid = ex.evaluate_nested(family, Bindings.jet(m, n, t, x, v))
    assert grid.shape == (len(family), len(family[0]), count)
    for k in range(count):
        one = Bindings.jet(m, n, t[:, k], x[:, k], v[:, :, k])
        for r, row in enumerate(family):
            for c, e in enumerate(row):
                _assert_same_bits(e, one, grid[r, c, k])


# literal-only expressions: every subtree folds wherever its value is finite
LITERAL_EXPRESSIONS = st.recursive(
    st.sampled_from(("0", "0.5", "1.5", "2", "3", "7", "pi")), _grow, max_leaves=6
).map(lambda text: parse(text, 1, 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(e=LITERAL_EXPRESSIONS)
def test_folded_constant_equals_its_evaluation(e):
    folded = simplify(e).lit
    if folded is None or not math.isfinite(folded):
        return  # not folded: it evaluates as an expression
    column = ex.evaluate_nested((e,), Bindings.jet(1, 1, x=[[0.5, 1.5]]))[0, 1]
    try:
        value = evaluate(e, Bindings(1, 1))
    except EvaluationError:
        # undefined inside, where the fold annihilates it (0*log(0) is 0)
        assert not np.isfinite(column)
        return
    if math.isfinite(value):
        # equal as floats, which for non-zero values is bit for bit (a fold
        # may give 0 where evaluation gives -0: (0-2)*0 folds to ZERO)
        assert folded == value == column, (to_string(e), folded, value, column)


# ---------------------------------------------------------------------------
# interning: one node per structure; memos that outlive a call
# ---------------------------------------------------------------------------


def _nodes(e):
    """Every node reachable from e, each once."""
    seen = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.kids)
    return list(seen.values())


def _rebuild(node):
    if isinstance(node, ex.Binary):
        return ex.Binary(node.op, node.left, node.right)
    if isinstance(node, ex.Unary):
        return ex.Unary(node.op, node.arg)
    if isinstance(node, ex.Var):
        return ex.Var(node.vid)
    if isinstance(node, ex.Const):
        return ex.Const(node.name)
    return ex.Num(node.value)


def test_literals_intern_by_bit_pattern():
    assert ex.Num(6.0) is ex.Num(6) is simplify(parse("2 * 3", 1, 1))
    assert ex.Num(0.0) is ex.ZERO
    assert ex.Num(0.0) is not ex.Num(-0.0)
    assert math.copysign(1.0, ex.Num(-0.0).value) == -1.0
    assert ex.Num(float("nan")) is ex.Num(float("nan"))
    assert ex.x_var(1) is parse("x1", 1, 1) and ex.PI is ex.Const("pi")


def test_nodes_are_immutable_and_hash_by_identity():
    e = parse("x1 + sin(t1)", 1, 1)
    with pytest.raises(AttributeError, match="immutable"):
        e.op = "-"
    assert {e: 1}[parse("x1+sin(t1)", 1, 1)] == 1
    assert e != parse("x1 + sin(t2)", 2, 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=EXPRESSIONS)
def test_rebuilding_any_node_returns_the_same_object(e):
    for node in _nodes(e):
        assert _rebuild(node) is node


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=EXPRESSIONS)
def test_printed_expression_parses_to_the_same_object(e):
    assert parse(to_string(e), BIND_M, BIND_N) is e
    s = simplify(e)
    assert parse(to_string(s), BIND_M, BIND_N) is s


JET_VARS = [ex.t_var(a) for a in (1, 2)] + [ex.x_var(i) for i in (1, 2)]
JET_VARS += [ex.v_var(i, a) for i in (1, 2) for a in (1, 2)]
# in-domain points for the derivative oracle: a 1/8 grid on [1/4, 3/2]
POSITIVE_GRID = st.integers(2, 12).map(lambda k: k / 8.0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    e=EXPRESSIONS,
    other=EXPRESSIONS,
    pick=st.integers(0, 7),
    coords=st.lists(POSITIVE_GRID, min_size=8, max_size=8),
)
def test_differentiate_matches_fd_with_a_warm_memo(e, other, pick, coords):
    # differentiate by a variable of e when it has one
    free = sorted(free_variables(e), key=lambda vid: vid.name)
    var = ex.Var(free[pick % len(free)]) if free else JET_VARS[pick]
    # the memos start empty for the cold results, then are warmed by other
    # derivatives before the same derivative is taken again
    with mock.patch.object(ex, "_DERIVATIVES", {}), mock.patch.object(
        ex, "_SIMPLIFIED", {}
    ):
        cold = differentiate(e, var)
        cold_simplified = simplify(e)
    for w in JET_VARS:
        differentiate(other, w)
        differentiate(e, w)
        differentiate(differentiate(other, w), var)
    simplify(other)
    d = differentiate(e, var)
    assert d is cold and simplify(e) is cold_simplified
    assert differentiate(e, var) is d

    names = [v.vid.name for v in JET_VARS]
    b = bnd(BIND_M, BIND_N, **dict(zip(names, coords)))
    step = 1e-6
    try:
        got = evaluate(d, b)
        want = fd_partial(e, var, b, step)
        half = fd_partial(e, var, b, step / 2)
    except EvaluationError:
        return  # the expression or its derivative is out of domain here
    if not all(map(math.isfinite, (got, want, half))):
        return
    scale = max(1.0, abs(got), abs(evaluate(e, b)))
    if abs(want - half) > 1e-6 * scale:
        return  # too close to a singularity for central differences
    assert abs(got - want) <= 1e-5 * scale, (to_string(e), var, got, want)


def _one_point(coords):
    names = [v.vid.name for v in JET_VARS]
    return bnd(BIND_M, BIND_N, **dict(zip(names, coords)))


def _agree(got, want):
    """Equal, or both non-finite alike, up to the rounding of a rebuilt DAG."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=EXPRESSIONS, coords=st.lists(GRID, min_size=8, max_size=8))
def test_simplify_preserves_values_where_defined(e, coords):
    b = _one_point(coords)
    try:
        want = evaluate(e, b)
    except EvaluationError:
        return  # the input is undefined here
    # where the input is defined, the simplified expression is too
    got = evaluate(simplify(e), b)
    assert _agree(got, want), (to_string(e), got, want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    e=EXPRESSIONS,
    images=st.lists(EXPRESSIONS, min_size=3, max_size=3),
    pick=st.lists(st.integers(0, 7), min_size=3, max_size=3, unique=True),
    coords=st.lists(GRID, min_size=8, max_size=8),
)
def test_substitute_preserves_values_where_defined(e, images, pick, coords):
    # substituting three variables by expressions, then evaluating, equals
    # evaluating the input at the images' values
    b = _one_point(coords)
    mapping = {JET_VARS[k]: image for k, image in zip(pick, images)}
    try:
        moved = b
        for var, image in mapping.items():
            moved = moved.with_value(var.vid, evaluate(image, b))
        want = evaluate(e, moved)
    except EvaluationError:
        return  # an image or the input is undefined here
    got = evaluate(substitute(e, mapping), b)
    assert _agree(got, want), (to_string(e), got, want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    family=st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: _family(*shape)
    ),
    coords=st.lists(GRID, min_size=8, max_size=8),
)
def test_one_point_family_matches_leaf_by_leaf(family, coords):
    # one memo for the whole family: the same values, and the same first
    # domain error, as evaluating the leaves one by one
    b = _one_point(coords)
    try:
        want = [[evaluate(e, b) for e in row] for row in family]
    except EvaluationError as err:
        with pytest.raises(EvaluationError) as got:
            ex.evaluate_nested(family, b)
        assert str(got.value) == str(err) and got.value.expression is err.expression
        return
    grid = ex.evaluate_nested(family, b)
    assert grid.shape == (len(family), len(family[0]))
    assert grid.tobytes() == np.array(want, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# per-node fields: literal zero, variable masks, pruned derivatives, tapes
# ---------------------------------------------------------------------------


def test_negative_zero_product_folds_to_zero():
    assert ex.num(-0.0) is ex.ZERO and ex.Num(-0.0) is not ex.ZERO
    assert ex.mul(ex.num(-2), ex.ZERO) is ex.ZERO
    assert ex.mul(ex.ZERO, ex.num(-2)) is ex.ZERO
    folded = simplify(parse("(0-2)*0", 1, 1))
    assert folded is ex.ZERO and parse(to_string(folded), 1, 1) is folded


def test_derivative_free_of_the_variable_is_zero():
    # -2*x1 by v1_1: the product rule used to fold -2*0 into Num(-0.0)
    assert differentiate(parse("-2*x1", 1, 1), ex.v_var(1, 1)) is ex.ZERO
    with mock.patch.object(ex, "_DERIVATIVES", {}):
        assert _full_derivative(parse("-2*x1", 1, 1), ex.v_var(1, 1).vid) is ex.ZERO


def _full_derivative(e, vid, memo=None):
    """Reference: every rule applied at every node, no subtree skipped."""
    memo = {} if memo is None else memo
    if e in memo:
        return memo[e]
    kids = [_full_derivative(k, vid, memo) for k in e.kids]
    if isinstance(e, ex.Var):
        d = ex.ONE if e.vid == vid else ex.ZERO
    elif not kids:
        d = ex.ZERO
    elif len(kids) == 1:
        (da,) = kids
        a = e.arg
        rules = {
            "neg": lambda: ex.neg(da),
            "sin": lambda: ex.mul(ex.cos(a), da),
            "cos": lambda: ex.neg(ex.mul(ex.sin(a), da)),
            "tan": lambda: ex.mul(ex.add(ex.ONE, ex.pow_(ex.tan(a), 2.0)), da),
            "exp": lambda: ex.mul(e, da),
            "log": lambda: ex.div(da, a),
            "sqrt": lambda: ex.div(da, ex.mul(2.0, e)),
            "sinh": lambda: ex.mul(ex.cosh(a), da),
            "cosh": lambda: ex.mul(ex.sinh(a), da),
        }
        d = ex.ZERO if e.op != "neg" and ex.is_zero(da) else rules[e.op]()
    else:
        (dl, dr), (l, r) = kids, e.kids
        if e.op == "+":
            d = ex.add(dl, dr)
        elif e.op == "-":
            d = ex.sub(dl, dr)
        elif e.op == "*":
            d = ex.add(ex.mul(dl, r), ex.mul(l, dr))
        elif e.op == "/":
            d = ex.div(ex.sub(ex.mul(dl, r), ex.mul(l, dr)), ex.pow_(r, 2.0))
        elif r.lit is not None:
            rv = r.lit
            d = ex.ZERO if ex.is_zero(dl) else ex.mul(
                ex.mul(ex.num(rv), ex.pow_(l, ex.num(rv - 1.0))), dl
            )
        else:
            d = ex.mul(e, ex.add(ex.mul(dr, ex.log(l)), ex.mul(r, ex.div(dl, l))))
    memo[e] = d
    return d


def _variables(e):
    """The variables of e, by a walk over every node."""
    return {node.vid for node in _nodes(e) if isinstance(node, ex.Var)}


# negative literals (and -0) as leaves, besides those -(...) makes
SIGNED_LEAVES = LEAVES + ("(-2)", "(-0.5)", "(-0)", "(-3)")
SIGNED_EXPRESSIONS = st.recursive(
    st.sampled_from(SIGNED_LEAVES), _grow, max_leaves=8
).map(lambda text: parse(text, BIND_M, BIND_N))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=SIGNED_EXPRESSIONS)
def test_mask_decodes_to_the_variables_of_the_walk(e):
    for node in _nodes(e):
        assert free_variables(node) == _variables(node)
        if node.kids:
            kid_masks = (k.mask for k in node.kids)
            assert node.mask == functools.reduce(operator.or_, kid_masks)
        else:  # one bit for a variable, none for a literal or a constant
            assert bin(node.mask).count("1") == isinstance(node, ex.Var)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=SIGNED_EXPRESSIONS, second=st.integers(0, 7))
def test_pruned_derivative_is_the_full_rule_node(e, second):
    # cold memos: the pruned walk and the reference each build from scratch
    with mock.patch.object(ex, "_DERIVATIVES", {}):
        for var in JET_VARS:
            d = differentiate(e, var)
            want = _full_derivative(e, var.vid)
            assert d is want, (to_string(e), var, to_string(d), to_string(want))
            if var.vid not in _variables(e):
                assert d is ex.ZERO
            # and once more, as B = dR/dv differentiates a derivative
            w = JET_VARS[second]
            assert differentiate(d, w) is _full_derivative(want, w.vid)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    family=st.lists(SIGNED_EXPRESSIONS, min_size=1, max_size=4),
    pick=st.integers(0, 7),
)
def test_tape_instructions_read_only_earlier_slots(family, pick):
    # derivatives are interned after their inputs, as in the invariant builds
    roots = family + [differentiate(e, JET_VARS[pick]) for e in family]
    tape = ex._Tape(roots)
    assert [n.index for n in tape.nodes] == sorted(n.index for n in tape.nodes)
    assert len(set(tape.nodes)) == len(tape.nodes)
    for fn, a, b, out, _, _ in tape.code:
        assert 0 <= a < out and b < out
        assert tape.nodes[out].kids == tuple(tape.nodes[s] for s in (a, b) if s >= 0)
    assert [tape.nodes[s] for s in tape.outputs] == roots


def test_batch_domain_rule_raises_at_the_first_bad_point():
    family = (parse("log(x1)", 1, 1), parse("x1*1e308", 1, 1))
    x1 = np.array([0.5, -1.5, -2.0])
    with pytest.raises(EvaluationError) as info:
        ex.evaluate_in_domain(family, Bindings.jet(1, 1, x=x1[None]))
    assert str(info.value) == "log of non-positive value -1.5 in `log(x1)`"
    # what stands at one point stands in the batch: an overflow, a nan input
    for bad in (1000.0, float("nan")):
        x1 = np.array([0.5, bad])
        b = Bindings.jet(1, 1, x=x1[None])
        got = ex.evaluate_in_domain(family, b)
        assert np.array_equal(got, ex.evaluate_nested(family, b), equal_nan=True)
        assert not np.isfinite(got[:, 1]).all()
    # an overflow at an earlier point does not hide a domain error at a later
    # one: the batch raises what a scan of single points raises
    x1 = np.array([1000.0, -1.0])
    with pytest.raises(EvaluationError) as info:
        ex.evaluate_in_domain(family, Bindings.jet(1, 1, x=x1[None]))
    assert str(info.value) == "log of non-positive value -1.0 in `log(x1)`"


# ordinary values, a zero, values that overflow and a nan input
DOMAIN_POOL = (-1.5, -1.0, 0.0, 0.5, 2.0, 1000.0, 1e300, math.nan)


def _domain_batch(count):
    """Coordinates (t, x, v stacked: 8 rows) of ``count`` points."""
    size = (BIND_M + BIND_N + BIND_N * BIND_M) * count
    return st.lists(st.sampled_from(DOMAIN_POOL), min_size=size, max_size=size).map(
        lambda vals: np.array(vals).reshape(-1, count)
    )


def _first_origin(e, points):
    """The origin of ``e`` at the first single point where it is not finite."""
    for one in points:
        try:
            value = evaluate(e, one)
        except EvaluationError as err:
            return err.expression
        if not math.isfinite(value):
            return next(origin for _, origin, _ in ex._scan([e], [value], one))
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    family=st.lists(SIGNED_EXPRESSIONS, min_size=1, max_size=3).map(tuple),
    coords=st.integers(1, 5).flatmap(_domain_batch),
)
def test_batch_raises_what_a_scan_of_single_points_raises(family, coords):
    m, n, count = BIND_M, BIND_N, coords.shape[1]
    t, x, v = coords[:m], coords[m : m + n], coords[m + n :].reshape(n, m, count)
    batch = Bindings.jet(m, n, t, x, v)
    points = [Bindings.jet(m, n, t[:, k], x[:, k], v[:, :, k]) for k in range(count)]
    columns = []
    for one in points:
        try:
            columns.append(ex.evaluate_nested(family, one))
        except EvaluationError as err:
            with pytest.raises(EvaluationError) as info:
                ex.evaluate_in_domain(family, batch)
            assert str(info.value) == str(err)
            assert info.value.expression is err.expression
            break
    else:
        got = ex.evaluate_in_domain(family, batch)
        assert got.tobytes() == ex.evaluate_nested(family, batch).tobytes()
        assert np.array_equal(got, np.stack(columns, axis=-1), equal_nan=True)
    for e in family:
        assert ex.nonfinite_origin(e, batch) is _first_origin(e, points)


def test_one_point_family_lowers_one_tape():
    # a timing-free guard on the one evaluator: a 3x3 family at one point is
    # one tape, and a domain error adds the one tape its walk back reads,
    # at one point or over a batch
    family = tuple(
        tuple(
            parse(f"log(x1 + {r})*sin(x2)^{c + 1} + x1/(x2 + {r})", 1, 2)
            for c in range(3)
        )
        for r in range(3)
    )
    with support.lowered_tapes() as lowered:
        grid = ex.evaluate_nested(family, bnd(1, 2, x1=0.5, x2=0.25))
        assert grid.shape == (3, 3) and np.all(np.isfinite(grid))
        assert lowered == [9]
        lowered.clear()
        with pytest.raises(EvaluationError, match="log of non-positive"):
            ex.evaluate_nested(family, bnd(1, 2, x1=-1.5, x2=0.25))
        assert len(lowered) == 2 and lowered[0] == 9
        batch = Bindings.jet(1, 2, x=np.array([[0.5, -1.5, -2.5], [0.25] * 3]))
        lowered.clear()
        with pytest.raises(EvaluationError, match="log of non-positive"):
            ex.evaluate_in_domain(family, batch)
        assert len(lowered) == 2 and lowered[0] == 9
        lowered.clear()
        assert ex.nonfinite_origin(family[0][0], batch) is parse("log(x1 + 0)", 1, 2)
        assert len(lowered) == 2 and lowered[0] == 1
