import functools
import os
import pathlib
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import support
from jetkcc import exprlang as ex
from jetkcc.cli import load_problem
from jetkcc.exprlang import parse, substitute
from jetkcc.jetgeom import (
    DTensorValue,
    JetPoint,
    MetricField,
    PdeSystem,
    Slot,
    build_affine_system,
    canonical_spatial_connection,
    canonical_spatial_semispray,
    canonical_tensors,
    canonical_temporal_connection,
    canonical_temporal_semispray,
    point_set,
    sample_jet_points,
)
from jetkcc.kcccore import (
    INVARIANT_NAMES,
    InvariantPipeline,
    SectionMap,
    invariant_slots,
    sode_residual,
)
from jetkcc.dtransform import (
    CoordinateChange,
    SingularJacobianError,
    identity_change,
    pushforward_system,
    transform_dtensor,
    transform_jet_point,
    transform_section,
    two_path_invariants,
)

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

# floor of the relative two-path deviation below: stricter than the CLI's
# max(1, |a|, |b|) scale wherever components are small
DEVIATION_FLOOR = 1e-12


def relative_deviation(pushed, direct) -> float:
    """max |a - b| / max(|a|, |b|, floor) over every component and point."""
    denom = np.maximum(np.maximum(np.abs(pushed), np.abs(direct)), DEVIATION_FLOOR)
    return float(np.max(np.abs(pushed - direct) / denom))


# ---------------------------------------------------------------------------
# shared coordinate changes and geometries
# ---------------------------------------------------------------------------


@functools.cache
def change22() -> CoordinateChange:
    """Nonlinear fibered change (m = n = 2) with exact closed-form inverse:
    temporal 2x2 linear mixing, sinh and quadratic spatial maps."""
    m = n = 2
    return CoordinateChange(
        m,
        n,
        t_forward=(parse("t1 + 0.3*t2", m, n), parse("t2 - 0.2*t1", m, n)),
        x_forward=(parse("sinh(x1)", m, n), parse("x2 + 0.2*x2^2", m, n)),
        t_inverse=(
            parse("(t1 - 0.3*t2)/1.06", m, n),
            parse("(t2 + 0.2*t1)/1.06", m, n),
        ),
        x_inverse=(
            parse("log(x1 + sqrt(x1^2 + 1))", m, n),
            parse("(sqrt(1 + 0.8*x2) - 1)/0.4", m, n),
        ),
    )


def change11_time_quadratic() -> CoordinateChange:
    """m = n = 1: curved time reparametrization, quadratic space map."""
    return CoordinateChange(
        1,
        1,
        t_forward=(parse("t1 + 0.1*t1^2", 1, 1),),
        x_forward=(parse("x1 + 0.2*x1^2", 1, 1),),
        t_inverse=(parse("(sqrt(1 + 0.4*t1) - 1)/0.2", 1, 1),),
        x_inverse=(parse("(sqrt(1 + 0.8*x1) - 1)/0.4", 1, 1),),
    )


def swap_change(cc: CoordinateChange) -> CoordinateChange:
    """The inverse coordinate change (forward and inverse maps exchanged)."""
    return CoordinateChange(
        cc.m, cc.n, cc.t_inverse, cc.x_inverse, cc.t_forward, cc.x_forward
    )


def compose_changes(
    first: CoordinateChange, second: CoordinateChange
) -> CoordinateChange:
    """second-after-first as a single change, composed symbolically."""
    m, n = first.m, first.n
    t_sub = {
        ex.VariableId(ex.TEMPORAL, alpha=a + 1): first.t_forward[a]
        for a in range(m)
    }
    x_sub = {
        ex.VariableId(ex.SPATIAL, i=i + 1): first.x_forward[i]
        for i in range(n)
    }
    t_sub_inv = {
        ex.VariableId(ex.TEMPORAL, alpha=a + 1): second.t_inverse[a]
        for a in range(m)
    }
    x_sub_inv = {
        ex.VariableId(ex.SPATIAL, i=i + 1): second.x_inverse[i]
        for i in range(n)
    }
    return CoordinateChange(
        m,
        n,
        tuple(substitute(f, t_sub) for f in second.t_forward),
        tuple(substitute(f, x_sub) for f in second.x_forward),
        tuple(substitute(f, t_sub_inv) for f in first.t_inverse),
        tuple(substitute(f, x_sub_inv) for f in first.x_inverse),
    )


def domain_points(m, n, count, seed):
    """Jet points inside the chart domain shared by all the test changes."""
    rng = np.random.default_rng(seed)
    return [
        JetPoint(
            rng.uniform(0.2, 0.9, m),
            rng.uniform(0.2, 0.9, n),
            rng.uniform(-0.8, 0.8, (n, m)),
        )
        for _ in range(count)
    ]


@functools.cache
def curved_pair22():
    m = n = 2
    h = MetricField(
        ex.TEMPORAL,
        (
            (parse("1 + 0.3*t1^2", m, n), parse("0.2*t1*t2", m, n)),
            (parse("0.2*t1*t2", m, n), parse("1 + 0.2*t2^2", m, n)),
        ),
    )
    phi = MetricField(
        ex.SPATIAL,
        (
            (parse("1 + 0.25*x2^2", m, n), parse("0.15*x1*x2", m, n)),
            (parse("0.15*x1*x2", m, n), parse("1 + 0.3*x1^2", m, n)),
        ),
    )
    return h, phi


@functools.cache
def affine_setup22():
    h, phi = curved_pair22()
    return h, phi, build_affine_system(h, phi)


def pushforward_spatial_metric(
    cc: CoordinateChange, phi: MetricField
) -> MetricField:
    """Test-side congruence transform of the position-space metric,
    independent of the module's temporal-metric pushforward."""
    n = phi.dim
    x_sub = {
        ex.VariableId(ex.SPATIAL, i=j + 1): cc.x_inverse[j] for j in range(n)
    }
    dx_inv = cc.jac_x_inverse
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = ex.simplify(
                ex.expr_sum(
                    ex.mul(
                        substitute(phi.rows[p][q], x_sub),
                        ex.mul(dx_inv[p][i], dx_inv[q][j]),
                    )
                    for p in range(n)
                    for q in range(n)
                )
            )
            rows[i][j] = entry
            rows[j][i] = entry
    return MetricField(ex.SPATIAL, tuple(tuple(r) for r in rows))


def jacobian_data(cc: CoordinateChange, p: JetPoint):
    """Numeric Jacobian blocks and the velocity-expression partials used by
    the defining transformation rules, assembled by hand (finite chain rule
    on the forward maps only — independent of the module's symbolic route).

    Returns (A, Ainv, Jt, B, dxa_dt, dxa_dx) where
      dxa_dt[i, al, mu] = d(vnew^i_al)/dt^mu holding (x, v) fixed,
      dxa_dx[i, al, r]  = d(vnew^i_al)/dx^r holding (t, v) fixed.
    """
    m, n = cc.m, cc.n
    A = cc.spatial_jacobian(p.x)
    Jt = cc.temporal_jacobian(p.t)
    Ainv = np.linalg.inv(A)
    B = np.linalg.inv(Jt)

    tb = ex.Bindings(
        {ex.VariableId(ex.TEMPORAL, alpha=a + 1): float(p.t[a]) for a in range(m)}
    )
    xb = ex.Bindings(
        {ex.VariableId(ex.SPATIAL, i=i + 1): float(p.x[i]) for i in range(n)}
    )
    dJt = np.array(
        [
            [
                [
                    ex.evaluate(
                        ex.differentiate(cc.jac_t_forward[g][nu], ex.t_var(u + 1)),
                        tb,
                    )
                    for u in range(m)
                ]
                for nu in range(m)
            ]
            for g in range(m)
        ]
    )
    dA = np.array(
        [
            [
                [
                    ex.evaluate(
                        ex.differentiate(cc.jac_x_forward[i][j], ex.x_var(r + 1)),
                        xb,
                    )
                    for r in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
    )
    # d/dt^mu of B(t) = inverse of Jt(t):  -B dJt B
    dB = np.einsum("bg,gnu,na->bau", -B, dJt, B)
    dxa_dt = np.einsum("ij,bau,jb->iau", A, dB, p.v)
    dxa_dx = np.einsum("ijr,ba,jb->iar", dA, B, p.v)
    return A, Ainv, Jt, B, dxa_dt, dxa_dx


def eval_family(nested, point: JetPoint) -> np.ndarray:
    return np.asarray(ex.evaluate_nested(nested, point.bindings()), dtype=float)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_change_requires_matching_map_counts():
    t = (parse("t1", 1, 2),)
    xs = (parse("x1", 1, 2), parse("x2", 1, 2))
    with pytest.raises(ValueError):
        CoordinateChange(1, 2, t, xs[:1], t, xs)
    with pytest.raises(ValueError):
        CoordinateChange(1, 2, (parse("t1", 1, 2), parse("t1", 1, 2)), xs, t, xs)


def test_change_rejects_wrong_variable_kinds():
    t = (parse("t1", 1, 1),)
    x = (parse("x1", 1, 1),)
    with pytest.raises(ValueError, match="temporal"):
        CoordinateChange(1, 1, (parse("x1", 1, 1),), x, t, x)
    with pytest.raises(ValueError, match="spatial"):
        CoordinateChange(1, 1, t, (parse("v1_1", 1, 1),), t, x)


def test_round_trip_defect_flags_a_wrong_inverse():
    good = change11_time_quadratic()
    pts = domain_points(1, 1, 10, seed=3)
    assert good.round_trip_defect(pts) < 1e-12
    bad = CoordinateChange(
        1,
        1,
        good.t_forward,
        good.x_forward,
        (parse("t1", 1, 1),),  # pretends the time map is the identity
        good.x_inverse,
    )
    assert bad.round_trip_defect(pts) > 1e-2


def test_round_trip_defect_keeps_nan():
    good = change11_time_quadratic()
    # a nan input propagates: a point with a nan time gives a nan defect
    points = domain_points(1, 1, 3, seed=3)
    points[1] = JetPoint(np.array([np.nan]), points[1].x, points[1].v)
    assert np.isnan(good.round_trip_defect(points))
    # an overflow from finite operands raises at the first point
    overflowing = parse("t1 + (1e200*t1)*1e200 - (1e200*t1)*1e200", 1, 1)
    bad = CoordinateChange(
        1, 1, good.t_forward, good.x_forward, (overflowing,), good.x_inverse
    )
    with pytest.raises(ex.EvaluationError) as info:
        bad.round_trip_defect(domain_points(1, 1, 3, seed=3))
    assert str(info.value) == "overflow in product in `1e+200*t1*1e+200`"


def test_singular_jacobian_is_refused():
    cc = CoordinateChange(
        1,
        1,
        (parse("t1^2", 1, 1),),
        (parse("x1", 1, 1),),
        (parse("sqrt(t1)", 1, 1),),
        (parse("x1", 1, 1),),
    )
    p = JetPoint(np.array([0.0]), np.array([0.5]), np.array([[0.3]]))
    with pytest.raises(SingularJacobianError):
        transform_jet_point(cc, [p])


# ---------------------------------------------------------------------------
# transforming points
# ---------------------------------------------------------------------------


def test_identity_change_fixes_points():
    idc = identity_change(2, 2)
    for p in domain_points(2, 2, 5, seed=11):
        q = transform_jet_point(idc, [p])[0]
        assert np.array_equal(q.t, p.t)
        assert np.array_equal(q.x, p.x)
        assert np.array_equal(q.v, p.v)


def test_time_doubling_halves_velocities():
    cc = CoordinateChange(
        1,
        1,
        (parse("2*t1", 1, 1),),
        (parse("x1", 1, 1),),
        (parse("t1/2", 1, 1),),
        (parse("x1", 1, 1),),
    )
    p = JetPoint(np.array([0.7]), np.array([0.4]), np.array([[0.6]]))
    q = transform_jet_point(cc, [p])[0]
    assert q.t[0] == pytest.approx(1.4, abs=1e-15)
    assert q.x[0] == pytest.approx(0.4, abs=1e-15)
    assert q.v[0, 0] == pytest.approx(0.3, abs=1e-15)


def test_round_trip_restores_points():
    cc = change22()
    back = swap_change(cc)
    for p in domain_points(2, 2, 10, seed=5):
        q = transform_jet_point(back, transform_jet_point(cc, [p]))[0]
        assert np.max(np.abs(q.t - p.t)) < 1e-8
        assert np.max(np.abs(q.x - p.x)) < 1e-8
        assert np.max(np.abs(q.v - p.v)) < 1e-8


def test_transformed_velocity_is_the_chain_rule_derivative():
    # Independent oracle: push a concrete curve through the maps numerically
    # and difference it.  The jet transform of the prolonged point must agree
    # with the derivative of the transformed curve at the transformed time.
    m, n = 1, 2
    cc = CoordinateChange(
        m,
        n,
        t_forward=(parse("t1 + 0.1*t1^2", m, n),),
        x_forward=(parse("sinh(x1)", m, n), parse("x2 + 0.2*x2^2", m, n)),
        t_inverse=(parse("(sqrt(1 + 0.4*t1) - 1)/0.2", m, n),),
        x_inverse=(
            parse("log(x1 + sqrt(x1^2 + 1))", m, n),
            parse("(sqrt(1 + 0.8*x2) - 1)/0.4", m, n),
        ),
    )
    sigma = SectionMap(
        m,
        (parse("0.3 + 0.4*t1 + 0.2*t1^2", m, n), parse("0.5 - 0.3*t1", m, n)),
    )

    def curve_new(t_new):
        t_old = np.array(
            [ex.evaluate(cc.t_inverse[0], ex.Bindings.jet(m, n, t=[t_new]))]
        )
        return cc.forward_x(sigma.prolongation_point(t_old).x)

    t0 = np.array([0.6])
    moved = transform_jet_point(cc, [sigma.prolongation_point(t0)])[0]
    step = 1e-6
    tn = moved.t[0]
    fd = (curve_new(tn + step) - curve_new(tn - step)) / (2 * step)
    assert support.rel_max(moved.v[:, 0], fd) < 1e-8


def _node_counts(roots):
    """(identity-distinct, structurally distinct) nodes reachable from roots."""
    klass: dict[int, int] = {}
    table: dict[tuple, int] = {}
    stack = [(root, False) for root in roots]
    while stack:
        node, ready = stack.pop()
        if id(node) in klass:
            continue
        kids = node.kids
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
    return len(klass), len(table)


@functools.cache
def pushforward_pipeline22() -> InvariantPipeline:
    """The invariants of the curved 2x2 pair pushed forward under change22."""
    h, _, system = affine_setup22()
    return InvariantPipeline(*pushforward_system(change22(), system, h))


def _leaves(nested) -> list:
    if isinstance(nested, tuple):
        return [leaf for part in nested for leaf in _leaves(part)]
    return [nested]


def test_pushforward_fourth_invariant_shares_equal_subtrees():
    # without interning, B of this pipeline had 161,702 node objects for
    # 4,920 distinct subexpressions
    roots = _leaves(pushforward_pipeline22().expressions("B"))
    identity, structural = _node_counts(roots)
    assert structural > 1000
    assert identity <= 1.5 * structural


def _velocity_memo_sizes(name: str) -> list:
    """Derivatives memoized per velocity variable when, from empty memos,
    the pushed pair's invariant ``name`` is built."""
    with mock.patch.object(ex, "_DERIVATIVES", {}):
        h, _, system = affine_setup22()
        pipe = InvariantPipeline(*pushforward_system(change22(), system, h))
        pipe.expressions(name)
        sizes = {vid.name: len(memo) for vid, memo in ex._DERIVATIVES.items()}
    velocities = [size for var, size in sizes.items() if var.startswith("v")]
    assert len(velocities) == 4
    return velocities


def test_fourth_invariant_build_memoizes_only_derivatives_that_can_be_nonzero():
    # a timing-free guard on pruned differentiation: from empty memos, B of
    # the pushed pair memoizes 6,735 derivatives per velocity variable when
    # every node is differentiated, about 3,000 when subtrees free of the
    # variable are skipped, and 2,248 when R differentiates only the entries
    # of P it reads
    sizes = _velocity_memo_sizes("B")
    assert all(size <= 2400 for size in sizes), sizes


def test_pushforward_build_coerces_only_numbers():
    # a timing-free guard on the per-node cost of the build: from empty
    # memos, the pushed pair's five families made 28,529 as_expr calls when
    # every smart constructor coerced both arguments, and about 900 once
    # only arguments that are not already nodes are coerced
    with mock.patch.object(ex, "_DERIVATIVES", {}):
        with support.recorded_calls(ex, "as_expr", lambda x: None) as calls:
            h, _, system = affine_setup22()
            pipe = InvariantPipeline(*pushforward_system(change22(), system, h))
            for name in ("eps", "P", "R", "B", "D"):
                pipe.expressions(name)
    assert len(calls) <= 2000, len(calls)


def test_third_invariant_build_memoizes_only_derivatives_it_reads():
    # R differentiates P only for j < k: 1,506 derivatives per velocity
    # variable, where all n*n*n*m entries of dP/dv memoized about 2,480
    sizes = _velocity_memo_sizes("R")
    assert all(size <= 1600 for size in sizes), sizes


# Run in a fresh interpreter: interning makes the count of new nodes depend on
# what earlier tests built.  Prints the nodes the command interned and how
# many of them no tape reads.
UNREAD_NODES = """
import sys
from jetkcc import cli, exprlang as ex
from support import interned_nodes
tapes = []
lower = ex._Tape.__init__
def recorded(tape, roots):
    lower(tape, roots)
    tapes.append(tape)
ex._Tape.__init__ = recorded
before = {id(node) for node in interned_nodes()}
assert cli.main(sys.argv[1:]) == 0
new = [node for node in interned_nodes() if id(node) not in before]
read = {id(node) for tape in tapes for node in tape.nodes}
print(len(new), sum(id(node) not in read for node in new))
"""


def test_pushforward_transform_builds_few_nodes_that_no_tape_reads(tmp_path):
    # the command interns 12,622 nodes and 190 of them are read by no tape;
    # when R was built from every dP^i_j/dv^k_a it interned 15,846, 3,414
    # of them unread
    root = PROBLEMS.parent
    inputs = root / "bench" / "inputs"
    argv = [
        "check", "transform", str(inputs / "curved_pair22.json"),
        str(inputs / "change22.json"), "--samples", "20", "--seed", "41",
        "--out", str(tmp_path / "report.json"),
    ]
    paths = [str(root / "src"), str(root / "tests")]  # tests/ for support
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", UNREAD_NODES, *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    interned, unread = map(int, proc.stdout.split())
    assert interned <= 13000, interned
    assert unread <= 250, unread


def test_batch_evaluation_is_one_tape_over_the_family_dag():
    # node visits per evaluation equal the tape length: evaluating B builds
    # one tape, with one slot per identity-distinct node of its union DAG
    family = pushforward_pipeline22().expressions("B")
    identity, _ = _node_counts(_leaves(family))
    tapes = []

    class Recorded(ex._Tape):
        def __init__(self, roots):
            super().__init__(roots)
            tapes.append(self)

    points = domain_points(2, 2, 4, seed=5)
    with mock.patch.object(ex, "_Tape", Recorded):
        grid = ex.evaluate_nested(family, point_set(points).bindings())
    assert grid.shape[-1] == 4 and grid[..., 0].size == len(_leaves(family))
    assert [len(t.nodes) for t in tapes] == [identity]
    instructions = list(support.tape_instructions(tapes[0]))
    assert len(instructions) + len(tapes[0].leaves) == identity


def test_pushforward_batch_matches_one_point_evaluation():
    # the tape over a batch against the same tape at one point, point by
    # point: one evaluator, so the same bits
    pipe = pushforward_pipeline22()
    cc = change22()
    points = transform_jet_point(cc, domain_points(2, 2, 3, seed=9))
    for name in ("eps", "P", "R", "B", "D"):
        grid = pipe.evaluate_batch(name, points)
        for k, p in enumerate(points):
            one = pipe.evaluate(name, p).values
            assert np.all(np.isfinite(one))
            assert one.tobytes() == np.ascontiguousarray(grid[..., k]).tobytes(), name


def union_case(pair: str):
    """A fresh pipeline with its five families built, and a point set in its
    domain: the curved 2x2 pair pushed forward under change22, or the
    affine_curved problem."""
    if pair == "pushed":
        h, _, system = affine_setup22()
        pipe = InvariantPipeline(*pushforward_system(change22(), system, h))
        points = transform_jet_point(change22(), domain_points(2, 2, 6, seed=11))
    else:
        problem = load_problem(str(PROBLEMS / "affine_curved.json"))
        pipe = InvariantPipeline(problem.system, problem.h)
        points = sample_jet_points(2, 2, 6, seed=11)
    for name in INVARIANT_NAMES:
        pipe.expressions(name)
    return pipe, points


@pytest.mark.parametrize("pair", ["pushed", "affine_curved"])
def test_union_tape_keeps_the_bits_of_each_family_alone(pair):
    # the five families over one point set are one tape, which runs the same
    # numpy operation on the same operands for every node as the family's
    # own tape does
    pipe, points = union_case(pair)
    b = point_set(points).bindings()
    with support.lowered_tapes() as lowered:
        grids = {name: pipe.evaluate_batch(name, points) for name in INVARIANT_NAMES}
    assert len(lowered) == 3  # h's entries, its determinant, one union tape
    for name, grid in grids.items():
        alone = ex.evaluate_nested(pipe.expressions(name), b)
        assert grid.shape == alone.shape
        assert grid.tobytes() == alone.tobytes(), name


def test_batch_evaluation_adds_only_its_output_array():
    # a timing-free memory guard: once a stress family's tape has run over
    # 2000 points, evaluate_nested allocates the output array and at most
    # 16 KiB more, so the batch domain rule tests finiteness without a
    # second batch-sized copy of the values
    problem = load_problem(str(PROBLEMS / "affine_curved.json"))
    pipe = InvariantPipeline(problem.system, problem.h)
    b = point_set(sample_jet_points(2, 2, 2000, seed=41)).bindings()
    run, held = ex._Tape.run, []

    def traced(tape, bindings):
        values = run(tape, bindings)
        # the tape is kept, so freeing it cannot hide what comes after
        held.append((tape, tracemalloc.get_traced_memory()[0]))
        tracemalloc.reset_peak()
        return values

    for name in INVARIANT_NAMES:
        family = pipe.expressions(name)
        ex.evaluate_nested(family, b)  # caches warm
        held.clear()
        with mock.patch.object(ex._Tape, "run", traced):
            tracemalloc.start()
            try:
                out = ex.evaluate_nested(family, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        ((_, after_run),) = held
        assert peak - after_run <= out.nbytes + 16 * 1024, name


def test_evaluate_batch_remembers_one_point_set():
    problem = load_problem(str(PROBLEMS / "affine_curved.json"))
    pipe = InvariantPipeline(problem.system, problem.h)
    pipe.expressions("eps")
    pipe.expressions("P")
    first = sample_jet_points(2, 2, 5, seed=1)
    eps = pipe.evaluate_batch("eps", first)
    with support.lowered_tapes() as lowered:  # from the memo
        assert pipe.evaluate_batch("eps", first) is eps
        P = pipe.evaluate_batch("P", first)
    assert lowered == []
    with pytest.raises(ValueError):
        eps[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        P[...] = 0.0

    def alone(name, points):
        family = pipe.expressions(name)
        return ex.evaluate_nested(family, point_set(points).bindings()).tobytes()

    # a family built after the first call is evaluated when asked for
    pipe.expressions("R")
    assert pipe.evaluate_batch("R", first).tobytes() == alone("R", first)
    # a second point set with other values gets fresh grids
    second = sample_jet_points(2, 2, 5, seed=2)
    eps2 = pipe.evaluate_batch("eps", second)
    assert eps2.tobytes() == alone("eps", second) != eps.tobytes()
    # a plain list is not remembered: each call evaluates its family
    listed = list(second)
    with support.lowered_tapes() as lowered:
        again = pipe.evaluate_batch("eps", listed)
        assert pipe.evaluate_batch("eps", listed) is not again
    assert len(lowered) == 6  # twice h's two tapes and eps's one
    assert again.tobytes() == eps2.tobytes()
    # an all-zero family lowers nothing beyond the check of h
    fresh = InvariantPipeline(problem.system, problem.h)
    with support.lowered_tapes() as lowered:
        D = fresh.evaluate_batch("D", first)
    assert len(lowered) == 2 and not D.any() and D.shape[-1] == 5


def test_two_path_on_the_pushed_pair_lowers_one_tape_per_pipeline():
    # per point set: two Jacobians and two maps; per pipeline: h's entries,
    # its determinant and one union tape of the four non-zero families (D is
    # all zero).  One tape per selector and call lowered 36 tapes with
    # 20,145 slots
    h, _, system = affine_setup22()
    points = domain_points(2, 2, 20, seed=7)
    with support.lowered_slots() as slots:
        two_path_invariants(system, h, change22(), points, INVARIANT_NAMES)
    assert len(slots) <= 10
    assert sum(slots) <= 12_700


# ---------------------------------------------------------------------------
# transforming d-tensor values
# ---------------------------------------------------------------------------


def test_scalar_tensor_is_unchanged():
    cc = change22()
    p = domain_points(2, 2, 1, seed=2)[0]
    val = DTensorValue(2, 2, (), np.array(3.25))
    out = transform_dtensor(val, *support.jacobians(cc, p))
    assert out.values == pytest.approx(3.25, abs=0.0)
    assert out.slots == ()


def test_identity_change_fixes_tensors():
    idc = identity_change(2, 2)
    rng = np.random.default_rng(8)
    slots = (
        Slot(ex.SPATIAL, True),
        Slot(ex.TEMPORAL, False),
        Slot(ex.SPATIAL, False),
    )
    val = DTensorValue(2, 2, slots, rng.normal(size=(2, 2, 2)))
    p = domain_points(2, 2, 1, seed=1)[0]
    out = transform_dtensor(val, *support.jacobians(idc, p))
    assert np.array_equal(out.values, val.values)


def test_liouville_tensor_transforms_like_the_velocities():
    cc = change22()
    h, _ = curved_pair22()
    for p in domain_points(2, 2, 6, seed=9):
        c_val, _ = canonical_tensors(h, p)
        moved = transform_dtensor(c_val, *support.jacobians(cc, p))
        q = transform_jet_point(cc, [p])[0]
        assert support.rel_max(moved.values, q.v) < 1e-12


def test_full_contractions_are_invariant_scalars():
    # Pair every up slot with a matching down slot and check the complete
    # contraction is chart-independent; this exercises all four factor kinds.
    cc = change22()
    rng = np.random.default_rng(21)
    p = domain_points(2, 2, 1, seed=14)[0]
    u = DTensorValue(2, 2, (Slot(ex.SPATIAL, True),), rng.normal(size=2))
    w = DTensorValue(2, 2, (Slot(ex.SPATIAL, False),), rng.normal(size=2))
    s = DTensorValue(2, 2, (Slot(ex.TEMPORAL, True),), rng.normal(size=2))
    r = DTensorValue(2, 2, (Slot(ex.TEMPORAL, False),), rng.normal(size=2))
    before = float(u.values @ w.values) * float(s.values @ r.values)
    jac = support.jacobians(cc, p)
    mu, mw, ms, mr = (transform_dtensor(z, *jac) for z in (u, w, s, r))
    after = float(mu.values @ mw.values) * float(ms.values @ mr.values)
    assert after == pytest.approx(before, rel=1e-12)


def test_transform_is_multiplicative_under_composition():
    first = change11_time_quadratic()
    second = CoordinateChange(
        1,
        1,
        (parse("2*t1", 1, 1),),
        (parse("sinh(x1)", 1, 1),),
        (parse("t1/2", 1, 1),),
        (parse("log(x1 + sqrt(x1^2 + 1))", 1, 1),),
    )
    combined = compose_changes(first, second)
    rng = np.random.default_rng(4)
    slots = (Slot(ex.SPATIAL, True), Slot(ex.TEMPORAL, False))
    for p in domain_points(1, 1, 6, seed=17):
        val = DTensorValue(1, 1, slots, rng.normal(size=(1, 1)))
        two_step = transform_dtensor(
            transform_dtensor(val, *support.jacobians(first, p)),
            *support.jacobians(second, transform_jet_point(first, [p])[0]),
        )
        one_step = transform_dtensor(val, *support.jacobians(combined, p))
        assert support.rel_max(one_step.values, two_step.values) < 1e-8


def test_inverse_change_undoes_the_transform():
    cc = change22()
    back = swap_change(cc)
    rng = np.random.default_rng(30)
    slots = (Slot(ex.SPATIAL, True), Slot(ex.TEMPORAL, False))
    for p in domain_points(2, 2, 6, seed=19):
        val = DTensorValue(2, 2, slots, rng.normal(size=(2, 2)))
        restored = transform_dtensor(
            transform_dtensor(val, *support.jacobians(cc, p)),
            *support.jacobians(back, transform_jet_point(cc, [p])[0]),
        )
        assert support.rel_max(restored.values, val.values) < 1e-8


# ---------------------------------------------------------------------------
# pushing systems forward
# ---------------------------------------------------------------------------


def test_identity_pushforward_is_evaluation_identical():
    h, _, system = affine_setup22()
    new_system, new_h = pushforward_system(identity_change(2, 2), system, h)
    for p in domain_points(2, 2, 8, seed=23):
        assert np.array_equal(new_system.evaluate(p.t, p.x, p.v), system.evaluate(p.t, p.x, p.v))
        assert np.array_equal(new_h.evaluate(p.t), h.evaluate(p.t))


def test_zero_system_under_time_doubling_stays_zero():
    m, n = 1, 2
    cc = CoordinateChange(
        m,
        n,
        (parse("2*t1", m, n),),
        (parse("x1", m, n), parse("x2", m, n)),
        (parse("t1/2", m, n),),
        (parse("x1", m, n), parse("x2", m, n)),
    )
    zero = PdeSystem.from_upper(
        m, n, {(1, 1, 1): ex.ZERO, (2, 1, 1): ex.ZERO}
    )
    flat_h = MetricField(ex.TEMPORAL, ((ex.ONE,),))
    new_system, _ = pushforward_system(cc, zero, flat_h)
    for i in range(1, n + 1):
        assert ex.is_zero(new_system.component(i, 1, 1))


def test_metric_pushforward_matches_the_congruence():
    h, _, _ = affine_setup22()
    cc = change22()
    _, new_h = pushforward_system(cc, affine_setup22()[2], h)
    for p in domain_points(2, 2, 8, seed=29):
        Jt = cc.temporal_jacobian(p.t)
        B = np.linalg.inv(Jt)
        want = B.T @ h.evaluate(p.t) @ B
        got = new_h.evaluate(cc.forward_t(p.t))
        assert support.rel_max(got, want) < 1e-12


def test_affine_first_invariant_vanishes_after_pushforward():
    h, _, system = affine_setup22()
    cc = change22()
    new_system, new_h = pushforward_system(cc, system, h)
    pipe = InvariantPipeline(new_system, new_h)
    worst = 0.0
    for p in domain_points(2, 2, 20, seed=31):
        val = pipe.evaluate("eps", transform_jet_point(cc, [p])[0]).values
        worst = max(worst, float(np.max(np.abs(val))))
    assert worst < 1e-9


def test_linear_solutions_transport_to_solutions():
    # Zero right-hand side, flat metric: sections affine in t solve the
    # system exactly, so their transforms must solve the pushforward.
    m = n = 2
    zero = PdeSystem.from_upper(
        m,
        n,
        {
            (i, a, b): ex.ZERO
            for i in (1, 2)
            for a in (1, 2)
            for b in (1, 2)
            if a <= b
        },
    )
    flat_h = support.flat_metric(ex.TEMPORAL, m)
    cc = change22()
    new_system, _ = pushforward_system(cc, zero, flat_h)
    sigma = SectionMap(
        m,
        (
            parse("0.4 + 0.3*t1 - 0.2*t2", m, n),
            parse("0.5 - 0.1*t1 + 0.4*t2", m, n),
        ),
    )
    sigma_new = transform_section(cc, sigma)
    for p in domain_points(m, n, 6, seed=37):
        t_new = cc.forward_t(p.t)
        res = sode_residual(new_system, sigma_new, t_new)
        assert np.max(np.abs(res)) < 1e-8


def test_geodesic_solution_transports_to_solution():
    # The equator of the round sphere solves the geodesic system; after a
    # curved time reparametrization plus a spatial chart change the
    # transported curve must still solve the pushed-forward system.
    m, n = 1, 2
    h = MetricField(ex.TEMPORAL, ((ex.ONE,),))
    phi = support.sphere_metric()
    system = build_affine_system(h, phi)
    cc = CoordinateChange(
        m,
        n,
        t_forward=(parse("t1 + 0.1*t1^2", m, n),),
        x_forward=(parse("x1 + 0.1*x1^2", m, n), parse("sinh(x2)", m, n)),
        t_inverse=(parse("(sqrt(1 + 0.4*t1) - 1)/0.2", m, n),),
        x_inverse=(
            parse("(sqrt(1 + 0.4*x1) - 1)/0.2", m, n),
            parse("log(x2 + sqrt(x2^2 + 1))", m, n),
        ),
    )
    equator = SectionMap(
        m, (parse("pi/2", m, n), parse("0.3 + 0.8*t1", m, n))
    )
    new_system, _ = pushforward_system(cc, system, h)
    moved = transform_section(cc, equator)
    for t in (0.2, 0.5, 0.8):
        t_new = cc.forward_t(np.array([t]))
        res = sode_residual(new_system, moved, t_new)
        assert np.max(np.abs(res)) < 1e-8


def test_section_transport_commutes_with_prolongation():
    m = n = 2
    cc = change22()
    sigma = SectionMap(
        m,
        (
            parse("0.3 + 0.4*t1 + 0.2*t2 + 0.1*t1*t2", m, n),
            parse("0.5 + 0.2*t1 - 0.3*t2 + 0.15*t1^2", m, n),
        ),
    )
    sigma_new = transform_section(cc, sigma)
    for p in domain_points(m, n, 8, seed=41):
        moved = transform_jet_point(cc, [sigma.prolongation_point(p.t)])[0]
        direct = sigma_new.prolongation_point(cc.forward_t(p.t))
        assert np.max(np.abs(moved.t - direct.t)) < 1e-10
        assert np.max(np.abs(moved.x - direct.x)) < 1e-10
        assert np.max(np.abs(moved.v - direct.v)) < 1e-10


# ---------------------------------------------------------------------------
# the two-path invariance check
# ---------------------------------------------------------------------------


def test_identity_change_reports_zero_deviation():
    h, _, system = affine_setup22()
    pts = domain_points(2, 2, 4, seed=43)
    paths = two_path_invariants(system, h, identity_change(2, 2), pts, ("P",))
    assert list(paths) == ["P"]
    pushed, direct = paths["P"]
    assert pushed.shape == direct.shape == (2, 2, 4)
    assert relative_deviation(pushed, direct) <= 1e-12


def test_affine_invariants_transform_as_tensors():
    # The pushforward pipelines are built once and shared across the five
    # invariants; the deviation is the relative form with a 1e-12 floor.
    h, _, system = affine_setup22()
    cc = change22()
    pts = domain_points(2, 2, 6, seed=47)
    paths = two_path_invariants(system, h, cc, pts, ("eps", "P", "R", "B", "D"))
    for name in ("P", "R", "B", "D"):
        assert relative_deviation(*paths[name]) <= 1e-6, name
    # The first invariant of the affine pair is identically zero, which the
    # per-component relative report cannot certify beyond its noise floor;
    # the invariance statement that is meaningful here is that both paths
    # vanish absolutely.
    pushed, direct = paths["eps"]
    assert np.max(np.abs(pushed)) < 1e-12
    assert np.max(np.abs(direct)) < 1e-12


def test_cubic_first_invariant_two_path():
    m, n = 1, 2
    h = MetricField(ex.TEMPORAL, ((parse("1 + 0.2*t1^2", m, n),),))
    system = PdeSystem.from_upper(
        m,
        n,
        {
            (1, 1, 1): parse(
                "0.3*v1_1^3 + 0.4*v2_1*v1_1 + 0.2*x2 + 0.5*t1*v2_1^2", m, n
            ),
            (2, 1, 1): parse(
                "0.2*v2_1^3 - 0.3*v1_1^2 + 0.4*x1*v1_1 + 0.1*sin(t1)", m, n
            ),
        },
    )
    cc = CoordinateChange(
        m,
        n,
        t_forward=(parse("t1 + 0.1*t1^2", m, n),),
        x_forward=(parse("sinh(x1)", m, n), parse("x2 + 0.2*x2^2", m, n)),
        t_inverse=(parse("(sqrt(1 + 0.4*t1) - 1)/0.2", m, n),),
        x_inverse=(
            parse("log(x1 + sqrt(x1^2 + 1))", m, n),
            parse("(sqrt(1 + 0.8*x2) - 1)/0.4", m, n),
        ),
    )
    paths = two_path_invariants(
        system, h, cc, domain_points(m, n, 20, seed=53), ("eps",)
    )
    pushed, direct = paths["eps"]
    assert pushed.shape[-1] == direct.shape[-1] == 20
    assert relative_deviation(pushed, direct) <= 1e-6


def test_unknown_selector_is_rejected():
    h, _, system = affine_setup22()
    with pytest.raises(KeyError):
        two_path_invariants(
            system, h, identity_change(2, 2), domain_points(2, 2, 1, seed=1), ("Q",)
        )


def test_two_path_lowers_as_many_tapes_for_50_points_as_for_5():
    # a timing-free guard on batching: the coordinate change and every
    # invariant are evaluated once per point set, not once per point
    h, _, system = affine_setup22()
    counts = []
    for count in (5, 50):
        points = domain_points(2, 2, count, seed=7)
        with support.lowered_tapes() as lowered:
            two_path_invariants(system, h, change22(), points, INVARIANT_NAMES)
        counts.append(len(lowered))
    assert counts[0] == counts[1]


def test_singular_jacobian_names_the_first_singular_point():
    m, n = 1, 2
    # spatial Jacobian [[x2, x1], [0, 1]]: singular where x2 = 0
    cc = CoordinateChange(
        m,
        n,
        (parse("t1", m, n),),
        (parse("x1*x2", m, n), parse("x2", m, n)),
        (parse("t1", m, n),),
        (parse("x1/x2", m, n), parse("x2", m, n)),
    )
    xs = ([0.3, 0.5], [0.6, 0.2], [0.4, 0.0], [0.7, 0.9], [0.8, 0.0])
    points = [JetPoint([0.5], x, [[0.1], [0.2]]) for x in xs]
    want = "spatial Jacobian is singular at x=[0.4, 0.0]"
    with pytest.raises(SingularJacobianError) as err:
        transform_jet_point(cc, points)
    assert str(err.value) == want
    with pytest.raises(SingularJacobianError) as err:
        cc.spatial_jacobian(np.array(xs).T)
    assert str(err.value) == want


def _tensordot_reference(val: DTensorValue, Jt, A) -> np.ndarray:
    """The slot law point by point with ``np.tensordot``, as the transform
    was computed before it was batched."""
    out_all = []
    for k in range(val.values.shape[-1]):
        Jk, Ak = Jt[..., k], A[..., k]
        out = val.values[..., k]
        for axis, slot in enumerate(val.slots):
            if slot.kind == ex.SPATIAL:
                M = Ak if slot.upper else np.linalg.inv(Ak).T
            else:
                M = Jk if slot.upper else np.linalg.inv(Jk).T
            out = np.moveaxis(np.tensordot(M, out, axes=(1, axis)), 0, axis)
        out_all.append(out)
    return np.stack(out_all, axis=-1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_slot_law_has_the_bits_of_the_pointwise_tensordot(m, n):
    rng = np.random.default_rng(10 * m + n)
    count = 4
    Jt = rng.uniform(-2.0, 2.0, (m, m, count)) + 3.0 * np.eye(m)[..., None]
    A = rng.uniform(-2.0, 2.0, (n, n, count)) + 3.0 * np.eye(n)[..., None]
    for name in INVARIANT_NAMES:
        slots = invariant_slots(name)
        shape = tuple(n if s.kind == ex.SPATIAL else m for s in slots)
        val = DTensorValue(m, n, slots, rng.normal(size=shape + (count,)))
        want = _tensordot_reference(val, Jt, A)
        got = transform_dtensor(val, Jt, A).values
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        one = DTensorValue(m, n, slots, val.values[..., 1])
        got_one = transform_dtensor(one, Jt[..., 1], A[..., 1]).values
        assert got_one.tobytes() == np.ascontiguousarray(want[..., 1]).tobytes()


# ---------------------------------------------------------------------------
# canonical objects under their defining transformation rules
# ---------------------------------------------------------------------------


def test_canonical_tensors_obey_the_slot_law():
    h, _, system = affine_setup22()
    cc = change22()
    _, new_h = pushforward_system(cc, system, h)
    for p in domain_points(2, 2, 6, seed=59):
        c_old, j_old = canonical_tensors(h, p)
        q = transform_jet_point(cc, [p])[0]
        c_new, j_new = canonical_tensors(new_h, q)
        jac = support.jacobians(cc, p)
        c_moved, j_moved = (transform_dtensor(z, *jac) for z in (c_old, j_old))
        assert support.rel_max(c_moved.values, c_new.values) < 1e-8
        assert support.rel_max(j_moved.values, j_new.values) < 1e-8


def test_canonical_temporal_semispray_rule():
    # New-chart canonical coefficients = old ones contracted with Jacobian
    # factors, minus half the time-partial of the velocity expression.
    h, _, system = affine_setup22()
    cc = change22()
    m = n = 2
    _, new_h = pushforward_system(cc, system, h)
    old = canonical_temporal_semispray(h, n)
    new = canonical_temporal_semispray(new_h, n)
    for p in domain_points(m, n, 5, seed=61):
        A, _, _, B, dxa_dt, _ = jacobian_data(cc, p)
        ho = eval_family(old, p)
        want = (
            np.einsum("kgn,ik,ga,nb->iab", ho, A, B, B)
            - 0.5 * np.einsum("ub,iau->iab", B, dxa_dt)
        )
        got = eval_family(new, transform_jet_point(cc, [p])[0])
        assert support.rel_max(got, want) < 1e-6


def test_canonical_spatial_semispray_rule():
    h, phi, _ = affine_setup22()
    cc = change22()
    m = n = 2
    new_phi = pushforward_spatial_metric(cc, phi)
    old = canonical_spatial_semispray(phi, m)
    new = canonical_spatial_semispray(new_phi, m)
    for p in domain_points(m, n, 5, seed=67):
        A, Ainv, _, B, _, dxa_dx = jacobian_data(cc, p)
        q = transform_jet_point(cc, [p])[0]
        go = eval_family(old, p)
        want = (
            np.einsum("kgn,ik,ga,nb->iab", go, A, B, B)
            - 0.5 * np.einsum("rs,iar,sb->iab", Ainv, dxa_dx, q.v)
        )
        got = eval_family(new, q)
        assert support.rel_max(got, want) < 1e-6


def test_canonical_connection_rules():
    # Temporal part: same correction as the semispray without the half;
    # spatial part: one inverse-Jacobian factor on the lower index and the
    # position-partial of the velocity expression as correction.
    h, phi, system = affine_setup22()
    cc = change22()
    m = n = 2
    _, new_h = pushforward_system(cc, system, h)
    new_phi = pushforward_spatial_metric(cc, phi)
    old_m = canonical_temporal_connection(h, n)
    new_m = canonical_temporal_connection(new_h, n)
    old_n = canonical_spatial_connection(phi, m)
    new_n = canonical_spatial_connection(new_phi, m)
    for p in domain_points(m, n, 5, seed=71):
        A, Ainv, _, B, dxa_dt, dxa_dx = jacobian_data(cc, p)
        q = transform_jet_point(cc, [p])[0]
        mo = eval_family(old_m, p)
        want_m = (
            np.einsum("kgn,ik,ga,nb->iab", mo, A, B, B)
            - np.einsum("ub,iau->iab", B, dxa_dt)
        )
        assert support.rel_max(eval_family(new_m, q), want_m) < 1e-6
        no = eval_family(old_n, p)
        want_n = (
            np.einsum("kgl,ik,ga,lj->iaj", no, A, B, Ainv)
            - np.einsum("rj,iar->iaj", Ainv, dxa_dx)
        )
        assert support.rel_max(eval_family(new_n, q), want_n) < 1e-6
