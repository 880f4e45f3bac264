"""The first-failure rule: a batch that runs in stages raises what its first
failing point raises alone.

Each row of ``ROWS`` holds a batch callable, its points and the matching
one-point callable.  Its points are ordered so that an earlier point fails
at a later stage than a later point does, which a batch that runs each
stage over all points first gets wrong; the last point passes.  One shared
assertion checks the rule and that the batch succeeds over the points that
succeed alone.  A new batch site adds a row here, not a new test.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from jetkcc import exprlang as ex
from jetkcc.characterize import AntisymmetricCouplingField, coupling_constraint_residual
from jetkcc.dtransform import CoordinateChange, transform_jet_point, two_path_invariants
from jetkcc.exprlang import parse
from jetkcc.jetgeom import JetPoint, MetricField, PdeSystem
from jetkcc.kcccore import (
    INVARIANT_NAMES,
    InvariantPipeline,
    SectionMap,
    VariationField,
    jacobi_identity_residual,
)


class Row(NamedTuple):
    batch: Callable  # a list of points -> the batch over them
    points: list
    alone: Callable  # one point -> the one-point path there


def _outcome(fn, arg):
    """The ValueError ``fn(arg)`` raises, or None."""
    try:
        fn(arg)
    except ValueError as err:
        return err
    return None


def assert_first_failure(row: Row) -> None:
    """The batch raises the type and message of the first point that fails
    alone, and succeeds over the points that succeed alone."""
    alone = [_outcome(row.alone, p) for p in row.points]
    first = next(err for err in alone if err is not None)
    got = _outcome(row.batch, row.points)
    assert (type(got), str(got)) == (type(first), str(first))
    passing = [p for p, err in zip(row.points, alone) if err is None]
    assert passing and _outcome(row.batch, passing) is None


def _metric(entry: str, m: int = 1) -> MetricField:
    rows = [[ex.ZERO] * m for _ in range(m)]
    for a in range(m):
        rows[a][a] = ex.ONE
    rows[0][0] = parse(entry, m, m)
    return MetricField.temporal(rows)


def _system(entry: str) -> PdeSystem:
    return PdeSystem.from_upper(1, 1, {(1, 1, 1): parse(entry, 1, 1)})


def pipeline_row() -> Row:
    # point 0 leaves log's domain in eps, point 1 makes h degenerate
    pipe = InvariantPipeline(_system("log(x1)*v1_1"), _metric("t1"))
    points = [JetPoint([t], [x], [[0.5]]) for t, x in ((1, -1), (0, 1), (1, 1))]
    return Row(
        lambda pts: pipe.evaluate_batch("eps", pts),
        points,
        lambda p: pipe.evaluate("eps", p),
    )


def domain_row() -> Row:
    # pipeline_row's system and points with h = 1, which holds everywhere:
    # only eps's one stage fails, at point 0; a batch used to return nan there
    pipe = InvariantPipeline(_system("log(x1)*v1_1"), _metric("1"))
    points = [JetPoint([t], [x], [[0.5]]) for t, x in ((1, -1), (0, 1), (1, 1))]
    return Row(
        lambda pts: pipe.evaluate_batch("eps", pts),
        points,
        lambda p: pipe.evaluate("eps", p),
    )


def metric_row() -> Row:
    # h = log(t1): degenerate at t = 1, out of its domain at t = -1
    h = _metric("log(t1)")
    return Row(
        lambda pts: h.evaluate(np.array(pts).T), [[1.0], [-1.0], [2.0]], h.evaluate
    )


def two_path_row() -> Row:
    # the spatial Jacobian 3 x^2 is singular at point 0, the temporal one
    # 3 t^2 at point 1
    t, x = ex.t_var(1), ex.x_var(1)
    t3, x3 = ex.mul(ex.mul(t, t), t), ex.mul(ex.mul(x, x), x)
    cube = CoordinateChange(1, 1, (t3,), (x3,), (t,), (x,))
    system, h = _system("x1"), _metric("1")

    def batch(pts):
        return two_path_invariants(system, h, cube, pts, INVARIANT_NAMES)

    points = [JetPoint([a], [i], [[0.5]]) for a, i in ((1, 0), (0, 1), (1, 1))]
    return Row(batch, points, lambda p: batch([p]))


def jacobian_row() -> Row:
    # d(x log x)/dx = log(x) + 1: singular at x = 1/e, out of log's domain at -1
    t, x = ex.t_var(1), ex.x_var(1)
    change = CoordinateChange(1, 1, (t,), (parse("x1*log(x1)", 1, 1),), (t,), (x,))
    return Row(
        lambda pts: change.spatial_jacobian(np.array(pts).T),
        [[np.exp(-1.0)], [-1.0], [1.0]],
        change.spatial_jacobian,
    )


def coupling_row() -> Row:
    # point 0 leaves the coupling's domain, point 1 h's
    h = _metric("sqrt(t1)", m=2)
    coupling = AntisymmetricCouplingField.from_upper(
        2, 2, {(1, 1, 2, 1, 2): parse("log(x2)", 2, 2)}
    )

    def batch(pts):
        t, x = (np.array([p[k] for p in pts]).T for k in (0, 1))
        return coupling_constraint_residual(coupling, h, t, x)

    points = [((1.0, 1.0), (1.0, -1.0)), ((-1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0),) * 2]
    def alone(p):
        return coupling_constraint_residual(coupling, h, *map(np.array, p))

    return Row(batch, points, alone)


def jacobi_row() -> Row:
    # x = sqrt(t) solves x'' + 1/(4 x^3) = 0 for t > 0; at t = -0.25 it
    # leaves its domain in the section residual, at t = 0 h = t1 is degenerate
    system, h = _system("1/(4*x1^3)"), _metric("t1")
    sigma = SectionMap(1, (parse("sqrt(t1)", 1, 1),))
    xi = VariationField(1, (ex.ZERO,))

    def residual(t):
        return jacobi_identity_residual(system, h, sigma, xi, np.array(t))

    return Row(lambda pts: residual(np.array(pts).T), [[-0.25], [0.0], [0.5]], residual)


def transform_point_row() -> Row:
    # point 0 leaves log's domain in the forward map, point 1 makes the
    # temporal Jacobian 3 t^2 singular
    t, x = ex.t_var(1), ex.x_var(1)
    change = CoordinateChange(
        1, 1, (parse("t1^3", 1, 1),), (parse("log(x1 + 2)", 1, 1),), (t,), (x,)
    )
    points = [JetPoint([a], [i], [[0.5]]) for a, i in ((1, -3), (0, 1), (1, 1))]
    return Row(
        lambda pts: transform_jet_point(change, pts),
        points,
        lambda p: transform_jet_point(change, [p]),
    )


def round_trip_row() -> Row:
    # point 0 leaves the spatial forward map's domain, point 1 the temporal one's
    change = CoordinateChange(
        1,
        1,
        (parse("log(t1)", 1, 1),),
        (parse("log(x1)", 1, 1),),
        (parse("exp(t1)", 1, 1),),
        (parse("exp(x1)", 1, 1),),
    )
    points = [JetPoint([a], [i], [[0.5]]) for a, i in ((1, -1), (-1, 1), (1, 1))]
    return Row(change.round_trip_defect, points, lambda p: change.round_trip_defect([p]))


ROWS = {
    "pipeline": pipeline_row,
    "pipeline-domain": domain_row,
    "metric": metric_row,
    "two-path": two_path_row,
    "jacobian": jacobian_row,
    "coupling": coupling_row,
    "jacobi": jacobi_row,
    "transform-point": transform_point_row,
    "round-trip": round_trip_row,
}


@pytest.mark.parametrize("site", list(ROWS))
def test_batch_raises_what_its_first_failing_point_raises_alone(site):
    assert_first_failure(ROWS[site]())
