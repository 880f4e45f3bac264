"""Coordinate changes on the jet bundle and the d-tensor transformation law.

A fibered change keeps times and positions separate: new times depend only
on old times, new positions only on old positions.  Velocities then
transform linearly through the two Jacobians, tensor component families
pick up one Jacobian factor per index slot, and a second-order system can
be pushed forward symbolically so that solutions map to solutions.
``two_path_invariants`` evaluates both sides of the two-path comparison
(transform the evaluated components vs. re-derive them in the new chart)
that everything upstream exists to support.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exprlang as ex
from .exprlang import (
    SPATIAL,
    TEMPORAL,
    Bindings,
    Expression,
    differentiate,
    expr_sum,
    mul,
    neg,
    simplify,
    substitute,
)
from .jetgeom import DTensorValue, JetPoint, MAX_DIM, MetricField, PdeSystem
from .kcccore import InvariantPipeline, SectionMap, invariant_slots

JACOBIAN_TOL = 1e-10


class SingularJacobianError(ValueError):
    """A coordinate change is not invertible at the point in question."""


def _check_kind(exprs, kind, limit, what):
    for e in exprs:
        for vid in ex.free_variables(e):
            ok = vid.kind == kind and (
                vid.alpha <= limit if kind == TEMPORAL else vid.i <= limit
            )
            if not ok:
                raise ValueError(
                    f"{what} may only use "
                    f"{'t1..t%d' % limit if kind == TEMPORAL else 'x1..x%d' % limit};"
                    f" found '{vid.name}'"
                )


@dataclass(eq=False)
class CoordinateChange:
    """Fibered coordinate change with user-supplied exact inverses.

    The forward maps are written in the old variables, the inverse maps in
    the new ones (both charts reuse the same variable names t1.., x1..).
    Inverses are required rather than computed: numeric root-finding would
    poison every derivative taken downstream.
    """

    m: int
    n: int
    t_forward: tuple
    x_forward: tuple
    t_inverse: tuple
    x_inverse: tuple

    def __post_init__(self):
        if not 1 <= self.m <= MAX_DIM or not 1 <= self.n <= MAX_DIM:
            raise ValueError("dimensions must satisfy 1 <= m, n <= 4")
        self.t_forward = tuple(ex.as_expr(e) for e in self.t_forward)
        self.x_forward = tuple(ex.as_expr(e) for e in self.x_forward)
        self.t_inverse = tuple(ex.as_expr(e) for e in self.t_inverse)
        self.x_inverse = tuple(ex.as_expr(e) for e in self.x_inverse)
        if len(self.t_forward) != self.m or len(self.t_inverse) != self.m:
            raise ValueError(f"need {self.m} temporal maps each way")
        if len(self.x_forward) != self.n or len(self.x_inverse) != self.n:
            raise ValueError(f"need {self.n} spatial maps each way")
        _check_kind(self.t_forward, TEMPORAL, self.m, "temporal forward maps")
        _check_kind(self.t_inverse, TEMPORAL, self.m, "temporal inverse maps")
        _check_kind(self.x_forward, SPATIAL, self.n, "spatial forward maps")
        _check_kind(self.x_inverse, SPATIAL, self.n, "spatial inverse maps")

    # Jacobian expression tables (built once per change)

    @cached_property
    def jac_t_forward(self):
        return tuple(
            tuple(differentiate(f, ex.t_var(b + 1)) for b in range(self.m))
            for f in self.t_forward
        )

    @cached_property
    def jac_x_forward(self):
        return tuple(
            tuple(differentiate(f, ex.x_var(j + 1)) for j in range(self.n))
            for f in self.x_forward
        )

    @cached_property
    def jac_t_inverse(self):
        return tuple(
            tuple(differentiate(f, ex.t_var(b + 1)) for b in range(self.m))
            for f in self.t_inverse
        )

    @cached_property
    def jac_x_inverse(self):
        return tuple(
            tuple(differentiate(f, ex.x_var(j + 1)) for j in range(self.n))
            for f in self.x_inverse
        )

    # numeric helpers

    def temporal_jacobian(self, t) -> np.ndarray:
        b = Bindings.jet(self.m, self.n, t=t)
        J = np.array(
            [[ex.evaluate(e, b) for e in row] for row in self.jac_t_forward]
        )
        if abs(np.linalg.det(J)) < JACOBIAN_TOL:
            raise SingularJacobianError(
                f"temporal Jacobian is singular at t={np.asarray(t, dtype=float).tolist()}"
            )
        return J

    def spatial_jacobian(self, x) -> np.ndarray:
        b = Bindings.jet(self.m, self.n, x=x)
        A = np.array(
            [[ex.evaluate(e, b) for e in row] for row in self.jac_x_forward]
        )
        if abs(np.linalg.det(A)) < JACOBIAN_TOL:
            raise SingularJacobianError(
                f"spatial Jacobian is singular at x={np.asarray(x, dtype=float).tolist()}"
            )
        return A

    def forward_t(self, t) -> np.ndarray:
        b = Bindings.jet(self.m, self.n, t=t)
        return np.array([ex.evaluate(e, b) for e in self.t_forward])

    def forward_x(self, x) -> np.ndarray:
        b = Bindings.jet(self.m, self.n, x=x)
        return np.array([ex.evaluate(e, b) for e in self.x_forward])

    def round_trip_defect(self, points) -> float:
        """max |inverse(forward(z)) - z| over the t and x parts of points
        (nan if any of them is nan)."""
        defects = []
        for p in points:
            tb = Bindings.jet(self.m, self.n, t=self.forward_t(p.t))
            xb = Bindings.jet(self.m, self.n, x=self.forward_x(p.x))
            t_back = np.array([ex.evaluate(e, tb) for e in self.t_inverse])
            x_back = np.array([ex.evaluate(e, xb) for e in self.x_inverse])
            defects.append(np.concatenate([t_back - p.t, x_back - p.x]))
        return float(np.max(np.abs(defects), initial=0.0))


def identity_change(m: int, n: int) -> CoordinateChange:
    ts = tuple(ex.t_var(a + 1) for a in range(m))
    xs = tuple(ex.x_var(i + 1) for i in range(n))
    return CoordinateChange(m, n, ts, xs, ts, xs)


# ---------------------------------------------------------------------------
# pointwise transformations
# ---------------------------------------------------------------------------


def transform_jet_point(cc: CoordinateChange, p: JetPoint) -> JetPoint:
    """New-chart coordinates of a jet point; velocities contract with the
    spatial Jacobian on the left and the inverse temporal Jacobian on the
    right."""
    if p.m != cc.m or p.n != cc.n:
        raise ValueError("point dimensions do not match the change")
    Jt = cc.temporal_jacobian(p.t)
    A = cc.spatial_jacobian(p.x)
    v_new = A @ p.v @ np.linalg.inv(Jt)
    return JetPoint(cc.forward_t(p.t), cc.forward_x(p.x), v_new)


def transform_dtensor(
    val: DTensorValue, cc: CoordinateChange, p: JetPoint
) -> DTensorValue:
    """Apply one Jacobian factor per index slot of a component array.

    Upper spatial slots contract with the spatial Jacobian, lower spatial
    ones with its transposed inverse; temporal slots use the temporal
    Jacobian the same way.  Jet-paired slots need no special treatment —
    their combined factor is exactly the product of the two.
    """
    if val.m != cc.m or val.n != cc.n:
        raise ValueError("tensor dimensions do not match the change")
    Jt = cc.temporal_jacobian(p.t)
    A = cc.spatial_jacobian(p.x)
    Ainv = np.linalg.inv(A)
    Tinv = np.linalg.inv(Jt)
    out = val.values
    for axis, slot in enumerate(val.slots):
        if slot.kind == SPATIAL:
            M = A if slot.upper else Ainv.T
        else:
            M = Jt if slot.upper else Tinv.T
        out = np.moveaxis(np.tensordot(M, out, axes=(1, axis)), 0, axis)
    return DTensorValue(val.m, val.n, val.slots, out)


# ---------------------------------------------------------------------------
# symbolic pushforward of a system and its temporal metric
# ---------------------------------------------------------------------------


def pushforward_system(
    cc: CoordinateChange, system: PdeSystem, h: MetricField
) -> tuple[PdeSystem, MetricField]:
    """Rewrite (system, h) in the new chart so solutions map to solutions.

    Differentiating the velocity rule along a solution gives, with
    A = dxnew/dx, B = dt_old/dt_new and w^j_g = sum_b B^b_g v_old^j_b:

      F_new^k_gn = A^k_j B^b_g B^u_n F^j_bu
                   - (dA^k_j/dx^l) w^l_n w^j_g
                   - A^k_j (d2 t_old^b / dt_new^g dt_new^n) v_old^j_b

    with every old-chart quantity composed with the inverse maps.  The
    F-term carries coefficient 1: that is what the chain rule yields, and
    the solutions-map-to-solutions check pins it.
    """
    if system.m != cc.m or system.n != cc.n:
        raise ValueError("system dimensions do not match the change")
    if h.kind != TEMPORAL or h.dim != cc.m:
        raise ValueError("expected the system's temporal metric")
    m, n = cc.m, cc.n

    base_subst = {}
    for b in range(m):
        base_subst[ex.VariableId(TEMPORAL, alpha=b + 1)] = cc.t_inverse[b]
    for j in range(n):
        base_subst[ex.VariableId(SPATIAL, i=j + 1)] = cc.x_inverse[j]

    def compose(e: Expression) -> Expression:
        return substitute(e, base_subst)

    # Jacobian blocks as functions of the new coordinates
    A = [
        [compose(cc.jac_x_forward[k][j]) for j in range(n)] for k in range(n)
    ]
    dA = [
        [
            [
                compose(
                    differentiate(cc.jac_x_forward[k][j], ex.x_var(l + 1))
                )
                for l in range(n)
            ]
            for j in range(n)
        ]
        for k in range(n)
    ]
    Jt_fwd = [
        [compose(cc.jac_t_forward[u][b]) for b in range(m)] for u in range(m)
    ]
    B = cc.jac_t_inverse  # already in new variables
    d2t = [
        [
            [differentiate(B[b][g], ex.t_var(u + 1)) for u in range(m)]
            for g in range(m)
        ]
        for b in range(m)
    ]
    dx_inv = cc.jac_x_inverse

    # old velocities in terms of the new jet variables
    v_old = [
        [
            simplify(
                expr_sum(
                    mul(
                        dx_inv[j][q],
                        mul(Jt_fwd[u][b], ex.v_var(q + 1, u + 1)),
                    )
                    for q in range(n)
                    for u in range(m)
                )
            )
            for b in range(m)
        ]
        for j in range(n)
    ]
    w = [
        [
            simplify(expr_sum(mul(B[b][g], v_old[j][b]) for b in range(m)))
            for g in range(m)
        ]
        for j in range(n)
    ]

    full_subst = dict(base_subst)
    for j in range(n):
        for b in range(m):
            full_subst[ex.VariableId(ex.VELOCITY, i=j + 1, alpha=b + 1)] = (
                v_old[j][b]
            )

    def component_new(k, g, nu):
        terms = []
        for j in range(n):
            for b in range(m):
                for u in range(m):
                    old = substitute(
                        system.component(j + 1, b + 1, u + 1), full_subst
                    )
                    terms.append(
                        mul(A[k][j], mul(B[b][g], mul(B[u][nu], old)))
                    )
        for j in range(n):
            for l in range(n):
                terms.append(
                    neg(mul(dA[k][j][l], mul(w[l][nu], w[j][g])))
                )
        for j in range(n):
            for b in range(m):
                terms.append(
                    neg(mul(A[k][j], mul(d2t[b][g][nu], v_old[j][b])))
                )
        return simplify(expr_sum(terms))

    if system.symmetric:
        upper = {}
        for k in range(n):
            for g in range(m):
                for nu in range(g, m):
                    upper[(k + 1, g + 1, nu + 1)] = component_new(k, g, nu)
        new_system = PdeSystem.from_upper(m, n, upper)
    else:
        comps = {}
        for k in range(n):
            for g in range(m):
                for nu in range(m):
                    comps[(k + 1, g + 1, nu + 1)] = component_new(k, g, nu)
        new_system = PdeSystem(m, n, comps, symmetric=False)

    h_old = [[compose(h.rows[a][b]) for b in range(m)] for a in range(m)]
    rows = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            entry = simplify(
                expr_sum(
                    mul(h_old[u][v], mul(B[u][a], B[v][b]))
                    for u in range(m)
                    for v in range(m)
                )
            )
            rows[a][b] = entry
            rows[b][a] = entry
    new_h = MetricField(TEMPORAL, tuple(tuple(r) for r in rows))
    return new_system, new_h


def transform_section(cc: CoordinateChange, sigma: SectionMap) -> SectionMap:
    """The same curve seen in the new chart: xnew(tnew) composed from the
    forward spatial maps, the section, and the inverse temporal maps."""
    if sigma.m != cc.m or sigma.n != cc.n:
        raise ValueError("section dimensions do not match the change")
    t_subst = {
        ex.VariableId(TEMPORAL, alpha=b + 1): cc.t_inverse[b]
        for b in range(cc.m)
    }
    old_comps = [substitute(c, t_subst) for c in sigma.comps]
    x_subst = {
        ex.VariableId(SPATIAL, i=j + 1): old_comps[j] for j in range(cc.n)
    }
    return SectionMap(
        cc.m, tuple(substitute(f, x_subst) for f in cc.x_forward)
    )


# ---------------------------------------------------------------------------
# the two-path comparison
# ---------------------------------------------------------------------------

def two_path_invariants(
    system: PdeSystem,
    h: MetricField,
    cc: CoordinateChange,
    points,
    selectors,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Both sides of the two-path comparison, for every selector.

    One side evaluates each invariant from (system, h) and transforms it
    slot by slot; the other evaluates it from the pushed-forward pair at
    the transformed point.  Both pipelines are built once and evaluated in
    batch.  Returns {selector: (pushed, direct)}, two component grids with
    a trailing axis over the points; reducing them to a deviation is left
    to the caller.
    """
    points = list(points)
    new_system, new_h = pushforward_system(cc, system, h)
    pipe = InvariantPipeline(system, h)
    new_pipe = InvariantPipeline(new_system, new_h)
    moved = [transform_jet_point(cc, p) for p in points]
    out = {}
    for name in selectors:
        slots = invariant_slots(name)
        old_grid = pipe.evaluate_batch(name, points)
        direct = new_pipe.evaluate_batch(name, moved)
        pushed = np.stack(
            [
                transform_dtensor(
                    DTensorValue(cc.m, cc.n, slots, old_grid[..., k]), cc, p
                ).values
                for k, p in enumerate(points)
            ],
            axis=-1,
        )
        out[name] = (pushed, direct)
    return out
