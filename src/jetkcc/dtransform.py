"""Coordinate changes on the jet bundle and the d-tensor transformation law.

A fibered change keeps times and positions separate: new times depend only
on old times, new positions only on old positions.  Velocities then
transform linearly through the two Jacobians, tensor component families
pick up one Jacobian factor per index slot, and a second-order system can
be pushed forward symbolically so that solutions map to solutions.
``two_path_invariants`` evaluates both sides of the two-path comparison
(transform the evaluated components vs. re-derive them in the new chart)
that everything upstream exists to support.

Numbers follow one shape convention: coordinates are (d,) at one point or
(d, K) for K points, and every value computed from them (maps, Jacobians,
tensor components) gets the same trailing axis of K.  One point and a batch
run the same code, and the number of table evaluations and matrix products
does not grow with K.
"""

from __future__ import annotations

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
    substitute,
)
from .jetgeom import (
    C_SLOTS,
    JetPointSet,
    MetricField,
    PdeSystem,
    Slot,
    point_set,
    require_metric,
)
from .kcccore import InvariantPipeline, SectionMap, invariant_slots

JACOBIAN_TOL = 1e-10


class SingularJacobianError(ValueError):
    """A coordinate change is not invertible at the point in question."""


def _jacobian_table(maps, var):
    """d map_i / d var(k), for the d maps of one factor and its d variables."""
    return tuple(
        tuple(differentiate(f, var(k + 1)) for k in range(len(maps))) for f in maps
    )


class CoordinateChange(ex.Frozen):
    """Fibered coordinate change with user-supplied exact inverses.

    The forward maps are written in the old variables, the inverse maps in
    the new ones (both charts reuse the same variable names t1.., x1..).
    Inverses are required rather than computed: numeric root-finding would
    poison every derivative taken downstream.  Immutable; the Jacobian
    tables are built on first use and kept in the instance dict.
    """

    def __init__(self, m: int, n: int, t_forward, x_forward, t_inverse, x_inverse):
        maps = {
            "t_forward": t_forward,
            "t_inverse": t_inverse,
            "x_forward": x_forward,
            "x_inverse": x_inverse,
        }
        for name, family in maps.items():
            kind, d = (TEMPORAL, m) if name[0] == "t" else (SPATIAL, n)
            maps[name] = ex.freeze(family)
            what = f"{kind} {name[2:]} map"
            ex.check_family(maps[name], m, n, (d,), what, kinds=(kind,))
        self._set(m=m, n=n, **maps)

    # Jacobian expression tables (built once per change)

    @cached_property
    def jac_t_forward(self):
        return _jacobian_table(self.t_forward, ex.t_var)

    @cached_property
    def jac_x_forward(self):
        return _jacobian_table(self.x_forward, ex.x_var)

    @cached_property
    def jac_t_inverse(self):
        return _jacobian_table(self.t_inverse, ex.t_var)

    @cached_property
    def jac_x_inverse(self):
        return _jacobian_table(self.x_inverse, ex.x_var)

    # numeric helpers: coordinates of shape (d,) for one point or (d, K) for
    # K points; values take the table's shape plus the same trailing axis

    def _values(self, table, block: str, z) -> np.ndarray:
        """``table`` evaluated as one family at coordinates ``z`` of the
        ``block`` ("t" or "x"); an out-of-domain value raises EvaluationError
        at the first such point (``ex.evaluate_nested``)."""
        return ex.evaluate_nested(table, Bindings.jet(self.m, self.n, **{block: z}))

    def _jacobian(self, table, block: str, z) -> np.ndarray:
        """The Jacobian table's values; raises SingularJacobianError where its
        determinant vanishes, and a batch what its first failing point raises
        alone (``ex.by_point``)."""

        def checked(z):
            J = self._values(table, block, z)
            with np.errstate(invalid="ignore"):  # a nan entry gives a nan det
                det = np.abs(np.linalg.det(np.moveaxis(J, (0, 1), (-2, -1))))
            bad = np.flatnonzero(det < JACOBIAN_TOL)
            if bad.size:
                kind = "temporal" if block == "t" else "spatial"
                at = z.reshape(len(z), -1)[:, bad[0]].tolist()
                raise SingularJacobianError(
                    f"{kind} Jacobian is singular at {block}={at}"
                )
            return J

        z = np.asarray(z, dtype=float)
        return ex.by_point(checked, z, z.T if z.ndim > 1 else ())

    def temporal_jacobian(self, t) -> np.ndarray:
        return self._jacobian(self.jac_t_forward, "t", t)

    def spatial_jacobian(self, x) -> np.ndarray:
        return self._jacobian(self.jac_x_forward, "x", x)

    def forward_t(self, t) -> np.ndarray:
        return self._values(self.t_forward, "t", t)

    def forward_x(self, x) -> np.ndarray:
        return self._values(self.x_forward, "x", x)

    def round_trip_defect(self, points) -> float:
        """max |inverse(forward(z)) - z| over the t and x parts of points
        (nan if a point has a nan coordinate, since only a non-finite input
        propagates); a batch raises what its first failing point raises
        alone."""

        def defect(p: JetPointSet) -> float:
            t_back = self._values(self.t_inverse, "t", self.forward_t(p.t))
            x_back = self._values(self.x_inverse, "x", self.forward_x(p.x))
            return float(np.max(np.abs(np.concatenate([t_back - p.t, x_back - p.x]))))

        p = point_set(points)
        return ex.by_point(defect, p, (point_set([q]) for q in p))


def identity_change(m: int, n: int) -> CoordinateChange:
    ts = tuple(ex.t_var(a + 1) for a in range(m))
    xs = tuple(ex.x_var(i + 1) for i in range(n))
    return CoordinateChange(m, n, ts, xs, ts, xs)


# ---------------------------------------------------------------------------
# transformations over a point set
# ---------------------------------------------------------------------------


def _matrices(J) -> np.ndarray:
    """A (d, d) matrix, or a (d, d, K) stack as C-contiguous (K, d, d): a
    stacked matmul then runs the same BLAS call on each matrix as a
    one-point product, so both give the same bits."""
    return np.ascontiguousarray(np.moveaxis(J, (0, 1), (-2, -1)))


def transform_jet_point(cc: CoordinateChange, points, jacobians=None) -> JetPointSet:
    """New-chart coordinates of jet points; velocities move as the canonical
    tensor C = v^i_a, by ``transform_dtensor`` over its slots ``C_SLOTS``.
    The maps and Jacobians are evaluated once over all the points;
    ``jacobians``, the pair (temporal, spatial) already evaluated at these
    points, skips the latter.  A batch raises what its first failing point
    raises alone."""
    p = point_set(points)
    if (p.m, p.n) != (cc.m, cc.n):
        raise ValueError("point dimensions do not match the change")

    def move(p: JetPointSet, jacobians=None) -> JetPointSet:
        if jacobians is None:
            jacobians = cc.temporal_jacobian(p.t), cc.spatial_jacobian(p.x)
        v = transform_dtensor(p.v, C_SLOTS, *jacobians)
        return JetPointSet(cc.forward_t(p.t), cc.forward_x(p.x), v)

    # the Jacobians given are the whole batch's: a point alone evaluates its own
    points = (point_set([q]) for q in p)
    return ex.by_point(lambda q: move(q, jacobians if q is p else None), p, points)


def transform_dtensor(values, slots: tuple[Slot, ...], Jt, A) -> np.ndarray:
    """Apply one Jacobian factor per index slot of a component array.

    ``values`` has one axis per slot (extent m if temporal, n if spatial) and
    may have one trailing axis over K points; any other shape is a
    ValueError.  ``Jt`` and ``A`` are the temporal and spatial Jacobians,
    (m, m) and (n, n) at one point or (m, m, K) and (n, n, K) over K points;
    each slot is then one matrix product over all of them.  Upper spatial
    slots contract with the spatial Jacobian, lower spatial ones with its
    transposed inverse; temporal slots use the temporal Jacobian the same way.
    """
    values = np.asarray(values, dtype=float)
    expect = tuple(np.shape(Jt if s.kind == TEMPORAL else A)[0] for s in slots)
    if values.shape[: len(expect)] != expect or values.ndim > len(expect) + 1:
        raise ValueError(f"component shape {values.shape} != slot extents {expect}")
    Jt, A = _matrices(Jt), _matrices(A)
    factors = {
        (SPATIAL, True): A,
        (SPATIAL, False): np.swapaxes(np.linalg.inv(A), -1, -2),
        (TEMPORAL, True): Jt,
        (TEMPORAL, False): np.swapaxes(np.linalg.inv(Jt), -1, -2),
    }
    r = len(slots)
    nb = values.ndim - r  # 1 with a point axis, which goes first
    out = np.moveaxis(values, range(r, r + nb), range(nb))
    for axis, slot in enumerate(slots, start=nb):
        w = np.moveaxis(out, axis, nb)
        prod = factors[slot.kind, slot.upper] @ w.reshape(w.shape[: nb + 1] + (-1,))
        out = np.moveaxis(prod.reshape(w.shape), nb, axis)
    return np.moveaxis(out, range(nb), range(r, r + nb))


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
    require_metric(h, TEMPORAL, cc.m)
    m, n = cc.m, cc.n

    base_subst = {ex.t_var(b + 1).vid: f for b, f in enumerate(cc.t_inverse)}
    base_subst.update((ex.x_var(j + 1).vid, f) for j, f in enumerate(cc.x_inverse))

    def compose(e: Expression) -> Expression:
        return substitute(e, base_subst)

    # Jacobian blocks as functions of the new coordinates
    jac_x = cc.jac_x_forward
    A = ex.nested((n, n), lambda k, j: compose(jac_x[k][j]))
    dA = ex.nested(
        (n, n, n), lambda k, j, l: compose(differentiate(jac_x[k][j], ex.x_var(l + 1)))
    )
    Jt_fwd = ex.nested((m, m), lambda u, b: compose(cc.jac_t_forward[u][b]))
    B = cc.jac_t_inverse  # already in new variables
    d2t = ex.nested((m, m, m), lambda b, g, u: differentiate(B[b][g], ex.t_var(u + 1)))
    dx_inv = cc.jac_x_inverse

    # old velocities in terms of the new jet variables
    v_old = ex.nested(
        (n, m),
        lambda j, b: expr_sum(
            mul(dx_inv[j][q], mul(Jt_fwd[u][b], ex.v_var(q + 1, u + 1)))
            for q in range(n)
            for u in range(m)
        ),
    )
    w = ex.nested(
        (n, m),
        lambda j, g: expr_sum(mul(B[b][g], v_old[j][b]) for b in range(m)),
    )

    full_subst = dict(base_subst)
    for j in range(n):
        for b in range(m):
            full_subst[ex.VariableId(ex.VELOCITY, i=j + 1, alpha=b + 1)] = v_old[j][b]
    # each old component substituted once, however many new ones read it
    old = ex.nested(
        (n, m, m), lambda j, b, u: substitute(system.comps[j][b][u], full_subst)
    )

    def component_new(k, g, nu):
        terms = [
            mul(A[k][j], mul(B[b][g], mul(B[u][nu], old[j][b][u])))
            for j in range(n)
            for b in range(m)
            for u in range(m)
        ]
        for j in range(n):
            for l in range(n):
                terms.append(neg(mul(dA[k][j][l], mul(w[l][nu], w[j][g]))))
        for j in range(n):
            for b in range(m):
                terms.append(neg(mul(A[k][j], mul(d2t[b][g][nu], v_old[j][b]))))
        return expr_sum(terms)

    comps = ex.nested((n, m, m), component_new, symmetric=system.symmetric)
    new_system = PdeSystem(m, n, comps, symmetric=system.symmetric)

    h_old = ex.nested((m, m), lambda a, b: compose(h.rows[a][b]))

    def h_entry(a, b):
        return expr_sum(
            mul(h_old[u][v], mul(B[u][a], B[v][b]))
            for u in range(m)
            for v in range(m)
        )

    return new_system, MetricField(TEMPORAL, ex.nested((m, m), h_entry, symmetric=True))


def transform_section(cc: CoordinateChange, sigma: SectionMap) -> SectionMap:
    """The same curve seen in the new chart: xnew(tnew) composed from the
    forward spatial maps, the section, and the inverse temporal maps."""
    if sigma.m != cc.m or sigma.n != cc.n:
        raise ValueError("section dimensions do not match the change")
    t_subst = {ex.t_var(b + 1).vid: f for b, f in enumerate(cc.t_inverse)}
    old_comps = [substitute(c, t_subst) for c in sigma.comps]
    x_subst = {ex.x_var(j + 1).vid: c for j, c in enumerate(old_comps)}
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
    the transformed point.  Both pipelines are built once, each evaluates
    all its selected families as one tape over its point set, and the maps
    and Jacobians are evaluated once over the whole point set.  Returns
    {selector: (pushed, direct)}, two component grids with a trailing axis
    over the points; reducing them to a deviation is left to the caller.
    On a failure the comparison raises what its first failing point raises
    alone (``ex.by_point``); the pushforward and pipelines are not rebuilt.
    """
    points = point_set(points)
    new_system, new_h = pushforward_system(cc, system, h)
    pipe, new_pipe = InvariantPipeline(system, h), InvariantPipeline(new_system, new_h)
    for name in selectors:  # all built before the first evaluate_batch
        pipe.expressions(name)
        new_pipe.expressions(name)

    def compare(batch: JetPointSet) -> dict:
        Jt, A = cc.temporal_jacobian(batch.t), cc.spatial_jacobian(batch.x)
        moved = transform_jet_point(cc, batch, (Jt, A))
        out = {}
        for name in selectors:
            old = pipe.evaluate_batch(name, batch)
            direct = new_pipe.evaluate_batch(name, moved)
            out[name] = (transform_dtensor(old, invariant_slots(name), Jt, A), direct)
        return out

    return ex.by_point(compare, points, (point_set([q]) for q in points))
