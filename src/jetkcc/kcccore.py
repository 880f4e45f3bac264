"""Semisprays, connections, deviation invariants, and equation residuals.

Everything in this module is derived from a second-order system
x''^i_ab + F^i_ab(t, x, v) = 0 together with a temporal metric h.  The
central object is :class:`InvariantPipeline`, which builds the connection
and the five deviation invariants of the pair symbolically exactly once
and caches them.  A quantity along a section (a covariant derivative, the
linearized system, a residual) is a family of jet expressions, built by the
pipeline or by ``variational_family``; ``on_section`` restricts a family to
the section's prolongation once and evaluates it at one t or at a batch of
t.  After the build phase every cached expression is immutable, so point
evaluation is pure and safe to run from multiple threads (a pipeline's
memo of batch grids is keyed on one point set, so a race between threads
can only repeat work).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import exprlang as ex
from .exprlang import (
    SPATIAL,
    TEMPORAL,
    VELOCITY,
    Bindings,
    Expression,
    add,
    differentiate,
    expr_sum,
    mul,
    neg,
    sub,
    substitute,
)
from .jetgeom import (
    C_SLOTS,
    DTensorValue,
    JetPoint,
    JetPointSet,
    MetricField,
    PdeSystem,
    Slot,
    canonical_temporal_connection,
    christoffel_sym,
    point_set,
    require_metric,
)

# a section must satisfy the second-order system this tightly before the
# deviation-form rewriting (which substitutes the system) is applied to it
SOLUTION_TOL = 1e-8


class SectionNotSolutionError(ValueError):
    """Raised when an operation that substitutes the second-order system
    along a section is handed a section that does not solve it."""

    def __init__(self, max_residual: float, tol: float, t):
        self.max_residual = max_residual
        self.tol = tol
        self.t = tuple(float(c) for c in t)
        super().__init__(
            f"section is not a solution at t={self.t}: max |x'' + F| = "
            f"{max_residual:.3e} exceeds {tol:.1e}; the identity being "
            "evaluated substitutes the system and is meaningless off it"
        )


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class Semispray(ex.Family):
    """Coefficient family H^i_ab or G^i_ab(t, x, v) of a temporal or spatial
    semispray, symmetric in (a, b)."""

    __slots__ = ()
    what = "semispray"
    axes = "stt"
    symmetric = True


class _TemporalPart(ex.Family):
    __slots__ = ()
    what = "connection temporal part"
    axes = "stt"
    symmetric = True


class _SpatialPart(ex.Family):
    __slots__ = ()
    what = "connection spatial part"
    axes = "sts"


class NonlinearConnection(ex.Frozen):
    """Pair of coefficient families: temporal part M^i_ab (symmetric in the
    temporal indices) and spatial part N^i_aj, each held as its checked
    nested tuples."""

    __slots__ = ("m", "n", "temporal", "spatial")

    def __init__(self, m: int, n: int, temporal, spatial):
        temporal = _TemporalPart(m, n, temporal).comps
        spatial = _SpatialPart(m, n, spatial).comps
        self._set(m=m, n=n, temporal=temporal, spatial=spatial)


class VariationField(ex.Family):
    """A curve in t: one expression per spatial component, t-variables only,
    with its t-derivatives ``derivative[i][a]`` = d comps[i] / dt^a built at
    construction.  As itself it is a perturbation direction xi(t)."""

    __slots__ = ("derivative",)
    what = "variation field"
    axes = "s"
    kinds = (TEMPORAL,)

    def __init__(self, m: int, comps):
        super().__init__(m, len(comps), comps)
        comps = self.comps
        self._set(
            derivative=ex.nested(
                (self.n, m), lambda i, a: differentiate(comps[i], ex.t_var(a + 1))
            )
        )


class SectionMap(VariationField):
    """A map t -> x(t), the same curve read as a section: its first
    prolongation (x, dx/dt) is ``comps`` with ``derivative``."""

    __slots__ = ()
    what = "section"

    def prolongation_map(self) -> dict:
        """Substitution map sending x^i and v^i_a to their expressions in t."""
        out = {}
        for i, c in enumerate(self.comps):
            out[ex.VariableId(SPATIAL, i=i + 1)] = c
            for a in range(self.m):
                out[ex.VariableId(VELOCITY, i=i + 1, alpha=a + 1)] = (
                    self.derivative[i][a]
                )
        return out

    def prolongation_point(self, t) -> JetPoint:
        """Numeric jet point (t, x(t), dx/dt(t))."""
        tb = Bindings.jet(self.m, self.n, t=t)
        x = ex.evaluate_nested(self.comps, tb)
        v = ex.evaluate_nested(self.derivative, tb)
        return JetPoint(np.asarray(t, dtype=float), x, v)


# ---------------------------------------------------------------------------
# semispray <-> connection correspondences
# ---------------------------------------------------------------------------


def connection_part_from_temporal_semispray(H: Semispray):
    """Temporal connection part of a temporal semispray: M = 2 H.

    The inverse map halves it back; because constant factors collapse, the
    round trip returns the original expression objects.
    """
    comps = H.comps
    return ex.nested((H.n, H.m, H.m), lambda i, a, b: mul(2.0, comps[i][a][b]))


def temporal_semispray_from_connection_part(
    M, m: int, n: int
) -> Semispray:
    """Temporal semispray whose doubled components reproduce M: H = M / 2."""
    M = _TemporalPart(m, n, M).comps
    halves = ex.nested((n, m, m), lambda i, a, b: mul(0.5, M[i][a][b]))
    return Semispray(m, n, halves)


def spatial_semispray_from_system(
    system: PdeSystem, h: MetricField
) -> Semispray:
    """G^i_ab = F^i_ab/2 + (1/2) H^u_ab v^i_u, with H the connection
    coefficients of h.  The system is reconstructed from it exactly as
    F = 2G - H v."""
    require_metric(h, TEMPORAL, system.m)
    if not system.symmetric:
        raise ValueError(
            "spatial semispray requires a symmetric second-order system"
        )
    m, n = system.m, system.n
    gt = christoffel_sym(h)

    def entry(i, a, b):
        drift = expr_sum(mul(gt[u][a][b], ex.v_var(i + 1, u + 1)) for u in range(m))
        return add(mul(0.5, system.comps[i][a][b]), mul(0.5, drift))

    return Semispray(m, n, ex.nested((n, m, m), entry, symmetric=True))


def spatial_semispray_from_connection(
    connection: NonlinearConnection,
) -> Semispray:
    """Spatial semispray generated by a connection's spatial part:
    G^i_ab = (1/2) N^i_ar v^r_b.

    The raw product need not be symmetric in (a, b) for an arbitrary N, so
    the symmetric average is stored; when N itself comes from a symmetric
    v-quadratic system with t-independent h the average changes nothing.
    """
    m, n = connection.m, connection.n
    N = connection.spatial

    def entry(i, a, b):
        one = expr_sum(mul(N[i][a][r], ex.v_var(r + 1, b + 1)) for r in range(n))
        if a == b:
            return mul(0.5, one)
        other = expr_sum(mul(N[i][b][r], ex.v_var(r + 1, a + 1)) for r in range(n))
        return mul(0.25, add(one, other))

    return Semispray(m, n, ex.nested((n, m, m), entry, symmetric=True))


# ---------------------------------------------------------------------------
# the invariant pipeline
# ---------------------------------------------------------------------------

# each selector the command-line surface and reports use: the pipeline
# attribute that builds its family, and its index signature in storage order
# (Slot(kind, upper), which alone decide each slot's Jacobian factor)
_S_UP, _S_DOWN = Slot(SPATIAL, True), Slot(SPATIAL, False)
_T_UP, _T_DOWN = Slot(TEMPORAL, True), Slot(TEMPORAL, False)
_EPS_SLOTS = C_SLOTS + (_T_DOWN,)
_INVARIANTS = {
    "eps": ("first_invariant", _EPS_SLOTS),
    "P": ("deviation_curvature", (_S_UP, _S_DOWN)),
    "R": ("third_invariant", (_S_UP, _T_UP, _S_DOWN, _S_DOWN)),
    "B": ("fourth_invariant", (_S_UP, _T_UP, _S_DOWN, _S_DOWN, _S_DOWN, _T_UP)),
    "D": ("fifth_invariant", _EPS_SLOTS + (_S_DOWN, _T_UP) * 3),
}
INVARIANT_NAMES = tuple(_INVARIANTS)


def _invariant(name: str) -> tuple:
    """(pipeline attribute, slots) of one selector."""
    try:
        return _INVARIANTS[name]
    except KeyError:
        raise KeyError(f"unknown invariant selector '{name}'") from None


def invariant_slots(name: str) -> tuple[Slot, ...]:
    """Index signature of one invariant, in storage order."""
    return _invariant(name)[1]


class InvariantPipeline:
    """Build-once cache of everything derived from a (system, h) pair.

    Each family of expressions is constructed lazily on first access and
    kept; repeated point evaluations then share the same immutable trees.
    """

    def __init__(self, system: PdeSystem, h: MetricField):
        require_metric(h, TEMPORAL, system.m)
        self.system = system
        self.h = h
        self.m = system.m
        self.n = system.n
        # selector -> family, in the order first built through expressions()
        self._built: dict = {}
        # the remembered point set and its grids (see evaluate_batch)
        self._memo: tuple = (None, {})

    # -- metric-level pieces ------------------------------------------------

    @cached_property
    def h_inverse_rows(self):
        return self.h.inverse().rows

    @cached_property
    def temporal_christoffel(self):
        return christoffel_sym(self.h)

    def h_trace(self, family):
        """X^k = h^{ab} X^k_ab for each k of a family X[k][a][b]."""
        hinv = self.h_inverse_rows
        m = self.m
        return tuple(
            expr_sum(mul(hinv[a][b], plane[a][b]) for a in range(m) for b in range(m))
            for plane in family
        )

    @cached_property
    def trace_system(self):
        """F^i = h^{ab} F^i_ab — the metric trace of the system."""
        return self.h_trace(self.system.comps)

    @cached_property
    def trace_temporal(self):
        """H^g = h^{ab} H^g_ab — the metric trace of h's own connection."""
        return self.h_trace(self.temporal_christoffel)

    @cached_property
    def _trace_system_dv(self):
        """table[i][j][g] = d F^i / d v^j_g (derivatives of the trace)."""
        return ex.nested(
            (self.n, self.n, self.m),
            lambda i, j, g: differentiate(
                self.trace_system[i], ex.v_var(j + 1, g + 1)
            ),
        )

    @cached_property
    def _half_traced_drift(self):
        """drift[a] = (1/2) sum_g H^g h_{ga}, the diagonal term of N's
        spatial part; built once for all n of its diagonal entries."""
        hrows = self.h.rows
        return tuple(
            mul(
                0.5,
                expr_sum(
                    mul(self.trace_temporal[g], hrows[g][a]) for g in range(self.m)
                ),
            )
            for a in range(self.m)
        )

    # -- connection and semispray -------------------------------------------

    @cached_property
    def connection(self) -> NonlinearConnection:
        """Nonlinear connection of the pair: temporal part is twice the
        canonical temporal coefficients of h; spatial part is
        N^i_aj = (1/2)(dF^i/dv^j_g) h_{ga} + drift[a] delta^i_j."""
        m, n = self.m, self.n
        hrows = self.h.rows
        dF = self._trace_system_dv

        def entry(i, a, j):
            out = mul(
                0.5, expr_sum(mul(dF[i][j][g], hrows[g][a]) for g in range(m))
            )
            if i == j:
                out = add(out, self._half_traced_drift[a])
            return out

        return NonlinearConnection(
            m,
            n,
            canonical_temporal_connection(self.h, n),
            ex.nested((n, m, n), entry),
        )

    @cached_property
    def semispray(self) -> Semispray:
        return spatial_semispray_from_system(self.system, self.h)

    # -- the five invariants --------------------------------------------------

    @cached_property
    def first_invariant(self):
        """eps = grad v, the covariant derivative of the velocities:
        eps[i][a][b] = -F^i_ab + N^i_ar v^r_b - H^u_ab v^i_u."""
        v = ex.nested((self.n, self.m), lambda i, a: ex.v_var(i + 1, a + 1))
        return self.covariant_derivative_family(v)

    @cached_property
    def deviation_curvature(self):
        """P[i][j]: the deviation operator whose sign structure governs how
        nearby solutions spread."""
        m, n = self.m, self.n
        Ftr = self.trace_system
        Htr = self.trace_temporal
        hrows = self.h.rows
        hinv = self.h_inverse_rows
        dF = self._trace_system_dv
        tv = [ex.t_var(g + 1) for g in range(m)]
        xv = [ex.x_var(r + 1) for r in range(n)]
        vv = [[ex.v_var(r + 1, g + 1) for g in range(m)] for r in range(n)]
        dh = ex.nested(
            (m, m, m), lambda u, g, e: differentiate(hrows[u][g], tv[e])
        )

        # scalar part multiplying the identity
        k_terms = [
            mul(0.5, expr_sum(differentiate(Htr[g], tv[g]) for g in range(m)))
        ]
        k_terms.append(
            mul(
                0.5,
                expr_sum(
                    mul(hinv[g][e], mul(dh[u][g][e], Htr[u]))
                    for g in range(m)
                    for e in range(m)
                    for u in range(m)
                ),
            )
        )
        k_terms.append(
            neg(
                mul(
                    0.25,
                    expr_sum(
                        mul(hrows[g][u], mul(Htr[g], Htr[u]))
                        for g in range(m)
                        for u in range(m)
                    ),
                )
            )
        )
        k_scalar = expr_sum(k_terms)

        F = self.system.comps

        def entry(i, j):
            terms = [neg(differentiate(Ftr[i], xv[j]))]
            terms.append(
                mul(0.5, expr_sum(differentiate(dF[i][j][g], tv[g]) for g in range(m)))
            )
            terms.append(
                mul(
                    0.5,
                    expr_sum(
                        mul(differentiate(dF[i][j][g], xv[r]), vv[r][g])
                        for r in range(n)
                        for g in range(m)
                    ),
                )
            )
            terms.append(
                neg(
                    mul(
                        0.5,
                        expr_sum(
                            mul(differentiate(dF[i][j][u], vv[r][g]), F[r][g][u])
                            for r in range(n)
                            for g in range(m)
                            for u in range(m)
                        ),
                    )
                )
            )
            terms.append(
                mul(
                    0.25,
                    expr_sum(
                        mul(hrows[g][u], mul(dF[i][r][g], dF[r][j][u]))
                        for r in range(n)
                        for g in range(m)
                        for u in range(m)
                    ),
                )
            )
            terms.append(
                mul(
                    0.5,
                    expr_sum(
                        mul(hinv[g][e], mul(dh[u][g][e], dF[i][j][u]))
                        for g in range(m)
                        for e in range(m)
                        for u in range(m)
                    ),
                )
            )
            if i == j:
                terms.append(k_scalar)
            return expr_sum(terms)

        return ex.nested((n, n), entry)

    @cached_property
    def third_invariant(self):
        """R[i][a][j][k] = (1/3)(dP^i_j/dv^k_a - dP^i_k/dv^j_a); stored
        antisymmetric in (j, k) with shared negated mirrors.  Only the j < k
        entries differentiate P, so no dP^i_j/dv^j_a is ever built."""
        P = self.deviation_curvature

        def entry(i, a, j, k):
            dPj = differentiate(P[i][j], ex.v_var(k + 1, a + 1))
            dPk = differentiate(P[i][k], ex.v_var(j + 1, a + 1))
            return mul(1.0 / 3.0, sub(dPj, dPk))

        return ex.nested((self.n, self.m, self.n, self.n), entry, antisymmetric=True)

    @cached_property
    def fourth_invariant(self):
        """B[i][a][j][k][l][b] = d R^{ia}_{jk} / d v^l_b."""
        m, n = self.m, self.n
        R = self.third_invariant
        return ex.nested(
            (n, m, n, n, n, m),
            lambda i, a, j, k, l, b: differentiate(
                R[i][a][j][k], ex.v_var(l + 1, b + 1)
            ),
        )

    @cached_property
    def fifth_invariant(self):
        return fifth_invariant(self.system)

    # -- evaluation -----------------------------------------------------------

    def expressions(self, name: str):
        """Cached nested expression family for one invariant selector."""
        family = self._built[name] = getattr(self, _invariant(name)[0])
        return family

    def evaluate(self, name: str, point: JetPoint) -> DTensorValue:
        """Components at one point; raises a ValueError for a point of another
        (m, n), then DegenerateMetricError where h is degenerate, as
        ``evaluate_batch`` does."""
        bindings = Bindings.jet(self.m, self.n, point.t, point.x, point.v)
        self.h.evaluate(point.t)
        vals = ex.evaluate_nested(self.expressions(name), bindings)
        return DTensorValue(self.m, self.n, invariant_slots(name), vals)

    def evaluate_batch(self, name: str, points) -> np.ndarray:
        """Read-only component grid with a trailing axis over the supplied
        points.  The batch refuses a set of another (m, n) (a ValueError),
        checks h, then evaluates, and raises what its first failing point
        raises alone (``ex.by_point``): h's error there, else the first
        failing leaf's domain error.

        The pipeline remembers one ``JetPointSet`` (by identity; its stacks
        are read-only) and the grids computed over it.  A call over a set it
        does not remember, or for a family it holds no grid of, checks h once
        and evaluates every family built so far through ``expressions`` over
        that set as one tape, so a node that several families share is
        computed once, and its error is that of the first failing leaf of
        any built family, in ``_built`` order, not only of ``name``; later
        calls over that set return their grids from the memo.  A plain
        sequence of points is stacked into a new set (``point_set``) first.
        """
        self.expressions(name)
        points = point_set(points)
        remembered, grids = self._memo
        if points is not remembered or name not in grids:
            Bindings.jet(self.m, self.n, points.t, points.x, points.v)  # (m, n) checked
            grids = self._grids(points)
            self._memo = (points, grids)  # one assignment: a race repeats work
        return grids[name]

    def _grids(self, points: JetPointSet) -> dict:
        """{selector: grid} over ``points`` for every built family: h
        checked, then the leaves of those not all ``ZERO`` evaluated as one
        ``evaluate_nested`` call and split into read-only views; a staged
        batch (``ex.by_point``)."""
        names = list(self._built)

        def stages(points: JetPointSet) -> dict:
            self.h.evaluate(points.t)
            grids, parts = {}, []
            for name in names:
                leaves = ex.family_array(self._built[name])
                if ex.all_zero(leaves):
                    grids[name] = np.zeros(leaves.shape + (len(points),))
                    grids[name].flags.writeable = False
                else:
                    parts.append((name, leaves))
            if parts:
                flat = [leaf for _, leaves in parts for leaf in leaves.flat]
                values = ex.evaluate_nested(flat, points.bindings())
                values.flags.writeable = False
                start = 0
                for name, leaves in parts:
                    end = start + leaves.size
                    shape = leaves.shape + (len(points),)
                    grids[name] = values[start:end].reshape(shape)
                    start = end
            return grids

        return ex.by_point(stages, points, (point_set([q]) for q in points))

    # -- covariant derivatives and deviation-form residuals -------------------

    def total_derivative(self, e: Expression, b: int) -> Expression:
        """Derivative of a jet-space expression in the t^b direction along
        solutions: second derivatives of x are replaced through the system,
        d v^r_g / d t^b = -F^r_gb."""
        m, n = self.m, self.n
        terms = [differentiate(e, ex.t_var(b))]
        for r in range(n):
            terms.append(
                mul(differentiate(e, ex.x_var(r + 1)), ex.v_var(r + 1, b))
            )
        for r in range(n):
            for g in range(m):
                de = differentiate(e, ex.v_var(r + 1, g + 1))
                terms.append(
                    neg(mul(de, self.system.component(r + 1, g + 1, b)))
                )
        return expr_sum(terms)

    def covariant_derivative_family(self, T):
        """Covariant derivative of a once-temporal family T[i][a] of jet
        expressions, as jet expressions:

        (grad T)^i_ab = D_b T^i_a + N^i_ar T^r_b - H^u_ab T^i_u
        """
        m, n = self.m, self.n
        T = ex.freeze(T)
        ex.check_family(T, m, n, (n, m), "covariant derivative input")
        N = self.connection.spatial
        gt = self.temporal_christoffel

        def entry(i, a, b):
            terms = [self.total_derivative(T[i][a], b + 1)]
            terms += [mul(N[i][a][r], T[r][b]) for r in range(n)]
            terms += [neg(mul(gt[u][a][b], T[i][u])) for u in range(m)]
            return expr_sum(terms)

        return ex.nested((n, m, m), entry)

    def variation_derivative(self, xi: VariationField):
        """Jet expressions of (grad xi)^i_a = d xi^i/d t^a + N^i_ar xi^r."""
        m, n = self.m, self.n
        if xi.m != m or xi.n != n:
            raise ValueError("variation field dimensions do not match")
        N = self.connection.spatial
        return ex.nested(
            (n, m),
            lambda i, a: add(
                xi.derivative[i][a],
                expr_sum(mul(N[i][a][r], xi.comps[r]) for r in range(n)),
            ),
        )

    def jacobi_lhs_minus_rhs(self, xi: VariationField):
        """Jet expressions of h^{ab} (grad grad xi)^i_ab - P^i_r xi^r, the
        two sides of the deviation-form rewriting of the variational
        equations."""
        n = self.n
        first = self.variation_derivative(xi)
        second = self.covariant_derivative_family(first)
        P = self.deviation_curvature
        lhs = self.h_trace(second)
        return tuple(
            sub(lhs[i], expr_sum(mul(P[i][r], xi.comps[r]) for r in range(n)))
            for i in range(n)
        )


def fifth_invariant(system: PdeSystem):
    """D[i][a][b][j][g][k][e][l][u] = third v-derivative of F^i_ab.

    Partial derivatives commute, so each distinct derivative triple is
    built once (in sorted order) and shared across all permutations of the
    three (spatial, temporal) derivative pairs.  A block whose triples are
    all ``ZERO`` (F^i_ab quadratic in v) is one shared all-``ZERO`` nesting.
    """
    m, n = system.m, system.n
    pairs = [(j, g) for j in range(n) for g in range(m)]
    vv = {p: ex.v_var(p[0] + 1, p[1] + 1) for p in pairs}
    extents = (n, m, n, m, n, m)
    zero_block = ex.ZERO
    for extent in reversed(extents):
        zero_block = (zero_block,) * extent

    def block_nested(i, a, b):
        base = system.component(i + 1, a + 1, b + 1)
        d1 = {p: differentiate(base, vv[p]) for p in pairs}
        d2 = {}
        for p1 in pairs:
            for p2 in pairs:
                if p2 >= p1:
                    d2[(p1, p2)] = differentiate(d1[p1], vv[p2])
        d3 = {}
        for (p1, p2), e in d2.items():
            for p3 in pairs:
                if p3 >= p2:
                    d3[(p1, p2, p3)] = differentiate(e, vv[p3])
        if all(d is ex.ZERO for d in d3.values()):
            return zero_block

        def entry(j, g, k, e, l, u):
            return d3[tuple(sorted(((j, g), (k, e), (l, u))))]

        return ex.nested(extents, entry)

    return ex.nested((n, m, m), block_nested)


def on_section(family, sigma: SectionMap, t) -> np.ndarray:
    """Values of a nested family of jet expressions on the prolongation of
    sigma, as an array of the nesting's shape.

    Each leaf is restricted to the prolongation once, however many t there
    are, and the restricted family is evaluated as one tape.  ``t`` has
    shape (m,) for one point or (m, K) for a batch, which gives a trailing
    axis of K; an out-of-domain value raises EvaluationError, a batch's at
    its first failing t (``ex.evaluate_nested``).
    """
    prol = sigma.prolongation_map()
    leaves = ex.family_array(family)
    leaves.flat = [substitute(e, prol) for e in leaves.flat]
    return ex.evaluate_nested(leaves, Bindings.jet(sigma.m, sigma.n, t=t))


def sode_residual(system: PdeSystem, sigma: SectionMap, t) -> np.ndarray:
    """x''^i_ab + F^i_ab on the prolongation of sigma at t."""
    if sigma.m != system.m or sigma.n != system.n:
        raise ValueError("section dimensions do not match the system")
    fam = ex.nested(
        (system.n, system.m, system.m),
        lambda i, a, b: add(
            differentiate(sigma.derivative[i][a], ex.t_var(b + 1)),
            system.component(i + 1, a + 1, b + 1),
        ),
    )
    return on_section(fam, sigma, t)


def variational_family(system: PdeSystem, xi: VariationField):
    """Jet expressions of the linearization of the system applied to xi:

    xi''_ab + (dF^i_ab/dx^k) xi^k + (dF^i_ab/dv^r_u) dxi^r/dt^u.
    """
    if xi.m != system.m or xi.n != system.n:
        raise ValueError("variation field dimensions do not match")
    m, n = system.m, system.n

    def entry(i, a, b):
        F = system.component(i + 1, a + 1, b + 1)
        terms = [differentiate(xi.derivative[i][a], ex.t_var(b + 1))]
        terms += [
            mul(differentiate(F, ex.x_var(k + 1)), xi.comps[k])
            for k in range(n)
        ]
        terms += [
            mul(differentiate(F, ex.v_var(r + 1, u + 1)), xi.derivative[r][u])
            for r in range(n)
            for u in range(m)
        ]
        return expr_sum(terms)

    return ex.nested((n, m, m), entry)


def jacobi_identity_residual(
    system: PdeSystem,
    h: MetricField,
    sigma: SectionMap,
    xi: VariationField,
    t,
) -> np.ndarray:
    """h^{ab} (grad grad xi)_ab - P xi along the prolongation of sigma.

    The rewriting that makes this the deviation form of the variational
    equations substitutes the system for x'', so sigma must actually solve
    it at t; otherwise SectionNotSolutionError is raised with the measured
    residual.  The stages are h, the section residual and this residual; a
    batch of t raises what its first failing t raises alone
    (``ex.by_point``).
    """
    family = InvariantPipeline(system, h).jacobi_lhs_minus_rhs(xi)

    def stages(t):
        h.evaluate(t)
        worst = np.max(np.abs(sode_residual(system, sigma, t)), axis=(0, 1, 2))
        off = np.flatnonzero(~(worst <= SOLUTION_TOL))  # a nan fails too
        if off.size:
            k = off[0]
            at = t.reshape(len(t), -1)[:, k]
            raise SectionNotSolutionError(float(np.ravel(worst)[k]), SOLUTION_TOL, at)
        return on_section(family, sigma, t)

    t = np.asarray(t, dtype=float)
    return ex.by_point(stages, t, t.T if t.ndim > 1 else ())
