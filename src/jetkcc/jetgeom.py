"""Geometry over the multi-time 1-jet space.

A configuration lives on the product of an m-dimensional time manifold and an
n-dimensional space manifold; a jet point carries (t, x, v) where v[i-1][a-1]
is the velocity of x^i in the t^a direction.  Dimensions are capped at 4.

This module provides the metric-level machinery (inverses, Christoffel
symbols, curvature of the spatial metric), the canonical semisprays and
connections induced by a metric pair, the two canonical d-tensors, the
PDE-system container, and the two system builders used throughout.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from typing import NamedTuple

import numpy as np

from . import exprlang as ex
from .exprlang import (
    Expression,
    SPATIAL,
    TEMPORAL,
    Bindings,
    add,
    differentiate,
    div,
    expr_sum,
    mul,
    neg,
    sub,
)

DEGENERACY_TOL = 1e-12


class DegenerateMetricError(ValueError):
    """Metric determinant vanished (|det| <= 1e-12) at an evaluation point."""


class _JetBlocks(ex.Frozen):
    """The read-only t, x and v blocks of a jet point, of shapes (m,), (n,)
    and (n, m), or of a point set, each with a trailing batch axis."""

    __slots__ = ("t", "x", "v")
    what = "jet point"
    batch_axes = 0

    def __init__(self, t, x, v):
        stacks = [np.array(a, dtype=float, order="C") for a in (t, x, v)]
        t, x, v = stacks
        if (
            t.ndim != 1 + self.batch_axes
            or x.ndim != t.ndim
            or x.shape[1:] != t.shape[1:]
            or v.shape != x.shape[:1] + t.shape
        ):
            raise ValueError(
                f"{self.what} shapes inconsistent: t{t.shape}, x{x.shape}, v{v.shape}"
            )
        ex.check_dimensions(len(t), len(x))
        for stack in stacks:
            stack.flags.writeable = False
        self._set(t=t, x=x, v=v)

    @property
    def m(self) -> int:
        return len(self.t)

    @property
    def n(self) -> int:
        return len(self.x)

    def bindings(self) -> Bindings:
        return Bindings.jet(self.m, self.n, self.t, self.x, self.v)


class JetPoint(_JetBlocks):
    """Immutable numeric point (t, x, v) on the 1-jet space."""

    __slots__ = ()

    def __repr__(self):
        return f"JetPoint(t={self.t.tolist()}, x={self.x.tolist()}, v={self.v.tolist()})"


class JetPointSet(_JetBlocks):
    """Immutable set of K jet points, held as three stacks with the batch
    axis last: t (m, K), x (n, K) and v (n, m, K).  Indexing and iteration
    give ``JetPoint``s."""

    __slots__ = ()
    what = "point set"
    batch_axes = 1

    def __len__(self) -> int:
        return self.t.shape[1]

    def __getitem__(self, k: int) -> JetPoint:
        return JetPoint(self.t[:, k], self.x[:, k], self.v[..., k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __repr__(self):
        return f"JetPointSet(m={self.m}, n={self.n}, count={len(self)})"


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _seed_sequence(seed) -> list:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)`` for an int seed."""
    if (seed := operator.index(seed)) < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {seed}")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]

    def fold(value: int) -> int:  # to 32 bits, then the closing xor-shift
        return (value & _M32) ^ (value & _M32) >> 16

    def hasher(const: int, mult: int):
        def hash_word(value: int) -> int:
            nonlocal const
            return fold((value ^ const) * (const := const * mult & _M32))

        return hash_word

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = fold(0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = fold(0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(word))
    words = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _jump(hi, lo, a: int, c: int):
    """``a*s + c mod 2**128`` for s = hi*2**64 + lo (uint64 arrays), by 32-bit limbs."""
    a_hi, a_lo, c_hi, c_lo = a >> 64, a & _M64, c >> 64, c & _M64
    l0, l1, a0, a1 = lo & _M32, lo >> 32, a_lo & _M32, a_lo >> 32
    p01, p10 = l0 * a1, l1 * a0
    mid = (l0 * a0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = l1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * a_lo + c_lo
    return carry + hi * a_lo + lo * a_hi + c_hi + (new_lo < c_lo), new_lo


def uniform_draws(seed, shape: tuple) -> np.ndarray:
    """numpy's ``default_rng(seed).random(shape)`` bit for bit, whatever numpy
    is installed: SeedSequence(seed), PCG64 (128-bit LCG, XSL-RR output), then
    each output's top 53 bits times 2**-53.  States L..2L-1 are the L-step
    jump (A_L, C_L) of states 0..L-1, so N draws take O(log N) array steps."""
    w0, w1, w2, w3 = _seed_sequence(seed)
    a, c = 0x2360ED051FC65DA44385DF649FCCF645, ((w2 << 64 | w3) << 1 | 1) & _M128
    state = (c + (w0 << 64 | w1)) * a + c  # a: PCG64's multiplier; set up, one step
    count = int(np.prod(shape, dtype=np.int64))
    hi, lo = np.empty(count, np.uint64), np.empty(count, np.uint64)
    done = min(count, 64)  # the first states one by one, as Python ints
    states = [state := (state * a + c) & _M128 for _ in range(done)]
    hi[:done], lo[:done] = ([s >> k & _M64 for s in states] for k in (64, 0))
    for _ in range(6):  # (a, c) becomes the 64-step jump
        a, c = a * a & _M128, (a * c + c) & _M128
    while done < count:
        k = min(done, count - done)
        hi[done : done + k], lo[done : done + k] = _jump(hi[:k], lo[:k], a, c)
        a, c, done = a * a & _M128, (a * c + c) & _M128, done + k
    out, turn = hi ^ lo, hi >> 58
    out = out >> turn | out << (-turn & 63)
    return ((out >> 11) * 2.0**-53).reshape(shape)


def sample_jet_points(
    m: int,
    n: int,
    count: int,
    seed: int,
    t_box: tuple[float, float] = (-1.0, 1.0),
    x_box: tuple[float, float] = (-1.0, 1.0),
    v_box: tuple[float, float] = (-2.0, 2.0),
) -> JetPointSet:
    """Deterministic uniform sample of jet points (one draw stream per call).

    Point k takes draws k*w .. k*w + w - 1 of the stream, w = m + n + n*m:
    first its t, then its x, then its v row by row, each scaled into its
    box as ``low + (high - low) * u``, which is what ``Generator.uniform``
    computes, so the values are those of m, n and n*m uniform draws per
    point in that order."""
    box = np.repeat([t_box, x_box, v_box], [m, n, n * m], axis=0)
    u = box[:, 0] + (box[:, 1] - box[:, 0]) * uniform_draws(seed, (count, len(box)))
    v = np.moveaxis(u[:, m + n :].reshape(count, n, m), 0, -1)
    return JetPointSet(u[:, :m].T, u[:, m : m + n].T, v)


def point_set(points) -> JetPointSet:
    """A JetPointSet as it is; any other sequence of JetPoints stacked.
    Raises ValueError when there are no points."""
    if not isinstance(points, JetPointSet):
        points = list(points)
        if points:
            points = JetPointSet(
                *(np.stack([getattr(p, b) for p in points], axis=-1) for b in "txv")
            )
    if not len(points):
        raise ValueError("no points")
    return points


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _coord_var(kind: str, k: int) -> ex.Var:
    return ex.t_var(k) if kind == TEMPORAL else ex.x_var(k)


class MetricField(ex.Family):
    """Symmetric nondegenerate metric on the time or space factor, of
    dimension d: a family of d rows of d entries, with m = n = d.

    Entries are expressions in that factor's own coordinates only (t-vars for
    a temporal metric, x-vars for a spatial one).  Structural symmetry is
    required at construction; nondegeneracy is checked numerically wherever
    the metric is evaluated.
    """

    # kind is TEMPORAL or SPATIAL; the family declarations follow from it
    __slots__ = ("kind", "what", "kinds", "axes")
    symmetric = True

    def __init__(self, kind: str, rows):
        if kind not in (TEMPORAL, SPATIAL):
            raise ValueError(f"bad metric kind {kind!r}")
        axes = "tt" if kind == TEMPORAL else "ss"
        self._set(kind=kind, what=f"{kind} metric", kinds=(kind,), axes=axes)
        super().__init__(len(rows), len(rows), rows)

    @property
    def rows(self) -> tuple:
        return self.comps

    @property
    def dim(self) -> int:
        return self.m

    @classmethod
    def temporal(cls, rows) -> "MetricField":
        return cls(TEMPORAL, rows)

    @classmethod
    def spatial(cls, rows) -> "MetricField":
        return cls(SPATIAL, rows)

    def evaluate(self, coords) -> np.ndarray:
        """Numeric (d, d) matrix at factor coordinates of shape (d,), or a
        (d, d, K) stack at coordinates of shape (d, K).

        Raises DegenerateMetricError where |det| <= 1e-12, det being
        ``determinant()``, and a batch what its first failing point raises
        alone (``ex.by_point``).
        """
        d = self.dim

        def checked(coords):
            b = Bindings.jet(d, d, **{"t" if self.kind == TEMPORAL else "x": coords})
            out = ex.evaluate_nested(self.rows, b)
            det = np.abs(ex.evaluate(self.determinant(), b))
            bad = np.flatnonzero(det <= DEGENERACY_TOL)
            if bad.size:
                k = bad[0]
                at, det = coords.reshape(d, -1)[:, k].tolist(), np.ravel(det)[k]
                raise DegenerateMetricError(
                    f"{self.kind} metric degenerate at {at}: |det| = {det:.3e}"
                )
            return out

        coords = np.asarray(coords, dtype=float)
        return ex.by_point(checked, coords, coords.T if coords.ndim > 1 else ())

    def determinant(self) -> Expression:
        return _det_expr(self.rows)

    def inverse(self) -> "MetricField":
        """Symbolic inverse via the adjugate (dimension <= 4)."""
        det = _det_expr(self.rows)

        def entry(a, b):
            return div(_cofactor_expr(self.rows, a, b), det)

        return MetricField(
            self.kind, ex.nested((self.dim, self.dim), entry, symmetric=True)
        )


def require_metric(metric: MetricField, kind: str, dim: int | None = None) -> None:
    """Refuse a metric of another kind than ``kind`` or, when ``dim`` is
    given, of another dimension."""
    if metric.kind != kind or dim is not None and metric.dim != dim:
        want = "" if dim is None else f" of dimension {dim}"
        raise ValueError(
            f"expected a {kind} metric{want}; "
            f"got a {metric.kind} metric of dimension {metric.dim}"
        )


def _minor(rows, drop_r: int, drop_c: int):
    return tuple(
        tuple(e for c, e in enumerate(row) if c != drop_c)
        for r, row in enumerate(rows)
        if r != drop_r
    )


def _det_expr(rows) -> Expression:
    d = len(rows)
    if d == 0:
        return ex.ONE
    if d == 1:
        return rows[0][0]
    terms = []
    for c in range(d):
        piece = mul(rows[0][c], _det_expr(_minor(rows, 0, c)))
        terms.append(piece if c % 2 == 0 else neg(piece))
    return expr_sum(terms)


def _cofactor_expr(rows, a: int, b: int) -> Expression:
    piece = _det_expr(_minor(rows, b, a))  # adjugate: transpose of cofactors
    return piece if (a + b) % 2 == 0 else neg(piece)


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature
# ---------------------------------------------------------------------------


def christoffel_sym(metric: MetricField):
    """Second-kind Christoffel symbols of a factor metric.

    Returns nested tuples G[a-1][b-1][c-1] of expressions, symmetric in the
    two lower indices (shared nodes).
    """
    d = metric.dim
    inv = metric.inverse()
    coord = [_coord_var(metric.kind, k + 1) for k in range(d)]
    dg = ex.nested(
        (d, d, d), lambda a, b, c: differentiate(metric.rows[a][b], coord[c])
    )

    def entry(a, b, c):
        terms = [
            mul(inv.rows[a][u], sub(add(dg[b][u][c], dg[c][u][b]), dg[b][c][u]))
            for u in range(d)
        ]
        return mul(0.5, expr_sum(terms))

    return ex.nested((d, d, d), entry, symmetric=True)


def curvature_sym(metric: MetricField):
    """Curvature of the spatial metric's Christoffel connection.

    R[i-1][p-1][q-1][j-1] = dG^i_pq/dx^j - dG^i_pj/dx^q
                            + sum_r (G^r_pq G^i_rj - G^r_pj G^i_rq),
    antisymmetric in its last two indices.
    """
    require_metric(metric, SPATIAL)
    n = metric.dim
    gam = christoffel_sym(metric)
    xs = [ex.x_var(j + 1) for j in range(n)]

    def entry(i, p, q, j):
        terms = [differentiate(gam[i][p][q], xs[j])]
        terms.append(neg(differentiate(gam[i][p][j], xs[q])))
        for r in range(n):
            terms.append(mul(gam[r][p][q], gam[i][r][j]))
            terms.append(neg(mul(gam[r][p][j], gam[i][r][q])))
        return expr_sum(terms)

    return ex.nested((n, n, n, n), entry, antisymmetric=True)


# ---------------------------------------------------------------------------
# canonical semisprays / connections of a metric pair
# ---------------------------------------------------------------------------


def canonical_temporal_semispray(h: MetricField, n: int):
    """H0[i][a][b] = -1/2 * sum_u Gt^u_ab v^i_u  (Gt = temporal Christoffels)."""
    require_metric(h, TEMPORAL)
    m = h.dim
    gt = christoffel_sym(h)

    def entry(i, a, b):
        s = expr_sum(mul(gt[u][a][b], ex.v_var(i + 1, u + 1)) for u in range(m))
        return mul(-0.5, s)

    return ex.nested((n, m, m), entry)


def canonical_spatial_semispray(phi: MetricField, m: int):
    """G0[i][a][b] = 1/2 * sum_pq Gs^i_pq v^p_a v^q_b  (Gs = spatial Christoffels)."""
    require_metric(phi, SPATIAL)
    n = phi.dim
    gs = christoffel_sym(phi)

    def entry(i, a, b):
        terms = [
            mul(gs[i][p][q], mul(ex.v_var(p + 1, a + 1), ex.v_var(q + 1, b + 1)))
            for p in range(n)
            for q in range(n)
        ]
        return mul(0.5, expr_sum(terms))

    return ex.nested((n, m, m), entry)


def canonical_temporal_connection(h: MetricField, n: int):
    """M0[i][a][b] = 2 * H0[i][a][b] (nodes shared with the semispray)."""
    h0 = canonical_temporal_semispray(h, n)
    return ex.nested((n, h.dim, h.dim), lambda i, a, b: mul(2.0, h0[i][a][b]))


def canonical_spatial_connection(phi: MetricField, m: int):
    """N0[i][a][j] = sum_r Gs^i_jr v^r_a."""
    require_metric(phi, SPATIAL)
    n = phi.dim
    gs = christoffel_sym(phi)
    return ex.nested(
        (n, m, n),
        lambda i, a, j: expr_sum(
            mul(gs[i][j][r], ex.v_var(r + 1, a + 1)) for r in range(n)
        ),
    )


# ---------------------------------------------------------------------------
# d-tensor slots and the canonical tensors
# ---------------------------------------------------------------------------


class Slot(NamedTuple):
    """One index slot of a d-tensor: its kind and its variance, which
    alone decide the Jacobian factor it picks up."""

    kind: str  # TEMPORAL or SPATIAL
    upper: bool


# the canonical tensor C = v^i_a of the jet coordinates: spatial up, temporal down
C_SLOTS = (Slot(SPATIAL, True), Slot(TEMPORAL, False))
# the canonical tensor J = h_ab * delta^i_j: C's slots, then temporal and spatial down
J_SLOTS = C_SLOTS + (Slot(TEMPORAL, False), Slot(SPATIAL, False))


def canonical_tensors(h: MetricField, point: JetPoint):
    """The component arrays of the two canonical d-tensors at a point.

    The first is the jet coordinate block itself, v^i_a, with the slots
    ``C_SLOTS``; the second is h_ab * delta^i_j, with the slots ``J_SLOTS``.
    """
    m, n = point.m, point.n
    require_metric(h, TEMPORAL, m)
    hm = h.evaluate(point.t)
    jv = np.zeros((n, m, m, n))
    for i in range(n):
        jv[i, :, :, i] = hm
    return point.v.copy(), jv


# ---------------------------------------------------------------------------
# second-order PDE systems
# ---------------------------------------------------------------------------


class PdeSystem(ex.Family):
    """Right-hand side family F^i_ab of a second-order system.

    Components are nested tuples ``comps[i-1][a-1][b-1]`` on the full grid,
    and ``from_upper`` needs every entry with a <= b.  The ``symmetric``
    flag records whether they were given (or forced) symmetric under
    a <-> b, in which case each mirror is the same node, or, for a
    first-order prolongation, found symmetric at sample points.
    """

    __slots__ = ("symmetric",)
    what = "system"
    axes = "stt"
    full_grid = True

    def __init__(self, m: int, n: int, comps, symmetric: bool = True):
        self._set(symmetric=symmetric)
        super().__init__(m, n, comps)


def build_affine_system(h: MetricField, phi: MetricField) -> PdeSystem:
    """The geodesic-type system of a metric pair.

    F^i_ab = Gs^i_pq v^p_a v^q_b - Gt^u_ab v^i_u, assembled as the canonical
    temporal connection plus twice the canonical spatial semispray (both of
    which already carry their signs).
    """
    m, n = h.dim, phi.dim
    m0 = canonical_temporal_connection(h, n)
    g0 = canonical_spatial_semispray(phi, m)

    def entry(i, a, b):
        return add(m0[i][a][b], mul(2.0, g0[i][a][b]))

    return PdeSystem(m, n, ex.nested((n, m, m), entry, symmetric=True))


FIRST_ORDER_ASYM_TOL = 1e-9


def build_first_order_system(
    X: dict, m: int, n: int, symmetrize: bool = False
) -> PdeSystem:
    """Prolong a first-order flow v^i_a = X^i_a(t, x) to second order.

    F^i_ab = -(dX^i_a/dt^b + sum_r dX^i_a/dx^r * v^r_b).  For m >= 2 these
    components need not be symmetric in (a, b); by default they are stored
    as written (with a warning when the asymmetry at sample points exceeds
    tolerance), with ``symmetrize=True`` the average is stored instead,
    without probing the asymmetry.
    """
    want = {(i, a) for i in range(1, n + 1) for a in range(1, m + 1)}
    if set(X) != want:
        raise ValueError("first-order components must cover every (i, a)")
    flow = ex.freeze(ex.nested((n, m), lambda i, a: X[(i + 1, a + 1)]))
    ex.check_family(flow, m, n, (n, m), "first-order flow", kinds=(TEMPORAL, SPATIAL))

    def raw_entry(i, a, b):
        xi = flow[i][a]
        terms = [differentiate(xi, ex.t_var(b + 1))]
        for r in range(1, n + 1):
            terms.append(mul(differentiate(xi, ex.x_var(r)), ex.v_var(r, b + 1)))
        return neg(expr_sum(terms))

    raw = ex.nested((n, m, m), raw_entry)
    if symmetrize:

        def entry(i, a, b):
            return mul(0.5, add(raw[i][a][b], raw[i][b][a]))

        return PdeSystem(m, n, ex.nested((n, m, m), entry, symmetric=True))

    system = PdeSystem(m, n, raw, symmetric=False)
    asym = 0.0
    if m > 1:
        points = point_set(sample_jet_points(m, n, 5, seed=20))
        F = ex.evaluate_nested(raw, points.bindings())
        a, b = np.triu_indices(m, 1)
        asym = float(np.max(np.abs(F[:, a, b] - F[:, b, a])))
    # symmetric in value, stored as written; a gap that is not finite (from a
    # non-finite input, or a difference that overflows) is asymmetric
    system._set(symmetric=asym <= FIRST_ORDER_ASYM_TOL)
    if not system.symmetric:
        warnings.warn(
            f"first-order prolongation is asymmetric in its time indices "
            f"(max deviation {asym:.3e} at sample points); storing as written",
            RuntimeWarning,
            stacklevel=2,
        )
    return system
