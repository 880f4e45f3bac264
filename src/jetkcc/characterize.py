"""Structure extraction for systems with vanishing first and fifth invariants.

A second-order system whose fifth invariant vanishes is velocity-quadratic
with (t, x)-coefficients; if the first invariant vanishes too, those
coefficients organize into a symmetric family Gamma^i_pq(t, x), the
temporal Christoffel symbols, and an antisymmetric cross-coupling family
tied down by a homogeneous linear constraint system whose coefficients
depend only on the temporal metric.  This module builds such systems from
the two coefficient families, solves the constraint system's null space at
a point, and recovers the families from a given system by polarization.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import exprlang as ex
from .exprlang import SPATIAL, TEMPORAL, Bindings, expr_sum, mul, neg
from .jetgeom import (
    MetricField,
    PdeSystem,
    christoffel_sym,
    require_metric,
    uniform_draws,
)
from .kcccore import InvariantPipeline

CONSTRAINT_WARN_TOL = 1e-9
RANK_CUTOFF = 1e-10
QUADRATIC_TOL = 1e-10
HYPOTHESIS_TOL = 1e-8
SYMMETRY_TOL = 1e-8


class NotVelocityQuadraticError(ValueError):
    """The system's fifth invariant does not vanish."""

    def __init__(self, max_abs: float):
        self.max_abs = max_abs
        super().__init__(
            f"fifth invariant reaches {max_abs:.3e} at probe points; the "
            f"system is not velocity-quadratic, so no structure extraction "
            f"is possible"
        )


class HypothesisViolationError(ValueError):
    """First-invariant or coefficient-symmetry hypotheses fail."""

    def __init__(self, what: str, value: float, tol: float):
        self.what = what
        self.value = value
        self.tol = tol
        super().__init__(f"{what} reaches {value:.3e} (tolerance {tol:.1e})")


class SymmetricCoefficientField(ex.Family):
    """Velocity-quadratic coefficient family Gamma^i_pq(t, x), symmetric in
    the two lower indices; storage [i][p][q], 0-based, full grid."""

    __slots__ = ()
    what = "coefficient"
    axes = "sss"
    kinds = (TEMPORAL, SPATIAL)
    symmetric = True


class AntisymmetricCouplingField(ex.Family):
    """Cross-temporal coupling family S(t, x) with storage
    [i][alpha][nu][p][q] (0-based): spatial value index i, distinct temporal
    pair (alpha, nu), antisymmetric spatial pair (p, q).  Entries with
    alpha = nu or p = q are structurally zero, and each (q, p) mirror is the
    negated node."""

    __slots__ = ()
    what = "coupling entry"
    axes = "sttss"
    kinds = (TEMPORAL, SPATIAL)
    antisymmetric = True

    def __init__(self, m: int, n: int, comps):
        super().__init__(m, n, comps)
        comps = ex.family_array(self.comps)
        for i, a, p, q in np.ndindex(n, m, n, n):
            if not ex.is_zero(comps[i, a, a, p, q]):
                label = ",".join(str(k + 1) for k in (i, a, a, p, q))
                raise ValueError(
                    f"entry ({label}) must be zero: a nonzero entry needs alpha != nu"
                )


# ---------------------------------------------------------------------------
# the homogeneous constraint system on the coupling coefficients
# ---------------------------------------------------------------------------


def temporal_pairs(m: int) -> tuple:
    """Row-major ordering of the distinct temporal index pairs (alpha, nu),
    1-based: (1,2), (1,3), ..., (2,1), (2,3), ..."""
    return tuple(
        (a, v)
        for a in range(1, m + 1)
        for v in range(1, m + 1)
        if v != a
    )


def _constraint_matrix(hm: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the homogeneous linear system tying the
    coupling values together: for each distinct pair (alpha, nu),

      2 S^nu_alpha = sum over eps != nu of
                      [hinv[eps,eps] S^nu_eps - hinv[nu,nu] S^eps_nu] h[eps,alpha]

    with the repeated raised indices read as literal diagonal entries of the
    inverse metric (no summation).  Unknowns follow temporal_pairs order."""
    m = hm.shape[0]
    pairs = temporal_pairs(m)
    col = {pair: k for k, pair in enumerate(pairs)}
    size = len(pairs)
    L = np.zeros((size, size))
    for row, (a, v) in enumerate(pairs):
        L[row, col[(a, v)]] += 2.0
        for eps in range(1, m + 1):
            if eps == v:
                continue
            L[row, col[(eps, v)]] -= hinv[eps - 1, eps - 1] * hm[eps - 1, a - 1]
            L[row, col[(v, eps)]] += hinv[v - 1, v - 1] * hm[eps - 1, a - 1]
    return L


class NullspaceResult(NamedTuple):
    """Null space of the coupling constraint system at one temporal point.

    ``pairs`` names the unknown ordering (S with lower index alpha and upper
    index nu sits at the position of pair (alpha, nu)); ``basis`` rows are
    orthonormal null vectors; ``caveat`` flags m = 2, where the source
    analysis assumes three or more times but the system itself is well-posed.
    """

    pairs: tuple
    matrix: np.ndarray
    basis: np.ndarray
    singular_values: np.ndarray
    caveat: bool

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def residual(self, vec) -> float:
        """max |matrix @ vec| — zero exactly when vec solves the system."""
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.shape != (len(self.pairs),):
            raise ValueError(f"expected a vector of length {len(self.pairs)}")
        return float(np.max(np.abs(self.matrix @ vec))) if len(vec) else 0.0


def star_star_nullspace(h: MetricField, t) -> NullspaceResult:
    """Assemble and solve the constraint system for the temporal metric at t.

    Rank is decided by singular values below RANK_CUTOFF times the largest;
    the returned basis rows are orthonormal right singular vectors of the
    null directions."""
    require_metric(h, TEMPORAL)
    m = h.dim
    if m < 2:
        raise ValueError("the constraint system needs at least two times")
    hm = h.evaluate(t)  # refuses degenerate metrics itself
    hinv = np.linalg.inv(hm)
    L = _constraint_matrix(hm, hinv)
    _, sing, vt = np.linalg.svd(L)
    cutoff = RANK_CUTOFF * float(sing[0]) if sing.size else 0.0
    rank = int(np.sum(sing > cutoff))
    return NullspaceResult(
        pairs=temporal_pairs(m),
        matrix=L,
        basis=vt[rank:].copy(),
        singular_values=sing,
        caveat=(m == 2),
    )


def coupling_constraint_residual(
    coupling: AntisymmetricCouplingField, h: MetricField, t, x
) -> float:
    """Worst constraint violation of the coupling field at (t, x), maximized
    over the spatial value index and spatial pairs.  ``t`` and ``x`` have
    shapes (m,) and (n,) for one point, or (m, K) and (n, K) for K points,
    evaluated as one batch and maximized over them too.  A batch raises
    what its first failing point raises alone (h, then the coupling field);
    a non-finite input propagates as nan."""
    m, n = coupling.m, coupling.n
    require_metric(h, TEMPORAL, m)
    if m < 2:
        return 0.0
    # one point is a batch of one: (d,) becomes (d, 1)
    t, x = (np.asarray(a, dtype=float).reshape(len(a), -1) for a in (t, x))
    hm, vals = ex.by_point(
        lambda tx: (h.evaluate(tx[0]), coupling.evaluate(*tx)), (t, x), zip(t.T, x.T)
    )
    pairs = temporal_pairs(m)
    residuals = []
    for k in range(hm.shape[-1]):
        L = _constraint_matrix(hm[..., k], np.linalg.inv(hm[..., k]))
        residuals.extend(
            L @ np.array([vals[i, a - 1, v - 1, p, q, k] for a, v in pairs])
            for i in range(n)
            for p in range(n)
            for q in range(n)
            if p != q
        )
    return float(np.max(np.abs(residuals), initial=0.0))


# ---------------------------------------------------------------------------
# building systems from the coefficient families
# ---------------------------------------------------------------------------

_PROBE_FRACTIONS = (0.3, 0.7)


def _probe_points(m: int, n: int):
    for ft, fx in zip(_PROBE_FRACTIONS, reversed(_PROBE_FRACTIONS)):
        yield np.full(m, ft), np.full(n, fx)
    yield np.linspace(0.2, 0.8, m), np.linspace(0.8, 0.2, n)


def build_characterized_system(
    gamma: SymmetricCoefficientField,
    coupling: AntisymmetricCouplingField,
    h: MetricField,
) -> PdeSystem:
    """Assemble the velocity-quadratic system determined by the two
    coefficient families and the temporal metric:

      F^i_ab = Gamma^i_pq v^p_a v^q_b - Ht^u_ab v^i_u
               + 2 delta_ab * sum(nu != a, p != q) S[i,a,nu,p,q] v^p_a v^q_nu

    (no implicit sum over a or b; Ht = temporal Christoffel symbols).
    The coupling field is probed against its constraint system at fixed
    sample points; violations raise a warning, not an error."""
    m, n = gamma.m, gamma.n
    if (coupling.m, coupling.n) != (m, n):
        raise ValueError("coefficient families have mismatched dimensions")
    require_metric(h, TEMPORAL, m)
    # the probe points as one batch: t (m, K) and x (n, K)
    t, x = (np.stack(block, axis=-1) for block in zip(*_probe_points(m, n)))
    worst = coupling_constraint_residual(coupling, h, t, x)
    if not worst <= CONSTRAINT_WARN_TOL:
        warnings.warn(
            f"coupling field violates its constraint system (residual "
            f"{worst:.3e} at probe points); the first invariant of the "
            f"built system need not vanish",
            RuntimeWarning,
            stacklevel=2,
        )
    ht = christoffel_sym(h)
    vv = ex.v_var

    def entry(i, a, b):
        terms = [
            mul(gamma.comps[i][p][q], mul(vv(p + 1, a + 1), vv(q + 1, b + 1)))
            for p in range(n)
            for q in range(n)
        ]
        terms.extend(neg(mul(ht[u][a][b], vv(i + 1, u + 1))) for u in range(m))
        if a == b:
            terms.extend(
                mul(
                    2.0,
                    mul(
                        coupling.comps[i][a][v][p][q],
                        mul(vv(p + 1, a + 1), vv(q + 1, v + 1)),
                    ),
                )
                for v in range(m)
                if v != a
                for p in range(n)
                for q in range(n)
                if p != q
            )
        return expr_sum(terms)

    return PdeSystem(m, n, ex.nested((n, m, m), entry, symmetric=True))


# ---------------------------------------------------------------------------
# polarization and structure extraction
# ---------------------------------------------------------------------------


class QuadraticDecomposition(ex.Frozen):
    """Numeric quadratic / linear / constant parts of a velocity-quadratic
    system at one base point:

      F[i,a,b] = quadratic[i,a,b,j,g,k,e] v[j,g] v[k,e]
                 + linear[i,a,b,j,g] v[j,g] + constant[i,a,b]

    with ``quadratic`` symmetrized over the paired slots ((j,g), (k,e))."""

    __slots__ = ("m", "n", "quadratic", "linear", "constant")

    def __init__(self, m: int, n: int, quadratic, linear, constant):
        if quadratic.shape != (n, m, m, n, m, n, m):
            raise ValueError("quadratic part has the wrong shape")
        if linear.shape != (n, m, m, n, m):
            raise ValueError("linear part has the wrong shape")
        if constant.shape != (n, m, m):
            raise ValueError("constant part has the wrong shape")
        self._set(m=m, n=n, quadratic=quadratic, linear=linear, constant=constant)

    def reconstruct(self, v: np.ndarray) -> np.ndarray:
        return (
            np.einsum("iabjgke,jg,ke->iab", self.quadratic, v, v)
            + np.einsum("iabjg,jg->iab", self.linear, v)
            + self.constant
        )


def quadratic_decomposition(
    system: PdeSystem, t, x
) -> QuadraticDecomposition:
    """Recover the three parts by evaluating the system at v = 0, at unit
    velocities, and at pairwise sums (polarization).  Works from evaluations
    only, so it doubles as an oracle for any symbolic path.

    The system is evaluated once, over the velocities 0, +e and -e for each
    unit velocity e in turn, then e_p + e_q for p < q."""
    m, n = system.m, system.n
    k = n * m  # unit velocity p sets v[j, g] with p = j*m + g
    units = np.eye(k).reshape(k, n, m)
    p, q = np.triu_indices(k, 1)
    signed = [u for e in units for u in (e, -e)]  # -e keeps its -0.0 entries
    vs = np.stack([np.zeros((n, m)), *signed, *(units[p] + units[q])], axis=-1)
    vals = system.evaluate(t, x, vs)
    const, pairs = vals[..., 0], vals[..., 2 * k + 1 :]
    plus, minus = vals[..., 1 : 2 * k : 2], vals[..., 2 : 2 * k + 1 : 2]
    quad = np.zeros((n, m, m, k, k))
    diag = np.arange(k)
    quad[..., diag, diag] = 0.5 * (plus + minus) - const[..., None]
    mixed = 0.5 * (pairs - plus[..., p] - plus[..., q] + const[..., None])
    quad[..., p, q] = mixed
    quad[..., q, p] = mixed
    linear = 0.5 * (plus - minus)
    return QuadraticDecomposition(
        m, n, quad.reshape(n, m, m, n, m, n, m), linear.reshape(n, m, m, n, m), const
    )


class ExtractionDiagnostics(NamedTuple):
    """Residual report accompanying an extraction: how exactly the system
    matched each structural hypothesis at the base point."""

    fifth_max: float
    eps_max: float
    symmetry_residual: float
    constant_max: float
    linear_residual: float
    gamma_spread: float
    rebuild_residual: float


def _probe_velocities(n: int, m: int) -> np.ndarray:
    return -1.0 + 2.0 * uniform_draws(97, (5, n, m))  # fixed: extraction is deterministic


def extract_structure(
    system: PdeSystem, h: MetricField, t, x
) -> tuple[np.ndarray, np.ndarray, ExtractionDiagnostics]:
    """Recover (Gamma values, coupling values, diagnostics) at a base point
    from a system whose first and fifth invariants vanish.

    Gamma values come back as an (n, n, n) array indexed [i, p, q]; coupling
    values as (n, m, m, n, n) indexed [i, alpha, nu, p, q].  Refuses systems
    with a cubic velocity term, a nonvanishing first invariant, or broken
    coefficient symmetries."""
    m, n = system.m, system.n
    require_metric(h, TEMPORAL, m)
    t = np.asarray(t, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    h.evaluate(t)  # refuses a metric degenerate at the base point
    vs = _probe_velocities(n, m)
    probes = np.stack(vs, axis=-1)
    pipe = InvariantPipeline(system, h)

    def probe_max(name):
        b = Bindings.jet(m, n, t, x, probes)
        return float(np.max(np.abs(ex.evaluate_nested(pipe.expressions(name), b))))

    fifth_max = 0.0 if ex.all_zero(pipe.expressions("D")) else probe_max("D")
    if not fifth_max <= QUADRATIC_TOL:
        raise NotVelocityQuadraticError(fifth_max)

    eps_max = probe_max("eps")
    if not eps_max <= HYPOTHESIS_TOL:
        raise HypothesisViolationError("first invariant", eps_max, HYPOTHESIS_TOL)

    dec = quadratic_decomposition(system, t, x)
    sym_gaps = (
        dec.quadratic - dec.quadratic.transpose(0, 2, 1, 3, 4, 5, 6),
        dec.linear - dec.linear.transpose(0, 2, 1, 3, 4),
        dec.constant - dec.constant.transpose(0, 2, 1),
    )
    sym_residual = float(np.max([np.max(np.abs(g)) for g in sym_gaps]))
    if not sym_residual <= SYMMETRY_TOL:
        raise HypothesisViolationError(
            "coefficient symmetry residual", sym_residual, SYMMETRY_TOL
        )

    constant_max = float(np.max(np.abs(dec.constant)))
    ht_vals = np.asarray(
        ex.evaluate_nested(christoffel_sym(h), Bindings.jet(m, n, t=t)),
        dtype=float,
    )
    # expected linear part: -Ht^nu_ab on the diagonal spatial positions
    linear_want = np.zeros((n, m, m, n, m))
    for i in range(n):
        linear_want[i, :, :, i, :] = -np.moveaxis(ht_vals, 0, -1)
    linear_residual = float(np.max(np.abs(dec.linear - linear_want)))

    # Gamma^i_pq sits at the fully diagonal temporal positions; every choice
    # of the diagonal time gives an independent read.
    reads = np.stack(
        [dec.quadratic[:, a, a, :, a, :, a] for a in range(m)]
    )
    gamma_vals = reads.mean(axis=0)
    gamma_spread = float(np.max(np.abs(reads - gamma_vals))) if m > 1 else 0.0

    coupling_vals = np.zeros((n, m, m, n, n))
    for a in range(m):
        for v in range(m):
            if v != a:
                coupling_vals[:, a, v, :, :] = dec.quadratic[:, a, a, :, a, :, v]

    # rebuild from the recovered values and compare against the system
    rebuild_gaps = []
    delta = np.eye(m)
    wants = system.evaluate(t, x, probes)
    for k, v in enumerate(vs):
        want = wants[..., k]
        got = np.einsum("ipq,pa,qb->iab", gamma_vals, v, v) - np.einsum(
            "uab,iu->iab", ht_vals, v
        )
        coupling_term = 2.0 * np.einsum(
            "iavpq,pa,qv->ia", coupling_vals, v, v
        )
        got += np.einsum("ia,ab->iab", coupling_term, delta)
        rebuild_gaps.append(got - want)
    rebuild_residual = float(np.max(np.abs(rebuild_gaps)))

    diagnostics = ExtractionDiagnostics(
        fifth_max=fifth_max,
        eps_max=eps_max,
        symmetry_residual=sym_residual,
        constant_max=constant_max,
        linear_residual=linear_residual,
        gamma_spread=gamma_spread,
        rebuild_residual=rebuild_residual,
    )
    return gamma_vals, coupling_vals, diagnostics
