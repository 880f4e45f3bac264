"""Shared numeric oracles and fixtures for the test suite.

Everything here is deliberately independent of the symbolic machinery under
test: finite differences over plain numeric callables, numpy linear algebra,
and a hand-coded classical (single-time) invariant pipeline.
"""

import contextlib
from unittest import mock

import numpy as np

from jetkcc import exprlang as ex
from jetkcc.jetgeom import JetPoint, MetricField


def rel_max(got, want) -> float:
    """Max deviation relative to the target's scale, with absolute fallback
    near zero: max|got - want| / max(1, max|want|)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    num = float(np.max(np.abs(got - want))) if got.size else 0.0
    den = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    return num / den


# ---------------------------------------------------------------------------
# finite-difference oracles over numeric callables
# ---------------------------------------------------------------------------


def fd_gradient(fn, z, step=1e-6):
    """Central-difference gradient of fn: R^d -> R^k, returns (k..., d)."""
    z = np.asarray(z, dtype=float)
    base = np.asarray(fn(z), dtype=float)
    out = np.empty(base.shape + (z.size,))
    for c in range(z.size):
        zp = z.copy()
        zp[c] += step
        zm = z.copy()
        zm[c] -= step
        out[..., c] = (np.asarray(fn(zp)) - np.asarray(fn(zm))) / (2.0 * step)
    return out


def fd_christoffel(metric_fn, z, step=1e-5):
    """Second-kind Christoffel symbols from a numeric metric callable.

    metric_fn: R^d -> (d, d).  Returns gamma[a, b, c], symmetric in (b, c).
    """
    z = np.asarray(z, dtype=float)
    d = z.size
    g = metric_fn(z)
    ginv = np.linalg.inv(g)
    dg = fd_gradient(metric_fn, z, step)  # dg[a, b, c] = d g_ab / d z_c
    gamma = np.empty((d, d, d))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                gamma[a, b, c] = 0.5 * sum(
                    ginv[a, u] * (dg[b, u, c] + dg[c, u, b] - dg[b, c, u])
                    for u in range(d)
                )
    return gamma


def fd_curvature_from_christoffel(gamma_fn, z, step=1e-5):
    """Curvature from a numeric Christoffel callable gamma_fn: R^d -> (d,d,d).

    R[i, p, q, j] = dG^i_pq/dz_j - dG^i_pj/dz_q
                    + sum_r (G^r_pq G^i_rj - G^r_pj G^i_rq)
    """
    z = np.asarray(z, dtype=float)
    d = z.size
    gam = gamma_fn(z)
    dgam = fd_gradient(gamma_fn, z, step)  # (d, d, d, d), last axis = z index
    out = np.empty((d, d, d, d))
    for i in range(d):
        for p in range(d):
            for q in range(d):
                for j in range(d):
                    out[i, p, q, j] = (
                        dgam[i, p, q, j]
                        - dgam[i, p, j, q]
                        + sum(
                            gam[r, p, q] * gam[i, r, j]
                            - gam[r, p, j] * gam[i, r, q]
                            for r in range(d)
                        )
                    )
    return out


# ---------------------------------------------------------------------------
# classical single-time invariants (hand-coded oracle for the m=1 reduction)
# ---------------------------------------------------------------------------


def classical_first_invariant(F_fn, t, x, v, step=1e-6):
    """eps^i = -F^i + 1/2 (dF^i/dv^r) v^r for F_fn(t, x, v) -> (n,)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = x.size
    F = np.asarray(F_fn(t, x, v), dtype=float)
    dFdv = np.empty((n, n))
    for r in range(n):
        vp = v.copy()
        vp[r] += step
        vm = v.copy()
        vm[r] -= step
        dFdv[:, r] = (np.asarray(F_fn(t, x, vp)) - np.asarray(F_fn(t, x, vm))) / (
            2.0 * step
        )
    return -F + 0.5 * dFdv @ v


def classical_deviation_curvature(F_fn, t, x, v, step=1e-4):
    """P^i_j = -dF^i/dx^j + 1/2 d2F^i/dt dv^j + 1/2 d2F^i/dx^r dv^j v^r
               - 1/2 d2F^i/dv^j dv^r F^r + 1/4 dF^i/dv^r dF^r/dv^j
    (single time, h = (1): no metric terms)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = x.size

    def dF_dv(tt, xx, vv):
        out = np.empty((n, n))
        for r in range(n):
            vp = vv.copy()
            vp[r] += step
            vm = vv.copy()
            vm[r] -= step
            out[:, r] = (
                np.asarray(F_fn(tt, xx, vp)) - np.asarray(F_fn(tt, xx, vm))
            ) / (2.0 * step)
        return out

    F = np.asarray(F_fn(t, x, v), dtype=float)
    dFdv = dF_dv(t, x, v)

    dFdx = np.empty((n, n))
    for j in range(n):
        xp = x.copy()
        xp[j] += step
        xm = x.copy()
        xm[j] -= step
        dFdx[:, j] = (np.asarray(F_fn(t, xp, v)) - np.asarray(F_fn(t, xm, v))) / (
            2.0 * step
        )

    d2F_tv = (dF_dv(t + step, x, v) - dF_dv(t - step, x, v)) / (2.0 * step)

    d2F_xv = np.empty((n, n, n))  # [i, j, r] = d2 F^i / dx^r dv^j
    for r in range(n):
        xp = x.copy()
        xp[r] += step
        xm = x.copy()
        xm[r] -= step
        d2F_xv[:, :, r] = (dF_dv(t, xp, v) - dF_dv(t, xm, v)) / (2.0 * step)

    d2F_vv = np.empty((n, n, n))  # [i, j, r] = d2 F^i / dv^j dv^r
    for r in range(n):
        vp = v.copy()
        vp[r] += step
        vm = v.copy()
        vm[r] -= step
        d2F_vv[:, :, r] = (dF_dv(t, x, vp) - dF_dv(t, x, vm)) / (2.0 * step)

    P = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            P[i, j] = (
                -dFdx[i, j]
                + 0.5 * d2F_tv[i, j]
                + 0.5 * sum(d2F_xv[i, j, r] * v[r] for r in range(n))
                - 0.5 * sum(d2F_vv[i, j, r] * F[r] for r in range(n))
                + 0.25 * sum(dFdv[i, r] * dFdv[r, j] for r in range(n))
            )
    return P


# ---------------------------------------------------------------------------
# reusable symbolic metric builders
# ---------------------------------------------------------------------------


def raw_parse(text: str, m: int, n: int) -> ex.Expression:
    """The tree of ``text`` as written, before ``parse`` makes it canonical,
    so the smart constructors' rules can be checked against it."""
    return ex._raw_tree(text, m, n)


def flat_metric(kind: str, d: int) -> MetricField:
    rows = [[ex.num(1.0 if a == b else 0.0) for b in range(d)] for a in range(d)]
    return MetricField(kind, tuple(tuple(r) for r in rows))


def random_spd_metric(kind: str, d: int, seed: int) -> MetricField:
    """B^T B + 2 I with affine-polynomial B entries: SPD everywhere."""
    rng = np.random.default_rng(seed)
    coord = ex.t_var if kind == ex.TEMPORAL else ex.x_var
    B = [
        [
            ex.add(
                ex.num(rng.uniform(-0.5, 0.5)),
                ex.mul(
                    ex.num(rng.uniform(-0.3, 0.3)), coord(int(1 + rng.integers(0, d)))
                ),
            )
            for _ in range(d)
        ]
        for _ in range(d)
    ]
    rows = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            entry = ex.expr_sum(ex.mul(B[k][a], B[k][b]) for k in range(d))
            if a == b:
                entry = ex.add(entry, 2.0)
            entry = ex.simplify(entry)
            rows[a][b] = entry
            rows[b][a] = entry
    return MetricField(kind, tuple(tuple(r) for r in rows))


def trig_diagonal_metric(kind: str, d: int, seed: int) -> MetricField:
    """Diagonal metric with entries 2 + amp*sin(coord + phase): nondegenerate."""
    rng = np.random.default_rng(seed)
    coord = ex.t_var if kind == ex.TEMPORAL else ex.x_var
    rows = [[ex.ZERO] * d for _ in range(d)]
    for a in range(d):
        amp = rng.uniform(0.3, 0.9)
        phase = rng.uniform(0, 3)
        k = 1 + int(rng.integers(0, d))
        rows[a][a] = ex.add(2.0, ex.mul(amp, ex.sin(ex.add(coord(k), phase))))
    return MetricField(kind, tuple(tuple(r) for r in rows))


def sphere_metric() -> MetricField:
    """Unit 2-sphere: diag(1, sin(x1)^2)."""
    return MetricField.spatial(
        (
            (ex.ONE, ex.ZERO),
            (ex.ZERO, ex.pow_(ex.sin(ex.x_var(1)), 2.0)),
        )
    )


def jacobians(cc, p: JetPoint):
    """The temporal and spatial Jacobians of a coordinate change at a point,
    the two factors ``dtransform.transform_dtensor`` takes."""
    return cc.temporal_jacobian(p.t), cc.spatial_jacobian(p.x)


@contextlib.contextmanager
def recorded_calls(owner, name: str, record=lambda *args, **kwargs: args):
    """A list that gets ``record(*args, **kwargs)`` of each call of the
    attribute ``name`` of ``owner`` (a module or a class) made inside the
    block, appended when the call returns; the call itself goes through."""
    calls = []
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(record(*args, **kwargs))
        return result

    with mock.patch.object(owner, name, recorded):
        yield calls


def reachable_walks():
    """A list that gets the root count of each walk of the DAG
    (``exprlang._reachable``) inside the block."""
    return recorded_calls(ex, "_reachable", lambda roots, enter=None: len(roots))


def lowered_tapes():
    """A list that gets the root count of each tape lowered inside the block
    (a timing-free measure of how often evaluation starts over)."""
    return recorded_calls(ex._Tape, "__init__", lambda tape, roots, *_: len(roots))


def lowered_slots():
    """A list that gets the slot count of each tape lowered inside the block
    (a timing-free measure of how much evaluation runs)."""
    return recorded_calls(ex._Tape, "__init__", lambda tape, *_: len(tape.nodes))


def interned_nodes() -> list:
    """Every expression node interned so far, in creation order."""
    nodes = [node for table in ex._NODES.values() for node in table.values()]
    return sorted(nodes, key=lambda node: node.index)


def tape_instructions(tape):
    """An iterator over a lowered tape's program, in order: one tuple
    (function, left slot, right slot or -1, out slot, drop left, drop right)
    per instruction."""
    return tape.instructions()


def metric_fn(metric: MetricField):
    """Numeric callable z -> (d, d) from a MetricField (for FD oracles)."""

    def fn(z):
        return metric.evaluate(z)

    return fn


def eval_nested(nested, bindings):
    """Evaluate a nested tuple structure of expressions to an ndarray."""

    def go(node):
        if isinstance(node, tuple):
            return [go(k) for k in node]
        return ex.evaluate(node, bindings)

    return np.asarray(go(nested), dtype=float)


def jet_point_on_sphere(theta, phi_ang, v):
    return JetPoint([0.0], [theta, phi_ang], np.asarray(v).reshape(2, 1))
