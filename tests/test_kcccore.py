import functools
import math
import warnings

import numpy as np
import pytest

import support
from jetkcc import exprlang as ex
from jetkcc.exprlang import Bindings, parse
from jetkcc.jetgeom import (
    DegenerateMetricError,
    JetPoint,
    MetricField,
    PdeSystem,
    build_affine_system,
    build_first_order_system,
    canonical_spatial_connection,
    canonical_spatial_semispray,
    canonical_temporal_connection,
    canonical_temporal_semispray,
    christoffel_sym,
    curvature_sym,
    sample_jet_points,
)
from jetkcc.kcccore import (
    INVARIANT_NAMES,
    InvariantPipeline,
    NonlinearConnection,
    SectionMap,
    SectionNotSolutionError,
    Semispray,
    VariationField,
    connection_part_from_temporal_semispray,
    fifth_invariant,
    invariant_slots,
    jacobi_identity_residual,
    on_section,
    sode_residual,
    spatial_semispray_from_connection,
    spatial_semispray_from_system,
    temporal_semispray_from_connection_part,
    variational_family,
)


# ---------------------------------------------------------------------------
# shared fixtures (cached: symbolic builds are the expensive part)
# ---------------------------------------------------------------------------


@functools.cache
def unit_h1():
    return MetricField(ex.TEMPORAL, ((ex.ONE,),))


@functools.cache
def curved_h2():
    return MetricField(
        ex.TEMPORAL,
        (
            (parse("1 + 0.3*t2^2", 2, 2), parse("0.2*t1*t2", 2, 2)),
            (parse("0.2*t1*t2", 2, 2), parse("2 + 0.1*t1^2", 2, 2)),
        ),
    )


@functools.cache
def curved_phi2():
    return MetricField(
        ex.SPATIAL,
        (
            (parse("1 + 0.5*x2^2", 2, 2), parse("0.25*x1*x2", 2, 2)),
            (parse("0.25*x1*x2", 2, 2), parse("2 + 0.4*x1^2", 2, 2)),
        ),
    )


@functools.cache
def affine_curved_pipeline():
    system = build_affine_system(curved_h2(), curved_phi2())
    return system, InvariantPipeline(system, curved_h2())


@functools.cache
def affine_flat_pipeline():
    system = build_affine_system(support.flat_metric(ex.TEMPORAL, 2), curved_phi2())
    return system, InvariantPipeline(system, support.flat_metric(ex.TEMPORAL, 2))


@functools.cache
def sphere_pipeline():
    system = build_affine_system(unit_h1(), support.sphere_metric())
    return system, InvariantPipeline(system, unit_h1())


@functools.cache
def random_symmetric_system():
    rng = np.random.default_rng(42)
    upper = {}
    for i in (1, 2):
        for a in (1, 2):
            for b in range(a, 3):
                c = rng.uniform(-1.5, 1.5, 3)
                upper[(i, a, b)] = parse(
                    f"{c[0]:.3f}*v{i}_1*v{i}_2 + {c[1]:.3f}*x{i}*t1"
                    f" + {c[2]:.3f}*sin(x{3 - i})",
                    2,
                    2,
                )
    return PdeSystem.from_upper(2, 2, upper)


@functools.cache
def zero_system_flat():
    zero = ex.nested((2, 2, 2), lambda i, a, b: ex.ZERO)
    system = PdeSystem(2, 2, zero)
    return system, InvariantPipeline(system, support.flat_metric(ex.TEMPORAL, 2))


@functools.cache
def linear_flow_system():
    """First-order flow prolonged to second order, kept unsymmetrized."""
    X = {
        (1, 1): parse("0.4*t1*x2 + 0.3*t2", 2, 2),
        (1, 2): parse("0.2*x1^2", 2, 2),
        (2, 1): parse("0.5*x1 - 0.1*t2^2", 2, 2),
        (2, 2): parse("0.3*x2*t1", 2, 2),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        system = build_first_order_system(X, 2, 2)
    return X, system


def flatten(nested):
    if isinstance(nested, tuple):
        out = []
        for k in nested:
            out.extend(flatten(k))
        return out
    return [nested]


def eval_curvature(phi, b):
    R = curvature_sym(phi)
    n = phi.dim
    return np.array(
        [
            [
                [[ex.evaluate(R[i][p][q][j], b) for j in range(n)] for q in range(n)]
                for p in range(n)
            ]
            for i in range(n)
        ]
    )


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_temporal_semispray_requires_symmetric_storage():
    good = (((parse("v1_1", 1, 1),),),)
    Semispray(1, 1, good)
    bad = (
        ((ex.ZERO, parse("t1", 2, 1)), (parse("t2", 2, 1), ex.ZERO)),
    )
    with pytest.raises(ValueError):
        Semispray(2, 1, bad)


def test_semispray_component_refuses_indices_outside_their_ranges():
    H = Semispray(2, 1, (((parse("v1_1", 2, 1), ex.ZERO), (ex.ZERO, ex.ZERO)),))
    assert H.component(1, 1, 1) is ex.v_var(1, 1)
    for index, message in [
        ((0, 1, 1), "index 1 is 0, outside the spatial range 1..1"),
        ((2, 1, 1), "index 1 is 2, outside the spatial range 1..1"),
        ((1, -1, 1), "index 2 is -1, outside the temporal range 1..2"),
        ((1, 1, 3), "index 3 is 3, outside the temporal range 1..2"),
        ((1, 1), "expected 3 indices, got 2"),
        ((1, 1, 1, 7), "expected 3 indices, got 4"),
    ]:
        with pytest.raises(ValueError, match=message):
            H.component(*index)


def test_section_map_rejects_jet_variables():
    with pytest.raises(ValueError):
        SectionMap(1, (parse("x1", 1, 1),))
    with pytest.raises(ValueError):
        VariationField(1, (parse("v1_1", 1, 1),))


def test_section_map_precomputes_velocity():
    sig = SectionMap(2, (parse("t1^2 + t2", 2, 1),))
    b = Bindings.from_names(2, 1, {"t1": 0.5, "t2": -1.0})
    assert ex.evaluate(sig.derivative[0][0], b) == pytest.approx(1.0)
    assert ex.evaluate(sig.derivative[0][1], b) == pytest.approx(1.0)
    p = sig.prolongation_point([0.5, -1.0])
    assert p.x[0] == pytest.approx(-0.75)
    assert p.v[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# semispray <-> connection-part correspondence
# ---------------------------------------------------------------------------


def test_connection_part_doubles_canonical_semispray():
    h = support.random_spd_metric(ex.TEMPORAL, 2, seed=31)
    H0 = canonical_temporal_semispray(h, 2)
    M0 = canonical_temporal_connection(h, 2)
    got = connection_part_from_temporal_semispray(Semispray(2, 2, H0))
    for p in sample_jet_points(2, 2, 10, seed=1):
        b = p.bindings()
        for i in range(2):
            for a in range(2):
                for c in range(2):
                    assert ex.evaluate(got[i][a][c], b) == pytest.approx(
                        ex.evaluate(M0[i][a][c], b), abs=1e-14
                    )


def test_zero_semispray_maps_to_zero_part():
    zero = tuple(
        tuple(tuple(ex.ZERO for _ in range(2)) for _ in range(2))
        for _ in range(2)
    )
    M = connection_part_from_temporal_semispray(Semispray(2, 2, zero))
    assert all(ex.is_zero(e) for e in flatten(M))


def test_correspondence_round_trip_is_exact():
    rng = np.random.default_rng(5)
    comps = []
    for i in range(2):
        plane = [[None] * 2 for _ in range(2)]
        for a in range(2):
            for b in range(a, 2):
                e = parse(
                    f"{rng.uniform(-2, 2):.3f}*v{i + 1}_1"
                    f" + {rng.uniform(-2, 2):.3f}*x{(i % 2) + 1}*t{b + 1}",
                    2,
                    2,
                )
                plane[a][b] = e
                plane[b][a] = e
        comps.append(tuple(tuple(r) for r in plane))
    H = Semispray(2, 2, tuple(comps))
    back = temporal_semispray_from_connection_part(
        connection_part_from_temporal_semispray(H), 2, 2
    )
    # halving the doubled coefficients folds back to the original nodes
    for i in range(2):
        for a in range(2):
            for b in range(2):
                assert back.comps[i][a][b] is H.comps[i][a][b]
    for p in sample_jet_points(2, 2, 50, seed=2):
        bnd = p.bindings()
        for i in range(2):
            for a in range(2):
                for b in range(2):
                    assert ex.evaluate(back.comps[i][a][b], bnd) == ex.evaluate(
                        H.comps[i][a][b], bnd
                    )


# ---------------------------------------------------------------------------
# spatial semispray from a system
# ---------------------------------------------------------------------------


def test_affine_system_semispray_is_canonical():
    system, _ = affine_curved_pipeline()
    G = spatial_semispray_from_system(system, curved_h2())
    G0 = canonical_spatial_semispray(curved_phi2(), 2)
    for p in sample_jet_points(2, 2, 20, seed=3):
        b = p.bindings()
        for i in range(2):
            for a in range(2):
                for c in range(2):
                    assert ex.evaluate(G.component(i + 1, a + 1, c + 1), b) == (
                        pytest.approx(ex.evaluate(G0[i][a][c], b), abs=1e-12)
                    )


def test_zero_system_flat_metric_gives_zero_semispray():
    system, _ = zero_system_flat()
    G = spatial_semispray_from_system(system, support.flat_metric(ex.TEMPORAL, 2))
    assert all(ex.is_zero(e) for e in flatten(G.comps))


def test_system_reconstruction_from_semispray():
    system = random_symmetric_system()
    h = curved_h2()
    G = spatial_semispray_from_system(system, h)
    gt = christoffel_sym(h)
    worst = 0.0
    for p in sample_jet_points(2, 2, 50, seed=4):
        b = p.bindings()
        for i in range(2):
            for a in range(2):
                for c in range(2):
                    gv = ex.evaluate(G.component(i + 1, a + 1, c + 1), b)
                    drift = sum(
                        ex.evaluate(gt[u][a][c], b) * p.v[i, u] for u in range(2)
                    )
                    fv = ex.evaluate(system.component(i + 1, a + 1, c + 1), b)
                    worst = max(worst, abs(2 * gv - drift - fv))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# connection from a system
# ---------------------------------------------------------------------------


def test_affine_flat_connection_matches_canonical():
    _, pipe = affine_flat_pipeline()
    N0 = canonical_spatial_connection(curved_phi2(), 2)
    for p in sample_jet_points(2, 2, 20, seed=5):
        b = p.bindings()
        for i in range(2):
            for a in range(2):
                for j in range(2):
                    assert ex.evaluate(pipe.connection.spatial[i][a][j], b) == (
                        pytest.approx(ex.evaluate(N0[i][a][j], b), abs=1e-12)
                    )


def test_zero_system_flat_metric_gives_zero_connection():
    _, pipe = zero_system_flat()
    assert all(ex.is_zero(e) for e in flatten(pipe.connection.spatial))


def test_connection_matches_fd_of_traced_semispray():
    system = random_symmetric_system()
    h = curved_h2()
    pipe = InvariantPipeline(system, h)
    G = pipe.semispray

    def traced_G(i, bnd, tvals):
        hinv = np.linalg.inv(h.evaluate(tvals))
        return sum(
            hinv[a, c] * ex.evaluate(G.component(i + 1, a + 1, c + 1), bnd)
            for a in range(2)
            for c in range(2)
        )

    worst = 0.0
    for p in sample_jet_points(2, 2, 8, seed=6):
        b = p.bindings()
        hm = h.evaluate(p.t)
        for i in range(2):
            for a in range(2):
                for j in range(2):
                    got = ex.evaluate(pipe.connection.spatial[i][a][j], b)
                    want = 0.0
                    for g in range(2):
                        vid = ex.VariableId(ex.VELOCITY, i=j + 1, alpha=g + 1)
                        step = 1e-6
                        up = b.with_value(vid, b.values[vid] + step)
                        dn = b.with_value(vid, b.values[vid] - step)
                        want += (
                            (traced_G(i, up, p.t) - traced_G(i, dn, p.t))
                            / (2 * step)
                            * hm[g, a]
                        )
                    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-5


def test_v_quadratic_system_yields_v_linear_connection():
    system, pipe = affine_curved_pipeline()
    for entry in flatten(pipe.connection.spatial):
        for j in range(1, 3):
            for g in range(1, 3):
                second = ex.differentiate(
                    ex.differentiate(entry, ex.v_var(j, g)), ex.v_var(j, g)
                )
                assert ex.is_zero(second)


# ---------------------------------------------------------------------------
# semispray from a connection
# ---------------------------------------------------------------------------


def test_canonical_connection_regenerates_canonical_semispray():
    phi = curved_phi2()
    conn = NonlinearConnection(
        2,
        2,
        canonical_temporal_connection(support.flat_metric(ex.TEMPORAL, 2), 2),
        canonical_spatial_connection(phi, 2),
    )
    G = spatial_semispray_from_connection(conn)
    G0 = canonical_spatial_semispray(phi, 2)
    for p in sample_jet_points(2, 2, 20, seed=7):
        b = p.bindings()
        for i in range(2):
            for a in range(2):
                for c in range(2):
                    assert ex.evaluate(G.component(i + 1, a + 1, c + 1), b) == (
                        pytest.approx(ex.evaluate(G0[i][a][c], b), abs=1e-12)
                    )


def test_zero_connection_gives_zero_semispray():
    zero_t = tuple(
        tuple(tuple(ex.ZERO for _ in range(2)) for _ in range(2))
        for _ in range(2)
    )
    conn = NonlinearConnection(2, 2, zero_t, zero_t)
    G = spatial_semispray_from_connection(conn)
    assert all(ex.is_zero(e) for e in flatten(G.comps))


def test_semispray_connection_round_trip_for_quadratic_system():
    # v-quadratic system, t-independent h: F -> G -> N -> G' returns G
    system, pipe = affine_flat_pipeline()
    G = pipe.semispray
    G2 = spatial_semispray_from_connection(pipe.connection)
    worst = 0.0
    for p in sample_jet_points(2, 2, 20, seed=8):
        b = p.bindings()
        for i in range(2):
            for a in range(2):
                for c in range(2):
                    worst = max(
                        worst,
                        abs(
                            ex.evaluate(G2.component(i + 1, a + 1, c + 1), b)
                            - ex.evaluate(G.component(i + 1, a + 1, c + 1), b)
                        ),
                    )
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# metric traces
# ---------------------------------------------------------------------------


def test_traces_flat_metric_sum_diagonal():
    system = random_symmetric_system()
    pipe = InvariantPipeline(system, support.flat_metric(ex.TEMPORAL, 2))
    Ftr, Htr = pipe.trace_system, pipe.trace_temporal
    assert all(ex.is_zero(e) for e in Htr)
    for p in sample_jet_points(2, 2, 10, seed=9):
        b = p.bindings()
        for i in range(2):
            want = ex.evaluate(system.component(i + 1, 1, 1), b) + ex.evaluate(
                system.component(i + 1, 2, 2), b
            )
            assert ex.evaluate(Ftr[i], b) == pytest.approx(want, abs=1e-13)


def test_traces_match_direct_contraction():
    system = random_symmetric_system()
    h = support.trig_diagonal_metric(ex.TEMPORAL, 2, seed=13)
    pipe = InvariantPipeline(system, h)
    Ftr, Htr = pipe.trace_system, pipe.trace_temporal
    gt = christoffel_sym(h)
    worst = 0.0
    for p in sample_jet_points(2, 2, 15, seed=10):
        b = p.bindings()
        hinv = np.linalg.inv(h.evaluate(p.t))
        fv = system.evaluate(p.t, p.x, p.v)
        gtv = np.array(
            [
                [[ex.evaluate(gt[g][a][c], b) for c in range(2)] for a in range(2)]
                for g in range(2)
            ]
        )
        for i in range(2):
            want = float(np.sum(hinv * fv[i]))
            worst = max(worst, abs(ex.evaluate(Ftr[i], b) - want))
        for g in range(2):
            want = float(np.sum(hinv * gtv[g]))
            worst = max(worst, abs(ex.evaluate(Htr[g], b) - want))
    assert worst <= 1e-12


def test_traces_m1_reduce_to_single_component():
    F = parse("v1_1^2 + x1", 1, 1)
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): F})
    pipe = InvariantPipeline(system, unit_h1())
    Ftr, Htr = pipe.trace_system, pipe.trace_temporal
    assert Ftr[0] == F
    assert ex.is_zero(Htr[0])


# ---------------------------------------------------------------------------
# first invariant
# ---------------------------------------------------------------------------


def test_affine_first_invariant_vanishes():
    _, pipe = affine_curved_pipeline()
    worst = 0.0
    for p in sample_jet_points(2, 2, 100, seed=11):
        worst = max(worst, float(np.max(np.abs(pipe.evaluate("eps", p).values))))
    assert worst <= 1e-9


def test_zero_system_first_invariant_zero():
    _, pipe = zero_system_flat()
    assert all(ex.is_zero(e) for e in flatten(pipe.first_invariant))


def test_linear_flow_first_invariant_closed_form():
    X, system = linear_flow_system()
    h = curved_h2()
    pipe = InvariantPipeline(system, h)
    gt = christoffel_sym(h)
    worst = 0.0
    for p in sample_jet_points(2, 2, 25, seed=12):
        b = p.bindings()
        got = pipe.evaluate("eps", p).values
        hm = h.evaluate(p.t)
        hinv = np.linalg.inv(hm)
        gtv = np.array(
            [
                [[ex.evaluate(gt[g][a][c], b) for c in range(2)] for a in range(2)]
                for g in range(2)
            ]
        )
        Htr = np.einsum("ab,gab->g", hinv, gtv)
        want = np.empty((2, 2, 2))
        for i in range(2):
            for a in range(2):
                xia = X[(i + 1, a + 1)]
                for c in range(2):
                    dt = ex.evaluate(ex.differentiate(xia, ex.t_var(c + 1)), b)
                    dx = sum(
                        ex.evaluate(ex.differentiate(xia, ex.x_var(r + 1)), b)
                        * p.v[r, c]
                        for r in range(2)
                    )
                    drift = (
                        0.5
                        * sum(Htr[g] * hm[g, a] for g in range(2))
                        * p.v[i, c]
                    )
                    christ = sum(gtv[u, a, c] * p.v[i, u] for u in range(2))
                    want[i, a, c] = dt + 0.5 * dx + drift - christ
        worst = max(worst, support.rel_max(got, want))
    assert worst <= 1e-10


def test_first_invariant_slots():
    _, pipe = sphere_pipeline()
    p = support.jet_point_on_sphere(1.1, 0.4, [[0.3], [0.7]])
    val = pipe.evaluate("eps", p)
    kinds = [(s.kind, s.upper) for s in val.slots]
    assert kinds == [(ex.SPATIAL, True), (ex.TEMPORAL, False), (ex.TEMPORAL, False)]
    assert val.values.shape == (2, 1, 1)


# ---------------------------------------------------------------------------
# deviation curvature
# ---------------------------------------------------------------------------


def test_affine_deviation_matches_curvature_contraction():
    system, pipe = affine_curved_pipeline()
    h = curved_h2()
    worst = 0.0
    for p in sample_jet_points(2, 2, 100, seed=14):
        b = p.bindings()
        hinv = np.linalg.inv(h.evaluate(p.t))
        Rv = eval_curvature(curved_phi2(), b)
        want = -np.einsum("ab,ipqj,pa,qb->ij", hinv, Rv, p.v, p.v)
        got = pipe.evaluate("P", p).values
        worst = max(worst, support.rel_max(got, want))
    assert worst <= 1e-8


def test_zero_system_deviation_zero():
    _, pipe = zero_system_flat()
    assert all(ex.is_zero(e) for e in flatten(pipe.deviation_curvature))


def test_oscillator_deviation_is_minus_one():
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("x1", 1, 1)})
    P = InvariantPipeline(system, unit_h1()).deviation_curvature
    for p in sample_jet_points(1, 1, 10, seed=15):
        assert ex.evaluate(P[0][0], p.bindings()) == pytest.approx(-1.0, abs=1e-14)


def test_classical_reduction_m1():
    # hand-assembled single-time forms:
    #   eps = -F + (dF/dv) v / 2
    #   P = -dF/dx + d2F/dtdv/2 + (d2F/dxdv) v/2 - (d2F/dv2) F/2 + (dF/dv)^2/4
    F = parse("v1_1^2*x1 + sin(t1)*v1_1 + exp(0.3*x1)", 1, 1)
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): F})
    pipe = InvariantPipeline(system, unit_h1())
    t1, x1, v11 = ex.t_var(1), ex.x_var(1), ex.v_var(1, 1)
    dFdv = ex.differentiate(F, v11)
    eps_cl = ex.add(ex.neg(F), ex.mul(ex.mul(0.5, dFdv), v11))
    P_cl = ex.neg(ex.differentiate(F, x1))
    P_cl = ex.add(P_cl, ex.mul(0.5, ex.differentiate(dFdv, t1)))
    P_cl = ex.add(P_cl, ex.mul(ex.mul(0.5, ex.differentiate(dFdv, x1)), v11))
    P_cl = ex.sub(P_cl, ex.mul(ex.mul(0.5, ex.differentiate(dFdv, v11)), F))
    P_cl = ex.add(P_cl, ex.mul(ex.mul(0.25, dFdv), dFdv))
    worst = 0.0
    for p in sample_jet_points(1, 1, 30, seed=16):
        b = p.bindings()
        worst = max(
            worst,
            abs(
                ex.evaluate(pipe.first_invariant[0][0][0], b)
                - ex.evaluate(eps_cl, b)
            ),
            abs(
                ex.evaluate(pipe.deviation_curvature[0][0], b)
                - ex.evaluate(P_cl, b)
            ),
        )
    assert worst <= 1e-10


def test_classical_reduction_against_fd_pipeline():
    # slow-path sanity: the separately hand-coded numeric reduction in
    # support (finite differences all the way down) agrees too
    F = parse("v1_1^2*x1 + sin(t1)*v1_1 + exp(0.3*x1)", 1, 1)
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): F})
    pipe = InvariantPipeline(system, unit_h1())

    def F_fn(t, x, v):
        b = Bindings.from_names(
            1, 1, {"t1": float(t), "x1": float(x[0]), "v1_1": float(v[0])}
        )
        return np.array([ex.evaluate(F, b)])

    worst = 0.0
    for p in sample_jet_points(1, 1, 5, seed=17):
        b = p.bindings()
        t = float(p.t[0])
        worst = max(
            worst,
            abs(
                ex.evaluate(pipe.first_invariant[0][0][0], b)
                - support.classical_first_invariant(F_fn, t, p.x, p.v[:, 0])[0]
            ),
        )
        worst = max(
            worst,
            abs(
                ex.evaluate(pipe.deviation_curvature[0][0], b)
                - support.classical_deviation_curvature(F_fn, t, p.x, p.v[:, 0])[
                    0, 0
                ]
            ),
        )
    assert worst <= 1e-4


def test_linear_flow_deviation_closed_form():
    # for a prolonged first-order flow the deviation operator collapses to
    #   P^i_j = h^{ab}[d2X^i_a/dt^b dx^j + (d2X^i_a/dx^r dx^j) v^r_b]/2
    #         + h^{ab}(dX^i_a/dx^r)(dX^r_b/dx^j)/4 + K delta^i_j
    X, system = linear_flow_system()
    h = curved_h2()
    pipe = InvariantPipeline(system, h)
    gt = christoffel_sym(h)
    hinv_rows = h.inverse().rows
    # independent symbolic K from the metric alone
    Htr = [
        ex.simplify(
            ex.expr_sum(
                ex.mul(hinv_rows[a][c], gt[g][a][c])
                for a in range(2)
                for c in range(2)
            )
        )
        for g in range(2)
    ]
    k_expr = ex.expr_sum(
        [
            ex.mul(
                0.5,
                ex.expr_sum(
                    ex.differentiate(Htr[g], ex.t_var(g + 1)) for g in range(2)
                ),
            ),
            ex.mul(
                0.5,
                ex.expr_sum(
                    ex.mul(
                        hinv_rows[g][e],
                        ex.mul(
                            ex.differentiate(h.rows[u][g], ex.t_var(e + 1)),
                            Htr[u],
                        ),
                    )
                    for g in range(2)
                    for e in range(2)
                    for u in range(2)
                ),
            ),
            ex.neg(
                ex.mul(
                    0.25,
                    ex.expr_sum(
                        ex.mul(h.rows[g][u], ex.mul(Htr[g], Htr[u]))
                        for g in range(2)
                        for u in range(2)
                    ),
                )
            ),
        ]
    )
    worst = 0.0
    for p in sample_jet_points(2, 2, 25, seed=18):
        b = p.bindings()
        hinv = np.linalg.inv(h.evaluate(p.t))
        kv = ex.evaluate(k_expr, b)
        dX = np.empty((2, 2, 2))  # dX[i][a][r] = dX^i_a/dx^r
        for i in range(2):
            for a in range(2):
                for r in range(2):
                    dX[i, a, r] = ex.evaluate(
                        ex.differentiate(X[(i + 1, a + 1)], ex.x_var(r + 1)), b
                    )
        want = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for a in range(2):
                    for c in range(2):
                        mixed = ex.evaluate(
                            ex.differentiate(
                                ex.differentiate(
                                    X[(i + 1, a + 1)], ex.x_var(j + 1)
                                ),
                                ex.t_var(c + 1),
                            ),
                            b,
                        )
                        spatial2 = sum(
                            ex.evaluate(
                                ex.differentiate(
                                    ex.differentiate(
                                        X[(i + 1, a + 1)], ex.x_var(r + 1)
                                    ),
                                    ex.x_var(j + 1),
                                ),
                                b,
                            )
                            * p.v[r, c]
                            for r in range(2)
                        )
                        cross = sum(
                            dX[i, a, r] * dX[r, c, j] for r in range(2)
                        )
                        acc += hinv[a, c] * (
                            0.5 * (mixed + spatial2) + 0.25 * cross
                        )
                want[i, j] = acc + (kv if i == j else 0.0)
        worst = max(worst, support.rel_max(pipe.evaluate("P", p).values, want))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# third invariant
# ---------------------------------------------------------------------------


def test_affine_third_invariant_closed_form():
    system, pipe = affine_curved_pipeline()
    h = curved_h2()
    worst = 0.0
    for p in sample_jet_points(2, 2, 40, seed=19):
        b = p.bindings()
        hinv = np.linalg.inv(h.evaluate(p.t))
        Rv = eval_curvature(curved_phi2(), b)
        want = np.einsum("am,ipjk,pm->iajk", hinv, Rv, p.v)
        got = pipe.evaluate("R", p).values
        worst = max(worst, support.rel_max(got, want))
    assert worst <= 1e-8


def test_linear_flow_higher_invariants_vanish():
    _, system = linear_flow_system()
    pipe = InvariantPipeline(system, curved_h2())
    for p in sample_jet_points(2, 2, 10, seed=20):
        assert np.max(np.abs(pipe.evaluate("R", p).values)) <= 1e-12
        assert np.max(np.abs(pipe.evaluate("B", p).values)) <= 1e-12
    assert all(ex.is_zero(e) for e in flatten(pipe.fifth_invariant))


def test_third_invariant_antisymmetry():
    system = random_symmetric_system()
    pipe = InvariantPipeline(system, curved_h2())
    R = pipe.third_invariant
    # structural: diagonal entries fold to zero, mirrors are shared negations
    for i in range(2):
        for a in range(2):
            for j in range(2):
                assert ex.is_zero(R[i][a][j][j])
    # sampled: rebuild both orders from the deviation derivatives directly
    P = pipe.deviation_curvature

    def dP(i, j, k, a):
        return ex.differentiate(P[i][j], ex.v_var(k + 1, a + 1))

    worst = 0.0
    for p in sample_jet_points(2, 2, 10, seed=21):
        b = p.bindings()
        for i in range(2):
            for a in range(2):
                for j in range(2):
                    for k in range(2):
                        direct = (
                            ex.evaluate(dP(i, j, k, a), b)
                            - ex.evaluate(dP(i, k, j, a), b)
                        ) / 3.0
                        worst = max(
                            worst,
                            abs(ex.evaluate(R[i][a][j][k], b) - direct),
                            abs(
                                ex.evaluate(R[i][a][j][k], b)
                                + ex.evaluate(R[i][a][k][j], b)
                            ),
                        )
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# fourth invariant
# ---------------------------------------------------------------------------


def test_affine_fourth_invariant_closed_form():
    system, pipe = affine_curved_pipeline()
    h = curved_h2()
    worst = 0.0
    for p in sample_jet_points(2, 2, 40, seed=22):
        b = p.bindings()
        hinv = np.linalg.inv(h.evaluate(p.t))
        Rv = eval_curvature(curved_phi2(), b)
        want = np.einsum("ab,iljk->iajklb", hinv, Rv)
        got = pipe.evaluate("B", p).values
        worst = max(worst, support.rel_max(got, want))
    assert worst <= 1e-8


def test_v_free_system_kills_higher_invariants():
    upper = {
        (1, 1, 1): parse("sin(x1)", 1, 1),
    }
    system = PdeSystem.from_upper(1, 1, upper)
    pipe = InvariantPipeline(system, unit_h1())
    assert all(ex.is_zero(e) for e in flatten(pipe.third_invariant))
    assert all(ex.is_zero(e) for e in flatten(pipe.fourth_invariant))


def test_fourth_invariant_v_independent_for_quadratic():
    system, pipe = affine_curved_pipeline()
    for entry in flatten(pipe.fourth_invariant):
        for j in range(1, 3):
            for g in range(1, 3):
                assert ex.is_zero(ex.differentiate(entry, ex.v_var(j, g)))


# ---------------------------------------------------------------------------
# fifth invariant
# ---------------------------------------------------------------------------


def test_fifth_invariant_structurally_zero_for_quadratic():
    system, pipe = affine_curved_pipeline()
    assert all(ex.is_zero(e) for e in flatten(pipe.fifth_invariant))


def test_fifth_invariant_cube_component():
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("v1_1^3", 1, 1)})
    D = fifth_invariant(system)
    leaf = D[0][0][0][0][0][0][0][0][0]
    b = Bindings.from_names(1, 1, {"t1": 0.0, "x1": 0.0, "v1_1": 0.7})
    assert ex.evaluate(leaf, b) == pytest.approx(6.0)


def test_fifth_invariant_permutation_symmetry():
    # partial derivatives commute: permuting the three derivative pairs
    # reads the same stored node, and independently built orders agree
    upper = {
        (1, 1, 1): parse("v1_1^2*v2_1 + sin(v2_1)", 1, 2),
        (2, 1, 1): parse("v1_1*v2_1^2 + exp(0.2*v1_1)", 1, 2),
    }
    system = PdeSystem.from_upper(1, 2, upper)
    D = fifth_invariant(system)
    for j, k, l in [(0, 1, 0), (1, 0, 0), (0, 0, 1)]:
        assert D[0][0][0][j][0][k][0][l][0] is D[0][0][0][k][0][j][0][l][0]
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        b = Bindings.from_names(
            1,
            2,
            {
                "t1": rng.uniform(-1, 1),
                "x1": rng.uniform(-1, 1),
                "x2": rng.uniform(-1, 1),
                "v1_1": rng.uniform(-2, 2),
                "v2_1": rng.uniform(-2, 2),
            },
        )
        for i in range(2):
            base = system.component(i + 1, 1, 1)
            orders = [
                (ex.v_var(1, 1), ex.v_var(2, 1), ex.v_var(2, 1)),
                (ex.v_var(2, 1), ex.v_var(2, 1), ex.v_var(1, 1)),
                (ex.v_var(2, 1), ex.v_var(1, 1), ex.v_var(2, 1)),
            ]
            vals = []
            for o in orders:
                d = base
                for var in o:
                    d = ex.differentiate(d, var)
                vals.append(ex.evaluate(d, b))
            stored = ex.evaluate(D[i][0][0][0][0][1][0][1][0], b)
            for v in vals:
                worst = max(worst, abs(v - stored))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# covariant derivatives
# ---------------------------------------------------------------------------


def test_grad_of_velocity_equals_first_invariant():
    system, pipe = sphere_pipeline()
    sigma = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    T = tuple(tuple(ex.v_var(i + 1, a + 1) for a in range(1)) for i in range(2))
    for tval in (0.0, 0.4, 1.3):
        fam = InvariantPipeline(system, unit_h1()).covariant_derivative_family(T)
        got = on_section(fam, sigma, [tval])
        want = pipe.evaluate("eps", sigma.prolongation_point([tval])).values
        assert np.max(np.abs(got - want)) <= 1e-12


def test_grad_constant_flat_zero():
    system, pipe = zero_system_flat()
    sigma = SectionMap(2, (parse("t1", 2, 2), parse("t2", 2, 2)))
    T = tuple(
        tuple(ex.num(1.5 + i + a) for a in range(2)) for i in range(2)
    )
    pipe = InvariantPipeline(system, support.flat_metric(ex.TEMPORAL, 2))
    got = on_section(pipe.covariant_derivative_family(T), sigma, [0.2, -0.7])
    assert np.max(np.abs(got)) == 0.0


def test_grad_velocity_flat_linear_section_zero():
    system, _ = zero_system_flat()
    sigma = SectionMap(
        2, (parse("0.3*t1 - t2", 2, 2), parse("1.2*t2 + 0.1", 2, 2))
    )
    T = tuple(tuple(ex.v_var(i + 1, a + 1) for a in range(2)) for i in range(2))
    pipe = InvariantPipeline(system, support.flat_metric(ex.TEMPORAL, 2))
    got = on_section(pipe.covariant_derivative_family(T), sigma, [0.5, 0.25])
    assert np.max(np.abs(got)) == 0.0


def test_grad_variation_zero_field():
    system, _ = sphere_pipeline()
    sigma = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    xi = VariationField(1, (ex.ZERO, ex.ZERO))
    fam = InvariantPipeline(system, unit_h1()).variation_derivative(xi)
    got = on_section(fam, sigma, [0.3])
    assert np.max(np.abs(got)) == 0.0


def test_grad_variation_affine_reduction():
    # for geodesic-type systems the variation derivative reduces to
    # dxi/dt^a + gamma^i_pr v^p_a xi^r along the prolongation
    system, pipe = sphere_pipeline()
    gam = christoffel_sym(support.sphere_metric())
    sigma = SectionMap(1, (parse("1.1 + 0.2*t1", 1, 2), parse("0.5*t1", 1, 2)))
    xi = VariationField(1, (parse("sin(t1)", 1, 2), parse("t1^2", 1, 2)))
    for tval in (0.1, 0.8):
        fam = InvariantPipeline(system, unit_h1()).variation_derivative(xi)
        got = on_section(fam, sigma, [tval])
        p = sigma.prolongation_point([tval])
        b = p.bindings()
        tb = Bindings.from_names(1, 2, {"t1": tval})
        want = np.empty((2, 1))
        for i in range(2):
            acc = ex.evaluate(xi.derivative[i][0], tb)
            for pp in range(2):
                for r in range(2):
                    acc += (
                        ex.evaluate(gam[i][pp][r], b)
                        * p.v[pp, 0]
                        * ex.evaluate(xi.comps[r], tb)
                    )
            want[i, 0] = acc
        assert support.rel_max(got, want) <= 1e-12


def test_grad_variation_flat_linear_is_constant():
    system, _ = zero_system_flat()
    sigma = SectionMap(2, (parse("t1", 2, 2), parse("t2", 2, 2)))
    xi = VariationField(2, (parse("2*t1 - t2", 2, 2), parse("0.5*t2", 2, 2)))
    pipe = InvariantPipeline(system, support.flat_metric(ex.TEMPORAL, 2))
    vals = [
        on_section(pipe.variation_derivative(xi), sigma, t)
        for t in ([0.0, 0.0], [0.7, -0.3], [-1.0, 1.0])
    ]
    for v in vals[1:]:
        assert np.array_equal(v, vals[0])


# ---------------------------------------------------------------------------
# residuals of the underlying equations
# ---------------------------------------------------------------------------


def test_sode_flat_linear_zero():
    system, _ = zero_system_flat()
    sigma = SectionMap(
        2, (parse("0.3*t1 - t2", 2, 2), parse("1.2*t2 + 0.1", 2, 2))
    )
    assert np.max(np.abs(sode_residual(system, sigma, [0.4, -0.2]))) == 0.0


def test_sode_sphere_equator():
    system, _ = sphere_pipeline()
    sigma = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    for tval in (0.0, 0.9, 2.2):
        assert np.max(np.abs(sode_residual(system, sigma, [tval]))) <= 1e-10


def test_sode_non_solution_matches_fd():
    system, _ = sphere_pipeline()
    sigma = SectionMap(1, (parse("1.0 + 0.2*t1^2", 1, 2), parse("0.7*t1", 1, 2)))
    tval = 0.6
    got = sode_residual(system, sigma, [tval])
    assert np.max(np.abs(got)) > 1e-3  # genuinely not a solution
    step = 1e-4

    def x_of(i, t):
        return ex.evaluate(
            sigma.comps[i], Bindings.from_names(1, 2, {"t1": t})
        )

    p = sigma.prolongation_point([tval])
    fv = system.evaluate(p.t, p.x, p.v)
    want = np.empty((2, 1, 1))
    for i in range(2):
        second = (
            x_of(i, tval + step) - 2 * x_of(i, tval) + x_of(i, tval - step)
        ) / step**2
        want[i, 0, 0] = second + fv[i, 0, 0]
    assert support.rel_max(got, want) <= 1e-5


def test_variational_zero_field_and_flat_linear():
    system, _ = zero_system_flat()
    sigma = SectionMap(2, (parse("t1", 2, 2), parse("t2+1", 2, 2)))
    zero_xi = VariationField(2, (ex.ZERO, ex.ZERO))
    lin_xi = VariationField(2, (parse("t1 - 2*t2", 2, 2), parse("3*t1", 2, 2)))
    for xi in (zero_xi, lin_xi):
        got = on_section(variational_family(system, xi), sigma, [0.3, 0.5])
        assert np.max(np.abs(got)) == 0.0


def test_variational_sphere_jacobi_field():
    # along the equator, xi = sin(t) * (polar direction) solves the
    # linearized system: the classical transverse field on a unit sphere
    system, _ = sphere_pipeline()
    sigma = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    xi = VariationField(1, (parse("sin(t1)", 1, 2), ex.ZERO))
    for tval in (0.0, 0.5, 1.4, 2.8):
        got = on_section(variational_family(system, xi), sigma, [tval])
        assert np.max(np.abs(got)) <= 1e-8


def test_variational_h_trace_matches_numeric_trace():
    _, system = linear_flow_system()
    h = curved_h2()
    sigma = SectionMap(2, (parse("0.2*t1", 2, 2), parse("0.1*t2 + 0.4", 2, 2)))
    xi = VariationField(2, (parse("sin(t1)*t2", 2, 2), parse("t1^2", 2, 2)))
    t = [0.3, -0.6]
    full = on_section(variational_family(system, xi), sigma, t)
    hinv = np.linalg.inv(h.evaluate(np.asarray(t)))
    want = np.einsum("ab,iab->i", hinv, full)
    traced = InvariantPipeline(system, h).h_trace(variational_family(system, xi))
    got = on_section(traced, sigma, t)
    assert np.max(np.abs(got - want)) <= 1e-14


# ---------------------------------------------------------------------------
# deviation-form (Jacobi) residual
# ---------------------------------------------------------------------------


def test_jacobi_flat_linear_zero():
    system, _ = zero_system_flat()
    sigma = SectionMap(2, (parse("t1 - t2", 2, 2), parse("0.5*t2", 2, 2)))
    xi = VariationField(2, (parse("t1", 2, 2), parse("2*t2 - t1", 2, 2)))
    got = jacobi_identity_residual(
        system, support.flat_metric(ex.TEMPORAL, 2), sigma, xi, [0.2, 0.8]
    )
    assert np.max(np.abs(got)) == 0.0


def test_jacobi_sphere_closed_form_field():
    system, _ = sphere_pipeline()
    sigma = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    xi = VariationField(1, (parse("sin(t1)", 1, 2), ex.ZERO))
    for tval in (0.3, 1.0, 2.1):
        got = jacobi_identity_residual(system, unit_h1(), sigma, xi, [tval])
        assert np.max(np.abs(got)) <= 1e-6


def test_jacobi_equals_h_trace_variational_for_any_variation():
    # the deviation-form rewriting is an identity along solutions: for an
    # arbitrary (non-solution) variation field both residuals coincide
    system, _ = sphere_pipeline()
    sigma = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    xi = VariationField(
        1, (parse("0.7*sin(2*t1) + 0.1", 1, 2), parse("0.3*t1^2", 1, 2))
    )
    for tval in (0.25, 0.9, 1.7):
        jr = jacobi_identity_residual(system, unit_h1(), sigma, xi, [tval])
        traced = InvariantPipeline(system, unit_h1()).h_trace(
            variational_family(system, xi)
        )
        vr = on_section(traced, sigma, [tval])
        assert np.max(np.abs(jr - vr)) <= 1e-10


def test_jacobi_affine_display_cross_check():
    # independent route for geodesic-type systems: the same residual must
    # equal h^{ab}(grad grad xi)_ab + h^{ab} R^i_{pqr} v^p_a v^q_b xi^r
    system, pipe = sphere_pipeline()
    sigma = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    xi = VariationField(1, (parse("0.4*t1^2", 1, 2), parse("sin(t1)", 1, 2)))
    N = pipe.connection.spatial
    first = tuple(
        tuple(
            ex.add(
                xi.derivative[i][a],
                ex.expr_sum(ex.mul(N[i][a][r], xi.comps[r]) for r in range(2)),
            )
            for a in range(1)
        )
        for i in range(2)
    )
    for tval in (0.35, 1.2):
        fam = InvariantPipeline(system, unit_h1()).covariant_derivative_family(
            first
        )
        grad2 = on_section(fam, sigma, [tval])
        p = sigma.prolongation_point([tval])
        b = p.bindings()
        tb = Bindings.from_names(1, 2, {"t1": tval})
        Rv = eval_curvature(support.sphere_metric(), b)
        xiv = np.array([ex.evaluate(c, tb) for c in xi.comps])
        curv = np.einsum("ipqr,pa,qb,r->iab", Rv, p.v, p.v, xiv)
        display = (grad2 + curv)[:, 0, 0]  # h = (1): trace is the sole entry
        got = jacobi_identity_residual(system, unit_h1(), sigma, xi, [tval])
        # the display states grad-grad-xi + curvature term = 0 for true
        # deviation fields; for arbitrary xi both routes measure the same
        # defect, which is exactly the residual returned
        assert support.rel_max(got, display) <= 1e-6


def test_jacobi_refuses_non_solution():
    system, _ = sphere_pipeline()
    bad = SectionMap(1, (parse("t1^2", 1, 2), parse("t1", 1, 2)))
    xi = VariationField(1, (parse("sin(t1)", 1, 2), ex.ZERO))
    with pytest.raises(SectionNotSolutionError) as err:
        jacobi_identity_residual(system, unit_h1(), bad, xi, [0.4])
    assert err.value.max_residual > 1e-3
    assert "not a solution" in str(err.value)


def test_jacobi_batch_raises_at_the_first_failing_t():
    system, _ = sphere_pipeline()
    bad = SectionMap(1, (parse("t1^2", 1, 2), parse("t1", 1, 2)))
    xi = VariationField(1, (parse("sin(t1)", 1, 2), ex.ZERO))
    with pytest.raises(SectionNotSolutionError) as err:
        jacobi_identity_residual(system, unit_h1(), bad, xi, [[0.7, 0.4, -0.2]])
    assert err.value.t == (0.7,)


def test_jacobi_builds_one_pipeline_along_its_error_path():
    # the batch fails at t = -0.9, then runs t by t up to it; every run
    # shares the one pipeline and the one deviation family built before the
    # stages
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("x1", 1, 1)})
    sigma = SectionMap(1, (parse("sin(t1)", 1, 1),))
    xi = VariationField(1, (parse("log(t1 + 0.5)", 1, 1),))
    with (
        support.recorded_calls(InvariantPipeline, "__init__") as pipelines,
        support.recorded_calls(InvariantPipeline, "jacobi_lhs_minus_rhs") as families,
        pytest.raises(ex.EvaluationError) as err,
    ):
        jacobi_identity_residual(system, unit_h1(), sigma, xi, [[0.1, 0.2, -0.9, 0.3]])
    assert str(err.value).startswith("log of non-positive value -0.4 in ")
    assert len(pipelines) == 1
    assert len(families) == 1


def _section_cases():
    """(system, h, section, variation, T[i][a], batch of t) for the sphere
    equator and a flat linear section."""
    sphere, _ = sphere_pipeline()
    equator = SectionMap(1, (ex.num(math.pi / 2), ex.t_var(1)))
    xi1 = VariationField(
        1, (parse("0.7*sin(2*t1) + 0.1", 1, 2), parse("0.3*t1^2", 1, 2))
    )
    T1 = ((parse("x2*t1^2 + v1_1", 1, 2),), (parse("sin(x1)*v2_1", 1, 2),))
    flat, _ = zero_system_flat()
    linear = SectionMap(2, (parse("t1 - t2", 2, 2), parse("0.5*t2", 2, 2)))
    xi2 = VariationField(2, (parse("sin(t1)*t2", 2, 2), parse("t1^3", 2, 2)))
    T2 = tuple(
        tuple(parse(f"x{i + 1}*t{a + 1}^2", 2, 2) for a in range(2))
        for i in range(2)
    )
    return {
        "sphere": (sphere, unit_h1(), equator, xi1, T1, [[0.0, 0.4, 1.3, 2.2]]),
        "flat": (
            flat,
            support.flat_metric(ex.TEMPORAL, 2),
            linear,
            xi2,
            T2,
            [[0.2, -0.7, 0.5], [0.8, 0.25, -1.0]],
        ),
    }


# each quantity along a section: the two module functions, and the four
# families the pipeline or variational_family builds, through on_section
SECTION_FUNCTIONS = {
    "covariant_derivative_section": lambda s, h, sig, xi, T, t: on_section(
        InvariantPipeline(s, h).covariant_derivative_family(T), sig, t
    ),
    "covariant_derivative_variation": lambda s, h, sig, xi, T, t: on_section(
        InvariantPipeline(s, h).variation_derivative(xi), sig, t
    ),
    "sode_residual": lambda s, h, sig, xi, T, t: sode_residual(s, sig, t),
    "variational_residual": lambda s, h, sig, xi, T, t: on_section(
        variational_family(s, xi), sig, t
    ),
    "variational_residual_h_trace": lambda s, h, sig, xi, T, t: on_section(
        InvariantPipeline(s, h).h_trace(variational_family(s, xi)), sig, t
    ),
    "jacobi_identity_residual": lambda s, h, sig, xi, T, t: (
        jacobi_identity_residual(s, h, sig, xi, t)
    ),
}


@pytest.mark.parametrize("case", ["sphere", "flat"])
@pytest.mark.parametrize("name", sorted(SECTION_FUNCTIONS))
def test_section_batch_is_the_stack_of_one_t_results(name, case):
    system, h, sigma, xi, T, t = _section_cases()[case]
    fn = SECTION_FUNCTIONS[name]
    t = np.array(t)
    batch = fn(system, h, sigma, xi, T, t)
    one = np.stack(
        [fn(system, h, sigma, xi, T, t[:, k]) for k in range(t.shape[1])],
        axis=-1,
    )
    assert batch.shape == one.shape and batch.shape[-1] == t.shape[1]
    assert batch.dtype == one.dtype == np.float64
    assert batch.tobytes() == one.tobytes()  # bit for bit


# ---------------------------------------------------------------------------
# evaluation surface
# ---------------------------------------------------------------------------


def test_evaluate_batch_matches_pointwise():
    system, pipe = affine_curved_pipeline()
    pts = sample_jet_points(2, 2, 6, seed=24)
    batch = pipe.evaluate_batch("P", pts)
    assert batch.shape == (2, 2, 6)
    for k, p in enumerate(pts):
        single = pipe.evaluate("P", p).values
        assert np.max(np.abs(batch[..., k] - single)) <= 1e-14


def test_one_point_evaluation_refuses_a_degenerate_temporal_metric():
    # the rule evaluate_batch applies: near t1 = 0, h = [[t1]] gave eps of
    # -5e11 and P of -3.1e38 at one point, and at t1 = 0 a division error
    h = MetricField.temporal([[parse("t1", 1, 1)]])
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("v1_1^2", 1, 1)})
    pipe = InvariantPipeline(system, h)
    for t in (1e-13, 0.0):
        point = JetPoint([t], [0.5], [[0.2]])
        for name in ("eps", "P"):
            with pytest.raises(DegenerateMetricError) as one:
                pipe.evaluate(name, point)
            with pytest.raises(DegenerateMetricError) as batch:
                pipe.evaluate_batch(name, [point])
            assert str(one.value) == str(batch.value)
            assert str(one.value).startswith(f"temporal metric degenerate at [{t}]")


def test_invariant_slot_signatures():
    S, T = ex.SPATIAL, ex.TEMPORAL
    eps = [(S, True), (T, False), (T, False)]
    want = {
        "eps": eps,
        "P": [(S, True), (S, False)],
        "R": [(S, True), (T, True), (S, False), (S, False)],
        "B": [(S, True), (T, True), (S, False), (S, False), (S, False), (T, True)],
        "D": eps + [(S, False), (T, True)] * 3,
    }
    assert list(want) == list(INVARIANT_NAMES)
    for name, signature in want.items():
        assert [(s.kind, s.upper) for s in invariant_slots(name)] == signature
    with pytest.raises(KeyError):
        invariant_slots("Q")


def test_unknown_selector_and_dimension_mismatch():
    system = random_symmetric_system()
    pipe = InvariantPipeline(system, curved_h2())
    with pytest.raises(KeyError):
        pipe.expressions("sixth")
    with pytest.raises(ValueError):
        InvariantPipeline(system, unit_h1())
    with pytest.raises(ValueError):
        InvariantPipeline(system, support.flat_metric(ex.SPATIAL, 2))


@pytest.mark.parametrize("method", ["evaluate", "evaluate_batch"])
@pytest.mark.parametrize("m, n, block", [(1, 2, "x"), (2, 1, "t"), (2, 2, "t")])
def test_pipeline_refuses_points_of_another_jet_space(method, m, n, block):
    # an n = 2 point has an x1 and a v1_1, which an m = n = 1 pipeline must
    # not read as its own; the first block of the wrong shape is named
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("x1*v1_1", 1, 1)})
    pipe = InvariantPipeline(system, unit_h1())
    points = sample_jet_points(m, n, 3, seed=0)
    given = points if method == "evaluate_batch" else points[0]
    with pytest.raises(ValueError, match=f"^{block} coordinates: expected shape"):
        getattr(pipe, method)("eps", given)
