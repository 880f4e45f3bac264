import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
from jetkcc import characterize, dtransform, kcccore
from jetkcc import exprlang as ex
from jetkcc.exprlang import Bindings, parse
from jetkcc.jetgeom import (
    C_SLOTS,
    DegenerateMetricError,
    J_SLOTS,
    JetPoint,
    JetPointSet,
    MetricField,
    PdeSystem,
    Slot,
    build_affine_system,
    build_first_order_system,
    canonical_spatial_connection,
    canonical_spatial_semispray,
    canonical_temporal_connection,
    canonical_temporal_semispray,
    canonical_tensors,
    christoffel_sym,
    curvature_sym,
    point_set,
    sample_jet_points,
    uniform_draws,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def test_jet_point_shapes_and_immutability():
    p = JetPoint([0.1, 0.2], [1.0], [[3.0, 4.0]])
    assert p.m == 2 and p.n == 1
    with pytest.raises(ValueError):
        p.t[0] = 9.0
    with pytest.raises(ValueError):
        JetPoint([0.1], [1.0], [[3.0, 4.0]])  # v must be (n, m)


def test_point_bindings_round_trip():
    p = JetPoint([0.5], [1.0, 2.0], [[3.0], [4.0]])
    b = p.bindings()
    assert ex.evaluate(parse("t1 + x2 + v2_1", 1, 2), b) == pytest.approx(6.5)


def test_sample_jet_points_deterministic():
    a = sample_jet_points(2, 2, 3, seed=5)
    b = sample_jet_points(2, 2, 3, seed=5)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.t, pb.t)
        assert np.array_equal(pa.v, pb.v)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**200),
    shape=st.lists(st.integers(0, 40), max_size=3).map(tuple),
)
def test_uniform_draws_are_the_default_rng_doubles(seed, shape):
    got = uniform_draws(seed, shape)
    want = np.random.default_rng(seed).random(shape)
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "seed, first_four",
    [
        (0, ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2",
             "0x1.4fa7b529d9bd0p-5", "0x1.0ec9ed84d0bc0p-6"]),
        (41, ["0x1.e8867e4d5409fp-1", "0x1.892e651da8596p-1",
              "0x1.01fcf36daa090p-3", "0x1.a76afb7e8224cp-1"]),
        (2**64, ["0x1.cc0542cb8f230p-2", "0x1.906d382019ab4p-2",
                 "0x1.276873df88cbbp-1", "0x1.28726b4e6dfb0p-2"]),
    ],
)
def test_uniform_draws_keep_their_pinned_stream(seed, first_four):
    # pinned here, not read from numpy, so no numpy release can move them
    assert [float(u).hex() for u in uniform_draws(seed, (4,))] == first_four


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_uniform_draws_refuse_a_negative_seed(seed):
    with pytest.raises(ValueError, match="non-negative"):
        uniform_draws(seed, (3,))


def test_characterize_probes_are_the_default_rng_uniforms():
    rng = np.random.default_rng(97)
    want = [rng.uniform(-1.0, 1.0, (3, 2)) for _ in range(5)]
    got = characterize._probe_velocities(3, 2)
    assert len(got) == 5
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_no_module_draws_from_numpy_random():
    # every sample comes from uniform_draws, whose stream no numpy release
    # can move, and no command pays for importing numpy.random
    named = re.compile(r"\b(np|numpy)\.random\b|from\s+numpy\s+import\s+[^\n]*\brandom\b")
    paths = sorted((ROOT / "src" / "jetkcc").glob("*.py"))
    assert len(paths) > 1
    found = [
        f"{path.name}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if named.search(line)
    ]
    assert found == []


@pytest.mark.parametrize(
    "m, n, seed, boxes",
    [
        (2, 2, 0, {}),
        (1, 3, 41, {"t_box": (0.5, 3.0), "x_box": (-7.0, -2.0)}),
        (3, 1, 7, {"v_box": (-0.1, 10.0)}),
    ],
)
def test_sample_jet_points_keeps_the_per_point_draws(m, n, seed, boxes):
    # the values of m, n and n*m Generator.uniform draws per point, in order
    got = sample_jet_points(m, n, 50, seed, **boxes)
    rng = np.random.default_rng(seed)
    t_box = boxes.get("t_box", (-1.0, 1.0))
    x_box = boxes.get("x_box", (-1.0, 1.0))
    v_box = boxes.get("v_box", (-2.0, 2.0))
    assert len(got) == 50
    for p in got:
        assert np.array_equal(p.t, rng.uniform(*t_box, size=m))
        assert np.array_equal(p.x, rng.uniform(*x_box, size=n))
        assert np.array_equal(p.v, rng.uniform(*v_box, size=(n, m)))


def test_point_set_indexes_as_jet_points_and_stacks_without_copy():
    pts = sample_jet_points(2, 3, 6, seed=2)
    assert isinstance(pts, JetPointSet) and (pts.m, pts.n, len(pts)) == (2, 3, 6)
    assert [p.t.tolist() for p in pts] == pts.t.T.tolist()
    assert np.array_equal(pts[-1].v, pts.v[..., 5])
    assert point_set(pts) is pts
    t, x, v = pts.t, pts.x, pts.v
    assert not t.flags.writeable
    with pytest.raises(AttributeError):
        pts.t = t
    restacked = point_set(list(pts))
    stacks = (restacked.t, restacked.x, restacked.v)
    assert all(np.array_equal(a, b) for a, b in zip(stacks, (t, x, v)))
    with pytest.raises(ValueError, match="no points"):
        point_set([])
    with pytest.raises(ValueError, match="inconsistent"):
        JetPointSet(t, x, v[..., :5])


def test_batch_bindings_matches_per_point():
    pts = sample_jet_points(2, 2, 7, seed=9)
    e = parse("sin(t1)*x2 + v1_2^2 - t2*v2_1", 2, 2)
    arr = ex.evaluate(e, point_set(list(pts)).bindings())
    assert np.array_equal(arr, ex.evaluate(e, pts.bindings()))
    for k, p in enumerate(pts):
        assert arr[k] == pytest.approx(ex.evaluate(e, p.bindings()), rel=1e-14)


# ---------------------------------------------------------------------------
# metric validation and evaluation
# ---------------------------------------------------------------------------


def test_metric_requires_structural_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        MetricField.temporal(((ex.ONE, ex.t_var(1)), (ex.ZERO, ex.ONE)))


def test_metric_rejects_foreign_variables():
    with pytest.raises(ValueError, match="uses variable"):
        MetricField.temporal(((ex.x_var(1),),))
    with pytest.raises(ValueError, match="uses variable"):
        MetricField.spatial(((ex.t_var(1),),))


def test_metric_rejects_out_of_dimension_indices():
    with pytest.raises(ValueError, match="uses variable 't2'; allowed: t1..t1"):
        MetricField.temporal(((ex.t_var(2),),))


def test_metric_degeneracy_detected():
    g = MetricField.temporal(((ex.t_var(1), ex.ZERO), (ex.ZERO, ex.ONE)))
    g.evaluate([2.0, 0.0])
    with pytest.raises(DegenerateMetricError):
        g.evaluate([0.0, 0.0])


def test_metric_inverse_identity_and_diagonal():
    ident = support.flat_metric(ex.TEMPORAL, 3)
    inv = ident.inverse()
    assert np.allclose(inv.evaluate([0.3, -0.4, 2.0]), np.eye(3))

    g = MetricField.temporal(
        ((ex.ONE, ex.ZERO), (ex.ZERO, ex.pow_(ex.t_var(1), 2.0)))
    )
    ginv = g.inverse()
    for t1 in (0.5, 1.7, -2.0):
        assert np.allclose(
            ginv.evaluate([t1, 0.0]), np.diag([1.0, 1.0 / t1**2]), rtol=1e-12
        )


def test_metric_inverse_random_spd_against_numpy():
    g = support.random_spd_metric(ex.SPATIAL, 3, seed=13)
    ginv = g.inverse()
    rng = np.random.default_rng(14)
    for _ in range(50):
        z = rng.uniform(-1.5, 1.5, size=3)
        want = np.linalg.inv(g.evaluate(z))
        got = ginv.evaluate(z)
        assert support.rel_max(got, want) < 1e-10


def test_metric_inverse_dim4():
    g = support.random_spd_metric(ex.TEMPORAL, 4, seed=21)
    ginv = g.inverse()
    rng = np.random.default_rng(22)
    for _ in range(10):
        z = rng.uniform(-1, 1, size=4)
        assert support.rel_max(ginv.evaluate(z), np.linalg.inv(g.evaluate(z))) < 1e-10


def _guard_cases():
    """Each function that needs a metric of one kind (and dimension), called
    with one that is not, and the message ``require_metric`` gives it."""
    h, phi = support.flat_metric(ex.TEMPORAL, 2), support.flat_metric(ex.SPATIAL, 2)
    h3 = support.flat_metric(ex.TEMPORAL, 3)
    system = build_affine_system(h, phi)
    gamma = characterize.SymmetricCoefficientField.zero(2, 2)
    coupling = characterize.AntisymmetricCouplingField.zero(2, 2)
    sigma = kcccore.SectionMap(2, (ex.ZERO, ex.ZERO))
    xi = kcccore.VariationField(2, (ex.ZERO, ex.ZERO))
    t = x = np.zeros(2)
    point = JetPoint(t, x, np.zeros((2, 2)))
    change = dtransform.identity_change(2, 2)
    # need a temporal metric of dimension m = 2
    sized = {
        "pipeline": lambda g: kcccore.InvariantPipeline(system, g),
        "semispray": lambda g: kcccore.spatial_semispray_from_system(system, g),
        "jacobi": lambda g: kcccore.jacobi_identity_residual(
            system, g, sigma, xi, t
        ),
        "coupling-residual": lambda g: characterize.coupling_constraint_residual(
            coupling, g, t, x
        ),
        "canonical-tensors": lambda g: canonical_tensors(g, point),
        "pushforward": lambda g: dtransform.pushforward_system(change, system, g),
        "build": lambda g: characterize.build_characterized_system(
            gamma, coupling, g
        ),
        "extract": lambda g: characterize.extract_structure(system, g, t, x),
    }
    want = "expected a temporal metric of dimension 2; got a "
    for name, call in sized.items():
        yield pytest.param(call, phi, want + "spatial metric of dimension 2", id=name)
        yield pytest.param(
            call, h3, want + "temporal metric of dimension 3", id=f"{name}-dim"
        )
    # need a metric of one kind, of any dimension
    kinds = {
        "nullspace": (lambda g: characterize.star_star_nullspace(g, t), phi),
        "temporal-semispray": (lambda g: canonical_temporal_semispray(g, 2), phi),
        "spatial-semispray": (lambda g: canonical_spatial_semispray(g, 2), h),
        "curvature": (curvature_sym, h),
        "spatial-connection": (lambda g: canonical_spatial_connection(g, 2), h),
    }
    for name, (call, metric) in kinds.items():
        kind, other = (
            ("temporal", "spatial") if metric is phi else ("spatial", "temporal")
        )
        message = f"expected a {kind} metric; got a {other} metric of dimension 2"
        yield pytest.param(call, metric, message, id=name)


@pytest.mark.parametrize("call, metric, message", list(_guard_cases()))
def test_metric_guard_gives_one_message_form(call, metric, message):
    with pytest.raises(ValueError) as err:
        call(metric)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_christoffel_constant_metric_structurally_zero():
    g = support.flat_metric(ex.SPATIAL, 3)
    gam = christoffel_sym(g)
    for plane in gam:
        for row in plane:
            for entry in row:
                assert ex.is_zero(entry)


def test_christoffel_exponential_time_metric():
    # h11 = exp(2 t1): Gt^1_11 = h^11/2 * d h11/d t1 = 1 for every t1
    h = MetricField.temporal(((ex.exp(ex.mul(2.0, ex.t_var(1))),),))
    gam = christoffel_sym(h)
    for t1 in (-1.0, 0.0, 0.7, 2.5):
        b = Bindings.from_names(1, 1, {"t1": t1})
        assert ex.evaluate(gam[0][0][0], b) == pytest.approx(1.0, rel=1e-12)


def test_christoffel_sphere_values():
    gam = christoffel_sym(support.sphere_metric())
    theta = 1.1
    b = Bindings.from_names(1, 2, {"x1": theta, "x2": 0.4})
    assert ex.evaluate(gam[0][1][1], b) == pytest.approx(
        -math.sin(theta) * math.cos(theta), rel=1e-12
    )
    assert ex.evaluate(gam[1][0][1], b) == pytest.approx(
        math.cos(theta) / math.sin(theta), rel=1e-12
    )
    assert ex.evaluate(gam[1][1][0], b) == pytest.approx(
        math.cos(theta) / math.sin(theta), rel=1e-12
    )
    assert ex.is_zero(ex.simplify(gam[0][0][0]))


def test_christoffel_against_fd_oracle():
    g = support.random_spd_metric(ex.SPATIAL, 3, seed=31)
    gam = christoffel_sym(g)
    rng = np.random.default_rng(32)
    for _ in range(10):
        z = rng.uniform(-1, 1, size=3)
        want = support.fd_christoffel(support.metric_fn(g), z)
        b = Bindings.from_names(1, 3, {"x1": z[0], "x2": z[1], "x3": z[2]})
        got = support.eval_nested(gam, b)
        assert support.rel_max(got, want) < 1e-7


def test_christoffel_lower_symmetry_shares_nodes():
    g = support.random_spd_metric(ex.TEMPORAL, 2, seed=41)
    gam = christoffel_sym(g)
    assert gam[0][0][1] is gam[0][1][0]


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_flat_structurally_zero():
    R = curvature_sym(support.flat_metric(ex.SPATIAL, 2))
    for block in R:
        for plane in block:
            for row in plane:
                for entry in row:
                    assert ex.is_zero(entry)


def test_curvature_sphere_sectional_is_one():
    R = curvature_sym(support.sphere_metric())
    for theta in (0.4, 1.0, 2.2):
        b = Bindings.from_names(1, 2, {"x1": theta, "x2": 1.3})
        K = ex.evaluate(R[0][1][1][0], b) / math.sin(theta) ** 2
        assert K == pytest.approx(1.0, rel=1e-10)


def test_curvature_antisymmetric_in_last_two():
    g = support.random_spd_metric(ex.SPATIAL, 3, seed=51)
    R = curvature_sym(g)
    rng = np.random.default_rng(52)
    z = rng.uniform(-1, 1, size=3)
    b = Bindings.from_names(1, 3, {"x1": z[0], "x2": z[1], "x3": z[2]})
    vals = support.eval_nested(R, b)
    assert support.rel_max(vals, -vals.transpose(0, 1, 3, 2)) < 1e-12


def test_curvature_first_bianchi_cyclic_sum():
    g = support.random_spd_metric(ex.SPATIAL, 3, seed=53)
    R = curvature_sym(g)
    rng = np.random.default_rng(54)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=3)
        b = Bindings.from_names(1, 3, {"x1": z[0], "x2": z[1], "x3": z[2]})
        vals = support.eval_nested(R, b)
        cyc = vals + vals.transpose(0, 3, 1, 2) + vals.transpose(0, 2, 3, 1)
        assert np.max(np.abs(cyc)) < 1e-10


def test_curvature_against_fd_oracle():
    g = support.random_spd_metric(ex.SPATIAL, 2, seed=55)
    gam = christoffel_sym(g)

    def gamma_fn(z):
        b = Bindings.from_names(1, 2, {"x1": z[0], "x2": z[1]})
        return support.eval_nested(gam, b)

    R = curvature_sym(g)
    rng = np.random.default_rng(56)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=2)
        want = support.fd_curvature_from_christoffel(gamma_fn, z)
        b = Bindings.from_names(1, 2, {"x1": z[0], "x2": z[1]})
        got = support.eval_nested(R, b)
        assert support.rel_max(got, want) < 1e-6


# ---------------------------------------------------------------------------
# canonical semisprays / connections
# ---------------------------------------------------------------------------


def test_canonical_objects_flat_pair_vanish():
    h = support.flat_metric(ex.TEMPORAL, 2)
    phi = support.flat_metric(ex.SPATIAL, 2)
    for nested in (
        canonical_temporal_semispray(h, 2),
        canonical_spatial_semispray(phi, 2),
        canonical_temporal_connection(h, 2),
        canonical_spatial_connection(phi, 2),
    ):
        flat_vals = np.ravel(support.eval_nested(nested, sample_jet_points(2, 2, 1, 3)[0].bindings()))
        assert np.max(np.abs(flat_vals)) == 0.0


def test_temporal_connection_is_twice_semispray():
    h = support.random_spd_metric(ex.TEMPORAL, 2, seed=61)
    h0 = canonical_temporal_semispray(h, 2)
    m0 = canonical_temporal_connection(h, 2)
    for p in sample_jet_points(2, 2, 5, seed=62):
        b = p.bindings()
        a = support.eval_nested(h0, b)
        c = support.eval_nested(m0, b)
        assert np.array_equal(c, 2.0 * a)


def test_canonical_spatial_objects_match_direct_contraction():
    phi = support.sphere_metric()
    gam = christoffel_sym(phi)
    g0 = canonical_spatial_semispray(phi, 1)
    n0 = canonical_spatial_connection(phi, 1)
    for p in sample_jet_points(1, 2, 5, seed=63):
        b = p.bindings()
        gnum = support.eval_nested(gam, b)
        want_g = 0.5 * np.einsum("ipq,p,q->i", gnum, p.v[:, 0], p.v[:, 0])
        got_g = support.eval_nested(g0, b)[:, 0, 0]
        assert support.rel_max(got_g, want_g) < 1e-12
        want_n = np.einsum("ijr,r->ij", gnum, p.v[:, 0])
        got_n = support.eval_nested(n0, b)[:, 0, :]
        assert support.rel_max(got_n, want_n) < 1e-12


# ---------------------------------------------------------------------------
# d-tensor values and canonical tensors
# ---------------------------------------------------------------------------


def test_dtensor_value_shape_validation():
    with pytest.raises(ValueError, match="slot extents"):
        dtransform.transform_dtensor(
            np.zeros(2), (Slot(ex.SPATIAL, True),), np.eye(2), np.eye(1)
        )


def test_canonical_tensors_values():
    h = MetricField.temporal(
        ((ex.add(2.0, ex.sin(ex.t_var(1))), ex.ZERO), (ex.ZERO, ex.ONE))
    )
    p = JetPoint([0.3, 0.1], [1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])
    c_val, j_val = canonical_tensors(h, p)
    assert np.array_equal(c_val, p.v)
    # J = h_ab delta^i_j: C's slots, then a temporal and a spatial lower slot
    assert J_SLOTS == C_SLOTS + (Slot(ex.TEMPORAL, False), Slot(ex.SPATIAL, False))
    hm = h.evaluate(p.t)
    for i in range(2):
        for j in range(2):
            block = j_val[i, :, :, j]
            if i == j:
                assert np.allclose(block, hm)
            else:
                assert np.all(block == 0.0)


# ---------------------------------------------------------------------------
# PDE systems
# ---------------------------------------------------------------------------


def test_pde_system_from_upper_mirrors_and_shares():
    f = parse("v1_1*v1_2", 2, 1)
    sys_ = PdeSystem.from_upper(
        2, 1, {(1, 1, 1): ex.ZERO, (1, 1, 2): f, (1, 2, 2): ex.ZERO}
    )
    assert sys_.component(1, 2, 1) is sys_.component(1, 1, 2)
    assert sys_.symmetric


def test_pde_system_component_refuses_indices_outside_their_ranges():
    x1, x2 = ex.x_var(1), ex.x_var(2)
    sys_ = PdeSystem.from_upper(1, 2, {(1, 1, 1): x1, (2, 1, 1): x2})
    assert sys_.component(2, 1, 1) is x2
    for index, pos, label in [
        ((0, 1, 1), 1, "spatial range 1..2"),
        ((-1, 1, 1), 1, "spatial range 1..2"),
        ((3, 1, 1), 1, "spatial range 1..2"),
        ((1, 0, 1), 2, "temporal range 1..1"),
        ((1, 1, 2), 3, "temporal range 1..1"),
    ]:
        message = f"index {pos} is {index[pos - 1]}, outside the {label}"
        with pytest.raises(ValueError, match=message):
            sys_.component(*index)
    for index in [(1, 1), (1, 1, 1, 7)]:
        message = f"expected 3 indices, got {len(index)}"
        with pytest.raises(ValueError, match=message):
            sys_.component(*index)


def test_pde_system_rejects_incomplete_grid():
    with pytest.raises(ValueError, match="grid mismatch"):
        PdeSystem.from_upper(1, 1, {})
    with pytest.raises(ValueError, match="a <= b"):
        PdeSystem.from_upper(2, 1, {(1, 2, 1): ex.ZERO})


def test_symmetric_pde_system_requires_shared_mirrors():
    comps = (((ex.ZERO, parse("t1", 2, 1)), (parse("t2", 2, 1), ex.ZERO)),)
    with pytest.raises(ValueError, match="stored symmetric"):
        PdeSystem(2, 1, comps)
    assert PdeSystem(2, 1, comps, symmetric=False).component(1, 2, 1) is ex.t_var(2)


def test_affine_system_flat_pair_structurally_zero():
    sys_ = build_affine_system(
        support.flat_metric(ex.TEMPORAL, 2), support.flat_metric(ex.SPATIAL, 2)
    )
    assert all(ex.is_zero(ex.simplify(e)) for p in sys_.comps for r in p for e in r)


def test_affine_system_matches_fd_built_components():
    # independent path: numeric Christoffels by finite differences of both
    # metrics, then F^i_ab = Gs^i_pq v^p_a v^q_b - Gt^u_ab v^i_u
    h = support.trig_diagonal_metric(ex.TEMPORAL, 2, seed=71)
    phi = support.random_spd_metric(ex.SPATIAL, 2, seed=72)
    sys_ = build_affine_system(h, phi)
    for p in sample_jet_points(2, 2, 6, seed=73):
        gt = support.fd_christoffel(support.metric_fn(h), p.t)
        gs = support.fd_christoffel(support.metric_fn(phi), p.x)
        want = np.einsum("ipq,pa,qb->iab", gs, p.v, p.v) - np.einsum(
            "uab,iu->iab", gt, p.v
        )
        got = sys_.evaluate(p.t, p.x, p.v)
        assert support.rel_max(got, want) < 1e-7


def test_affine_system_equals_connection_plus_twice_semispray():
    # exact equality on the stored (a <= b) triangle, whose mirror shares nodes
    h = support.random_spd_metric(ex.TEMPORAL, 2, seed=74)
    phi = support.random_spd_metric(ex.SPATIAL, 2, seed=75)
    sys_ = build_affine_system(h, phi)
    m0 = canonical_temporal_connection(h, 2)
    g0 = canonical_spatial_semispray(phi, 2)
    for p in sample_jet_points(2, 2, 4, seed=76):
        b = p.bindings()
        m0v = support.eval_nested(m0, b)
        g0v = support.eval_nested(g0, b)
        got = sys_.evaluate(p.t, p.x, p.v)
        for i in range(2):
            for a in range(2):
                for c in range(a, 2):
                    want = m0v[i, a, c] + 2.0 * g0v[i, a, c]
                    assert got[i, a, c] == want
                    assert got[i, c, a] == want


def test_first_order_single_time_matches_hand_derivative():
    # m = 1, X = sin(t1) + x1^2: F = -(cos(t1) + 2 x1 v1_1)
    X = {(1, 1): parse("sin(t1) + x1^2", 1, 1)}
    sys_ = build_first_order_system(X, 1, 1)
    p = JetPoint([0.4], [1.5], [[2.0]])
    want = -(math.cos(0.4) + 2.0 * 1.5 * 2.0)
    assert sys_.evaluate(p.t, p.x, p.v)[0, 0, 0] == pytest.approx(want, rel=1e-12)


def test_first_order_multi_time_warns_when_asymmetric():
    X = {
        (1, 1): parse("x1*t2", 2, 1),
        (1, 2): parse("0", 2, 1),
    }
    with pytest.warns(RuntimeWarning, match="asymmetric"):
        sys_ = build_first_order_system(X, 2, 1)
    assert not sys_.symmetric
    # as-written components: F^1_12 = -(dX^1_1/dt^2 + dX^1_1/dx1 * v1_2)
    p = JetPoint([0.5, 0.3], [1.2], [[0.7, -0.4]])
    got = sys_.evaluate(p.t, p.x, p.v)
    assert got[0, 0, 1] == pytest.approx(-(1.2 + 0.3 * -0.4), rel=1e-12)
    assert got[0, 1, 0] == pytest.approx(0.0, abs=1e-15)


def test_first_order_nan_gap_counts_as_asymmetric(monkeypatch):
    # X_a = d/dt^a (t1^2 t2^2 / 4): symmetric, but nan at nan sample times
    X = {(1, 1): parse("t1*t2^2/2", 2, 1), (1, 2): parse("t1^2*t2/2", 2, 1)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_first_order_system(X, 2, 1).symmetric
    nan_points = [JetPoint([float("nan"), 0.5], [0.3], [[0.1, 0.2]])]
    monkeypatch.setattr(
        "jetkcc.jetgeom.sample_jet_points", lambda *args, **kwargs: nan_points
    )
    with pytest.warns(RuntimeWarning, match="max deviation nan"):
        assert not build_first_order_system(X, 2, 1).symmetric


def test_first_order_probe_overflow_is_an_evaluation_error():
    # the flow overflows at every probe point: the probe raises, as it does
    # where a value leaves log's domain, instead of storing a nan gap
    X = {
        (1, 1): parse("(1e200*x1)*(1e200*t2)", 2, 1),
        (1, 2): parse("(1e200*x1)*(1e200*t1)", 2, 1),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ex.EvaluationError) as info:
            build_first_order_system(X, 2, 1)
    assert str(info.value) == "overflow in product in `1e+200*(1e+200*t2)`"


def test_first_order_symmetry_probe_lowers_one_tape():
    # a timing-free guard on batching: the raw grid is evaluated once over
    # the sample points, not once per entry and point
    m = n = 2
    X = {
        (i, a): parse(f"sin(x{i})*t{a} + x1*x2*t{3 - a}", m, n)
        for i in (1, 2)
        for a in (1, 2)
    }
    with support.lowered_tapes() as lowered:
        with pytest.warns(RuntimeWarning, match="asymmetric"):
            build_first_order_system(X, m, n)
    assert lowered == [n * m * m]


def test_first_order_symmetrize_averages():
    X = {
        (1, 1): parse("x1*t2", 2, 1),
        (1, 2): parse("0", 2, 1),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys_ = build_first_order_system(X, 2, 1, symmetrize=True)
    assert sys_.symmetric
    p = JetPoint([0.5, 0.3], [1.2], [[0.7, -0.4]])
    got = sys_.evaluate(p.t, p.x, p.v)
    expect = 0.5 * (-(1.2 + 0.3 * -0.4) + 0.0)
    assert got[0, 0, 1] == pytest.approx(expect, rel=1e-12)
    assert got[0, 0, 1] == got[0, 1, 0]
    # both entries of X^1_a move, so F^1_12 and F^1_21 are both non-zero and
    # differ: the stored average is theirs, entry for entry and bit for bit
    X = {(1, 1): parse("x1*t2", 2, 1), (1, 2): parse("x1", 2, 1)}
    with pytest.warns(RuntimeWarning, match="asymmetric"):
        written = build_first_order_system(X, 2, 1)
    averaged = build_first_order_system(X, 2, 1, symmetrize=True)
    p = point_set(sample_jet_points(2, 1, 7, seed=11))
    F = written.evaluate(p.t, p.x, p.v)
    assert np.min(np.abs(F[:, 0, 1] - F[:, 1, 0])) > 0.0
    got = averaged.evaluate(p.t, p.x, p.v)
    assert got.tobytes() == (0.5 * (F + F.swapaxes(1, 2))).tobytes()
