import functools
import warnings

import numpy as np
import pytest

import support
from jetkcc import exprlang as ex
from jetkcc.exprlang import parse
from jetkcc.jetgeom import (
    DegenerateMetricError,
    MetricField,
    PdeSystem,
    build_affine_system,
    christoffel_sym,
    sample_jet_points,
)
from jetkcc.kcccore import InvariantPipeline
from jetkcc.characterize import (
    AntisymmetricCouplingField,
    HypothesisViolationError,
    NotVelocityQuadraticError,
    NullspaceResult,
    SymmetricCoefficientField,
    build_characterized_system,
    coupling_constraint_residual,
    extract_structure,
    quadratic_decomposition,
    star_star_nullspace,
    temporal_pairs,
)


@functools.cache
def diag_curved_h2() -> MetricField:
    m, n = 2, 2
    return MetricField(
        ex.TEMPORAL,
        (
            (parse("1 + 0.3*t1^2", m, n), ex.ZERO),
            (ex.ZERO, parse("2 + 0.2*t2^2", m, n)),
        ),
    )


@functools.cache
def admissible_setup22():
    """Random-looking coefficient families over a curved diagonal temporal
    metric (two times): the coupling entries are tied together by the exact
    metric ratio their constraint system demands, so the built system's
    first invariant vanishes identically."""
    m = n = 2
    h = diag_curved_h2()
    gamma = SymmetricCoefficientField.from_upper(
        m,
        n,
        {
            (1, 1, 1): parse("0.3*x2", m, n),
            (1, 1, 2): parse("0.2 + 0.1*t1", m, n),
            (1, 2, 2): parse("0.15*x1", m, n),
            (2, 1, 1): parse("0.25", m, n),
            (2, 1, 2): parse("0.1*x1*x2", m, n),
            (2, 2, 2): parse("0.2*t2", m, n),
        },
    )
    ratio = parse("(1 + 0.3*t1^2)/(2 + 0.2*t2^2)", m, n)
    g1 = parse("0.4 + 0.3*x1*t2", m, n)
    g2 = parse("0.2*x2 - 0.1*t1", m, n)
    coupling = AntisymmetricCouplingField.from_upper(
        m,
        n,
        {
            (1, 2, 1, 1, 2): g1,
            (1, 1, 2, 1, 2): ex.simplify(ex.neg(ex.mul(ratio, g1))),
            (2, 2, 1, 1, 2): g2,
            (2, 1, 2, 1, 2): ex.simplify(ex.neg(ex.mul(ratio, g2))),
        },
    )
    return h, gamma, coupling


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


# ---------------------------------------------------------------------------
# coefficient family types
# ---------------------------------------------------------------------------


def test_symmetric_field_rejects_velocity_dependence():
    with pytest.raises(ValueError, match="uses variable 'v1_1'; allowed: t1..t1"):
        SymmetricCoefficientField.from_upper(
            1, 1, {(1, 1, 1): parse("v1_1", 1, 1)}
        )


def test_symmetric_field_requires_mirror_equality():
    asym = (
        (
            (ex.ZERO, parse("x1", 1, 2)),
            (parse("t1", 1, 2), ex.ZERO),
        ),
    ) * 2
    with pytest.raises(ValueError, match="stored symmetric"):
        SymmetricCoefficientField(1, 2, asym)


def test_coupling_field_requires_negated_mirrors():
    x1 = parse("x1", 2, 2)

    def entry(i, a, v, p, q):  # the (q, p) mirror is the node, not its negation
        return x1 if a != v and p != q else ex.ZERO

    with pytest.raises(ValueError) as err:
        AntisymmetricCouplingField(2, 2, ex.nested((2, 2, 2, 2, 2), entry))
    assert str(err.value) == (
        "coupling entry: components must be stored antisymmetric "
        "in the two trailing indices"
    )
    # a nonzero diagonal entry is refused too: only ZERO is its own negation
    def diagonal(*index):
        return x1 if index == (0, 0, 1, 0, 0) else ex.ZERO

    with pytest.raises(ValueError, match="stored antisymmetric"):
        AntisymmetricCouplingField(2, 2, ex.nested((2, 2, 2, 2, 2), diagonal))
    field = AntisymmetricCouplingField.from_upper(2, 2, {(1, 1, 2, 1, 2): x1})
    assert field.component(1, 1, 2, 2, 1) is ex.neg(x1)


def test_symmetric_field_component_refuses_indices_outside_their_range():
    field = SymmetricCoefficientField.from_upper(1, 2, {(2, 1, 2): parse("x1", 1, 2)})
    assert field.component(2, 2, 1) is ex.x_var(1)
    for index, pos in [((0, 1, 1), 1), ((1, -1, 1), 2), ((1, 1, 3), 3)]:
        with pytest.raises(
            ValueError,
            match=f"index {pos} is {index[pos - 1]}, outside the spatial range 1..2",
        ):
            field.component(*index)


def test_coupling_field_component_refuses_indices_outside_their_ranges():
    field = AntisymmetricCouplingField.zero(2, 2)
    assert ex.is_zero(field.component(2, 2, 1, 2, 1))
    for index, message in [
        ((0, 1, 2, 1, 2), "index 1 is 0, outside the spatial range 1..2"),
        ((1, 3, 2, 1, 2), "index 2 is 3, outside the temporal range 1..2"),
        ((1, 1, 0, 1, 2), "index 3 is 0, outside the temporal range 1..2"),
        ((1, 1, 2, -1, 2), "index 4 is -1, outside the spatial range 1..2"),
        ((1, 1, 2, 1, 3), "index 5 is 3, outside the spatial range 1..2"),
    ]:
        with pytest.raises(ValueError, match=message):
            field.component(*index)


def test_coupling_field_from_upper_validates_keys():
    with pytest.raises(ValueError, match="p < q"):
        AntisymmetricCouplingField.from_upper(
            2, 2, {(1, 1, 2, 2, 1): ex.ONE}
        )
    with pytest.raises(ValueError, match="alpha != nu"):
        AntisymmetricCouplingField.from_upper(
            2, 2, {(1, 1, 1, 1, 2): ex.ONE}
        )


def test_from_upper_refuses_keys_outside_the_index_ranges():
    # an index of 0 used to wrap to the last plane, and one beyond the range
    # raised IndexError
    for key in ((0, 1, 1), (3, 1, 1), (1, 0, 2), (1, 1, 3)):
        want = f"entry \\({','.join(map(str, key))}\\) has index"
        with pytest.raises(ValueError, match=want):
            SymmetricCoefficientField.from_upper(1, 2, {key: parse("x1", 1, 2)})
    # spatial slots run over 1..n = 1..2, temporal ones over 1..m = 1..3
    keys = [
        (0, 1, 2, 1, 2),
        (3, 1, 2, 1, 2),
        (1, 0, 2, 1, 2),
        (1, 1, 4, 1, 2),
        (1, 1, 2, 0, 2),
        (1, 1, 2, 1, 3),
    ]
    for key in keys:
        want = f"entry \\({','.join(map(str, key))}\\) has index"
        with pytest.raises(ValueError, match=want):
            AntisymmetricCouplingField.from_upper(3, 2, {key: parse("x1", 3, 2)})


def test_coupling_field_enforces_structural_zeros_and_antisymmetry():
    good = AntisymmetricCouplingField.from_upper(
        2, 2, {(1, 1, 2, 1, 2): parse("x1", 2, 2)}
    )
    assert good.component(1, 1, 2, 1, 2) == parse("x1", 2, 2)
    assert good.component(1, 1, 2, 2, 1) == ex.simplify(
        ex.neg(parse("x1", 2, 2))
    )
    assert ex.is_zero(good.component(1, 1, 2, 1, 1))
    assert ex.is_zero(good.component(1, 1, 1, 1, 2))
    vals = good.evaluate([0.2, 0.5], [0.7, 0.4])
    assert vals[0, 0, 1, 0, 1] == pytest.approx(0.7)
    assert vals[0, 0, 1, 1, 0] == pytest.approx(-0.7)

    broken = [
        [
            [
                [[ex.ZERO, parse("x1", 2, 2)], [parse("x1", 2, 2), ex.ZERO]],
                [[ex.ZERO] * 2 for _ in range(2)],
            ],
            [
                [[ex.ZERO] * 2 for _ in range(2)],
                [[ex.ZERO] * 2 for _ in range(2)],
            ],
        ]
        for _ in range(2)
    ]
    # mirror equals the original instead of its negative, and sits on a
    # repeated temporal pair to boot
    with pytest.raises(ValueError):
        AntisymmetricCouplingField(2, 2, tuple(broken))


# ---------------------------------------------------------------------------
# the constraint null space
# ---------------------------------------------------------------------------


def test_flat_nullspace_dimension_matches_antisymmetric_count():
    for m in (2, 3, 4):
        h = support.flat_metric(ex.TEMPORAL, m)
        res = star_star_nullspace(h, np.zeros(m))
        assert isinstance(res, NullspaceResult)
        assert res.dimension == m * (m - 1) // 2
        gram = res.basis @ res.basis.T
        assert np.max(np.abs(gram - np.eye(res.dimension))) < 1e-12
        for vec in res.basis:
            assert res.residual(vec) <= 1e-10
        assert res.caveat is (m == 2)


def test_flat_constraint_matrix_is_pair_symmetrization():
    # Hand assembly for the identity metric: each equation reduces to
    # "the (alpha, nu) value plus the (nu, alpha) value is zero".
    m = 3
    h = support.flat_metric(ex.TEMPORAL, m)
    res = star_star_nullspace(h, np.zeros(m))
    pairs = temporal_pairs(m)
    col = {pair: k for k, pair in enumerate(pairs)}
    want = np.zeros((len(pairs), len(pairs)))
    for row, (a, v) in enumerate(pairs):
        want[row, col[(a, v)]] += 1.0
        want[row, col[(v, a)]] += 1.0
    assert np.array_equal(res.matrix, want)


def test_zero_vector_always_satisfies_the_constraints():
    h, _ = curved_pair22()
    res = star_star_nullspace(h, np.array([0.4, 0.7]))
    assert res.residual(np.zeros(len(res.pairs))) == 0.0


def test_nullspace_input_validation():
    with pytest.raises(ValueError, match="two times"):
        star_star_nullspace(support.flat_metric(ex.TEMPORAL, 1), np.zeros(1))
    with pytest.raises(ValueError, match="temporal"):
        star_star_nullspace(support.flat_metric(ex.SPATIAL, 2), np.zeros(2))
    degenerate = MetricField(
        ex.TEMPORAL, ((parse("t1", 2, 1), ex.ZERO), (ex.ZERO, ex.ONE))
    )
    with pytest.raises(ValueError, match="degenerate"):
        star_star_nullspace(degenerate, np.array([0.0, 0.5]))


def test_curved_diagonal_nullspace_contains_the_metric_scaled_mode():
    # For a diagonal metric the system couples each pair to its swap through
    # the ratio of the diagonal entries; the corresponding scaled vector
    # must be a null vector at every t.
    h = diag_curved_h2()
    for t in (np.array([0.2, 0.6]), np.array([0.9, 0.1])):
        hm = h.evaluate(t)
        res = star_star_nullspace(h, t)
        assert res.dimension == 1
        vec = np.zeros(2)
        vec[res.pairs.index((1, 2))] = -hm[0, 0] / hm[1, 1]
        vec[res.pairs.index((2, 1))] = 1.0
        assert res.residual(vec) <= 1e-10


def test_coupling_constraint_residual_matches_nullspace_operator():
    h, _, coupling = admissible_setup22()
    for t, x in (
        (np.array([0.3, 0.5]), np.array([0.2, 0.8])),
        (np.array([0.7, 0.2]), np.array([0.9, 0.4])),
    ):
        assert coupling_constraint_residual(coupling, h, t, x) <= 1e-12


def test_coupling_constraint_residual_keeps_nan():
    h, _, coupling = admissible_setup22()
    t, x = np.array([0.3, 0.5]), np.array([float("nan"), 0.8])
    assert np.isnan(coupling_constraint_residual(coupling, h, t, x))


def test_coupling_constraint_residual_batch_raises_what_its_points_raise():
    # point 0 has a nan input, which stands; point 1 leaves log's domain,
    # and the batch must raise there as that point alone does
    h = support.flat_metric(ex.TEMPORAL, 2)
    coupling = AntisymmetricCouplingField.from_upper(
        2, 2, {(1, 1, 2, 1, 2): parse("log(x2)", 2, 2)}
    )
    t, x = np.zeros((2, 2)), np.array([[1.0, 1.0], [float("nan"), -1.0]])
    message = "log of non-positive value -1.0"
    with pytest.raises(ex.EvaluationError, match=message):
        coupling_constraint_residual(coupling, h, t[:, 1], x[:, 1])
    with pytest.raises(ex.EvaluationError, match=message):
        coupling_constraint_residual(coupling, h, t, x)


@pytest.mark.parametrize(
    "h_entry, t1, message",
    [
        ("sqrt(t1)", [1.0, -1.0], "sqrt of negative value -1.0"),
        ("t1", [1.0, 0.0], r"temporal metric degenerate at \[0.0, 1.0\]"),
    ],
    ids=["domain", "degenerate"],
)
def test_coupling_constraint_residual_batch_raises_the_first_point_error(
    h_entry, t1, message
):
    # point 0 leaves the coupling's domain, point 1 h's domain or its
    # nondegeneracy; the batch raises point 0's error, as the scan does
    h = MetricField.temporal(((parse(h_entry, 2, 2), ex.ZERO), (ex.ZERO, ex.ONE)))
    coupling = AntisymmetricCouplingField.from_upper(
        2, 2, {(1, 1, 2, 1, 2): parse("log(x2)", 2, 2)}
    )
    t, x = np.array([t1, [1.0, 1.0]]), np.array([[1.0, 1.0], [-1.0, 1.0]])
    first = "log of non-positive value -1.0"
    with pytest.raises(ex.EvaluationError, match=first):
        coupling_constraint_residual(coupling, h, t[:, 0], x[:, 0])
    with pytest.raises((ex.EvaluationError, DegenerateMetricError), match=message):
        coupling_constraint_residual(coupling, h, t[:, 1], x[:, 1])
    with pytest.raises(ex.EvaluationError, match=first):
        coupling_constraint_residual(coupling, h, t, x)


# ---------------------------------------------------------------------------
# building systems
# ---------------------------------------------------------------------------


def test_zero_families_flat_metric_give_zero_system():
    m, n = 2, 2
    built = build_characterized_system(
        SymmetricCoefficientField.zero(m, n),
        AntisymmetricCouplingField.zero(m, n),
        support.flat_metric(ex.TEMPORAL, m),
    )
    for i in range(1, n + 1):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                assert ex.is_zero(built.component(i, a, b))


def test_christoffel_family_reproduces_the_affine_system():
    h, phi = curved_pair22()
    built = build_characterized_system(
        SymmetricCoefficientField(2, 2, christoffel_sym(phi)),
        AntisymmetricCouplingField.zero(2, 2),
        h,
    )
    reference = build_affine_system(h, phi)
    for p in sample_jet_points(2, 2, 20, seed=3):
        assert np.array_equal(built.evaluate(p.t, p.x, p.v), reference.evaluate(p.t, p.x, p.v))


def test_built_system_first_invariant_and_fifth_vanish():
    h, gamma, coupling = admissible_setup22()
    built = build_characterized_system(gamma, coupling, h)
    assert built.symmetric
    pipe = InvariantPipeline(built, h)
    worst = 0.0
    for p in sample_jet_points(2, 2, 50, seed=5):
        worst = max(worst, float(np.max(np.abs(pipe.evaluate("eps", p)))))
    assert worst < 1e-9
    flat = []
    stack = [pipe.expressions("D")]
    while stack:
        obj = stack.pop()
        if isinstance(obj, tuple):
            stack.extend(obj)
        else:
            flat.append(obj)
    assert all(ex.is_zero(e) for e in flat)


def test_constraint_violation_warns_but_builds():
    bad = AntisymmetricCouplingField.from_upper(
        2, 2, {(1, 1, 2, 1, 2): ex.num(0.5)}
    )
    with pytest.warns(RuntimeWarning, match="constraint"):
        built = build_characterized_system(
            SymmetricCoefficientField.zero(2, 2),
            bad,
            support.flat_metric(ex.TEMPORAL, 2),
        )
    assert built.m == 2


def test_nan_constraint_residual_warns(monkeypatch):
    h, gamma, coupling = admissible_setup22()
    nan_probe = [(np.array([0.3, 0.5]), np.array([float("nan"), 0.8]))]
    monkeypatch.setattr(
        "jetkcc.characterize._probe_points", lambda m, n: iter(nan_probe)
    )
    with pytest.warns(RuntimeWarning, match="residual nan"):
        build_characterized_system(gamma, coupling, h)

def test_build_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="mismatch"):
        build_characterized_system(
            SymmetricCoefficientField.zero(2, 2),
            AntisymmetricCouplingField.zero(2, 1),
            support.flat_metric(ex.TEMPORAL, 2),
        )
    with pytest.raises(ValueError, match="temporal"):
        build_characterized_system(
            SymmetricCoefficientField.zero(2, 2),
            AntisymmetricCouplingField.zero(2, 2),
            support.flat_metric(ex.SPATIAL, 2),
        )


def test_nullspace_modes_leak_into_first_invariant_for_three_times():
    # With three or more times, a coupling entry whose upper temporal index
    # differs from both indices of a mixed component survives into the first
    # invariant: the built family only guarantees epsilon = 0 on the
    # diagonal components.  Closed form for this witness (flat metric,
    # coupling strength s between times 1 and 3 on the spatial pair (1,2)):
    #   eps^1_{12} = 2 s (v2_3 v1_2 - v1_3 v2_2).
    m, n = 3, 2
    flat3 = support.flat_metric(ex.TEMPORAL, m)
    s = 0.7
    coupling = AntisymmetricCouplingField.from_upper(
        m,
        n,
        {(1, 1, 3, 1, 2): ex.num(s), (1, 3, 1, 1, 2): ex.num(-s)},
    )
    # the mode solves the constraint system exactly...
    res = star_star_nullspace(flat3, np.zeros(m))
    vec = np.zeros(len(res.pairs))
    vec[res.pairs.index((1, 3))] = s
    vec[res.pairs.index((3, 1))] = -s
    assert res.residual(vec) <= 1e-12
    # ...yet the first invariant of the built system does not vanish
    built = build_characterized_system(
        SymmetricCoefficientField.zero(m, n), coupling, flat3
    )
    pipe = InvariantPipeline(built, flat3)
    largest = 0.0
    for p in sample_jet_points(m, n, 30, seed=9):
        e = pipe.evaluate("eps", p)
        want = 2 * s * (p.v[1, 2] * p.v[0, 1] - p.v[0, 2] * p.v[1, 1])
        assert abs(e[0, 0, 1] - want) < 1e-10
        assert np.max(np.abs(np.diagonal(e, axis1=1, axis2=2))) < 1e-12
        largest = max(largest, abs(e[0, 0, 1]))
    assert largest > 0.1


# ---------------------------------------------------------------------------
# polarization and extraction
# ---------------------------------------------------------------------------


def test_quadratic_decomposition_against_known_coefficients():
    m, n = 2, 1
    system = PdeSystem.from_upper(
        m,
        n,
        {
            (1, 1, 1): parse("3*v1_1^2 + 2*v1_1*v1_2 - v1_1 + 4", m, n),
            (1, 1, 2): parse("0.5*v1_2^2 + v1_1", m, n),
            (1, 2, 2): parse("-2*v1_1*v1_2 + 7", m, n),
        },
    )
    t, x = np.array([0.3, 0.6]), np.array([0.4])
    dec = quadratic_decomposition(system, t, x)
    assert dec.constant[0, 0, 0] == pytest.approx(4.0, abs=1e-12)
    assert dec.constant[0, 1, 1] == pytest.approx(7.0, abs=1e-12)
    assert dec.linear[0, 0, 0, 0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert dec.linear[0, 0, 1, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert dec.quadratic[0, 0, 0, 0, 0, 0, 0] == pytest.approx(3.0, abs=1e-12)
    # cross coefficient is stored symmetrized over the two velocity slots
    assert dec.quadratic[0, 0, 0, 0, 0, 0, 1] == pytest.approx(1.0, abs=1e-12)
    assert dec.quadratic[0, 1, 1, 0, 0, 0, 1] == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(5):
        v = rng.uniform(-1.5, 1.5, (n, m))
        want = system.evaluate(t, x, v)
        assert support.rel_max(dec.reconstruct(v), want) < 1e-12


def per_velocity_decomposition(system, t, x):
    """Polarization one velocity at a time, in the order and with the float
    operations of the batched ``quadratic_decomposition``: its reference."""
    m, n = system.m, system.n

    def F(v):
        return system.evaluate(t, x, v)

    basis = [(j, g) for j in range(n) for g in range(m)]
    const = F(np.zeros((n, m)))
    plus, minus = {}, {}
    for j, g in basis:
        v = np.zeros((n, m))
        v[j, g] = 1.0
        plus[(j, g)] = F(v)
        minus[(j, g)] = F(-v)
    linear = np.zeros((n, m, m, n, m))
    quad = np.zeros((n, m, m, n, m, n, m))
    for j, g in basis:
        linear[:, :, :, j, g] = 0.5 * (plus[(j, g)] - minus[(j, g)])
        quad[:, :, :, j, g, j, g] = 0.5 * (plus[(j, g)] + minus[(j, g)]) - const
    for p, (j, g) in enumerate(basis):
        for k, e in basis[p + 1 :]:
            v = np.zeros((n, m))
            v[j, g] += 1.0
            v[k, e] += 1.0
            mixed = 0.5 * (F(v) - plus[(j, g)] - plus[(k, e)] + const)
            quad[:, :, :, j, g, k, e] = mixed
            quad[:, :, :, k, e, j, g] = mixed
    return quad, linear, const


def test_batched_decomposition_has_the_bits_of_per_velocity_evaluation():
    m = n = 2
    upper = {
        (1, 1, 1): "sin(v1_1*x2) + v2_2^3*t1 + exp(v1_2)/(1 + x1^2)",
        (1, 1, 2): "v1_1*v2_1*v1_2 + cos(t2*v2_2)",
        (1, 2, 2): "sqrt(2 + v1_1)*log(3 + v2_2*x1)",
        (2, 1, 1): "v1_1^4 - tan(0.3*v2_1)*t1",
        (2, 1, 2): "sinh(v1_2)*x2 + v2_1/(4 - v2_2)",
        (2, 2, 2): "cosh(v2_2*t2)*v1_1 + v2_1^2*x1",
    }
    system = PdeSystem.from_upper(
        m, n, {key: parse(text, m, n) for key, text in upper.items()}
    )
    t, x = np.array([0.3, -0.7]), np.array([1.1, 0.45])
    dec = quadratic_decomposition(system, t, x)
    quad, linear, const = per_velocity_decomposition(system, t, x)
    assert np.array_equal(dec.quadratic, quad)
    assert np.array_equal(dec.linear, linear)
    assert np.array_equal(dec.constant, const)
    assert np.count_nonzero(quad) > 20  # a generic, non-quadratic system


def test_zero_system_extracts_zero_structure():
    m = n = 1
    system = PdeSystem.from_upper(m, n, {(1, 1, 1): ex.ZERO})
    gv, sv, diag = extract_structure(
        system, support.flat_metric(ex.TEMPORAL, 1), [0.2], [0.5]
    )
    assert np.array_equal(gv, np.zeros((1, 1, 1)))
    assert np.array_equal(sv, np.zeros((1, 1, 1, 1, 1)))
    assert diag.rebuild_residual == 0.0


def test_affine_extraction_recovers_spatial_christoffels():
    h, phi = curved_pair22()
    system = build_affine_system(h, phi)
    bt, bx = np.array([0.4, 0.6]), np.array([0.3, 0.7])
    gv, sv, diag = extract_structure(system, h, bt, bx)
    gamma_want = np.asarray(
        ex.evaluate_nested(
            christoffel_sym(phi),
            ex.Bindings.from_names(2, 2, {"x1": 0.3, "x2": 0.7}),
        )
    )
    assert np.max(np.abs(gv - gamma_want)) < 1e-8
    assert np.max(np.abs(sv)) < 1e-10
    assert diag.constant_max < 1e-12
    assert diag.linear_residual < 1e-10
    assert diag.gamma_spread < 1e-10
    assert diag.rebuild_residual < 1e-10


def test_build_then_extract_round_trips_the_families():
    h, gamma, coupling = admissible_setup22()
    built = build_characterized_system(gamma, coupling, h)
    bt, bx = np.array([0.4, 0.6]), np.array([0.3, 0.7])
    gv, sv, diag = extract_structure(built, h, bt, bx)
    assert np.max(np.abs(gv - gamma.evaluate(bt, bx))) < 1e-8
    assert np.max(np.abs(sv - coupling.evaluate(bt, bx))) < 1e-8
    assert diag.eps_max < 1e-10
    assert diag.fifth_max == 0.0
    assert diag.symmetry_residual < 1e-12
    assert diag.rebuild_residual < 1e-10


def test_nan_at_the_base_point_is_refused():
    h, gamma, coupling = admissible_setup22()
    built = build_characterized_system(gamma, coupling, h)
    with pytest.raises(HypothesisViolationError) as info:
        extract_structure(built, h, [0.4, 0.6], [float("nan"), 0.7])
    assert info.value.what == "first invariant"
    assert np.isnan(info.value.value)

def test_cubic_velocity_term_is_refused():
    m1 = support.flat_metric(ex.TEMPORAL, 1)
    cubic = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("v1_1^3", 1, 1)})
    with pytest.raises(NotVelocityQuadraticError) as info:
        extract_structure(cubic, m1, [0.3], [0.4])
    assert info.value.max_abs > 1.0


def test_nonvanishing_first_invariant_is_refused():
    m1 = support.flat_metric(ex.TEMPORAL, 1)
    oscillator = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("x1", 1, 1)})
    with pytest.raises(HypothesisViolationError) as info:
        extract_structure(oscillator, m1, [0.3], [0.4])
    assert info.value.what == "first invariant"
    assert info.value.value == pytest.approx(0.4, abs=1e-12)


def test_probe_check_is_one_batch():
    # a timing-free guard on batching: the three probe points are one batch,
    # so h (its entries and its determinant) and the coupling field lower
    # one tape each, not one per probe point
    h, gamma, coupling = admissible_setup22()
    with support.lowered_tapes() as lowered:
        build_characterized_system(gamma, coupling, h)
    assert len(lowered) == 3


def test_probe_batch_keeps_the_one_point_domain_rule():
    # log(x1 - 0.5) leaves its domain at the probe point x1 = 0.3: the batch
    # raises there, as probing one point at a time does, instead of warning
    # about a nan residual
    bad = AntisymmetricCouplingField.from_upper(
        2, 2, {(1, 1, 2, 1, 2): parse("log(x1 - 0.5)", 2, 2)}
    )
    with pytest.raises(ex.EvaluationError, match="log of non-positive value -0.2"):
        build_characterized_system(
            SymmetricCoefficientField.zero(2, 2),
            bad,
            support.flat_metric(ex.TEMPORAL, 2),
        )
