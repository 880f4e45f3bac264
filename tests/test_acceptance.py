"""End-to-end acceptance suite: eleven numbered criteria, one line each.

Every test exercises one acceptance criterion at its stated tolerance and
time budget and prints a single ``criterion NN <name>: PASS/FAIL`` line.
The lines are also collected in ``CRITERION_LINES`` so the conftest hook can
repeat them after pytest's capture ends.
"""

import functools
import time
import zlib

import numpy as np

import support
from jetkcc import exprlang as ex
from jetkcc.exprlang import Bindings, differentiate, evaluate, fd_partial, parse
from jetkcc.jetgeom import (
    JetPoint,
    MetricField,
    PdeSystem,
    build_affine_system,
    build_first_order_system,
    canonical_tensors,
    christoffel_sym,
    curvature_sym,
    sample_jet_points,
)
from jetkcc.kcccore import (
    INVARIANT_NAMES,
    InvariantPipeline,
    SectionMap,
    Semispray,
    VariationField,
    connection_part_from_temporal_semispray,
    jacobi_identity_residual,
    on_section,
    sode_residual,
    spatial_semispray_from_connection,
    temporal_semispray_from_connection_part,
)
from jetkcc.dtransform import (
    CoordinateChange,
    pushforward_system,
    transform_dtensor,
    transform_jet_point,
    transform_section,
    two_path_invariants,
)
from jetkcc.characterize import (
    AntisymmetricCouplingField,
    NotVelocityQuadraticError,
    SymmetricCoefficientField,
    build_characterized_system,
    extract_structure,
    star_star_nullspace,
)
from jetkcc.cli import main as cli_main


CRITERION_LINES = []


def criterion(num, name, ok, detail, elapsed, budget):
    """Print the per-criterion verdict line, then enforce it."""
    if budget is not None:
        ok = ok and elapsed < budget
        timing = f"; {elapsed:.2f}s of {budget:g}s budget"
    else:
        timing = f"; {elapsed:.2f}s"
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail}{timing})"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, line


def flatten(nested):
    if isinstance(nested, tuple):
        out = []
        for k in nested:
            out.extend(flatten(k))
        return out
    return [nested]


def eval_curvature_family(rsym, n, b):
    return np.array(
        [
            [
                [
                    [evaluate(rsym[i][p][q][j], b) for j in range(n)]
                    for q in range(n)
                ]
                for p in range(n)
            ]
            for i in range(n)
        ]
    )


@functools.cache
def accept_pair22():
    """Curved (h, phi) pair with polynomial entries and the affine system."""
    h = support.random_spd_metric(ex.TEMPORAL, 2, seed=7)
    phi = support.random_spd_metric(ex.SPATIAL, 2, seed=8)
    system = build_affine_system(h, phi)
    return h, phi, system, InvariantPipeline(system, h)


# ---------------------------------------------------------------------------
# 1. affine systems have vanishing first invariant
# ---------------------------------------------------------------------------


def test_criterion_01_affine_first_invariant_vanishes():
    t0 = time.perf_counter()
    dims = [(1, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    worst = 0.0
    for k, (m, n) in enumerate(dims):
        if m >= 3:
            h = support.trig_diagonal_metric(ex.TEMPORAL, m, seed=100 + k)
        else:
            h = support.random_spd_metric(ex.TEMPORAL, m, seed=100 + k)
        if n >= 3:
            phi = support.trig_diagonal_metric(ex.SPATIAL, n, seed=200 + k)
        else:
            phi = support.random_spd_metric(ex.SPATIAL, n, seed=200 + k)
        system = build_affine_system(h, phi)
        pipe = InvariantPipeline(system, h)
        pts = sample_jet_points(m, n, 100, seed=300 + k)
        worst = max(worst, float(np.max(np.abs(pipe.evaluate_batch("eps", pts)))))
    criterion(
        1,
        "affine first invariant vanishes",
        worst <= 1e-9,
        f"max |eps| {worst:.2e} <= 1e-9 over 5 metric pairs x 100 points",
        time.perf_counter() - t0,
        5.0,
    )


# ---------------------------------------------------------------------------
# 2. affine closed forms against the independent curvature path
# ---------------------------------------------------------------------------


def test_criterion_02_affine_closed_forms():
    t0 = time.perf_counter()
    h, phi, system, pipe = accept_pair22()
    rsym = curvature_sym(phi)
    pts = sample_jet_points(2, 2, 100, seed=11)
    got_p = pipe.evaluate_batch("P", pts)
    got_r = pipe.evaluate_batch("R", pts)
    got_b = pipe.evaluate_batch("B", pts)
    worst = 0.0
    for k, p in enumerate(pts):
        b = p.bindings()
        hinv = np.linalg.inv(h.evaluate(p.t))
        rv = eval_curvature_family(rsym, 2, b)
        want_p = -np.einsum("ab,ipqj,pa,qb->ij", hinv, rv, p.v, p.v)
        want_r = np.einsum("am,ipjk,pm->iajk", hinv, rv, p.v)
        want_b = np.einsum("ab,iljk->iajklb", hinv, rv)
        worst = max(worst, support.rel_max(got_p[..., k], want_p))
        worst = max(worst, support.rel_max(got_r[..., k], want_r))
        worst = max(worst, support.rel_max(got_b[..., k], want_b))
    d_zero = all(ex.is_zero(e) for e in flatten(pipe.expressions("D")))
    criterion(
        2,
        "affine closed forms P, R, B and D = 0",
        worst <= 1e-8 and d_zero,
        f"max rel {worst:.2e} <= 1e-8 at 100 points, D structurally zero",
        time.perf_counter() - t0,
        10.0,
    )


# ---------------------------------------------------------------------------
# 3. prolonged first-order flows: closed forms for eps and P
# ---------------------------------------------------------------------------


@functools.cache
def flow_setup22():
    import warnings

    h = MetricField(
        ex.TEMPORAL,
        (
            (parse("1 + 0.3*t2^2", 2, 2), parse("0.2*t1*t2", 2, 2)),
            (parse("0.2*t1*t2", 2, 2), parse("2 + 0.1*t1^2", 2, 2)),
        ),
    )
    X = {
        (1, 1): parse("0.4*t1*x2 + 0.3*t2", 2, 2),
        (1, 2): parse("0.2*x1^2", 2, 2),
        (2, 1): parse("0.5*x1 - 0.1*t2^2", 2, 2),
        (2, 2): parse("0.3*x2*t1", 2, 2),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        system = build_first_order_system(X, 2, 2)
    return h, X, system


def test_criterion_03_first_order_flow_closed_forms():
    t0 = time.perf_counter()
    h, X, system = flow_setup22()
    pipe = InvariantPipeline(system, h)
    gt = christoffel_sym(h)
    hinv_rows = h.inverse().rows

    # closed form ingredients coded from the metric alone
    htr = [
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
                ex.expr_sum(differentiate(htr[g], ex.t_var(g + 1)) for g in range(2)),
            ),
            ex.mul(
                0.5,
                ex.expr_sum(
                    ex.mul(
                        hinv_rows[g][e],
                        ex.mul(differentiate(h.rows[u][g], ex.t_var(e + 1)), htr[u]),
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
                        ex.mul(h.rows[g][u], ex.mul(htr[g], htr[u]))
                        for g in range(2)
                        for u in range(2)
                    ),
                )
            ),
        ]
    )

    worst_eps = 0.0
    worst_p = 0.0
    pts = sample_jet_points(2, 2, 25, seed=12)
    for p in pts:
        b = p.bindings()
        hm = h.evaluate(p.t)
        hinv = np.linalg.inv(hm)
        gtv = np.array(
            [
                [[evaluate(gt[g][a][c], b) for c in range(2)] for a in range(2)]
                for g in range(2)
            ]
        )
        trace_gt = np.einsum("ab,gab->g", hinv, gtv)

        want_eps = np.empty((2, 2, 2))
        for i in range(2):
            for a in range(2):
                xia = X[(i + 1, a + 1)]
                for c in range(2):
                    dt = evaluate(differentiate(xia, ex.t_var(c + 1)), b)
                    dx = sum(
                        evaluate(differentiate(xia, ex.x_var(r + 1)), b) * p.v[r, c]
                        for r in range(2)
                    )
                    drift = (
                        0.5
                        * sum(trace_gt[g] * hm[g, a] for g in range(2))
                        * p.v[i, c]
                    )
                    christ = sum(gtv[u, a, c] * p.v[i, u] for u in range(2))
                    want_eps[i, a, c] = dt + 0.5 * dx + drift - christ
        worst_eps = max(worst_eps, support.rel_max(pipe.evaluate("eps", p).values, want_eps))

        kv = evaluate(k_expr, b)
        dx1 = np.empty((2, 2, 2))  # dX^i_a/dx^r
        for i in range(2):
            for a in range(2):
                for r in range(2):
                    dx1[i, a, r] = evaluate(
                        differentiate(X[(i + 1, a + 1)], ex.x_var(r + 1)), b
                    )
        want_p = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for a in range(2):
                    for c in range(2):
                        mixed = evaluate(
                            differentiate(
                                differentiate(X[(i + 1, a + 1)], ex.x_var(j + 1)),
                                ex.t_var(c + 1),
                            ),
                            b,
                        )
                        spatial2 = sum(
                            evaluate(
                                differentiate(
                                    differentiate(
                                        X[(i + 1, a + 1)], ex.x_var(r + 1)
                                    ),
                                    ex.x_var(j + 1),
                                ),
                                b,
                            )
                            * p.v[r, c]
                            for r in range(2)
                        )
                        cross = sum(dx1[i, a, r] * dx1[r, c, j] for r in range(2))
                        acc += hinv[a, c] * (0.5 * (mixed + spatial2) + 0.25 * cross)
                want_p[i, j] = acc + (kv if i == j else 0.0)
        worst_p = max(worst_p, support.rel_max(pipe.evaluate("P", p).values, want_p))

    higher = max(
        float(np.max(np.abs(pipe.evaluate_batch(name, pts))))
        for name in ("R", "B", "D")
    )
    worst = max(worst_eps, worst_p)
    criterion(
        3,
        "prolonged flow closed forms",
        worst <= 1e-10 and higher <= 1e-10,
        f"max rel {worst:.2e} <= 1e-10 for eps and P; max |R,B,D| {higher:.2e}",
        time.perf_counter() - t0,
        5.0,
    )


# ---------------------------------------------------------------------------
# 4. transformation covariance of everything
# ---------------------------------------------------------------------------


def domain_points(m, n, count, seed):
    rng = np.random.default_rng(seed)
    return [
        JetPoint(
            rng.uniform(0.2, 0.9, m),
            rng.uniform(0.2, 0.9, n),
            rng.uniform(-0.8, 0.8, (n, m)),
        )
        for _ in range(count)
    ]


def two_path_worst(system, h, cc, points):
    """Worst scale-aware deviation between transform-then-evaluate and
    evaluate-then-transform, over all five invariants and both canonical
    tensors."""
    paths = two_path_invariants(system, h, cc, points, INVARIANT_NAMES)
    worst = 0.0
    for pushed, direct in paths.values():
        for k in range(len(points)):
            worst = max(worst, support.rel_max(pushed[..., k], direct[..., k]))
    _, new_h = pushforward_system(cc, system, h)
    for p in points:
        c_old, j_old = canonical_tensors(h, p)
        jac = support.jacobians(cc, p)
        c_new, j_new = canonical_tensors(new_h, transform_jet_point(cc, [p])[0])
        worst = max(
            worst,
            support.rel_max(transform_dtensor(c_old, *jac).values, c_new.values),
        )
        worst = max(
            worst,
            support.rel_max(transform_dtensor(j_old, *jac).values, j_new.values),
        )
    return worst


def quadratic_time_change(m, n, c, spatial):
    """t1 -> t1 + c*t1^2 with exact inverse; spatial maps supplied by caller."""
    x_fwd, x_inv = spatial
    return CoordinateChange(
        m,
        n,
        t_forward=(parse(f"t1 + {c!r}*t1^2", m, n),),
        x_forward=x_fwd,
        t_inverse=(parse(f"(sqrt(1 + {4 * c!r}*t1) - 1)/{2 * c!r}", m, n),),
        x_inverse=x_inv,
    )


def test_criterion_04_transformation_covariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(zlib.crc32(b"acceptance transform"))
    results = []

    # diffeo 1: one time, one space; velocity-cubic system
    c = float(rng.uniform(0.12, 0.22))
    a = float(rng.uniform(0.5, 0.9))
    cc1 = quadratic_time_change(
        1,
        1,
        c,
        spatial=(
            (parse(f"sinh({a!r}*x1)/{a!r}", 1, 1),),
            (parse(f"log({a!r}*x1 + sqrt({a!r}^2*x1^2 + 1))/{a!r}", 1, 1),),
        ),
    )
    sys1 = PdeSystem.from_upper(
        1, 1, {(1, 1, 1): parse("0.4*v1_1^3 + x1*v1_1^2 + 0.5*sin(t1)*x1", 1, 1)}
    )
    h1 = MetricField(ex.TEMPORAL, ((parse("1 + 0.2*t1^2", 1, 1),),))
    results.append(two_path_worst(sys1, h1, cc1, domain_points(1, 1, 20, seed=61)))

    # diffeo 2: one time, two spaces; velocity-quadratic system,
    # triangular spatial map with exact inverse
    c2 = float(rng.uniform(0.1, 0.2))
    d2 = float(rng.uniform(0.1, 0.25))
    s2 = float(rng.uniform(1.1, 1.4))
    cc2 = quadratic_time_change(
        1,
        2,
        c2,
        spatial=(
            (
                parse(f"x1 + {d2!r}*x2^2", 1, 2),
                parse(f"{s2!r}*x2", 1, 2),
            ),
            (
                parse(f"x1 - {d2!r}*(x2/{s2!r})^2", 1, 2),
                parse(f"x2/{s2!r}", 1, 2),
            ),
        ),
    )
    sys2 = PdeSystem.from_upper(
        1,
        2,
        {
            (1, 1, 1): parse("0.3*v1_1*v2_1 + 0.2*x2 + 0.5*t1*v2_1^2", 1, 2),
            (2, 1, 1): parse("-0.3*v1_1^2 + 0.4*x1*v1_1 + 0.1*sin(t1)", 1, 2),
        },
    )
    h2 = MetricField(ex.TEMPORAL, ((parse("1 + 0.2*t1^2", 1, 2),),))
    results.append(two_path_worst(sys2, h2, cc2, domain_points(1, 2, 20, seed=62)))

    # diffeo 3: two times mixed linearly, two spaces; affine system over
    # curved diagonal metrics
    u = float(rng.uniform(0.2, 0.35))
    w = float(rng.uniform(0.1, 0.3))
    det = 1.0 + u * w
    cc3 = CoordinateChange(
        2,
        2,
        t_forward=(
            parse(f"t1 + {u!r}*t2", 2, 2),
            parse(f"t2 - {w!r}*t1", 2, 2),
        ),
        x_forward=(
            parse("sinh(x1)", 2, 2),
            parse("x2 + 0.2*x2^2", 2, 2),
        ),
        t_inverse=(
            parse(f"(t1 - {u!r}*t2)/{det!r}", 2, 2),
            parse(f"(t2 + {w!r}*t1)/{det!r}", 2, 2),
        ),
        x_inverse=(
            parse("log(x1 + sqrt(x1^2 + 1))", 2, 2),
            parse("(sqrt(1 + 0.8*x2) - 1)/0.4", 2, 2),
        ),
    )
    h3 = MetricField(
        ex.TEMPORAL,
        (
            (parse("1 + 0.3*t1^2", 2, 2), ex.ZERO),
            (ex.ZERO, parse("2 + 0.2*t2^2", 2, 2)),
        ),
    )
    phi3 = MetricField(
        ex.SPATIAL,
        (
            (parse("1 + 0.25*x2^2", 2, 2), ex.ZERO),
            (ex.ZERO, parse("1 + 0.3*x1^2", 2, 2)),
        ),
    )
    sys3 = build_affine_system(h3, phi3)
    results.append(two_path_worst(sys3, h3, cc3, domain_points(2, 2, 20, seed=63)))
    worst = max(results)

    # solutions transport to solutions of the pushed-forward system
    zero = PdeSystem.from_upper(
        2,
        2,
        {(i, a, b): ex.ZERO for i in (1, 2) for a in (1, 2) for b in (a, 2) if a <= b},
    )
    flat2 = support.flat_metric(ex.TEMPORAL, 2)
    new_zero, _ = pushforward_system(cc3, zero, flat2)
    sigma = SectionMap(
        2,
        (
            parse("0.4 + 0.3*t1 - 0.2*t2", 2, 2),
            parse("0.5 - 0.1*t1 + 0.4*t2", 2, 2),
        ),
    )
    sigma_new = transform_section(cc3, sigma)
    worst_sol = 0.0
    for p in domain_points(2, 2, 6, seed=64):
        t_new = cc3.forward_t(p.t)
        worst_sol = max(
            worst_sol, float(np.max(np.abs(sode_residual(new_zero, sigma_new, t_new))))
        )

    unit_h = MetricField(ex.TEMPORAL, ((ex.ONE,),))
    geo = build_affine_system(unit_h, support.sphere_metric())
    new_geo, _ = pushforward_system(cc2, geo, unit_h)
    equator = SectionMap(1, (parse("pi/2", 1, 2), parse("0.3 + 0.8*t1", 1, 2)))
    moved_eq = transform_section(cc2, equator)
    for t in (0.2, 0.5, 0.8):
        t_new = cc2.forward_t(np.array([t]))
        worst_sol = max(
            worst_sol, float(np.max(np.abs(sode_residual(new_geo, moved_eq, t_new))))
        )

    criterion(
        4,
        "transformation covariance",
        worst <= 1e-6 and worst_sol <= 1e-8,
        f"max deviation {worst:.2e} <= 1e-6 over 5 invariants + C, J_h, "
        f"3 diffeos x 20 points; solution residual {worst_sol:.2e} <= 1e-8",
        time.perf_counter() - t0,
        30.0,
    )


# ---------------------------------------------------------------------------
# 5. correspondence round trips
# ---------------------------------------------------------------------------


def test_criterion_05_correspondence_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
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
    exact = all(
        back.comps[i][a][b] is H.comps[i][a][b]
        for i in range(2)
        for a in range(2)
        for b in range(2)
    )

    # two velocity-quadratic systems over a time-independent metric: the
    # affine one, and one whose quadratic coefficients come from no metric
    flat_h = support.flat_metric(ex.TEMPORAL, 2)
    phi = support.random_spd_metric(ex.SPATIAL, 2, seed=8)
    affine_sys = build_affine_system(flat_h, phi)
    gcoef = {}
    for i in (1, 2):
        for p in (1, 2):
            for q in (p, 2):
                e = parse(
                    f"{rng.uniform(-1, 1):.3f} + {rng.uniform(-1, 1):.3f}*x{p}",
                    2,
                    2,
                )
                gcoef[(i, p, q)] = e
                gcoef[(i, q, p)] = e
    quad = PdeSystem.from_upper(
        2,
        2,
        {
            (i, a, b): ex.expr_sum(
                ex.mul(gcoef[(i, p, q)], ex.mul(ex.v_var(p, a), ex.v_var(q, b)))
                for p in (1, 2)
                for q in (1, 2)
            )
            for i in (1, 2)
            for a in (1, 2)
            for b in range(a, 3)
        },
    )
    worst = 0.0
    pts = sample_jet_points(2, 2, 50, seed=52)
    for system in (affine_sys, quad):
        pipe = InvariantPipeline(system, flat_h)
        g_back = spatial_semispray_from_connection(pipe.connection)
        for p in pts:
            b = p.bindings()
            for i in (1, 2):
                for a in (1, 2):
                    for cidx in (1, 2):
                        worst = max(
                            worst,
                            abs(
                                evaluate(g_back.component(i, a, cidx), b)
                                - evaluate(pipe.semispray.component(i, a, cidx), b)
                            ),
                        )
    criterion(
        5,
        "correspondence round trips",
        exact and worst <= 1e-10,
        f"semispray/connection-part round trip exact; "
        f"system->semispray->connection->semispray {worst:.2e} <= 1e-10 at 50 points",
        time.perf_counter() - t0,
        2.0,
    )


# ---------------------------------------------------------------------------
# 6. derivative oracle against central finite differences
# ---------------------------------------------------------------------------


def random_expression(rng, m, n, depth):
    def leaf():
        r = int(rng.integers(0, 4))
        if r == 0:
            return ex.t_var(int(rng.integers(1, m + 1)))
        if r == 1:
            return ex.x_var(int(rng.integers(1, n + 1)))
        if r == 2:
            return ex.v_var(int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1)))
        return ex.num(round(float(rng.uniform(-2.0, 2.0)), 3))

    def build(d):
        if d == 0:
            return leaf()
        op = int(rng.integers(0, 7))
        if op == 0:
            return ex.add(build(d - 1), build(d - 1))
        if op == 1:
            return ex.sub(build(d - 1), build(d - 1))
        if op == 2:
            return ex.mul(build(d - 1), build(d - 1))
        if op == 3:
            return ex.div(build(d - 1), ex.add(2.0, ex.pow_(leaf(), 2.0)))
        if op == 4:
            return ex.sin(build(d - 1))
        if op == 5:
            return ex.exp(ex.mul(0.3, build(d - 1)))
        return ex.sqrt(ex.add(1.0, ex.pow_(build(d - 1), 2.0)))

    return build(depth)


def safe_bindings(rng, m, n):
    p = JetPoint(
        rng.uniform(0.3, 1.1, m), rng.uniform(0.3, 1.1, n), rng.uniform(0.3, 1.1, (n, m))
    )
    return p.bindings()


def test_criterion_06_derivative_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(zlib.crc32(b"derivative oracle"))
    m = n = 2
    worst = 0.0
    produced = 0
    while produced < 50:
        e = random_expression(rng, m, n, depth=3)
        vids = sorted(ex.free_variables(e), key=lambda u: u.name)
        if not vids:
            continue
        produced += 1
        for vid in vids:
            d = differentiate(e, vid)
            for _ in range(3):
                b = safe_bindings(rng, m, n)
                want = fd_partial(e, vid, b, step=1e-5)
                got = evaluate(d, b)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))

    # the derivative terms the connection and deviation families are built
    # from: v-derivatives of the h-traced system, then x- and t-derivatives
    # of those
    h, phi, system, _ = accept_pair22()
    hinv_rows = h.inverse().rows
    worst_f = 0.0
    for i in (1, 2):
        traced = ex.expr_sum(
            ex.mul(hinv_rows[a][c], system.component(i, a + 1, c + 1))
            for a in range(2)
            for c in range(2)
        )
        for vv in [ex.VariableId(ex.VELOCITY, i=j, alpha=g) for j in (1, 2) for g in (1, 2)]:
            dv = differentiate(traced, vv)
            for _ in range(3):
                b = safe_bindings(rng, m, n)
                worst_f = max(
                    worst_f,
                    abs(evaluate(dv, b) - fd_partial(traced, vv, b, step=1e-5))
                    / max(1.0, abs(evaluate(dv, b))),
                )
            for second in (
                ex.VariableId(ex.SPATIAL, i=1),
                ex.VariableId(ex.SPATIAL, i=2),
                ex.VariableId(ex.TEMPORAL, alpha=1),
            ):
                dd = differentiate(dv, second)
                for _ in range(2):
                    b = safe_bindings(rng, m, n)
                    worst_f = max(
                        worst_f,
                        abs(evaluate(dd, b) - fd_partial(dv, second, b, step=1e-5))
                        / max(1.0, abs(evaluate(dd, b))),
                    )
    ok = worst <= 1e-5 and worst_f <= 1e-5
    criterion(
        6,
        "derivative oracle",
        ok,
        f"50 random expressions rel {worst:.2e}, system derivative terms "
        f"rel {worst_f:.2e}, both <= 1e-5",
        time.perf_counter() - t0,
        5.0,
    )


# ---------------------------------------------------------------------------
# 7. characterization build / extract round trip
# ---------------------------------------------------------------------------


def test_criterion_07_characterization_round_trip():
    t0 = time.perf_counter()
    m = n = 2
    rng = np.random.default_rng(zlib.crc32(b"characterization"))
    h = MetricField(
        ex.TEMPORAL,
        (
            (parse("1 + 0.3*t1^2", m, n), ex.ZERO),
            (ex.ZERO, parse("2 + 0.2*t2^2", m, n)),
        ),
    )

    def coef():
        return f"{rng.uniform(-0.5, 0.5):.3f}"

    gamma = SymmetricCoefficientField.from_upper(
        m,
        n,
        {
            (i, p, q): parse(f"{coef()} + {coef()}*x{p} + {coef()}*t{q}", m, n)
            for i in (1, 2)
            for p in (1, 2)
            for q in (p, 2)
            if p <= q
        },
    )
    ratio = parse("(1 + 0.3*t1^2)/(2 + 0.2*t2^2)", m, n)
    upper = {}
    for i in (1, 2):
        g = parse(f"{coef()} + {coef()}*x{i}*t{3 - i}", m, n)
        upper[(i, 2, 1, 1, 2)] = g
        upper[(i, 1, 2, 1, 2)] = ex.simplify(ex.neg(ex.mul(ratio, g)))
    coupling = AntisymmetricCouplingField.from_upper(m, n, upper)
    system = build_characterized_system(gamma, coupling, h)

    pts = sample_jet_points(m, n, 100, seed=71)
    pipe = InvariantPipeline(system, h)
    eps_max = float(np.max(np.abs(pipe.evaluate_batch("eps", pts))))
    d_zero = all(ex.is_zero(e) for e in flatten(pipe.expressions("D")))

    t_base, x_base = np.array([0.4, 0.6]), np.array([0.3, 0.7])
    gamma_got, coupling_got, diag = extract_structure(system, h, t_base, x_base)
    round_trip = max(
        float(np.max(np.abs(gamma_got - gamma.evaluate(t_base, x_base)))),
        float(np.max(np.abs(coupling_got - coupling.evaluate(t_base, x_base)))),
    )

    cubic = PdeSystem.from_upper(
        m,
        n,
        {
            (i, a, b): parse(f"v{i}_{a}^3", m, n) if (a, b) == (1, 1) else ex.ZERO
            for i in (1, 2)
            for a in (1, 2)
            for b in (a, 2)
            if a <= b
        },
    )
    try:
        extract_structure(cubic, h, t_base, x_base)
        rejected = False
    except NotVelocityQuadraticError:
        rejected = True

    ok = eps_max <= 1e-9 and d_zero and round_trip <= 1e-8 and rejected
    criterion(
        7,
        "characterization round trip",
        ok,
        f"built system: max |eps| {eps_max:.2e} <= 1e-9 at 100 points, D "
        f"structural zero; extraction round trip {round_trip:.2e} <= 1e-8; "
        f"cubic system rejected",
        time.perf_counter() - t0,
        10.0,
    )


# ---------------------------------------------------------------------------
# 8. constraint-system null space for flat metrics
# ---------------------------------------------------------------------------


def test_criterion_08_constraint_nullspace_dimensions():
    t0 = time.perf_counter()
    dims = {}
    zero_ok = True
    for m in (2, 3, 4):
        h = support.flat_metric(ex.TEMPORAL, m)
        res = star_star_nullspace(h, np.full(m, 0.3))
        dims[m] = res.dimension
        zero_ok = zero_ok and res.residual(np.zeros(m * (m - 1))) == 0.0
    ok = dims == {2: 1, 3: 3, 4: 6} and zero_ok
    criterion(
        8,
        "constraint null-space dimensions",
        ok,
        f"flat dims {dims[2]}/{dims[3]}/{dims[4]} = m(m-1)/2 for m=2,3,4; "
        f"zero vector satisfies the system",
        time.perf_counter() - t0,
        1.0,
    )


# ---------------------------------------------------------------------------
# 9. classical single-time reduction
# ---------------------------------------------------------------------------


def test_criterion_09_classical_reduction():
    t0 = time.perf_counter()
    h = MetricField(ex.TEMPORAL, ((ex.ONE,),))
    system = PdeSystem.from_upper(1, 1, {(1, 1, 1): parse("x1", 1, 1)})
    pipe = InvariantPipeline(system, h)
    pts = sample_jet_points(1, 1, 50, seed=91)
    eps = pipe.evaluate_batch("eps", pts)[0, 0, 0]
    pvals = pipe.evaluate_batch("P", pts)[0, 0]
    xs = np.array([p.x[0] for p in pts])
    ok = np.array_equal(eps, -xs) and np.array_equal(pvals, np.full(50, -1.0))
    criterion(
        9,
        "classical reduction",
        ok,
        "eps = -x1 and P = [[-1]] exactly at 50 sampled points",
        time.perf_counter() - t0,
        1.0,
    )


# ---------------------------------------------------------------------------
# 10. deviation form of the variational equations
# ---------------------------------------------------------------------------


def test_criterion_10_jacobi_identity():
    t0 = time.perf_counter()
    # flat linear data: residual is exactly zero
    zero = PdeSystem.from_upper(
        2,
        2,
        {(i, a, b): ex.ZERO for i in (1, 2) for a in (1, 2) for b in (a, 2) if a <= b},
    )
    flat2 = support.flat_metric(ex.TEMPORAL, 2)
    sigma = SectionMap(2, (parse("t1 - t2", 2, 2), parse("0.5*t2", 2, 2)))
    xi = VariationField(2, (parse("t1", 2, 2), parse("2*t2 - t1", 2, 2)))
    flat_res = float(
        np.max(np.abs(jacobi_identity_residual(zero, flat2, sigma, xi, [0.2, 0.8])))
    )

    # the unit-sphere equator with the closed-form deviation field
    unit_h = MetricField(ex.TEMPORAL, ((ex.ONE,),))
    geo = build_affine_system(unit_h, support.sphere_metric())
    equator = SectionMap(1, (ex.num(np.pi / 2), ex.t_var(1)))
    normal = VariationField(1, (parse("sin(t1)", 1, 2), ex.ZERO))
    sphere_res = max(
        float(
            np.max(np.abs(jacobi_identity_residual(geo, unit_h, equator, normal, [t])))
        )
        for t in (0.3, 1.0, 2.1)
    )

    # independent curvature-form route for the affine system
    pipe = InvariantPipeline(geo, unit_h)
    rsym = curvature_sym(support.sphere_metric())
    xi2 = VariationField(1, (parse("0.4*t1^2", 1, 2), parse("sin(t1)", 1, 2)))
    nconn = pipe.connection.spatial
    first = tuple(
        tuple(
            ex.add(
                xi2.derivative[i][a],
                ex.expr_sum(ex.mul(nconn[i][a][r], xi2.comps[r]) for r in range(2)),
            )
            for a in range(1)
        )
        for i in range(2)
    )
    worst_display = 0.0
    for tval in (0.35, 1.2):
        grad2 = on_section(pipe.covariant_derivative_family(first), equator, [tval])
        p = equator.prolongation_point([tval])
        b = p.bindings()
        tb = Bindings.from_names(1, 2, {"t1": tval})
        rv = eval_curvature_family(rsym, 2, b)
        xiv = np.array([evaluate(cexp, tb) for cexp in xi2.comps])
        curv = np.einsum("ipqr,pa,qb,r->iab", rv, p.v, p.v, xiv)
        display = (grad2 + curv)[:, 0, 0]
        got = jacobi_identity_residual(geo, unit_h, equator, xi2, [tval])
        worst_display = max(worst_display, support.rel_max(got, display))

    ok = flat_res == 0.0 and sphere_res <= 1e-6 and worst_display <= 1e-6
    criterion(
        10,
        "deviation form of variational equations",
        ok,
        f"flat linear residual {flat_res:.1e}; sphere closed-form field "
        f"{sphere_res:.2e} <= 1e-6; curvature-form agreement "
        f"{worst_display:.2e} <= 1e-6",
        time.perf_counter() - t0,
        5.0,
    )


# ---------------------------------------------------------------------------
# 11. determinism of every report the tool produces
# ---------------------------------------------------------------------------


def test_criterion_11_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    import pathlib

    problems = pathlib.Path(__file__).resolve().parents[1] / "problems"
    commands = [
        ["invariants", str(problems / "affine_curved.json"), "--samples", "10",
         "--seed", "21"],
        ["check", "transform", str(problems / "oscillator.json"),
         str(problems / "change_stretch.json"), "--samples", "8", "--seed", "4"],
        ["check", "fd", str(problems / "rotation_flow.json"), "--samples", "8",
         "--seed", "6"],
        ["check", "jacobi", str(problems / "oscillator.json"), "--samples", "6",
         "--seed", "9"],
        ["characterize", str(problems / "affine_curved.json"), "--base",
         "0.2,0.3,0.4,0.5"],
        ["nullspace", str(problems / "flat_metric_m3.json"), "--t", "0.1,0.2,0.3"],
    ]
    identical = True
    all_pass = True
    for k, args in enumerate(commands):
        out1 = tmp_path / f"r{k}a.json"
        out2 = tmp_path / f"r{k}b.json"
        all_pass = all_pass and cli_main(args + ["--out", str(out1)]) == 0
        all_pass = all_pass and cli_main(args + ["--out", str(out2)]) == 0
        identical = identical and out1.read_bytes() == out2.read_bytes()
    criterion(
        11,
        "deterministic reports",
        identical and all_pass,
        "6 command reports byte-identical across reruns "
        "(suite wall time: see the pytest summary line)",
        time.perf_counter() - t0,
        None,
    )
