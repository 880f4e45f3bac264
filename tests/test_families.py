"""Expression families: every family builder must build the same nodes, and
every family constructor refuses the same malformed data.

``tests/golden/families.json`` holds, for each family below, its nesting
shape and the sha256 of ``to_string`` of every leaf in nesting order.
Printing re-parses to the very node (``parse(to_string(e)) is e`` is
property-tested in ``test_exprlang``), so equal digests mean equal nodes.

Regenerate the file (only when a change of the built expressions is
intended) with::

    PYTHONPATH=src python tests/test_families.py
"""

import ast
import hashlib
import itertools
import json
import pathlib
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from jetkcc import exprlang as ex
from jetkcc.characterize import (
    AntisymmetricCouplingField,
    SymmetricCoefficientField,
    build_characterized_system,
)
from jetkcc.cli import load_problem
from jetkcc.dtransform import CoordinateChange, pushforward_system
from jetkcc.exprlang import parse, to_string
from jetkcc.jetgeom import (
    MetricField,
    PdeSystem,
    build_first_order_system,
    canonical_spatial_connection,
    canonical_spatial_semispray,
    canonical_temporal_connection,
    canonical_temporal_semispray,
    christoffel_sym,
    curvature_sym,
)
from jetkcc.kcccore import (
    InvariantPipeline,
    SectionMap,
    VariationField,
    spatial_semispray_from_connection,
)
from test_characterize import admissible_setup22
from test_dtransform import _leaves, _node_counts, change22, pushforward_pipeline22
from test_dtransform import affine_setup22

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "families.json"

# a first-order flow (m = n = 2) whose prolongation is asymmetric in (a, b)
FLOW = {
    (1, 1): "0.4*t1*x2 + 0.3*t2",
    (1, 2): "0.2*x1^2",
    (2, 1): "0.5*x1 - 0.1*t2^2",
    (2, 2): "0.3*x2*t1",
}


def system_grid(system):
    """A system's components as nested tuples [i-1][a-1][b-1]."""
    return tuple(
        tuple(
            tuple(system.component(i, a, b) for b in range(1, system.m + 1))
            for a in range(1, system.m + 1)
        )
        for i in range(1, system.n + 1)
    )


def build_families() -> dict:
    """name -> nested tuples of expressions, each family on fixed inputs."""
    problem = load_problem(str(ROOT / "problems" / "affine_curved.json"))
    h, phi = problem.h, problem.phi
    m, n = problem.m, problem.n
    pipe = InvariantPipeline(problem.system, h)
    flow = {key: parse(text, 2, 2) for key, text in FLOW.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        raw = build_first_order_system(flow, 2, 2)
        symmetrized = build_first_order_system(flow, 2, 2, symmetrize=True)
        h2, gamma, coupling = admissible_setup22()
        characterized = build_characterized_system(gamma, coupling, h2)
    h22, _, affine22 = affine_setup22()
    pushed, pushed_h = pushforward_system(change22(), affine22, h22)
    pushed_raw, pushed_raw_h = pushforward_system(change22(), raw, h22)
    return {
        "affine_curved.h_inverse": h.inverse().rows,
        "affine_curved.phi_inverse": phi.inverse().rows,
        "affine_curved.christoffel_h": christoffel_sym(h),
        "affine_curved.christoffel_phi": christoffel_sym(phi),
        "affine_curved.curvature_phi": curvature_sym(phi),
        "affine_curved.canonical_temporal_semispray": canonical_temporal_semispray(
            h, n
        ),
        "affine_curved.canonical_spatial_semispray": canonical_spatial_semispray(
            phi, m
        ),
        "affine_curved.canonical_temporal_connection": (
            canonical_temporal_connection(h, n)
        ),
        "affine_curved.canonical_spatial_connection": canonical_spatial_connection(
            phi, m
        ),
        "affine_curved.system": system_grid(problem.system),
        "affine_curved.connection_temporal": pipe.connection.temporal,
        "affine_curved.connection_spatial": pipe.connection.spatial,
        "affine_curved.semispray_from_system": pipe.semispray.comps,
        "affine_curved.semispray_from_connection": (
            spatial_semispray_from_connection(pipe.connection).comps
        ),
        "affine_curved.P": pipe.expressions("P"),
        "affine_curved.R": pipe.expressions("R"),
        "first_order.raw": system_grid(raw),
        "first_order.symmetrized": system_grid(symmetrized),
        "characterized.gamma": gamma.comps,
        "characterized.coupling": coupling.comps,
        "characterized.system": system_grid(characterized),
        "pushforward_pair22.system": system_grid(pushed),
        "pushforward_pair22.h": pushed_h.rows,
        "pushforward_first_order.system": system_grid(pushed_raw),
        "pushforward_first_order.h": pushed_raw_h.rows,
    }


def _shape(nested) -> list:
    return [len(nested)] + _shape(nested[0]) if isinstance(nested, tuple) else []


def digests(families: dict) -> dict:
    return {
        name: {
            "shape": _shape(nested),
            "sha256": [
                hashlib.sha256(to_string(leaf).encode()).hexdigest()
                for leaf in _leaves(nested)
            ],
        }
        for name, nested in families.items()
    }


def render(table: dict) -> str:
    return json.dumps(table, indent=1) + "\n"


def test_families_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(build_families())
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


def test_pushed_pair_identity_node_counts():
    # distinct node objects reachable from each family of the curved 2x2
    # pair pushed forward under change22
    pipe = pushforward_pipeline22()
    counts = {
        name: _node_counts(_leaves(pipe.expressions(name)))[0]
        for name in ("eps", "P", "R", "B")
    }
    assert counts == {"eps": 1167, "P": 4957, "R": 4458, "B": 4920}


def test_every_family_leaf_is_canonical():
    # the builders compose parsed (canonical) inputs through the smart
    # constructors, so simplify returns every leaf unchanged
    leaves = [leaf for fam in build_families().values() for leaf in _leaves(fam)]
    assert len(leaves) == 220
    assert all(ex.simplify(leaf) is leaf for leaf in leaves)


def _mirrored_blocks(nested, depth):
    """The square blocks formed by the last two axes of a family of
    ``depth`` axes."""
    if depth == 2:
        yield nested
    else:
        for part in nested:
            yield from _mirrored_blocks(part, depth - 1)


def test_symmetric_families_share_their_mirrors():
    families = build_families()
    symmetric = [
        "affine_curved.h_inverse",
        "affine_curved.phi_inverse",
        "affine_curved.christoffel_h",
        "affine_curved.christoffel_phi",
        "affine_curved.canonical_temporal_semispray",
        "affine_curved.canonical_temporal_connection",
        "affine_curved.system",
        "affine_curved.connection_temporal",
        "affine_curved.semispray_from_system",
        "affine_curved.semispray_from_connection",
        "first_order.symmetrized",
        "characterized.gamma",
        "characterized.system",
        "pushforward_pair22.system",
        "pushforward_pair22.h",
        "pushforward_first_order.h",
    ]
    antisymmetric = [
        "affine_curved.curvature_phi",
        "affine_curved.R",
        "characterized.coupling",
    ]
    for name in symmetric + antisymmetric:
        fam = families[name]
        for block in _mirrored_blocks(fam, len(_shape(fam))):
            d = len(block)
            for a in range(d):
                for b in range(a + 1, d):
                    if name in symmetric:
                        assert block[b][a] is block[a][b], name
                    else:
                        assert block[b][a] is ex.neg(block[a][b]), name
            if name in antisymmetric:
                assert all(block[a][a] is ex.ZERO for a in range(d)), name


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    head=st.lists(st.integers(1, 3), max_size=3),
    d=st.integers(1, 4),
    flag=st.sampled_from(["symmetric", "antisymmetric"]),
)
def test_nested_builds_each_independent_entry_once(head, d, flag):
    # 2 to 5 axes whose last two are (d, d); each call returns a new node
    extents = (*head, d, d)
    built = {}

    def entry(*index):
        assert index not in built
        built[index] = ex.add(ex.t_var(1), ex.num(len(built) + 1))
        return built[index]

    fam = ex.nested(extents, entry, **{flag: True})
    grid = list(itertools.product(*map(range, extents)))
    if flag == "symmetric":
        want = [k for k in grid if k[-2] <= k[-1]]
    else:
        want = [k for k in grid if k[-2] < k[-1]]
    assert list(built) == want  # once each, in nesting order
    arr = ex.family_array(fam)
    for *head_index, p, q in grid:
        node = arr[(*head_index, p, q)]
        if (*head_index, p, q) in built:
            assert node is built[(*head_index, p, q)]
        elif p == q:
            assert node is ex.ZERO
        else:
            upper = built[(*head_index, q, p)]
            assert node is (upper if flag == "symmetric" else ex.neg(upper))
    ex.check_family(fam, 1, 1, extents, "family", **{flag: True})


def _assigns_index_pair_from_min_max(node) -> bool:
    """``p, q = min(...), max(...)``: an index pair put in order by hand."""
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)):
        return False
    if not any(isinstance(target, ast.Tuple) for target in node.targets):
        return False
    called = {
        elt.func.id
        for elt in node.value.elts
        if isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name)
    }
    return {"min", "max"} <= called


def test_only_exprlang_orders_index_pairs():
    # a mirrored family passes symmetric= or antisymmetric= to ex.nested,
    # which alone decides which entries are built and which are mirrors
    found = []
    paths = sorted((ROOT / "src" / "jetkcc").glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        if path.name == "exprlang.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _assigns_index_pair_from_min_max(node)
        ]
    assert found == []


def _matrix_algebra(node) -> bool:
    """A matrix product ``@`` or a reference to ``np.linalg.inv``."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "inv"
        and ast.unparse(node.value) == "np.linalg"
    )


def test_only_transform_dtensor_applies_jacobians():
    # jet points and invariants move by the one slot law: every matrix
    # product and inverse in dtransform sits inside transform_dtensor
    path = ROOT / "src" / "jetkcc" / "dtransform.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    law = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == "transform_dtensor"
        for node in ast.walk(top)
        if _matrix_algebra(node)
    }
    assert law  # the law itself is still found
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if _matrix_algebra(node) and id(node) not in law
    ]
    assert found == []


# ---------------------------------------------------------------------------
# what every family constructor refuses (``exprlang.check_family``)
# ---------------------------------------------------------------------------


def _identity(var, d):
    return tuple(var(k + 1) for k in range(d))


def _change(slot):
    """A coordinate change whose map ``slot`` is the given family and whose
    other maps are identities."""

    def make(m, n, fam):
        maps = {
            "t_forward": _identity(ex.t_var, m),
            "x_forward": _identity(ex.x_var, n),
            "t_inverse": _identity(ex.t_var, m),
            "x_inverse": _identity(ex.x_var, n),
        }
        maps[slot] = fam
        return CoordinateChange(m, n, **maps)

    return make


def _flow(m, n, fam):
    X = {(i + 1, a + 1): e for i, row in enumerate(fam) for a, e in enumerate(row)}
    return build_first_order_system(X, m, n)


# what, allowed ranges at (m, n) = (2, 3), the dimensions it spans, its
# extents, its constructor from a nested family, a variable of a foreign kind
# (None when every kind is allowed) and one past its index bound
CONSTRUCTORS = [
    ("temporal metric", "t1..t2", "m", lambda m, n: (m, m),
     lambda m, n, f: MetricField.temporal(f), ex.x_var(1), ex.t_var(3)),
    ("spatial metric", "x1..x3", "n", lambda m, n: (n, n),
     lambda m, n, f: MetricField.spatial(f), ex.t_var(1), ex.x_var(4)),
    ("section", "t1..t2", "mn", lambda m, n: (n,),
     lambda m, n, f: SectionMap(m, f), ex.x_var(1), ex.t_var(3)),
    ("variation field", "t1..t2", "mn", lambda m, n: (n,),
     lambda m, n, f: VariationField(m, f), ex.v_var(1, 1), ex.t_var(3)),
    ("temporal forward map", "t1..t2", "mn", lambda m, n: (m,),
     _change("t_forward"), ex.x_var(1), ex.t_var(3)),
    ("temporal inverse map", "t1..t2", "mn", lambda m, n: (m,),
     _change("t_inverse"), ex.x_var(1), ex.t_var(3)),
    ("spatial forward map", "x1..x3", "mn", lambda m, n: (n,),
     _change("x_forward"), ex.v_var(1, 1), ex.x_var(4)),
    ("spatial inverse map", "x1..x3", "mn", lambda m, n: (n,),
     _change("x_inverse"), ex.t_var(1), ex.x_var(4)),
    ("coefficient", "t1..t2, x1..x3", "mn", lambda m, n: (n, n, n),
     lambda m, n, f: SymmetricCoefficientField(m, n, f), ex.v_var(1, 1),
     ex.x_var(4)),
    ("coupling entry", "t1..t2, x1..x3", "mn", lambda m, n: (n, m, m, n, n),
     lambda m, n, f: AntisymmetricCouplingField(m, n, f), ex.v_var(3, 2),
     ex.t_var(3)),
    ("first-order flow", "t1..t2, x1..x3", "mn", lambda m, n: (n, m),
     _flow, ex.v_var(1, 1), ex.x_var(4)),
    ("system", "t1..t2, x1..x3, v1_1..v3_2", "mn", lambda m, n: (n, m, m),
     lambda m, n, f: PdeSystem(m, n, f), None, ex.v_var(1, 3)),
]


def _cases():
    for what, allowed, dims, extents, make, foreign, past in CONSTRUCTORS:
        row = (what, allowed, extents, make)
        name = what.replace(" ", "-")
        if foreign is not None:
            yield pytest.param(*row, "leaf", foreign, id=f"{name}-foreign")
        yield pytest.param(*row, "leaf", past, id=f"{name}-past-bound")
        yield pytest.param(*row, "depth", None, id=f"{name}-extent")
        for m, n in [(0, 3), (5, 3), (2, 0), (2, 5)]:
            if (m != 2 and "m" in dims) or (n != 3 and "n" in dims):
                yield pytest.param(*row, "dims", (m, n), id=f"{name}-m{m}-n{n}")


@pytest.mark.parametrize("what, allowed, extents, make, case, arg", _cases())
def test_family_constructors_refuse_malformed_data(
    what, allowed, extents, make, case, arg
):
    m, n = arg if case == "dims" else (2, 3)
    shape = extents(m, n) + ((1,) if case == "depth" else ())
    fam = ex.nested(shape, lambda *_: arg if case == "leaf" else ex.ZERO)
    if case == "leaf":
        message = f"{what} uses variable '{arg.vid.name}'; allowed: {allowed}"
    elif case == "depth":
        message = f"{what}: expected extents {extents(m, n)}"
    else:
        message = "dimensions must satisfy 1 <= m, n <= 4"
    with pytest.raises(ValueError) as err:
        make(m, n, fam)
    assert str(err.value) == message
    make(2, 3, ex.nested(extents(2, 3), lambda *_: ex.ZERO))  # the valid family


@pytest.mark.parametrize(
    "extents, make",
    [pytest.param(row[3], row[4], id=row[0].replace(" ", "-")) for row in CONSTRUCTORS],
)
def test_family_constructors_build_immutable_objects(extents, make):
    made = make(2, 3, ex.nested(extents(2, 3), lambda *_: ex.ZERO))
    # every data attribute, so also a change's cached Jacobian tables
    names = [
        name
        for name in dir(made)
        if not name.startswith("_") and not callable(getattr(made, name))
    ]
    assert names
    for name in names:
        before = getattr(made, name)
        with pytest.raises(AttributeError):
            setattr(made, name, ("bad",))
        with pytest.raises(AttributeError):
            delattr(made, name)
        assert getattr(made, name) == before


if __name__ == "__main__":
    GOLDEN.write_text(render(digests(build_families())), encoding="utf-8")
