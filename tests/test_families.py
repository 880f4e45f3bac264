"""Golden expression families: every family builder must build the same nodes.

``tests/golden/families.json`` holds, for each family below, its nesting
shape and the sha256 of ``to_string`` of every leaf in nesting order.
Printing re-parses to the very node (``parse(to_string(e)) is e`` is
property-tested in ``test_exprlang``), so equal digests mean equal nodes.

Regenerate the file (only when a change of the built expressions is
intended) with::

    PYTHONPATH=src python tests/test_families.py
"""

import hashlib
import json
import pathlib
import warnings

from jetkcc import exprlang as ex
from jetkcc.characterize import build_characterized_system
from jetkcc.cli import load_problem
from jetkcc.dtransform import pushforward_system
from jetkcc.exprlang import parse, to_string
from jetkcc.jetgeom import (
    build_first_order_system,
    canonical_spatial_connection,
    canonical_spatial_semispray,
    canonical_temporal_connection,
    canonical_temporal_semispray,
    christoffel_sym,
    curvature_sym,
)
from jetkcc.kcccore import InvariantPipeline, spatial_semispray_from_connection
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
        "affine_curved.semispray_from_system": pipe.semispray.components,
        "affine_curved.semispray_from_connection": (
            spatial_semispray_from_connection(pipe.connection).components
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


if __name__ == "__main__":
    GOLDEN.write_text(render(digests(build_families())), encoding="utf-8")
