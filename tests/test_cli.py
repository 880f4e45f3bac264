"""Command-line surface: problem loading, reports, determinism, exit codes."""

import gc
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
import jetkcc.cli as cli
import jetkcc.exprlang as ex
from jetkcc.cli import (
    InputError,
    Records,
    load_problem,
    main,
    render_json,
)
from jetkcc.jetgeom import (
    JetPointSet,
    MetricField,
    build_affine_system,
    sample_jet_points,
)
from test_golden import COMMANDS as GOLDEN_COMMANDS, run_command as run_golden_command

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(args, tmp_path, name="report.json"):
    """Invoke the CLI with --out and return (exit code, parsed report)."""
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


OSC = {
    "m": 1,
    "n": 1,
    "temporal_metric": [["1"]],
    "system": {"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "x1"}]},
}

# log(x1) is out of domain at the 2 of 6 points sampled with seed 0 that have
# x1 < 0
LOG_V = dict(
    OSC, system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "log(x1)*v1_1"}]}
)
IDENTITY_11 = {
    "t_forward": ["t1"],
    "x_forward": ["x1"],
    "t_inverse": ["t1"],
    "x_inverse": ["x1"],
}


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_minimal_oscillator_file_loads(tmp_path):
    path = write_json(tmp_path, "osc.json", OSC)
    problem = load_problem(path)
    assert (problem.m, problem.n) == (1, 1)
    assert problem.system.component(1, 1, 1) == ex.parse("x1", 1, 1)
    assert problem.phi is None and problem.points is None


def test_sample_problem_files_load():
    for name in ("oscillator", "affine_curved", "rotation_flow"):
        problem = load_problem(str(PROBLEMS / f"{name}.json"))
        assert 1 <= problem.m <= 2 and 1 <= problem.n <= 2


def test_duplicate_coverage_rejected(tmp_path):
    doc = {
        "m": 2,
        "n": 1,
        "temporal_metric": [["1", "0"], ["0", "1"]],
        "system": {
            "F": [
                {"i": 1, "alpha": 2, "beta": 1, "expr": "x1"},
                {"i": 1, "alpha": 1, "beta": 2, "expr": "x1"},
                {"i": 1, "alpha": 1, "beta": 1, "expr": "0"},
                {"i": 1, "alpha": 2, "beta": 2, "expr": "0"},
            ]
        },
    }
    with pytest.raises(InputError, match="duplicate coverage"):
        load_problem(write_json(tmp_path, "dup.json", doc))


def test_missing_component_rejected(tmp_path):
    doc = dict(OSC, m=2, temporal_metric=[["1", "0"], ["0", "1"]])
    with pytest.raises(InputError, match="missing components"):
        load_problem(write_json(tmp_path, "gap.json", doc))


def test_affine_builder_matches_library_constructor():
    problem = load_problem(str(PROBLEMS / "affine_curved.json"))
    h = MetricField.temporal(
        [
            [ex.parse("1 + 0.3*t1^2", 2, 2), ex.parse("0.1*t1*t2", 2, 2)],
            [ex.parse("0.1*t1*t2", 2, 2), ex.parse("2 + 0.2*t2^2", 2, 2)],
        ]
    )
    phi = MetricField.spatial(
        [
            [ex.parse("1 + 0.4*x2^2", 2, 2), ex.parse("0", 2, 2)],
            [ex.parse("0", 2, 2), ex.parse("1 + 0.3*x1^2", 2, 2)],
        ]
    )
    want = build_affine_system(h, phi)
    assert problem.system.comps == want.comps


def test_schema_error_paths_name_the_key(tmp_path):
    bad_expr = dict(OSC, system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "x9"}]})
    with pytest.raises(InputError, match=r"system\.F\[0\]\.expr"):
        load_problem(write_json(tmp_path, "a.json", bad_expr))
    with pytest.raises(InputError, match="missing key 'temporal_metric'"):
        load_problem(write_json(tmp_path, "b.json", {"m": 1, "n": 1, "system": {}}))
    with pytest.raises(InputError, match="unknown key"):
        load_problem(write_json(tmp_path, "c.json", dict(OSC, extra=1)))
    with pytest.raises(InputError, match=r"temporal_metric\[0\]"):
        load_problem(
            write_json(tmp_path, "d.json", dict(OSC, temporal_metric=[["1", "0"]]))
        )


def test_asymmetric_metric_rejected(tmp_path):
    doc = {
        "m": 2,
        "n": 1,
        "temporal_metric": [["1", "t1"], ["t2", "1"]],
        "system": {"F": [{"i": 1, "alpha": a, "beta": b, "expr": "0"}
                          for a in (1, 2) for b in (1, 2) if a <= b]},
    }
    with pytest.raises(InputError, match="symmetric"):
        load_problem(write_json(tmp_path, "asym.json", doc))


def test_metric_entry_is_checked_in_canonical_form(tmp_path, capsys):
    # parse returns canonical nodes, so the entry is the literal 1 when the
    # metric checks its variables; the tree as written named x1 and exited 2
    # with "temporal metric entry uses variable 'x1'"
    doc = dict(OSC, temporal_metric=[["1 + 0*x1"]])
    code, _ = run_cli(["invariants", write_json(tmp_path, "c.json", doc)], tmp_path)
    assert code == 0
    assert capsys.readouterr().err == ""


def test_json_syntax_and_duplicate_keys_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 1,', encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        load_problem(str(path))
    path.write_text('{"m": 1, "m": 2}', encoding="utf-8")
    with pytest.raises(InputError, match="duplicate key 'm'"):
        load_problem(str(path))


def test_json_nested_too_deeply_is_input_error(tmp_path, capsys):
    # the JSON decoder recurses once per open bracket
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["invariants", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: '{path}' is nested too deeply to read as JSON\n"


def test_deeply_nested_expression_is_read(tmp_path, capsys):
    deep = dict(OSC, system=_f_system((1, 1, 1, "(" * 400 + "x1" + ")" * 400)))
    code, report = run_cli(["invariants", write_json(tmp_path, "deep.json", deep)], tmp_path)
    assert code == 0 and capsys.readouterr().err == ""
    _, flat = run_cli(["invariants", write_json(tmp_path, "osc.json", OSC)], tmp_path)
    assert report["invariants"] == flat["invariants"]


def test_first_order_builder_requires_full_cover(tmp_path):
    doc = {
        "m": 1,
        "n": 2,
        "temporal_metric": [["1"]],
        "system": {
            "type": "first_order",
            "X": [{"i": 1, "alpha": 1, "expr": "x2"}],
        },
    }
    with pytest.raises(InputError, match="cover every"):
        load_problem(write_json(tmp_path, "flow.json", doc))


def test_first_order_symmetry_probe_out_of_domain_is_input_error(tmp_path, capsys):
    # the symmetry probe's sample points include x1 < 0, where log(x1) is not
    # defined; the probe reports the first such point as one point does
    doc = {
        "m": 2,
        "n": 1,
        "temporal_metric": [["1", "0"], ["0", "1"]],
        "system": {
            "type": "first_order",
            "X": [
                {"i": 1, "alpha": 1, "expr": "t2*log(x1)"},
                {"i": 1, "alpha": 2, "expr": "t1*log(x1)"},
            ],
        },
    }
    path = write_json(tmp_path, "log_flow.json", doc)
    assert main(["invariants", path]) == 2
    assert capsys.readouterr().err == (
        "input error: system.X: log of non-positive value -0.7565606148471162 "
        "in `log(x1)`\n"
    )


def test_symmetrized_first_order_flow_is_not_probed(tmp_path):
    # the asymmetry probe's sample points include x1 < 0, where log(x1) is
    # not defined; a symmetrized flow stores the average without probing, so
    # only the sampled points, inside the box, are evaluated
    doc = {
        "m": 2,
        "n": 1,
        "temporal_metric": [["1", "0"], ["0", "1"]],
        "system": {
            "type": "first_order",
            "symmetrize": True,
            "X": [
                {"i": 1, "alpha": 1, "expr": "t2*log(x1)"},
                {"i": 1, "alpha": 2, "expr": "t1*log(x1)"},
            ],
        },
        "sample_box": {"x": [0.5, 1.5]},
    }
    path = write_json(tmp_path, "log_flow.json", doc)
    code, report = run_cli(["invariants", path, "--samples", "3"], tmp_path)
    assert code == 0
    assert report["pass"] is True


def test_asymmetric_first_order_flow_warns_in_one_line(tmp_path, capsys):
    # the warning is one stderr line, without the source line it came from
    doc = dict(OSC, m=2, temporal_metric=[["1", "0"], ["0", "1"]])
    doc["system"] = _x_system((1, 1, "x1*t2"), (1, 2, "x1"))
    path = write_json(tmp_path, "asym_flow.json", doc)
    code, report = run_cli(["invariants", path, "--samples", "2"], tmp_path)
    assert code == 0 and report["pass"] is True
    assert capsys.readouterr().err == (
        "warning: first-order prolongation is asymmetric in its time indices "
        "(max deviation 2.132e+00 at sample points); storing as written\n"
    )


def _f_system(*entries):
    return {"F": [dict(zip(("i", "alpha", "beta", "expr"), e)) for e in entries]}


def _x_system(*entries):
    X = [dict(zip(("i", "alpha", "expr"), e)) for e in entries]
    return {"type": "first_order", "X": X}


def _problem(**keys):
    return "problem", dict(OSC, **keys)


# one malformed file per table reader: (file kind, document, stderr after
# "input error: "); a problem is read by `invariants`, a change by `check
# transform` of OSC, a metric by `nullspace`.  The unparsable second entries
# pin the order of the checks: F parses an entry before its duplicate check,
# X checks for a duplicate first.
READER_MESSAGES = {
    "temporal-too-few-rows": (
        _problem(m=2, temporal_metric=[["1", "0"]]),
        "temporal_metric: expected exactly 2 entries, got 1",
    ),
    "temporal-short-row": (
        _problem(m=2, temporal_metric=[["1", "0"], ["0"]]),
        "temporal_metric[1]: expected exactly 2 entries, got 1",
    ),
    "temporal-not-a-string": (
        _problem(temporal_metric=[[1]]),
        "temporal_metric[0][0]: expected an expression string",
    ),
    "temporal-asymmetric": (
        _problem(m=2, temporal_metric=[["1", "t1"], ["t2", "1"]]),
        "temporal_metric: temporal metric: components must be stored symmetric "
        "in the two trailing indices",
    ),
    "spatial-foreign-variable": (
        _problem(spatial_metric=[["v1_1"]]),
        "spatial_metric: spatial metric uses variable 'v1_1'; allowed: x1..x1",
    ),
    "spatial-not-an-array": (
        _problem(spatial_metric="1"),
        "spatial_metric: expected a JSON array",
    ),
    "section-wrong-length": (
        _problem(section=["t1", "t1"]),
        "section: expected exactly 1 entries, got 2",
    ),
    "section-foreign-variable": (
        _problem(section=["x1"]),
        "section: section uses variable 'x1'; allowed: t1..t1",
    ),
    "variation-parse-error": (
        _problem(section=["t1"], variation=["t1 +"]),
        "variation[0]: bad expression: expected an expression, found "
        "'end of input' (at position 4)",
    ),
    "points-v-wrong-length": (
        _problem(points=[{"t": [0], "x": [0], "v": [[0], [0]]}]),
        "points[0].v: expected exactly 1 entries, got 2",
    ),
    "points-x-not-a-number": (
        _problem(points=[{"t": [0], "x": ["0"], "v": [[0]]}]),
        "points[0].x[0]: expected a number",
    ),
    "F-duplicate": (
        _problem(system=_f_system((1, 1, 1, "x1"), (1, 1, 1, "x1"))),
        "system.F[1]: duplicate coverage of component (i=1, alpha=1, beta=1)",
    ),
    "F-duplicate-unparsable": (
        _problem(system=_f_system((1, 1, 1, "x1"), (1, 1, 1, "x1 +"))),
        "system.F[1].expr: bad expression: expected an expression, found "
        "'end of input' (at position 4)",
    ),
    "F-literal-beyond-float-range": (
        _problem(system=_f_system((1, 1, 1, "1e400*x1*v1_1"))),
        "system.F[0].expr: bad expression: number '1e400' is beyond the float "
        "range (at position 0)",
    ),
    "F-beta-out-of-range": (
        _problem(system=_f_system((1, 1, 2, "x1"))),
        "system.F[0].beta: must be between 1 and 1, got 2",
    ),
    "F-missing": (
        _problem(m=2, temporal_metric=[["1", "0"], ["0", "1"]]),
        "system.F: component grid mismatch: missing components "
        "[(1, 1, 2), (1, 2, 2)] (every index with a <= b must appear exactly once)",
    ),
    "X-duplicate-unparsable": (
        _problem(system=_x_system((1, 1, "x1"), (1, 1, "x1 +"))),
        "system.X[1]: duplicate flow component (i=1, alpha=1)",
    ),
    "X-missing": (
        _problem(n=2, system=_x_system((1, 1, "x2"))),
        "system.X: first-order components must cover every (i, a)",
    ),
    "X-foreign-variable": (
        _problem(system=_x_system((1, 1, "v1_1"))),
        "system.X: first-order flow uses variable 'v1_1'; allowed: t1..t1, x1..x1",
    ),
    "sample-box-t-reversed": (
        _problem(sample_box={"t": [1, 0]}),
        "sample_box.t: box bounds must satisfy lo < hi, got [1.0, 0.0]",
    ),
    "change-wrong-length": (
        ("change", dict(IDENTITY_11, x_forward=["x1", "x1"])),
        "x_forward: expected exactly 1 entries, got 2",
    ),
    "change-foreign-variable": (
        ("change", dict(IDENTITY_11, t_forward=["x1"])),
        "<root>: temporal forward map uses variable 'x1'; allowed: t1..t1",
    ),
    "nullspace-short-row": (
        ("metric", {"m": 2, "temporal_metric": [["1", "0"], ["0"]]}),
        "temporal_metric[1]: expected exactly 2 entries, got 1",
    ),
}


@pytest.mark.parametrize("case", list(READER_MESSAGES))
def test_table_readers_keep_their_messages(case, tmp_path, capsys):
    (kind, doc), message = READER_MESSAGES[case]
    path = write_json(tmp_path, "bad.json", doc)
    argv = {
        "problem": ["invariants", path],
        "change": ["check", "transform", write_json(tmp_path, "osc.json", OSC), path],
        "metric": ["nullspace", path, "--t", "0,0"],
    }[kind]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


# ---------------------------------------------------------------------------
# invariants command
# ---------------------------------------------------------------------------


def test_oscillator_deviation_curvature_is_minus_one(tmp_path):
    path = write_json(tmp_path, "osc.json", OSC)
    code, report = run_cli(
        ["invariants", path, "--which", "P,eps", "--samples", "6", "--seed", "3"],
        tmp_path,
    )
    assert code == 0 and report["pass"] is True
    by_name = {blk["name"]: blk for blk in report["invariants"]}
    p_blk = by_name["P"]
    assert p_blk["components"][0]["index"] == [1, 1]
    assert p_blk["components"][0]["values"] == [-1.0] * 6
    # eps = -x1 at every sampled point
    eps_vals = by_name["eps"]["components"][0]["values"]
    xs = [pt["x"][0] for pt in report["points"]["values"]]
    assert eps_vals == [-x for x in xs]


def test_affine_problem_first_invariant_vanishes(tmp_path):
    code, report = run_cli(
        [
            "invariants",
            str(PROBLEMS / "affine_curved.json"),
            "--which",
            "eps",
            "--samples",
            "25",
            "--seed",
            "9",
        ],
        tmp_path,
    )
    assert code == 0
    blk = report["invariants"][0]
    assert blk["max_abs"] <= 1e-9


def test_zero_system_all_invariants_zero(tmp_path):
    doc = dict(OSC, system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "0"}]})
    path = write_json(tmp_path, "zero.json", doc)
    code, report = run_cli(["invariants", path, "--samples", "5", "--seed", "1"], tmp_path)
    assert code == 0
    for blk in report["invariants"]:
        assert blk["max_abs"] == 0.0
        if blk["structural_zero"]:
            assert blk["components"] == []


def test_points_precedence_and_echo(tmp_path):
    doc = dict(OSC, points=[{"t": [0.25], "x": [0.5], "v": [[0.75]]}])
    path = write_json(tmp_path, "withpts.json", doc)
    code, report = run_cli(["invariants", path, "--which", "eps"], tmp_path)
    assert code == 0
    assert report["points"]["source"] == "problem-file"
    assert report["points"]["values"] == [
        {"t": [0.25], "x": [0.5], "v": [[0.75]]}
    ]
    # an explicit points file overrides the in-file list
    pts = write_json(
        tmp_path, "pts.json", {"points": [{"t": [0.1], "x": [0.2], "v": [[0.3]]}]}
    )
    code, report = run_cli(
        ["invariants", path, "--which", "eps", "--points", pts], tmp_path
    )
    assert code == 0
    assert report["points"]["source"] == "file"
    assert report["points"]["values"][0]["x"] == [0.2]


def test_sample_box_honored(tmp_path):
    doc = dict(OSC, sample_box={"t": [2.0, 3.0], "x": [5.0, 6.0], "v": [-0.1, 0.1]})
    path = write_json(tmp_path, "boxed.json", doc)
    code, report = run_cli(
        ["invariants", path, "--which", "eps", "--samples", "8", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    for pt in report["points"]["values"]:
        assert 2.0 <= pt["t"][0] <= 3.0
        assert 5.0 <= pt["x"][0] <= 6.0
        assert -0.1 <= pt["v"][0][0] <= 0.1


def test_invariants_nonfinite_component_is_exit_3(tmp_path, capsys):
    path = write_json(tmp_path, "logv.json", LOG_V)
    code, report = run_cli(
        ["invariants", path, "--samples", "6", "--seed", "0"], tmp_path
    )
    assert code == 3 and report is None
    # the batch raises what its first failing point raises alone
    assert capsys.readouterr().err == (
        "evaluation error: log of non-positive value -0.4604265724722594 "
        "in `log(x1)`\n"
    )


def test_nonfinite_message_follows_selector_order(tmp_path, capsys):
    # at x1 = 0.709 cosh(1000*x1) is finite, but a product in eps and in P
    # overflows; they are evaluated as one tape, and the message names the
    # overflow in the first selector asked for, P
    points = [
        {"t": [0.1], "x": [0.2], "v": [[0.5]]},
        {"t": [0.1], "x": [0.709], "v": [[10.0]]},
    ]
    path = write_json(tmp_path, "cosh.json", dict(COSH_V, points=points))
    assert run_cli(["invariants", path, "--which", "P,eps"], tmp_path) == (3, None)
    assert capsys.readouterr().err == (
        "evaluation error: overflow in product in `sinh(1000*x1)*1000`\n"
    )


def test_unknown_selector_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "osc.json", OSC)
    assert main(["invariants", path, "--which", "eps,Q"]) == 2
    assert "unknown selector 'Q'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def test_transform_check_passes_on_oscillator(tmp_path):
    code, report = run_cli(
        [
            "check",
            "transform",
            str(PROBLEMS / "oscillator.json"),
            str(PROBLEMS / "change_stretch.json"),
            "--samples",
            "10",
            "--seed",
            "4",
            "--tol",
            "1e-6",
        ],
        tmp_path,
    )
    assert code == 0 and report["pass"] is True
    assert len(report["checks"]) == 5
    assert all(c["pass"] for c in report["checks"])
    assert report["change_sha256"] != report["input_sha256"]


def test_transform_check_singular_jacobian_is_degeneracy(tmp_path, capsys):
    prob = write_json(
        tmp_path,
        "osc0.json",
        dict(OSC, points=[{"t": [0.0], "x": [0.5], "v": [[0.3]]}]),
    )
    change = write_json(
        tmp_path,
        "sq.json",
        {
            "t_forward": ["t1^2"],
            "x_forward": ["x1"],
            "t_inverse": ["sqrt(t1)"],
            "x_inverse": ["x1"],
        },
    )
    assert main(["check", "transform", prob, change]) == 3
    assert "numeric degeneracy" in capsys.readouterr().err


def test_transform_check_fails_on_nan(tmp_path, capsys):
    # the invariants leave log's domain at 2 of the 6 points: an evaluation
    # error at the first of them, not a check that fails on nan
    assert sum(p.x[0] < 0.0 for p in sample_jet_points(1, 1, 6, seed=0)) == 2
    prob = write_json(tmp_path, "logv.json", LOG_V)
    change = write_json(tmp_path, "id.json", IDENTITY_11)
    code, report = run_cli(
        ["check", "transform", prob, change, "--samples", "6", "--seed", "0"],
        tmp_path,
    )
    assert code == 3 and report is None
    assert capsys.readouterr().err == (
        "evaluation error: log of non-positive value -0.4604265724722594 "
        "in `log(x1)`\n"
    )


@pytest.mark.parametrize("h", ["1", "t1"])
@pytest.mark.parametrize(
    "command",
    [["invariants"], ["check", "transform"], ["check", "fd"]],
    ids=["invariants", "transform", "fd"],
)
def test_out_of_domain_point_gives_one_message_on_every_command(
    command, h, tmp_path, capsys
):
    # log(x1) leaves its domain at point 1; h = t1 is degenerate at point 2
    doc = dict(LOG_V, temporal_metric=[[h]], points=_points((1, -1), (0, 1)))
    args = command + [write_json(tmp_path, "logv.json", doc)]
    if command[-1] == "transform":
        args.append(write_json(tmp_path, "id.json", IDENTITY_11))
    assert run_cli(args, tmp_path) == (3, None)
    assert capsys.readouterr().err == (
        "evaluation error: log of non-positive value -1.0 in `log(x1)`\n"
    )


# cosh(1000*x1) overflows to inf at every sampled point, and so does the
# product (1e200*x1)*(1e200*x1) on both sides of a central difference
COSH_V = dict(
    OSC, system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "cosh(1000*x1)*v1_1"}]}
)
SQUARE_V = dict(
    OSC,
    system={
        "F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "(1e200*x1)*(1e200*x1)*v1_1"}]
    },
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, more, origin",
    [
        (
            "transform",
            [str(PROBLEMS / "change_stretch.json"), "--samples", "3"],
            "cosh(1000*x1)*cosh(1000*x1)",
        ),
        ("fd", ["--samples", "5"], "1e+200*x1*(1e+200*x1)"),
    ],
    ids=("transform", "fd"),
)
def test_overflowed_check_fails_without_numpy_warnings(
    command, more, origin, tmp_path, capsys
):
    # an overflow from finite operands is an evaluation error (exit 3), so
    # no check compares an inf or a nan
    doc = COSH_V if command == "transform" else SQUARE_V
    problem = write_json(tmp_path, "overflow.json", doc)
    code, report = run_cli(["check", command, problem] + more, tmp_path)
    assert code == 3 and report is None
    assert capsys.readouterr().err == (
        f"evaluation error: overflow in product in `{origin}`\n"
    )


def test_transform_check_out_of_domain_change_is_exit_3(tmp_path, capsys):
    # the change is evaluated over all points at once; its first point out of
    # the domain of log names it, as a scan of single points does
    change = dict(IDENTITY_11, x_forward=["log(x1)"], x_inverse=["exp(x1)"])
    args = ["check", "transform", str(PROBLEMS / "oscillator.json")]
    args += [write_json(tmp_path, "logc.json", change), "--samples", "6"]
    code, report = run_cli(args + ["--seed", "0"], tmp_path)
    assert code == 3 and report is None
    assert capsys.readouterr().err == (
        "evaluation error: log of non-positive value -0.4604265724722594 "
        "in `log(x1)`\n"
    )


# h = t1 is degenerate at the second of the file's two points
DEGENERATE_AT_SECOND = dict(
    OSC,
    temporal_metric=[["t1"]],
    points=[
        {"t": [0.5], "x": [0.3], "v": [[0.2]]},
        {"t": [0.0], "x": [0.3], "v": [[0.2]]},
    ],
)


@pytest.mark.parametrize(
    "command", [["invariants"], ["check", "transform"]], ids=["invariants", "transform"]
)
def test_metric_degenerate_at_a_point_is_exit_3(command, tmp_path, capsys):
    # once for the whole point set, before any invariant is evaluated: this
    # was exit 1 with nan in the transform report, and an evaluation error in
    # `1/t1` from invariants
    args = command + [write_json(tmp_path, "degen.json", DEGENERATE_AT_SECOND)]
    if command[0] == "check":
        args.append(write_json(tmp_path, "id.json", IDENTITY_11))
    code, report = run_cli(args, tmp_path)
    assert code == 3 and report is None
    assert capsys.readouterr().err == (
        "numeric degeneracy: temporal metric degenerate at [0.0]: |det| = 0.000e+00\n"
    )


@pytest.mark.parametrize(
    "command", [["invariants"], ["check", "transform"]], ids=["invariants", "transform"]
)
def test_metric_out_of_domain_at_a_point_is_exit_3(command, tmp_path, capsys):
    # sqrt(t1) is nan at the sampled t1 < 0: the batch used to come back nan,
    # and a nan determinant passed the degeneracy guard, so transform exited 1
    # with "nan" check values and invariants blamed eps
    doc = dict(
        OSC,
        temporal_metric=[["sqrt(t1)"]],
        system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "x1*v1_1"}]},
    )
    args = command + [write_json(tmp_path, "sqrt_h.json", doc)]
    if command[0] == "check":
        args.append(str(PROBLEMS / "change_stretch.json"))
    code, report = run_cli(args + ["--samples", "5"], tmp_path)
    assert code == 3 and report is None
    assert capsys.readouterr().err == (
        "evaluation error: sqrt of negative value -0.9669447289429418 "
        "in `sqrt(t1)`\n"
    )


def _points(*tx):
    return [{"t": [t], "x": [x], "v": [[0.5]]} for t, x in tx]


# each batch raises what its first failing point raises alone: point 1 fails
# at an earlier stage than point 0 does, and point 0's error is the one shown
FIRST_FAILING_POINT = {
    # eps leaves log's domain at point 0, h = t1 is degenerate at point 1
    "invariants-eps-before-h": (
        ["invariants"],
        dict(LOG_V, temporal_metric=[["t1"]], points=_points((1, -1), (0, 1))),
        None,
        "evaluation error: log of non-positive value -1.0 in `log(x1)`\n",
    ),
    # h = log(t1) is degenerate at point 0 and out of its domain at point 1
    "invariants-det-before-entry": (
        ["invariants"],
        dict(OSC, temporal_metric=[["log(t1)"]], points=_points((1, 0), (-1, 0))),
        None,
        "numeric degeneracy: temporal metric degenerate at [1.0]: |det| = 0.000e+00\n",
    ),
    # the spatial Jacobian is singular at point 0, the temporal one at point 1
    "transform-spatial-before-temporal": (
        ["check", "transform"],
        dict(OSC, points=_points((1, 0), (0, 1))),
        dict(IDENTITY_11, t_forward=["t1^3"], x_forward=["x1^3"]),
        "numeric degeneracy: spatial Jacobian is singular at x=[0.0]\n",
    ),
}


@pytest.mark.parametrize("case", list(FIRST_FAILING_POINT))
def test_first_failing_point_decides_the_error(case, tmp_path, capsys):
    command, problem, change, err = FIRST_FAILING_POINT[case]
    args = command + [write_json(tmp_path, "problem.json", problem)]
    if change is not None:
        args.append(write_json(tmp_path, "change.json", change))
    assert run_cli(args, tmp_path) == (3, None)
    assert capsys.readouterr().err == err


def test_fd_check_max_deviation_keeps_nan(tmp_path, capsys):
    # the derivative leaves log's domain: an evaluation error at the first
    # such point, not a nan deviation
    prob = write_json(tmp_path, "logv.json", LOG_V)
    code, report = run_cli(
        ["check", "fd", prob, "--samples", "6", "--seed", "0"], tmp_path
    )
    assert code == 3 and report is None
    assert capsys.readouterr().err == (
        "evaluation error: log of non-positive value -0.4604265724722594 "
        "in `log(x1)`\n"
    )


def test_fd_stencil_leaving_the_domain_names_the_check_and_step(tmp_path, capsys):
    # both points are in log's domain and so is the symbolic derivative; only
    # the central difference's x1 - step at the second point is not
    doc = dict(LOG_V, points=_points((0.3, 0.5), (0.1, 5e-7)))
    code, report = run_cli(["check", "fd", write_json(tmp_path, "e.json", doc)], tmp_path)
    assert code == 3 and report is None
    assert capsys.readouterr().err == (
        "evaluation error: central difference for dF[1,1,1]/dx1 with step 1e-05 "
        "leaves the domain: log of non-positive value -9.5e-06 in `log(x1)`\n"
    )


def test_fd_check_passes_and_names_components(tmp_path):
    code, report = run_cli(
        [
            "check",
            "fd",
            str(PROBLEMS / "rotation_flow.json"),
            "--step",
            "1e-5",
            "--samples",
            "10",
            "--seed",
            "6",
        ],
        tmp_path,
    )
    assert code == 0 and report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "dF[1,1,1]/dv2_1 vs central FD" in names
    assert report["max_deviation"] <= 1e-8


def test_fd_check_lists_the_variables_of_the_canonical_component(tmp_path):
    # parse returns canonical nodes: x1 + 0*v1_1 is x1, so only dx1 is
    # checked (the tree as written also listed a dv1_1 row)
    entry = {"i": 1, "alpha": 1, "beta": 1, "expr": "x1 + 0*v1_1"}
    path = write_json(tmp_path, "z.json", dict(OSC, system={"F": [entry]}))
    code, report = run_cli(["check", "fd", path], tmp_path)
    assert code == 0
    assert [c["name"] for c in report["checks"]] == ["dF[1,1,1]/dx1 vs central FD"]


def test_fd_check_fails_at_impossible_tolerance(tmp_path, capsys):
    code = main(
        [
            "check",
            "fd",
            str(PROBLEMS / "rotation_flow.json"),
            "--tol",
            "1e-18",
        ]
    )
    assert code == 1
    assert "check failed" in capsys.readouterr().err


def test_jacobi_flat_linear_residual_zero(tmp_path):
    doc = {
        "m": 1,
        "n": 1,
        "temporal_metric": [["1"]],
        "system": {"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "0"}]},
        "section": ["0.5*t1"],
        "variation": ["1 + 0.25*t1"],
    }
    path = write_json(tmp_path, "flatlin.json", doc)
    code, report = run_cli(
        ["check", "jacobi", path, "--samples", "6", "--seed", "8"], tmp_path
    )
    assert code == 0 and report["pass"] is True
    for row in report["points"]:
        assert row["residual"] == [0.0]


def test_jacobi_oscillator_closed_form(tmp_path):
    code, report = run_cli(
        ["check", "jacobi", str(PROBLEMS / "oscillator.json"), "--samples", "8",
         "--seed", "12"],
        tmp_path,
    )
    assert code == 0 and report["pass"] is True
    assert report["checks"][0]["value"] <= 1e-10


def test_jacobi_t_points_are_the_default_rng_uniforms(tmp_path):
    doc = {
        "m": 2,
        "n": 1,
        "temporal_metric": [["1", "0"], ["0", "1"]],
        "system": {"F": [
            {"i": 1, "alpha": a, "beta": b, "expr": "0"}
            for a, b in ((1, 1), (1, 2), (2, 2))
        ]},
        "section": ["0.5*t1 - t2"],
        "variation": ["1 + 0.25*t2"],
        "sample_box": {"t": [0.5, 3.0]},
    }
    path = write_json(tmp_path, "flatlin2.json", doc)
    code, report = run_cli(
        ["check", "jacobi", path, "--samples", "9", "--seed", "41"], tmp_path
    )
    assert code == 0
    want = np.random.default_rng(41).uniform(0.5, 3.0, size=(9, 2))
    got = np.array([row["t"] for row in report["points"]])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_jacobi_requires_section_and_variation(tmp_path, capsys):
    path = write_json(tmp_path, "bare.json", OSC)
    assert main(["check", "jacobi", path]) == 2
    assert "requires 'section' and 'variation'" in capsys.readouterr().err


def test_jacobi_non_solution_section_fails(tmp_path, capsys):
    doc = dict(OSC, section=["t1^2"], variation=["cos(t1)"])
    path = write_json(tmp_path, "nonsol.json", doc)
    assert main(["check", "jacobi", path, "--seed", "1"]) == 1
    # all t are checked as one batch; the first failing t in sample order is
    # reported, exactly as a scan one t at a time reports it
    assert capsys.readouterr().err == (
        "check failed: section is not a solution at t=(0.023643249400513433,): "
        "max |x'' + F| = 2.001e+00 exceeds 1.0e-08; the identity being "
        "evaluated substitutes the system and is meaningless off it\n"
    )


SPHERE_EQUATOR = {
    "m": 1,
    "n": 2,
    "temporal_metric": [["1"]],
    "spatial_metric": [["1", "0"], ["0", "sin(x1)^2"]],
    "system": {"type": "affine"},
    "section": ["pi/2", "t1"],
    "variation": ["sin(t1)", "0"],
}


@pytest.mark.parametrize("samples", ["5", "50"])
def test_jacobi_builds_once_whatever_the_number_of_t(tmp_path, samples):
    # one pipeline, and one substitution per leaf (2 of the SODE residual and
    # 2 of the Jacobi residual on the 1x2 sphere), however many t are sampled
    import jetkcc.kcccore as kc

    path = write_json(tmp_path, "sphere.json", SPHERE_EQUATOR)
    with support.recorded_calls(kc.InvariantPipeline, "__init__") as pipelines:
        with support.recorded_calls(kc, "substitute") as substituted:
            code, report = run_cli(
                ["check", "jacobi", path, "--samples", samples], tmp_path
            )
    assert code == 0 and len(report["points"]) == int(samples)
    assert (len(pipelines), len(substituted)) == (1, 4)


def test_jacobi_out_of_domain_section_is_exit_3(tmp_path, capsys):
    # x = sqrt(t) solves x'' + 1/(4 x^3) = 0 for t > 0; the first sampled
    # t < 0 (the second with seed 0) is out of the section's domain
    doc = dict(
        OSC,
        system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "1/(4*x1^3)"}]},
        section=["sqrt(t1)"],
        variation=["0"],
    )
    path = write_json(tmp_path, "sqrt.json", doc)
    assert main(["check", "jacobi", path]) == 3
    assert capsys.readouterr().err == (
        "evaluation error: sqrt of negative value -0.4604265724722594 "
        "in `sqrt(t1)`\n"
    )


@pytest.mark.parametrize(
    "seed, code, start",
    [
        # the first t is 0.27: off the solution before any t < 0
        ("0", 1, "check failed: section is not a solution at t=(0.2739"),
        # the first t is -0.48: out of domain before any t > 0
        ("2", 3, "evaluation error: sqrt of negative value -0.4767"),
    ],
)
def test_jacobi_first_failing_t_decides_the_exit_code(
    tmp_path, capsys, seed, code, start
):
    # sqrt(t) does not solve x'' + x = 0 where it is defined
    doc = dict(OSC, section=["sqrt(t1)"], variation=["0"])
    path = write_json(tmp_path, "sqrt_osc.json", doc)
    assert main(["check", "jacobi", path, "--seed", seed]) == code
    assert capsys.readouterr().err.startswith(start)


def test_jacobi_checks_h_along_t(tmp_path, capsys):
    # h is degenerate everywhere; this passed, as if h were not needed
    doc = json.loads((PROBLEMS / "oscillator.json").read_text())
    doc["temporal_metric"] = [["1e-13"]]
    path = write_json(tmp_path, "osc_degenerate.json", doc)
    args = ["check", "jacobi", path, "--samples", "5"]
    assert run_cli(args, tmp_path) == (3, None)
    assert capsys.readouterr().err == (
        "numeric degeneracy: temporal metric degenerate at [0.2739233746429086]: "
        "|det| = 1.000e-13\n"
    )


def test_jacobi_lowers_one_tape_per_section_family(tmp_path):
    # h's entries and determinant, then one tape each for the 2 leaves of the
    # section residual and the 2 of the deviation residual, whatever the
    # number of t (it was one tape per leaf)
    path = write_json(tmp_path, "sphere.json", SPHERE_EQUATOR)
    with support.lowered_tapes() as lowered:
        code, _ = run_cli(["check", "jacobi", path, "--samples", "50"], tmp_path)
    assert code == 0 and lowered == [1, 1, 2, 2]


BENCH_INPUTS = ROOT / "bench" / "inputs"


def test_bench_commands_keep_their_tapes(tmp_path):
    # the happy path of the two stress commands lowers what it did before the
    # first-failure rule was written once
    pair = [str(BENCH_INPUTS / f) for f in ("curved_pair22.json", "change22.json")]
    with support.lowered_slots() as slots:
        code, _ = run_cli(["check", "transform", *pair, "--samples", "20"], tmp_path)
    assert code == 0 and (len(slots), sum(slots)) == (10, 12_608)
    sphere = str(BENCH_INPUTS / "sphere_equator.json")
    with support.lowered_tapes() as lowered:
        code, _ = run_cli(["check", "jacobi", sphere, "--samples", "250"], tmp_path)
    assert code == 0 and len(lowered) <= 4


# ---------------------------------------------------------------------------
# characterize and nullspace commands
# ---------------------------------------------------------------------------


def test_characterize_affine_recovers_christoffels(tmp_path):
    code, report = run_cli(
        [
            "characterize",
            str(PROBLEMS / "affine_curved.json"),
            "--base",
            "0.2,0.3,0.4,0.5",
        ],
        tmp_path,
    )
    assert code == 0 and report["pass"] is True
    # phi = diag(1 + 0.4 x2^2, 1 + 0.3 x1^2) at x = (0.4, 0.5):
    # the (1,1,2) spatial coefficient is 0.4*0.5 / (1 + 0.4*0.25)
    rows = {tuple(r["index"]): r["value"] for r in report["spatial_coefficients"]}
    assert abs(rows[(1, 1, 2)] - 0.2 / 1.1) < 1e-12
    assert all(abs(r["value"]) < 1e-10 for r in report["coupling_coefficients"])
    assert report["diagnostics"]["rebuild_residual"] <= 1e-10


def test_characterize_oscillator_violates_hypotheses(tmp_path, capsys):
    path = write_json(tmp_path, "osc.json", OSC)
    assert main(["characterize", path, "--base", "0.3,0.7"]) == 1
    assert "first invariant" in capsys.readouterr().err


def test_characterize_out_of_domain_base_is_exit_3(tmp_path, capsys):
    path = write_json(tmp_path, "logv.json", LOG_V)
    assert main(["characterize", path, "--base", "0.1,-0.5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluation error: log of non-positive value -0.5")
    assert len(err.splitlines()) == 1


# h = t1: degenerate where |t1| <= 1e-12; these exited 1 (a first invariant
# of 2.392e+12) and 3 (division by zero in `1/t1`) before the base point was
# checked
@pytest.mark.parametrize(
    "base, shown",
    [("1e-13,0.5", "[1e-13]: |det| = 1.000e-13"), ("0,0.5", "[0.0]: |det| = 0.000e+00")],
)
def test_characterize_degenerate_metric_at_the_base_is_exit_3(
    base, shown, tmp_path, capsys
):
    doc = dict(
        OSC,
        temporal_metric=[["t1"]],
        system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "v1_1^2"}]},
    )
    path = write_json(tmp_path, "degenerate_h.json", doc)
    assert main(["characterize", path, "--base", base]) == 3
    assert capsys.readouterr().err == (
        f"numeric degeneracy: temporal metric degenerate at {shown}\n"
    )


def test_characterize_out_of_domain_probe_velocity_is_exit_3(tmp_path, capsys):
    # the base is in the domain; a probe velocity with v2_1 < 0 is not
    doc = {
        "m": 1,
        "n": 2,
        "temporal_metric": [["1"]],
        "system": {
            "F": [
                {"i": 1, "alpha": 1, "beta": 1, "expr": "0"},
                {"i": 2, "alpha": 1, "beta": 1, "expr": "sqrt(v2_1)"},
            ]
        },
    }
    path = write_json(tmp_path, "sqrt_v.json", doc)
    assert main(["characterize", path, "--base", "0.1,0.2,0.3"]) == 3
    assert capsys.readouterr().err == (
        "evaluation error: sqrt of negative value -0.13537751133827225 in "
        "`sqrt(v2_1)`\n"
    )


def test_characterize_lowers_at_most_six_tapes(tmp_path):
    # a timing-free guard on batching: each probe set is one evaluation
    # (h at the base, D or eps, the polarization, the rebuild), not one per
    # velocity
    argv = ["characterize", str(PROBLEMS / "affine_curved.json")]
    with support.lowered_tapes() as lowered:
        code, _ = run_cli(argv + ["--base", "0.2,0.3,0.4,0.5"], tmp_path)
    assert code == 0 and len(lowered) <= 6


def test_characterize_base_length_checked(tmp_path, capsys):
    path = write_json(tmp_path, "osc.json", OSC)
    assert main(["characterize", path, "--base", "0.3"]) == 2
    assert "expected 2" in capsys.readouterr().err


NONFINITE_COORDINATES = [
    ("nullspace", "flat_metric_m3.json", "--t", "1,2,nan", "'nan'"),
    ("nullspace", "flat_metric_m3.json", "--t", "1,inf,2", "'inf'"),
    ("nullspace", "flat_metric_m3.json", "--t", "-inf,1,2", "'-inf'"),
    ("characterize", "affine_curved.json", "--base", "0.2,0.3,nan,0.5", "'nan'"),
    ("characterize", "affine_curved.json", "--base", "0.2,1e999,0.4,0.5", "'1e999'"),
]


@pytest.mark.parametrize(
    "command, problem, flag, coords, shown",
    NONFINITE_COORDINATES,
    ids=[f"{c}{flag}={coords}" for c, _, flag, coords, _ in NONFINITE_COORDINATES],
)
def test_nonfinite_coordinate_is_input_error(
    command, problem, flag, coords, shown, capsys
):
    # nullspace used to exit 0 with "nan" in the report, characterize exit 1
    assert main([command, str(PROBLEMS / problem), f"{flag}={coords}"]) == 2
    assert capsys.readouterr().err == (
        f"input error: {flag}: {shown} is not a finite number\n"
    )


# source -> (text added to the oscillator problem, points file text, message);
# these exited 3 as out-of-domain evaluations (points) or ended in an
# OverflowError traceback (boxes)
NONFINITE_JSON_NUMBERS = {
    "points-file": (
        None,
        '{"points": [{"t": [0.5], "x": [NaN], "v": [[0.2]]}]}',
        "points[0].x[0]: expected a finite number, got nan",
    ),
    "problem-points": (
        '"points": [{"t": [0.5], "x": [0.5], "v": [[1e999]]}]',
        None,
        "points[0].v[0][0]: expected a finite number, got inf",
    ),
    "box-bound": (
        '"sample_box": {"t": [-1e999, 1]}',
        None,
        "sample_box.t[0]: expected a finite number, got -inf",
    ),
    "box-width": (
        '"sample_box": {"x": [-1e308, 1e308]}',
        None,
        "sample_box.x: box width hi - lo must be finite, got [-1e+308, 1e+308]",
    ),
}


@pytest.mark.parametrize("source", sorted(NONFINITE_JSON_NUMBERS))
def test_nonfinite_json_number_is_input_error(source, tmp_path, capsys):
    extra, points, message = NONFINITE_JSON_NUMBERS[source]
    text = json.dumps(OSC)
    if extra is not None:
        text = f"{text[:-1]}, {extra}}}"
    problem = tmp_path / "problem.json"
    problem.write_text(text, encoding="utf-8")
    argv = ["invariants", str(problem), "--samples", "2"]
    if points is not None:
        (tmp_path / "points.json").write_text(points, encoding="utf-8")
        argv += ["--points", str(tmp_path / "points.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_nullspace_flat_three_times(tmp_path):
    code, report = run_cli(
        ["nullspace", str(PROBLEMS / "flat_metric_m3.json"), "--t", "0.1,0.2,0.3",
         "--m", "3"],
        tmp_path,
    )
    assert code == 0
    assert report["dimension"] == 3
    assert report["unknown_pairs"] == [[1, 2], [1, 3], [2, 1], [2, 3], [3, 1], [3, 2]]
    assert report["zero_vector_residual"] == 0.0
    assert report["caveat"] is False
    for vec in report["basis"]:
        assert vec["residual"] <= 1e-10


def test_nullspace_m_mismatch_and_degenerate(tmp_path, capsys):
    assert main(
        ["nullspace", str(PROBLEMS / "flat_metric_m3.json"), "--t", "0,0", "--m", "2"]
    ) == 2
    assert "contradicts" in capsys.readouterr().err
    degen = write_json(
        tmp_path, "degen.json", {"m": 2, "temporal_metric": [["t1", "0"], ["0", "1"]]}
    )
    assert main(["nullspace", degen, "--t", "0.0,0.5"]) == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("m, flag", [(0, []), (5, []), (5, ["--m", "5"])])
def test_nullspace_row_count_outside_the_dimensions_is_input_error(
    m, flag, tmp_path, capsys
):
    # five rows without an "m" key used to end in a traceback from parse
    rows = [["1" if a == b else "0" for b in range(m)] for a in range(m)]
    path = write_json(tmp_path, "rows.json", {"temporal_metric": rows})
    assert main(["nullspace", path, "--t", "0"] + flag) == 2
    assert capsys.readouterr().err == (
        f"input error: m: must be between 1 and 4, got {m}\n"
    )


def test_nullspace_out_of_domain_metric_is_exit_3(tmp_path, capsys):
    metric = {"m": 2, "temporal_metric": [["log(t1)", "0"], ["0", "1"]]}
    path = write_json(tmp_path, "logm.json", metric)
    assert main(["nullspace", path, "--t=-0.5,0.5"]) == 3
    assert "evaluation error: log of non-positive value" in capsys.readouterr().err


def test_power_overflow_is_exit_3(tmp_path, capsys):
    metric = {"m": 2, "temporal_metric": [["t1^2.5", "0"], ["0", "1"]]}
    path = write_json(tmp_path, "powm.json", metric)
    assert main(["nullspace", path, "--t", "1e200,0.5"]) == 3
    assert capsys.readouterr().err == (
        "evaluation error: overflow in power in `t1^2.5`\n"
    )
    # an overflowing constant stays unfolded: the file loads, and the power
    # that overflows is reported as an evaluation error
    big = dict(
        OSC, system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "1e200^2.5*x1"}]}
    )
    prob = write_json(tmp_path, "big.json", big)
    assert main(["invariants", prob, "--samples", "2"]) == 3
    assert capsys.readouterr().err == (
        "evaluation error: overflow in power in `1e+200^2.5`\n"
    )


SAMPLING_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ["invariants", "oscillator.json"],
        ["check", "transform", "oscillator.json", "change_stretch.json"],
        ["check", "fd", "rotation_flow.json"],
        ["check", "jacobi", "oscillator.json"],
    ],
    ids=["invariants", "transform", "fd", "jacobi"],
)


@SAMPLING_COMMANDS
def test_samples_below_one_is_usage_error(command, capsys):
    args = [str(PROBLEMS / a) if a.endswith(".json") else a for a in command]
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--samples", bad])
        assert exit_info.value.code == 2
        assert "argument --samples: must be at least 1" in capsys.readouterr().err


@SAMPLING_COMMANDS
def test_samples_above_the_bound_is_usage_error(command, capsys):
    # 2**63 and 10**20 ended in a traceback from jetgeom.uniform_draws; every
    # count here is refused while parsing, so nothing is drawn
    args = [str(PROBLEMS / a) if a.endswith(".json") else a for a in command]
    for bad in (cli.MAX_SAMPLES + 1, 2**63, 10**20):
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--samples", str(bad)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --samples: must be at most 1000000, got {bad}\n" in err


@SAMPLING_COMMANDS
def test_negative_seed_is_usage_error(command, capsys):
    # numpy rejects a negative seed: this ended in a traceback with exit 1
    args = [str(PROBLEMS / a) if a.endswith(".json") else a for a in command]
    with pytest.raises(SystemExit) as exit_info:
        main(args + ["--seed=-1"])
    assert exit_info.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


CHECK_FD = ["check", "fd", "rotation_flow.json"]
CHECK_TRANSFORM = ["check", "transform", "oscillator.json", "change_stretch.json"]
CHECK_JACOBI = ["check", "jacobi", "oscillator.json"]
BAD_STEP_OR_TOL = [
    (CHECK_FD, "--step", "0", "must be greater than 0"),
    (CHECK_FD, "--step", "-1e-5", "must be greater than 0"),
    (CHECK_FD, "--step", "nan", "must be finite"),
    (CHECK_FD, "--step", "inf", "must be finite"),
    (CHECK_FD, "--tol", "nan", "must be finite"),
    (CHECK_FD, "--tol", "-1", "must be at least 0"),
    (CHECK_TRANSFORM, "--tol", "nan", "must be finite"),
    (CHECK_TRANSFORM, "--tol", "-1", "must be at least 0"),
    (CHECK_JACOBI, "--tol", "inf", "must be finite"),
    (CHECK_JACOBI, "--tol", "-1e-9", "must be at least 0"),
]


@pytest.mark.parametrize(
    "command, flag, bad, message",
    BAD_STEP_OR_TOL,
    ids=[f"{c[1]}{flag}={bad}" for c, flag, bad, _ in BAD_STEP_OR_TOL],
)
def test_bad_step_or_tolerance_is_usage_error(command, flag, bad, message, capsys):
    args = [str(PROBLEMS / a) if a.endswith(".json") else a for a in command]
    with pytest.raises(SystemExit) as exit_info:
        main(args + [f"{flag}={bad}"])  # "=": argparse reads -1e-5 as a flag
    assert exit_info.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    import argparse

    import jetkcc.cli as cli

    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        osc = str(PROBLEMS / "oscillator.json")
        usage = ["check", "jacobi", osc, "--tol=-1"]
        with pytest.raises(SystemExit) as fresh:
            main(usage)
        fresh_err = capsys.readouterr().err
        assert run_cli(["invariants", osc], tmp_path)[0] == 0
        assert run_cli(["check", "jacobi", osc], tmp_path)[0] == 0
        with pytest.raises(SystemExit) as again:
            main(usage)
        assert fresh.value.code == again.value.code == 2
        assert capsys.readouterr().err == fresh_err
        assert built.count("jetkcc") == 1
    finally:
        cli.build_parser.cache_clear()


def test_zero_tolerance_is_accepted(tmp_path):
    code, report = run_cli(
        ["check", "jacobi", str(PROBLEMS / "oscillator.json"), "--tol", "0"], tmp_path
    )
    assert code == 0 and report["tolerance"] == 0.0


# ---------------------------------------------------------------------------
# report determinism
# ---------------------------------------------------------------------------


def test_reports_byte_identical_across_runs(tmp_path):
    args = [
        "invariants",
        str(PROBLEMS / "affine_curved.json"),
        "--which",
        "eps,P",
        "--samples",
        "10",
        "--seed",
        "21",
    ]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_render_json_seventeen_digit_floats():
    text = "".join(render_json({"a": 0.1, "b": [1.0, -2.5e-17], "c": True, "d": None}))
    assert '"a": 0.10000000000000001' in text
    assert "-2.4999999999999999e-17" in text
    assert '"c": true' in text and '"d": null' in text
    assert json.loads(text) == {
        "a": 0.1,
        "b": [1.0, -2.5e-17],
        "c": True,
        "d": None,
    }


def test_stdout_report_matches_out_file(tmp_path, capsys):
    path = write_json(tmp_path, "osc.json", OSC)
    args = ["invariants", path, "--which", "P", "--samples", "3", "--seed", "5"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == 0
    assert printed == out.read_text()


# ---------------------------------------------------------------------------
# rendering arrays and point sets
# ---------------------------------------------------------------------------


def _oracle_render(value, indent=0):
    """The per-element renderer that float arrays, point sets and record
    lists replaced: one format call per float and a layout probe per list."""

    def fmt(x):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")

    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, (int, str)):
        return json.dumps(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        if len(value) > 12 and all(type(v) is float for v in value):
            parts = [fmt(v) for v in value]
        else:
            parts = [_oracle_render(v, indent + 1) for v in value]
        if all("\n" not in p and len(p) < 25 for p in parts) and len(parts) <= 12:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    if isinstance(value, dict):
        parts = [f'"{k}": {_oracle_render(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "}"
    raise TypeError(type(value).__name__)


_EDGE_FLOATS = st.sampled_from(
    [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        0.0,
        5e-324,
        -2.2250738585072009e-308,
        1e308,
        -1e308,
        -1.2345678901234567e-05,
    ]
)
_ROW_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _EDGE_FLOATS)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_ROW_FLOATS, min_size=0, max_size=30),
    st.integers(min_value=0, max_value=4),
)
def test_render_json_float_array_matches_per_element_renderer(values, indent):
    row = np.array(values, dtype=float)
    assert "".join(render_json(row, indent)) == _oracle_render(row.tolist(), indent)


@pytest.mark.parametrize("size", [12, 13])
@pytest.mark.parametrize("fill", [-1.2345678901234567e-05, math.nan, 0.0, -0.0])
def test_render_json_float_array_layout_boundary(size, fill):
    # at most 12 floats render inline, more break one per line
    row = np.full(size, fill)
    text = "".join(render_json(row, 2))
    assert text == _oracle_render(row.tolist(), 2)
    assert ("\n" in text) == (size > 12)


@pytest.mark.parametrize("size", [3, 2000])
def test_zero_row_with_one_negative_zero_renders_it(size):
    # an all-zero row renders from cached text only when no zero is -0.0
    row = np.zeros(size)
    row[1] = -0.0
    text = "".join(render_json(row, 2))
    assert text == _oracle_render(row.tolist(), 2)
    zeros = "".join(render_json(np.zeros(size), 2))
    assert "-0" in text and zeros == text.replace("-0", "0")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.lists(_ROW_FLOATS, min_size=1, max_size=60),
    st.integers(min_value=0, max_value=4),
)
def test_render_json_point_set_matches_per_point_dicts(m, n, values, indent):
    width = m + n + n * m
    count = max(1, len(values) // width)
    flat = np.resize(np.array(values, dtype=float), (count, width))
    v = np.moveaxis(flat[:, m + n :].reshape(count, n, m), 0, -1)
    points = JetPointSet(flat[:, :m].T, flat[:, m : m + n].T, v)
    dicts = [
        {"t": p.t.tolist(), "x": p.x.tolist(), "v": p.v.tolist()} for p in points
    ]
    assert "".join(render_json(points, indent)) == _oracle_render(dicts, indent)


def _plain(value):
    """A report with its arrays as lists of floats, as the oracle takes it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


_POOL_ROWS = st.one_of(
    st.lists(_ROW_FLOATS, min_size=0, max_size=30),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), min_size=1, max_size=30),
    st.lists(st.sampled_from([math.nan, math.inf, 1.5]), min_size=1, max_size=30),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_POOL_ROWS, min_size=1, max_size=4),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # pool row
            st.booleans(),  # negated
            st.integers(min_value=0, max_value=2),  # where in the report
        ),
        max_size=12,
    ),
    st.integers(min_value=0, max_value=4),
)
def test_render_json_reused_and_negated_rows_match_per_element_renderer(
    pool, picks, indent
):
    # every pool row comes first, then exact copies and bitwise negations
    # of pool rows (nan and inf rows included) at three nesting depths
    rows = [np.array(r, dtype=float) for r in pool]
    report = {"invariants": [{"name": "R", "components": []}], "rows": [], "deep": []}
    placed = [(row, 0) for row in rows] + [
        (-rows[i % len(rows)] if neg else rows[i % len(rows)].copy(), where)
        for i, neg, where in picks
    ]
    for k, (row, where) in enumerate(placed):
        if where == 0:
            comps = report["invariants"][0]["components"]
            comps.append({"index": [1, k + 1], "values": row})
        elif where == 1:
            report["rows"].append(row)
        else:
            report["deep"].append([row])
    text = "".join(render_json(report, indent))
    assert text == _oracle_render(_plain(report), indent)


def test_render_json_rows_with_equal_bytes_and_other_values_do_not_share_text():
    # rows are grouped by the bytes of their magnitudes as float64s: the same
    # bytes read as float32s, or in the other byte order, are other values
    row = np.array([1.5, -2.0, 1e-300])
    swapped = row.astype(">f8").view("<f8")
    rows = [row, row.view(np.float32), swapped, -swapped, row.astype(">f8")]
    assert "".join(render_json(rows, 1)) == _oracle_render([r.tolist() for r in rows], 1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.lists(_ROW_FLOATS, min_size=1, max_size=80),
    st.integers(min_value=0, max_value=4),
)
def test_render_json_jacobi_records_match_per_row_dicts(m, n, values, indent):
    # check jacobi's {"t", "residual"} rows, non-finite and -0.0 values included
    count = max(1, len(values) // (m + n))
    flat = np.resize(np.array(values, dtype=float), (count, m + n))
    rows = Records(t=flat[:, :m], residual=flat[:, m:])
    dicts = [{"t": r[:m].tolist(), "residual": r[m:].tolist()} for r in flat]
    assert "".join(render_json({"points": rows}, indent)) == _oracle_render(
        {"points": dicts}, indent
    )


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(min_value=1, max_value=30),  # values per row
    st.integers(min_value=1, max_value=5),  # index length
    st.integers(min_value=0, max_value=4),
)
def test_render_json_component_records_match_per_component_dicts(
    data, width, rank, indent
):
    # invariant components: zero rows, zero rows holding a -0.0, repeated and
    # negated rows, in two blocks whose rows are each other's negation
    zero = np.zeros(width)
    minus_zero = st.integers(0, width - 1).map(
        lambda k: np.where(np.arange(width) == k, -0.0, 0.0)
    )
    floats = st.lists(_ROW_FLOATS, min_size=width, max_size=width).map(np.array)
    pool = data.draw(
        st.lists(st.one_of(st.just(zero), minus_zero, floats), min_size=1, max_size=4)
    )
    picks = data.draw(
        st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=12)
    )
    rows = pool + [-pool[i] if neg else pool[i].copy() for i, neg in picks]
    order = data.draw(st.permutations(range(len(rows))))
    values = np.array([rows[k] for k in order], dtype=float).reshape(-1, width)
    index = np.arange(len(rows) * rank).reshape(-1, rank) % 4 + 1
    blocks = [
        {"name": name, "components": Records(index=index, values=v)}
        for name, v in (("R", values), ("B", -values))
    ]
    plain = [
        {
            "name": b["name"],
            "components": [
                {"index": i.tolist(), "values": v.tolist()}
                for i, v in zip(index, b["components"]["values"])
            ],
        }
        for b in blocks
    ]
    assert "".join(render_json({"invariants": blocks}, indent)) == _oracle_render(
        {"invariants": plain}, indent
    )


# magnitudes whose texts run from 1 to 23 characters, 24 with a "-"
_MAGNITUDES = [
    0.0, 5e-324, 1.0, 0.5, 3.0, 123456.78901234567, 1.2345678901234567e-05,
    2.2250738585072014e-308, 1.7976931348623157e+308,
]


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(min_value=1, max_value=30),  # values per row
    st.integers(min_value=0, max_value=4),
)
def test_rows_sharing_magnitudes_match_per_element_renderer(data, width, indent):
    # rows drawn from a few magnitude rows with random signs (so -0.0 too):
    # many rows share their magnitudes and some mirror each other, and a few
    # hold a non-finite value; each renders as a Records column and bare
    magnitude_rows = data.draw(
        st.lists(
            st.lists(st.sampled_from(_MAGNITUDES), min_size=width, max_size=width),
            min_size=1, max_size=3,
        )
    )
    signs = st.lists(st.booleans(), min_size=width, max_size=width)
    picks = data.draw(
        st.lists(st.tuples(st.sampled_from(magnitude_rows), signs), min_size=1, max_size=8)
    )
    rows = np.array([np.where(neg, -np.array(mag), mag) for mag, neg in picks])
    for k, column, value in data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(rows) - 1), st.integers(0, width - 1),
                st.sampled_from([math.nan, math.inf, -math.inf]),
            ),
            max_size=2,
        )
    ):
        rows[k, column] = value
    index = np.arange(len(rows)).reshape(-1, 1) + 1
    report = {"rows": list(rows), "components": Records(index=index, values=rows)}
    plain = {
        "rows": rows.tolist(),
        "components": [{"index": [k + 1], "values": r.tolist()} for k, r in enumerate(rows)],
    }
    assert "".join(render_json(report, indent)) == _oracle_render(plain, indent)


def test_render_json_empty_records_and_scalar_columns():
    # characterize's coefficient rows: one float per record, and no records
    # when no coupling exists
    index = np.array([[1, 2], [2, 1]])
    rows = Records(index=index, value=np.array([-0.0, math.inf]))
    empty = Records(index=np.zeros((0, 5), int), value=np.zeros(0))
    plain = [{"index": [1, 2], "value": -0.0}, {"index": [2, 1], "value": math.inf}]
    text = "".join(render_json({"spatial": rows, "coupling": empty}, 1))
    assert text == _oracle_render({"spatial": plain, "coupling": []}, 1)


@pytest.mark.parametrize("count", [0, 1, 2])
@pytest.mark.parametrize("width", [13, 20])
def test_render_json_records_of_wide_float_columns_only(count, width):
    # no column fills the template: its pieces hold only the rows' texts
    values = np.linspace(-1.0, 1.0, count * width).reshape(count, width)
    rows = Records(values=values, mirror=-values)
    plain = [{"values": v.tolist(), "mirror": (-v).tolist()} for v in values]
    assert "".join(render_json({"rows": rows}, 1)) == _oracle_render({"rows": plain}, 1)


_BLOCK = cli.RECORD_BLOCK


@pytest.mark.parametrize(
    "count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
)
@pytest.mark.parametrize("indent", [0, 3])
def test_render_json_records_across_fill_blocks(count, indent):
    # records are filled RECORD_BLOCK at a time: an int index, a wide float
    # column of zero rows, rows holding a -0.0 and full rows, and a list of
    # lists whose layout (inline or broken) changes from record to record
    minus_zero = np.where(np.arange(13) == 4, -0.0, 0.0)
    full = np.linspace(-1.0, 2.0, 13) / 3.0
    pool = np.array([np.zeros(13), minus_zero, full, -full])
    index = np.arange(count)[:, None] * [1, 7] % 1000
    values = pool[np.arange(count) % 4]
    lists = np.array([[[1.0, 2.0, 3.0], [0.1, -0.5, 1.0 / 3.0]]])
    nested = np.where((np.arange(count) % 3 == 0)[:, None, None], lists, lists[:, ::-1])
    records = Records(index=index, values=values, lists=nested)
    plain = [
        {"index": i.tolist(), "values": v.tolist(), "lists": n.tolist()}
        for i, v, n in zip(index, values, nested)
    ]
    text = "".join(render_json({"records": records}, indent))
    assert text == _oracle_render({"records": plain}, indent)


def test_stress_invariants_report_keeps_its_bytes(tmp_path, capsys):
    # the 2000-sample baseline: sha256 of the report the per-element
    # renderer wrote, with stdout and --out alike
    args = [
        "invariants", str(PROBLEMS / "affine_curved.json"),
        "--which", "eps,P,R,B,D", "--samples", "2000", "--seed", "0",
    ]
    assert main(args) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "stress.json"
    assert main(args + ["--out", str(out)]) == 0
    assert printed == out.read_bytes()
    assert hashlib.sha256(printed).hexdigest() == (
        "f336e83b7f6289c55d39f4da421122df345c1640568ca2b16da80f8665ec8ac4"
    )


def test_stress_report_formats_only_its_distinct_rows(tmp_path):
    # 52 of the report's 92 component rows are not zero, and 20 of those
    # (R: 4, B: 16) are the bitwise negation of another row: 32 groups of
    # rows with the same magnitudes, which hold 34,649 distinct magnitudes
    # among their 64,000 values (the eps rows and half of the B rows are
    # rounding noise near 1e-17); the mirrors and zero rows format nothing
    args = [
        "invariants", str(PROBLEMS / "affine_curved.json"),
        "--which", "eps,P,R,B,D", "--samples", "2000", "--seed", "0",
        "--out", str(tmp_path / "stress.json"),
    ]
    with support.recorded_calls(
        cli, "_magnitude_texts", lambda magnitudes: magnitudes.size
    ) as formatted:
        assert main(args) == 0
    assert len(formatted) == 32
    assert sum(formatted) == 34_649


def _gen44() -> dict:
    """The m = n = 4 system gen44: h the identity and, with j = i mod 4 + 1,
    F^i_ab = sin(xj)*vi_a*vj_b + 0.1*vj_a^3 + xi*tb for a <= b."""
    entries = [
        {
            "i": i, "alpha": a, "beta": b,
            "expr": f"sin(x{i % 4 + 1})*v{i}_{a}*v{i % 4 + 1}_{b}"
            f" + 0.1*v{i % 4 + 1}_{a}^3 + x{i}*t{b}",
        }
        for i in range(1, 5)
        for a in range(1, 5)
        for b in range(a, 5)
    ]
    identity = [["1" if r == c else "0" for c in range(4)] for r in range(4)]
    return {"m": 4, "n": 4, "temporal_metric": identity, "system": {"F": entries}}


# counts the calls of the named cli functions during one main(argv)
COUNTING_CHILD = """
import collections, json, sys
import jetkcc.cli as cli
calls = collections.Counter()
for name in ("_magnitude_texts", "_render"):
    def counting(*args, _real=getattr(cli, name), _name=name):
        calls[_name] += 1
        return _real(*args)
    setattr(cli, name, counting)
code = cli.main(sys.argv[1:])
print(json.dumps(dict(calls, code=code)))
"""


def test_gen44_report_renders_each_distinct_row_once(tmp_path):
    # D of gen44 at 20 samples: 262,144 components, 64 not zero and one
    # distinct node, so the rows form one or two magnitude groups, and the
    # components render as one record list, not one _render call per value.  The
    # 105 MB report is the one the per-component renderer wrote
    problem = tmp_path / "gen44.json"
    problem.write_text(json.dumps(_gen44(), indent=1), encoding="utf-8")
    out = tmp_path / "gen44_D.json"
    argv = ["invariants", str(problem), "--which", "D", "--samples", "20"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COUNTING_CHILD, *argv, "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    assert calls["code"] == 0
    assert calls["_magnitude_texts"] <= 2
    assert calls["_render"] <= 300
    assert digest == "de122b398f6dc3e8ddf9178776de8d17362c7f604bbd93dad523cc9ee5cdc859"


README_COMMANDS = [name for name in GOLDEN_COMMANDS if name.startswith("readme_")]


@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_renders_its_report_in_one_call(name, tmp_path, monkeypatch):
    # one outermost render_json per report, so a span around render_json
    # covers all of its formatting
    depth, calls = [0], []
    real = cli.render_json

    def counting(value, indent=0):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return real(value, indent)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cli, "render_json", counting)
    code, _ = run_golden_command(name, tmp_path)
    assert code == 0
    assert calls.count(0) == 1


def test_emit_writes_the_rendered_report_and_a_newline(tmp_path, capsys):
    # the text is written fragment by fragment; the bytes are those of the
    # whole text
    row = np.linspace(-1.0, 1.0, 40)
    report = {"rows": [row * k for k in range(3000)], "name": "slices"}
    want = ("".join(cli.render_json(report)) + "\n").encode("utf-8")
    assert len(want) > 4 * 65536
    out = tmp_path / "report.json"
    cli._emit(report, str(out))
    cli._emit(report, None)
    assert out.read_bytes() == want
    assert capsys.readouterr().out.encode("utf-8") == want


NO_NUMPY_RANDOM_CHILD = """
import json, sys
import numpy
alone = "numpy.random" in sys.modules
import jetkcc.cli as cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([alone, codes, "numpy.random" in sys.modules]))
"""


def test_readme_commands_never_import_numpy_random(tmp_path):
    # every sample is drawn by jetgeom.uniform_draws, so no command pays for
    # importing numpy.random (numpy 2 imports it lazily, on first use)
    argvs = [
        GOLDEN_COMMANDS[name] + ["--out", str(tmp_path / f"{name}.json")]
        for name in README_COMMANDS
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM_CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    alone, codes, loaded = json.loads(proc.stdout)
    if alone:
        pytest.skip("this numpy imports numpy.random when numpy is imported")
    assert codes == [0] * len(argvs) and len(argvs) == 6
    assert loaded is False


def test_emit_keeps_no_joined_copy_of_the_report():
    # the rendered fragments are what is written: _emit's peak holds them and
    # no joined copy of the whole text beside them (a join makes it 2.1x)
    count = 20_000
    magnitudes = np.abs(np.sin(np.arange(4 * 30) + 0.5)).reshape(4, 30)
    signs = np.arange(count)[:, None] >> np.arange(30) % 15 & 1
    values = np.where(signs, -1.0, 1.0) * magnitudes[np.arange(count) % 4]
    index = np.arange(count * 2).reshape(count, 2) % 5 + 1
    report = {"components": Records(index=index, values=values)}
    size = sum(map(len, cli.render_json(report)))
    tracemalloc.start()
    try:
        cli._emit(report, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 16_000_000
    assert peak < 1.6 * size


def test_emit_renders_the_whole_report_before_writing(tmp_path, capsys):
    # a value that cannot be serialized, after a row that can, leaves no
    # partial report on stdout or in the --out file
    bad = {"values": np.linspace(-1.0, 1.0, 40), "bad": object()}
    out = tmp_path / "report.json"
    for path in (str(out), None):
        with pytest.raises(TypeError, match="cannot serialize object"):
            cli._emit(bad, path)
    assert not out.exists()
    assert capsys.readouterr().out == ""
    row = np.linspace(-1.0, 1.0, 40)
    good = {"values": row, "mirror": -row}
    cli._emit(good, None)
    cli._emit(good, str(out))
    printed = capsys.readouterr().out
    assert printed.encode("utf-8") == out.read_bytes()
    assert printed == "".join(render_json(good)) + "\n"


def test_unwritable_out_path_is_an_input_error(tmp_path, capsys):
    # a report that cannot be written exits 2 with a message, like an input
    # file that cannot be read, and prints nothing to stdout
    path = write_json(tmp_path, "osc.json", OSC)
    out = tmp_path / "missing" / "report.json"
    assert main(["invariants", path, "--samples", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: cannot write '{out}': "
        f"[Errno 2] No such file or directory: '{out}'\n"
    )


def test_failed_check_is_printed_before_an_unwritable_out_path(tmp_path, capsys):
    # the first failing row's line comes first, then the write error, and the
    # write error's exit code wins
    out = tmp_path / "missing" / "x.json"
    problem = str(PROBLEMS / "rotation_flow.json")
    assert main(["check", "fd", problem, "--tol", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    failed, write, *rest = captured.err.splitlines()
    assert failed.startswith("check failed: dF[1,1,1]/dv2_1 vs central FD (value ")
    assert failed.endswith(" > tolerance 0.000e+00)")
    assert write.startswith(f"input error: cannot write '{out}': ")
    assert rest == []


def test_importing_the_cli_builds_no_dataclass():
    # every command pays for what its imports build; numpy, argparse, json
    # and hashlib do not load dataclasses, so only jetkcc code could
    code = "import sys, jetkcc.cli; assert 'dataclasses' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# (argv builder, exit code or SystemExit's code): a report, an input error, an
# out-of-domain evaluation, and an argparse refusal that raises
GC_COMMANDS = {
    "exit-0": (lambda tmp: ["invariants", str(PROBLEMS / "oscillator.json")], 0),
    "exit-2": (
        lambda tmp: ["invariants", write_json(tmp, "osc.json", OSC), "--which", "eps,Q"],
        2,
    ),
    "exit-3": (
        lambda tmp: ["invariants", write_json(tmp, "logv.json", LOG_V), "--samples", "6"],
        3,
    ),
    "usage": (
        lambda tmp: ["check", "jacobi", str(PROBLEMS / "oscillator.json"), "--tol=-1"],
        2,
    ),
}


@pytest.mark.parametrize("frozen", [False, True], ids=["none-frozen", "caller-froze"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("command", list(GC_COMMANDS))
def test_main_restores_the_collector_state(command, enabled, frozen, tmp_path, capsys):
    build, code = GC_COMMANDS[command]
    argv = build(tmp_path) + ["--out", str(tmp_path / "report.json")]
    was_enabled = gc.isenabled()
    if frozen:
        gc.freeze()
    (gc.enable if enabled else gc.disable)()
    try:
        count = gc.get_freeze_count()
        assert bool(count) == frozen
        if command == "usage":
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == code
        else:
            assert main(argv) == code
        assert gc.isenabled() == enabled
        # nothing frozen stays nothing frozen; the caller's frozen objects
        # stay frozen (some may have been freed) and none are added
        after = gc.get_freeze_count()
        assert 0 < after <= count if frozen else after == 0
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_closed_stdout_is_an_input_error():
    # a reader that stops early (`jetkcc ... | head -c 10`) closes the pipe
    # under the 5 MB report: exit 2 with one line on stderr and no traceback,
    # also not from the flush at interpreter exit
    argv = ["invariants", str(PROBLEMS / "affine_curved.json"), "--samples", "2000"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetkcc.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "tool"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == b"input error: cannot write '<stdout>': [Errno 32] Broken pipe\n"
