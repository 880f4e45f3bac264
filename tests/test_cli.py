"""Command-line surface: problem loading, reports, determinism, exit codes."""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import support
import jetkcc.exprlang as ex
from jetkcc.cli import (
    InputError,
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

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


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


def test_json_syntax_and_duplicate_keys_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 1,', encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        load_problem(str(path))
    path.write_text('{"m": 1, "m": 2}', encoding="utf-8")
    with pytest.raises(InputError, match="duplicate key 'm'"):
        load_problem(str(path))


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
    # the message names the subexpression where the value turns non-finite
    assert capsys.readouterr().err == (
        "evaluation error: invariant eps: component [1, 1, 1] is nan "
        "at point 1 of 6 in `log(x1)`\n"
    )


def test_nonfinite_message_follows_selector_order(tmp_path, capsys):
    # eps and P are evaluated as one tape, and both are nan at point 1; the
    # message names the first selector asked for
    path = write_json(tmp_path, "logv.json", LOG_V)
    argv = ["invariants", path, "--which", "P,eps", "--samples", "6", "--seed", "0"]
    assert run_cli(argv, tmp_path) == (3, None)
    assert capsys.readouterr().err == (
        "evaluation error: invariant P: component [1, 1] is nan "
        "at point 1 of 6 in `log(x1)`\n"
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
    assert sum(p.x[0] < 0.0 for p in sample_jet_points(1, 1, 6, seed=0)) == 2
    prob = write_json(tmp_path, "logv.json", LOG_V)
    change = write_json(tmp_path, "id.json", IDENTITY_11)
    code, report = run_cli(
        ["check", "transform", prob, change, "--samples", "6", "--seed", "0"],
        tmp_path,
    )
    assert code == 1 and report["pass"] is False
    eps = report["checks"][0]
    assert eps["name"] == "invariant eps transforms as a d-tensor"
    assert eps["value"] == "nan" and eps["pass"] is False
    err = capsys.readouterr().err
    assert "invariant eps transforms as a d-tensor (value nan" in err


# cosh(1000*x1) overflows to inf at every sampled point, so both paths of
# check transform, and both sides of a central difference, meet inf - inf
COSH_V = dict(
    OSC, system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "cosh(1000*x1)*v1_1"}]}
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, more, failed",
    [
        (
            "transform",
            [str(PROBLEMS / "change_stretch.json"), "--samples", "3"],
            "invariant P transforms as a d-tensor (value nan > tolerance 1.000e-06)",
        ),
        (
            "fd",
            ["--samples", "5"],
            "dF[1,1,1]/dv1_1 vs central FD (value nan > tolerance 1.000e-05)",
        ),
    ],
)
def test_overflowed_check_fails_without_numpy_warnings(
    command, more, failed, tmp_path, capsys
):
    problem = write_json(tmp_path, "cosh.json", COSH_V)
    code, report = run_cli(["check", command, problem] + more, tmp_path)
    assert code == 1 and "nan" in [c["value"] for c in report["checks"]]
    assert capsys.readouterr().err == f"check failed: {failed}\n"


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


def test_fd_check_max_deviation_keeps_nan(tmp_path):
    prob = write_json(tmp_path, "logv.json", LOG_V)
    code, report = run_cli(
        ["check", "fd", prob, "--samples", "6", "--seed", "0"], tmp_path
    )
    assert code == 1 and report["pass"] is False
    assert report["max_deviation"] == "nan"


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
def test_jacobi_builds_once_whatever_the_number_of_t(tmp_path, monkeypatch, samples):
    # one pipeline, and one substitution per leaf (2 of the SODE residual and
    # 2 of the Jacobi residual on the 1x2 sphere), however many t are sampled
    import jetkcc.kcccore as kc

    calls = {"pipelines": 0, "substitute": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    init = kc.InvariantPipeline.__init__
    monkeypatch.setattr(kc.InvariantPipeline, "__init__", counted(init, "pipelines"))
    monkeypatch.setattr(kc, "substitute", counted(ex.substitute, "substitute"))
    path = write_json(tmp_path, "sphere.json", SPHERE_EQUATOR)
    code, report = run_cli(["check", "jacobi", path, "--samples", samples], tmp_path)
    assert code == 0 and len(report["points"]) == int(samples)
    assert calls == {"pipelines": 1, "substitute": 4}


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
    # an overflowing constant stays unfolded: the file loads, and the
    # infinite invariant is reported as an evaluation error
    big = dict(
        OSC, system={"F": [{"i": 1, "alpha": 1, "beta": 1, "expr": "1e200^2.5*x1"}]}
    )
    prob = write_json(tmp_path, "big.json", big)
    assert main(["invariants", prob, "--samples", "2"]) == 3
    assert "is inf" in capsys.readouterr().err


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
    text = render_json({"a": 0.1, "b": [1.0, -2.5e-17], "c": True, "d": None})
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
    """The per-element renderer that float arrays and point sets replaced:
    one format call per float and a layout probe per list."""

    def fmt(x):
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")

    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(value, float):
        return fmt(value)
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
    assert render_json(row, indent) == _oracle_render(row.tolist(), indent)


@pytest.mark.parametrize("size", [12, 13])
@pytest.mark.parametrize("fill", [-1.2345678901234567e-05, math.nan, 0.0, -0.0])
def test_render_json_float_array_layout_boundary(size, fill):
    # at most 12 floats render inline, more break one per line
    row = np.full(size, fill)
    text = render_json(row, 2)
    assert text == _oracle_render(row.tolist(), 2)
    assert ("\n" in text) == (size > 12)


@pytest.mark.parametrize("size", [3, 2000])
def test_zero_row_with_one_negative_zero_renders_it(size):
    # an all-zero row renders from cached text only when no zero is -0.0
    row = np.zeros(size)
    row[1] = -0.0
    text = render_json(row, 2)
    assert text == _oracle_render(row.tolist(), 2)
    assert "-0" in text and render_json(np.zeros(size), 2) == text.replace("-0", "0")


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
    assert render_json(points, indent) == _oracle_render(dicts, indent)


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
