"""Golden reports: the README's sample commands, three stress commands and one
command on a ``--points`` file must reproduce the reports in
``tests/golden/`` byte for byte.

The stress pair (the curved 2x2 affine pair under ``change22``) is written to
input files from the ``test_dtransform`` fixtures, so its report's input
digests depend only on those fixtures and on ``to_string``.
"""

import json
import pathlib

import pytest

from jetkcc.cli import main
from jetkcc.exprlang import to_string
from test_dtransform import change22, curved_pair22

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

# name -> argv; "{pair}" and "{change}" name the files written from fixtures
COMMANDS = {
    "readme_invariants": [
        "invariants", f"{PROBLEMS}/oscillator.json", "--which", "eps,P",
        "--samples", "20", "--seed", "0",
    ],
    "readme_check_transform": [
        "check", "transform", f"{PROBLEMS}/oscillator.json",
        f"{PROBLEMS}/change_stretch.json", "--samples", "20", "--seed", "0",
        "--tol", "1e-6",
    ],
    "readme_check_fd": [
        "check", "fd", f"{PROBLEMS}/rotation_flow.json", "--step", "1e-5",
    ],
    "readme_check_jacobi": ["check", "jacobi", f"{PROBLEMS}/oscillator.json"],
    "readme_characterize": [
        "characterize", f"{PROBLEMS}/affine_curved.json",
        "--base", "0.2,0.3,0.4,0.5",
    ],
    "readme_nullspace": [
        "nullspace", f"{PROBLEMS}/flat_metric_m3.json", "--t", "0.1,0.2,0.3",
    ],
    "stress_invariants_affine_curved": [
        "invariants", f"{PROBLEMS}/affine_curved.json",
        "--which", "eps,P,R,B,D", "--samples", "20", "--seed", "0",
    ],
    # a --points file whose third point has a v row of exactly 25
    # characters, which breaks across lines while its neighbours stay inline
    "points_invariants_oscillator": [
        "invariants", f"{PROBLEMS}/oscillator.json", "--which", "eps,P",
        "--points", f"{TESTS}/inputs/oscillator_points.json",
    ],
    # m = 1, n = 2: two values per residual row, one of them not zero
    "stress_check_jacobi_sphere": [
        "check", "jacobi", f"{TESTS}/inputs/sphere_equator.json",
        "--samples", "30", "--seed", "0",
    ],
    "stress_check_transform_pair22": [
        "check", "transform", "{pair}", "{change}", "--samples", "20",
        "--seed", "0",
    ],
}


def _rows(metric):
    return [[to_string(e) for e in row] for row in metric.rows]


def write_fixture_inputs(directory: pathlib.Path) -> dict:
    """Write the curved 2x2 pair and change22 as problem and change files;
    return the argv substitutions for them."""
    h, phi = curved_pair22()
    cc = change22()
    pair = {
        "m": 2,
        "n": 2,
        "temporal_metric": _rows(h),
        "spatial_metric": _rows(phi),
        "system": {"type": "affine"},
    }
    change = {
        key: [to_string(e) for e in getattr(cc, key)]
        for key in ("t_forward", "x_forward", "t_inverse", "x_inverse")
    }
    paths = {"pair": directory / "pair22.json", "change": directory / "change22.json"}
    paths["pair"].write_text(json.dumps(pair, indent=2), encoding="utf-8")
    paths["change"].write_text(json.dumps(change, indent=2), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


def run_command(name: str, directory: pathlib.Path) -> tuple[int, bytes]:
    """Run one named command with its report written into ``directory``."""
    subs = write_fixture_inputs(directory)
    argv = [arg.format(**subs) for arg in COMMANDS[name]]
    out = directory / f"{name}.json"
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path):
    code, got = run_command(name, tmp_path)
    assert code == 0
    assert got == (GOLDEN / f"{name}.json").read_bytes()
