"""Command-line parsing: help and usage messages pinned byte for byte, the
command-table parse checked against argparse, and no parser built for a
well-formed command line."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import support
import jetkcc.cli as cli
from test_golden import COMMANDS as GOLDEN_COMMANDS

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_usage.json"

# name -> argv: the help of the program, of ``check`` and of each command
# path, and one usage error per command path
USAGE_CASES = {
    "help": ["--help"],
    "check_help": ["check", "--help"],
    "invariants_help": ["invariants", "--help"],
    "check_transform_help": ["check", "transform", "--help"],
    "check_fd_help": ["check", "fd", "--help"],
    "check_jacobi_help": ["check", "jacobi", "--help"],
    "characterize_help": ["characterize", "--help"],
    "nullspace_help": ["nullspace", "--help"],
    "no_command": [],
    "check_no_command": ["check"],
    "invariants_unknown_option": ["invariants", "p.json", "--bogus", "1"],
    "check_transform_missing_change": ["check", "transform", "p.json"],
    "check_fd_bad_step": ["check", "fd", "p.json", "--step=0"],
    "check_jacobi_bad_tol": ["check", "jacobi", "p.json", "--tol=-1"],
    "characterize_missing_base": ["characterize", "p.json"],
    "nullspace_bad_m": ["nullspace", "m.json", "--t", "0.1", "--m", "two"],
}


def run_usage(argv) -> dict:
    """The exit code, stdout and stderr of ``main(argv)`` at 80 columns,
    for a command line that argparse ends with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
    return {
        "argv": argv,
        "code": exit_info.value.code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


@pytest.mark.parametrize("name", list(USAGE_CASES))
def test_help_and_usage_match_golden(name, monkeypatch):
    # argparse wraps help to the terminal width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_usage(USAGE_CASES[name]) == golden[name]


# ---------------------------------------------------------------------------
# the command-table parse against argparse
# ---------------------------------------------------------------------------

# values that every type function accepts, values some refuse, and text no
# option wants
GOOD_VALUES = ("1", "20", "7")
VALUES = (
    "0", "-3", "1000000", "1000001", " 5", "x", "1e-6", "-0", "nan", "inf",
    "-1e-5", "", "p.json", "-", "--", "eps,P", "0.1,0.2",
)


@st.composite
def command_lines(draw):
    """An argv built from one table entry: its words, a shuffle of its
    positionals and options in ``=``, space or bare form, with a good or
    any value, and now and then a wrong word or count or a stray token."""
    path, (_, _, arguments) = draw(st.sampled_from(list(cli._COMMANDS.items())))
    rare = st.integers(0, 9).map(lambda k: k == 0)
    words = list(path)
    if draw(rare):
        words = draw(st.sampled_from([words[:-1], [words[-1][:3]], ["check"] + words]))
    flags = [name for name in arguments if name.startswith("-")]
    count = len(arguments) - len(flags)
    if draw(rare):
        count += draw(st.sampled_from([-1, 1]))
    items = [[draw(st.sampled_from(["p.json", "c.json", "-1", "check"]))]
             for _ in range(max(count, 0))]
    items += [[flag] for flag in flags if draw(st.booleans())]
    extra = ["--samp", "--bogus", "-h", "--help", "--", "--out", "--tol", "-1"]
    items += [[draw(st.sampled_from(extra))] for _ in range(draw(rare))]
    for item in items:
        form = draw(st.sampled_from(["="] * 4 + [" "] * 5 + ["bare"]))
        if not item[0].startswith("--") or item[0] == "--" or form == "bare":
            continue
        value = draw(st.sampled_from(GOOD_VALUES))
        if draw(st.integers(0, 3)) == 0:
            value = draw(st.sampled_from(VALUES) | st.text("-=1aeP,.", max_size=3))
        item[:] = [f"{item[0]}={value}"] if form == "=" else [item[0], value]
    items = draw(st.permutations(items))
    return words + [token for item in items for token in item]


def argparse_namespace(argv):
    """``build_parser().parse_args(argv)``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return cli.build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_table_parse_agrees_with_argparse(argv):
    got, want = cli._table_parse(argv), argparse_namespace(argv)
    if want is None:
        assert got is None
    elif got is not None:
        assert vars(got) == vars(want)


@pytest.mark.parametrize("argv", [
    ["check", "transform", "p.json", "--samples", "3", "c.json", "--out=-"],
    ["invariants", "--seed=7", "p.json", "--which", "eps", "--points="],
    ["check", "jacobi", "p.json", "--tol=-0"],
    ["nullspace", "--m", "2", "m.json", "--t=0.1,0.2"],
])
def test_table_parse_reads_what_argparse_reads(argv):
    assert vars(cli._table_parse(argv)) == vars(argparse_namespace(argv))


@pytest.mark.parametrize("argv", [
    ["--samples=2", "invariants", "p.json"],  # an option before the command
    ["invariants", "p.json", "--samples", "2", "--samples", "3"],
    ["invariants", "p.json", "--samp", "2"],
    ["invariants", "p.json", "--tol", "1"],
    ["invariants", "p.json", "--", "q.json"],
    ["invariants", "p.json", "--out=--"],  # argparse drops the "--": out == []
    ["invariants", "p.json", "--seed"],
    ["invariants", "p.json", "-h"],
    ["check", "jacobi", "p.json", "--tol", "-0"],  # argparse reads -0 as a value
    ["check", "jacobi", "-p.json"],
    ["check", "jac", "p.json"],
    ["check", "fd", "p.json", "--samples=1000001"],
    ["nullspace", "m.json"],
    ["nullspace", "m.json", "--t=1", "--m", "x"],
])
def test_table_parse_declines_what_argparse_decides(argv):
    assert cli._table_parse(argv) is None


# ---------------------------------------------------------------------------
# no parser for a well-formed command line
# ---------------------------------------------------------------------------


def _bench_run():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return run


def test_well_formed_commands_build_no_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the workloads name their inputs from the root
    run = _bench_run()
    argvs = [a for name, a in GOLDEN_COMMANDS.items() if name.startswith("readme_")]
    argvs += [
        cmd.argv for workload in run.WORKLOADS.values() for cmd in workload.commands(41)
    ]
    cli.build_parser.cache_clear()
    try:
        with support.recorded_calls(argparse.ArgumentParser, "__init__") as built:
            codes = [
                cli.main(argv + ["--out", str(tmp_path / f"cmd{k}.json")])
                for k, argv in enumerate(argvs)
            ]
            assert codes == [0] * len(argvs) and len(argvs) == 6 + 7 + 1 + 1
            assert built == []
            with pytest.raises(SystemExit):
                cli.main(USAGE_CASES["check_jacobi_bad_tol"])
            assert len(built) == 8
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()


# imports jetkcc.cli, then runs each argv of the JSON list in argv[1] through
# main and prints, per command, the modules it loaded beyond that import
MODULES_CHILD = """
import json, sys
import jetkcc.cli as cli
loaded = set(sys.modules)
news = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    news.append([code, sorted(set(sys.modules) - loaded)])
print(json.dumps(news))
"""


def test_commands_load_no_module_beyond_the_cli_import(tmp_path):
    # a module imported lazily by a command (numpy.ma through one numpy call,
    # say) would cost every run of that command its import
    run = _bench_run()
    argvs = [a for name, a in GOLDEN_COMMANDS.items() if name.startswith("readme_")]
    argvs += [
        cmd.argv for workload in run.WORKLOADS.values() for cmd in workload.commands(41)
    ]
    argvs = [a + ["--out", str(tmp_path / f"cmd{k}.json")] for k, a in enumerate(argvs)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_CHILD, json.dumps(argvs)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, []]] * len(argvs)


def _dash_dash_cases():
    """argv per (command path, option): the positionals and required options
    filled in, and the option given as ``--option=--``."""
    for path, (_, _, arguments) in cli._COMMANDS.items():
        head = list(path) + ["p.json"] * sum(not a.startswith("-") for a in arguments)
        required = [f for f, kw in arguments.items() if kw.get("required")]
        for flag in arguments:
            if flag.startswith("-"):
                others = [f"{f}=1" for f in required if f != flag]
                yield pytest.param(head + others + [f"{flag}=--"], flag, id=f"{path}{flag}")


@pytest.mark.parametrize("argv, flag", list(_dash_dash_cases()))
def test_dash_dash_value_is_a_usage_error(argv, flag):
    # Python 3.11's argparse drops a "--" from an =-form value and leaves the
    # option holding [], which no command can read
    result = run_usage(argv)
    assert result["code"] == 2 and result["stdout"] == ""
    assert result["stderr"].endswith(f"error: argument {flag}: expected one argument\n")
