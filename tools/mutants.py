"""Mutation gauge: which single-site wrong formula would the tests miss?

Run from any checkout: ``python3 tools/mutants.py``.  It takes no options.

Five mutation operators are applied at every matching site of the geometry
modules and the expression engine, one site at a time, each in a temporary
copy of the checkout (``src/``, ``tests/``, ``problems/``, ``bench/`` and
``pyproject.toml``):

- ``drop-neg``: a call ``neg(e)`` becomes ``(e)``;
- ``sub-to-add``: a call ``sub(a, b)`` becomes ``add(a, b)``;
- ``scale-coefficient``: the numeric first argument ``c`` of a ``mul`` call
  is halved when it is at least 0.5 and doubled when it is smaller;
- ``swap-indices``: two adjacent subscripts that are distinct names,
  ``X[p][q]``, become ``X[q][p]``;
- ``drop-diagonal``: the test of ``if i == j:`` between two names becomes
  ``False``, so the diagonal term is dropped.

Sites are found on the syntax tree, so docstrings and comments are never
mutated.  Each mutant runs a fixed test subset with ``pytest -x``; a failing
run (or one that cannot even collect) kills it.  stdout gets one JSON line
per mutant: file, line, operator, the source line before and after, status
(``killed``, ``equivalent`` or ``survived``) and the first failing test.
A survivor that ``tools/equivalent_mutants.json`` lists, keyed on its file,
operator and source text, is ``equivalent``; any other survivor is a
finding.  A summary goes to stderr, and the exit code is 1 if there is a
finding, 2 if a test subset fails on the unmutated copy, else 0.
"""

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
EQUIVALENT = pathlib.Path(__file__).with_name("equivalent_mutants.json")
# what the test subsets read: the benchmark's inputs too
COPIED = ("src", "tests", "problems", "bench", "pyproject.toml")

# the tests that judge the invariant formulas; modules below the geometry
# core also run the engine's and the geometry's own tests
CORE_TESTS = [
    "tests/test_acceptance.py",
    "tests/test_kcccore.py",
    "tests/test_dtransform.py",
    "tests/test_oracle.py",
    "tests/test_golden.py",
    "tests/test_characterize.py",
    "tests/test_families.py",
]
MORE_TESTS = ["tests/test_jetgeom.py", "tests/test_exprlang.py"]
MODULES = {
    "kcccore": CORE_TESTS,
    "jetgeom": CORE_TESTS + MORE_TESTS,
    "dtransform": CORE_TESTS + MORE_TESTS,
    "exprlang": CORE_TESTS + MORE_TESTS,
    "characterize": CORE_TESTS + MORE_TESTS,
}
# a mutant that makes the subset loop is killed by this limit
TIMEOUT_S = 600


def _called(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is a call of ``name`` or of ``<module>.name``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or (
        isinstance(func, ast.Attribute) and func.attr == name
    )


def _number(node: ast.AST):
    """The value of a numeric literal, signed or not, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _number(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def _sites(text: str):
    """Every (operator, site node, [(node, its new source text)]) of a
    module's source."""
    for node in ast.walk(ast.parse(text)):
        if _called(node, "neg") and len(node.args) == 1:
            inner = ast.get_source_segment(text, node.args[0])
            yield "drop-neg", node, [(node, f"({inner})")]
        if _called(node, "sub") and len(node.args) == 2:
            func = ast.get_source_segment(text, node.func)
            yield "sub-to-add", node, [(node.func, func[: -len("sub")] + "add")]
        c = _number(node.args[0]) if _called(node, "mul") and node.args else None
        if c is not None:
            scaled = c / 2 if abs(c) >= 0.5 else c * 2
            yield "scale-coefficient", node, [(node.args[0], repr(float(scaled)))]
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
            p, q = node.value.slice, node.slice
            if isinstance(p, ast.Name) and isinstance(q, ast.Name) and p.id != q.id:
                yield "swap-indices", node, [(p, q.id), (q, p.id)]
        test = node.test if isinstance(node, ast.If) else None
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
            and all(isinstance(u, ast.Name) for u in (test.left, *test.comparators))
        ):
            yield "drop-diagonal", node, [(test, "False")]


def _offset(lines: list, row: int, col: int) -> int:
    """The character offset of an AST position (1-based row, UTF-8 byte
    column) in the text split into ``lines``."""
    before = sum(len(u) for u in lines[: row - 1])
    return before + len(lines[row - 1].encode()[:col].decode())


def _mutate(text: str, edits: list) -> str:
    """``text`` with each (node, new text) replaced; edits do not overlap."""
    lines = text.splitlines(keepends=True)
    spans = sorted(
        (
            _offset(lines, node.lineno, node.col_offset),
            _offset(lines, node.end_lineno, node.end_col_offset),
            new,
        )
        for node, new in edits
    )
    for start, end, new in reversed(spans):
        text = text[:start] + new + text[end:]
    return text


def _collapsed(lines: list) -> str:
    return " ".join(" ".join(lines).split())


def mutants(path: pathlib.Path):
    """Every mutant of one module, in source order: (line, operator, source
    text, mutated text, mutated module).  The source text is the edited
    lines, whitespace collapsed, and the mutated text the same lines after
    the edit."""
    text = path.read_text(encoding="utf-8")
    found = []
    for operator, node, edits in _sites(text):
        mutated = _mutate(text, edits)
        first = min(u.lineno for u, _ in edits)
        end = max(u.end_lineno for u, _ in edits)
        grown = mutated.count("\n") - text.count("\n")
        before = _collapsed(text.splitlines()[first - 1 : end])
        after = _collapsed(mutated.splitlines()[first - 1 : end + grown])
        found.append((first, node.col_offset, operator, before, after, mutated))
    found.sort(key=lambda u: u[:2])
    return [(line, *rest) for line, _, *rest in found]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def run_tests(copy: pathlib.Path, tests: list):
    """(passed, first failing test or None) of the subset in ``copy``."""
    # no bytecode: a mutant of the same size and mtime would reuse a stale
    # .pyc; one hash seed: every mutant runs the tests in the same order
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, None
    return False, _first_failure(done.stdout + done.stderr)


def main() -> int:
    table = json.loads(EQUIVALENT.read_text(encoding="utf-8"))
    known = {(u["file"], u["operator"], u["source"], u["mutant"]) for u in table}
    counts = dict.fromkeys(("killed", "equivalent", "survived"), 0)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = pathlib.Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        # a subset that fails unmutated would kill every mutant
        for tests in {tuple(u) for u in MODULES.values()}:
            passed, failure = run_tests(copy, tests)
            if not passed:
                print(f"the unmutated copy fails {failure}", file=sys.stderr)
                return 2
        for module, tests in MODULES.items():
            rel = f"src/jetkcc/{module}.py"
            original = (ROOT / rel).read_text(encoding="utf-8")
            for line, operator, before, after, mutated in mutants(ROOT / rel):
                (copy / rel).write_text(mutated, encoding="utf-8")
                start = time.perf_counter()
                passed, failure = run_tests(copy, tests)
                (copy / rel).write_text(original, encoding="utf-8")
                if not passed:
                    status = "killed"
                elif (rel, operator, before, after) in known:
                    status = "equivalent"
                else:
                    status = "survived"
                counts[status] += 1
                record = {
                    "file": rel,
                    "line": line,
                    "operator": operator,
                    "source": before,
                    "mutant": after,
                    "status": status,
                    "first_failure": failure,
                    "seconds": round(time.perf_counter() - start, 1),
                }
                print(json.dumps(record), flush=True)
    total = sum(counts.values())
    print(
        f"{total} mutants: {counts['killed']} killed, {counts['equivalent']} "
        f"equivalent, {counts['survived']} survived (findings)",
        file=sys.stderr,
    )
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
