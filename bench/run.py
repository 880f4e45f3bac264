"""jetkcc benchmark: the ``jetkcc`` CLI on named workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every repetition is a fresh interpreter (a closed loop of one client: the
next repetition starts when the previous one has ended), because CLI users
pay a cold start on every run.  A repetition runs the workload's commands
through ``jetkcc.cli.main`` and writes each report to ``.bench_build/``; the
reports are checked after the timed region ends.  Repetitions go on until
``--seconds`` would be exceeded, with at least ``MIN_REPS`` of them.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: interpreter start until ``import jetkcc.cli`` returns, over
  ``SETUP_PROBES`` import-only starts, the same number on every workload, at
  the nominal speed of process start (below);
* ``wall_s``: from calling ``cli.main`` until the report is written, summed
  over the workload's commands, at the nominal host speed (below);
* ``cpu_s``: process CPU time over the same interval, at the nominal host
  speed;
* ``peak_rss_mb``: peak resident memory of a repetition's process.

Each is the median over the run's samples; the highest percentile with at
least ten samples beyond it is printed beside each time, with the sample
count, and the unscaled medians are printed too.

The workloads are deterministic and single-threaded, yet on a shared host
the speed of one process changes by up to a factor of two within a second
and over minutes, and CPU time changes with wall time.  So each untraced
repetition samples the host's speed while it runs (``bench/speed.py``: a
fixed task that does not touch jetkcc, timed every 0.1 s from a signal
handler in the same thread, its time taken out of the commands' times) and
its times are scaled to a host on which that task takes ``speed.REF_S``.
A faster program gives smaller scaled times; a faster host does not.
Set-up time does not follow that task's speed (process start and import
vary on their own), so each import-only start is bracketed by two bare
interpreter starts instead and scaled to a host on which a bare start takes
``BARE_S``.

Failed repetitions are counted in ``attempted``/``failed``.  A repetition
fails unless every command exits 0, every check in every report passes, no
number in a report is non-finite and the workload's known answers hold.

``--trace 1`` alternates traced and untraced repetitions (``bench/tracer.py``
wraps the public functions of each module at run time) and prints per-layer
self times (medians over traced repetitions), exact counts, which must be
identical in every traced repetition, and the tracing overhead.  Every span
a workload declares must fire.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything measured is also written to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build")
INPUTS = os.path.relpath(os.path.join(BENCH, "inputs"), ROOT)

MIN_REPS = 2
MIN_TRACED = 2
SETUP_PROBES = 20
BARE_S = 0.03  # nominal bare interpreter start, for scaling set-up times
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a child hangs
STARTED = time.monotonic()
FAMILIES = ("eps", "P", "R", "B", "D")


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# report checks (run on the parsed report, outside the timed region)
# ---------------------------------------------------------------------------


def nonfinite_numbers(value) -> int:
    """Non-finite numbers anywhere in a report; the CLI writes them as the
    strings "nan", "inf" and "-inf"."""
    if isinstance(value, dict):
        return sum(nonfinite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return sum(nonfinite_numbers(v) for v in value)
    if isinstance(value, float):
        return 0 if math.isfinite(value) else 1
    return int(isinstance(value, str) and value in ("nan", "inf", "-inf"))


def check_common(report: dict) -> None:
    require(report.get("pass") is True, "report does not pass")
    failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    require(not failing, f"failing checks {failing}")
    bad = nonfinite_numbers(report)
    require(bad == 0, f"{bad} non-finite numbers in the report")


def check_affine_invariants(samples: int):
    def check(report):
        blocks = {b["name"]: b for b in report["invariants"]}
        require(list(blocks) == list(FAMILIES), "not all five invariants")
        require(blocks["eps"]["max_abs"] <= 1e-9, "affine eps max_abs > 1e-9")
        require(blocks["D"]["structural_zero"] is True, "affine D not structurally zero")
        for b in blocks.values():
            for comp in b["components"]:
                require(len(comp["values"]) == samples, "wrong number of samples")

    return check


def check_transform(report):
    require(len(report["checks"]) == len(FAMILIES), "not one check per invariant")
    worst = max(c["value"] for c in report["checks"])
    require(worst <= 1e-6, f"transform deviation {worst} > 1e-6")


def check_sphere_jacobi(samples: int):
    def check(report):
        require(len(report["points"]) == samples, "wrong number of t points")
        worst = max(abs(r) for p in report["points"] for r in p["residual"])
        require(worst <= 1e-6, f"sphere Jacobi residual {worst} > 1e-6")

    return check


def check_nullspace_m3(report):
    require(report["dimension"] == 3, f"nullspace dimension {report['dimension']} != 3")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    argv: list
    check: Callable | None = None


@dataclass
class Workload:
    commands: Callable  # seed -> list[Command]
    spans: tuple  # span labels that must fire in a traced repetition


COMMON_SPANS = (
    "cli.main",
    "cli.load",
    "cli.render",
    "exprlang.parse",
    "exprlang.differentiate",
    "exprlang.simplify",
    "exprlang.substitute",
    "exprlang.evaluate",
    "jetgeom.build_affine",
    "jetgeom.christoffel",
    "kcccore.pipeline_init",
)
FAMILY_SPANS = tuple(f"kcccore.build.{f}" for f in FAMILIES) + tuple(
    f"kcccore.eval.{f}" for f in FAMILIES
)
TRANSFORM_SPANS = (
    "dtransform.pushforward",
    "dtransform.transform_dtensor",
    "dtransform.transform_point",
)
JACOBI_SPANS = ("kcccore.jacobi_residual", "kcccore.sode_residual")

SWEEP_SAMPLES = 2000
PUSHFORWARD_SAMPLES = 20
JACOBI_SAMPLES = 250


def problems_sweep(seed: int) -> list:
    # the README's six sample commands, plus the ROADMAP's stress baseline:
    # the invariants of affine_curved at 2000 samples.  The sampling seed,
    # the characterize base point and the nullspace time point come from the
    # workload seed
    rng = random.Random(seed)
    base = ",".join(f"{rng.uniform(0.1, 0.6):.4f}" for _ in range(4))
    t3 = ",".join(f"{rng.uniform(0.1, 0.6):.4f}" for _ in range(3))
    s = str(seed)
    return [
        Command(
            ["invariants", "problems/affine_curved.json", "--which", "eps,P,R,B,D",
             "--samples", str(SWEEP_SAMPLES), "--seed", s],
            check_affine_invariants(SWEEP_SAMPLES),
        ),
        Command(
            ["invariants", "problems/oscillator.json", "--which", "eps,P",
             "--samples", "20", "--seed", s]
        ),
        Command(
            ["check", "transform", "problems/oscillator.json",
             "problems/change_stretch.json", "--seed", s],
            check_transform,
        ),
        Command(["check", "fd", "problems/rotation_flow.json", "--seed", s]),
        Command(["check", "jacobi", "problems/oscillator.json", "--seed", s]),
        Command(["characterize", "problems/affine_curved.json", "--base", base]),
        Command(
            ["nullspace", "problems/flat_metric_m3.json", "--t", t3],
            check_nullspace_m3,
        ),
    ]


def pushforward_transform(seed: int) -> list:
    return [
        Command(
            ["check", "transform", f"{INPUTS}/curved_pair22.json",
             f"{INPUTS}/change22.json", "--samples", str(PUSHFORWARD_SAMPLES),
             "--seed", str(seed)],
            check_transform,
        )
    ]


def jacobi_scan(seed: int) -> list:
    return [
        Command(
            ["check", "jacobi", f"{INPUTS}/sphere_equator.json",
             "--samples", str(JACOBI_SAMPLES), "--seed", str(seed)],
            check_sphere_jacobi(JACOBI_SAMPLES),
        )
    ]


WORKLOADS = {
    # the README's commands and the ROADMAP's 2000-sample baseline: batch
    # evaluation at 2000 points, rendering a 5 MB report and characterize
    # dominate; the symbolic build is small
    "problems-sweep": Workload(
        problems_sweep,
        COMMON_SPANS + FAMILY_SPANS + TRANSFORM_SPANS + JACOBI_SPANS
        + ("characterize.extract", "characterize.nullspace"),
    ),
    # one huge symbolic build (the pushed-forward B alone has 161,702
    # identity-distinct nodes for 4,920 distinct ones), evaluated at few points
    "pushforward-transform": Workload(
        pushforward_transform,
        COMMON_SPANS + FAMILY_SPANS + TRANSFORM_SPANS,
    ),
    # many small builds: one pipeline, connection and substitution per t
    "jacobi-scan": Workload(
        jacobi_scan,
        COMMON_SPANS + JACOBI_SPANS,
    ),
}


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # an installed package runs from compiled bytecode; the untimed first
    # start writes it, so set-up time does not include compiling the sources
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(commands: list, trace: bool, env: dict) -> dict:
    """Run one fresh interpreter; return its result or raise CheckFailed."""
    spec = {"commands": commands, "trace": trace}
    spec["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, STARTED + RUN_LIMIT_S - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise CheckFailed(f"child exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def run_rep(workload: Workload, seed: int, trace: bool, env: dict) -> dict:
    """One repetition: run, then check every report.  Returns a record with
    ``ok`` and, when the child ran, its measurements."""
    outdir = os.path.join(WORK, "reports")
    os.makedirs(outdir, exist_ok=True)
    cmds = workload.commands(seed)
    argvs = []
    for k, cmd in enumerate(cmds):
        out = os.path.join(outdir, f"cmd{k}.json")
        if os.path.exists(out):
            os.remove(out)
        argvs.append(cmd.argv + ["--out", os.path.relpath(out, ROOT)])
    rec = {"traced": trace, "ok": False, "error": None}
    try:
        res = spawn(argvs, trace, env)
        rec.update(res)
        for cmd, ran, argv in zip(cmds, res["commands"], argvs):
            require(ran["code"] == 0, f"{' '.join(argv[:2])} exited {ran['code']}")
            with open(os.path.join(ROOT, argv[-1]), encoding="utf-8") as fh:
                report = json.load(fh)
            check_common(report)
            if cmd.check is not None:
                cmd.check(report)
        if trace:
            fired = res["trace"]["calls"]
            silent = [s for s in workload.spans if not fired.get(s)]
            require(not silent, f"declared spans never fired: {silent}")
            bad = res["trace"]["counts"]["exprlang.nonfinite_values"]
            require(bad == 0, f"{bad} non-finite evaluated values")
        rec["ok"] = True
    except (CheckFailed, KeyError, TypeError, ValueError, OSError, subprocess.TimeoutExpired) as err:
        rec["error"] = f"{type(err).__name__}: {err}"
        print(f"repetition failed: {rec['error']}", file=sys.stderr)
    return rec


def rep_wall(rec: dict) -> float:
    return sum(c["wall_s"] for c in rec["commands"])


def rep_cpu(rec: dict) -> float:
    return sum(c["cpu_s"] for c in rec["commands"])


BARE_START = (
    "import sys, time; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[1]))"
)


def bare_start(env: dict) -> float:
    """Seconds from spawning an interpreter until its first statement runs."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", BARE_START, repr(spawned)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, STARTED + RUN_LIMIT_S - time.monotonic()),
    )
    if proc.returncode != 0:
        raise CheckFailed(f"bare interpreter start exited {proc.returncode}")
    return float(proc.stdout)


def time_setup(env: dict) -> dict:
    """One import-only start, with a bare interpreter start right before it
    and one right after."""
    before = bare_start(env)
    setup_s = spawn([], False, env)["setup_s"]
    return {"setup_s": setup_s, "bare_s": [before, bare_start(env)]}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, env: dict):
    """Repetitions until the next one would overrun ``seconds``.  Returns
    (set-up samples, repetition records).  Untraced runs make exactly
    ``SETUP_PROBES`` import-only starts, whatever the workload, spread over
    the run in proportion to the time gone, so that set-up time is sampled
    under the same host load as the repetitions."""
    start = time.monotonic()
    probes = 0 if trace else SETUP_PROBES
    setups: list = []

    def probe(upto: int) -> None:
        while len(setups) < min(upto, probes):
            setups.append(time_setup(env))

    reps: list = []
    rep_s = 0.0  # time spent in repetitions
    while True:
        probe(math.ceil(probes * (time.monotonic() - start) / seconds))
        traced = trace and sum(r["traced"] for r in reps) * 2 <= len(reps)
        rep_start = time.monotonic()
        reps.append(run_rep(workload, seed, traced, env))
        rep_s += time.monotonic() - rep_start
        elapsed = time.monotonic() - start
        enough = len(reps) >= MIN_REPS
        if trace:
            n_traced = sum(r["traced"] for r in reps)
            enough = n_traced >= MIN_TRACED and len(reps) - n_traced >= 1
        probe_s = (elapsed - rep_s) / len(setups) if setups else 0.25
        left_s = (probes - len(setups)) * probe_s
        if enough and elapsed + rep_s / len(reps) + left_s > seconds:
            probe(probes)
            return setups, reps


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(values: list):
    """(percentile, value) of the highest sample with at least ten samples
    beyond it, or None."""
    k = len(values) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(values), sorted(values)[k]


def host_factor(rec: dict) -> float:
    """The factor that turns a repetition's times into times at the nominal
    host speed: ``speed.REF_S`` times the mean of one over each reference
    time sampled while it ran."""
    return speed.REF_S * statistics.fmean(1.0 / t for t in rec["reference_s"])


def start_factor(probe: dict) -> float:
    """The factor that turns an import-only start's time into one on a host
    where a bare interpreter start takes ``BARE_S``."""
    return BARE_S / statistics.fmean(probe["bare_s"])


def time_samples(setups: list, reps: list, scaled: bool = True) -> dict:
    timed = [r for r in reps if "commands" in r and not r["traced"]]
    rep_f = host_factor if scaled else lambda rec: 1.0
    setup_f = start_factor if scaled else lambda probe: 1.0
    return {
        "setup_s": [p["setup_s"] * setup_f(p) for p in setups],
        "wall_s": [rep_wall(r) * rep_f(r) for r in timed],
        "cpu_s": [rep_cpu(r) * rep_f(r) for r in timed],
    }


def end_to_end(setups: list, reps: list) -> dict:
    out = {name: (statistics.median(v), "s") for name, v in time_samples(setups, reps).items()}
    peaks = [r["peak_rss_mb"] for r in reps if "commands" in r]
    out["peak_rss_mb"] = (statistics.median(peaks), "MB")
    return out


def per_layer(reps: list) -> tuple[dict, bool]:
    """Per-layer metrics from traced repetitions; the flag says whether
    every exact count repeated."""
    traced = [r for r in reps if "trace" in r]
    plain = [r for r in reps if not r["traced"] and "commands" in r]

    def exact(r):
        t = r["trace"]
        return {
            "counts": t["counts"],
            "calls": t["calls"],
            "report_bytes": sum(c["report_bytes"] for c in r["commands"]),
        }

    first = exact(traced[0])
    steady = all(exact(r) == first for r in traced[1:])

    def median_s(*labels, kind="self_s"):
        return statistics.median(
            sum(r["trace"][kind].get(lab, 0.0) for lab in labels) for r in traced
        )

    calls, counts = first["calls"], first["counts"]
    out = {
        "exprlang.parse_s": (median_s("exprlang.parse"), "s"),
        "exprlang.differentiate_s": (median_s("exprlang.differentiate"), "s"),
        "exprlang.differentiate_calls": (calls.get("exprlang.differentiate", 0), "count"),
        "exprlang.simplify_s": (median_s("exprlang.simplify"), "s"),
        "exprlang.substitute_s": (median_s("exprlang.substitute"), "s"),
        "exprlang.substitute_calls": (calls.get("exprlang.substitute", 0), "count"),
        "exprlang.evaluate_s": (median_s("exprlang.evaluate", "exprlang.evaluate_nested"), "s"),
        "exprlang.evaluate_calls": (calls.get("exprlang.evaluate", 0), "count"),
        "exprlang.eval_node_visits": (counts["exprlang.eval_node_visits"], "count"),
    }
    for f in FAMILIES:
        ident = counts[f"exprlang.nodes_identity.{f}"]
        struct = counts[f"exprlang.nodes_structural.{f}"]
        out[f"exprlang.nodes_identity.{f}"] = (ident, "count")
        out[f"exprlang.nodes_structural.{f}"] = (struct, "count")
        out[f"exprlang.sharing_ratio.{f}"] = (ident / struct if struct else 0.0, "ratio")
    out.update(
        {
            "exprlang.nonfinite_values": (counts["exprlang.nonfinite_values"], "count"),
            "jetgeom.build_affine_s": (median_s("jetgeom.build_affine"), "s"),
            "jetgeom.christoffel_s": (median_s("jetgeom.christoffel"), "s"),
            "jetgeom.christoffel_calls": (calls.get("jetgeom.christoffel", 0), "count"),
        }
    )
    for f in FAMILIES:
        out[f"kcccore.build_s.{f}"] = (median_s(f"kcccore.build.{f}"), "s")
    # whole first build of each family, including the spans it causes
    for f in FAMILIES:
        out[f"kcccore.build_total_s.{f}"] = (
            median_s(f"kcccore.build.{f}", kind="total_s"),
            "s",
        )
    for f in FAMILIES:
        out[f"kcccore.eval_s.{f}"] = (median_s(f"kcccore.eval.{f}"), "s")
    out.update(
        {
            "kcccore.pipelines_built": (counts["kcccore.pipelines_built"], "count"),
            "kcccore.jacobi_residual_s": (median_s("kcccore.jacobi_residual"), "s"),
            "kcccore.sode_residual_s": (median_s("kcccore.sode_residual"), "s"),
            "dtransform.pushforward_s": (median_s("dtransform.pushforward"), "s"),
            "dtransform.transform_dtensor_s": (median_s("dtransform.transform_dtensor"), "s"),
            "dtransform.transform_calls": (calls.get("dtransform.transform_dtensor", 0), "count"),
            "dtransform.transform_point_s": (median_s("dtransform.transform_point"), "s"),
            "characterize.extract_s": (median_s("characterize.extract"), "s"),
            "characterize.nullspace_s": (median_s("characterize.nullspace"), "s"),
            "cli.load_s": (median_s("cli.load"), "s"),
            "cli.render_s": (median_s("cli.render"), "s"),
            "cli.report_bytes": (first["report_bytes"], "bytes"),
            "cli.main_self_s": (median_s("cli.main"), "s"),
            "trace.overhead_s": (
                statistics.median(rep_wall(r) for r in traced)
                - statistics.median(rep_wall(r) for r in plain),
                "s",
            ),
        }
    )
    return out, steady


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    # on SIGTERM, unwind: subprocess.run kills and waits for a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "jetkcc", "cli.py")):
        print(f"no jetkcc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        probe = spawn([], False, env)  # also writes the bytecode cache
    except (CheckFailed, subprocess.TimeoutExpired) as err:
        print(f"jetkcc does not import: {err}", file=sys.stderr)
        return 2
    if not probe["module"].startswith(SRC + os.sep):
        print(f"jetkcc imported from {probe['module']}, not {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    try:
        setups, reps = measure(workload, args.seed, args.seconds, trace, env)
    except (CheckFailed, subprocess.TimeoutExpired) as err:
        print(f"import-only start failed: {err}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()

    failed = sum(not r["ok"] for r in reps)
    if trace:
        if not any("trace" in r for r in reps) or not any(
            not r["traced"] and "commands" in r for r in reps
        ):
            print("no traced and untraced repetition completed", file=sys.stderr)
            return 1
        metrics, steady = per_layer(reps)
        if not steady:
            print("exact counts differ between traced repetitions", file=sys.stderr)
    else:
        if not any("commands" in r for r in reps):
            print("no repetition completed", file=sys.stderr)
            return 1
        metrics, steady = end_to_end(setups, reps), True
    correct = failed == 0 and steady

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {probe['python']}  numpy {probe['numpy']}  "
        f"nproc {os.cpu_count()}  load {load_start[0]:.2f} -> {load_end[0]:.2f}"
    )
    print(f"  {'fail_rate':<34} {failed}/{len(reps)} = {failed / len(reps):.3f}")
    if not trace:
        unscaled = time_samples(setups, reps, scaled=False)
        for name, values in time_samples(setups, reps).items():
            tail = tail_percentile(values)
            print(
                f"  {name + ' samples':<34} n={len(values)}  "
                + (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "no percentile with 10 beyond")
                + f"  unscaled median {statistics.median(unscaled[name]):.6g} s"
            )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "args": vars(args),
                "python": probe["python"],
                "numpy": probe["numpy"],
                "nproc": os.cpu_count(),
                "loadavg": [load_start, load_end],
                "setup_probes": setups,
                "repetitions": reps,
                "metrics": metrics,
            },
            fh,
            indent=1,
        )
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
