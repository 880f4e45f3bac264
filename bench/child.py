"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``bench/run.py`` with one JSON argument:

    {"spawned": <CLOCK_MONOTONIC seconds just before the spawn>,
     "commands": [[cli argv...], ...],   # empty for a set-up probe
     "trace": false | true}

It imports ``jetkcc.cli`` first, so that set-up time covers interpreter start
plus import and nothing else, then calls ``cli.main`` once per command and
prints one JSON line: set-up time, per-command wall and CPU time and exit
code, peak resident memory, and either the host-speed samples taken while
the commands ran (``speed.Speedometer``; their time is taken out of the
commands' wall and CPU times) or, when tracing, the tracer's summary.
"""

import time

import jetkcc.cli as cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402  (bench/ is sys.path[0])


def run(spec: dict) -> dict:
    # host speed is sampled in untraced repetitions only: the tracer would
    # charge the samples to whichever span they interrupt
    speedo = speed.Speedometer() if spec["commands"] and not spec["trace"] else None
    if speedo is not None:
        speedo.start()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # bench/ is sys.path[0]

        tracer = Tracer()
        tracer.install()
    commands = []
    for argv in spec["commands"]:
        spent = (speedo.wall_s, speedo.cpu_s) if speedo else (0.0, 0.0)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        code = cli.main(argv)
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        if speedo is not None:
            wall -= speedo.wall_s - spent[0]
            cpu -= speedo.cpu_s - spent[1]
        out = argv[argv.index("--out") + 1]
        commands.append(
            {
                "argv": argv,
                "code": code,
                "wall_s": wall,
                "cpu_s": cpu,
                "report_bytes": os.path.getsize(out) if os.path.exists(out) else 0,
            }
        )
    if speedo is not None:
        speedo.stop()
    result = {
        "setup_s": IMPORTED - spec["spawned"],
        "commands": commands,
        "reference_s": speedo.samples if speedo else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": cli.__file__,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
