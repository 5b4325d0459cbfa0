#!/usr/bin/env python3
"""PRES benchmark: one workload, measured from outside the program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` then runs one
more set-up and pass with span wrappers around every layer's entry
points and the program's own ``ObsSession`` on, and prints the
per-layer metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when any output check failed, and
2 when the program's sources are not beside the benchmark.

The program is imported from ``src/`` of the checkout; nothing needs
building.  Scratch files (attempt stores) live under ``.perfbench/`` of
the checkout and are removed on exit; the traced run leaves its spans
there as ``<workload>-seed<N>.spans.json.gz``.

Every session runs once per pass and passes repeat for the measuring
time, so each timed call has several samples; a call's time is their
mean, in reference-speed seconds (see ``hostspeed``).
"""

from __future__ import annotations

import argparse
import atexit
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: passes (and set-ups) per run at least; ``setup_s`` is the median
#: set-up
MIN_PASSES = 3

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "reproduce_s.p50": "s",
    "reproduce_s.p90": "s",
    "attempts": "count",
    "record_events_per_s": "events/s",
    "log_bytes": "bytes",
    "record_overhead_pct": "%",
    "peak_rss_mb": "MB",
}


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated between samples; a single
    sample is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_call(samples: List[List[float]]) -> List[float]:
    """Per position, the mean of the repeated samples."""
    return [statistics.mean(column) for column in zip(*samples)]


def measured(workload: Any, step: Callable[..., None],
             *args: Any) -> Tuple[float, Any]:
    """Run one set-up or pass; its wall seconds and what it timed."""
    result = workload.begin()
    started = workload.clock()
    step(*args)
    return workload.clock() - started, result


def run_passes(workload: Any, seconds: float) -> Tuple[List[float], List[Any]]:
    """Set-up and a pass, repeated until ``seconds`` are used and at least
    :data:`MIN_PASSES` ran: the set-up times, and the passes.  Set-ups
    are spread over the run like the passes, so both see the same host."""
    setup_s, passes = [], []
    started = time.perf_counter()
    while (
        len(passes) < MIN_PASSES or time.perf_counter() - started < seconds
    ):
        setup_s.append(measured(workload, workload.setup)[0])
        if not passes:
            workload.prepare_checks()
        passes.append(measured(workload, workload.run_pass, False)[1])
    return setup_s, passes


def check_passes(passes: List[Any], first: Any) -> Tuple[int, int, List[str]]:
    """(sessions, failed sessions, failure messages); a session fails its
    own checks, or differs in any exact count from pass ``first``."""
    failed, messages = 0, []
    for result in passes:
        for session, reference in zip(result.sessions, first.sessions):
            problems = list(session.failures)
            if session.signature != reference.signature:
                problems.append(
                    f"{session.label}: report or exact counts differ "
                    "from the first pass"
                )
            if problems:
                failed += 1
                messages.extend(problems)
    return sum(len(r.sessions) for r in passes), failed, messages


def end_to_end(setup_s: List[float], passes: List[Any],
               slowdown: float) -> Dict[str, float]:
    """Wall seconds divided by the host's ``slowdown`` are reference-speed
    seconds."""
    walls = [
        wall / slowdown
        for wall in per_call([[s.reproduce_s for s in p.sessions] for p in passes])
    ]
    record_s = sum(per_call([p.record_s for p in passes])) / slowdown
    exact = passes[0].recordings
    return {
        "setup_s": statistics.median(setup_s) / slowdown,
        "steps_per_s": sum(s.steps for s in passes[0].sessions) / sum(walls),
        "reproduce_s.p50": statistics.median(walls),
        "reproduce_s.p90": percentile(walls, 90),
        "attempts": sum(s.report.attempts for s in passes[0].sessions),
        "record_events_per_s": exact.events / record_s,
        "log_bytes": exact.log_bytes,
        "record_overhead_pct": 100.0 * (
            exact.recorded_time / exact.native_time - 1.0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Registered before the program is imported, so it runs after the
    # program's own exit handlers have released its shared memory.
    atexit.register(wait_for_children)
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}"
        )
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return measure(args, layers, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def wait_for_children() -> None:
    """Wait for every process the run started: pool workers, and the
    resource tracker ``multiprocessing`` starts for shared memory."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    # Closing the tracker's pipe ends it; _stop() then reaps it.
    resource_tracker._resource_tracker._stop()


def measure(args: Any, layers: Any, workloads: Any, workdir: str) -> int:
    from hostspeed import HostSpeed

    log = layers.SpanLog()
    speed = HostSpeed()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, log, speed, workdir
    )
    with speed:
        setup_s, passes = run_passes(workload, args.seconds)
    slowdown = speed.slowdown()
    attempted, failed, messages = check_passes(passes, passes[0])

    if args.trace:
        instrumentation = layers.Instrumentation(log)
        instrumentation.install()
        log.enabled = True
        try:
            workload.setup()
            setup_spans = len(log.start)
            traced = [measured(workload, workload.run_pass, True)[1]]
        finally:
            log.enabled = False
            instrumentation.uninstall()
        more = check_passes(traced, passes[0])
        attempted += more[0]
        failed += more[1]
        messages += more[2]
        import perlayer

        metrics = perlayer.per_layer(
            log, setup_spans, passes, traced, slowdown
        )
        log.write(str(OUT / f"{args.workload}-seed{args.seed}.spans.json.gz"))
        units = perlayer.PER_LAYER
    else:
        metrics = end_to_end(setup_s, passes, slowdown)
        units = END_TO_END

    for message in messages[:20]:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    sessions = len(passes[0].sessions)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of "
          f"{statistics.median(p.timed_s for p in passes):.2f}s timed calls; "
          f"{sessions} sessions, each timed by its mean over the passes; "
          f"reproduce_s percentiles over {sessions} samples; host slowdown "
          f"{slowdown:.3f} from {len(speed.samples)} probes")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
