"""Per-layer metrics of a traced run.

Figures are per pass: totals of the traced pass.  ``sim.native_us_per_step`` comes from the traced
set-up's failing-seed search instead, which is plain simulation under
the random scheduler.

Benchmark-side spans (:mod:`layers`) cover the benchmark's own process.
Pool-worker time comes from the program's ``ObsSession``: worker lanes
carry the ``attempt`` spans the workers shipped back.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

import layers

#: per-layer metrics: name -> unit
PER_LAYER = {
    "sim.steps": "count",
    "sim.run_s": "s",
    "sim.us_per_step": "us",
    "sim.runnable_calls": "count",
    "sim.runnable_s": "s",
    "sim.native_us_per_step": "us",
    "pir.pick_calls": "count",
    "pir.pick_s": "s",
    "pir.us_per_pick": "us",
    "feedback.mine_calls": "count",
    "feedback.mine_s": "s",
    "feedback.events_swept": "count",
    "feedback.us_per_event": "us",
    "feedback.candidates": "count",
    "feedback.fingerprint_calls": "count",
    "feedback.fingerprint_s": "s",
    "explore.attempts": "count",
    "explore.duplicate_ratio": "ratio",
    "explore.diverged_ratio": "ratio",
    "explore.frontier_peak": "count",
    "prefix.hits": "count",
    "prefix.hit_ratio": "ratio",
    "prefix.steps_skipped": "count",
    "prefix.capture_calls": "count",
    "prefix.capture_s": "s",
    "prefix.restore_calls": "count",
    "prefix.restore_s": "s",
    "store.appends": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.bytes": "bytes",
    "store.warm_reproduce_s": "s",
    "pool.warm_init_s": "s",
    "pool.batches": "count",
    "pool.worker_busy_s": "s",
    "pool.parent_wait_s": "s",
    "pool.utilization": "ratio",
    "record.calls": "count",
    "record.s": "s",
    "record.events": "count",
    "record.us_per_event": "us",
    "record.entries": "count",
    "sketchlog.encode_s": "s",
    "reproducer.sessions": "count",
    "reproducer.fixed_ms": "ms",
    "reproducer.reproduced_ratio": "ratio",
    "full_replay.calls": "count",
    "full_replay.s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _program_side(sessions: List[Any]) -> Dict[str, float]:
    """Sums over the program's own counters, gauges and spans."""
    out = {
        "batches": 0, "store.appends": 0, "store.hits": 0,
        "store.misses": 0, "warm_init_s": 0.0, "prefix_depth": 0.0,
        "frontier_peak": 0, "worker_busy_s": 0.0, "parent_wait_s": 0.0,
        "batch_s_x_jobs": 0.0, "fixed_s": 0.0,
    }
    for session in sessions:
        for n, obs in enumerate(session.obs):
            snap = obs.metrics.snapshot()
            counters, gauges = snap["counters"], snap["gauges"]
            for name in ("batches", "store.appends", "store.hits",
                         "store.misses"):
                out[name] += counters.get(name, 0)
            out["warm_init_s"] += gauges.get("parallel.warm_init_s", 0.0)
            out["frontier_peak"] = max(
                out["frontier_peak"], gauges.get("frontier_peak", 0)
            )
            depth = snap["histograms"].get("parallel.prefix_depth")
            out["prefix_depth"] += depth["sum"] if depth else 0.0
            batch = parent_attempts = 0.0
            for span in obs.tracer.spans:
                seconds = span.duration_us / 1e6
                if span.track != 0:
                    if span.name == "attempt":
                        out["worker_busy_s"] += seconds
                elif span.name == "batch":
                    batch += seconds
                elif span.name == "attempt":
                    parent_attempts += seconds
            if batch:
                out["parent_wait_s"] += batch - parent_attempts
                out["batch_s_x_jobs"] += batch * gauges.get("jobs", 1)
            if n == 0:
                # the session's (cold) reproduce() minus its attempts
                out["fixed_s"] += session.reproduce_s - parent_attempts
    return out


def per_layer(log: Any, setup_spans: int, untraced: List[Any],
              traced: List[Any], slowdown: float) -> Dict[str, float]:
    """Layer figures of the traced phase (wall seconds; the host is not
    probed while tracing), except two that compare with the untraced
    passes: ``store.warm_reproduce_s`` (the median session's mean warm
    pass, untraced, in reference-speed seconds) and
    ``trace.overhead_pct`` (mean traced pass against mean untraced
    pass)."""
    n_passes = len(traced)
    in_setup = log.totals(0, setup_spans)
    in_passes = log.totals(setup_spans, len(log.start))
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}

    def layer(name: str, key: str) -> float:
        return in_passes.get(name, zero)[key] / n_passes

    sessions = [s for p in traced for s in p.sessions]
    reports = [s.report for s in sessions]
    attempts = sum(r.attempts for r in reports)
    diverged = sum(
        1 for r in reports for a in r.records if a.outcome == "diverged"
    )
    program = _program_side(sessions)
    native = in_setup.get(layers.SIM_NATIVE, zero)
    store_hits, store_misses = program["store.hits"], program["store.misses"]
    warm = [
        statistics.mean(column) / slowdown for column in
        zip(*([s.warm_s for s in p.sessions] for p in untraced))
    ]
    recordings = traced[0].recordings
    untraced_s = statistics.mean(p.timed_s for p in untraced)
    traced_s = statistics.mean(p.timed_s for p in traced)

    metrics = {
        "sim.steps": layer(layers.SIM_RUN, "work"),
        "sim.run_s": layer(layers.SIM_RUN, "self_s"),
        "sim.runnable_calls": layer(layers.RUNNABLE, "calls"),
        "sim.runnable_s": layer(layers.RUNNABLE, "s"),
        "sim.native_us_per_step": _ratio(native["s"], native["work"], 1e6),
        "pir.pick_calls": layer(layers.PICK, "calls"),
        "pir.pick_s": layer(layers.PICK, "s"),
        "feedback.mine_calls": layer(layers.MINE, "calls"),
        "feedback.mine_s": layer(layers.MINE, "s"),
        "feedback.events_swept": layer(layers.MINE, "work"),
        "feedback.candidates": (
            log.counts.get("feedback.candidates", 0) / n_passes
        ),
        "feedback.fingerprint_calls": layer(layers.FINGERPRINT, "calls"),
        "feedback.fingerprint_s": layer(layers.FINGERPRINT, "s"),
        "explore.attempts": attempts / n_passes,
        "explore.duplicate_ratio": _ratio(
            sum(r.duplicate_traces for r in reports), attempts
        ),
        "explore.diverged_ratio": _ratio(diverged, attempts),
        "explore.frontier_peak": program["frontier_peak"],
        "prefix.hits": sum(r.prefix_hits for r in reports) / n_passes,
        "prefix.steps_skipped": program["prefix_depth"] / n_passes,
        "prefix.capture_calls": layer(layers.CAPTURE, "calls"),
        "prefix.capture_s": layer(layers.CAPTURE, "s"),
        "prefix.restore_calls": layer(layers.RESTORE, "calls"),
        "prefix.restore_s": layer(layers.RESTORE, "s"),
        "store.appends": program["store.appends"] / n_passes,
        "store.hits": store_hits / n_passes,
        "store.misses": store_misses / n_passes,
        "store.hit_ratio": _ratio(store_hits, store_hits + store_misses),
        "store.put_s": layer(layers.STORE_PUT, "s"),
        "store.get_s": layer(layers.STORE_GET, "s"),
        "store.bytes": sum(s.store_bytes for s in sessions) / n_passes,
        "store.warm_reproduce_s": statistics.median(warm),
        "pool.warm_init_s": program["warm_init_s"] / n_passes,
        "pool.batches": program["batches"] / n_passes,
        "pool.worker_busy_s": program["worker_busy_s"] / n_passes,
        "pool.parent_wait_s": program["parent_wait_s"] / n_passes,
        "pool.utilization": _ratio(
            program["worker_busy_s"], program["batch_s_x_jobs"]
        ),
        "record.calls": layer(layers.RECORD, "calls"),
        "record.s": layer(layers.RECORD, "s"),
        "record.events": recordings.events,
        "record.entries": recordings.entries,
        "sketchlog.encode_s": layer(layers.ENCODE, "s"),
        "reproducer.sessions": len(sessions) / n_passes,
        "reproducer.fixed_ms": _ratio(program["fixed_s"], len(sessions), 1e3),
        "reproducer.reproduced_ratio": _ratio(
            sum(1 for s in sessions if s.reproduced), len(sessions)
        ),
        "full_replay.calls": layer(layers.FULL_REPLAY, "calls"),
        "full_replay.s": layer(layers.FULL_REPLAY, "s"),
        "trace.overhead_pct": _ratio(traced_s - untraced_s, untraced_s, 100.0),
    }
    metrics["sim.us_per_step"] = _ratio(
        metrics["sim.run_s"], metrics["sim.steps"], 1e6
    )
    metrics["pir.us_per_pick"] = _ratio(
        metrics["pir.pick_s"], metrics["pir.pick_calls"], 1e6
    )
    metrics["feedback.us_per_event"] = _ratio(
        metrics["feedback.mine_s"], metrics["feedback.events_swept"], 1e6
    )
    metrics["prefix.hit_ratio"] = _ratio(metrics["prefix.hits"], attempts / n_passes)
    metrics["record.us_per_event"] = _ratio(
        metrics["record.s"], metrics["record.events"], 1e6
    )
    return {name: metrics[name] for name in PER_LAYER}
