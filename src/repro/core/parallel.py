"""The replay-attempt exploration engine.

The paper's pitch is that PRES trades a cheap sketch for *more replay
attempts* — which makes attempt throughput, not single-replay latency,
the number that matters at diagnosis time.  Every attempt is a pure
function of ``(sketch log, constraint set, base seed)``, so attempts are
embarrassingly parallel: :class:`ParallelExplorer` pops *batches* of
frontier candidates and evaluates them in-process (``jobs=1``, where
batches hold one candidate) or on a ``ProcessPoolExecutor`` of replay
workers, each of which reconstructs the machine + PIR scheduler from a
pickled :class:`~repro.core.recorder.RecordedRun` and sends back a
compact :class:`AttemptOutcome` (never the full trace).  It is the only
search loop: :class:`~repro.core.reproducer.Reproducer` builds it for
every session, with or without feedback.

Deterministic merge semantics
-----------------------------

Parallelism must not change *what* is explored, or the published attempt
counts would depend on core count.  The engine guarantees that by being
batch-synchronous:

1. A batch of up to ``batch_size`` candidates is popped from the frontier
   in canonical best-first order (see :class:`~repro.core.explorer.Frontier`).
2. The batch is evaluated — concurrently or not; each attempt is pure, so
   worker scheduling cannot affect any outcome.
3. Outcomes are folded back **in pop order**: records are appended, the
   first matched outcome (in pop order, not completion order) wins, and
   mined candidates re-enter the frontier in that same order.

Consequently the exploration schedule depends only on ``batch_size``,
never on ``jobs``: ``jobs=1`` and ``jobs=64`` report the same winning
schedule and the same attempt count.  At ``batch_size=1`` the schedule
is the one the retired serial explorer walked; its report signatures are
frozen in ``tests/fixtures/serial_signatures.json`` and the engine is
held to them at ``jobs=1`` and ``jobs=2``.

Mining happens at most once per new execution, and only where the
attempt budget can still reach the children.  An attempt evaluated in
this process comes back unmined (``candidates=None``) with its trace
kept until the fold, and the fold mines it only if its fingerprint is
new and its tier is not closed (see
:class:`~repro.core.explorer.MiningHorizon`); a duplicate's candidates
would be discarded anyway, and a closed tier's could never be popped.
Pool workers cannot see fold order, so they mine every attempt whose
tier was still open when it was popped.  Every attempt with a mined
parent may resume from that parent's
prefix snapshot, and its race sweep from the parent's sweep checkpoint
at the same rung (see :mod:`repro.core.prefix`) — in-process at
``jobs=1`` as in the workers.

Early cancellation: once a batch's canonical-first match is known, every
later future in the batch is cancelled and no further batches are
dispatched — their results could never be reported anyway.

The attempt cache (:class:`~repro.core.feedback.AttemptCache`) sits in
front of dispatch: a (constraints, seed) pair whose outcome is already
memoized cannot produce a new interleaving, so it is folded straight from
the cache without burning a worker.  Behind it, an attempt that provably
repeats a folded one — its constraint set adds one constraint that the
folded run's gate footprint shows could never bind — is folded from that
outcome the same way (see :mod:`repro.core.footprint`).

Fault tolerance is delegated to a :class:`~repro.robust.supervise.Supervisor`,
which owns the pool: attempt deadlines, retry/backoff on worker death,
pool rebuilds, serial fallback, and (optional) chaos injection all live
there.  Attempts are pure, so supervision can only change *where* an
outcome is computed — the exploration schedule and the final report stay
byte-identical under injected faults (see ``docs/resilience.md``).  A
``KeyboardInterrupt`` mid-exploration shuts the pool down cleanly
(workers joined, no zombies) and returns the partial result with
``interrupted=True`` instead of propagating a traceback.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.core import shm
from repro.core.constraints import ConstraintSet, canonical_order
from repro.core.epochs import EpochResumeBase
from repro.core.explorer import (
    AttemptRecord,
    ExplorationResult,
    ExplorerConfig,
    Frontier,
    MiningHorizon,
    _classify,
    plan_candidates,
    static_candidates,
)
from repro.core.feedback import (
    TIER_ROOT,
    AttemptCache,
    Candidate,
    FeedbackDB,
    FeedbackGenerator,
    trace_fingerprint,
)
from repro.core.footprint import GateFootprint, PackedFootprint
from repro.core.pir import PIRScheduler
from repro.core.prefix import (
    PrefixTree,
    ResumePlan,
    attempt_rungs,
    capture_hooks,
    resume_depth,
    resume_machine,
)
from repro.core.recorder import RecordedRun, apply_oracle
from repro.obs.session import ObsSession, resolve_session
from repro.obs.tracer import NULL_TRACER, PARENT_TRACK, SpanRecord, Tracer
from repro.robust.inject import ChaosInjector, ChaosSpec, parse_chaos
from repro.robust.supervise import Supervisor, SuperviseConfig
from repro.sim.machine import Machine
from repro.sim.trace import Trace

_EMPTY: ConstraintSet = frozenset()


@dataclass
class AttemptContext:
    """Everything a replay worker needs to run attempts for one session.

    Pickled once per pool (via the worker initializer), not per task —
    tasks themselves are just ``(constraints, seed)`` pairs.
    """

    recorded: RecordedRun
    base_policy: str = "random"
    match_output: bool = False
    max_candidates_per_attempt: int = 24
    max_constraint_depth: int = 8
    #: canonical-order memo so each distinct constraint set is sorted
    #: once per session, not once per replay.
    sorted_cache: Dict[ConstraintSet, Tuple] = field(default_factory=dict)
    #: bound on the memo above — a long ladder walk over a large
    #: frontier sees an unbounded stream of distinct constraint sets, so
    #: without a cap the memo is a slow leak.  Eviction is oldest-first
    #: (dict insertion order, schedule-deterministic) and can only cost
    #: a re-sort, never change its result.  ``0`` disables the bound.
    sorted_cache_limit: int = 4096
    #: record per-attempt spans inside :func:`evaluate_attempt` (in the
    #: worker process, when pooled) and ship them on the outcome.
    trace_attempts: bool = False
    #: the parent tracer's monotonic-clock epoch, so worker spans land on
    #: the parent timeline directly (see :mod:`repro.obs.tracer`).
    trace_epoch: float = 0.0
    #: epoch replay base: restore this boundary snapshot instead of
    #: re-simulating from step 0 (``recorded.log`` is then the
    #: epoch-local suffix).  Serialized snapshots pickle with the rest
    #: of the context, so pool workers restore it like the parent does.
    epoch_base: Optional[EpochResumeBase] = None

    def ordered(self, constraints: ConstraintSet) -> Tuple:
        """The canonical ordering of ``constraints``, memoized per session."""
        cached = self.sorted_cache.get(constraints)
        if cached is None:
            cached = canonical_order(constraints)
            if (
                self.sorted_cache_limit > 0
                and len(self.sorted_cache) >= self.sorted_cache_limit
            ):
                del self.sorted_cache[next(iter(self.sorted_cache))]
            self.sorted_cache[constraints] = cached
        return cached

    def attempt_tracer(self) -> Tracer:
        """A tracer for one attempt evaluation (null when tracing is off)."""
        if not self.trace_attempts:
            return NULL_TRACER
        return Tracer(enabled=True, epoch=self.trace_epoch)


@dataclass(frozen=True)
class AttemptOutcome:
    """What one replay attempt produced, compact enough to pickle back.

    The full trace stays in the worker; the parent only needs the
    classification, a stable execution fingerprint for dedup, the mined
    next-attempt candidates, and (for matches) the winning schedule.
    """

    constraints: ConstraintSet
    seed: int
    outcome: str
    detail: str
    steps: int
    matched: bool
    #: :func:`~repro.core.feedback.trace_fingerprint` of the attempt;
    #: empty for a matched attempt, which the search never dedups.
    fingerprint: str
    #: None for a failed attempt not mined (yet): the feedback search
    #: mines it at fold time if its execution turns out to be new and
    #: its tier open.
    candidates: Optional[Tuple[Candidate, ...]] = ()
    schedule: Optional[Tuple[int, ...]] = None
    #: spans recorded while evaluating this attempt (tracing only);
    #: stamped with the recording pid so the parent can assign worker
    #: lanes deterministically at fold time.  Stripped before caching.
    spans: Tuple[SpanRecord, ...] = ()
    #: the attempt's gate footprint, which lets the engine answer
    #: attempts equivalent to this one without running them (see
    #: :mod:`repro.core.footprint`).  Never stored: stripped before
    #: caching, like ``spans``.
    footprint: Optional[Union[GateFootprint, PackedFootprint]] = field(
        default=None, compare=False
    )


#: one batch task: ``(constraints, seed, cached, mine, resume)``.  A
#: cached (or equivalent) outcome is folded without running; ``mine``
#: tells a pool worker whether the attempt's tier was open at pop time.
_Task = Tuple[
    ConstraintSet, int, Optional[AttemptOutcome], bool, Optional[ResumePlan]
]


def run_attempt(
    ctx: AttemptContext,
    constraints: ConstraintSet,
    seed: int,
    resume: Optional[ResumePlan] = None,
    tree: Optional[PrefixTree] = None,
) -> Tuple[Trace, bool]:
    """One replay attempt; the single source of attempt semantics.

    Shared by the in-process path and pool workers, so the two cannot
    drift.

    ``resume``/``tree`` opt into prefix memoization: the machine starts
    from a snapshot of the parent attempt inside the candidate's safe
    prefix instead of step 0, and the live run captures its own
    snapshots as it passes each ladder depth so future siblings can
    resume from *this* attempt.  Capturing is observation-only and
    resume failures of any kind fall back to a cold run — attempts are
    pure, so the trace is identical either way (property-tested in
    ``tests/core/test_prefix.py``).

    An unmatched trace carries the attempt's finished gate footprint as
    ``trace.footprint`` (see :mod:`repro.core.footprint`).
    """
    recorded = ctx.recorded
    machine = None
    scheduler: Optional[PIRScheduler] = None
    if resume is not None and tree is not None:
        resumed = resume_machine(ctx, constraints, seed, resume, tree)
        if resumed is not None:
            machine, scheduler = resumed
    if machine is None:
        scheduler = PIRScheduler(
            recorded.log,
            ctx.ordered(constraints),
            base_seed=seed,
            base_policy=ctx.base_policy,
        )
        machine = Machine(recorded.program, scheduler, recorded.config)
        if ctx.epoch_base is not None:
            # Last-epoch in-situ replay: restore the boundary snapshot
            # and search only the epoch-local suffix.  The restored
            # machine already holds the production prefix events, so the
            # scheduler primes its gate from them while its cursor walks
            # the suffix log from 0.
            ctx.epoch_base.restore_into(machine)
            scheduler.prime_restored(machine)
    if tree is not None:
        depths, on_snapshot = capture_hooks(constraints, seed, scheduler, tree)
        if machine.schedule:
            # resumed: rungs at or below the resume point were aliased
            # from the parent by resume_machine; only capture deeper ones
            start = len(machine.schedule)
            depths = tuple(d for d in depths if d > start)
        trace = machine.run(snapshot_depths=depths, on_snapshot=on_snapshot)
    else:
        trace = machine.run()
    failure = apply_oracle(trace, recorded.oracle)
    if failure is not None and trace.failure is None:
        trace.failure = failure
    matched = (
        not trace.diverged
        and failure is not None
        and recorded.failure.matches(failure)
    )
    if matched and ctx.match_output:
        matched = trace.stdout == recorded.stdout
    if not matched:
        trace.footprint = GateFootprint.of(scheduler.gate.counter)
    return trace, matched


def evaluate_attempt(
    ctx: AttemptContext,
    constraints: ConstraintSet,
    seed: int,
    mine: bool = True,
    resume: Optional[ResumePlan] = None,
    tree: Optional[PrefixTree] = None,
) -> AttemptOutcome:
    """Run one attempt and summarize it as a picklable outcome.

    This is the pool worker's entry point, and it mines eagerly unless
    told the attempt's tier is closed: a worker cannot see whether the
    fold will find the execution new, and the (potentially large) trace
    never crosses the process boundary.
    A matched attempt skips mining and fingerprinting — the search stops
    at it anyway — and carries the winning schedule instead.
    """
    return _evaluate(ctx, constraints, seed, mine, resume, tree)[0]


def mine_attempt(
    ctx: AttemptContext,
    trace: Trace,
    constraints: ConstraintSet,
    seed: int,
    tree: Optional[PrefixTree],
) -> Tuple[Candidate, ...]:
    """The next-attempt candidates mined from one failed attempt.

    With a ``tree``, the race sweep starts from the attempt's deepest
    rung that holds a sweep checkpoint and leaves checkpoints on its
    deeper rungs.
    """
    generator = FeedbackGenerator(
        sketch=ctx.recorded.sketch,
        max_candidates_per_attempt=ctx.max_candidates_per_attempt,
        max_constraint_depth=ctx.max_constraint_depth,
    )
    rungs = (
        attempt_rungs(tree, constraints, seed, trace.steps)
        if tree is not None else ()
    )
    return tuple(generator.candidates(trace, constraints, rungs))


def _evaluate(
    ctx: AttemptContext,
    constraints: ConstraintSet,
    seed: int,
    mine: bool,
    resume: Optional[ResumePlan],
    tree: Optional[PrefixTree],
) -> Tuple[AttemptOutcome, Trace]:
    """:func:`evaluate_attempt`, also returning the attempt's trace.

    Without ``mine``, a failed attempt comes back unmined
    (``candidates=None``).
    """
    tracer = ctx.attempt_tracer()
    attempt_span = tracer.span(
        "attempt", category="attempt", seed=seed, constraints=len(constraints)
    )
    with attempt_span:
        with tracer.span("replay", category="replay"):
            trace, matched = run_attempt(
                ctx, constraints, seed, resume=resume, tree=tree
            )
        outcome, detail = _classify(trace, matched)
        candidates: Optional[Tuple[Candidate, ...]] = ()
        schedule: Optional[Tuple[int, ...]] = None
        if matched:
            schedule = tuple(trace.schedule)
        elif mine:
            with tracer.span("mine", category="feedback"):
                candidates = mine_attempt(ctx, trace, constraints, seed, tree)
        else:
            candidates = None
        attempt_span.note(
            outcome=outcome, steps=trace.steps,
            candidates=len(candidates or ()),
        )
    summary = AttemptOutcome(
        constraints=constraints,
        seed=seed,
        outcome=outcome,
        detail=detail,
        steps=trace.steps,
        matched=matched,
        fingerprint="" if matched else trace_fingerprint(trace),
        candidates=candidates,
        schedule=schedule,
        spans=tuple(tracer.spans),
        footprint=getattr(trace, "footprint", None),
    )
    return summary, trace


# -- pool worker plumbing -----------------------------------------------------

#: Per-worker-process session cache, keyed by segment token: each entry
#: holds one session's AttemptContext (attached once from the shared
#: segment, unpickled once) and this worker's prefix-snapshot tree for
#: that session.  A *leased* pool serves many sessions over its
#: lifetime, so workers keep the most recent few warm instead of one.
_WORKER_SESSIONS: "OrderedDict[shm.SegmentToken, Dict[str, Any]]" = OrderedDict()

#: sessions a worker keeps warm before evicting the least recently used
#: one.  Eviction only costs a re-attach + re-unpickle (and cold prefix
#: snapshots); attempts are pure, so outcomes are unaffected.
_WORKER_SESSION_LIMIT = 4


def _worker_session(token: shm.SegmentToken) -> Dict[str, Any]:
    session = _WORKER_SESSIONS.get(token)
    if session is None:
        session = {
            "ctx": pickle.loads(shm.attach(token)),
            "tree": PrefixTree(),
        }
        while len(_WORKER_SESSIONS) >= _WORKER_SESSION_LIMIT:
            _WORKER_SESSIONS.popitem(last=False)
        _WORKER_SESSIONS[token] = session
    else:
        _WORKER_SESSIONS.move_to_end(token)
    return session


def _worker_init(token: shm.SegmentToken) -> None:
    """Pre-warm a session-owned pool's workers at fork time."""
    _worker_session(token)


def _worker_run(
    task: Tuple[shm.SegmentToken, ConstraintSet, int, bool, Optional[ResumePlan]]
) -> AttemptOutcome:
    token, constraints, seed, mine, resume = task
    session = _worker_session(token)
    return evaluate_attempt(
        session["ctx"],
        constraints,
        seed,
        mine=mine,
        resume=resume,
        tree=session["tree"],
    )


# -- pool lending -------------------------------------------------------------


class PoolLease:
    """An externally owned replay-worker pool shared across sessions.

    A long-lived host (the reproduction service) keeps one warm
    ``ProcessPoolExecutor`` and lends it to every
    :class:`ParallelExplorer` it runs: sessions dispatch tasks carrying
    their own segment token (workers keep a small per-session cache, see
    :data:`_WORKER_SESSIONS`), a session ending detaches without tearing
    the pool down, and only a broken-pool verdict — or :meth:`close` —
    recycles the executor.  Thread-safe: concurrent sessions may acquire
    and invalidate from different threads.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs)
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: executors built over this lease's lifetime (diagnostics).
        self.builds = 0

    def acquire(self) -> ProcessPoolExecutor:
        """The shared executor, built lazily on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool lease is closed")
            if self._pool is None:
                import multiprocessing

                mp_context = None
                if "fork" in multiprocessing.get_all_start_methods():
                    mp_context = multiprocessing.get_context("fork")
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=mp_context
                )
                self.builds += 1
            return self._pool

    def invalidate(self, pool: ProcessPoolExecutor) -> None:
        """Discard a broken executor so the next acquire rebuilds.

        Keyed on identity: if another session already replaced the
        executor, only the stale one is shut down.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self, wait: bool = True) -> None:
        """Shut the shared executor down for good (host shutdown path)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)


class _LeasedPool:
    """A session's borrowed view of a :class:`PoolLease` executor.

    Looks enough like a ``ProcessPoolExecutor`` for the supervisor:
    ``submit`` delegates; ``shutdown`` — the session-detach path — is a
    no-op because the lease owns the executor's lifecycle; a
    broken-pool verdict goes through :meth:`discard_broken`, which
    invalidates the shared executor for every session.
    """

    def __init__(self, lease: PoolLease, pool: ProcessPoolExecutor) -> None:
        self._lease = lease
        self._pool = pool

    def submit(self, fn, *args, **kwargs):
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = False, cancel_futures: bool = False) -> None:
        """Detach from the lease; the shared executor keeps running."""

    def discard_broken(self) -> None:
        self._lease.invalidate(self._pool)


class ParallelExplorer:
    """Batch-deterministic exploration, in-process or over a worker pool.

    The one search loop behind :class:`~repro.core.reproducer.Reproducer`.
    It owns its attempt execution (it may ship work to other processes,
    so it holds the :class:`AttemptContext` itself).

    :param use_feedback: with False, explores the predetermined seed
        sequence ``base_seed, base_seed + 1, ...`` with no constraints and
        no mining (the E5 ablation arm: the sketch is still enforced, but
        failed attempts teach nothing), still batched and cached.
    :param cache: optional shared :class:`AttemptCache`; hits are folded
        without dispatching a replay.
    :param supervise: retry/deadline/rebuild policy for the worker pool
        (:class:`~repro.robust.supervise.SuperviseConfig`); the default
        tolerates a couple of worker deaths per attempt and a couple of
        pool rebuilds per session.
    :param chaos: optional fault injection — a ``--chaos``-style spec
        string, a :class:`~repro.robust.inject.ChaosSpec`, or a built
        :class:`~repro.robust.inject.ChaosInjector`.
    :param pool: optional :class:`PoolLease` — a shared, externally
        owned worker pool to borrow instead of building (and tearing
        down) a private one.  Results are identical either way; the
        lease only changes where attempts are computed.
    """

    def __init__(
        self,
        recorded: RecordedRun,
        config: Optional[ExplorerConfig] = None,
        base_policy: str = "random",
        match_output: bool = False,
        use_feedback: bool = True,
        cache: Optional[AttemptCache] = None,
        obs: Optional[ObsSession] = None,
        supervise: Optional[SuperviseConfig] = None,
        chaos=None,
        pool: Optional[PoolLease] = None,
        epoch_base: Optional[EpochResumeBase] = None,
    ) -> None:
        self.config = config or ExplorerConfig()
        self.obs = resolve_session(self.config, obs)
        self.context = AttemptContext(
            recorded=recorded,
            base_policy=base_policy,
            match_output=match_output,
            max_candidates_per_attempt=self.config.max_candidates_per_attempt,
            max_constraint_depth=self.config.max_constraint_depth,
            trace_attempts=self.obs.tracer.enabled,
            trace_epoch=self.obs.tracer.epoch,
            epoch_base=epoch_base,
        )
        self.use_feedback = use_feedback
        self.cache = cache
        self.supervise = supervise or SuperviseConfig()
        if isinstance(chaos, str):
            chaos = parse_chaos(chaos)
        if isinstance(chaos, ChaosSpec):
            chaos = ChaosInjector(chaos) if chaos.active else None
        self.chaos: Optional[ChaosInjector] = chaos
        #: partial result captured so a KeyboardInterrupt can report it.
        self._partial: Optional[ExplorationResult] = None
        bind = getattr(cache, "bind_metrics", None)
        if bind is not None:
            # A persistent cache tier charges its store.* counters into
            # this session's registry (at get/put time, so they stay as
            # jobs-invariant as every other counter).
            bind(self.obs.metrics)
        self.db = FeedbackDB()
        #: why the process pool could not be used, if it could not.
        self.pool_disabled_reason: Optional[str] = None
        #: shared pool lease, when the host lends one (see :class:`PoolLease`).
        self.lease = pool
        #: this session's published segment token; set by :meth:`_make_pool`
        #: before any dispatch can happen (the supervisor builds the pool
        #: before submitting its first task).
        self._session_token: Optional[shm.SegmentToken] = None
        self._log_token = (
            recorded.sketch.value,
            len(recorded.log),
            recorded.log.fingerprint(),
        )
        # Worker lanes are assigned by first appearance *at fold time*,
        # which happens in pop order — so lane numbering is deterministic
        # even though OS pids are not.
        self._parent_pid = os.getpid()
        self._lanes: Dict[int, int] = {}
        #: constraint sets seeded from the sanitizer plan and from the
        #: static analyzer (feedback mode only), for the match
        #: attribution at fold time.
        self._plan_seeded: FrozenSet[ConstraintSet] = frozenset()
        self._static_seeded: FrozenSet[ConstraintSet] = frozenset()
        #: prefix snapshots for attempts evaluated in this process (the
        #: inline path and supervisor fallbacks); pool workers hold their
        #: own trees (see :func:`_worker_init`).
        self._prefix_tree = PrefixTree()
        #: traces of the current batch's attempts evaluated in this
        #: process that the fold may still need — unmined ones and a
        #: winner — keyed by ``(constraints, seed)``, so the fold mines
        #: or reports them without replaying them a second time.
        self._local_traces: Dict[Tuple[ConstraintSet, int], Trace] = {}
        #: resume plans issued at batch assembly — the logical, jobs-
        #: invariant count the report and metrics publish (which worker
        #: physically held the snapshot is invisible by design).
        self._prefix_hits = 0
        #: folded outcomes that carry a gate footprint, by ``(constraints,
        #: seed)``: the attempts :meth:`_equivalent` may answer others
        #: from.  Filled only at fold points, so every skip decision is a
        #: function of the exploration schedule, never of ``jobs``.
        self._footprinted: Dict[Tuple[ConstraintSet, int], AttemptOutcome] = {}
        #: the stream-id table every held footprint is packed against.
        self._streams: Dict[Tuple, int] = {}
        #: attempts answered by :meth:`_equivalent` (jobs-invariant).
        self._equivalent_skips = 0
        #: the feedback search's reachable-tier bookkeeping; None until
        #: :meth:`_explore_feedback` starts (the ablation never mines).
        self._horizon: Optional[MiningHorizon] = None
        #: depths of the plan and static seeds: the pre-seeded attempts
        #: :meth:`_equivalent` may still look up a closed tier's
        #: footprints for.
        self._seeded_depths: FrozenSet[int] = frozenset()
        #: new executions left unmined because their tier was closed.
        self._mine_skips = 0
        #: folded attempt-cost totals driving auto batch sizing; updated
        #: only at fold points, so they are jobs-invariant too.
        self._folded_attempts = 0
        self._folded_steps = 0

    # -- public API -----------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Frontier candidates dispatched per batch.

        The exploration schedule — and therefore every counter and
        histogram the engine charges — depends only on this value, never
        on ``jobs``.
        """
        configured = self.config.batch_size
        if configured > 0:
            return configured
        # Auto: jobs=1 runs batches of one (the frozen serial
        # schedule); pools speculate two batches per worker —
        # doubled when folded attempts measure as cheap, where dispatch
        # latency dominates and deeper speculation amortizes it.  The
        # tuning signal is virtual steps folded so far (never wall
        # clock), so the batch sequence is a deterministic function of
        # the exploration itself.
        if self.config.jobs <= 1:
            return 1
        base = 2 * self.config.jobs
        if (
            self._folded_attempts >= 8
            and self._folded_steps <= 200 * self._folded_attempts
        ):
            base *= 2
        return base

    def explore(self) -> ExplorationResult:
        """Run the batched search; identical results for any ``jobs``.

        Worker faults (and injected chaos) are absorbed by the
        supervisor; a ``KeyboardInterrupt`` shuts the pool down with its
        workers joined and returns the partial result, flagged
        ``interrupted``, instead of propagating.
        """
        self.obs.metrics.gauge("jobs").set(self.config.jobs)
        self.obs.metrics.gauge("batch_size").set(self.batch_size)
        self._charge_resumed()
        with self.obs.tracer.span(
            "explore", category="engine",
            jobs=self.config.jobs, batch_size=self.batch_size,
            feedback=self.use_feedback,
        ):
            supervisor = self._make_supervisor()
            try:
                if self.use_feedback:
                    result = self._explore_feedback(supervisor)
                else:
                    result = self._explore_random(supervisor)
            except KeyboardInterrupt:
                supervisor.shutdown(wait=True)
                result = self._partial or ExplorationResult(success=False)
                result.interrupted = True
                result.duplicate_traces = self.db.duplicate_traces
                if self.cache is not None:
                    result.cache_hits = self.cache.hits
                self.obs.metrics.counter("supervise.interrupted").inc()
                self.obs.tracer.instant("interrupted", category="supervise")
            finally:
                supervisor.shutdown(wait=False)
        self.obs.metrics.counter("duplicate_traces").inc(result.duplicate_traces)
        result.prefix_hits = self._prefix_hits
        result.equivalent_skips = self._equivalent_skips
        result.mine_skips = self._mine_skips
        return result

    # -- supervision ----------------------------------------------------

    def _make_supervisor(self) -> Supervisor:
        """The fault-absorbing executor for this session's batches.

        The supervisor is handed callables instead of this object, so it
        stays decoupled from the engine (and unit-testable with stub
        pools): ``dispatch`` ships one task to a pool worker, ``inline``
        is the deterministic in-process escape hatch.
        """
        return Supervisor(
            self.supervise,
            obs=self.obs,
            pool_factory=self._make_pool,
            dispatch=lambda pool, constraints, seed, mine, resume: (
                pool.submit(
                    _worker_run,
                    (self._session_token, constraints, seed, mine, resume),
                )
            ),
            inline=self._evaluate_here,
            max_attempts=self.config.max_attempts,
            chaos=self.chaos,
            # Chaos verdicts key on attempt *content* in canonical
            # constraint order — never dispatch order or pids — so
            # injection is jobs-invariant.
            chaos_material=lambda constraints, seed: (
                f"{seed}|{self.context.ordered(constraints)!r}"
            ),
            store_root=self._store_root(),
        )

    def _store_root(self) -> Optional[str]:
        """The attempt-store root behind the cache stack, if any.

        Walks at most one ``inner`` link (a run journal layered on a
        persistent tier) — the target of chaos shard corruption.
        """
        root = getattr(getattr(self.cache, "store", None), "root", None)
        if root is None:
            inner = getattr(self.cache, "inner", None)
            root = getattr(getattr(inner, "store", None), "root", None)
        return root

    def _charge_resumed(self) -> None:
        """Surface resumed-run preloads in the supervise metric family."""
        take = getattr(self.cache, "take_resumed", None)
        if take is None:
            return
        resumed = take()
        if resumed:
            self.obs.metrics.counter("supervise.resumed_attempts").inc(resumed)
            self.obs.tracer.instant(
                "resumed", category="supervise", attempts=resumed
            )

    # -- pool management ------------------------------------------------

    def _make_pool(self):
        if self.config.jobs <= 1 and self.lease is None:
            return None
        started = time.perf_counter()
        try:
            payload = pickle.dumps(self.context)
        except Exception as exc:  # unpicklable program/oracle: run inline
            return self._disable_pool(f"session is not picklable ({exc})")
        try:
            import multiprocessing

            # Publish the session snapshot once; workers attach to the
            # segment by name and unpickle on first use, so the context
            # bytes cross the executor pipe zero times.  The publish
            # registry dedups by content, so a supervisor rebuilding
            # this pool (or another arm over the same recording)
            # republishes nothing.
            token = shm.publish(payload)
            self._session_token = token
            if self.lease is not None:
                # Borrowed pool: workers attach lazily per session (the
                # lease's workers may predate this session), and the
                # session must not tear the executor down on its way out.
                pool = _LeasedPool(self.lease, self.lease.acquire())
            else:
                mp_context = None
                if "fork" in multiprocessing.get_all_start_methods():
                    # fork keeps worker hash seeds identical to the
                    # parent's and skips re-importing the world per worker.
                    mp_context = multiprocessing.get_context("fork")
                pool = ProcessPoolExecutor(
                    max_workers=self.config.jobs,
                    mp_context=mp_context,
                    initializer=_worker_init,
                    initargs=(token,),
                )
        except Exception as exc:  # no fork/spawn support in this env
            return self._disable_pool(f"process pool unavailable ({exc})")
        # Gauge, not counter: wall-clock warm-up cost is environment
        # data, exempt from the jobs-invariance contract.
        self.obs.metrics.gauge("parallel.warm_init_s").set(
            round(time.perf_counter() - started, 6)
        )
        return pool

    def _disable_pool(self, why: str) -> None:
        """Record why attempts run in-process; returns None (no pool)."""
        self.pool_disabled_reason = f"{why}; running attempts in-process"
        self.obs.tracer.instant(
            "pool-disabled", category="engine", reason=self.pool_disabled_reason
        )
        return None

    # -- batch evaluation ------------------------------------------------

    def _evaluate_here(
        self,
        constraints: ConstraintSet,
        seed: int,
        mine: bool,
        resume: Optional[ResumePlan] = None,
    ) -> AttemptOutcome:
        """Evaluate one attempt in this process, leaving mining to the fold.

        ``mine`` is ignored: the fold mines what the search needs.  The
        trace of an unmined outcome or a winner stays here until the
        fold takes it.
        """
        outcome, trace = _evaluate(
            self.context, constraints, seed, False, resume, self._prefix_tree
        )
        if outcome.matched or outcome.candidates is None:
            self._local_traces[(constraints, seed)] = trace
        return outcome

    def _evaluate_batch(
        self, supervisor: Supervisor, tasks: Sequence[_Task]
    ) -> List[AttemptOutcome]:
        """Evaluate one batch, returning outcomes in canonical pop order.

        Stops at the first matched outcome *in pop order*: later entries
        are cancelled (pool) or never run (inline), so the result list is
        identical however many workers raced on it.  Execution — pooled
        with retries, or in-process — is the supervisor's business.
        """
        self.obs.metrics.counter("batches").inc()
        self._local_traces.clear()  # the previous batch is folded
        with self.obs.tracer.span(
            "batch", category="explore", size=len(tasks),
            first_attempt=self._folded_attempts,
        ):
            return supervisor.evaluate_batch(tasks)

    def _cache_key(self, constraints: ConstraintSet, seed: int) -> Tuple:
        return AttemptCache.key_for(
            self._log_token,
            constraints,
            seed,
            self.context.base_policy,
            self.context.match_output,
        )

    def _cached(self, constraints: ConstraintSet, seed: int) -> Optional[AttemptOutcome]:
        if self.cache is None:
            return None
        # Lookups happen during batch assembly, in pop order, so these
        # counters are as schedule-deterministic as the search itself.
        outcome = self.cache.get(self._cache_key(constraints, seed))
        if outcome is not None:
            self.obs.metrics.counter("cache_hits").inc()
            self.obs.tracer.instant(
                "cache-hit", category="cache",
                seed=seed, constraints=len(constraints),
            )
        else:
            self.obs.metrics.counter("cache_misses").inc()
        return outcome

    def _remember(self, outcome: AttemptOutcome) -> None:
        if self.cache is not None:
            # Spans describe *this* run's wall clock; a future session
            # folding the cached outcome must not inherit them.
            self.cache.put(
                self._cache_key(outcome.constraints, outcome.seed),
                replace(outcome, spans=(), footprint=None),
            )

    def _resume_plan(self, candidate: Candidate) -> Optional[ResumePlan]:
        """A prefix-resume plan for one popped candidate, if one exists.

        Called during batch assembly, in pop order, on live (uncached)
        attempts only — the hit count is therefore a logical property of
        the exploration schedule, identical for every ``jobs`` value and
        for warm vs. cold pools, regardless of which process ends up
        holding (or rebuilding) the snapshot.
        """
        if candidate.flip is None:
            return None
        depth = resume_depth(candidate.parent_steps, candidate.safe_prefix)
        if depth <= 0:
            return None
        self._prefix_hits += 1
        self.obs.metrics.counter("parallel.prefix_hits").inc()
        self.obs.metrics.histogram("parallel.prefix_depth").observe(depth)
        return ResumePlan(
            flip=candidate.flip,
            depth=depth,
            parent_steps=candidate.parent_steps,
        )

    def _equivalent(
        self, constraints: ConstraintSet, seed: int
    ) -> Optional[AttemptOutcome]:
        """The outcome of ``(constraints, seed)``, known without running it.

        Answers when, for some ``x`` in ``constraints`` (canonical
        order), ``constraints - {x}`` was folded under the same seed and
        its gate footprint shows ``x`` never binding (see
        :mod:`repro.core.footprint`): the attempt then repeats that run
        pick for pick.  Called at batch assembly, in pop order, on
        uncached attempts only.  The answer keeps the source's footprint,
        which is this attempt's too, and is folded like a cache hit; its
        fingerprint is already known, so it is never mined.
        """
        held = self._footprinted
        if not held:
            return None
        for constraint in self.context.ordered(constraints):
            source = held.get((constraints - {constraint}, seed))
            if source is not None and source.footprint.never_blocks(constraint):
                self._equivalent_skips += 1
                self.obs.metrics.counter("parallel.equivalent_skips").inc()
                return replace(source, constraints=constraints)
        return None

    def _lane_for(self, pid: int) -> int:
        """The timeline lane for spans recorded by ``pid``.

        Parent-process spans stay on :data:`~repro.obs.tracer.PARENT_TRACK`;
        worker pids get 1-based lanes in first-appearance-at-fold order.
        """
        if pid == self._parent_pid:
            return PARENT_TRACK
        lane = self._lanes.get(pid)
        if lane is None:
            lane = len(self._lanes) + 1
            self._lanes[pid] = lane
        return lane

    # -- feedback-driven search ------------------------------------------

    def _explore_feedback(self, supervisor: Supervisor) -> ExplorationResult:
        result = ExplorationResult(success=False)
        self._partial = result
        config = self.config
        metrics = self.obs.metrics
        frontier = Frontier()
        horizon = self._horizon = MiningHorizon(config.max_attempts, self.db.tried)
        restarts_used = 0

        def push(candidate: Candidate, seed: int) -> None:
            frontier.push(candidate, seed)
            horizon.push(candidate, seed)

        self._seed(push)

        while result.attempt_count < config.max_attempts:
            # Assemble the next batch in canonical best-first order.
            batch: List[_Task] = []
            budget_left = config.max_attempts - result.attempt_count
            want = min(self.batch_size, budget_left)
            while len(batch) < want and frontier:
                constraints, seed, candidate = frontier.pop()
                if self.db.tried(constraints, seed):
                    continue
                self.db.mark_tried(constraints, seed)
                horizon.issue(constraints, seed)
                cached = self._cached(constraints, seed)
                if cached is None:
                    cached = self._equivalent(constraints, seed)
                resume = None if cached is not None else self._resume_plan(candidate)
                # closed now means closed at the fold: a worker need not mine
                mine = not horizon.closed(len(constraints))
                batch.append((constraints, seed, cached, mine, resume))
            if not batch:
                restarts_used += 1
                if restarts_used > config.seed_restarts:
                    break
                metrics.counter("seed_restarts").inc()
                push(
                    Candidate(_EMPTY, 0, 0, tier=TIER_ROOT),
                    config.base_seed + restarts_used,
                )
                continue

            outcomes = self._evaluate_batch(supervisor, batch)
            for outcome in outcomes:
                if result.attempt_count >= config.max_attempts:
                    break  # speculative overshoot: discard deterministically
                if self._fold(result, outcome, push):
                    return result
            metrics.gauge("frontier_peak").max(len(frontier))
        result.duplicate_traces = self.db.duplicate_traces
        return result

    def _seed(self, push) -> None:
        """Push the root candidate, then the config's plan and static seeds.

        Dynamic plan seeds go first; static seeds that duplicate a
        dynamic seed are dropped (the dynamic plan dominates).  The
        frontier routes the surviving statics to its interleave lane
        (see :class:`~repro.core.explorer.Frontier`).
        """
        config = self.config
        metrics = self.obs.metrics
        push(Candidate(_EMPTY, 0, 0, tier=TIER_ROOT), config.base_seed)
        plans = plan_candidates(config.plan_seeds)
        self._plan_seeded = frozenset(c.constraints for c in plans)
        statics = [
            c for c in static_candidates(config.static_seeds)
            if c.constraints not in self._plan_seeded
        ]
        self._static_seeded = frozenset(c.constraints for c in statics)
        self._seeded_depths = frozenset(
            len(c) for c in self._plan_seeded | self._static_seeded
        )
        for candidate in plans + statics:
            push(candidate, config.base_seed)
        if plans:
            metrics.counter("sanitize.plan_seeded").inc(len(plans))
        if statics:
            metrics.counter("sanitize.static.seeded").inc(len(statics))

    def _fold(self, result: ExplorationResult, outcome: AttemptOutcome, push) -> bool:
        """Merge one outcome into the running result; True when done.

        Called only in pop order, which is what makes counter and
        histogram snapshots ``jobs``-invariant for a fixed ``batch_size``.
        """
        metrics = self.obs.metrics
        record = AttemptRecord(
            index=result.attempt_count,
            base_seed=outcome.seed,
            n_constraints=len(outcome.constraints),
            outcome=outcome.outcome,
            steps=outcome.steps,
            detail=outcome.detail,
        )
        result.attempts.append(record)
        metrics.counter("attempts").inc()
        metrics.counter(f"attempts_{record.outcome}").inc()
        metrics.histogram("constraint_set_size").observe(record.n_constraints)
        metrics.histogram("attempt_steps").observe(record.steps)
        if record.outcome == "diverged":
            metrics.histogram("divergence_depth").observe(record.steps)
        self._folded_attempts += 1
        self._folded_steps += outcome.steps
        if outcome.spans:
            # All spans of one outcome were recorded by one process.
            self.obs.tracer.absorb(
                outcome.spans, self._lane_for(outcome.spans[0].pid)
            )
        if outcome.matched:
            self._remember(outcome)
            result.success = True
            result.winning_constraints = outcome.constraints
            result.winning_seed = outcome.seed
            # a pre-seeded win, rather than mined feedback, is attributed
            # to the sanitizer plan or the static analyzer
            winning = outcome.constraints
            if winning and winning in self._plan_seeded:
                metrics.counter("sanitize.plan_matched").inc()
            elif winning and winning in self._static_seeded:
                metrics.counter("sanitize.static.matched").inc()
            result.winning_trace = self._winning_trace(outcome)
            result.duplicate_traces = self.db.duplicate_traces
            if self.cache is not None:
                result.cache_hits = self.cache.hits
            return True
        new = self.db.record_fingerprint(outcome.fingerprint)
        depth = len(outcome.constraints)
        closed = self.use_feedback and self._horizon.closed(depth)
        if new and closed:
            # no child of this attempt can be popped: drop it unmined
            self._mine_skips += 1
            metrics.counter("parallel.mine_skips").inc()
            self._local_traces.pop((outcome.constraints, outcome.seed), None)
            outcome = replace(outcome, candidates=None)
        elif new and outcome.candidates is None and self.use_feedback:
            outcome = self._mine_at_fold(outcome)
        self._remember(outcome)
        if (
            outcome.footprint is not None
            and self.use_feedback
            and (not closed or depth + 1 in self._seeded_depths)
        ):
            # Only a popped attempt one constraint deeper looks this
            # footprint up (and only in the feedback search); in a
            # closed tier only a plan or static seed can still be one.
            # Held for the whole session, so packed and stripped of the
            # (possibly many) mined candidates.
            self._footprinted[(outcome.constraints, outcome.seed)] = replace(
                outcome, candidates=None, spans=(),
                footprint=outcome.footprint.pack(self._streams),
            )
        if new and not closed:
            candidates = outcome.candidates or ()
            metrics.counter("candidates_mined").inc(len(candidates))
            for candidate in candidates:
                push(candidate, outcome.seed)
        if self.cache is not None:
            result.cache_hits = self.cache.hits
        return False

    def _mine_at_fold(self, outcome: AttemptOutcome) -> AttemptOutcome:
        """``outcome`` with the candidates of its new execution mined.

        Called only for an open tier.  An attempt evaluated in this
        process left its trace behind.  An unmined outcome from the cache
        was stored by a search that had no use for its candidates — one
        without feedback, one that folded it as a duplicate (say, under
        another batch size), or one in which its tier was closed;
        attempts are pure, so re-running it in-process reconstructs its
        trace.
        """
        constraints, seed = outcome.constraints, outcome.seed
        trace = self._local_traces.pop((constraints, seed), None)
        if trace is None:
            with self.obs.tracer.span("remine", category="replay", seed=seed):
                trace, _ = run_attempt(
                    self.context, constraints, seed, tree=self._prefix_tree
                )
        with self.obs.tracer.span("mine", category="feedback"):
            candidates = mine_attempt(
                self.context, trace, constraints, seed, self._prefix_tree
            )
        return replace(outcome, candidates=candidates)

    def _winning_trace(self, outcome: AttemptOutcome) -> Trace:
        """The full trace of the matched ``outcome``.

        A winner evaluated in this process left its trace behind.  One
        from a pool worker or the store did not ship it; attempts are
        pure, so re-running the winner in-process reconstructs it.
        """
        local = self._local_traces.pop((outcome.constraints, outcome.seed), None)
        if local is not None:
            return local
        with self.obs.tracer.span(
            "rematerialize-winner", category="replay", seed=outcome.seed
        ):
            trace, matched = run_attempt(
                self.context, outcome.constraints, outcome.seed
            )
        assert matched, "winning attempt must re-match deterministically"
        return trace

    # -- feedback-free (ablation) search ----------------------------------

    def _explore_random(self, supervisor: Supervisor) -> ExplorationResult:
        result = ExplorationResult(success=False)
        self._partial = result
        config = self.config
        next_index = 0
        while next_index < config.max_attempts:
            size = min(self.batch_size, config.max_attempts - next_index)
            batch = []
            for offset in range(size):
                seed = config.base_seed + next_index + offset
                batch.append((_EMPTY, seed, self._cached(_EMPTY, seed), False, None))
            next_index += size
            for outcome in self._evaluate_batch(supervisor, batch):
                if self._fold(result, outcome, lambda *_: None):
                    return result
        return result
