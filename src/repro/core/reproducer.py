"""The top-level reproduction driver.

Ties everything together: given a :class:`~repro.core.recorder.RecordedRun`
whose production run failed, run replay attempts (each a fresh machine
under a :class:`~repro.core.pir.PIRScheduler`) until one re-triggers the
recorded failure, then package the winning schedule as a
:class:`~repro.core.full_replay.CompleteLog`.

The usual flow::

    recorded = record(program, sketch=SketchKind.SYNC, seed=failing_seed)
    report = reproduce(recorded)
    assert report.success and report.attempts <= 10
    trace = replay_complete(program, report.complete_log)   # every time
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.core.constraints import ConstraintSet
from repro.core.explorer import AttemptRecord, ExplorationResult, ExplorerConfig
from repro.core.epochs import EpochBoundary, EpochResumeBase, suffix_log
from repro.core.feedback import AttemptCache
from repro.core.full_replay import CompleteLog
from repro.core.parallel import ParallelExplorer, PoolLease
from repro.core.recorder import RecordedRun
from repro.core.sketches import SKETCH_ORDER, SketchKind
from repro.core.sketchlog import derive_coarser
from repro.errors import SimUsageError
from repro.obs.session import ObsSession, resolve_session
from repro.robust.supervise import SuperviseConfig

if TYPE_CHECKING:  # avoid core -> sanitize/analysis imports at runtime
    from repro.analysis.static_.model import StaticPlan
    from repro.sanitize.plan import ReplayPlan


@dataclass
class DegradationRung:
    """One rung of the degradation ladder: a sketch level that was tried."""

    sketch: SketchKind
    attempts: int
    success: bool
    entries: int
    reason: str = ""

    def describe(self) -> str:
        status = "reproduced" if self.success else "failed"
        tail = f" ({self.reason})" if self.reason else ""
        return (
            f"{self.sketch.value}: {status} after {self.attempts} "
            f"attempt(s), {self.entries} entries{tail}"
        )


@dataclass
class EpochRung:
    """One rung of the epoch walk: a replay base that was tried.

    ``epoch`` is the epoch index the base opens; ``step`` its boundary
    step.  The full-history fallback rung reports ``epoch=0, step=0``.
    """

    epoch: int
    step: int
    attempts: int
    success: bool
    entries: int
    reason: str = ""

    @property
    def full_history(self) -> bool:
        return self.step == 0

    def describe(self) -> str:
        status = "reproduced" if self.success else "failed"
        base = (
            "full history" if self.full_history
            else f"epoch {self.epoch} (step {self.step})"
        )
        tail = f" ({self.reason})" if self.reason else ""
        return (
            f"{base}: {status} after {self.attempts} attempt(s), "
            f"{self.entries} suffix entries{tail}"
        )


@dataclass
class ReproductionReport:
    """Outcome of one reproduction session.

    The salvage/degradation fields are populated by
    :func:`reproduce_degraded`; a plain :func:`reproduce` leaves them at
    their defaults.  They exist so a run against a damaged log ends in a
    *structured* answer — what was salvaged, which rung succeeded, why it
    stopped — instead of an unhandled traceback.
    """

    program_name: str
    sketch: SketchKind
    success: bool
    attempts: int
    records: List[AttemptRecord] = field(default_factory=list)
    complete_log: Optional[CompleteLog] = None
    winning_constraints: ConstraintSet = frozenset()
    total_replay_steps: int = 0
    duplicate_traces: int = 0
    #: attempts answered from the attempt cache instead of a fresh replay.
    cache_hits: int = 0
    #: attempts dispatched with a schedule-prefix resume plan (see
    #: :mod:`repro.core.prefix`).  Jobs-invariant: ``jobs=1`` resumes
    #: in-process exactly where a pool would.
    prefix_hits: int = 0
    #: attempts answered from an equivalent folded attempt instead of a
    #: replay (see :mod:`repro.core.footprint`).  Jobs-invariant.
    equivalent_skips: int = 0
    #: new executions left unmined because the attempt budget could
    #: never reach their children (see
    #: :class:`~repro.core.explorer.MiningHorizon`).  Jobs-invariant.
    mine_skips: int = 0
    #: entries available after salvage, when the log came from salvage
    #: (``None`` when the log was pristine).
    salvaged_entries: Optional[int] = None
    #: journal lines discarded by salvage.
    dropped_records: int = 0
    #: every rung the degradation ladder tried, in order.
    degradation_path: List[DegradationRung] = field(default_factory=list)
    #: every replay base the epoch walk tried, newest first (populated by
    #: :func:`reproduce_windowed`; empty for full-history sessions).
    epoch_path: List[EpochRung] = field(default_factory=list)
    #: the sketch level that finally reproduced the bug (success only).
    winning_sketch: Optional[SketchKind] = None
    #: structured explanation of the final outcome.
    outcome_reason: str = ""
    #: True when exploration was cut short by a KeyboardInterrupt; the
    #: report describes *partial* progress, not a verdict.
    interrupted: bool = False

    @property
    def degraded(self) -> bool:
        """Whether success came from a coarser rung than was recorded."""
        return (
            self.winning_sketch is not None and self.winning_sketch is not self.sketch
        )

    def describe(self) -> str:
        """One-line outcome summary for logs and the CLI."""
        if self.interrupted:
            status = f"INTERRUPTED after {self.attempts} attempt(s)"
        elif self.success:
            status = f"reproduced in {self.attempts} attempt(s)"
        else:
            status = f"NOT reproduced within {self.attempts} attempts"
        extras = []
        if self.degraded:
            extras.append(f"degraded to {self.winning_sketch.value}")
        if self.salvaged_entries is not None:
            extras.append(f"salvaged {self.salvaged_entries} entries")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return (
            f"{self.program_name} [{self.sketch.value} sketch]: {status}, "
            f"{self.total_replay_steps} replay steps, "
            f"{len(self.winning_constraints)} feedback constraints{suffix}"
        )


def render_report(report: ReproductionReport) -> str:
    """The canonical multi-line report text, ending in one newline.

    This is the *byte-exact* contract surface shared by the CLI
    (``pres reproduce``, which prints it, and ``--report-out``, which
    writes it) and the reproduction service (``GET /jobs/{id}/result``
    returns it): the summary line followed by one line per attempt.
    Anything that should be comparable across transports belongs here;
    anything environment-specific (store hit ratios, timings, rungs)
    stays out.
    """
    lines = [report.describe()]
    for attempt in report.records:
        lines.append(
            f"  attempt {attempt.index}: {attempt.outcome} "
            f"(constraints={attempt.n_constraints}, seed={attempt.base_seed})"
        )
    return "\n".join(lines) + "\n"


class Reproducer:
    """Runs replay attempts against one recorded run."""

    def __init__(
        self,
        recorded: RecordedRun,
        config: Optional[ExplorerConfig] = None,
        use_feedback: bool = True,
        base_policy: str = "random",
        match_output: bool = False,
        cache: Optional[AttemptCache] = None,
        obs: Optional[ObsSession] = None,
        plan: Optional["ReplayPlan"] = None,
        static_plan: Optional["StaticPlan"] = None,
        supervise: Optional["SuperviseConfig"] = None,
        chaos: object = None,
        pool: Optional[PoolLease] = None,
        epoch_base: Optional[EpochResumeBase] = None,
    ) -> None:
        if recorded.failure is None:
            raise SimUsageError(
                "the recorded run did not fail; there is nothing to reproduce"
            )
        self.recorded = recorded
        self.config = config or ExplorerConfig()
        self.plan = plan
        if plan is not None:
            self.config = dataclasses.replace(
                self.config, plan_seeds=plan.seeds_for(recorded.sketch)
            )
        self.static_plan = static_plan
        if static_plan is not None:
            self.config = dataclasses.replace(
                self.config,
                static_seeds=static_plan.seeds_for(recorded.sketch),
            )
        self.obs = resolve_session(self.config, obs)
        self.base_policy = base_policy
        #: ODR-style strictness: besides re-triggering the failure, the
        #: attempt must reproduce the production run's observable output.
        self.match_output = match_output
        #: the one exploration engine; at jobs=1 it runs in-process in
        #: batches of one (see :mod:`repro.core.parallel`).
        self.explorer = ParallelExplorer(
            recorded,
            self.config,
            base_policy=base_policy,
            match_output=match_output,
            use_feedback=use_feedback,
            cache=cache,
            obs=self.obs,
            supervise=supervise,
            chaos=chaos,
            pool=pool,
            epoch_base=epoch_base,
        )

    def run(self) -> ReproductionReport:
        """Run the exploration loop and package the outcome."""
        metrics = self.obs.metrics
        charges = []
        if self.plan is not None:
            plan = self.plan
            charges += [
                ("sanitize.races_predicted", plan.races),
                ("sanitize.deadlocks_predicted", plan.deadlocks),
                ("sanitize.atomicity_predicted", plan.violations),
                ("sanitize.plan_candidates", plan.candidates),
                ("sanitize.plan_applicable", self.config.plan_seeds),
            ]
        if self.static_plan is not None:
            plan = self.static_plan
            charges += [
                ("sanitize.static.races", plan.races),
                ("sanitize.static.atomicity", plan.violations),
                ("sanitize.static.deadlocks", plan.deadlocks),
                ("sanitize.static.candidates", plan.candidates),
                ("sanitize.static.applicable", self.config.static_seeds),
            ]
        for name, items in charges:
            metrics.counter(name).inc(len(items))
        with self.obs.tracer.span(
            "reproduce", category="session",
            program=self.recorded.program.name,
            sketch=self.recorded.sketch.value,
        ):
            result = self.explorer.explore()
        report = self._package(result)
        metrics.counter("reproductions").inc()
        if report.success:
            metrics.counter("reproductions_succeeded").inc()
            metrics.histogram("attempts_to_match").observe(report.attempts)
        return report

    # -- packaging ------------------------------------------------------------

    def _package(self, result: ExplorationResult) -> ReproductionReport:
        complete_log = None
        if result.success and result.winning_trace is not None:
            complete_log = CompleteLog(
                program_name=self.recorded.program.name,
                schedule=list(result.winning_trace.schedule),
                config=self.recorded.config,
                failure_signature=self.recorded.failure.signature(),
            )
        return ReproductionReport(
            program_name=self.recorded.program.name,
            sketch=self.recorded.sketch,
            success=result.success,
            attempts=result.attempt_count,
            records=result.attempts,
            complete_log=complete_log,
            winning_constraints=result.winning_constraints,
            total_replay_steps=result.total_steps,
            duplicate_traces=result.duplicate_traces,
            cache_hits=result.cache_hits,
            prefix_hits=result.prefix_hits,
            equivalent_skips=result.equivalent_skips,
            mine_skips=result.mine_skips,
            interrupted=result.interrupted,
            outcome_reason=(
                _interrupted_reason(result.attempt_count)
                if result.interrupted else ""
            ),
        )


def _interrupted_reason(attempts: int) -> str:
    return f"interrupted after {attempts} attempt(s); partial results only"


def _with_jobs(config: Optional[ExplorerConfig], jobs: Optional[int]) -> ExplorerConfig:
    """``config`` (or the default) with ``jobs`` applied when given."""
    config = config or ExplorerConfig()
    return config if jobs is None else dataclasses.replace(config, jobs=jobs)


def _resolve_store(store: object, cache: Optional[AttemptCache]) -> Tuple[
    Optional[AttemptCache], Optional[AttemptCache]
]:
    """Turn a ``store=`` argument into the cache to use.

    A store (a directory path or an open
    :class:`~repro.store.attempt_store.AttemptStore`) becomes a
    write-through persistent cache.  Returns ``(cache, close_after)``:
    ``close_after`` is the persistent tier this call created and must
    close on the way out (``None`` when the caller supplied the cache,
    or no store was requested).
    """
    if store is None:
        return cache, None
    if cache is not None:
        raise SimUsageError(
            "pass either cache= or store=, not both (wrap the store in a "
            "PersistentAttemptCache to share it with an explicit cache)"
        )
    # Imported lazily: repro.store builds on this module.
    from repro.store.persistent import PersistentAttemptCache

    created = PersistentAttemptCache(store)
    return created, created


def reproduce(
    recorded: RecordedRun,
    config: Optional[ExplorerConfig] = None,
    use_feedback: bool = True,
    base_policy: str = "random",
    match_output: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[AttemptCache] = None,
    store: object = None,
    obs: Optional[ObsSession] = None,
    plan: Optional["ReplayPlan"] = None,
    static_plan: Optional["StaticPlan"] = None,
    supervise: Optional[SuperviseConfig] = None,
    chaos: object = None,
    run: object = None,
    pool: Optional[PoolLease] = None,
) -> ReproductionReport:
    """Reproduce a recorded failure; see :class:`Reproducer`.

    :param base_policy: how unconstrained choices are made within an
        attempt — ``"random"`` (uniform) or ``"pct"`` (PCT priorities,
        the stronger stress baseline for the E9 ablation).
    :param match_output: ODR-style strictness — the attempt must also
        reproduce the production run's captured output exactly, not just
        its failure.  Typically needs more attempts.
    :param jobs: replay workers (overrides ``config.jobs``).  Results are
        identical for every value; >1 dispatches attempt batches to a
        process pool (:class:`~repro.core.parallel.ParallelExplorer`).
    :param cache: optional shared :class:`AttemptCache`; memoized attempt
        outcomes are folded in without re-running the replay.
    :param store: optional cross-run attempt store — a store directory
        path or an open :class:`~repro.store.attempt_store.AttemptStore`.
        Outcomes are written through to it and a warm store answers
        attempts without live replays; the reported schedule and winner
        are identical with the store cold, warm, or partially populated.
        Mutually exclusive with ``cache``.
    :param obs: optional :class:`~repro.obs.session.ObsSession` to record
        spans and metrics into; defaults to the ``config.trace`` /
        ``config.metrics`` knobs (off = zero cost).
    :param plan: optional sanitizer :class:`~repro.sanitize.plan.ReplayPlan`;
        its candidates applicable at ``recorded.sketch`` seed the first
        attempts (after the baseline empty attempt).
    :param static_plan: optional
        :class:`~repro.analysis.static_.model.StaticPlan` from
        ``analyze_program`` — candidates mined from program *structure*
        with no recording.  They seed at ``TIER_STATIC``, after every
        dynamic plan seed (dynamic evidence dominates static
        approximation), and any that duplicate a dynamic seed are
        dropped.  This is the sketchless-guidance path: with a NONE
        sketch and no dynamic plan, static candidates are all the
        search has beyond blind stress.
    :param supervise: optional
        :class:`~repro.robust.supervise.SuperviseConfig` — attempt
        deadlines, retry/backoff on worker death, pool rebuild limits.
        Supervision never changes the report, only how faults on the way
        to it are absorbed.
    :param chaos: optional fault injection (a ``--chaos`` spec string, a
        :class:`~repro.robust.inject.ChaosSpec`, or a
        :class:`~repro.robust.inject.ChaosInjector`); deterministic given
        the spec seed, and report-preserving by the same argument.
    :param run: optional resumable-run journal
        (:class:`~repro.robust.runs.RunJournalCache`): decided attempts
        are journaled as they fold, an interrupted run can be resumed,
        and the journal is committed when the report completes.  Layers
        *over* ``cache``/``store`` (they become its inner tier).
    :param pool: optional shared :class:`~repro.core.parallel.PoolLease`
        — borrow a host-owned warm worker pool instead of building a
        private one (the reproduction service lends one pool to every
        concurrent job).  Identical results either way.
    """
    config = _with_jobs(config, jobs)
    cache, close_after = _resolve_store(store, cache)
    if run is not None:
        if cache is not None:
            run.attach_inner(cache)
        cache = run
    try:
        report = Reproducer(
            recorded, config=config, use_feedback=use_feedback,
            base_policy=base_policy, match_output=match_output, cache=cache,
            obs=obs, plan=plan, static_plan=static_plan,
            supervise=supervise, chaos=chaos, pool=pool,
        ).run()
        if run is not None and not report.interrupted:
            run.commit(report)
        return report
    finally:
        if run is not None:
            run.close()
        if close_after is not None:
            close_after.close()


# -- the rung walk -------------------------------------------------------------


@dataclass(frozen=True)
class _Rung:
    """One rung of a walk: the recorded run (carrying the rung's log) and
    the epoch base to search from, plus how the report names the rung.
    The walk assigns its budget and seed offset."""

    recorded: RecordedRun
    #: boundary snapshot to replay from; ``None`` replays from step 0.
    epoch_base: Optional[EpochResumeBase]
    #: builds the report's path entry from ``attempts=``, ``success=``,
    #: ``entries=`` and ``reason=``.
    entry: Callable[..., Any]
    #: tracer span around the rung's search.
    span: str
    #: the report's outcome reason when this rung reproduces.
    won: str


@dataclass(frozen=True)
class _Ladder:
    """Where one kind of walk files its path and charges its metrics."""

    path_field: str
    rung_counter: str
    budget_histogram: str = ""
    won_counter: str = ""


_DEGRADATION = _Ladder(
    "degradation_path", "ladder_rungs", budget_histogram="rung_budget"
)
_EPOCHS = _Ladder("epoch_path", "epoch.rungs", won_counter="epoch.reproduced")


def split_rung_budgets(total: int, rungs: int) -> List[int]:
    """Split an attempt budget across ladder rungs without losing any.

    ``total // rungs`` alone silently drops the remainder (budget 7 over
    5 rungs used to run only 5 attempts); the remainder goes to the
    *first* rungs — the finest sketch, or the newest epoch boundary,
    where extra attempts are likeliest to pay off.  Rungs can receive 0
    when the budget is smaller than the ladder; the walk skips those.
    """
    if rungs <= 0:
        return []
    base, remainder = divmod(max(0, total), rungs)
    return [base + (1 if index < remainder else 0) for index in range(rungs)]


def _walk(
    recorded: RecordedRun,
    rungs: Sequence[_Rung],
    ladder: _Ladder,
    exhausted: Callable[[List[Any], int], str],
    *,
    config: ExplorerConfig,
    session: ObsSession,
    cache: Optional[AttemptCache],
    seed_backoff: int,
    **engine: Any,
) -> ReproductionReport:
    """Search ``rungs`` in order until one reproduces or is interrupted.

    The one rung walk behind both ladders, and a pure function of its
    inputs: ``config.max_attempts`` splits exactly across the rungs, the
    base seed backs off by ``seed_backoff`` per rung index, and every
    rung shares one attempt cache (``cache``, or a fresh one), so a
    re-walk replays nothing it has already learned.  The rungs' reports
    merge into one (records in walk order; steps, duplicates, prefix
    hits, equivalent skips and mine skips summed) that names
    ``recorded``'s sketch.  ``exhausted(path, attempts)`` words the
    outcome when no rung reproduces; ``engine`` holds the
    :class:`Reproducer` keywords every rung shares.
    """
    metrics = session.metrics
    budgets = split_rung_budgets(config.max_attempts, len(rungs))
    shared_cache = cache if cache is not None else AttemptCache()
    path: List[Any] = []
    records: List[AttemptRecord] = []
    steps = duplicates = prefix_hits = equivalent_skips = mine_skips = 0
    last: Optional[ReproductionReport] = None
    for index, (rung, budget) in enumerate(zip(rungs, budgets)):
        if budget <= 0:
            continue
        metrics.counter(ladder.rung_counter).inc()
        if ladder.budget_histogram:
            metrics.histogram(ladder.budget_histogram).observe(budget)
        entries = len(rung.recorded.log)
        rung_config = dataclasses.replace(
            config,
            max_attempts=budget,
            base_seed=config.base_seed + index * seed_backoff,
        )
        with session.tracer.span(
            rung.span, category="ladder", budget=budget, entries=entries
        ):
            last = Reproducer(
                rung.recorded, config=rung_config, cache=shared_cache,
                obs=session, epoch_base=rung.epoch_base, **engine,
            ).run()
        records.extend(last.records)
        steps += last.total_replay_steps
        duplicates += last.duplicate_traces
        prefix_hits += last.prefix_hits
        equivalent_skips += last.equivalent_skips
        mine_skips += last.mine_skips
        path.append(
            rung.entry(
                attempts=last.attempts,
                success=last.success,
                entries=entries,
                reason="" if last.success else _rung_failure_reason(last),
            )
        )
        if last.success or last.interrupted:
            # Ctrl-C mid-rung stops the walk with partial progress
            # instead of burning the remaining rungs' budgets.
            break
    won = last is not None and last.success
    interrupted = last is not None and last.interrupted
    if won:
        if ladder.won_counter:
            metrics.counter(ladder.won_counter).inc()
        reason = rung.won
    elif interrupted:
        reason = _interrupted_reason(len(records))
    else:
        reason = exhausted(path, len(records))
    return ReproductionReport(
        program_name=recorded.program.name,
        sketch=recorded.sketch,
        success=won,
        attempts=len(records),
        records=records,
        complete_log=last.complete_log if won else None,
        winning_constraints=last.winning_constraints if won else frozenset(),
        total_replay_steps=steps,
        duplicate_traces=duplicates,
        cache_hits=shared_cache.hits,
        prefix_hits=prefix_hits,
        equivalent_skips=equivalent_skips,
        mine_skips=mine_skips,
        winning_sketch=rung.recorded.sketch if won else None,
        outcome_reason=reason,
        interrupted=interrupted,
        **{ladder.path_field: path},
    )


def _rung_failure_reason(report: ReproductionReport) -> str:
    """Summarize why one rung failed, from its attempt outcomes."""
    outcomes: dict = {}
    for record in report.records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
    summary = ", ".join(f"{count}x {name}" for name, count in sorted(outcomes.items()))
    return summary or "no attempts ran"


# -- epoch-windowed reproduction ---------------------------------------------


def epoch_replay_ladder(recorded: RecordedRun) -> List[Optional[EpochBoundary]]:
    """The replay bases an epoch walk tries, newest boundary first.

    ``None`` marks the full-history rung (replay from step 0 with the
    whole retained log).  It is only reachable when nothing was
    truncated: with entries dropped off the front, the oldest retained
    boundary *is* the horizon — the window was too tight for anything
    older, and the walk must say so instead of replaying a log that no
    longer matches step 0.
    """
    timeline = recorded.epochs
    if timeline is None:
        return [None]
    ladder: List[Optional[EpochBoundary]] = list(timeline.replay_bases())
    if timeline.truncated_entries == 0 and timeline.truncated_epochs == 0:
        ladder.append(None)
    return ladder or [None]


def _epoch_rung(recorded: RecordedRun, boundary: Optional[EpochBoundary]) -> _Rung:
    """The rung replaying ``recorded`` from ``boundary`` (``None``: step 0)."""
    if boundary is None:
        return _Rung(
            recorded=recorded,
            epoch_base=None,
            entry=partial(EpochRung, 0, 0),
            span="epoch rung full-history",
            won="reproduced from the full history",
        )
    log = suffix_log(
        recorded.log, recorded.epochs, boundary,
        program_name=recorded.program.name, seed=recorded.seed,
    )
    return _Rung(
        recorded=dataclasses.replace(recorded, log=log),
        epoch_base=EpochResumeBase(
            state=boundary.snapshot, step=boundary.step, epoch=boundary.epoch
        ),
        entry=partial(EpochRung, boundary.epoch, boundary.step),
        span=f"epoch rung epoch {boundary.epoch}",
        won=(
            f"reproduced from the epoch {boundary.epoch} boundary "
            f"(step {boundary.step})"
        ),
    )


def reproduce_windowed(
    recorded: RecordedRun,
    config: Optional[ExplorerConfig] = None,
    use_feedback: bool = True,
    base_policy: str = "random",
    match_output: bool = False,
    seed_backoff: int = 101,
    jobs: Optional[int] = None,
    cache: Optional[AttemptCache] = None,
    store: object = None,
    obs: Optional[ObsSession] = None,
    supervise: Optional[SuperviseConfig] = None,
    chaos: object = None,
) -> ReproductionReport:
    """Reproduce an epoch-windowed recording by last-epoch in-situ replay.

    Instead of re-simulating from step 0, each rung restores one
    boundary snapshot (newest healthy boundary first) and searches only
    the epoch-local suffix of the sketch; older boundaries widen the
    search window, and the full-history rung runs last — but only when
    the window truncated nothing, the ladder's fallback rule.  The walk
    is a pure function of its inputs: budgets split exactly across rungs
    (remainder to the newest — the PRES bet is that the bug lives in the
    last epoch) and the base seed backs off deterministically per rung,
    so reports are byte-identical across ``jobs`` and across window
    sizes that cover the reproducing epoch.

    A recording without an epoch timeline falls back to plain
    :func:`reproduce` untouched.

    With a ``store``, attempt entries persisted under boundaries that
    have since been dropped from the window are expired before the walk
    (see :meth:`~repro.store.attempt_store.AttemptStore.expire_epochs`).
    """
    timeline = recorded.epochs
    if timeline is None:
        return reproduce(
            recorded, config=config, use_feedback=use_feedback,
            base_policy=base_policy, match_output=match_output, jobs=jobs,
            cache=cache, store=store, obs=obs, supervise=supervise,
            chaos=chaos,
        )
    base_config = _with_jobs(config, jobs)
    session = resolve_session(base_config, obs)
    cache, close_after = _resolve_store(store, cache)
    try:
        rungs = [
            _epoch_rung(recorded, boundary)
            for boundary in epoch_replay_ladder(recorded)
        ]
        _expire_dropped_epochs(
            cache, recorded, [rung.recorded.log for rung in rungs], session
        )
        session.metrics.counter("epoch.replay_bases").inc(len(rungs))
        truncated = timeline.truncated_epochs > 0 or timeline.truncated_entries > 0
        tail = (
            "; the epoch window was too tight to reach full history "
            f"({timeline.truncated_epochs} truncated epoch(s) are unreachable)"
            if truncated else ""
        )
        return _walk(
            recorded, rungs, _EPOCHS,
            lambda path, attempts: (
                f"exhausted the epoch ladder within {attempts} total "
                f"attempt(s){tail}"
            ),
            config=base_config, session=session, cache=cache,
            seed_backoff=seed_backoff, use_feedback=use_feedback,
            base_policy=base_policy, match_output=match_output,
            supervise=supervise, chaos=chaos,
        )
    finally:
        if close_after is not None:
            close_after.close()


def _expire_dropped_epochs(
    cache: Optional[AttemptCache],
    recorded: RecordedRun,
    rung_logs: List["object"],
    session: ObsSession,
) -> None:
    """Expire store entries persisted under no-longer-live epoch bases.

    Only fires when the cache is store-backed: the live set is the
    fingerprints of this timeline's replay-base suffix logs (plus the
    retained full log); registered epoch entries outside it belong to
    boundaries the rolling window has dropped and can never be looked up
    again.
    """
    store = getattr(cache, "store", None)
    if store is None or not hasattr(store, "expire_epochs"):
        return
    tags = {}
    for log in rung_logs:
        if getattr(log, "base_tag", ""):
            tags[log.fingerprint()] = {
                "program": recorded.program.name,
                "seed": recorded.seed,
                "base": log.base_tag,
            }
    live = {log.fingerprint() for log in rung_logs}
    store.register_epoch_fingerprints(tags)
    report = store.expire_epochs(live)
    if report.expired:
        session.metrics.counter("store.epochs_expired").inc(len(report.expired))


# -- graceful degradation ----------------------------------------------------


def degradation_ladder(start: SketchKind) -> List[SketchKind]:
    """The rungs tried, finest first: start, then coarser down to SYNC.

    A damaged or salvaged-partial sketch may be un-followable at its
    recorded fidelity (attempts keep diverging on the torn tail), but
    because mechanisms are cumulative, a coarser projection of the same
    prefix constrains *less* and therefore diverges less — at the price
    of more attempts, which is PRES's home turf anyway.
    """
    rungs = [s for s in reversed(SKETCH_ORDER) if SketchKind.NONE.level < s.level <= start.level]
    return rungs or [SketchKind.SYNC]


def reproduce_degraded(
    recorded: RecordedRun,
    config: Optional[ExplorerConfig] = None,
    use_feedback: bool = True,
    base_policy: str = "random",
    match_output: bool = False,
    salvaged_entries: Optional[int] = None,
    dropped_records: int = 0,
    seed_backoff: int = 101,
    jobs: Optional[int] = None,
    cache: Optional[AttemptCache] = None,
    store: object = None,
    obs: Optional[ObsSession] = None,
    plan: Optional["ReplayPlan"] = None,
    static_plan: Optional["StaticPlan"] = None,
    supervise: Optional[SuperviseConfig] = None,
    chaos: object = None,
) -> ReproductionReport:
    """Reproduce with graceful degradation over the sketch ladder.

    Walks ``recorded.sketch`` → ... → SYNC, deriving each coarser sketch
    from the (possibly salvaged) log, splitting the attempt budget across
    rungs (exactly — remainders go to the finest rungs) and backing the
    base seed off deterministically per rung
    (``base_seed + rung_index * seed_backoff``), so the whole session is
    still a pure function of its inputs.  Always returns a structured
    :class:`ReproductionReport`; neither ``SketchFormatError`` nor
    ``ReplayDivergence`` can escape (divergences are already absorbed per
    attempt by the machine/explorer).

    Each rung's log is derived from the previous (finer) rung's — the
    mechanisms are cumulative, so chained projection is equivalent to
    projecting from the original log but touches ever-shrinking entry
    lists; :func:`derive_coarser` additionally memoizes per source log.

    :param salvaged_entries: entry count recovered by salvage, recorded
        on the report for the bug ticket (``None`` = log was pristine).
    :param dropped_records: journal lines salvage had to discard.
    :param jobs: replay workers per rung (overrides ``config.jobs``).
    :param cache: shared :class:`AttemptCache` for all rungs (one is
        created when ``None``), so a re-walk of the ladder replays
        nothing it has already learned.
    :param store: optional cross-run attempt store (a directory path or
        an open :class:`~repro.store.attempt_store.AttemptStore`); every
        rung shares the one persistent tier, so a crashed or re-run
        ladder walk resumes warm from whatever earlier rungs persisted.
        Mutually exclusive with ``cache``.
    :param obs: optional :class:`~repro.obs.session.ObsSession` shared by
        every rung, so the exported timeline shows the whole ladder walk;
        defaults to the ``config.trace`` / ``config.metrics`` knobs.
    :param plan: optional sanitizer plan; each rung seeds the candidates
        applicable at *its* sketch level, so a plan built from a rich log
        keeps helping as the ladder coarsens.
    :param static_plan: optional static plan (see :func:`reproduce`);
        each rung re-filters its candidates at that rung's sketch level,
        still behind any dynamic plan seeds.
    :param supervise: optional supervision policy, shared by every rung
        (see :func:`reproduce`).
    :param chaos: optional fault injection, shared by every rung.
    """
    base_config = _with_jobs(config, jobs)
    rungs: List[_Rung] = []
    log = recorded.log
    for sketch in degradation_ladder(recorded.sketch):
        log = derive_coarser(log, sketch)
        rungs.append(
            _Rung(
                recorded=dataclasses.replace(recorded, sketch=sketch, log=log),
                epoch_base=None,
                entry=partial(DegradationRung, sketch),
                span=f"rung {sketch.value}",
                won=f"reproduced at the {sketch.value} rung" + (
                    "" if sketch is recorded.sketch
                    else f" (degraded from {recorded.sketch.value})"
                ),
            )
        )
    cache, close_after = _resolve_store(store, cache)
    try:
        report = _walk(
            recorded, rungs, _DEGRADATION,
            lambda path, attempts: (
                "exhausted the degradation ladder "
                f"({' -> '.join(rung.sketch.value for rung in path)}) "
                f"within {attempts} total attempt(s)"
            ),
            config=base_config, session=resolve_session(base_config, obs),
            cache=cache, seed_backoff=seed_backoff,
            use_feedback=use_feedback, base_policy=base_policy,
            match_output=match_output, plan=plan, static_plan=static_plan,
            supervise=supervise, chaos=chaos,
        )
    finally:
        if close_after is not None:
            close_after.close()
    return dataclasses.replace(
        report, salvaged_entries=salvaged_entries, dropped_records=dropped_records
    )
