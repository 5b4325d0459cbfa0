"""Worker supervision for parallel exploration.

PRES turns diagnosis into *many replay attempts*, and the parallel
engine (:mod:`repro.core.parallel`) ships those attempts to a process
pool.  Pools fail in the real world: a worker segfaults or is OOM-killed
(`BrokenProcessPool`), an attempt wedges on a pathological schedule, the
whole pool dies repeatedly on a poisoned host.  Before this module, any
of those lost the entire exploration and all partial progress.

:class:`Supervisor` wraps batch evaluation with the discipline rr and
iReplayer apply to their recorded process trees:

* **attempt deadlines** — a per-attempt wall-clock timeout
  (:attr:`SuperviseConfig.attempt_timeout`) turns a hung worker into a
  retryable failure instead of an eternal wait;
* **worker-death detection** — ``BrokenExecutor`` (and any other
  transport error) is caught, charged, and retried;
* **bounded retry with deterministic backoff** — each failed dispatch is
  retried up to :attr:`SuperviseConfig.max_retries` times with an
  exponential, *seed-free* backoff; a global retry budget (sized from
  ``max_attempts``) bounds total supervision work;
* **pool rebuild and serial fallback** — a broken pool is rebuilt up to
  :attr:`SuperviseConfig.pool_failure_limit` times, then the supervisor
  degrades to in-process execution for the rest of the session;
* **a deterministic escape hatch** — whenever retries are exhausted (or
  no pool exists), the attempt runs in-process via the injected
  ``inline`` callable.  Attempts are pure functions of
  ``(sketch log, constraints, seed)``, so every one of these paths
  changes only *where* an outcome is computed, never *what* it is: the
  final report is byte-identical to a fault-free run.

The supervisor is deliberately decoupled from the exploration engine: it
receives ``pool_factory`` / ``dispatch`` / ``inline`` callables instead
of importing :mod:`repro.core.parallel` (which imports *this* module),
and the same indirection makes it unit-testable against stub pools.

Chaos injection (:class:`~repro.robust.inject.ChaosInjector`) plugs in
here: fault verdicts are computed parent-side from content-derived keys
at dispatch time, so an injected crash or hang exercises exactly the
retry machinery above — deterministically, at any ``jobs`` value.

This is the one module allowed to consult monotonic clocks in
retry/deadline logic; the ``retry-clock`` rule in
``tools/lint_determinism.py`` flags such reads anywhere else.  See
``docs/resilience.md`` for the full model.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.session import NULL_SESSION, ObsSession

__all__ = [
    "SuperviseConfig",
    "Supervisor",
    "backoff_delay",
    "default_retry_budget",
]


@dataclass(frozen=True)
class SuperviseConfig:
    """Supervision knobs for one exploration session.

    The defaults are safe for healthy environments: no deadline, a small
    bounded retry, and at most two pool rebuilds before degrading to
    serial execution.
    """

    #: per-attempt wall-clock deadline in seconds; ``0`` disables hang
    #: detection (an attempt may block its slot forever).  Deadlines
    #: apply to *pooled* attempts — an in-process attempt cannot be
    #: preempted portably (see ``docs/resilience.md``).
    attempt_timeout: float = 0.0
    #: failed dispatches of one attempt before it falls back to
    #: deterministic in-process execution.
    max_retries: int = 2
    #: first retry delay in seconds; retry *n* sleeps
    #: ``backoff_base * backoff_factor ** (n - 1)``.
    backoff_base: float = 0.02
    #: multiplier between consecutive retry delays.
    backoff_factor: float = 2.0
    #: global cap on retries across the whole session.  ``None`` sizes
    #: the budget from the exploration's ``max_attempts`` (see
    #: :func:`default_retry_budget`).  The budget bounds *supervision*
    #: work only — it never consumes exploration attempts, or fault
    #: injection would change the report.
    retry_budget: Optional[int] = None
    #: pool rebuilds tolerated before degrading to serial execution.
    pool_failure_limit: int = 2


def backoff_delay(config: SuperviseConfig, tries: int) -> float:
    """Seconds to sleep before retry number ``tries`` (1-based).

    Purely a function of the config — no jitter, no clock reads — so a
    retried session is as reproducible as an unretried one.
    """
    if tries <= 0 or config.backoff_base <= 0:
        return 0.0
    return config.backoff_base * (config.backoff_factor ** (tries - 1))


def default_retry_budget(max_attempts: int) -> int:
    """The session retry budget implied by an attempt budget.

    Two retries per exploration attempt (floored at 8 so tiny budgets
    still tolerate a flaky worker) — "charged against ``max_attempts``"
    in the sense that it *scales with* the attempt budget, while never
    consuming exploration attempts themselves.
    """
    return max(8, 2 * max_attempts)


class _Fault:
    """A failed (or chaos-injected) dispatch slot awaiting retry."""

    __slots__ = ("kind", "chaos")

    def __init__(self, kind: str, chaos: bool) -> None:
        self.kind = kind  # "crash" | "hang"
        self.chaos = chaos


#: slot value meaning "no pool: resolve this task in-process".
_INLINE = None

#: one batch task as the engine assembles it: ``(constraints, seed,
#: cached, *extras)``.  Extras (the engine's per-task mine flag and
#: prefix-resume plan) are passed through to ``dispatch``/``inline``
#: untouched; three-element tasks carry none.
Task = Tuple[Any, ...]


class Supervisor:
    """Fault-tolerant batch evaluation over an expendable worker pool.

    :param config: retry/deadline/rebuild policy.
    :param obs: observability session; supervision charges the
        ``supervise.*`` counter family and ``category="supervise"``
        tracer events.  These describe the *environment* (which faults
        happened to occur), so they are exempt from the jobs-invariance
        contract ordinary exploration counters obey — in a fault-free
        run they are all zero.
    :param pool_factory: zero-argument callable building a fresh worker
        pool, or returning ``None`` when pooling is unavailable (the
        supervisor then runs everything through ``inline``).
    :param dispatch: ``(pool, constraints, seed, *extras) -> Future``
        submitting one attempt to a pool.  ``extras`` are the task
        elements beyond the first three, forwarded verbatim on every
        (re)dispatch.
    :param inline: ``(constraints, seed, *extras) -> outcome``
        evaluating one attempt in-process — the deterministic escape
        hatch every supervision path bottoms out in.
    :param max_attempts: the exploration attempt budget, used to size
        the default retry budget.
    :param chaos: optional :class:`~repro.robust.inject.ChaosInjector`.
    :param chaos_material: ``(constraints, seed) -> str`` producing the
        content key chaos verdicts hash — must not depend on dispatch
        order or worker identity, or injection would not be
        jobs-invariant.
    :param store_root: attempt-store root directory for chaos shard
        corruption, when a persistent cache is attached.
    """

    def __init__(
        self,
        config: Optional[SuperviseConfig] = None,
        obs: Optional[ObsSession] = None,
        pool_factory: Optional[Callable[[], Any]] = None,
        dispatch: Optional[Callable[..., Any]] = None,
        inline: Optional[Callable[..., Any]] = None,
        max_attempts: int = 0,
        chaos: Optional[Any] = None,
        chaos_material: Optional[Callable[[Any, int], str]] = None,
        store_root: Optional[str] = None,
    ) -> None:
        self.config = config or SuperviseConfig()
        self.obs = obs or NULL_SESSION
        self._pool_factory = pool_factory or (lambda: None)
        self._dispatch = dispatch
        self._inline = inline
        self.chaos = chaos
        self._chaos_material = chaos_material or (
            lambda constraints, seed: repr((seed, sorted(map(repr, constraints))))
        )
        self.store_root = store_root
        self.retry_budget = (
            self.config.retry_budget
            if self.config.retry_budget is not None
            else default_retry_budget(max_attempts)
        )
        #: session-wide retry counter, compared against the budget.
        self.retries_charged = 0
        #: pool rebuilds performed so far.
        self.rebuilds = 0
        #: once True, no pool is (re)built; everything runs in-process.
        self.serial = False
        self.pool: Optional[Any] = None
        self._pool_started = False
        self._batch_index = 0
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def shutdown(self, wait: bool = False) -> None:
        """Tear the pool down; with ``wait=True``, join every worker.

        Idempotent.  The interrupt path calls this with ``wait=True`` so
        a Ctrl-C never leaves zombie workers behind; after shutdown the
        supervisor stays serial (no pool is rebuilt).
        """
        self._closed = True
        self.serial = True
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def _ensure_pool(self) -> Optional[Any]:
        if self.serial:
            return None
        if not self._pool_started:
            self._pool_started = True
            self.pool = self._pool_factory()
            if self.pool is None:
                # Pooling unavailable (jobs<=1, unpicklable session, no
                # fork): permanent inline mode, not a supervision event.
                self.serial = True
        return self.pool

    # -- batch evaluation ------------------------------------------------

    def evaluate_batch(self, tasks: Sequence[Task]) -> List[Any]:
        """Evaluate one batch, returning outcomes in pop order.

        Preserves the engine's deterministic merge semantics exactly:
        outcomes come back in task order, the walk stops at the first
        matched outcome, and later in-flight futures are cancelled.
        Every fault along the way is absorbed here.
        """
        self._chaos_tick()
        pool = self._ensure_pool()
        if pool is None:
            return self._evaluate_inline(tasks)
        return self._evaluate_pooled(tasks)

    def _evaluate_inline(self, tasks: Sequence[Task]) -> List[Any]:
        outcomes: List[Any] = []
        for constraints, seed, cached, *extras in tasks:
            if cached is not None:
                outcome = cached
            else:
                # Chaos faults are simulated (charged + retried) even
                # in-process, so injection accounting is jobs-invariant.
                self._simulate_chaos(constraints, seed)
                outcome = self._inline(constraints, seed, *extras)
            outcomes.append(outcome)
            if outcome.matched:
                break
        return outcomes

    def _evaluate_pooled(self, tasks: Sequence[Task]) -> List[Any]:
        slots: Dict[int, Any] = {}
        for index, (constraints, seed, cached, *extras) in enumerate(tasks):
            if cached is None:
                slots[index] = self._submit(constraints, seed, tries=0, extras=extras)
        outcomes: List[Any] = []
        matched_at: Optional[int] = None
        for index, (constraints, seed, cached, *_extras) in enumerate(tasks):
            if matched_at is not None:
                slot = slots.get(index)
                if isinstance(slot, Future):
                    slot.cancel()
                continue
            if cached is not None:
                outcome = cached
            else:
                outcome = self._resolve(index, tasks, slots)
            outcomes.append(outcome)
            if outcome.matched:
                matched_at = index
        return outcomes

    def _submit(
        self,
        constraints: Any,
        seed: int,
        tries: int,
        extras: Sequence[Any] = (),
    ) -> Any:
        """Dispatch one attempt, or return the slot's fate as a sentinel.

        Chaos verdicts are consulted *here*, keyed by attempt content and
        try index — so whether a given dispatch is sabotaged is fixed
        before any worker races, at any ``jobs`` value.
        """
        if self.chaos is not None:
            kind = self.chaos.verdict(self._chaos_material(constraints, seed), tries)
            if kind is not None:
                return _Fault(kind, chaos=True)
        if self.pool is None:
            return _INLINE
        try:
            return self._dispatch(self.pool, constraints, seed, *extras)
        except Exception:  # broken/shut-down pool at submit time
            return _Fault("crash", chaos=False)

    def _resolve(
        self, index: int, tasks: Sequence[Task], slots: Dict[int, Any]
    ) -> Any:
        """Drive one slot to an outcome, absorbing faults along the way."""
        constraints, seed, _cached, *extras = tasks[index]
        tries = 0
        slot = slots.pop(index, _INLINE)
        while slot is not _INLINE:
            if isinstance(slot, _Fault):
                fault = slot
            else:
                timeout = self.config.attempt_timeout or None
                try:
                    return slot.result(timeout=timeout)
                except FuturesTimeout:
                    slot.cancel()
                    fault = _Fault("hang", chaos=False)
                except BrokenExecutor:
                    fault = _Fault("crash", chaos=False)
                    self._pool_broken(tasks, slots, skip=index)
                except Exception:
                    # A genuine error raised *by the attempt itself* —
                    # re-raise it deterministically from the in-process
                    # path rather than retrying a doomed computation.
                    break
            self._charge_fault(fault, seed, len(constraints))
            tries += 1
            if self.pool is None or not self._take_retry(tries):
                self._charge_inline_fallback(seed)
                break
            time.sleep(backoff_delay(self.config, tries))
            slot = self._submit(constraints, seed, tries, extras=extras)
        return self._inline(constraints, seed, *extras)

    def _pool_broken(
        self, tasks: Sequence[Task], slots: Dict[int, Any], skip: int
    ) -> None:
        """React to a dead pool: rebuild it (or go serial) and re-dispatch.

        Every *other* pending future died with the pool; they are
        resubmitted at try index 0 on the replacement pool (their chaos
        verdicts, already consulted, repeat identically), or marked for
        inline execution when no pool comes back.  ``skip`` is the slot
        whose own retry loop triggered the rebuild — it re-dispatches
        itself.

        A pool exposing ``discard_broken()`` (a borrowed
        :class:`~repro.core.parallel.PoolLease` view) is recycled
        through its owner instead of shut down directly — the lease
        invalidates the shared executor so every borrowing session
        rebuilds onto a fresh one.
        """
        pool, self.pool = self.pool, None
        if pool is not None:
            discard = getattr(pool, "discard_broken", None)
            if discard is not None:
                discard()
            else:
                pool.shutdown(wait=False, cancel_futures=True)
        self.rebuilds += 1
        if self.rebuilds > self.config.pool_failure_limit or self._closed:
            self.serial = True
            self.obs.metrics.counter("supervise.serial_fallbacks").inc()
            self.obs.tracer.instant(
                "serial-fallback", category="supervise", rebuilds=self.rebuilds
            )
        else:
            self.obs.metrics.counter("supervise.pool_rebuilds").inc()
            self.obs.tracer.instant(
                "pool-rebuild", category="supervise", rebuilds=self.rebuilds
            )
            self.pool = self._pool_factory()
            if self.pool is None:
                self.serial = True
        for other in sorted(slots):
            if other == skip:
                continue
            slot = slots[other]
            if isinstance(slot, _Fault) or slot is _INLINE:
                continue
            slot.cancel()
            if self.pool is None:
                slots[other] = _INLINE
            else:
                constraints, seed, _cached, *extras = tasks[other]
                slots[other] = self._submit(
                    constraints, seed, tries=0, extras=extras
                )

    # -- chaos -----------------------------------------------------------

    def _chaos_tick(self) -> None:
        """Batch-boundary chaos: maybe corrupt one attempt-store shard."""
        self._batch_index += 1
        if self.chaos is None or self.store_root is None:
            return
        path = self.chaos.corrupt_store(self.store_root, self._batch_index)
        if path is not None:
            self.obs.metrics.counter("supervise.chaos_corruptions").inc()
            self.obs.tracer.instant(
                "chaos-corrupt", category="supervise", path=path
            )

    def _simulate_chaos(self, constraints: Any, seed: int) -> None:
        """Walk the chaos verdicts for an in-process attempt.

        Charges the same fault/retry counters the pooled path would, so
        ``jobs=1`` and ``jobs=N`` report identical injection accounting.
        """
        if self.chaos is None:
            return
        material = self._chaos_material(constraints, seed)
        tries = 0
        while True:
            kind = self.chaos.verdict(material, tries)
            if kind is None:
                return
            self._charge_fault(_Fault(kind, chaos=True), seed, len(constraints))
            tries += 1
            if not self._take_retry(tries):
                self._charge_inline_fallback(seed)
                return
            time.sleep(backoff_delay(self.config, tries))

    # -- accounting ------------------------------------------------------

    def _charge_fault(self, fault: _Fault, seed: int, n_constraints: int) -> None:
        metrics = self.obs.metrics
        if fault.chaos:
            metrics.counter("supervise.chaos_injected").inc()
        if fault.kind == "hang":
            metrics.counter("supervise.timeouts").inc()
            self.obs.tracer.instant(
                "attempt-timeout", category="supervise",
                seed=seed, constraints=n_constraints, chaos=fault.chaos,
            )
        else:
            metrics.counter("supervise.worker_deaths").inc()
            self.obs.tracer.instant(
                "worker-death", category="supervise",
                seed=seed, constraints=n_constraints, chaos=fault.chaos,
            )

    def _take_retry(self, tries: int) -> bool:
        """Whether retry number ``tries`` may run; charges the budget."""
        if tries > self.config.max_retries:
            return False
        if self.retries_charged >= self.retry_budget:
            return False
        self.retries_charged += 1
        self.obs.metrics.counter("supervise.retries").inc()
        return True

    def _charge_inline_fallback(self, seed: int) -> None:
        self.obs.metrics.counter("supervise.inline_fallbacks").inc()
        self.obs.tracer.instant(
            "inline-fallback", category="supervise", seed=seed
        )
