"""Unit tests for the exploration supervisor.

The supervisor's contract (see ``docs/resilience.md``): deadlines,
retries, pool rebuilds, and serial fallback change *where* an attempt's
outcome is computed, never *what* it is — every failure path bottoms out
in the deterministic in-process evaluation of the same attempt.  These
tests drive the supervisor against stub pools whose failures are
scripted, so each path is exercised in isolation; the end-to-end chaos
equivalence lives in ``test_chaos.py``.
"""

from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass

from repro.obs.session import ObsSession
from repro.robust.supervise import (
    SuperviseConfig,
    Supervisor,
    backoff_delay,
    default_retry_budget,
)


@dataclass
class Outcome:
    matched: bool = False
    tag: str = ""


class StubFuture:
    """A future whose result is scripted: an outcome or an exception."""

    def __init__(self, outcome=None, error=None):
        self.outcome = outcome
        self.error = error
        self.cancelled = False

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.outcome

    def cancel(self):
        self.cancelled = True


class StubPool:
    def __init__(self):
        self.shutdowns = []

    def shutdown(self, wait=False, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


def _metrics_session():
    return ObsSession.create(trace=False, metrics=True)


def _counter(obs, name):
    return obs.metrics.counter(name).value


def _supervisor(config, obs, futures=None, pools=None, dispatch_log=None):
    """A supervisor over scripted stubs.

    ``futures`` is a mutable list popped per dispatch; ``pools`` likewise
    per factory call (defaulting to fresh StubPools forever).
    """
    pools = pools if pools is not None else []
    dispatch_log = dispatch_log if dispatch_log is not None else []

    def factory():
        return pools.pop(0) if pools else StubPool()

    def dispatch(pool, constraints, seed):
        dispatch_log.append((len(constraints), seed))
        return futures.pop(0)

    def inline(constraints, seed):
        return Outcome(matched=False, tag=f"inline:{seed}")

    return Supervisor(
        config=config,
        obs=obs,
        pool_factory=factory,
        dispatch=dispatch,
        inline=inline,
        max_attempts=20,
    )


class TestPolicyFunctions:
    def test_backoff_is_exponential_and_clock_free(self):
        config = SuperviseConfig(backoff_base=0.02, backoff_factor=2.0)
        assert backoff_delay(config, 1) == 0.02
        assert backoff_delay(config, 2) == 0.04
        assert backoff_delay(config, 3) == 0.08
        assert backoff_delay(config, 0) == 0.0

    def test_zero_base_disables_backoff(self):
        config = SuperviseConfig(backoff_base=0.0)
        assert backoff_delay(config, 3) == 0.0

    def test_default_budget_scales_with_attempts_with_a_floor(self):
        assert default_retry_budget(0) == 8
        assert default_retry_budget(3) == 8
        assert default_retry_budget(100) == 200


class TestInlineMode:
    def test_no_pool_factory_means_inline_evaluation(self):
        obs = _metrics_session()
        sup = Supervisor(
            obs=obs,
            inline=lambda c, s: Outcome(matched=(s == 1)),
            max_attempts=10,
        )
        outcomes = sup.evaluate_batch(
            [(frozenset(), 0, None), (frozenset(), 1, None),
             (frozenset(), 2, None)],
        )
        # Stops at the first matched outcome, like the engine's merge.
        assert [o.matched for o in outcomes] == [False, True]
        assert _counter(obs, "supervise.retries") == 0

    def test_cached_outcomes_pass_through_untouched(self):
        cached = Outcome(matched=True, tag="cached")
        sup = Supervisor(inline=lambda c, s: Outcome(), max_attempts=10)
        outcomes = sup.evaluate_batch([(frozenset(), 0, cached)])
        assert outcomes == [cached]


class TestHangs:
    def test_hung_attempt_times_out_retries_then_runs_inline(self):
        obs = _metrics_session()
        config = SuperviseConfig(
            attempt_timeout=0.001, max_retries=1, backoff_base=0.0
        )
        futures = [
            StubFuture(error=FuturesTimeout()),
            StubFuture(error=FuturesTimeout()),
        ]
        sup = _supervisor(config, obs, futures=futures)
        outcomes = sup.evaluate_batch([(frozenset(), 7, None)])
        assert outcomes[0].tag == "inline:7"
        assert _counter(obs, "supervise.timeouts") == 2
        assert _counter(obs, "supervise.retries") == 1
        assert _counter(obs, "supervise.inline_fallbacks") == 1

    def test_retry_after_hang_can_succeed_on_the_pool(self):
        obs = _metrics_session()
        config = SuperviseConfig(
            attempt_timeout=0.001, max_retries=2, backoff_base=0.0
        )
        futures = [
            StubFuture(error=FuturesTimeout()),
            StubFuture(outcome=Outcome(matched=True, tag="pooled")),
        ]
        sup = _supervisor(config, obs, futures=futures)
        outcomes = sup.evaluate_batch([(frozenset(), 3, None)])
        assert outcomes[0].tag == "pooled"
        assert _counter(obs, "supervise.timeouts") == 1
        assert _counter(obs, "supervise.inline_fallbacks") == 0


class TestWorkerDeath:
    def test_broken_pool_is_rebuilt_and_the_attempt_retried(self):
        obs = _metrics_session()
        config = SuperviseConfig(max_retries=2, backoff_base=0.0)
        futures = [
            StubFuture(error=BrokenExecutor("worker died")),
            StubFuture(outcome=Outcome(tag="retried")),
        ]
        sup = _supervisor(config, obs, futures=futures)
        outcomes = sup.evaluate_batch([(frozenset(), 5, None)])
        assert outcomes[0].tag == "retried"
        assert _counter(obs, "supervise.worker_deaths") == 1
        assert _counter(obs, "supervise.pool_rebuilds") == 1
        assert sup.rebuilds == 1

    def test_collateral_futures_are_resubmitted_after_a_rebuild(self):
        obs = _metrics_session()
        config = SuperviseConfig(max_retries=2, backoff_base=0.0)
        dispatch_log = []
        futures = [
            StubFuture(error=BrokenExecutor("worker died")),  # slot 0, try 0
            StubFuture(outcome=Outcome(tag="one")),           # slot 1, try 0
            StubFuture(outcome=Outcome(tag="one-again")),     # slot 1 resubmit
            StubFuture(outcome=Outcome(tag="zero-retry")),    # slot 0 retry
        ]
        sup = _supervisor(config, obs, futures=futures, dispatch_log=dispatch_log)
        outcomes = sup.evaluate_batch(
            [(frozenset(), 0, None), (frozenset(), 1, None)]
        )
        assert [o.tag for o in outcomes] == ["zero-retry", "one-again"]
        # 2 initial + 1 collateral resubmit + 1 retry of the failed slot.
        assert len(dispatch_log) == 4

    def test_repeated_failures_degrade_to_serial(self):
        obs = _metrics_session()
        config = SuperviseConfig(
            max_retries=3, backoff_base=0.0, pool_failure_limit=0
        )
        futures = [StubFuture(error=BrokenExecutor("dead"))]
        sup = _supervisor(config, obs, futures=futures)
        outcomes = sup.evaluate_batch([(frozenset(), 9, None)])
        assert outcomes[0].tag == "inline:9"
        assert sup.serial is True
        assert _counter(obs, "supervise.serial_fallbacks") == 1
        # Serial mode: the next batch never touches a pool.
        outcomes = sup.evaluate_batch([(frozenset(), 10, None)])
        assert outcomes[0].tag == "inline:10"

    def test_dispatch_error_becomes_a_crash_fault(self):
        obs = _metrics_session()
        config = SuperviseConfig(max_retries=0, backoff_base=0.0)

        def dispatch(pool, constraints, seed):
            raise RuntimeError("cannot pickle")

        sup = Supervisor(
            config=config,
            obs=obs,
            pool_factory=StubPool,
            dispatch=dispatch,
            inline=lambda c, s: Outcome(tag=f"inline:{s}"),
            max_attempts=10,
        )
        outcomes = sup.evaluate_batch([(frozenset(), 4, None)])
        assert outcomes[0].tag == "inline:4"
        assert _counter(obs, "supervise.worker_deaths") == 1


class TestRetryBudget:
    def test_exhausted_budget_goes_straight_inline(self):
        obs = _metrics_session()
        config = SuperviseConfig(
            max_retries=5, backoff_base=0.0, retry_budget=0
        )
        futures = [StubFuture(error=FuturesTimeout())]
        sup = _supervisor(
            SuperviseConfig(
                attempt_timeout=0.001, max_retries=5, backoff_base=0.0,
                retry_budget=0,
            ),
            obs, futures=futures,
        )
        assert config.retry_budget == 0
        outcomes = sup.evaluate_batch([(frozenset(), 2, None)])
        assert outcomes[0].tag == "inline:2"
        assert _counter(obs, "supervise.retries") == 0
        assert _counter(obs, "supervise.inline_fallbacks") == 1

    def test_budget_is_charged_across_the_session(self):
        obs = _metrics_session()
        config = SuperviseConfig(
            attempt_timeout=0.001, max_retries=1, backoff_base=0.0,
            retry_budget=1,
        )
        futures = [
            StubFuture(error=FuturesTimeout()),  # slot A try 0
            StubFuture(error=FuturesTimeout()),  # slot A retry (budget gone)
            StubFuture(error=FuturesTimeout()),  # slot B try 0: no retry left
        ]
        sup = _supervisor(config, obs, futures=futures)
        sup.evaluate_batch([(frozenset(), 0, None)])
        sup.evaluate_batch([(frozenset(), 1, None)])
        assert sup.retries_charged == 1
        assert _counter(obs, "supervise.retries") == 1
        assert _counter(obs, "supervise.inline_fallbacks") == 2


class TestAttemptErrors:
    def test_genuine_attempt_errors_are_not_retried(self):
        obs = _metrics_session()
        futures = [StubFuture(error=ValueError("the attempt itself raised"))]
        calls = []

        def inline(constraints, seed):
            calls.append(seed)
            raise ValueError("the attempt itself raised")

        sup = Supervisor(
            config=SuperviseConfig(backoff_base=0.0),
            obs=obs,
            pool_factory=StubPool,
            dispatch=lambda pool, c, s: futures.pop(0),
            inline=inline,
            max_attempts=10,
        )
        try:
            sup.evaluate_batch([(frozenset(), 6, None)])
            raised = False
        except ValueError:
            raised = True
        # The error re-raises deterministically from the inline path.
        assert raised and calls == [6]
        assert _counter(obs, "supervise.retries") == 0


class TestShutdown:
    def test_shutdown_is_idempotent_and_joins_workers(self):
        pool = StubPool()
        sup = Supervisor(
            pool_factory=lambda: pool,
            dispatch=lambda p, c, s: StubFuture(outcome=Outcome()),
            inline=lambda c, s: Outcome(),
            max_attempts=10,
        )
        sup.evaluate_batch([(frozenset(), 0, None)])
        sup.shutdown(wait=True)
        sup.shutdown(wait=True)
        assert pool.shutdowns == [(True, True)]
        assert sup.serial is True
        # Post-shutdown batches still evaluate (inline), never rebuild.
        outcomes = sup.evaluate_batch([(frozenset(), 1, None)])
        assert outcomes[0].matched is False
