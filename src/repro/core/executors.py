"""Campaign execution backends.

The paper names simulation speed as the limiting factor of
quantitative safety evaluation ("repeated stress tests enable a
quantitative evaluation", Sec. 3.4) — so the campaign loop delegates
the expensive part, running :class:`~repro.core.runspec.RunSpec`
batches, to a swappable :class:`Executor`:

* :class:`SerialExecutor` — runs specs in-process, in order.  With a
  batch size of one this reproduces the historical sequential loop
  byte for byte.
* :class:`ParallelExecutor` — fans specs out to a
  ``concurrent.futures.ProcessPoolExecutor``; each worker rebuilds
  its own platform from the spec's registry key
  (:mod:`repro.platforms.registry`) and returns a compact
  :class:`~repro.core.runspec.RunOutcome`.  Outcomes are re-ordered
  by run index, so aggregation is independent of worker scheduling.

Both backends execute the *same* batch routine,
:func:`~repro.core.runspec.execute_batch_tolerant`, over the same run
body: the serial executor passes it closures over its callables, pool
workers the registry-backed ``execute_chunk_tolerant``.  That is what
the serial/parallel equivalence tests pin down.

Fault tolerance
---------------

Campaigns inject faults that can hang a DUT or kill a worker, so the
executors degrade instead of aborting:

* a run whose simulation exceeds its ``RunSpec.deadline_s`` wall-clock
  budget comes back as a classified ``Outcome.TIMEOUT`` record
  (``failure="timeout"``, enforced inside the kernel loop);
* a run whose body raises comes back as a terminal
  ``failure="error"`` record — a deterministic raise would fail
  identically on every retry, so none are attempted;
* a run whose *worker process dies* (``BrokenProcessPool`` — e.g. an
  injected ``os._exit``) is retried with deterministic exponential
  backoff up to :attr:`RetryPolicy.max_retries` times on a rebuilt
  pool, then becomes a terminal ``failure="crash"`` record.  Only
  runs that can actually have been executing when the pool broke (the
  first ``workers`` casualties in FIFO dispatch order) are charged a
  retry attempt; co-batched runs that were still queued re-run on the
  rebuilt pool free of charge.  The :class:`CrashLedger` holds that
  rule; the distributed coordinator drives the same ledger;
* a run that hangs so hard the worker-side deadline cannot fire (a
  process body that never yields) is caught by the pool-level hard
  timeout; the poisoned pool is killed and rebuilt, and the *hung*
  run is recorded as ``failure="timeout"`` — runs merely queued
  behind it (``Future.cancel()`` succeeds, so they never started)
  re-run on the rebuilt pool instead of being dragged down with it.

The pool applies these rules at run granularity.  Its first round
ships chunks of several specs; a chunk that fails in any way names no
guilty run, so its specs requeue uncharged and every later round
dispatches one spec per future, where the rules above decide.

Every degradation path yields exactly one ``RunOutcome`` per planned
spec, so ``runs == completed + timed_out + terminally_failed`` always
holds and a poisoned spec can never kill a campaign.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing as _t

from .runspec import (
    RunOutcome,
    RunSpec,
    error_outcome,
    execute_batch_tolerant,
    execute_chunk_tolerant,
    execute_fork_group,
    execute_runspec,
    failure_outcome,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..kernel import Module, Simulator
    from .classification import Classifier, RunObservation

#: Pool-level hard-timeout slack on top of the per-run deadline: covers
#: platform construction, observation, pickling, and queueing behind
#: other runs of the same batch on a busy pool.
HARD_TIMEOUT_GRACE = 5.0
HARD_TIMEOUT_FACTOR = 3.0


def chunk_backstop_s(
    specs: _t.Sequence[RunSpec], hard_timeout_s: _t.Optional[float]
) -> _t.Optional[float]:
    """Hard-timeout budget for *specs* run back to back on one worker
    (a pool chunk, a cluster lease), or ``None`` to wait forever."""
    if hard_timeout_s is not None:
        return hard_timeout_s * len(specs)
    deadlines = [s.deadline_s for s in specs if s.deadline_s is not None]
    if len(deadlines) < len(specs):
        # Any deadline-less run may legitimately take arbitrarily
        # long; a finite backstop would misfire.
        return None
    return (
        max(deadlines) * HARD_TIMEOUT_FACTOR * len(specs)
        + HARD_TIMEOUT_GRACE
    )


def default_chunk_size(batch_size: int, workers: int) -> int:
    """Dispatch quantum when the caller sets none: about four chunks
    per worker, small enough that one slow chunk cannot idle the pool
    for long, large enough that dispatch overhead amortizes."""
    return max(1, -(-batch_size // (workers * 4)))


def default_worker_count() -> int:
    """Workers to use when the caller does not say: one per CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry for worker-crash casualties.

    ``max_retries`` bounds redispatches per spec *beyond* the first
    attempt; ``backoff_s`` seeds the deterministic exponential backoff
    slept before each pool rebuild (no jitter — campaigns must replay
    identically under a fixed seed).
    """

    max_retries: int = 2
    backoff_s: float = 0.05

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("retry budget must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff must be non-negative")

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def backoff_for(self, rebuild: int) -> float:
        """Seconds to sleep before pool rebuild number *rebuild* (1-based)."""
        return self.backoff_s * (2 ** max(rebuild - 1, 0))


class CrashLedger:
    """Attempt bookkeeping for runs whose executing worker died or hung.

    The one retry rule both out-of-process backends share; it does no
    I/O and takes no locks, so the process pool and the distributed
    coordinator drive it under their own concurrency.  Each caller
    decides *which* run was in flight when a worker went away (FIFO
    pigeonholing for the pool, the first unreported lease index for
    the coordinator); the ledger decides what that costs:

    * only the in-flight run is charged (:meth:`crashed`); innocents
      requeue free of charge, so their records stay byte-identical to
      a serial run's;
    * a run whose charges reach :attr:`RetryPolicy.max_attempts`
      becomes a terminal ``crash:worker`` record;
    * a hang is terminal at once (:meth:`hung`) as ``timeout:pool`` —
      a rerun would hang for the full backstop again.
    """

    def __init__(self, specs: _t.Iterable[RunSpec], retry: RetryPolicy):
        self.retry = retry
        self._specs = {spec.index: spec for spec in specs}
        #: spec index -> crash-charged prior executions.
        self._charged: _t.Dict[int, int] = {}

    def attempt(self, index: int) -> int:
        """The 1-based attempt number of the next dispatch of *index*."""
        return self._charged.get(index, 0) + 1

    def respec(self, index: int) -> RunSpec:
        """The spec to dispatch for *index*, carrying its attempt count
        (the same object when no crash has been charged to it)."""
        spec = self._specs[index]
        charged = self._charged.get(index, 0)
        if spec.attempt != charged:
            spec = dataclasses.replace(spec, attempt=charged)
        return spec

    def crashed(self, index: int, cause: str) -> _t.Optional[RunOutcome]:
        """Charge *index* for a worker death: its terminal
        ``crash:worker`` record once the budget is spent, else ``None``
        (requeue it)."""
        charged = self._charged[index] = self._charged.get(index, 0) + 1
        if charged < self.retry.max_attempts:
            return None
        return failure_outcome(
            self._specs[index],
            failure="crash",
            error=(
                f"{cause}; retry budget of {self.retry.max_retries} "
                f"exhausted"
            ),
            attempts=charged,
            label="crash:worker",
        )

    def hung(self, index: int, error: str) -> RunOutcome:
        """The terminal ``timeout:pool`` record of a hung *index*."""
        return failure_outcome(
            self._specs[index],
            failure="timeout",
            error=error,
            attempts=self.attempt(index),
            label="timeout:pool",
        )


class Executor:
    """Runs batches of :class:`RunSpec`; returned outcomes are always
    sorted by run index regardless of completion order.  Implementations
    must return exactly one outcome per spec — degraded runs come back
    as ``Outcome.TIMEOUT`` records, never as exceptions."""

    #: Degree of parallelism, used by the planner to size batches.
    workers: int = 1

    def run_batch(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; idempotent, even after a crash."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process execution — the reference backend.

    Built either from explicit callables (any campaign, including ones
    whose factories are closures) or from a registry key.  ``reset``
    is the platform bundle's warm-reset hook; when present, runs that
    permit ``reuse_platform`` execute on one warm platform instead of
    re-elaborating per run.  ``capture_state``/``restore_state`` are
    the bundle's snapshot hooks; fork-mode specs (``RunSpec.fork``)
    sharing a platform and injection time then run as snapshot-fork
    groups — one shared prefix, N forked suffixes — with per-run
    fallback whenever a group cannot fork.
    """

    def __init__(
        self,
        factory: "_t.Callable[[Simulator], Module]",
        observe: "_t.Callable[[Module], RunObservation]",
        classifier: "Classifier",
        reset: _t.Optional[_t.Callable] = None,
        capture_state: _t.Optional[_t.Callable] = None,
        restore_state: _t.Optional[_t.Callable] = None,
    ):
        self.factory = factory
        self.observe = observe
        self.classifier = classifier
        self.reset = reset
        self.capture_state = capture_state
        self.restore_state = restore_state

    def run_batch(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        return execute_batch_tolerant(
            specs,
            lambda spec: execute_runspec(
                spec, self.factory, self.observe, self.classifier,
                reset=self.reset,
            ),
            lambda members: execute_fork_group(
                members, self.factory, self.observe, self.classifier,
                capture_state=self.capture_state,
                restore_state=self.restore_state,
            ),
        )


class ParallelExecutor(Executor):
    """Process-pool execution over registry-backed platforms.

    The pool is created lazily on the first batch and reused until
    :meth:`close`, so one campaign pays the worker start-up cost once.
    Specs must carry a ``platform`` registry key — the campaign
    planner embeds it (and the golden observation) in every spec.

    ``retry`` governs redispatch of runs whose worker died;
    ``hard_timeout_s`` overrides the pool-level backstop timeout
    derived from the specs' deadlines (``None`` + no deadlines =
    wait forever, the legacy behavior).

    ``chunk_size`` controls the granularity of the first dispatch
    round: each future carries a contiguous slice of that many specs
    (one ``execute_chunk_tolerant`` call) instead of a single run,
    cutting the submit/pickle/collect round-trips per batch by the
    chunk factor.  ``None`` auto-tunes with :func:`default_chunk_size`;
    ``1`` is per-run dispatch.  Chunks are an *optimistic* fast path:
    a chunk whose future fails — worker death, pool-level hang,
    pickling trouble — requeues its specs uncharged, and later rounds
    dispatch them one per future, where the crash/hang attribution
    (FIFO pigeonholing, innocent re-runs, retry budgets) applies.  The
    failed chunk attempt is free reconnaissance: its runs start at the
    same attempt number per-run dispatch would have used, so outcome
    records and checkpoint journals are byte-identical either way.
    """

    def __init__(
        self,
        platform: _t.Optional[str] = None,
        workers: _t.Optional[int] = None,
        retry: _t.Optional[RetryPolicy] = None,
        hard_timeout_s: _t.Optional[float] = None,
        chunk_size: _t.Optional[int] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("need at least one worker")
        if hard_timeout_s is not None and hard_timeout_s <= 0:
            raise ValueError("hard timeout must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk size must be positive")
        if platform is not None:
            # Fail fast in the parent on unknown keys instead of
            # surfacing the KeyError from inside a worker.
            from ..platforms import registry

            registry.get_platform(platform)
        self.platform = platform
        self.workers = workers or default_worker_count()
        self.retry = retry or RetryPolicy()
        self.hard_timeout_s = hard_timeout_s
        self.chunk_size = chunk_size
        self._pool = None
        #: Lifetime counters surfaced through CampaignResult.report().
        self.pool_rebuilds = 0
        self.chunk_fallbacks = 0

    def _ensure_pool(self):
        if self._pool is None:
            import concurrent.futures

            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Tear down a poisoned pool: terminate workers, drop futures."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.pool_rebuilds += 1
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already-dead workers  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken pools may refuse  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
            pass

    def _effective_chunk_size(self, batch_size: int) -> int:
        """Round-1 unit size for a batch of *batch_size* specs."""
        if self.chunk_size is not None:
            return self.chunk_size
        return default_chunk_size(batch_size, self.workers)

    def _chunk_timeout(
        self, chunk: _t.Sequence[RunSpec]
    ) -> _t.Optional[float]:
        """Pool-level backstop for one unit future (None = wait)."""
        return chunk_backstop_s(chunk, self.hard_timeout_s)

    def run_batch(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        """Dispatch *specs* in rounds until every one has an outcome.

        Round 1 submits units of :meth:`_effective_chunk_size` specs;
        every later round units of one.  A failed unit of several specs
        requeues them uncharged.  A unit of one carries the attribution
        rules: FIFO pigeonholing of crash casualties onto the
        :class:`CrashLedger`, ``timeout:pool`` for a hang, free requeue
        for whatever was provably still queued.  A poisoned round kills
        the pool, which is rebuilt after a deterministic backoff.
        """
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        for spec in specs:
            if spec.platform is None:
                raise ValueError(
                    f"run {spec.index}: spec has no platform registry "
                    f"key; parallel execution requires a campaign "
                    f"built with platform=<name>"
                )
        ledger = CrashLedger(specs, self.retry)
        done: _t.Dict[int, RunOutcome] = {}
        pending = [spec.index for spec in specs]
        size = self._effective_chunk_size(len(specs))
        rebuilds = 0
        while pending:
            pool = self._ensure_pool()
            submitted: _t.List[_t.Tuple[_t.List[RunSpec], _t.Any]] = []
            poisoned = False
            for start in range(0, len(pending), size):
                unit = [ledger.respec(i) for i in pending[start:start + size]]
                try:
                    submitted.append(
                        (unit, pool.submit(execute_chunk_tolerant, unit))
                    )
                except (BrokenProcessPool, RuntimeError):
                    # Pool already broken (or shut down mid-crash)
                    # before this unit was even accepted: it never ran,
                    # so it stays pending for the rebuilt pool without
                    # being charged a retry attempt.
                    poisoned = True
            #: Units whose futures resolved with BrokenProcessPool, in
            #: submission order.  The pool dispatches work FIFO, so only
            #: the first ``workers`` of these can actually have been
            #: running when the pool broke — the rest were still queued.
            crashed: _t.List[_t.List[RunSpec]] = []
            #: Units hung this round.  At most ``workers`` units can
            #: truly be executing, so once this many hangs are on
            #: record, every remaining future without a buffered result
            #: is provably still queued.  (``Future.cancel()`` alone
            #: cannot tell: the pool pre-marks call-queue-buffered items
            #: RUNNING before a worker picks them up.)
            hung_slots = 0
            for unit, future in submitted:
                if hung_slots and future.cancel():
                    # Queued behind a hung worker and never started:
                    # re-run on the rebuilt pool, free of charge,
                    # without burning another backstop window.
                    poisoned = True
                    continue
                backstop = self._chunk_timeout(unit)
                try:
                    outcomes = future.result(
                        timeout=0 if hung_slots >= self.workers else backstop
                    )
                except FutureTimeout:
                    poisoned = True
                    if future.cancel() or hung_slots >= self.workers:
                        # The backstop fired while this unit was still
                        # queued — provably (cancel succeeded) or by
                        # pigeonhole (every worker already accounted
                        # hung) — so it never executed and is not the
                        # hang.  Re-queue at the same attempt count.
                        continue
                    # Hard hang: the worker-side deadline never fired
                    # (non-yielding process body).
                    hung_slots += 1
                    if len(unit) == 1:
                        done[unit[0].index] = ledger.hung(
                            unit[0].index,
                            f"no result within the {backstop}s "
                            f"pool-level hard timeout",
                        )
                except BrokenProcessPool:
                    crashed.append(unit)
                    poisoned = True
                except Exception as exc:  # noqa: BLE001 - pickling edge  # vp-lint: disable=VP007 - pool-side plumbing; deadlines are worker-side
                    if len(unit) == 1:
                        done[unit[0].index] = error_outcome(unit[0], exc)
                    else:
                        poisoned = True
                else:
                    for outcome in outcomes:
                        done[outcome.index] = outcome
            # Provably queued when the pool broke (FIFO dispatch, all
            # workers accounted for above): casualties past the first
            # ``workers`` re-run free of charge instead of letting a
            # poison spec burn innocents' retry budgets.
            for unit in crashed[: self.workers]:
                if len(unit) == 1:
                    record = ledger.crashed(
                        unit[0].index,
                        "worker process died (BrokenProcessPool)",
                    )
                    if record is not None:
                        done[unit[0].index] = record
            pending = [index for index in pending if index not in done]
            if poisoned:
                if size > 1:
                    self.chunk_fallbacks += 1
                # The pool is poisoned (dead or occupied workers):
                # rebuild before the next round, after a deterministic
                # backoff that lets transient resource pressure clear.
                self._kill_pool()
                if pending:
                    rebuilds += 1
                    backoff = self.retry.backoff_for(rebuilds)
                    if backoff:
                        time.sleep(backoff)
            size = 1
        return [done[spec.index] for spec in specs]

    def close(self) -> None:
        """Idempotent shutdown that survives a broken pool.

        ``ProcessPoolExecutor.shutdown`` can raise once workers have
        been killed out from under it; campaigns must still be able to
        release the executor in their ``finally`` block.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken-pool shutdown  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001  # vp-lint: disable=VP007 - pool teardown; deadlines are worker-side
                    pass


def make_executor(
    backend: _t.Union[str, Executor],
    *,
    factory=None,
    observe=None,
    classifier=None,
    platform: _t.Optional[str] = None,
    workers: _t.Optional[int] = None,
    retry: _t.Optional[RetryPolicy] = None,
    hard_timeout_s: _t.Optional[float] = None,
    reset=None,
    capture_state=None,
    restore_state=None,
    chunk_size: _t.Optional[int] = None,
    telemetry=None,
) -> _t.Tuple[Executor, bool]:
    """Resolve a backend selector to an executor.

    Returns ``(executor, owned)``: campaigns close executors they
    created but leave caller-provided instances open for reuse (a
    passed-in instance also keeps its own retry/timeout/chunking
    configuration).  String selectors name ``"serial"``,
    ``"parallel"`` or ``"distributed"``; any other name raises
    immediately, listing the three — a typo must fail at the call
    site, not as a confusing downstream error.
    """
    if isinstance(backend, Executor):
        return backend, False
    if not isinstance(backend, str):
        raise TypeError(
            f"backend must be a name or an Executor instance, "
            f"not {type(backend).__name__}"
        )
    if backend not in ("serial", "parallel", "distributed"):
        raise ValueError(
            f"unknown backend {backend!r}; backends: 'serial', "
            f"'parallel', 'distributed' (or pass an Executor instance)"
        )
    if backend == "serial":
        if factory is None or observe is None or classifier is None:
            raise ValueError(
                "serial backend needs factory/observe/classifier"
            )
        return SerialExecutor(
            factory, observe, classifier, reset=reset,
            capture_state=capture_state, restore_state=restore_state,
        ), True
    if platform is None:
        raise ValueError(
            f"{backend} backend requires a registry-backed campaign "
            f"(Campaign(platform=<name>, ...)); workers rebuild the "
            f"platform from its key (see "
            f"repro.platforms.register_platform)"
        )
    if backend == "parallel":
        return ParallelExecutor(
            platform, workers=workers, retry=retry,
            hard_timeout_s=hard_timeout_s, chunk_size=chunk_size,
        ), True
    # Lazy import: repro.core stays importable (and fast) without the
    # socket machinery.
    from ..distributed.coordinator import DistributedExecutor

    return DistributedExecutor(
        platform, workers=workers, retry=retry,
        hard_timeout_s=hard_timeout_s, chunk_size=chunk_size,
        telemetry=telemetry,
    ), True
