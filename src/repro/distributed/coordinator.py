"""Coordinator side of the distributed campaign backend.

The :class:`Coordinator` owns a TCP server socket and the batch state:
pending run indices, outstanding leases, completed outcomes, per-spec
crash budgets.  Workers (:mod:`repro.distributed.worker`) connect,
introduce themselves, and *pull* work — the coordinator never pushes —
so scheduling is work-stealing by construction: a fast worker simply
comes back for more while a slow one is still simulating, and the
grant size shrinks as the tail shortens (see :meth:`Coordinator._grant`)
so the campaign never ends with one worker grinding through a large
chunk while the rest sit idle.

Failure model
-------------

Liveness is lease + heartbeat based.  A worker that disappears — EOF
on its connection, stale heartbeats, or a lease outliving its
hard-timeout backstop — has its unreported leased runs requeued.  The
accounting mirrors the chunked parallel executor's: the dead lease is
treated like a failed chunk, so requeued runs that were provably not
executing (everything behind the in-flight run in grant order) re-run
*uncharged*, keeping their records byte-identical to a serial run's.
Only the in-flight run — the first unreported index of the lease — is
charged against the :class:`~repro.core.executors.RetryPolicy` crash
budget; a poison spec that keeps killing workers becomes a terminal
``crash:worker`` record after ``max_retries`` redispatches.  A lease
that exceeds its hard timeout while heartbeats still flow is a hung
*run* (the worker-side deadline could not fire): the in-flight run is
recorded terminally as ``timeout:pool`` — a rerun would hang for the
full backstop again — and the rest of the lease requeues uncharged.
The charging rule is the process-pool backend's own
:class:`~repro.core.executors.CrashLedger`; only the attribution of
the in-flight run is the coordinator's.

Shard journals and the determinism contract
-------------------------------------------

With ``shard_dir`` set, every result is appended to the reporting
worker's own :class:`~repro.core.checkpoint.CampaignCheckpoint` shard
(``shard-<worker>.jsonl``) the moment it arrives; coordinator-side
terminal records (crash budget exhausted, hung lease) land in the
``coordinator`` shard.  Each shard is a valid journal for the campaign
key bound via :meth:`DistributedExecutor.bind_campaign_key`, and
:func:`repro.core.checkpoint.merge_shards` folds them — deduplicated
by run index, sorted ascending — into a journal byte-identical to the
one a serial run of the same seed writes (modulo the wall-clock
``wall_s`` counter, which is outside every byte-equality contract).
"""

from __future__ import annotations

import collections
import os
import pathlib
import re
import socket
import subprocess
import sys
import threading
import time
import typing as _t

from ..core.checkpoint import CampaignCheckpoint
from ..core.executors import (
    CrashLedger,
    Executor,
    RetryPolicy,
    chunk_backstop_s,
    default_chunk_size,
    default_worker_count,
)
from ..core.runspec import RunOutcome, RunSpec
from . import protocol
from .discovery import write_endpoint

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..observe.telemetry import CampaignTelemetry

#: How long an idle worker is told to wait before pulling again.
IDLE_RETRY_S = 0.05

#: Default heartbeat cadence pushed to workers in the welcome frame.
DEFAULT_HEARTBEAT_S = 0.5

#: Default liveness window: a worker silent for this long is dead.
DEFAULT_LEASE_TIMEOUT_S = 15.0


class _Lease:
    """One grant of contiguous work to one worker."""

    __slots__ = ("lease_id", "worker", "indices", "reported", "deadline")

    def __init__(
        self,
        lease_id: int,
        worker: str,
        indices: _t.List[int],
        deadline: _t.Optional[float],
    ):
        self.lease_id = lease_id
        self.worker = worker
        #: Grant order == execution order on the worker; the first
        #: unreported index is therefore the in-flight run.
        self.indices = indices
        self.reported: _t.Set[int] = set()
        #: Absolute monotonic hard-timeout, or None to wait forever
        #: (any deadline-less spec may legitimately run arbitrarily
        #: long — same rule as the pool backend's chunk backstop).
        self.deadline = deadline

    def unreported(self) -> _t.List[int]:
        return [i for i in self.indices if i not in self.reported]


class _Worker:
    """Connection-side state of one registered worker."""

    __slots__ = ("name", "sock", "send_lock", "last_seen", "lease")

    def __init__(self, name: str, sock: socket.socket):
        self.name = name
        self.sock = sock
        #: Results and control frames share the socket with nothing —
        #: only the handler thread sends to a worker — but the lock
        #: keeps that invariant explicit and cheap.
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()  # vp-lint: disable=VP005 - liveness bookkeeping, not model behavior
        self.lease: _t.Optional[_Lease] = None


class Coordinator:
    """Serve campaign work over TCP; collect outcomes; survive workers.

    The server socket binds at construction (so the endpoint is known
    before any worker is spawned); :meth:`submit` feeds one batch of
    specs and blocks until every index has an outcome.  Workers may
    connect and leave at any point — before the first batch, between
    batches, mid-lease — and the batch completes as long as at least
    one worker eventually serves it.
    """

    def __init__(
        self,
        retry: _t.Optional[RetryPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_size: _t.Optional[int] = None,
        hard_timeout_s: _t.Optional[float] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        shard_dir: _t.Union[None, str, os.PathLike] = None,
        expected_workers: int = 1,
        telemetry: _t.Optional["CampaignTelemetry"] = None,
        on_worker_dead: _t.Optional[_t.Callable[[str, str], None]] = None,
    ):
        if heartbeat_s <= 0 or lease_timeout_s <= 0:
            raise ValueError("heartbeat and lease timeout must be positive")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk size must be positive")
        self.retry = retry or RetryPolicy()
        self.chunk_size = chunk_size
        self.hard_timeout_s = hard_timeout_s
        self.heartbeat_s = heartbeat_s
        self.lease_timeout_s = lease_timeout_s
        self.shard_dir = (
            pathlib.Path(shard_dir) if shard_dir is not None else None
        )
        self.expected_workers = max(1, expected_workers)
        self.telemetry = telemetry
        self.on_worker_dead = on_worker_dead
        self.campaign_key: _t.Optional[dict] = None

        self._lock = threading.Condition()
        self._workers: _t.Dict[str, _Worker] = {}
        self._pending: _t.Deque[int] = collections.deque()
        self._specs: _t.Dict[int, RunSpec] = {}
        self._done: _t.Dict[int, RunOutcome] = {}
        self._ledger = CrashLedger((), self.retry)
        self._batch_size = 0
        self._lease_seq = 0
        self._closing = False
        self._shards: _t.Dict[str, CampaignCheckpoint] = {}
        #: Lifetime counters surfaced through CampaignResult.report()
        #: by way of DistributedExecutor.
        self.workers_joined = 0
        self.workers_lost = 0
        self.leases_granted = 0

        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._threads: _t.List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-dist-monitor", daemon=True
        )
        self._monitor_thread.start()

    # -- endpoint ------------------------------------------------------------

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def announce(self, path: _t.Union[str, os.PathLike]) -> None:
        """Write the endpoint file remote workers discover us through."""
        write_endpoint(path, self.host, self.port)

    # -- batch lifecycle -----------------------------------------------------

    def submit(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        """Serve one batch to whatever workers show up; block until
        every spec has an outcome; return outcomes sorted by index."""
        if not specs:
            return []
        with self._lock:
            if self._pending or self._specs:
                raise RuntimeError("a batch is already in flight")
            self._specs = {spec.index: spec for spec in specs}
            self._done = {}
            self._ledger = CrashLedger(specs, self.retry)
            self._batch_size = len(specs)
            self._pending.extend(spec.index for spec in specs)
            self._lock.notify_all()
            while len(self._done) < len(specs):
                if self._closing:
                    raise RuntimeError("coordinator closed mid-batch")
                self._lock.wait(timeout=0.5)
            done, self._done = self._done, {}
            self._specs = {}
            self._ledger = CrashLedger((), self.retry)
        return [done[spec.index] for spec in sorted(specs, key=lambda s: s.index)]

    # -- scheduling ----------------------------------------------------------

    def _grant_size(self) -> int:
        """How many runs the next lease should carry.

        Two regimes, like the issue's steal rule: while plenty of work
        remains, PR 4's chunk heuristic (about four chunks per
        expected worker per batch) amortizes frame round-trips; once
        the tail is short, the quantum shrinks toward 1 so stragglers
        can steal — ``ceil(remaining / (2 * active))`` guarantees at
        least two grants per live worker remain available.
        """
        chunk = self.chunk_size or default_chunk_size(
            self._batch_size, self.expected_workers
        )
        active = max(1, len(self._workers))
        fair = -(-len(self._pending) // (2 * active))
        return max(1, min(chunk, fair))

    def _lease_deadline(
        self, specs: _t.Sequence[RunSpec]
    ) -> _t.Optional[float]:
        budget = chunk_backstop_s(specs, self.hard_timeout_s)
        if budget is None:
            return None
        return time.monotonic() + budget  # vp-lint: disable=VP005 - lease backstop bookkeeping, not model behavior

    def _grant(self, worker: _Worker) -> _t.Dict[str, _t.Any]:
        """Build the reply to one work request (lease or idle)."""
        with self._lock:
            if self._closing:
                return protocol.shutdown()
            if worker.lease is not None and worker.lease.unreported():
                # A worker must drain its lease before pulling again;
                # a request in this state means its results were lost.
                raise protocol.ProtocolError(
                    f"worker {worker.name!r} requested work with "
                    f"{len(worker.lease.unreported())} leased runs "
                    f"unreported"
                )
            worker.lease = None
            if not self._pending:
                return protocol.idle(IDLE_RETRY_S)
            count = self._grant_size()
            indices = [
                self._pending.popleft()
                for _ in range(min(count, len(self._pending)))
            ]
            # Uncharged requeues dispatch at their original attempt,
            # which keeps an innocent casualty's eventual record
            # byte-identical to a serial run's.
            specs = [self._ledger.respec(index) for index in indices]
            self._lease_seq += 1
            self.leases_granted += 1
            lease = _Lease(
                self._lease_seq,
                worker.name,
                indices,
                self._lease_deadline(specs),
            )
            worker.lease = lease
            return protocol.lease(lease.lease_id, specs)

    # -- result / failure accounting ----------------------------------------

    def _record(self, name: str, outcome: RunOutcome) -> None:
        with self._lock:
            worker = self._workers.get(name)
            if worker is not None and worker.lease is not None:
                worker.lease.reported.add(outcome.index)
            if outcome.index not in self._specs:
                # Late result from a worker we already declared dead
                # and whose runs were redispatched (or a prior batch).
                # Its shard keeps the record; the merge dedupes.
                self._shard_append(name, outcome)
                return
            if outcome.index not in self._done:
                self._done[outcome.index] = outcome
                self._shard_append(name, outcome)
                if self.telemetry is not None:
                    self.telemetry.on_worker_result(name, outcome)
            else:
                self._shard_append(name, outcome)
            self._lock.notify_all()

    def _mark_dead(self, name: str, reason: str, hung: bool = False) -> None:
        """Requeue a dead worker's lease; charge only the in-flight run."""
        with self._lock:
            worker = self._workers.pop(name, None)
            if worker is None:
                return
            self.workers_lost += 1
            try:
                worker.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            lease = worker.lease
            requeued = 0
            if lease is not None:
                unreported = [
                    i for i in lease.unreported() if i in self._specs
                    and i not in self._done
                ]
                if unreported:
                    in_flight, innocents = unreported[0], unreported[1:]
                    if hung:
                        # The worker-side deadline never fired.
                        record = self._ledger.hung(
                            in_flight,
                            f"no result within the lease-level hard "
                            f"timeout ({reason})",
                        )
                    else:
                        record = self._ledger.crashed(
                            in_flight, f"worker died ({reason})"
                        )
                    if record is None:
                        self._pending.appendleft(in_flight)
                        requeued += 1
                    else:
                        self._done[in_flight] = record
                        self._shard_append("coordinator", record)
                    for index in reversed(innocents):
                        # Provably queued behind the in-flight run on
                        # the worker (leases execute in grant order):
                        # requeue free of charge.
                        self._pending.appendleft(index)
                        requeued += 1
            if self.telemetry is not None:
                self.telemetry.on_worker_dead({
                    "worker": name,
                    "reason": reason,
                    "requeued": requeued,
                })
            self._lock.notify_all()
        if self.on_worker_dead is not None:
            self.on_worker_dead(name, reason)

    # -- shard journals ------------------------------------------------------

    def bind_campaign_key(self, key: dict) -> None:
        """Pin shard journals to the campaign identity (see
        :func:`repro.core.checkpoint.campaign_key`); must happen before
        the first result when ``shard_dir`` is set."""
        with self._lock:
            if self._shards and self.campaign_key != key:
                raise RuntimeError(
                    "cannot rebind the campaign key with shards open"
                )
            self.campaign_key = key

    def _shard_append(self, name: str, outcome: RunOutcome) -> None:
        if self.shard_dir is None:
            return
        shard = self._shards.get(name)
        if shard is None:
            safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)
            shard = CampaignCheckpoint(
                self.shard_dir / f"shard-{safe}.jsonl"
            )
            shard.open(
                self.campaign_key
                if self.campaign_key is not None
                else {"distributed": True}
            )
            self._shards[name] = shard
        shard.record_batch([outcome])

    def shard_paths(self) -> _t.List[pathlib.Path]:
        """The shard journal files written so far, sorted by name."""
        with self._lock:
            return sorted(shard.path for shard in self._shards.values())

    # -- socket plumbing -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # server closed
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="repro-dist-conn",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, sock: socket.socket) -> None:
        name: _t.Optional[str] = None
        try:
            sock.settimeout(None)
            name = protocol.check_hello(protocol.recv_frame(sock))
            worker = _Worker(name, sock)
            with self._lock:
                if name in self._workers:
                    raise protocol.ProtocolError(
                        f"worker name {name!r} already connected"
                    )
                self._workers[name] = worker
                self.workers_joined += 1
                self._lock.notify_all()
            if self.telemetry is not None:
                self.telemetry.on_worker_join({"worker": name})
            with worker.send_lock:
                protocol.send_frame(
                    sock, protocol.welcome(self.heartbeat_s)
                )
            while True:
                message = protocol.recv_frame(sock)
                kind = message["type"]
                with self._lock:
                    worker.last_seen = time.monotonic()  # vp-lint: disable=VP005 - liveness bookkeeping, not model behavior
                if kind == "heartbeat":
                    continue
                if kind == "request":
                    reply = self._grant(worker)
                    with worker.send_lock:
                        protocol.send_frame(sock, reply)
                    if reply["type"] == "shutdown":
                        break
                elif kind == "result":
                    try:
                        outcome = RunOutcome.from_jsonable(message["outcome"])
                    except (KeyError, TypeError, ValueError) as exc:
                        raise protocol.ProtocolError(
                            f"malformed result frame: "
                            f"{type(exc).__name__}: {exc}"
                        ) from exc
                    self._record(name, outcome)
                elif kind == "leave":
                    self._leave(name)
                    name = None
                    break
                else:
                    raise protocol.ProtocolError(
                        f"unexpected frame type {kind!r} from worker"
                    )
        except (protocol.PeerGone, protocol.ProtocolError, OSError) as exc:
            if name is not None:
                with self._lock:
                    known = name in self._workers
                if known:
                    self._mark_dead(name, f"{type(exc).__name__}: {exc}")
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _leave(self, name: str) -> None:
        """Clean goodbye: requeue any leased leftovers uncharged."""
        with self._lock:
            worker = self._workers.pop(name, None)
            if worker is None:
                return
            if worker.lease is not None:
                for index in reversed([
                    i for i in worker.lease.unreported()
                    if i in self._specs and i not in self._done
                ]):
                    self._pending.appendleft(index)
            self._lock.notify_all()
        if self.telemetry is not None:
            self.telemetry.on_worker_leave({"worker": name})

    def _monitor_loop(self) -> None:
        interval = min(self.heartbeat_s, 0.25)
        while not self._closing:
            time.sleep(interval)
            now = time.monotonic()  # vp-lint: disable=VP005 - liveness bookkeeping, not model behavior
            stale: _t.List[_t.Tuple[str, str, bool]] = []
            with self._lock:
                for name, worker in self._workers.items():
                    if now - worker.last_seen > self.lease_timeout_s:
                        stale.append((
                            name,
                            f"no heartbeat for {self.lease_timeout_s}s",
                            False,
                        ))
                    elif (
                        worker.lease is not None
                        and worker.lease.deadline is not None
                        and now > worker.lease.deadline
                        and worker.lease.unreported()
                    ):
                        stale.append((
                            name, "lease hard timeout exceeded", True,
                        ))
            for name, reason, hung in stale:
                self._mark_dead(name, reason, hung=hung)

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
            self._workers.clear()
            self._lock.notify_all()
        for worker in workers:
            try:
                with worker.send_lock:
                    protocol.send_frame(worker.sock, protocol.shutdown())
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._server.close()
        except OSError:  # pragma: no cover
            pass
        with self._lock:
            for shard in self._shards.values():
                shard.close()


class LocalCluster:
    """Spawn N worker processes against a coordinator over loopback.

    Each worker is a real ``python -m repro.distributed.worker``
    subprocess speaking the real socket protocol — the loopback
    cluster exercises exactly the code a multi-host deployment runs,
    which is what lets single-machine tests and CI pin the distributed
    backend's equivalence contract.
    """

    def __init__(
        self,
        endpoint: str,
        workers: int = 4,
        name_prefix: str = "w",
        extra_args: _t.Sequence[str] = (),
        env: _t.Optional[_t.Mapping[str, str]] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.endpoint = endpoint
        self.name_prefix = name_prefix
        self.extra_args = list(extra_args)
        self.env = dict(env) if env is not None else None
        self.processes: _t.List[subprocess.Popen] = []
        #: Worker name -> its process, for targeted replacement.
        self.by_name: _t.Dict[str, subprocess.Popen] = {}
        self._spawned = 0
        for _ in range(workers):
            self.add_worker()

    def _worker_env(self) -> _t.Dict[str, str]:
        env = dict(os.environ if self.env is None else self.env)
        # Workers must import repro the same way the parent does, even
        # when the parent runs from a source tree that is not
        # installed.
        src = pathlib.Path(__file__).resolve().parents[2]
        path = env.get("PYTHONPATH", "")
        if str(src) not in path.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{src}{os.pathsep}{path}" if path else str(src)
            )
        return env

    def add_worker(
        self, extra_args: _t.Optional[_t.Sequence[str]] = None
    ) -> subprocess.Popen:
        """Attach one more worker (elastic join, also usable
        mid-campaign)."""
        name = f"{self.name_prefix}{self._spawned}"
        self._spawned += 1
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.distributed.worker",
                "--connect",
                self.endpoint,
                "--name",
                name,
                *(self.extra_args if extra_args is None
                  else list(extra_args)),
            ],
            env=self._worker_env(),
        )
        self.processes.append(process)
        self.by_name[name] = process
        return process

    def kill_worker(self, position: int = 0) -> None:
        """SIGKILL one worker (fault-injection for the backend itself)."""
        self.processes[position].kill()

    def replace_worker(self, name: str) -> _t.Optional[subprocess.Popen]:
        """Terminate the named worker (it may be hung, not just dead)
        and spawn a fresh one; no-op for names we did not spawn."""
        process = self.by_name.get(name)
        if process is None:
            return None
        if process.poll() is None:
            process.terminate()
        return self.add_worker()

    def alive(self) -> int:
        return sum(1 for p in self.processes if p.poll() is None)

    def close(self, timeout: float = 5.0) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + timeout  # vp-lint: disable=VP005 - subprocess teardown, not model behavior
        for process in self.processes:
            remaining = max(0.0, deadline - time.monotonic())  # vp-lint: disable=VP005 - subprocess teardown, not model behavior
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DistributedExecutor(Executor):
    """The :class:`~repro.core.executors.Executor` facade over a
    coordinator (plus, by default, an auto-spawned loopback cluster).

    Drop-in behind ``make_executor(backend="distributed")``: batches go
    through :meth:`run_batch` exactly like the serial and pool
    backends, outcomes come back sorted by index, and every record is
    byte-identical to a serial run of the same specs (equivalence-test
    pinned, wall clock aside).  ``spawn_local=True`` (the default)
    brings up a :class:`LocalCluster` of ``workers`` processes on
    first use; with ``spawn_local=False`` the executor only serves its
    endpoint and any externally started worker —
    ``python -m repro.distributed.worker --connect host:port`` on
    another machine — can join, steal work, and leave at any time.
    """

    def __init__(
        self,
        platform: _t.Optional[str] = None,
        workers: _t.Optional[int] = None,
        retry: _t.Optional[RetryPolicy] = None,
        hard_timeout_s: _t.Optional[float] = None,
        chunk_size: _t.Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_dir: _t.Union[None, str, os.PathLike] = None,
        spawn_local: bool = True,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        announce: _t.Union[None, str, os.PathLike] = None,
        telemetry: _t.Optional["CampaignTelemetry"] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError("need at least one worker")
        if platform is not None:
            # Fail fast in the coordinator process on unknown keys
            # instead of surfacing a KeyError from every worker.
            from ..platforms import registry

            registry.get_platform(platform)
        self.platform = platform
        self.workers = workers or default_worker_count()
        self.spawn_local = spawn_local
        self.coordinator = Coordinator(
            retry=retry,
            host=host,
            port=port,
            chunk_size=chunk_size,
            hard_timeout_s=hard_timeout_s,
            heartbeat_s=heartbeat_s,
            lease_timeout_s=lease_timeout_s,
            shard_dir=shard_dir,
            expected_workers=self.workers,
            telemetry=telemetry,
        )
        if announce is not None:
            self.coordinator.announce(announce)
        self._cluster: _t.Optional[LocalCluster] = None
        self._closed = False
        # The pool backend rebuilds its ProcessPoolExecutor after a
        # crash; the loopback cluster's analogue is respawning a
        # replacement worker whenever the coordinator declares one
        # dead — so a poison spec burns its retry budget against fresh
        # workers instead of draining the cluster to zero.
        self.coordinator.on_worker_dead = self._replace_dead_worker

    # -- campaign integration ------------------------------------------------

    @property
    def endpoint(self) -> str:
        return self.coordinator.endpoint

    @property
    def telemetry(self) -> _t.Optional["CampaignTelemetry"]:
        return self.coordinator.telemetry

    @telemetry.setter
    def telemetry(self, value: _t.Optional["CampaignTelemetry"]) -> None:
        self.coordinator.telemetry = value

    def bind_campaign_key(self, key: dict) -> None:
        """Called by ``Campaign.run`` with the checkpoint identity so
        shard journals carry the same header a serial journal would."""
        self.coordinator.bind_campaign_key(key)

    def shard_paths(self) -> _t.List[pathlib.Path]:
        return self.coordinator.shard_paths()

    @property
    def workers_lost(self) -> int:
        return self.coordinator.workers_lost

    @property
    def leases_granted(self) -> int:
        return self.coordinator.leases_granted

    # -- execution -----------------------------------------------------------

    def _ensure_cluster(self) -> None:
        if self.spawn_local and self._cluster is None:
            self._cluster = LocalCluster(
                self.coordinator.endpoint, workers=self.workers
            )

    def _replace_dead_worker(self, name: str, reason: str) -> None:
        cluster = self._cluster
        if self._closed or cluster is None:
            return
        if cluster.replace_worker(name) is None and (
            cluster.alive() < self.workers
        ):
            # Not one of ours (an externally attached worker died):
            # only top the cluster back up if it is actually short.
            cluster.add_worker()

    def run_batch(self, specs: _t.Sequence[RunSpec]) -> _t.List[RunOutcome]:
        for spec in specs:
            if spec.platform is None:
                raise ValueError(
                    f"run {spec.index}: spec has no platform registry "
                    f"key; distributed execution requires a campaign "
                    f"built with platform=<name>"
                )
        self._ensure_cluster()
        return self.coordinator.submit(specs)

    def close(self) -> None:
        self._closed = True
        self.coordinator.close()
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None
