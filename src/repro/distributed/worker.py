"""Worker agent of the distributed campaign backend.

``python -m repro.distributed.worker --connect HOST:PORT`` attaches to
a coordinator, pulls leases, executes them through the same tolerant
batch routine the process-pool backend ships to its workers
(:func:`~repro.core.runspec.execute_chunk_tolerant` — one run at a
time, or the whole lease when it carries fork-mode specs), and
streams one ``result`` frame back per completed run.  Streaming —
rather than returning the lease as one block — is what gives the
coordinator run-granular failure attribution: when this process dies
mid-lease, every already-streamed outcome is safe, and only genuinely
unexecuted runs requeue.

Identical execution code on every backend is the point: a worker on
another host builds its platform from the spec's registry key, keeps
the same per-process warm-platform cache, applies the same per-run
deadline handling, and produces records byte-identical to an
in-process serial run — the equivalence the distributed tests pin.

A background daemon thread heartbeats at the cadence the coordinator
announced in its welcome frame, so liveness detection keeps working
while the main thread is deep inside a long simulation.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
import typing as _t

from ..core.runspec import RunSpec, execute_chunk_tolerant
from . import protocol
from .discovery import parse_endpoint, resolve_endpoint


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    interval_s: float,
    stop: threading.Event,
) -> None:
    while not stop.wait(interval_s):
        try:
            with send_lock:
                protocol.send_frame(sock, protocol.heartbeat())
        except OSError:
            return


def _execute_lease(specs: _t.Sequence[RunSpec]) -> _t.Iterator:
    """Yield outcomes for one lease, in lease (grant) order.

    Fork-mode leases must run as a group (the snapshot amortization is
    the whole point of fork specs), so their results arrive after the
    group completes; everything else streams run by run.
    """
    if any(spec.fork for spec in specs):
        yield from execute_chunk_tolerant(specs)
    else:
        for spec in specs:
            yield from execute_chunk_tolerant([spec])


def run_worker(
    endpoint: str,
    name: _t.Optional[str] = None,
    max_leases: _t.Optional[int] = None,
    heartbeat_s: _t.Optional[float] = None,
) -> int:
    """Serve one coordinator until shutdown; returns an exit status.

    ``max_leases`` bounds how many leases this worker serves before
    sending a clean ``leave`` — the elastic-departure path (and the
    lever tests use to exercise it).  A vanished coordinator is a
    normal end of service, not an error: campaigns own their workers'
    lifetime, so the agent exits 0.
    """
    host, port = parse_endpoint(endpoint)
    worker_name = name or f"worker-{socket.gethostname()}-{os.getpid()}"
    sock = socket.create_connection((host, port))
    send_lock = threading.Lock()
    stop = threading.Event()
    beat: _t.Optional[threading.Thread] = None
    leases_served = 0
    try:
        with send_lock:
            protocol.send_frame(sock, protocol.hello(worker_name))
        welcome = protocol.recv_frame(sock)
        if welcome.get("type") != "welcome":
            raise protocol.ProtocolError(
                f"expected welcome, got {welcome.get('type')!r}"
            )
        interval = (
            heartbeat_s
            if heartbeat_s is not None
            else float(welcome["heartbeat_s"])
        )
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(sock, send_lock, interval, stop),
            name="repro-dist-heartbeat",
            daemon=True,
        )
        beat.start()
        while True:
            if max_leases is not None and leases_served >= max_leases:
                with send_lock:
                    protocol.send_frame(sock, protocol.leave())
                return 0
            with send_lock:
                protocol.send_frame(sock, protocol.request())
            message = protocol.recv_frame(sock)
            kind = message["type"]
            if kind == "shutdown":
                return 0
            if kind == "idle":
                time.sleep(max(0.0, float(message["retry_after_s"])))
                continue
            if kind != "lease":
                raise protocol.ProtocolError(
                    f"unexpected frame type {kind!r} from coordinator"
                )
            specs = [
                RunSpec.from_jsonable(payload)
                for payload in message["specs"]
            ]
            lease_id = message["lease_id"]
            for outcome in _execute_lease(specs):
                with send_lock:
                    protocol.send_frame(
                        sock, protocol.result(lease_id, outcome)
                    )
            leases_served += 1
    except (protocol.PeerGone, ConnectionError, OSError):
        return 0
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed.worker",
        description=(
            "Campaign worker agent: pulls fault-injection runs from a "
            "repro.distributed coordinator and streams results back."
        ),
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help=(
            "coordinator endpoint; defaults to $REPRO_COORDINATOR or "
            "the .repro-coordinator endpoint file in the working "
            "directory"
        ),
    )
    parser.add_argument(
        "--name",
        help="worker name (shard namespace and telemetry attribution)",
    )
    parser.add_argument(
        "--max-leases",
        type=int,
        default=None,
        help="serve this many leases, then leave cleanly",
    )
    parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=None,
        help="override the coordinator-announced heartbeat cadence",
    )
    args = parser.parse_args(argv)
    host, port = resolve_endpoint(args.connect)
    return run_worker(
        f"{host}:{port}",
        name=args.name,
        max_leases=args.max_leases,
        heartbeat_s=args.heartbeat_s,
    )


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    raise SystemExit(main())
