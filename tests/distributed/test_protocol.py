"""Wire-protocol unit tests: framing, validation, spec codecs, discovery.

Everything here runs without workers or multicore — a socketpair is
enough to exercise framing, and the RunSpec/RunOutcome JSON round trip
is pure data plumbing.
"""

import json
import socket
import struct

import pytest

from repro.core.runspec import RunSpec
from repro.core.scenario import ErrorScenario, PlannedInjection
from repro.distributed import (
    DEFAULT_ENDPOINT_FILE,
    ENDPOINT_ENV,
    DiscoveryError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    PeerGone,
    ProtocolError,
    read_endpoint,
    recv_frame,
    resolve_endpoint,
    send_frame,
    write_endpoint,
)
from repro.distributed import protocol
from repro.faults import SRAM_SEU


def spec(index=0, **overrides):
    injection = PlannedInjection(
        time=5000, target_path="sensor.raw", descriptor=SRAM_SEU
    )
    fields = dict(
        index=index,
        scenario=ErrorScenario(name=f"s{index}", injections=[injection]),
        run_seed=41 + index,
        duration=60_000,
        platform="airbag-normal",
        golden={"deployed": False, "code": "0x0"},
        deadline_s=1.5,
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestFraming:
    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, protocol.hello("w0"))
            message = recv_frame(right)
        finally:
            left.close()
            right.close()
        assert message["type"] == "hello"
        assert message["version"] == PROTOCOL_VERSION
        assert message["name"] == "w0"

    def test_frames_are_inspectable_json(self):
        frame = protocol.encode_frame(protocol.idle(0.25))
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:].decode("utf-8")) == {
            "retry_after_s": 0.25,
            "type": "idle",
        }

    def test_eof_raises_peer_gone(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(PeerGone):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_payload_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_payload(b"\xff\xfe not json")

    def test_untyped_payload_rejected(self):
        with pytest.raises(ProtocolError, match="typed"):
            protocol.decode_payload(b'{"no_type": 1}')


class TestHelloValidation:
    def test_valid_hello_returns_name(self):
        assert protocol.check_hello(protocol.hello("worker-3")) == "worker-3"

    def test_version_mismatch_rejected(self):
        message = protocol.hello("w")
        message["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            protocol.check_hello(message)

    def test_schema_mismatch_rejected(self):
        message = protocol.hello("w")
        message["schema"] = -1
        with pytest.raises(ProtocolError, match="schema"):
            protocol.check_hello(message)

    def test_nameless_hello_rejected(self):
        message = protocol.hello("w")
        message["name"] = ""
        with pytest.raises(ProtocolError, match="name"):
            protocol.check_hello(message)


class TestSpecCodec:
    def test_runspec_round_trips_through_json(self):
        original = spec()
        # Through *serialized* JSON, as the wire does — tuples become
        # lists and back, which is the part worth pinning.
        restored = RunSpec.from_jsonable(
            json.loads(json.dumps(original.to_jsonable()))
        )
        assert restored == original

    def test_lease_frame_carries_jsonable_specs(self):
        specs = [spec(0), spec(1)]
        message = protocol.lease(7, specs)
        assert message["lease_id"] == 7
        restored = [
            RunSpec.from_jsonable(payload) for payload in message["specs"]
        ]
        assert restored == specs

    def test_attempt_and_reuse_flags_survive(self):
        original = spec(attempt=2, reuse_platform=True)
        restored = RunSpec.from_jsonable(original.to_jsonable())
        assert restored.attempt == 2
        assert restored.reuse_platform is True


class TestDiscovery:
    def test_parse_endpoint(self):
        from repro.distributed.discovery import parse_endpoint

        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_endpoint("[::1]:80") == ("::1", 80)
        for bad in ("nohost", "host:", "host:notaport", "host:0", ":9"):
            with pytest.raises(DiscoveryError):
                parse_endpoint(bad)

    def test_endpoint_file_round_trip(self, tmp_path):
        path = tmp_path / DEFAULT_ENDPOINT_FILE
        write_endpoint(path, "10.0.0.5", 4242)
        assert read_endpoint(path) == ("10.0.0.5", 4242)

    def test_resolution_precedence(self, tmp_path, monkeypatch):
        path = tmp_path / "endpoint"
        write_endpoint(path, "filehost", 1111)
        monkeypatch.setenv(ENDPOINT_ENV, "envhost:2222")
        assert resolve_endpoint("explicit:3333", path) == ("explicit", 3333)
        assert resolve_endpoint(None, path) == ("envhost", 2222)
        monkeypatch.delenv(ENDPOINT_ENV)
        assert resolve_endpoint(None, path) == ("filehost", 1111)

    def test_nothing_to_resolve_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        with pytest.raises(DiscoveryError, match="no coordinator"):
            resolve_endpoint(None, tmp_path / "absent")


class TestMalformedResultFrame:
    def test_sender_is_declared_lost_at_once(self, monkeypatch):
        """A result frame whose outcome does not decode is a protocol
        error: the coordinator drops the worker immediately instead of
        leaving it registered until the lease timeout."""
        import threading
        import time

        from repro.distributed.coordinator import Coordinator

        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        coordinator = Coordinator(lease_timeout_s=15.0)
        sock = socket.create_connection((coordinator.host, coordinator.port))
        try:
            send_frame(sock, protocol.hello("raw"))
            assert recv_frame(sock)["type"] == "welcome"
            send_frame(sock, {"type": "result", "outcome": {"index": 0}})
            deadline = time.monotonic() + 2.0
            while coordinator.workers_lost == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert coordinator.workers_lost == 1
        finally:
            sock.close()
            coordinator.close()
        assert uncaught == []
