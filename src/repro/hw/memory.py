"""Memory models: plain RAM and ECC-protected RAM.

Both are TLM targets.  The plain :class:`Memory` stores raw bytes and is
the fastest possible target (it also grants DMI).  :class:`EccMemory`
keeps a SEC-DED codeword per byte; bit flips injected into the codeword
array are corrected, detected, or — for triple+ flips — silently escape,
reproducing the fault/error/failure chain the campaigns classify.

Each memory registers an injection point (``array`` / ``codewords``)
implementing the :class:`MemoryInjectionPoint` protocol used by
``repro.core.injector.MemoryInjector``.
"""

from __future__ import annotations

import typing as _t

from ..kernel import Module
from ..observe.hooks import emit_detection
from ..tlm import DmiRegion, GenericPayload, Response, TargetSocket
from . import ecc


class MemoryInjectionPoint:
    """Bit-level access to a byte-addressed backing store.

    ``bits`` is the injectable width per cell: 8 for plain RAM, 13 for
    the ECC memory's codewords (parity bits are as upsettable as data
    bits).
    """

    def __init__(self, name: str, size: int, flip, peek, poke, bits: int = 8):
        self.name = name
        self.size = size
        self.bits = bits
        self.flip = flip  # fn(address, bit) -> None
        self.peek = peek  # fn(address) -> int
        self.poke = poke  # fn(address, value) -> None
        self.kind = "memory"


class Memory(Module):
    """Byte-addressable RAM with configurable access latency."""

    STATE = ("data", "reads", "writes")

    def __init__(
        self,
        name: str,
        parent: Module,
        size: int,
        read_latency: int = 20,
        write_latency: int = 20,
        dmi_allowed: bool = True,
    ):
        super().__init__(name, parent=parent)
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.data = bytearray(size)
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.dmi_allowed = dmi_allowed
        self.tsock = TargetSocket(self, "tsock", self)
        self.reads = 0
        self.writes = 0
        self.register_injection_point(
            "array",
            MemoryInjectionPoint(
                f"{self.full_name}.array",
                size,
                self._flip_bit,
                self._peek,
                self._poke,
            ),
        )

    # -- direct access (loader, injectors) ---------------------------------

    def load(self, address: int, data: _t.Union[bytes, bytearray]) -> None:
        """Bulk-initialise memory (program/data images)."""
        if address < 0 or address + len(data) > self.size:
            raise ValueError("load outside memory bounds")
        self.data[address : address + len(data)] = data

    def _peek(self, address: int) -> int:
        return self.data[address]

    def _poke(self, address: int, value: int) -> None:
        self.data[address] = value & 0xFF

    def _flip_bit(self, address: int, bit: int) -> None:
        if not 0 <= bit < 8:
            raise ValueError(f"bit index out of range: {bit}")
        self.data[address] ^= 1 << bit

    # -- TLM target interface ------------------------------------------------

    def b_transport(self, payload: GenericPayload, delay: int) -> int:
        length = len(payload.data)
        if payload.address < 0 or payload.address + length > self.size:
            payload.set_error(Response.ADDRESS_ERROR)
            return delay
        start = payload.address
        if payload.command.value == "read":
            payload.data[:] = self.data[start : start + length]
            self.reads += 1
            payload.dmi_allowed = self.dmi_allowed
            payload.set_ok()
            return delay + self.read_latency
        if payload.command.value == "write":
            if payload.byte_enable:
                for i, byte in enumerate(payload.data):
                    if payload.byte_enable[i % len(payload.byte_enable)]:
                        self.data[start + i] = byte
            else:
                self.data[start : start + length] = payload.data
            self.writes += 1
            payload.dmi_allowed = self.dmi_allowed
            payload.set_ok()
            return delay + self.write_latency
        payload.set_ok()  # IGNORE command: debug/probe access
        return delay

    def at_latency(self, payload: GenericPayload) -> _t.Tuple[int, int]:
        if payload.command.value == "write":
            return (self.write_latency // 2, self.write_latency - self.write_latency // 2)
        return (self.read_latency // 2, self.read_latency - self.read_latency // 2)

    def get_dmi(self, payload: GenericPayload) -> _t.Optional[DmiRegion]:
        if not self.dmi_allowed:
            return None
        return DmiRegion(
            0, self.size, self.data, self.read_latency, self.write_latency
        )


class EccMemory(Module):
    """SEC-DED protected RAM.

    Every byte is held as a 13-bit Hamming codeword (stored in a list of
    ints).  Reads decode and transparently correct single-bit upsets;
    uncorrectable errors complete the transaction with
    ``GENERIC_ERROR``, which the platform surfaces as a bus fault — a
    *detected* failure in the classification lattice.
    """

    #: See :data:`repro.hw.watchdog.Watchdog.DETECTION_MECHANISMS`.
    DETECTION_MECHANISMS = ("ecc",)
    STATE = (
        "codewords", "corrected_errors", "detected_errors", "reads", "writes",
    )

    def __init__(
        self,
        name: str,
        parent: Module,
        size: int,
        read_latency: int = 25,
        write_latency: int = 25,
    ):
        super().__init__(name, parent=parent)
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.codewords = [ecc.hamming_encode(0)] * size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.tsock = TargetSocket(self, "tsock", self)
        #: Counters exposed to the campaign classifier.
        self.corrected_errors = 0
        self.detected_errors = 0
        self.reads = 0
        self.writes = 0
        self.register_injection_point(
            "codewords",
            MemoryInjectionPoint(
                f"{self.full_name}.codewords",
                size,
                self._flip_bit,
                self._peek,
                self._poke,
                bits=13,
            ),
        )

    def load(self, address: int, data: _t.Union[bytes, bytearray]) -> None:
        if address < 0 or address + len(data) > self.size:
            raise ValueError("load outside memory bounds")
        for i, byte in enumerate(data):
            self.codewords[address + i] = ecc.hamming_encode(byte)

    def _peek(self, address: int) -> int:
        return ecc.hamming_decode(self.codewords[address]).data

    def _poke(self, address: int, value: int) -> None:
        self.codewords[address] = ecc.hamming_encode(value & 0xFF)

    def _flip_bit(self, address: int, bit: int) -> None:
        """Flip a *codeword* bit (0..12) — the raw-cell fault model."""
        if not 0 <= bit < 13:
            raise ValueError(f"codeword bit index out of range: {bit}")
        self.codewords[address] ^= 1 << bit

    def b_transport(self, payload: GenericPayload, delay: int) -> int:
        length = len(payload.data)
        if payload.address < 0 or payload.address + length > self.size:
            payload.set_error(Response.ADDRESS_ERROR)
            return delay
        start = payload.address
        if payload.command.value == "read":
            self.reads += 1
            decode = ecc.hamming_decode
            codewords = self.codewords
            for i in range(length):
                result = decode(codewords[start + i])
                if result.uncorrectable:
                    self.detected_errors += 1
                    emit_detection(self, "ecc", "uncorrectable")
                    payload.set_error(Response.GENERIC_ERROR)
                    return delay + self.read_latency
                if result.corrected:
                    self.corrected_errors += 1
                    emit_detection(self, "ecc", "corrected")
                    # Scrub: write the corrected codeword back.
                    self.codewords[start + i] = ecc.hamming_encode(result.data)
                payload.data[i] = result.data
            payload.set_ok()
            return delay + self.read_latency
        if payload.command.value == "write":
            self.writes += 1
            for i, byte in enumerate(payload.data):
                self.codewords[start + i] = ecc.hamming_encode(byte)
            payload.set_ok()
            return delay + self.write_latency
        payload.set_ok()
        return delay

    def at_latency(self, payload: GenericPayload) -> _t.Tuple[int, int]:
        lat = (
            self.write_latency
            if payload.command.value == "write"
            else self.read_latency
        )
        return (lat // 2, lat - lat // 2)
