"""TLM-2.0-style generic payload.

The generic payload is the lingua franca of the virtual prototype: every
bus transaction — CPU load/store, DMA, CAN register access — travels as a
:class:`GenericPayload`.  Keeping the attribute set close to IEEE 1666
(command, address, data, byte enables, response status, DMI hint,
extensions) means models written against this layer translate directly
to/from real SystemC ones.

Fault relevance: transaction interceptors (``repro.core.injector``)
corrupt payloads in flight, so the payload also records an
``injected`` audit trail used by error-propagation tracking.
"""

from __future__ import annotations

import enum
import typing as _t


class Command(enum.Enum):
    """Transaction direction."""

    READ = "read"
    WRITE = "write"
    IGNORE = "ignore"


class Response(enum.Enum):
    """Transaction completion status, ordered roughly by severity."""

    INCOMPLETE = "incomplete"
    OK = "ok"
    ADDRESS_ERROR = "address_error"
    COMMAND_ERROR = "command_error"
    BURST_ERROR = "burst_error"
    BYTE_ENABLE_ERROR = "byte_enable_error"
    GENERIC_ERROR = "generic_error"

    @property
    def is_error(self) -> bool:
        return self not in (Response.OK, Response.INCOMPLETE)


#: Members bound once for the transport hot path.  On Python 3.11 every
#: ``Command.X`` / ``Response.X`` lookup goes through
#: ``EnumType.__getattr__``, about ten times the cost of a global load.
#: Targets import ``READ``/``WRITE`` from :mod:`repro.tlm` to compare
#: ``payload.command`` by identity.
READ, WRITE = Command.READ, Command.WRITE
_OK, _INCOMPLETE = Response.OK, Response.INCOMPLETE


class GenericPayload:
    """A memory-mapped bus transaction.

    ``data`` is a :class:`bytearray` so targets can fill read responses
    in place.  ``extensions`` carries protocol- or tool-specific side
    information (the CAN model and the fault tracker both use it).
    """

    __slots__ = (
        "command",
        "address",
        "data",
        "byte_enable",
        "streaming_width",
        "response",
        "dmi_allowed",
        "extensions",
        "injected",
    )

    def __init__(
        self,
        command: Command = Command.IGNORE,
        address: int = 0,
        data: _t.Optional[bytearray] = None,
        byte_enable: _t.Optional[bytes] = None,
        streaming_width: int = 0,
    ):
        self.command = command
        self.address = address
        self.data = bytearray() if data is None else data
        self.byte_enable = byte_enable
        self.streaming_width = streaming_width or len(self.data)
        self.response = _INCOMPLETE
        self.dmi_allowed = False
        self.extensions: dict = {}
        #: Names of injectors that touched this transaction (audit trail).
        self.injected: list = []

    # -- constructors ---------------------------------------------------

    @classmethod
    def read(cls, address: int, length: int) -> "GenericPayload":
        """A read request for *length* bytes at *address*."""
        return cls(READ, address, bytearray(length))

    @classmethod
    def write(cls, address: int, data: _t.Union[bytes, bytearray]) -> "GenericPayload":
        """A write request carrying *data* to *address*."""
        return cls(WRITE, address, bytearray(data))

    # -- word helpers (little-endian, as the ISS expects) ----------------

    @classmethod
    def read_word(cls, address: int, width: int = 4) -> "GenericPayload":
        return cls(READ, address, bytearray(width))

    @classmethod
    def write_word(cls, address: int, value: int, width: int = 4) -> "GenericPayload":
        return cls(
            WRITE, address, bytearray(value.to_bytes(width, "little"))
        )

    @property
    def word(self) -> int:
        """The data interpreted as a little-endian unsigned integer."""
        return int.from_bytes(self.data, "little")

    @word.setter
    def word(self, value: int) -> None:
        self.data[:] = value.to_bytes(len(self.data), "little")

    # -- status helpers ---------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.response is _OK

    def set_ok(self) -> None:
        self.response = _OK

    def set_error(self, response: Response = Response.GENERIC_ERROR) -> None:
        if not response.is_error:
            raise ValueError(f"{response} is not an error response")
        self.response = response

    def clone(self) -> "GenericPayload":
        """Deep-enough copy for monitors (data buffer is copied)."""
        copy = GenericPayload(
            self.command,
            self.address,
            bytearray(self.data),
            self.byte_enable,
            self.streaming_width,
        )
        copy.response = self.response
        copy.dmi_allowed = self.dmi_allowed
        copy.extensions = dict(self.extensions)
        copy.injected = list(self.injected)
        return copy

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GenericPayload({self.command.value} @0x{self.address:x} "
            f"len={len(self.data)} {self.response.value})"
        )
