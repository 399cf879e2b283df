"""Peripheral register files.

A :class:`RegisterFile` is a TLM target holding named, word-wide
registers with optional bit fields, reset values, and access permissions
— the standard shape of a memory-mapped peripheral.  Registers are a
prime fault-injection location ("erroneous data in arbitrary components,
such as registers", Sec. 1), so the file registers a
:class:`RegisterInjectionPoint` with bit-flip and stuck-at support.
"""

from __future__ import annotations

import typing as _t

from ..kernel import Module
from ..tlm import READ, WRITE, GenericPayload, Response, TargetSocket


class Field:
    """A named bit slice ``[lsb, lsb+width)`` of a register."""

    __slots__ = ("name", "lsb", "width")

    def __init__(self, name: str, lsb: int, width: int = 1):
        if lsb < 0 or width < 1 or lsb + width > 32:
            raise ValueError(f"field {name!r} out of 32-bit range")
        self.name = name
        self.lsb = lsb
        self.width = width

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.lsb

    def extract(self, value: int) -> int:
        return (value & self.mask) >> self.lsb

    def insert(self, value: int, field_value: int) -> int:
        if field_value >> self.width:
            raise ValueError(
                f"value {field_value:#x} too wide for field {self.name!r}"
            )
        return (value & ~self.mask) | (field_value << self.lsb)


class Register:
    """One 32-bit register with stuck-bit fault support."""

    def __init__(
        self,
        name: str,
        offset: int,
        reset: int = 0,
        writable: bool = True,
        fields: _t.Sequence[Field] = (),
        on_write: _t.Optional[_t.Callable[[int, int], None]] = None,
        on_read: _t.Optional[_t.Callable[[], _t.Optional[int]]] = None,
    ):
        self.name = name
        self.offset = offset
        self.reset = reset & 0xFFFFFFFF
        self.writable = writable
        self.fields = {f.name: f for f in fields}
        self.on_write = on_write
        self.on_read = on_read
        self._value = self.reset
        # Stuck-at masks applied on every read: value = (v | set) & ~clear
        self._stuck_set = 0
        self._stuck_clear = 0

    @property
    def value(self) -> int:
        raw = self._value
        if self.on_read is not None:
            live = self.on_read()
            if live is not None:
                raw = live & 0xFFFFFFFF
        return (raw | self._stuck_set) & ~self._stuck_clear & 0xFFFFFFFF

    @value.setter
    def value(self, new: int) -> None:
        old = self._value
        self._value = new & 0xFFFFFFFF
        if self.on_write is not None:
            self.on_write(old, self._value)

    def field(self, name: str) -> int:
        return self.fields[name].extract(self.value)

    def set_field(self, name: str, field_value: int) -> None:
        self.value = self.fields[name].insert(self.value, field_value)

    def reset_value(self) -> None:
        self._value = self.reset

    # -- fault hooks ---------------------------------------------------------

    def flip_bit(self, bit: int) -> None:
        if not 0 <= bit < 32:
            raise ValueError(f"bit out of range: {bit}")
        self._value ^= 1 << bit

    def stuck_at(self, bit: int, level: int) -> None:
        """Force *bit* to read as *level* until :meth:`clear_stuck`."""
        mask = 1 << bit
        if level:
            self._stuck_set |= mask
            self._stuck_clear &= ~mask
        else:
            self._stuck_clear |= mask
            self._stuck_set &= ~mask

    def clear_stuck(self) -> None:
        self._stuck_set = 0
        self._stuck_clear = 0


class RegisterInjectionPoint:
    """Injector-facing view of a register file."""

    def __init__(self, name: str, registers: _t.Dict[int, Register]):
        self.name = name
        self.kind = "register"
        self._by_offset = registers

    @property
    def offsets(self) -> _t.List[int]:
        return sorted(self._by_offset)

    def flip(self, offset: int, bit: int) -> None:
        self._by_offset[offset].flip_bit(bit)

    def stuck_at(self, offset: int, bit: int, level: int) -> None:
        self._by_offset[offset].stuck_at(bit, level)

    def clear_stuck(self, offset: int) -> None:
        self._by_offset[offset].clear_stuck()

    def peek(self, offset: int) -> int:
        return self._by_offset[offset].value

    def poke(self, offset: int, value: int) -> None:
        self._by_offset[offset].value = value


class RegisterFile(Module):
    """A TLM-addressable bank of :class:`Register`."""

    def __init__(self, name: str, parent: Module, access_latency: int = 5):
        super().__init__(name, parent=parent)
        self.access_latency = access_latency
        self._by_offset: _t.Dict[int, Register] = {}
        self._by_name: _t.Dict[str, Register] = {}
        self.tsock = TargetSocket(self, "tsock", self)
        self._injection_point = RegisterInjectionPoint(
            f"{self.full_name}.regs", self._by_offset
        )
        self.register_injection_point("regs", self._injection_point)

    def add(self, register: Register) -> Register:
        if register.offset % 4:
            raise ValueError("register offsets must be word aligned")
        if register.offset in self._by_offset:
            raise ValueError(f"offset {register.offset:#x} already used")
        if register.name in self._by_name:
            raise ValueError(f"register name {register.name!r} already used")
        self._by_offset[register.offset] = register
        self._by_name[register.name] = register
        return register

    def __getitem__(self, name: str) -> Register:
        return self._by_name[name]

    @property
    def span(self) -> int:
        """Byte span needed when mapping this file onto a router."""
        if not self._by_offset:
            return 4
        return max(self._by_offset) + 4

    def reset(self) -> None:
        for register in self._by_offset.values():
            register.reset_value()

    # -- TLM target interface ---------------------------------------------

    def b_transport(self, payload: GenericPayload, delay: int) -> int:
        if payload.address % 4 or len(payload.data) != 4:
            payload.set_error(Response.BURST_ERROR)
            return delay
        register = self._by_offset.get(payload.address)
        if register is None:
            payload.set_error(Response.ADDRESS_ERROR)
            return delay
        if payload.command is READ:
            payload.word = register.value
            payload.set_ok()
        elif payload.command is WRITE:
            if not register.writable:
                payload.set_error(Response.COMMAND_ERROR)
                return delay + self.access_latency
            register.value = payload.word
            payload.set_ok()
        else:
            payload.set_ok()
        return delay + self.access_latency

    def at_latency(self, payload: GenericPayload) -> _t.Tuple[int, int]:
        return (self.access_latency, 0)
