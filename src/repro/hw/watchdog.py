"""Windowed watchdog timer.

The watchdog is the archetypal *temporal* protection mechanism: it
converts "the software stopped making progress" (a timing failure) into
a detected, recoverable reset.  A *windowed* watchdog additionally
rejects kicks that arrive too early — catching runaway code that spins
through the kick sequence.

TLM register map:

* ``0x0`` KICK    — write the key ``0xW0F`` pattern (``0xF00D``) to service.
* ``0x4`` CONTROL — bit0 enable.
* ``0x8`` STATUS  — read: bit0 enabled, bit1 timeout-latched.
"""

from __future__ import annotations

import typing as _t

from ..kernel import Module
from ..observe.hooks import emit_detection
from ..tlm import GenericPayload, Response, TargetSocket

KICK_KEY = 0xF00D


class Watchdog(Module):
    """Windowed watchdog with a timeout callback.

    Parameters
    ----------
    timeout:
        Time units after a valid kick before the dog bites.
    window_min:
        Kicks earlier than this after the previous valid kick are
        themselves a violation (0 disables the early window).
    on_timeout:
        ``fn()`` invoked on every bite (e.g. platform reset hook).
    """

    #: Mechanism vocabulary this component reports through
    #: :func:`repro.observe.hooks.emit_detection`; the static
    #: reachability analyzer (`repro.analyze.reach`) discovers
    #: detectors from this declaration.
    DETECTION_MECHANISMS = ("watchdog",)
    STATE = (
        "enabled", "last_kick", "timeouts", "early_kicks", "bad_key_kicks",
        "timeout_latched",
    )

    def __init__(
        self,
        name: str,
        parent: Module,
        timeout: int,
        window_min: int = 0,
        on_timeout: _t.Optional[_t.Callable[[], None]] = None,
    ):
        super().__init__(name, parent=parent)
        if timeout <= 0:
            raise ValueError("watchdog timeout must be positive")
        if window_min >= timeout:
            raise ValueError("window_min must be below timeout")
        self.timeout = timeout
        self.window_min = window_min
        self.on_timeout = on_timeout
        self.enabled = False
        self.last_kick: _t.Optional[int] = None
        self.timeouts = 0
        self.early_kicks = 0
        self.bad_key_kicks = 0
        self.timeout_latched = False
        self.bite_event = self.event("bite")
        self.tsock = TargetSocket(self, "tsock", self)
        self.process(self._guard, name="guard")

    # -- TLM interface -------------------------------------------------------

    def b_transport(self, payload: GenericPayload, delay: int) -> int:
        if payload.address % 4 or len(payload.data) != 4:
            payload.set_error(Response.BURST_ERROR)
            return delay
        if payload.command.value == "write":
            if payload.address == 0x0:
                self._kick(payload.word)
                payload.set_ok()
            elif payload.address == 0x4:
                self._set_enabled(bool(payload.word & 1))
                payload.set_ok()
            else:
                payload.set_error(Response.ADDRESS_ERROR)
        elif payload.command.value == "read":
            if payload.address == 0x8:
                payload.word = int(self.enabled) | (
                    int(self.timeout_latched) << 1
                )
                payload.set_ok()
            else:
                payload.set_error(Response.ADDRESS_ERROR)
        else:
            payload.set_ok()
        return delay + 5

    # -- behaviour ---------------------------------------------------------

    def _set_enabled(self, enabled: bool) -> None:
        self.enabled = enabled
        if enabled:
            self.last_kick = self.sim.now

    def _kick(self, key: int) -> None:
        if not self.enabled:
            return
        if key != KICK_KEY:
            self.bad_key_kicks += 1
            self._bite()
            return
        if (
            self.window_min
            and self.last_kick is not None
            and self.sim.now - self.last_kick < self.window_min
        ):
            self.early_kicks += 1
            self._bite()
            return
        self.last_kick = self.sim.now

    def _bite(self) -> None:
        self.timeouts += 1
        self.timeout_latched = True
        emit_detection(self, "watchdog", "bite")
        self.bite_event.notify(0)
        if self.on_timeout is not None:
            self.on_timeout()
        # Restart the window so recovery code gets a full period.
        self.last_kick = self.sim.now

    def _guard(self):
        while True:
            if not self.enabled or self.last_kick is None:
                yield self.timeout
                continue
            elapsed = self.sim.now - self.last_kick
            if elapsed >= self.timeout:
                self._bite()
                yield self.timeout
            else:
                yield self.timeout - elapsed
