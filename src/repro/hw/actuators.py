"""Actuator models.

Actuators are where errors become *hazards*: the paper's CAPS example
demands that "the failure of any system component does not trigger the
airbag in normal operation" (Sec. 1).  Each actuator therefore records
a precise, timestamped activation history that the campaign classifier
inspects to decide whether a run was safe.
"""

from __future__ import annotations

import typing as _t

from ..kernel import Module
from ..tlm import GenericPayload, Response, TargetSocket


class Squib(Module):
    """An airbag igniter with an arm/fire interlock.

    TLM register map (word access):

    * ``0x0`` ARM   — write the key ``0xA55A`` to arm; anything else disarms.
    * ``0x4`` FIRE  — write the key ``0x5AA5`` while armed to deploy.
    * ``0x8`` STATUS — read: bit0 armed, bit1 fired.

    Deployment latches: once fired the squib stays fired (pyrotechnics
    are not reversible), which is exactly why a spurious deployment is
    a hazardous failure.
    """

    ARM_KEY = 0xA55A
    FIRE_KEY = 0x5AA5
    STATE = ("armed", "fired", "fire_time", "arm_time", "spurious_commands")

    def __init__(self, name: str, parent: Module, arm_timeout: int = 0):
        super().__init__(name, parent=parent)
        self.armed = False
        self.fired = False
        self.fire_time: _t.Optional[int] = None
        self.arm_time: _t.Optional[int] = None
        self.arm_timeout = arm_timeout  # 0 = never auto-disarm
        self.spurious_commands = 0
        self.tsock = TargetSocket(self, "tsock", self)
        self.fired_event = self.event("fired")

    def b_transport(self, payload: GenericPayload, delay: int) -> int:
        if payload.address % 4 or len(payload.data) != 4:
            payload.set_error(Response.BURST_ERROR)
            return delay
        if payload.command.value == "read":
            if payload.address == 0x8:
                payload.word = int(self.armed) | (int(self.fired) << 1)
                payload.set_ok()
            else:
                payload.set_error(Response.ADDRESS_ERROR)
            return delay + 5
        if payload.command.value != "write":
            payload.set_ok()
            return delay
        value = payload.word
        if payload.address == 0x0:
            if value == self.ARM_KEY:
                self.armed = True
                self.arm_time = self.sim.now
            else:
                self.armed = False
            payload.set_ok()
        elif payload.address == 0x4:
            if value == self.FIRE_KEY:
                if self.armed and self._arm_window_open():
                    self._fire()
                else:
                    self.spurious_commands += 1
            else:
                self.spurious_commands += 1
            payload.set_ok()
        else:
            payload.set_error(Response.ADDRESS_ERROR)
        return delay + 5

    def _arm_window_open(self) -> bool:
        if not self.arm_timeout or self.arm_time is None:
            return True
        return self.sim.now - self.arm_time <= self.arm_timeout

    def _fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        self.fire_time = self.sim.now
        self.fired_event.notify(0)


class ServoMotor(Module):
    """A position servo with slew-rate limiting and load modeling.

    The commanded position (a register write, in millidegrees) is
    tracked at ``slew_rate`` units/ms.  ``external_load`` models the
    mission-profile "steering against a curbstone" state: above
    ``stall_load`` the servo stops moving and overcurrent accumulates —
    sustained overcurrent is a detected failure a real driver IC reports.
    """

    STATE = (
        "command", "position", "external_load", "stall_periods",
        "overcurrent_fault", "position_log",
    )

    def __init__(
        self,
        name: str,
        parent: Module,
        slew_rate: float = 50.0,  # position units per millisecond
        update_period: int = 1_000_000,  # 1 ms
        stall_load: float = 10.0,
        overcurrent_limit: int = 20,  # update periods at stall
    ):
        super().__init__(name, parent=parent)
        self.slew_rate = slew_rate
        self.update_period = update_period
        self.stall_load = stall_load
        self.overcurrent_limit = overcurrent_limit
        self.command = 0.0
        self.position = 0.0
        self.external_load = 0.0
        self.stall_periods = 0
        self.overcurrent_fault = False
        self.position_log: _t.List[_t.Tuple[int, float]] = []
        self.tsock = TargetSocket(self, "tsock", self)
        self.process(self._track, name="servo")

    def b_transport(self, payload: GenericPayload, delay: int) -> int:
        if payload.address % 4 or len(payload.data) != 4:
            payload.set_error(Response.BURST_ERROR)
            return delay
        if payload.command.value == "write" and payload.address == 0x0:
            # Command in signed millidegrees.
            raw = payload.word
            self.command = float(raw - (1 << 32) if raw & 0x80000000 else raw)
            payload.set_ok()
        elif payload.command.value == "read" and payload.address == 0x4:
            payload.word = int(self.position) & 0xFFFFFFFF
            payload.set_ok()
        elif payload.command.value == "read" and payload.address == 0x8:
            payload.word = int(self.overcurrent_fault)
            payload.set_ok()
        else:
            payload.set_error(Response.ADDRESS_ERROR)
        return delay + 5

    def _track(self):
        while True:
            yield self.update_period
            step = self.slew_rate * (self.update_period / 1e6)
            stalled = self.external_load >= self.stall_load
            if stalled and self.command != self.position:
                self.stall_periods += 1
                if self.stall_periods >= self.overcurrent_limit:
                    self.overcurrent_fault = True
            else:
                self.stall_periods = max(0, self.stall_periods - 1)
                delta = self.command - self.position
                if abs(delta) <= step:
                    self.position = self.command
                else:
                    self.position += step if delta > 0 else -step
            self.position_log.append((self.sim.now, self.position))


class BrakeActuator(Module):
    """A brake pressure actuator with a rate limit and a demand log.

    Used by the adaptive-cruise example: the classifier checks both the
    *value* (pressure within bounds) and the *timing* (demand applied
    within the deadline) of every brake command — the paper's "right
    value at the wrong time" criterion.
    """

    def __init__(
        self,
        name: str,
        parent: Module,
        max_pressure: float = 100.0,
        rate_per_ms: float = 20.0,
        update_period: int = 1_000_000,
    ):
        super().__init__(name, parent=parent)
        self.max_pressure = max_pressure
        self.rate_per_ms = rate_per_ms
        self.update_period = update_period
        self.demand = 0.0
        self.pressure = 0.0
        self.demand_log: _t.List[_t.Tuple[int, float]] = []
        self.tsock = TargetSocket(self, "tsock", self)
        self.process(self._track, name="hydraulics")

    def b_transport(self, payload: GenericPayload, delay: int) -> int:
        if payload.command.value == "write" and payload.address == 0x0:
            demand = payload.word / 100.0  # fixed-point percent
            self.demand = min(max(demand, 0.0), self.max_pressure)
            self.demand_log.append((self.sim.now, self.demand))
            payload.set_ok()
        elif payload.command.value == "read" and payload.address == 0x4:
            payload.word = int(self.pressure * 100)
            payload.set_ok()
        else:
            payload.set_error(Response.ADDRESS_ERROR)
        return delay + 5

    def _track(self):
        while True:
            yield self.update_period
            step = self.rate_per_ms * (self.update_period / 1e6)
            delta = self.demand - self.pressure
            if abs(delta) <= step:
                self.pressure = self.demand
            else:
                self.pressure += step if delta > 0 else -step
