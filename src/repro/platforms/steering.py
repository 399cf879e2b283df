"""Electric power steering virtual prototype.

Carries the paper's mission-profile example end to end (Sec. 3.2): the
operating state "steering against a curbstone" puts a high load on the
servo, and the vibration stress at the column mounting point raises the
probability of wiring faults (open load, short to ground) on the
position sensor.

The platform: a steering angle command source, a position sensor on
the servo shaft, a controller closing the loop, and the servo motor
with stall/overcurrent modeling.  The operating state chosen by the
campaign scenario sets the servo's external load.
"""

from __future__ import annotations

import typing as _t

from ..core import Classifier, Outcome
from ..hw import AdcSensor, RateChecker, ServoMotor
from ..hw.sensors import piecewise
from ..kernel import Module, Simulator, simtime
from ..mission import OperatingState
from ..tlm import GenericPayload

CONTROL_PERIOD = simtime.ms(2)
#: Position units the controller may command per cycle (rate limit).
MAX_STEP = 40.0


def parking_maneuver(duration: int) -> _t.Callable[[int], float]:
    """Commanded steering angle (millidegree-scale units) over time."""
    return piecewise(
        [
            (0, 0.0),
            (duration // 5, 300.0),
            (2 * duration // 5, 300.0),
            (3 * duration // 5, -300.0),
            (4 * duration // 5, 0.0),
        ]
    )


class SteeringController(Module):
    """Closed-loop position controller with plausibility checking."""

    STATE = (
        "detected_errors", "degraded_cycles", "tracking_error_sum", "cycles",
        "rate_checker.previous", "rate_checker.checks",
        "rate_checker.violations",
    )

    def __init__(
        self,
        name: str,
        parent: Module,
        command_source: _t.Callable[[int], float],
        position_sensor: AdcSensor,
        servo: ServoMotor,
    ):
        super().__init__(name, parent=parent)
        self.command_source = command_source
        self.position_sensor = position_sensor
        self.servo = servo
        # The servo slews at most 80 units/ms = 160 per 2 ms sample;
        # anything above that is physically implausible.
        self.rate_checker = RateChecker("position_rate", max_delta=180.0)
        self.detected_errors = 0
        self.degraded_cycles = 0
        self.tracking_error_sum = 0.0
        self.cycles = 0
        self.process(self._control, name="control")

    def _measured_position(self) -> float:
        code = self.position_sensor.output.read()
        volts = self.position_sensor.code_to_volts(code)
        # 2.5 V midpoint maps to 0; 1 V per 200 units.
        return (volts - 2.5) * 200.0

    def _control(self):
        while True:
            yield CONTROL_PERIOD
            self.cycles += 1
            target = self.command_source(self.sim.now)
            measured = self._measured_position()
            if not self.rate_checker.check(measured):
                # Implausible sensor jump: freeze output (safe state).
                self.detected_errors += 1
                self.degraded_cycles += 1
                continue
            if self.servo.overcurrent_fault:
                self.detected_errors += 1
                self.degraded_cycles += 1
                continue
            error = target - measured
            step = min(max(error, -MAX_STEP), MAX_STEP)
            demand = self.servo.command + step
            self.servo.tsock.deliver(
                GenericPayload.write_word(0x0, int(demand) & 0xFFFFFFFF), 0
            )
            self.tracking_error_sum += abs(target - self.servo.position)


class SteeringPlatform(Module):
    """Servo + shaft sensor + controller."""

    def __init__(
        self,
        sim: Simulator,
        duration: int,
        external_load: float = 0.0,
        name: str = "eps",
    ):
        super().__init__(name, sim=sim)
        self.duration = duration
        self.servo = ServoMotor(
            "servo", parent=self,
            slew_rate=80.0, update_period=simtime.ms(1),
            stall_load=10.0, overcurrent_limit=15,
        )
        self.servo.external_load = external_load
        # The shaft sensor reads the true servo position.
        self.position_sensor = AdcSensor(
            "position", parent=self,
            source=lambda now: 2.5 + self.servo.position / 200.0,
            period=CONTROL_PERIOD,
        )
        self.controller = SteeringController(
            "controller", parent=self,
            command_source=parking_maneuver(duration),
            position_sensor=self.position_sensor,
            servo=self.servo,
        )


DEFAULT_DURATION = simtime.ms(400)


def build_steering(
    state: _t.Optional[OperatingState] = None,
) -> _t.Callable[[Simulator], SteeringPlatform]:
    """Platform factory parameterised by the operating state.

    The state's ``servo_load`` functional load becomes the servo's
    external load — this is how mission-profile operating states enter
    the stress test (Fig. 2 -> Fig. 3 hand-off).
    """
    load = 0.0
    if state is not None:
        load = state.loads.get("servo_load", 0.0)

    def factory(sim: Simulator) -> SteeringPlatform:
        return SteeringPlatform(
            sim, duration=DEFAULT_DURATION, external_load=load
        )

    return factory


def observe(root: Module) -> dict:
    platform = root
    mean_tracking_error = (
        platform.controller.tracking_error_sum
        / max(platform.controller.cycles, 1)
    )
    return {
        "final_position": round(platform.servo.position, 0),
        "mean_tracking_error": round(mean_tracking_error, -1),
        "large_error": mean_tracking_error > 250.0,
        "overcurrent": platform.servo.overcurrent_fault,
        "detected": platform.controller.detected_errors,
        "degraded_cycles": platform.controller.degraded_cycles,
        "cycles": platform.controller.cycles,
    }


def steering_classifier() -> Classifier:
    """Hazard: large uncommanded/uncorrected steering deviation while
    the controller believes everything is fine (no detection)."""
    classifier = Classifier()
    classifier.add_rule(
        Outcome.HAZARDOUS,
        lambda f, g: f.get("large_error") and not (
            (f.get("detected") or 0) > (g.get("detected") or 0)
        ),
        "hazard:silent_large_deviation",
    )
    classifier.add_rule(
        Outcome.SDC,
        lambda f, g: f.get("final_position") != g.get("final_position")
        and not f.get("large_error"),
        "value:final_position",
    )
    classifier.add_rule(
        Outcome.TIMING_FAILURE,
        lambda f, g: (f.get("degraded_cycles") or 0)
        > (g.get("degraded_cycles") or 0) + 20,
        "timing:extended_degradation",
    )
    classifier.add_rule(
        Outcome.DETECTED_SAFE,
        lambda f, g: (f.get("detected") or 0) > (g.get("detected") or 0),
        "detected",
    )
    return classifier
