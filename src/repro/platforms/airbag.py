"""The CAPS airbag virtual prototype.

The paper's motivating example (Sec. 1, Fig. 1): Combined Active and
Passive Safety "links the data from environment sensors with the airbag
control ... it must be absolutely guaranteed that the failure of any
system component does not trigger the airbag in normal operation."

The platform models that system at the level the stress tests need:

* two redundant acceleration channels (analog front-ends + ADC),
* an ECC-protected parameter memory holding the deploy threshold,
* the airbag ECU: cross-channel plausibility, N-consecutive-samples
  debounce, threshold compare, arm/fire interlock sequence,
* a windowed watchdog supervising the control loop,
* the squib actuator (latching — a spurious deployment is permanent).

Safety goal G1: the squib must not fire without a real crash.
Functional goal G2: with a real crash pulse, the squib must fire
within ``deploy_deadline`` of the pulse start.
"""

from __future__ import annotations

import typing as _t

from ..core import Outcome, build_standard_classifier
from ..hw import (
    AdcSensor,
    EccMemory,
    Squib,
    Watchdog,
    constant,
    crash_pulse,
)
from ..hw.watchdog import KICK_KEY
from ..kernel import Module, Simulator, simtime
from ..tlm import GenericPayload

#: ADC code the deploy threshold is stored as (≈ 24 g on a ±50 g, 12-bit
#: channel biased at 2.5 V).
DEPLOY_THRESHOLD_CODE = 2400
SAMPLE_PERIOD = simtime.ms(1)
PLAUSIBILITY_BAND = 250  # max |a-b| in codes
DEBOUNCE_SAMPLES = 3


class AirbagEcu(Module):
    """The airbag control unit.

    ``plausibility_band`` / ``debounce_samples`` are ablation knobs:
    the protection-ablation benchmark (E11) disables each mechanism to
    quantify what it contributes to the safety goal.
    """

    STATE = (
        "detected_errors", "plausibility_rejects", "debounce_counter",
        "deploy_commanded_at", "cycles",
    )

    def __init__(
        self,
        name: str,
        parent: Module,
        sensor_a: AdcSensor,
        sensor_b: AdcSensor,
        param_mem,
        squib: Squib,
        watchdog: Watchdog,
        plausibility_band: int = PLAUSIBILITY_BAND,
        debounce_samples: int = DEBOUNCE_SAMPLES,
        dual_channel: bool = True,
    ):
        super().__init__(name, parent=parent)
        self.sensor_a = sensor_a
        self.sensor_b = sensor_b
        self.param_mem = param_mem
        self.squib = squib
        self.watchdog = watchdog
        self.plausibility_band = plausibility_band
        self.debounce_samples = debounce_samples
        self.dual_channel = dual_channel
        self.detected_errors = 0
        self.plausibility_rejects = 0
        self.debounce_counter = 0
        self.deploy_commanded_at: _t.Optional[int] = None
        self.cycles = 0
        self.process(self._control, name="control")

    def _read_threshold(self) -> _t.Optional[int]:
        payload = GenericPayload.read(0, 4)
        self.param_mem.tsock.deliver(payload, 0)
        if not payload.ok:
            self.detected_errors += 1
            return None
        return payload.word

    def _kick_watchdog(self) -> None:
        self.watchdog.tsock.deliver(
            GenericPayload.write_word(0x0, KICK_KEY), 0
        )

    def _control(self):
        self.watchdog.tsock.deliver(GenericPayload.write_word(0x4, 1), 0)
        while True:
            yield SAMPLE_PERIOD
            self.cycles += 1
            self._kick_watchdog()
            threshold = self._read_threshold()
            if threshold is None:
                continue  # detected parameter fault: skip, stay safe
            code_a = self.sensor_a.output.read()
            code_b = self.sensor_b.output.read()
            if (
                self.dual_channel
                and abs(code_a - code_b) > self.plausibility_band
            ):
                self.plausibility_rejects += 1
                self.debounce_counter = 0
                continue
            above = code_a > threshold and (
                not self.dual_channel or code_b > threshold
            )
            if above:
                self.debounce_counter += 1
            else:
                self.debounce_counter = 0
            if (
                self.debounce_counter >= self.debounce_samples
                and self.deploy_commanded_at is None
            ):
                self.deploy_commanded_at = self.sim.now
                self._deploy()

    def _deploy(self) -> None:
        self.squib.tsock.deliver(
            GenericPayload.write_word(0x0, Squib.ARM_KEY), 0
        )
        self.squib.tsock.deliver(
            GenericPayload.write_word(0x4, Squib.FIRE_KEY), 0
        )


class AirbagPlatform(Module):
    """Top-level CAPS platform.

    ``crash_at=None`` builds the *normal operation* scenario (safety
    goal G1 applies); a time builds the crash scenario (G2 applies).
    """

    def __init__(
        self,
        sim: Simulator,
        crash_at: _t.Optional[int] = None,
        crash_peak_g: float = 40.0,
        name: str = "caps",
        plausibility_band: int = PLAUSIBILITY_BAND,
        debounce_samples: int = DEBOUNCE_SAMPLES,
        dual_channel: bool = True,
        ecc_params: bool = True,
    ):
        super().__init__(name, sim=sim)
        self.crash_at = crash_at
        if crash_at is None:
            # ~1 g of road noise-free baseline on a 0-5 V channel.
            source = constant(2.6)
        else:
            pulse = crash_pulse(crash_at, peak_g=crash_peak_g,
                                duration=simtime.ms(30))
            source = lambda now: 2.5 + pulse(now) * 0.05  # 50 mV per g
        self.sensor_a = AdcSensor(
            "sensor_a", parent=self, source=source, period=SAMPLE_PERIOD
        )
        self.sensor_b = AdcSensor(
            "sensor_b", parent=self, source=source, period=SAMPLE_PERIOD
        )
        if ecc_params:
            self.param_mem = EccMemory("params", parent=self, size=16)
        else:
            from ..hw import Memory

            self.param_mem = Memory("params", parent=self, size=16)
            # Present the plain memory with the counters the observer
            # probes, so observation code stays uniform.
            self.param_mem.corrected_errors = 0
            self.param_mem.detected_errors = 0
        self.param_mem.load(0, DEPLOY_THRESHOLD_CODE.to_bytes(4, "little"))
        self.squib = Squib("squib", parent=self)
        self.watchdog = Watchdog(
            "watchdog", parent=self, timeout=simtime.ms(5)
        )
        self.ecu = AirbagEcu(
            "ecu", parent=self,
            sensor_a=self.sensor_a, sensor_b=self.sensor_b,
            param_mem=self.param_mem, squib=self.squib,
            watchdog=self.watchdog,
            plausibility_band=plausibility_band,
            debounce_samples=debounce_samples,
            dual_channel=dual_channel,
        )
        #: Power-on module state; the warm ``reset`` hook restores it.
        self._power_on = self.capture_state()


def warm_reset(root: AirbagPlatform) -> None:
    """Registry ``reset`` hook for the airbag bundles: restore the
    capture taken at construction."""
    root.restore_state(root._power_on)


def build_normal_operation(sim: Simulator) -> AirbagPlatform:
    """Factory for G1 campaigns: no crash, nothing should deploy."""
    return AirbagPlatform(sim, crash_at=None)


def build_crash_scenario(sim: Simulator) -> AirbagPlatform:
    """Factory for G2 campaigns: crash at t=50 ms, deploy expected."""
    return AirbagPlatform(sim, crash_at=simtime.ms(50))


def observe(root: Module) -> dict:
    """Probe set for the classifier."""
    platform = root
    points = platform.param_mem.injection_points
    param_point = points.get("codewords") or points["array"]
    return {
        "squib_fired": platform.squib.fired,
        "fire_time": platform.squib.fire_time,
        "spurious_commands": platform.squib.spurious_commands,
        "ecc_corrected": platform.param_mem.corrected_errors,
        "detected": (
            platform.ecu.detected_errors
            + platform.param_mem.detected_errors
            + platform.ecu.plausibility_rejects
            + platform.watchdog.timeouts
        ),
        "threshold_word": param_point.peek(0),
        "cycles": platform.ecu.cycles,
    }


def trace_signals(root: Module) -> dict:
    """Signals the observability layer watches for this platform.

    The two accelerometer outputs are where injected sensor/memory
    faults first become visible on the way to the deployment decision;
    watching more (e.g. every ECU register) costs tracer callbacks on
    every signal write, so the nomination stays deliberately small.
    """
    platform = root
    return {
        platform.sensor_a.output.name: platform.sensor_a.output,
        platform.sensor_b.output.name: platform.sensor_b.output,
    }


def reach_surface(root: Module) -> dict:
    """Observation surface for static reachability analysis.

    ``outputs`` must name every module whose state :func:`observe`
    reads — a fault site with no structural path to any of them (nor
    to a detector) provably cannot change the classification, which is
    the licence :mod:`repro.analyze.reach` needs before it may call a
    site dead.  Detector components (watchdog, ECC memory) are
    auto-discovered from their ``DETECTION_MECHANISMS`` declarations,
    so ``detectors`` carries no extras here.
    """
    platform = root
    return {
        "detectors": {},
        "outputs": [
            platform.squib,
            platform.param_mem,
            platform.watchdog,
            platform.ecu,
        ],
    }


def normal_operation_classifier():
    """G1: any deployment is hazardous."""
    return build_standard_classifier(
        hazard_keys=["squib_fired"],
        value_keys=["threshold_word"],
        timing_keys=[],
        detection_keys=["detected", "spurious_commands"],
        masking_keys=["ecc_corrected"],
    )


def crash_classifier(deploy_deadline: int):
    """G2: missing or late deployment is the hazard."""
    from ..core import Classifier

    classifier = Classifier()
    classifier.add_rule(
        Outcome.HAZARDOUS,
        lambda f, g: not f.get("squib_fired"),
        "hazard:no_deployment",
    )
    classifier.add_rule(
        Outcome.TIMING_FAILURE,
        lambda f, g: (
            f.get("squib_fired")
            and g.get("fire_time") is not None
            and f.get("fire_time") is not None
            and f["fire_time"] > g["fire_time"] + deploy_deadline
        ),
        "timing:late_deployment",
    )
    classifier.add_rule(
        Outcome.DETECTED_SAFE,
        lambda f, g: (f.get("detected") or 0) > (g.get("detected") or 0),
        "detected",
    )
    classifier.add_rule(
        Outcome.MASKED,
        lambda f, g: (f.get("ecc_corrected") or 0)
        > (g.get("ecc_corrected") or 0),
        "masked:ecc",
    )
    return classifier
