"""The benchmark's gates can fail: slowdowns and counter drift are caught.

The busy-wait and the extra transport are wrapped in from this side;
nothing under ``src/`` changes.  Each trial compares medians in one
process, base and head interleaved, with the same rule ``compare.py``
applies to whole runs.
"""
# vp-lint: disable-file=VP005 - benchmark: wall-clock timing is the measurement

import contextlib
import json
import random
import time

import compare
import run
import workloads
from repro.kernel import scheduler
from repro.tlm import payload as tlm_payload
from repro.tlm import sockets

SPEC = json.loads(run.SPEC.read_text())
RUNS_PER_S = next(m for m in SPEC["end_to_end"] if m["name"] == "runs_per_s")
ONLY_RATE = {"end_to_end": [RUNS_PER_S]}
TRIALS = 10
REPEATS = 3
SECONDS = 1.0
#: The injected per-run delay makes runs_per_s this many bounds worse.
SLOWDOWN_BOUNDS = 2.0


@contextlib.contextmanager
def busy_wait_per_sim_run(rng: random.Random, mean_s: float):
    """Spin a seeded, uniformly drawn 0.5-1.5 x *mean_s* after every
    ``Simulator.run`` call."""
    original = scheduler.Simulator.run

    def slow_run(sim, *args, **kwargs):
        result = original(sim, *args, **kwargs)
        end = time.perf_counter() + mean_s * rng.uniform(0.5, 1.5)
        while time.perf_counter() < end:
            pass
        return result

    scheduler.Simulator.run = slow_run
    try:
        yield
    finally:
        scheduler.Simulator.run = original


def rate_result(workload) -> dict:
    loop = run.Loop(workload)
    loop.run(SECONDS)
    assert not loop.problems, loop.problems
    return {"correct": True,
            "metrics": {"runs_per_s": {"value": loop.runs_per_s}}}


def flagged_trials(name: str, tmp_path) -> int:
    """Trials in which the busy-wait head is flagged against the base."""
    worse = SLOWDOWN_BOUNDS * RUNS_PER_S["bound"]
    # Added time s per run of base time t: the rate falls by s / (t + s).
    extra_per_run = worse / (1.0 - worse)
    flagged = 0
    for trial in range(TRIALS):
        workload = workloads.WORKLOADS[name](tmp_path)
        workload.setup(100 + trial)
        base, head = [], []
        seconds_per_run = 1.0 / rate_result(workload)["metrics"][
            "runs_per_s"]["value"]
        rng = random.Random(trial)
        for _ in range(REPEATS):
            base.append(rate_result(workload))
            with busy_wait_per_sim_run(rng, extra_per_run * seconds_per_run):
                head.append(rate_result(workload))
        flagged += bool(compare.regressions(base, head, ONLY_RATE))
    return flagged


def test_slowdown_flagged_on_airbag_serial(tmp_path):
    assert flagged_trials("airbag-serial", tmp_path) >= 9


def test_gate_enum_stays_quiet(tmp_path):
    # gate-enum never calls Simulator.run: the same wrapper is an A/A test.
    assert flagged_trials("gate-enum", tmp_path) <= 1


def test_extra_transport_trips_pin(tmp_path):
    original_run = scheduler.Simulator.run
    original_deliver = sockets.TargetSocket.deliver
    pending = []

    def run_with_extra(sim, *args, **kwargs):
        pending.append(True)
        return original_run(sim, *args, **kwargs)

    def deliver(socket, payload, delay):
        if pending and payload.command is tlm_payload.Command.READ:
            pending.clear()
            # Through the class attribute, so the tracer counts it.
            type(socket).deliver(socket, payload, delay)
        return original_deliver(socket, payload, delay)

    scheduler.Simulator.run = run_with_extra
    sockets.TargetSocket.deliver = deliver
    try:
        problems = run.pin_problems("airbag-serial", tmp_path)
    finally:
        scheduler.Simulator.run = original_run
        sockets.TargetSocket.deliver = original_deliver
    assert any(
        p.startswith("PIN MISMATCH airbag-serial tlm.transports_per_run")
        for p in problems
    ), problems


def test_pins_hold_unmodified(tmp_path):
    assert run.pin_problems("airbag-serial", tmp_path) == []


def test_median_rule():
    base = [{"metrics": {"runs_per_s": {"value": v}}} for v in (100, 101, 99)]
    head = [{"metrics": {"runs_per_s": {"value": v}}} for v in (60, 61, 59)]
    assert compare.regressions(base, head, ONLY_RATE)[0][0] == "runs_per_s"
    assert compare.regressions(base, base, ONLY_RATE) == []
