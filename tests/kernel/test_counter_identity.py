"""Exact scheduling-work counters, pinned.

The kernel's lifetime counters (delivered events, process steps, delta
cycles) and the TLM path's transaction and payload counts are the
noise-free measure of how much work a simulation does.  Scheduler and
transport optimisations must make each unit of work cheaper without
changing how many units there are, so these tests pin the exact values
for three scenarios:

* a golden ``airbag-normal`` run,
* a seeded 8-run warm serial campaign on the same platform,
* a kernel-only scenario exercising every wait condition and every
  notification kind.

A change that adds or drops even one event, step, delta cycle or bus
transaction fails here, long before a timing benchmark could tell.
"""

import pytest

from repro.core import Campaign, FaultSpace, RandomStrategy
from repro.core.runspec import clear_warm_platforms
from repro.faults import SRAM_SEU, FaultDescriptor, FaultKind, Persistence
from repro.kernel import AllOf, AnyOf, Signal, Simulator, Timeout, simtime
from repro.platforms import airbag
from repro.tlm import GenericPayload, TargetSocket

DURATION = simtime.ms(60)


@pytest.fixture
def tlm_counts(monkeypatch):
    """Count ``TargetSocket.deliver`` calls and payload constructions."""
    counts = {"deliver": 0, "payloads": 0}
    deliver = TargetSocket.deliver
    init = GenericPayload.__init__

    def counting_deliver(self, payload, delay):
        counts["deliver"] += 1
        return deliver(self, payload, delay)

    def counting_init(self, *args, **kwargs):
        counts["payloads"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TargetSocket, "deliver", counting_deliver)
    monkeypatch.setattr(GenericPayload, "__init__", counting_init)
    return counts


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_platforms()
    yield
    clear_warm_platforms()


def airbag_space():
    stuck_high = FaultDescriptor(
        name="sensor_stuck_high",
        kind=FaultKind.STUCK_VALUE,
        persistence=Persistence.PERMANENT,
        params={"value": 4.5},
        rate_per_hour=2e-7,
    )
    return FaultSpace(
        airbag.build_normal_operation(Simulator()),
        [SRAM_SEU.with_rate(5e-7), stuck_high],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )


def test_airbag_golden_run_counters(tlm_counts):
    sim = Simulator()
    airbag.build_normal_operation(sim)
    sim.run(until=DURATION)
    assert sim.stats() == {
        "events": 194, "process_steps": 198, "delta_cycles": 61,
    }
    assert tlm_counts == {"deliver": 121, "payloads": 121}


def test_warm_serial_campaign_counters(tlm_counts):
    space = airbag_space()
    campaign = Campaign(duration=DURATION, seed=7, platform="airbag-normal")
    campaign.golden()
    tlm_counts.update(deliver=0, payloads=0)
    result = campaign.run(
        RandomStrategy(space, faults_per_scenario=2), runs=8,
        backend="serial",
    )
    totals = {"events": 0, "process_steps": 0, "delta_cycles": 0}
    for record in result.records:
        for key in totals:
            totals[key] += record.kernel_stats[key]
    assert totals == {
        "events": 1594, "process_steps": 1624, "delta_cycles": 504,
    }
    assert tlm_counts == {"deliver": 972, "payloads": 972}


def test_every_wait_kind_counters():
    """One scenario through every wait condition and notification kind:
    int, ``Timeout``, ``Event``, ``AnyOf``, ``AllOf``, join, ``None``,
    zero delay, immediate / delta / timed notify, a signal change."""
    sim = Simulator()
    go = sim.event("go")
    ping = sim.event("ping")
    pong = sim.event("pong")
    level = Signal(sim, "level", 0)
    log = []

    def worker():
        yield 5                       # int delay
        yield Timeout(3)              # Timeout object
        yield 0                       # zero delay
        yield None                    # one delta cycle
        fired = yield AnyOf(go, sim.timeout_event(50))
        log.append(("any", sim.now, fired is go))
        yield AllOf(ping, pong)
        log.append(("all", sim.now))
        level.write(1)                # signal change
        yield level.changed
        log.append(("changed", sim.now, level.read()))

    def stimulus():
        yield 10
        go.notify()                   # immediate
        yield 2
        ping.notify(0)                # delta
        pong.notify(4)                # timed
        yield 1

    worker_proc = sim.spawn(worker(), name="worker")
    sim.spawn(stimulus(), name="stimulus")

    def joiner():
        yield worker_proc             # join
        log.append(("joined", sim.now))

    sim.spawn(joiner(), name="joiner")
    sim.run()
    assert log == [
        ("any", 10, True), ("all", 16), ("changed", 16, 1), ("joined", 16),
    ]
    assert sim.now == 58              # the unused AnyOf timeout still fires
    assert sim.stats() == {
        "events": 13, "process_steps": 14, "delta_cycles": 12,
    }
