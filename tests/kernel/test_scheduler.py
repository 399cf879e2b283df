"""Unit tests for the discrete-event scheduler and processes."""

import pytest

from repro.kernel import (
    AllOf,
    AnyOf,
    Event,
    ProcessError,
    Simulator,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator()


class TestTimedWaits:
    def test_single_timeout_advances_time(self, sim):
        log = []

        def proc():
            yield 10
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [10]

    def test_timeout_object_equivalent_to_int(self, sim):
        log = []

        def proc():
            yield Timeout(7)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [7]

    def test_sequential_timeouts_accumulate(self, sim):
        log = []

        def proc():
            for _ in range(3):
                yield 5
                log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [5, 10, 15]

    def test_run_until_horizon_clamps_time(self, sim):
        def proc():
            yield 1000

        sim.spawn(proc())
        final = sim.run(until=100)
        assert final == 100
        assert sim.now == 100

    def test_run_until_exact_boundary_executes(self, sim):
        log = []

        def proc():
            yield 100
            log.append(sim.now)

        sim.spawn(proc())
        sim.run(until=100)
        assert log == [100]

    def test_zero_timeout_is_same_time_resume(self, sim):
        log = []

        def proc():
            yield 0
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1)

    def test_negative_int_delay_is_a_process_error(self, sim):
        log = []

        def proc():
            yield 10
            log.append(sim.now)
            yield -5
            log.append(sim.now)

        sim.spawn(proc(), name="rewinder")
        with pytest.raises(ProcessError) as excinfo:
            sim.run()
        # Time never moves backwards: the bad yield fails the process.
        assert log == [10]
        assert sim.now == 10
        assert isinstance(excinfo.value.original, ValueError)
        assert "negative delay -5" in str(excinfo.value)

    def test_idle_run_until_advances_clock(self, sim):
        assert sim.run(until=500) == 500


class TestDeterminism:
    def test_fifo_order_within_timestamp(self, sim):
        log = []

        def proc(tag):
            yield 10
            log.append(tag)

        for tag in "abcd":
            sim.spawn(proc(tag))
        sim.run()
        assert log == list("abcd")

    def test_interleaving_is_reproducible(self):
        def run_once():
            sim = Simulator()
            log = []

            def producer():
                for i in range(5):
                    yield 3
                    log.append(("p", sim.now, i))

            def consumer():
                for i in range(5):
                    yield 2
                    log.append(("c", sim.now, i))

            sim.spawn(producer())
            sim.spawn(consumer())
            sim.run()
            return log

        assert run_once() == run_once()


class TestEvents:
    def test_timed_notify_wakes_waiter(self, sim):
        evt = Event(sim, "e")
        log = []

        def waiter():
            yield evt
            log.append(sim.now)

        def notifier():
            yield 5
            evt.notify(10)

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        assert log == [15]

    def test_delta_notify_wakes_in_same_timestamp(self, sim):
        evt = Event(sim, "e")
        log = []

        def waiter():
            yield evt
            log.append(sim.now)

        def notifier():
            yield 3
            evt.notify(0)

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        assert log == [3]

    def test_immediate_notify_only_wakes_current_waiters(self, sim):
        evt = Event(sim, "e")
        log = []

        def early_waiter():
            yield evt
            log.append("early")

        def late_waiter():
            yield 2
            yield evt
            log.append("late")

        def notifier():
            yield 1
            evt.notify()  # immediate: only early_waiter is waiting

        sim.spawn(early_waiter())
        sim.spawn(late_waiter())
        sim.spawn(notifier())
        sim.run(until=10)
        assert log == ["early"]

    def test_notify_with_negative_delay_rejected(self, sim):
        evt = Event(sim, "e")
        with pytest.raises(ValueError):
            evt.notify(-5)

    def test_multiple_waiters_all_wake(self, sim):
        evt = Event(sim, "e")
        log = []

        def waiter(tag):
            yield evt
            log.append(tag)

        def notifier():
            yield 1
            evt.notify(0)

        for tag in "xyz":
            sim.spawn(waiter(tag))
        sim.spawn(notifier())
        sim.run()
        assert sorted(log) == ["x", "y", "z"]


class TestCompositeWaits:
    def test_anyof_resumes_on_first_and_reports_which(self, sim):
        a = Event(sim, "a")
        b = Event(sim, "b")
        log = []

        def waiter():
            fired = yield AnyOf(a, b)
            log.append(fired)

        def notifier():
            yield 4
            b.notify(0)

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        assert log == [b]

    def test_anyof_removes_stale_waiters(self, sim):
        a = Event(sim, "a")
        b = Event(sim, "b")

        def waiter():
            yield AnyOf(a, b)

        def notifier():
            yield 1
            a.notify(0)

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        assert b._waiters == []

    def test_allof_waits_for_every_event(self, sim):
        a = Event(sim, "a")
        b = Event(sim, "b")
        log = []

        def waiter():
            yield AllOf(a, b)
            log.append(sim.now)

        def notifier():
            yield 2
            a.notify(0)
            yield 5
            b.notify(0)

        sim.spawn(waiter())
        sim.spawn(notifier())
        sim.run()
        assert log == [7]

    def test_empty_composites_rejected(self):
        with pytest.raises(ValueError):
            AnyOf()
        with pytest.raises(ValueError):
            AllOf()


class TestProcessLifecycle:
    def test_join_waits_for_child(self, sim):
        log = []

        def child():
            yield 10
            log.append("child done")

        def parent():
            proc = sim.spawn(child(), name="child")
            yield proc
            log.append(("joined", sim.now))

        sim.spawn(parent(), name="parent")
        sim.run()
        assert log == ["child done", ("joined", 10)]

    def test_join_already_finished_process(self, sim):
        log = []

        def child():
            yield 1

        def parent():
            proc = sim.spawn(child())
            yield 5
            yield proc  # child long finished
            log.append(sim.now)

        sim.spawn(parent())
        sim.run()
        assert log == [5]

    def test_kill_stops_process(self, sim):
        log = []

        def victim():
            while True:
                yield 1
                log.append(sim.now)

        def killer(proc):
            yield 3
            proc.kill()

        victim_proc = sim.spawn(victim())
        sim.spawn(killer(victim_proc))
        sim.run(until=10)
        # The killer was scheduled for t=3 before the victim's third
        # resume, so within the t=3 slot it runs first: the victim never
        # logs t=3.
        assert log == [1, 2]
        assert not victim_proc.alive

    def test_process_exception_propagates(self, sim):
        def bad():
            yield 1
            raise RuntimeError("boom")

        sim.spawn(bad(), name="bad")
        with pytest.raises(ProcessError) as excinfo:
            sim.run()
        assert "boom" in repr(excinfo.value.original)

    def test_simulator_reusable_after_process_error(self, sim):
        def bad():
            yield 1
            raise ValueError("first")

        def good():
            yield 5

        sim.spawn(bad())
        with pytest.raises(ProcessError):
            sim.run()
        sim.spawn(good())
        sim.run()
        assert sim.now >= 5

    def test_yield_none_resumes_next_delta(self, sim):
        log = []

        def proc():
            yield None
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [0]

    def test_yield_garbage_raises(self, sim):
        def proc():
            yield "nonsense"

        sim.spawn(proc(), name="garbage")
        with pytest.raises(ProcessError):
            sim.run()

    def test_stop_requests_early_return(self, sim):
        def proc():
            yield 5
            sim.stop()
            yield 100

        sim.spawn(proc())
        sim.run()
        assert sim.now == 5

    def test_stop_from_delta_hook_returns_before_time_advances(self, sim):
        def proc():
            yield 5
            yield 5

        sim.spawn(proc())
        sim.delta_hooks.append(lambda s: s.stop() if s.now == 5 else None)
        sim.run()
        assert sim.now == 5


class TestRunCounters:
    """Lifetime instrumentation used by campaign executors."""

    def test_fresh_simulator_counts_zero(self, sim):
        assert sim.stats() == {
            "events": 0, "process_steps": 0, "delta_cycles": 0,
        }

    def test_counters_grow_with_activity(self, sim):
        def ticker():
            for _ in range(5):
                yield 10

        sim.spawn(ticker())
        sim.run()
        stats = sim.stats()
        assert stats["process_steps"] >= 5
        assert stats["events"] >= 5
        assert stats["delta_cycles"] >= 1

    def test_counters_are_deterministic(self):
        def run_once():
            sim = Simulator()

            def ping(signal):
                for value in range(4):
                    signal.write(value)
                    yield 7

            def pong(signal):
                while True:
                    yield signal.changed
                    _ = signal.read()

            from repro.kernel import Signal

            wire = Signal(sim, "wire", 0)
            sim.spawn(ping(wire))
            sim.spawn(pong(wire))
            sim.run(until=100)
            return sim.stats()

        assert run_once() == run_once()
