"""The crash ledger: the retry rule the pool and the cluster share.

:class:`~repro.core.executors.CrashLedger` decides what a worker death
or a hang costs the run that was in flight.  It does no I/O, so the
rule is testable here without killing pool workers or cluster
subprocesses.
"""

from repro.core.classification import Outcome
from repro.core.executors import CrashLedger, RetryPolicy
from repro.core.runspec import RunSpec
from repro.core.scenario import ErrorScenario


def _specs(count=3):
    return [
        RunSpec(
            index=index,
            scenario=ErrorScenario(name=f"run{index}", injections=[]),
            run_seed=100 + index,
            duration=1000,
            platform="airbag-normal",
            golden={},
        )
        for index in range(count)
    ]


def test_budget_exhaustion_gives_crash_worker_at_max_attempts():
    retry = RetryPolicy(max_retries=2)
    ledger = CrashLedger(_specs(), retry)
    cause = "worker process died (BrokenProcessPool)"
    assert ledger.crashed(0, cause) is None
    assert ledger.crashed(0, cause) is None
    record = ledger.crashed(0, cause)
    assert record is not None
    assert record.index == 0
    assert record.outcome is Outcome.TIMEOUT
    assert record.matched_rules == ("crash:worker",)
    assert record.failure == "crash"
    assert record.attempts == retry.max_attempts == 3
    assert record.error == (
        "worker process died (BrokenProcessPool); retry budget of 2 "
        "exhausted"
    )


def test_zero_retry_budget_is_terminal_on_the_first_crash():
    ledger = CrashLedger(_specs(), RetryPolicy(max_retries=0))
    record = ledger.crashed(1, "worker died (EOF)")
    assert record is not None and record.attempts == 1


def test_charging_advances_the_attempt_of_the_in_flight_run_only():
    ledger = CrashLedger(_specs(), RetryPolicy(max_retries=3))
    assert ledger.attempt(0) == 1
    ledger.crashed(0, "worker died (EOF)")
    assert ledger.attempt(0) == 2
    assert ledger.respec(0).attempt == 1
    # Innocents requeued alongside it were never charged.
    assert ledger.attempt(1) == ledger.attempt(2) == 1


def test_uncharged_requeues_keep_the_spec_attempt():
    specs = _specs()
    ledger = CrashLedger(specs, RetryPolicy())
    ledger.crashed(0, "worker died (EOF)")
    for spec in specs[1:]:
        again = ledger.respec(spec.index)
        assert again.attempt == spec.attempt == 0


def test_respec_returns_the_same_object_when_the_attempt_is_unchanged():
    specs = _specs()
    ledger = CrashLedger(specs, RetryPolicy())
    assert ledger.respec(2) is specs[2]
    ledger.crashed(2, "worker died (EOF)")
    charged = ledger.respec(2)
    assert charged is not specs[2]
    assert charged.attempt == 1
    assert charged.index == specs[2].index
    assert charged.scenario is specs[2].scenario


def test_a_hang_is_terminal_as_timeout_pool_at_the_current_attempt():
    ledger = CrashLedger(_specs(), RetryPolicy(max_retries=5))
    ledger.crashed(1, "worker died (EOF)")
    record = ledger.hung(1, "no result within the 2.0s pool-level hard timeout")
    assert record.matched_rules == ("timeout:pool",)
    assert record.failure == "timeout"
    assert record.attempts == 2
    assert record.error == "no result within the 2.0s pool-level hard timeout"
    # Never charged: a hang on a first attempt is attempt 1.
    assert ledger.hung(0, "hung").attempts == 1
