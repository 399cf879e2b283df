"""Executor backends: serial/parallel equivalence and campaign wiring.

The determinism contract under test: the same (campaign seed,
strategy, batch size) produces the same set of RunRecords from every
backend — outcomes are keyed and re-ordered by run index, so worker
scheduling cannot leak into the result.
"""

import os

import pytest

from repro.core import (
    Campaign,
    FaultSpace,
    FaultSpaceCoverage,
    CoverageGuidedStrategy,
    Outcome,
    ParallelExecutor,
    RandomStrategy,
    SerialExecutor,
    WeakSpotStrategy,
    make_executor,
)
from repro.faults import FaultDescriptor, FaultKind, Persistence, SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.platforms import airbag

MULTI_CPU = (os.cpu_count() or 1) >= 2

STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.5},
    rate_per_hour=2e-7,
)

DURATION = simtime.ms(60)


def caps_space(time_bins=2):
    probe = Simulator()
    return FaultSpace(
        airbag.build_normal_operation(probe),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=time_bins,
    )


def caps_campaign(seed=7):
    return Campaign(duration=DURATION, seed=seed, platform="airbag-normal")


def run_caps(backend, batch_size, runs=16, workers=None, strategy=None):
    campaign = caps_campaign()
    strategy = strategy or RandomStrategy(caps_space(), faults_per_scenario=2)
    return campaign.run(
        strategy, runs=runs, backend=backend, workers=workers,
        batch_size=batch_size,
    )


def fingerprint(result):
    return (
        {o.name: n for o, n in result.outcome_histogram().items()},
        [tuple(r.matched_rules) for r in result.records],
        result.diagnostic_coverage_by_descriptor(),
    )


class TestCampaignConstruction:
    def test_registry_key_builds_campaign(self):
        campaign = caps_campaign()
        assert campaign.platform == "airbag-normal"
        assert campaign.platform_factory is airbag.build_normal_operation

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError, match="registered"):
            Campaign(duration=1000, platform="no-such-platform")

    def test_callable_campaign_rejects_parallel(self):
        campaign = Campaign(
            platform_factory=airbag.build_normal_operation,
            observe=airbag.observe,
            classifier=airbag.normal_operation_classifier(),
            duration=DURATION,
        )
        strategy = RandomStrategy(caps_space())
        with pytest.raises(ValueError, match="registry-backed"):
            campaign.run(strategy, runs=2, backend="parallel")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_caps("warp-drive", batch_size=1, runs=2)


class TestMakeExecutor:
    def test_instance_passthrough_is_not_owned(self):
        executor = SerialExecutor(
            airbag.build_normal_operation, airbag.observe,
            airbag.normal_operation_classifier(),
        )
        resolved, owned = make_executor(executor)
        assert resolved is executor and owned is False

    def test_unknown_backend_error_lists_registered_backends(self):
        with pytest.raises(ValueError) as excinfo:
            make_executor("warp-drive", platform="airbag-normal")
        message = str(excinfo.value)
        assert "warp-drive" in message
        for name in ("serial", "parallel", "distributed"):
            assert repr(name) in message

    def test_builtin_backends_are_registered(self):
        # Each name resolves to its builder, which then rejects the
        # missing campaign arguments — not the name.
        for name in ("serial", "parallel", "distributed"):
            with pytest.raises(ValueError, match="requires|needs"):
                make_executor(name)

    def test_non_string_backend_is_a_type_error(self):
        with pytest.raises(TypeError, match="name or an Executor"):
            make_executor(42)

    def test_parallel_validates_key_eagerly(self):
        with pytest.raises(KeyError, match="registered"):
            ParallelExecutor("no-such-platform")

    def test_parallel_worker_count_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor("airbag-normal", workers=0)


class TestSerialBackend:
    def test_default_matches_explicit_serial_batchsize_one(self):
        baseline = run_caps("serial", batch_size=None)
        explicit = run_caps("serial", batch_size=1)
        assert fingerprint(baseline) == fingerprint(explicit)
        assert [r.observation for r in baseline.records] == [
            r.observation for r in explicit.records
        ]

    def test_same_seed_same_batch_size_reproduces(self):
        assert fingerprint(run_caps("serial", batch_size=4)) == fingerprint(
            run_caps("serial", batch_size=4)
        )

    def test_records_carry_kernel_stats(self):
        result = run_caps("serial", batch_size=4, runs=4)
        assert all(r.kernel_stats["events"] > 0 for r in result.records)
        assert result.report()["kernel"]["runs_per_s"] > 0

    def test_stop_on_truncates_batch(self):
        strategy = WeakSpotStrategy(
            caps_space(), faults_per_scenario=2, exploration=0.3
        )
        result = caps_campaign().run(
            strategy, runs=60, stop_on=Outcome.HAZARDOUS, batch_size=6
        )
        assert result.records[-1].outcome >= Outcome.HAZARDOUS
        assert all(
            r.outcome < Outcome.HAZARDOUS for r in result.records[:-1]
        )
        assert [r.index for r in result.records] == list(range(result.runs))

    def test_coverage_guided_batches_spread_targets(self):
        space = caps_space()
        coverage = FaultSpaceCoverage(space)
        strategy = CoverageGuidedStrategy(space, coverage)
        result = caps_campaign().run(
            strategy, runs=16, coverage=coverage, batch_size=8
        )
        assert result.runs == 16
        # Striping the batch across the frontier closes the 6-cell CAPS
        # space within the very first 8-run batch.
        assert coverage.closure == 1.0


class TestParallelBackend:
    def test_parallel_smoke_two_workers(self):
        result = run_caps("parallel", batch_size=4, runs=8, workers=2)
        assert result.runs == 8
        assert [r.index for r in result.records] == list(range(8))
        assert all(r.kernel_stats["events"] > 0 for r in result.records)

    @pytest.mark.skipif(
        not MULTI_CPU, reason="parallel equivalence needs >= 2 CPUs"
    )
    def test_serial_parallel_equivalence_caps_airbag(self):
        """Identical histograms, matched rules, and measured DC."""
        serial = run_caps("serial", batch_size=8, runs=24)
        parallel = run_caps(
            "parallel", batch_size=8, runs=24,
            workers=min(4, os.cpu_count() or 1),
        )
        assert fingerprint(serial) == fingerprint(parallel)
        assert [r.observation for r in serial.records] == [
            r.observation for r in parallel.records
        ]

    @pytest.mark.skipif(
        not MULTI_CPU, reason="parallel equivalence needs >= 2 CPUs"
    )
    def test_stop_on_equivalent_across_backends(self):
        def first_hazard(backend):
            strategy = WeakSpotStrategy(
                caps_space(), faults_per_scenario=2, exploration=0.3
            )
            result = caps_campaign().run(
                strategy, runs=60, stop_on=Outcome.HAZARDOUS,
                backend=backend, workers=2, batch_size=6,
            )
            return result.first_run_with(Outcome.HAZARDOUS), result.runs

        assert first_hazard("serial") == first_hazard("parallel")

    def test_executor_reuse_across_campaigns(self):
        with ParallelExecutor("airbag-normal", workers=2) as executor:
            first = run_caps(executor, batch_size=4, runs=8)
            second = run_caps(executor, batch_size=4, runs=8)
        assert fingerprint(first) == fingerprint(second)
