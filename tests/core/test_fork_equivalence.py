"""Example-based equivalence and plumbing tests for snapshot-fork
execution.

The contract under test: grouping runs by shared fault-free prefix,
simulating that prefix once, and forking every run from the mid-run
kernel snapshot (:meth:`Simulator.snapshot` + the platform bundle's
``capture_state``/``restore_state`` hooks) is *invisible* in campaign
results — outcomes, observations, kernel counters (minus wall clock),
and trace digests are byte-identical to per-run execution, and
anything fork-ineligible silently takes the per-run path.  The
generative version lives in
``tests/property/test_snapshot_properties.py``.
"""

import dataclasses
import inspect

import pytest

from repro.core import Campaign, RandomStrategy, TraceConfig
from repro.core.checkpoint import campaign_key
from repro.core.executors import SerialExecutor
from repro.core.runspec import (
    ForkUnsupported,
    RunSpec,
    clear_warm_platforms,
    execute_chunk_tolerant,
    execute_fork_group,
    execute_fork_group_from_registry,
    execute_runspec,
    fork_groups,
    fork_time,
)
from repro.core.scenario import ErrorScenario, FaultSpace, PlannedInjection
from repro.faults import SENSOR_OFFSET_DRIFT, SENSOR_STUCK, SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.platforms import registry

DURATION = simtime.ms(40)
T1 = simtime.ms(20)


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_platforms()
    yield
    clear_warm_platforms()


def _campaign(key):
    return Campaign(duration=DURATION, seed=5, platform=key)


def _space(key, descriptors):
    bundle = registry.get_platform(key)
    return FaultSpace(
        bundle.factory(Simulator()),
        descriptors,
        window_start=simtime.ms(5),
        window_end=DURATION - 1,
        time_bins=2,
    )


def _spec(key, index, injections, golden, trace=None, fork=True,
          run_seed=None):
    return RunSpec(
        index=index,
        scenario=ErrorScenario(name=f"fork_{index}", injections=injections),
        run_seed=index * 7919 + 13 if run_seed is None else run_seed,
        duration=DURATION,
        platform=key,
        golden=golden,
        trace=trace,
        fork=fork,
    )


def _group_specs(key, descriptors, count=3, trace=None, t1=T1):
    space = _space(key, descriptors)
    campaign = _campaign(key)
    golden = campaign.golden()
    specs = []
    for index in range(count):
        path, descriptor = space.pairs[index % len(space.pairs)]
        injections = [
            PlannedInjection(time=t1, target_path=path, descriptor=descriptor)
        ]
        if index % 2:
            later_path, later_descriptor = space.pairs[
                (index + 1) % len(space.pairs)
            ]
            injections.append(
                PlannedInjection(
                    time=t1 + simtime.ms(4) * index,
                    target_path=later_path,
                    descriptor=later_descriptor,
                )
            )
        specs.append(_spec(key, index, injections, golden, trace=trace))
    return specs


def _outcome_bytes(outcome):
    stats = {
        key: value
        for key, value in outcome.kernel_stats.items()
        if key != "wall_s"
    }
    return (
        outcome.index,
        outcome.outcome,
        outcome.matched_rules,
        tuple(sorted(outcome.observation.items())),
        outcome.injections_applied,
        tuple(sorted(stats.items())),
        outcome.stressor_errors,
        outcome.digest.canonical() if outcome.digest else None,
    )


def _fresh(specs, key):
    bundle = registry.get_platform(key)
    classifier = bundle.classifier_factory()
    return [
        execute_runspec(spec, bundle.factory, bundle.observe, classifier)
        for spec in specs
    ]


# ---------------------------------------------------------------------------
# fork_time / fork_groups plumbing
# ---------------------------------------------------------------------------

class TestForkPlanning:
    def _one(self, **kwargs):
        base = dict(
            key="airbag-normal",
            index=0,
            injections=[
                PlannedInjection(
                    time=T1, target_path="caps.param_mem",
                    descriptor=SRAM_SEU,
                )
            ],
            golden={},
        )
        base.update(kwargs)
        return _spec(**base)

    def test_fork_time_of_an_eligible_spec(self):
        assert fork_time(self._one()) == T1

    def test_fork_time_requires_opt_in(self):
        assert fork_time(self._one(fork=False)) is None

    def test_fork_time_requires_platform_key(self):
        spec = self._one()
        spec = RunSpec(
            index=spec.index, scenario=spec.scenario,
            run_seed=spec.run_seed, duration=spec.duration,
            platform=None, golden={}, fork=True,
        )
        assert fork_time(spec) is None

    def test_fork_time_requires_injections(self):
        assert fork_time(self._one(injections=[])) is None

    def test_fork_time_rejects_out_of_window_injections(self):
        at_zero = [
            PlannedInjection(
                time=0, target_path="caps.param_mem", descriptor=SRAM_SEU
            )
        ]
        past_end = [
            PlannedInjection(
                time=DURATION + 1, target_path="caps.param_mem",
                descriptor=SRAM_SEU,
            )
        ]
        assert fork_time(self._one(injections=at_zero)) is None
        assert fork_time(self._one(injections=past_end)) is None

    def test_fork_time_is_the_earliest_injection(self):
        spec = self._one(
            injections=[
                PlannedInjection(
                    time=T1 + 5, target_path="caps.param_mem",
                    descriptor=SRAM_SEU,
                ),
                PlannedInjection(
                    time=T1, target_path="caps.param_mem",
                    descriptor=SRAM_SEU,
                ),
            ]
        )
        assert fork_time(spec) == T1

    def test_groups_key_on_platform_and_time(self):
        golden = {}
        inject = lambda t: [  # noqa: E731
            PlannedInjection(
                time=t, target_path="caps.param_mem", descriptor=SRAM_SEU
            )
        ]
        specs = [
            _spec("airbag-normal", 0, inject(T1), golden),
            _spec("airbag-normal", 1, inject(T1 + 1), golden),
            _spec("airbag-normal", 2, inject(T1), golden),
            _spec("airbag-normal", 3, [], golden),
            _spec("airbag-normal", 4, inject(T1 + 1), golden),
        ]
        groups, singles = fork_groups(specs)
        assert [
            (key, [spec.index for spec in members])
            for key, members in groups
        ] == [
            (("airbag-normal", T1), [0, 2]),
            (("airbag-normal", T1 + 1), [1, 4]),
        ]
        assert [spec.index for spec in singles] == [3]

    def test_singleton_buckets_fall_back_to_singles(self):
        golden = {}
        specs = [
            _spec(
                "airbag-normal", 0,
                [
                    PlannedInjection(
                        time=T1, target_path="caps.param_mem",
                        descriptor=SRAM_SEU,
                    )
                ],
                golden,
            )
        ]
        groups, singles = fork_groups(specs)
        assert groups == []
        assert [spec.index for spec in singles] == [0]


# ---------------------------------------------------------------------------
# Fork-vs-fresh byte equivalence
# ---------------------------------------------------------------------------

class TestForkEquivalence:
    @pytest.mark.parametrize("key,descriptors", [
        ("airbag-normal", [SRAM_SEU, SENSOR_STUCK]),
        ("airbag-crash", [SRAM_SEU, SENSOR_OFFSET_DRIFT]),
        ("steering", [SENSOR_OFFSET_DRIFT, SENSOR_STUCK]),
    ])
    def test_fork_group_matches_fresh_runs_traced(self, key, descriptors):
        campaign = _campaign(key)
        trace = TraceConfig(golden_signals=campaign.golden_signals())
        specs = _group_specs(key, descriptors, trace=trace)
        forked = execute_fork_group_from_registry(specs)
        fresh = _fresh(specs, key)
        assert [_outcome_bytes(o) for o in forked] == [
            _outcome_bytes(o) for o in fresh
        ]

    def test_serial_executor_reassembles_group_results_in_spec_order(self):
        key = "airbag-normal"
        bundle = registry.get_platform(key)
        specs = _group_specs(key, [SRAM_SEU, SENSOR_STUCK], count=4)
        executor = SerialExecutor(
            bundle.factory, bundle.observe, bundle.classifier_factory(),
            capture_state=bundle.capture_state,
            restore_state=bundle.restore_state,
        )
        outcomes = executor.run_batch(specs)
        assert [o.index for o in outcomes] == [s.index for s in specs]
        assert [_outcome_bytes(o) for o in outcomes] == [
            _outcome_bytes(o) for o in _fresh(specs, key)
        ]

    def test_campaign_fork_flag_is_invisible_in_results(self):
        key = "steering"
        space = _space(key, [SENSOR_OFFSET_DRIFT, SENSOR_STUCK])

        def run(fork):
            campaign = _campaign(key)
            return campaign.run(
                RandomStrategy(space, faults_per_scenario=1),
                runs=6, batch_size=6, trace=True, fork=fork,
            )

        plain = run(False)
        forked = run(True)
        assert [
            (r.index, r.outcome, tuple(r.matched_rules),
             tuple(sorted(r.observation.items())),
             r.digest.canonical() if r.digest else None)
            for r in plain.records
        ] == [
            (r.index, r.outcome, tuple(r.matched_rules),
             tuple(sorted(r.observation.items())),
             r.digest.canonical() if r.digest else None)
            for r in forked.records
        ]


# ---------------------------------------------------------------------------
# Fallback paths
# ---------------------------------------------------------------------------

class TestForkFallback:
    def test_group_without_snapshot_hooks_raises(self):
        specs = _group_specs("airbag-normal", [SRAM_SEU], count=2)
        bundle = registry.get_platform("airbag-normal")
        with pytest.raises(ForkUnsupported):
            execute_fork_group(
                specs, bundle.factory, bundle.observe,
                bundle.classifier_factory(),
                capture_state=None, restore_state=None,
            )

    def test_mixed_group_key_rejected(self):
        specs = _group_specs("airbag-normal", [SRAM_SEU], count=2)
        odd = _group_specs(
            "airbag-normal", [SRAM_SEU], count=2, t1=T1 + 1
        )
        bundle = registry.get_platform("airbag-normal")
        with pytest.raises(ValueError):
            execute_fork_group(
                [specs[0], odd[0]], bundle.factory, bundle.observe,
                bundle.classifier_factory(),
                capture_state=bundle.capture_state,
                restore_state=bundle.restore_state,
            )

    def test_chunk_tolerant_falls_back_for_hookless_platform(self):
        """acc has no snapshot hooks: fork-flagged chunk execution must
        degrade to per-run records identical to unflagged execution."""
        key = "acc"
        campaign = _campaign(key)
        golden = campaign.golden()
        bundle = registry.get_platform(key)
        space = FaultSpace(
            bundle.factory(Simulator()),
            [SRAM_SEU, SENSOR_OFFSET_DRIFT, SENSOR_STUCK],
            window_start=simtime.ms(5),
            window_end=DURATION - 1,
            time_bins=2,
        )
        path, descriptor = space.pairs[0]
        injections = [
            PlannedInjection(time=T1, target_path=path, descriptor=descriptor)
        ]
        forked = execute_chunk_tolerant([
            _spec(key, 0, injections, golden, fork=True),
            _spec(key, 1, injections, golden, fork=True),
        ])
        plain = execute_chunk_tolerant([
            _spec(key, 0, injections, golden, fork=False),
            _spec(key, 1, injections, golden, fork=False),
        ])
        assert [_outcome_bytes(o) for o in forked] == [
            _outcome_bytes(o) for o in plain
        ]


class TestForkedMemberDegradation:
    """A forked member that raises or hits its deadline degrades to the
    same record the per-run path gives, and its neighbours in the group
    stay byte-identical to fresh runs."""

    def test_raising_and_timed_out_members_degrade_like_per_run(self):
        key = "airbag-normal"
        campaign = _campaign(key)
        trace = TraceConfig(golden_signals=campaign.golden_signals())
        specs = _group_specs(key, [SRAM_SEU, SENSOR_STUCK], count=4,
                             trace=trace)
        unknown = PlannedInjection(
            time=T1, target_path="no.such.point", descriptor=SRAM_SEU
        )
        specs[1] = _spec(key, 1, [unknown], specs[1].golden, trace=trace)
        specs[2] = dataclasses.replace(specs[2], deadline_s=1e-6)
        groups, _singles = fork_groups(specs)
        assert [len(members) for _key, members in groups] == [4]

        forked = execute_fork_group_from_registry(specs)

        per_run = execute_chunk_tolerant(
            [dataclasses.replace(specs[1], fork=False)]
        )[0]
        assert forked[1].matched_rules == ("error:KeyError",)
        assert (
            forked[1].failure, forked[1].error, forked[1].attempts,
        ) == (per_run.failure, per_run.error, per_run.attempts)
        assert _outcome_bytes(forked[1]) == _outcome_bytes(per_run)

        per_run = execute_chunk_tolerant(
            [dataclasses.replace(specs[2], fork=False)]
        )[0]
        for outcome in (forked[2], per_run):
            assert outcome.matched_rules == ("timeout:deadline",)
            assert outcome.failure == "timeout"
            assert outcome.digest is not None and outcome.digest.partial

        fresh = _fresh([specs[0], specs[3]], key)
        assert [_outcome_bytes(o) for o in (forked[0], forked[3])] == [
            _outcome_bytes(o) for o in fresh
        ]


# ---------------------------------------------------------------------------
# Checkpoint identity
# ---------------------------------------------------------------------------

class TestForkCheckpointIdentity:
    def test_fork_is_not_part_of_the_campaign_key(self):
        """Like reuse_platform, fork is execution strategy: two
        journals recorded with and without it must share an identity."""
        assert "fork" not in inspect.signature(campaign_key).parameters
        key = "airbag-normal"
        space = _space(key, [SRAM_SEU])
        strategy = RandomStrategy(space, faults_per_scenario=1)
        assert campaign_key(_campaign(key), strategy) == campaign_key(
            _campaign(key), strategy
        )
