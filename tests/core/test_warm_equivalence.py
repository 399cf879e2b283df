"""Warm-platform reuse must be invisible in campaign results.

The tentpole contract of the warm-reuse fast path: a campaign that
keeps one platform per worker and restores it with the reset protocol
(``Simulator.reset`` + the bundle ``reset`` hook) produces outcomes,
digests, and checkpoint journals **byte-identical** to one that
elaborates a fresh platform for every run.  Only wall-clock fields may
differ — they are stripped by the canonicalizers here, exactly as
``TraceDigest.canonical()`` already excludes wall time.
"""

import json

import pytest

from repro.core import Campaign, RandomStrategy
from repro.core.runspec import (
    RunSpec,
    _WARM_PLATFORMS,
    clear_warm_platforms,
    execute_runspec,
)
from repro.core.scenario import ErrorScenario, FaultSpace, PlannedInjection
from repro.core.stressor import Stressor
from repro.faults import FaultDescriptor, FaultKind, Persistence, SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.platforms import airbag, registry

STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.5},
    rate_per_hour=1e-6,
)

DURATION = simtime.ms(60)


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_platforms()
    yield
    clear_warm_platforms()


def airbag_campaign(seed=7):
    return Campaign(duration=DURATION, seed=seed, platform="airbag-normal")


def airbag_strategy(seed=7):
    sim = Simulator()
    root = airbag.build_normal_operation(sim)
    space = FaultSpace(
        root,
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )
    return RandomStrategy(space, faults_per_scenario=1)


def canonical_records(result):
    """Everything simulation-deterministic about each record.

    ``kernel_stats`` participates minus ``wall_s`` — the event /
    process-step / delta-cycle counters must match exactly (a warm
    kernel that schedules even one extra delta cycle is a reset-protocol
    bug), but wall clock never can.
    """
    rows = []
    for record in result.records:
        stats = dict(record.kernel_stats or {})
        stats.pop("wall_s", None)
        rows.append((
            record.index,
            record.outcome,
            tuple(record.matched_rules),
            tuple(sorted(record.observation.items())),
            record.injections_applied,
            tuple(sorted(stats.items())),
            record.attempts,
            record.failure,
            record.digest.canonical() if record.digest else None,
        ))
    return rows


def canonical_journal(path):
    """Journal lines with wall clock stripped (still full JSON rows)."""
    rows = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        if isinstance(payload, dict):
            stats = payload.get("kernel_stats")
            if isinstance(stats, dict):
                stats.pop("wall_s", None)
        rows.append(payload)
    return rows


class TestWarmCampaignEquivalence:
    def test_outcomes_and_digests_byte_identical(self):
        fresh = airbag_campaign().run(
            airbag_strategy(), runs=16, trace=True, reuse_platform=False,
        )
        clear_warm_platforms()
        warm = airbag_campaign().run(
            airbag_strategy(), runs=16, trace=True, reuse_platform=True,
        )
        assert canonical_records(warm) == canonical_records(fresh)
        assert _WARM_PLATFORMS  # the warm path actually engaged

    def test_reuse_platform_false_never_caches(self):
        airbag_campaign().run(
            airbag_strategy(), runs=4, reuse_platform=False,
        )
        assert not _WARM_PLATFORMS

    def test_non_resettable_platform_never_caches(self):
        assert not registry.get_platform("hostile-dut").resettable
        assert registry.get_platform("airbag-normal").resettable

    def test_journals_byte_identical(self, tmp_path):
        fresh_path = tmp_path / "fresh.jsonl"
        warm_path = tmp_path / "warm.jsonl"
        airbag_campaign().run(
            airbag_strategy(), runs=8, trace=True, batch_size=4,
            checkpoint=str(fresh_path), reuse_platform=False,
        )
        clear_warm_platforms()
        airbag_campaign().run(
            airbag_strategy(), runs=8, trace=True, batch_size=4,
            checkpoint=str(warm_path), reuse_platform=True,
        )
        assert canonical_journal(warm_path) == canonical_journal(fresh_path)

    def test_reuse_is_not_part_of_checkpoint_identity(self, tmp_path):
        """A journal written fresh resumes under warm reuse (and the
        other way around): the flag must not change the campaign key."""
        path = tmp_path / "journal.jsonl"
        first = airbag_campaign().run(
            airbag_strategy(), runs=6, batch_size=3,
            checkpoint=str(path), reuse_platform=False,
        )
        resumed = airbag_campaign().run(
            airbag_strategy(), runs=6, batch_size=3,
            checkpoint=str(path), reuse_platform=True,
        )
        assert resumed.resumed == 6
        assert canonical_records(resumed) == canonical_records(first)


class TestWarmRunspecProtocol:
    """Runspec-level behavior of the warm cache itself."""

    def _spec(self, scenario=None, **kwargs):
        from repro.core.scenario import ErrorScenario

        campaign = airbag_campaign()
        return RunSpec(
            index=kwargs.pop("index", 0),
            scenario=scenario or ErrorScenario(name="clean", injections=[]),
            run_seed=kwargs.pop("run_seed", 1234),
            duration=DURATION,
            platform="airbag-normal",
            golden=campaign.golden(),
            **kwargs,
        )

    def _bundle(self):
        return registry.get_platform("airbag-normal")

    def test_platform_elaborated_once_and_reused(self):
        bundle = self._bundle()
        built = []

        def counting_factory(sim):
            built.append(sim)
            return bundle.factory(sim)

        classifier = bundle.classifier_factory()
        for index in range(3):
            execute_runspec(
                self._spec(index=index), counting_factory, bundle.observe,
                classifier, reset=bundle.reset,
            )
        assert len(built) == 1
        assert "airbag-normal" in _WARM_PLATFORMS

    def test_timeout_interrupted_platform_stays_warm_and_equivalent(self):
        """A run cut off by its wall-clock deadline leaves the platform
        mid-flight; the reset protocol must still restore it — the next
        run on the interrupted platform matches a fresh-build run."""
        bundle = self._bundle()
        classifier = bundle.classifier_factory()

        fresh = execute_runspec(
            self._spec(index=1, reuse_platform=False),
            bundle.factory, bundle.observe, classifier,
        )

        timed_out = execute_runspec(
            self._spec(index=0, deadline_s=1e-6),
            bundle.factory, bundle.observe, classifier, reset=bundle.reset,
        )
        assert timed_out.failure == "timeout"
        assert "airbag-normal" in _WARM_PLATFORMS  # kept, not discarded

        warm = execute_runspec(
            self._spec(index=1),
            bundle.factory, bundle.observe, classifier, reset=bundle.reset,
        )
        fresh_stats = {
            k: v for k, v in fresh.kernel_stats.items() if k != "wall_s"
        }
        warm_stats = {
            k: v for k, v in warm.kernel_stats.items() if k != "wall_s"
        }
        assert warm.outcome == fresh.outcome
        assert warm.matched_rules == fresh.matched_rules
        assert warm.observation == fresh.observation
        assert warm_stats == fresh_stats

    def test_raising_run_discards_the_warm_entry(self):
        """Unwinding with the platform in an unknown mid-run state must
        not trust the reset protocol: the cache entry is dropped and
        the next run re-elaborates."""
        bundle = self._bundle()
        classifier = bundle.classifier_factory()

        execute_runspec(
            self._spec(index=0), bundle.factory, bundle.observe,
            classifier, reset=bundle.reset,
        )
        assert "airbag-normal" in _WARM_PLATFORMS

        def raising_observe(root):
            raise RuntimeError("probe exploded")

        with pytest.raises(RuntimeError):
            execute_runspec(
                self._spec(index=1), bundle.factory, raising_observe,
                classifier, reset=bundle.reset,
            )
        assert "airbag-normal" not in _WARM_PLATFORMS

        built = []

        def counting_factory(sim):
            built.append(sim)
            return bundle.factory(sim)

        execute_runspec(
            self._spec(index=2), counting_factory, bundle.observe,
            classifier, reset=bundle.reset,
        )
        assert len(built) == 1  # re-elaborated after the discard

    def test_arm_failure_leaves_the_warm_root_clean(self):
        """A spec whose stressor cannot arm (unknown injection target)
        must not leave its stressor behind on the warm platform, and
        the next warm run must still match a fresh build."""
        bundle = self._bundle()
        classifier = bundle.classifier_factory()
        execute_runspec(
            self._spec(index=0), bundle.factory, bundle.observe,
            classifier, reset=bundle.reset,
        )
        _sim, root = _WARM_PLATFORMS["airbag-normal"]

        unknown = ErrorScenario(
            name="unknown_target",
            injections=[
                PlannedInjection(
                    time=simtime.ms(10), target_path="no.such.point",
                    descriptor=SRAM_SEU,
                )
            ],
        )
        for index in (1, 2):
            with pytest.raises(KeyError):
                execute_runspec(
                    self._spec(unknown, index=index), bundle.factory,
                    bundle.observe, classifier, reset=bundle.reset,
                )
            assert not [
                child for child in root.children
                if isinstance(child, Stressor)
            ]
            assert "airbag-normal" not in _WARM_PLATFORMS

        stuck = ErrorScenario(
            name="stuck",
            injections=[
                PlannedInjection(
                    time=simtime.ms(10),
                    target_path="caps.sensor_a.frontend",
                    descriptor=STUCK_HIGH,
                )
            ],
        )
        fresh = execute_runspec(
            self._spec(stuck, index=3, reuse_platform=False),
            bundle.factory, bundle.observe, classifier,
        )
        execute_runspec(
            self._spec(index=4), bundle.factory, bundle.observe,
            classifier, reset=bundle.reset,
        )
        warm = execute_runspec(
            self._spec(stuck, index=3), bundle.factory, bundle.observe,
            classifier, reset=bundle.reset,
        )
        strip = lambda stats: {  # noqa: E731
            key: value for key, value in stats.items() if key != "wall_s"
        }
        assert (
            warm.outcome, warm.matched_rules, warm.observation,
            warm.injections_applied, strip(warm.kernel_stats),
        ) == (
            fresh.outcome, fresh.matched_rules, fresh.observation,
            fresh.injections_applied, strip(fresh.kernel_stats),
        )
