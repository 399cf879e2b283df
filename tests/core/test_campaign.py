"""Integration tests: the full Fig. 3 campaign loop on the airbag rig."""

import pytest

from repro.core import (
    Campaign,
    CoverageGuidedStrategy,
    ErrorScenario,
    FaultSpace,
    FaultSpaceCoverage,
    Outcome,
    PlannedInjection,
    RandomStrategy,
    WeakSpotStrategy,
    fmeda_from_campaign,
    hazard_cut_sets,
    summarize,
    synthesize_fault_tree,
)
from repro.faults import (
    FaultDescriptor,
    FaultKind,
    Persistence,
    SENSOR_STUCK,
    SRAM_SEU,
)
from repro.kernel import Simulator

from .conftest import build_airbag_platform, observe_airbag

STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.9},
    rate_per_hour=1e-7,
)

SEU = SRAM_SEU.with_rate(1e-6)


def make_space(duration=20_000_000):
    sim = Simulator()
    root = build_airbag_platform(sim)
    return FaultSpace(
        root,
        [SEU, STUCK_HIGH],
        window_start=1_000_000,
        window_end=duration // 2,
        time_bins=2,
    )


class TestGoldenRun:
    def test_golden_is_quiet(self, airbag_campaign):
        golden = observe_airbag.__call__  # readability only
        observation = airbag_campaign.golden()
        assert observation["squib_fired"] is False
        assert observation["detected"] == 0
        assert observation["ecc_corrected"] == 0
        assert observation["cycles"] > 0

    def test_golden_cached(self, airbag_campaign):
        first = airbag_campaign.golden()
        assert airbag_campaign.golden() is first

    def test_traced_campaign_builds_one_golden_platform(self):
        """The golden observation and the golden trace-signal values
        come from one fault-free simulation, not one each."""
        from repro.platforms import airbag

        builds = []

        def factory(sim):
            builds.append(sim)
            return airbag.build_normal_operation(sim)

        runs = 3
        campaign = Campaign(
            factory, duration=20_000_000, seed=5, platform="airbag-normal"
        )
        result = campaign.run(
            RandomStrategy(make_space(), faults_per_scenario=1),
            runs=runs, trace=True,
        )
        assert campaign.golden_signals()
        assert all(record.digest is not None for record in result.records)
        # An explicit factory disables warm reuse: one build per run,
        # plus the single golden build.
        assert len(builds) == runs + 1


class TestScenarioExecution:
    def test_single_ecc_bit_flip_is_masked(self, airbag_campaign):
        scenario = ErrorScenario(
            "flip",
            [
                PlannedInjection(
                    2_000_000, "plat.params.codewords",
                    SEU.with_params(address=0, bit=3),
                )
            ],
        )
        outcome, labels, obs, applied = airbag_campaign.execute_scenario(
            scenario, run_seed=1
        )
        assert applied == 1
        assert outcome is Outcome.MASKED
        assert obs["ecc_corrected"] >= 1

    def test_double_ecc_flip_is_detected(self, airbag_campaign):
        scenario = ErrorScenario(
            "double-flip",
            [
                PlannedInjection(
                    2_000_000, "plat.params.codewords",
                    SEU.with_params(address=0, bit=3),
                ),
                PlannedInjection(
                    2_000_000, "plat.params.codewords",
                    SEU.with_params(address=0, bit=7),
                ),
            ],
        )
        outcome, labels, obs, _ = airbag_campaign.execute_scenario(
            scenario, run_seed=1
        )
        assert outcome is Outcome.DETECTED_SAFE
        assert obs["detected"] >= 1

    def test_single_stuck_sensor_is_detected_not_hazardous(
        self, airbag_campaign
    ):
        scenario = ErrorScenario(
            "one-high",
            [
                PlannedInjection(
                    2_000_000, "plat.sensor_a.frontend", STUCK_HIGH
                )
            ],
        )
        outcome, *_ = airbag_campaign.execute_scenario(scenario, run_seed=1)
        assert outcome is Outcome.DETECTED_SAFE

    def test_double_stuck_sensors_fire_the_airbag(self, airbag_campaign):
        scenario = ErrorScenario(
            "both-high",
            [
                PlannedInjection(
                    2_000_000, "plat.sensor_a.frontend", STUCK_HIGH
                ),
                PlannedInjection(
                    2_000_000, "plat.sensor_b.frontend", STUCK_HIGH
                ),
            ],
        )
        outcome, labels, obs, _ = airbag_campaign.execute_scenario(
            scenario, run_seed=1
        )
        assert outcome is Outcome.HAZARDOUS
        assert obs["squib_fired"] is True

    def test_unknown_target_raises(self, airbag_campaign):
        scenario = ErrorScenario(
            "ghost", [PlannedInjection(0, "plat.nothing", SEU)]
        )
        with pytest.raises(KeyError):
            airbag_campaign.execute_scenario(scenario, run_seed=1)


class TestCampaignLoop:
    def test_random_campaign_runs_and_is_reproducible(self, airbag_campaign):
        def run_once():
            space = make_space()
            strategy = RandomStrategy(space, faults_per_scenario=1)
            result = airbag_campaign.run(strategy, runs=20)
            return [r.outcome for r in result.records]

        assert run_once() == run_once()

    def test_coverage_guided_closes_faster_than_random(self, airbag_campaign):
        def closure_after(strategy_cls, runs=16):
            space = make_space()
            coverage = FaultSpaceCoverage(space)
            if strategy_cls is CoverageGuidedStrategy:
                strategy = CoverageGuidedStrategy(space, coverage)
            else:
                strategy = RandomStrategy(space)
            airbag_campaign.run(strategy, runs=runs, coverage=coverage)
            return coverage.closure

        guided = closure_after(CoverageGuidedStrategy)
        random_closure = closure_after(RandomStrategy)
        assert guided >= random_closure
        assert guided == 1.0  # 8 cells, 16 guided runs: full closure

    def test_weakspot_escalates_to_hazard(self, airbag_campaign):
        space = make_space()
        strategy = WeakSpotStrategy(
            space, faults_per_scenario=2, exploration=0.3
        )
        result = airbag_campaign.run(
            strategy, runs=60, stop_on=Outcome.HAZARDOUS
        )
        assert result.first_run_with(Outcome.HAZARDOUS) is not None
        top_cells = strategy.top_cells(3)
        assert any("frontend" in cell[0][0] for cell in top_cells)

    def test_stop_on_ends_early(self, airbag_campaign):
        space = make_space()
        strategy = RandomStrategy(space, faults_per_scenario=1)
        result = airbag_campaign.run(
            strategy, runs=50, stop_on=Outcome.MASKED
        )
        assert result.runs <= 50
        if result.runs < 50:
            assert result.records[-1].outcome >= Outcome.MASKED


class TestResultAnalysis:
    def run_mixed(self, airbag_campaign):
        space = make_space()
        strategy = WeakSpotStrategy(space, faults_per_scenario=2)
        return airbag_campaign.run(strategy, runs=40)

    def test_histogram_and_probability(self, airbag_campaign):
        result = self.run_mixed(airbag_campaign)
        histogram = result.outcome_histogram()
        assert sum(histogram.values()) == result.runs
        for outcome in Outcome:
            ci = result.confidence_interval(outcome)
            assert 0.0 <= ci.low <= ci.high <= 1.0

    def test_summarize_prints_counts(self, airbag_campaign):
        result = self.run_mixed(airbag_campaign)
        text = summarize(result)
        assert "campaign: 40 runs" in text
        assert "MASKED" in text

    def test_hazard_cut_sets_minimal(self, airbag_campaign):
        result = self.run_mixed(airbag_campaign)
        cut_sets = hazard_cut_sets(result)
        if cut_sets:  # hazard requires the double stuck-high scenario
            assert all(
                any("sensor_stuck_high" in event for event in cs)
                for cs in cut_sets
            )

    def test_fault_tree_synthesis(self, airbag_campaign):
        # Force the hazardous record deterministically.
        scenario = ErrorScenario(
            "both-high",
            [
                PlannedInjection(
                    2_000_000, "plat.sensor_a.frontend", STUCK_HIGH
                ),
                PlannedInjection(
                    2_000_000, "plat.sensor_b.frontend", STUCK_HIGH
                ),
            ],
        )
        from repro.core import CampaignResult, RunRecord

        result = CampaignResult(duration=20_000_000)
        outcome, labels, obs, applied = airbag_campaign.execute_scenario(
            scenario, run_seed=1
        )
        result.append(
            RunRecord(0, scenario, outcome, labels, obs, applied)
        )
        tree = synthesize_fault_tree(
            result,
            {"sensor_stuck_high": STUCK_HIGH, "sram_seu": SEU},
            exposure_hours=8000,
        )
        assert tree is not None
        cut_sets = tree.minimal_cut_sets()
        # Basic events are target-qualified: the hazard needs BOTH
        # sensors stuck high, and the tree says exactly that.
        assert cut_sets == [
            frozenset(
                {
                    "plat.sensor_a.frontend:sensor_stuck_high",
                    "plat.sensor_b.frontend:sensor_stuck_high",
                }
            )
        ]
        assert 0 < tree.top_event_probability() < 1

    def test_fault_tree_none_without_hazard(self, airbag_campaign):
        from repro.core import CampaignResult

        result = CampaignResult(duration=1)
        assert (
            synthesize_fault_tree(result, {}, exposure_hours=100) is None
        )

    def test_fmeda_bridge_uses_measured_coverage(self, airbag_campaign):
        result = self.run_mixed(airbag_campaign)
        fmeda = fmeda_from_campaign(
            result,
            {"sensor_stuck_high": STUCK_HIGH, "sram_seu": SEU},
        )
        measured = result.diagnostic_coverage_by_descriptor()
        if measured:
            assert len(fmeda.modes) == len(measured)
            for mode in fmeda.modes:
                assert mode.diagnostic_coverage == measured[mode.mode]
