"""Property-based equivalence of warm-platform reuse.

For *any* sequence of scenarios — arbitrary injection targets, fault
descriptors, injection times, and run seeds — pushing the whole
sequence through **one** warm platform (reset between runs) must
produce the same :class:`~repro.core.runspec.RunOutcome` content and
the same :class:`~repro.observe.digest.TraceDigest` bytes as running
each scenario on its own freshly elaborated platform.  This is the
generative version of the example-based fresh-vs-warm tests in
``tests/core/test_warm_equivalence.py``: hypothesis searches the
scenario space for any state the reset protocol fails to restore.
"""

from hypothesis import given, settings, strategies as st

from repro.core import Campaign, TraceConfig
from repro.core import runspec
from repro.core.runspec import (
    RunSpec,
    clear_warm_platforms,
    execute_runspec,
)
from repro.core.scenario import ErrorScenario, FaultSpace, PlannedInjection
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

OFFSET_DRIFT = FaultDescriptor(
    name="sensor_offset",
    kind=FaultKind.OFFSET_DRIFT,
    persistence=Persistence.PERMANENT,
    params={"offset": 0.4},
    rate_per_hour=1e-7,
)

DURATION = simtime.ms(40)
WINDOW_START = simtime.ms(2)
WINDOW_END = simtime.ms(30)

_SPACE = FaultSpace(
    airbag.build_normal_operation(Simulator()),
    [SRAM_SEU.with_rate(5e-7), STUCK_HIGH, OFFSET_DRIFT],
    window_start=WINDOW_START,
    window_end=WINDOW_END,
    time_bins=2,
)

_CAMPAIGN = Campaign(
    duration=DURATION, seed=3, platform="airbag-normal"
)
_GOLDEN = _CAMPAIGN.golden()
_TRACE = TraceConfig(golden_signals=_CAMPAIGN.golden_signals())
_BUNDLE = registry.get_platform("airbag-normal")
_CLASSIFIER = _BUNDLE.classifier_factory()


@st.composite
def scenario_sequences(draw):
    """A short campaign worth of arbitrary scenarios."""
    count = draw(st.integers(1, 4))
    sequence = []
    for index in range(count):
        injections = []
        for _ in range(draw(st.integers(0, 2))):
            pair_index = draw(st.integers(0, len(_SPACE.pairs) - 1))
            path, descriptor = _SPACE.pairs[pair_index]
            time = draw(st.integers(WINDOW_START, WINDOW_END - 1))
            injections.append(
                PlannedInjection(
                    time=time, target_path=path, descriptor=descriptor
                )
            )
        sequence.append((
            ErrorScenario(name=f"prop_{index}", injections=injections),
            draw(st.integers(0, 2**31 - 1)),
        ))
    return sequence


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


def _execute(sequence, reset):
    outcomes = []
    for index, (scenario, run_seed) in enumerate(sequence):
        spec = RunSpec(
            index=index,
            scenario=scenario,
            run_seed=run_seed,
            duration=DURATION,
            platform="airbag-normal",
            golden=_GOLDEN,
            trace=_TRACE,
            reuse_platform=reset is not None,
        )
        outcomes.append(
            execute_runspec(
                spec, _BUNDLE.factory, _BUNDLE.observe, _CLASSIFIER,
                reset=reset,
            )
        )
    return outcomes


class TestWarmReuseProperty:
    @given(scenario_sequences())
    @settings(max_examples=25, deadline=None)
    def test_one_warm_platform_equals_n_fresh_platforms(self, sequence):
        clear_warm_platforms()
        try:
            warm = _execute(sequence, reset=_BUNDLE.reset)
            # Reset the used platform once more, as the next warm run
            # would, and keep its module state for the check below.
            sim, root = runspec._WARM_PLATFORMS["airbag-normal"]
            sim.reset()
            _BUNDLE.reset(root)
            reset_state = root.capture_state()
        finally:
            clear_warm_platforms()
        fresh = _execute(sequence, reset=None)
        assert [_outcome_bytes(o) for o in warm] == [
            _outcome_bytes(o) for o in fresh
        ]
        # The reset restores every captured field, including any the
        # next run's outcome would not show.
        assert reset_state == _BUNDLE.factory(Simulator()).capture_state()
