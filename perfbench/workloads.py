"""The four benchmark workloads, driven through the public API only.

Each workload is a closed loop with one client: :meth:`Workload.chunk`
runs one complete campaign (or gate enumeration) and returns when its
result is in hand; run.py calls it again until the run's time is
up.  Every chunk of a run repeats the same seeded input, so every
chunk must return the same output fingerprint, and exact counters
taken over any one chunk hold for all of them.

Why each workload exists (see METRICS.md for the full table):

* ``airbag-serial`` — per-run simulation cost: warm-reuse serial
  campaign, ~92% of wall time in ``Simulator.run``;
* ``risk-fork`` — planning, snapshot/restore and the report fold: a
  mission-sampled campaign whose runs share one fault-free prefix;
  about half its runs end NO_EFFECT or MASKED;
* ``airbag-resume-pool`` — dispatch, pickling, trace digests and the
  checkpoint journal: the airbag campaign on a 1-worker pool, run in
  two halves with a resume in between;
* ``gate-enum`` — the vector gate engine alone; no kernel, TLM or
  campaign code runs, so changes there should leave it unchanged.

Imports of ``repro`` happen inside the methods: run.py times them
as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import typing as _t

#: Simulated length of one airbag run (60 ms, in kernel time units).
AIRBAG_DURATION_MS = 60
#: Injection instant of the risk workload: 50 of 60 ms are a shared,
#: fault-free prefix.
RISK_INJECT_MS = 50
#: Seed whose outputs and exact counters are pinned in ``pins.json``.
PIN_SEED = 7


class Chunk(_t.NamedTuple):
    """One closed-loop iteration's result."""

    runs: int
    failed: int
    dangerous: int
    retried: int
    fingerprint: _t.Dict[str, _t.Any]
    #: Workload-side per-layer values (journal bytes, gate sites).
    layer: _t.Dict[str, float] = {}


def sha(data: _t.Union[str, bytes]) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def records_fingerprint(result) -> _t.Dict[str, _t.Any]:
    """Outcome histogram plus a sha of the ordered (outcome, rules)."""
    return {
        "histogram": {
            outcome.name: count
            for outcome, count in result.outcome_histogram().items()
            if count
        },
        "records_sha": sha(json.dumps([
            [record.outcome.name, list(record.matched_rules)]
            for record in result.records
        ])),
    }


def campaign_chunk(result, fingerprint) -> Chunk:
    return Chunk(
        runs=result.runs,
        failed=result.timed_out + result.terminally_failed,
        dangerous=len(result.dangerous()),
        retried=result.retried,
        fingerprint=fingerprint,
    )


def airbag_space():
    """The CAPS fault space: SRAM upsets plus a stuck-high sensor."""
    from repro.core import FaultSpace
    from repro.faults import (
        SRAM_SEU, FaultDescriptor, FaultKind, Persistence,
    )
    from repro.kernel import Simulator, simtime
    from repro.platforms import airbag

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


class Workload:
    name = ""
    #: Modules whose import is part of set-up.
    imports: _t.Tuple[str, ...] = ()
    #: Worker processes that execute runs.
    workers = 1

    def __init__(self, workdir: pathlib.Path):
        self.workdir = pathlib.Path(workdir)
        self.seed = 0

    def setup(self, seed: int) -> None:
        """Build everything the loop needs and warm it up."""
        raise NotImplementedError

    def chunk(self) -> Chunk:
        raise NotImplementedError

    def check(self, fingerprint: _t.Mapping[str, _t.Any]) -> _t.List[str]:
        """Problems found re-deriving *fingerprint* another way."""
        raise NotImplementedError

    def begin(self) -> None:
        """Start of a timed region, after set-up."""

    def end(self) -> None:
        """End of a timed region: release what :meth:`begin` acquired."""

    def profiled_chunk(self) -> None:
        """The chunk the cProfile pass runs (in this process)."""
        self.chunk()

    def campaigns(self) -> list:
        return []


class AirbagCampaign(Workload):
    imports = ("repro.core", "repro.platforms")
    runs = 160
    batch_size = 16

    def _campaign(self, seed: int):
        from repro.core import Campaign
        from repro.core.runspec import clear_warm_platforms
        from repro.kernel import simtime

        # Every set-up elaborates its own warm platform.
        clear_warm_platforms()
        campaign = Campaign(
            duration=simtime.ms(AIRBAG_DURATION_MS),
            seed=seed,
            platform="airbag-normal",
        )
        campaign.golden()
        return campaign

    def _strategy(self):
        from repro.core import RandomStrategy

        return RandomStrategy(self.space, faults_per_scenario=2)

    def serial(self, runs: int, **options):
        return self.campaign.run(
            self._strategy(), runs=runs, backend="serial",
            batch_size=self.batch_size, **options,
        )

    def campaigns(self) -> list:
        return [self.campaign]


class AirbagSerial(AirbagCampaign):
    name = "airbag-serial"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.space = airbag_space()
        self.campaign = self._campaign(seed)
        self.serial(self.batch_size)

    def chunk(self) -> Chunk:
        result = self.serial(self.runs)
        return campaign_chunk(result, records_fingerprint(result))

    def check(self, fingerprint) -> _t.List[str]:
        fresh = records_fingerprint(self.serial(self.runs, reuse_platform=False))
        if fresh != fingerprint:
            return [f"{self.name}: warm records {fingerprint} differ from "
                    f"fresh-build records {fresh}"]
        return []


class AirbagResumePool(AirbagCampaign):
    name = "airbag-resume-pool"
    #: One worker: with the dispatching parent that is two busy
    #: processes, which a 2-CPU host runs without time-slicing.  Two
    #: workers made the parent, the workers and the host's other load
    #: contend for the cores, and runs_per_s spread twice as wide.
    workers = 1
    runs = 192

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.space = airbag_space()
        self.campaign = self._campaign(seed)
        self.campaign.golden_signals()
        self._journals = 0
        # The warm-up runs on a pool the campaign spawns and joins
        # itself, so no set-up CPU time reaches the timed region.
        self._iteration(2 * self.batch_size, "parallel")

    def begin(self) -> None:
        from repro.core import ParallelExecutor

        # One pool serves every chunk of the region; end() joins it,
        # and only then does getrusage count its workers' CPU time.
        self.executor = ParallelExecutor(
            self.campaign.platform, workers=self.workers
        )

    def end(self) -> None:
        self.executor.close()

    def _parallel(self, runs: int, journal: pathlib.Path, backend):
        return self.campaign.run(
            self._strategy(), runs=runs, backend=backend,
            workers=self.workers, batch_size=self.batch_size, trace=True,
            checkpoint=str(journal),
        )

    def _iteration(self, runs: int, backend) -> Chunk:
        self._journals += 1
        journal = self.workdir / f"journal-{self._journals}.jsonl"
        first = self._parallel(runs // 2, journal, backend)
        result = self._parallel(runs, journal, backend)
        size = journal.stat().st_size
        journal.unlink()
        fingerprint = records_fingerprint(result)
        fingerprint["resumed"] = result.resumed
        return Chunk(
            runs=first.runs + result.runs - result.resumed,
            failed=(first.timed_out + first.terminally_failed
                    + result.timed_out + result.terminally_failed),
            dangerous=len(result.dangerous()),
            retried=first.retried + result.retried,
            fingerprint=fingerprint,
            layer={"journal.bytes_per_run": size / result.runs},
        )

    def chunk(self) -> Chunk:
        return self._iteration(self.runs, self.executor)

    def check(self, fingerprint) -> _t.List[str]:
        problems = []
        if fingerprint.get("resumed") != self.runs // 2:
            problems.append(
                f"{self.name}: resume loaded {fingerprint.get('resumed')} "
                f"runs from the journal, expected {self.runs // 2}"
            )
        serial = records_fingerprint(self.serial(self.runs))
        pooled = {k: v for k, v in fingerprint.items() if k != "resumed"}
        if pooled != serial:
            problems.append(
                f"{self.name}: pooled+resumed records {pooled} differ from "
                f"airbag-serial records {serial} at the same seed"
            )
        return problems

    def profiled_chunk(self) -> None:
        # The kernel work per run matches the pool's; profile it here,
        # where the profiler can see it.
        self.serial(self.runs, trace=True)


class RiskFork(Workload):
    name = "risk-fork"
    imports = ("repro.core", "repro.platforms", "repro.mission", "repro.risk")
    runs = 256
    batch_size = 64

    def setup(self, seed: int) -> None:
        from repro.core import Campaign
        from repro.core.runspec import clear_warm_platforms
        from repro.kernel import simtime
        from repro.mission import standard_passenger_car_profile

        clear_warm_platforms()
        self.seed = seed
        self.space = airbag_space()
        self.profile = standard_passenger_car_profile()
        self.campaign = Campaign(
            duration=simtime.ms(AIRBAG_DURATION_MS),
            seed=seed,
            platform="airbag-normal",
        )
        self.campaign.golden()
        self._report(self.batch_size, fork=True)

    def _report(self, runs: int, fork: bool):
        from repro.kernel import simtime
        from repro.risk import RiskReport, SampledScenarioStrategy, StressSampler

        strategy = SampledScenarioStrategy(
            self.space,
            StressSampler(self.profile, seed=self.seed + 4),
            injection_time=simtime.ms(RISK_INJECT_MS),
        )
        result = self.campaign.run(
            strategy, runs=runs, backend="serial",
            batch_size=self.batch_size, fork=fork,
        )
        return result, RiskReport.from_campaign(result, strategy)

    def chunk(self) -> Chunk:
        result, report = self._report(self.runs, fork=True)
        return campaign_chunk(result, {"report_sha": sha(report.canonical())})

    def check(self, fingerprint) -> _t.List[str]:
        _result, report = self._report(self.runs, fork=False)
        fresh = {"report_sha": sha(report.canonical())}
        if fresh != fingerprint:
            return [f"{self.name}: forked report {fingerprint} differs from "
                    f"per-run report {fresh}"]
        return []

    def campaigns(self) -> list:
        return [self.campaign]


class GateEnum(Workload):
    name = "gate-enum"
    imports = ("repro.gate",)
    runs_per_site = 16

    def setup(self, seed: int) -> None:
        from repro import gate

        self.seed = seed
        self.circuits = {
            "alu8": gate.alu(8),
            "registered_adder8": gate.registered_adder(8),
        }
        self.sites = {
            name: gate.enumerate_sites(circuit, gate.FAULT_KINDS)
            for name, circuit in self.circuits.items()
        }
        self._enumerate(1, "vector")

    def _enumerate(self, runs_per_site: int, engine: str):
        from repro import gate

        return {
            name: gate.run_campaign(
                circuit, "out", None, sites=self.sites[name],
                runs_per_site=runs_per_site, seed=self.seed, engine=engine,
            )[0]
            for name, circuit in self.circuits.items()
        }

    def chunk(self) -> Chunk:
        profiles = self._enumerate(self.runs_per_site, "vector")
        return Chunk(
            runs=sum(profile.total for profile in profiles.values()),
            failed=0,
            dangerous=0,
            retried=0,
            fingerprint={
                name: sha(profile.canonical())
                for name, profile in profiles.items()
            },
            layer={"gate.sites": sum(map(len, self.sites.values()))},
        )

    def check(self, fingerprint) -> _t.List[str]:
        # The scalar engine is the reference; it is ~50x slower, so it
        # checks the first two shared vectors only.
        vector = self._enumerate(2, "vector")
        scalar = self._enumerate(2, "scalar")
        return [
            f"{self.name}: {name} vector profile differs from scalar"
            for name in self.circuits
            if vector[name].canonical() != scalar[name].canonical()
        ]


WORKLOADS: _t.Dict[str, _t.Type[Workload]] = {
    cls.name: cls
    for cls in (AirbagSerial, RiskFork, AirbagResumePool, GateEnum)
}
