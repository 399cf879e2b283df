"""Span tracing and layer attribution, recorded from the benchmark side.

Nothing under ``src/`` is instrumented.  :class:`Tracer` replaces the
public functions at each layer boundary with thin wrappers for the
duration of a traced region and puts the originals back afterwards:

* a *span* wrapper records ``(name, start, end, parent, run)`` in
  memory — ``parent`` is the index of the enclosing open span of the
  same process, ``run`` the campaign run index being executed (``-1``
  outside a run);
* a *counter* wrapper only counts calls (TLM transports, payload
  constructions, DMI grants).

Pool workers are forked from the traced parent, so they inherit the
wrappers.  Each worker starts an empty span list after the fork and
writes it to ``<workdir>/worker-<pid>.json`` when it exits; the parent
merges those files with :meth:`Tracer.collect_workers`.

:func:`layer_metrics` turns spans into the per-layer metrics described
in ``METRICS.md``; :func:`profile_shares` splits ``Simulator.run`` time
into kernel / TLM / model packages from a cProfile pass.
"""
# vp-lint: disable-file=VP005 - benchmark: wall-clock timing is the measurement

from __future__ import annotations

import cProfile
import collections
import json
import multiprocessing.util
import os
import pathlib
import pickle
import pstats
import time
import typing as _t

from repro.core import campaign as _campaign
from repro.core import checkpoint as _checkpoint
from repro.core import classification as _classification
from repro.core import executors as _executors
from repro.core import runspec as _runspec
from repro.core import stressor as _stressor
from repro.kernel import scheduler as _scheduler
from repro.observe import runtrace as _runtrace
from repro.platforms import registry as _registry
from repro.tlm import payload as _payload
from repro.tlm import sockets as _sockets

#: Layers that run inside a campaign run (on the executing process).
RUN_LAYERS = (
    "run.acquire", "kernel.run", "kernel.snapshot", "kernel.restore",
    "classify", "observe.finalize",
)
#: Layers the driving (parent) process runs outside any run.
TOP_LAYERS = (
    "plan", "journal.write", "journal.load", "risk.report",
    "gate.compile", "gate.sim",
)

Span = _t.Tuple[str, float, float, int, int]


class Tracer:
    """In-memory span and counter recorder over patched layer entry points.

    Use as a context manager around a traced region.  ``capture`` stays
    true until :meth:`stop_capture`: while it holds, every dispatched
    batch's specs and outcomes are kept for the exact counters (the
    traced workloads repeat one identical campaign per loop iteration,
    so the first iteration gives the exact per-run values).
    """

    def __init__(self, workdir: pathlib.Path):
        self.workdir = pathlib.Path(workdir)
        self.spans: _t.List[_t.Optional[Span]] = []
        self.worker_spans: _t.List[Span] = []
        self.counts: _t.Counter = collections.Counter()
        self.captured_batches: _t.List[list] = []
        self.captured_outcomes: list = []
        #: ``kernel_stats["wall_s"]`` of every dispatched outcome.
        self.outcome_walls: _t.List[float] = []
        self.capture = True
        self.run = -1
        self._stack: _t.List[_t.Tuple[int, str]] = []
        self._fork_runs: _t.Dict[int, int] = {}
        self._patches: _t.List[_t.Tuple[_t.Any, str, _t.Any]] = []
        self._bundles: _t.Dict[str, _t.Any] = {}
        self.installed = False
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, skip_under: str = ""):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if skip_under and stack and stack[-1][1] == skip_under:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.run)

        return wrapper

    def _count(self, key: str, fn, when_result: bool = False):
        counts = self.counts

        if when_result:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if result is not None:
                    counts[key] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- install / uninstall --------------------------------------------------

    def install(self, campaigns: _t.Sequence[_t.Any] = ()) -> None:
        """Wrap every layer entry point; *campaigns* get their platform
        hooks wrapped too (they copied them from the registry)."""
        tracer = self
        span, count, patch = self._span, self._count, self._patch

        patch(_campaign.Campaign, "plan_batch",
              span("plan", _campaign.Campaign.plan_batch))
        for cls in (_executors.SerialExecutor, _executors.ParallelExecutor):
            patch(cls, "run_batch", self._dispatch_wrapper(cls.run_batch))

        def run_wrapper(fn):
            traced = span("run", fn)

            def wrapper(spec, *args, **kwargs):
                tracer.run = spec.index
                try:
                    return traced(spec, *args, **kwargs)
                finally:
                    tracer.run = -1
            return wrapper

        def group_wrapper(fn):
            traced = span("run", fn)

            def wrapper(specs, *args, **kwargs):
                tracer._fork_runs = {
                    id(spec.scenario): spec.index for spec in specs
                }
                tracer.run = specs[0].index
                try:
                    return traced(specs, *args, **kwargs)
                finally:
                    tracer.run = -1
            return wrapper

        # executors imported both names from runspec; patch both bindings.
        traced_run = run_wrapper(_runspec.execute_runspec)
        traced_group = group_wrapper(_runspec.execute_fork_group)
        for module in (_runspec, _executors):
            patch(module, "execute_runspec", traced_run)
            patch(module, "execute_fork_group", traced_group)

        arm_forked = _stressor.Stressor.arm_forked

        def arm_forked_wrapper(self_, scenario, seq_base):
            tracer.run = tracer._fork_runs.get(id(scenario), tracer.run)
            return arm_forked(self_, scenario, seq_base)

        patch(_stressor.Stressor, "arm_forked", arm_forked_wrapper)

        sim = _scheduler.Simulator
        patch(sim, "run", span("kernel.run", sim.run))
        patch(sim, "reset", span("run.acquire", sim.reset))
        patch(sim, "snapshot", span("kernel.snapshot", sim.snapshot))
        # A warm reset is a restore of the elaboration snapshot; it
        # belongs to the acquire span, not to fork restores.
        patch(sim, "restore",
              span("kernel.restore", sim.restore, skip_under="run.acquire"))
        patch(_classification.Classifier, "classify",
              span("classify", _classification.Classifier.classify))
        patch(_runtrace.RunTrace, "finalize",
              span("observe.finalize", _runtrace.RunTrace.finalize))

        ckpt = _checkpoint.CampaignCheckpoint
        patch(ckpt, "record_batch", span("journal.write", ckpt.record_batch))
        open_write = span("journal.write", ckpt.open)
        open_load = span("journal.load", ckpt.open)

        def open_wrapper(self_, key):
            resuming = self_.path.exists() and self_.path.stat().st_size > 0
            return (open_load if resuming else open_write)(self_, key)

        patch(ckpt, "open", open_wrapper)

        patch(_sockets.TargetSocket, "deliver",
              count("tlm.transports", _sockets.TargetSocket.deliver))
        patch(_sockets.InitiatorSocket, "get_dmi",
              count("tlm.dmi_grants", _sockets.InitiatorSocket.get_dmi,
                    when_result=True))
        patch(_payload.GenericPayload, "__init__",
              count("tlm.payloads", _payload.GenericPayload.__init__))

        try:
            from repro import gate as _gate
            from repro.gate import vector as _vector
        except ImportError:  # numpy missing: no gate workload either
            pass
        else:
            patch(_vector.GateProgram, "__init__",
                  span("gate.compile", _vector.GateProgram.__init__))
            patch(_gate, "run_campaign", span("gate.sim", _gate.run_campaign))
        try:
            from repro.risk import report as _report
        except ImportError:
            pass
        else:
            original = _report.RiskReport.__dict__["from_campaign"]
            patch(_report.RiskReport, "from_campaign",
                  classmethod(span("risk.report", original.__func__)))

        # Platform hooks: the registry serves pool workers, campaigns
        # hold their own copies.
        for name in _registry.available_platforms():
            bundle = _registry.get_platform(name)
            self._bundles[name] = bundle
            wrapped = bundle._replace(
                factory=span("run.acquire", bundle.factory),
                reset=None if bundle.reset is None
                else span("run.acquire", bundle.reset),
            )
            _registry.register_platform(*wrapped, replace=True)  # vp-lint: disable=VP009 - same bundle, hooks wrapped in place
        for campaign in campaigns:
            bundle = _registry.get_platform(campaign.platform)
            patch(campaign, "platform_factory", bundle.factory)
            patch(campaign, "reset", bundle.reset)
        self.installed = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for bundle in self._bundles.values():
            _registry.register_platform(*bundle, replace=True)  # vp-lint: disable=VP009 - restores the original bundle
        self._bundles.clear()
        self.installed = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _dispatch_wrapper(self, fn):
        tracer = self
        traced = self._span("dispatch", fn)

        def wrapper(executor, specs):
            outcomes = traced(executor, specs)
            tracer.outcome_walls.extend(
                (outcome.kernel_stats or {}).get("wall_s", 0.0)
                for outcome in outcomes
            )
            if tracer.capture:
                tracer.captured_batches.append(list(specs))
                tracer.captured_outcomes.extend(outcomes)
            return outcomes

        return wrapper

    def stop_capture(self) -> None:
        self.capture = False

    # -- pool workers ---------------------------------------------------------

    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.spans = []
        self.counts.clear()
        self._stack = []
        multiprocessing.util.Finalize(self, self._flush_worker, exitpriority=10)

    def _flush_worker(self) -> None:
        path = self.workdir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({
            "spans": [span for span in self.spans if span is not None],
            "counts": dict(self.counts),
        }))

    def collect_workers(self) -> int:
        """Merge and delete every worker span file; returns how many."""
        files = sorted(self.workdir.glob("worker-*.json"))
        for path in files:
            payload = json.loads(path.read_text())
            offset = len(self.worker_spans)
            for name, start, end, parent, run in payload["spans"]:
                self.worker_spans.append(
                    (name, start, end, parent + offset if parent >= 0 else -1,
                     run)
                )
            self.counts.update(payload["counts"])
            path.unlink()
        return len(files)

    def all_spans(self) -> _t.List[Span]:
        return [span for span in self.spans if span is not None]


def self_times(spans: _t.Sequence[Span]) -> _t.Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.
    Span names are layer names."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: _t.Dict[str, float] = collections.defaultdict(float)
    for i, (name, start, end, _parent, _run) in enumerate(spans):
        totals[name] += (end - start) - child[i]
    return totals


def span_totals(
    spans: _t.Sequence[Span],
) -> _t.Tuple[_t.Dict[str, float], _t.Counter]:
    """Per-layer total durations and call counts."""
    totals: _t.Dict[str, float] = collections.defaultdict(float)
    calls: _t.Counter = collections.Counter()
    for name, start, end, _parent, _run in spans:
        totals[name] += end - start
        calls[name] += 1
    return totals, calls


def exact_counters(tracer: Tracer, runs: int) -> _t.Dict[str, float]:
    """The zero-tolerance counters, per executed run where named so."""
    outcomes = tracer.captured_outcomes
    captured = max(len(outcomes), 1)
    kernel = collections.Counter()
    digest_bytes = 0
    for outcome in outcomes:
        stats = outcome.kernel_stats or {}
        for key in ("events", "process_steps", "delta_cycles"):
            kernel[key] += stats.get(key, 0)
        if outcome.digest is not None:
            digest_bytes += len(outcome.digest.canonical())
    pickled = sum(
        len(pickle.dumps(spec))
        for batch in tracer.captured_batches for spec in batch
    )
    pickled += sum(len(pickle.dumps(outcome)) for outcome in outcomes)
    # fork_groups() on the planned specs, batch by batch as dispatched.
    groups = sum(
        len(_runspec.fork_groups(batch)[0])
        for batch in tracer.captured_batches
    )
    per_run = max(runs, 1)
    return {
        "dispatch.pickled_bytes_per_run": pickled / captured,
        "run.fork_groups": groups,
        "kernel.events_per_run": kernel["events"] / captured,
        "kernel.process_steps_per_run": kernel["process_steps"] / captured,
        "kernel.delta_cycles_per_run": kernel["delta_cycles"] / captured,
        "tlm.transports_per_run": tracer.counts["tlm.transports"] / per_run,
        "tlm.payloads_per_run": tracer.counts["tlm.payloads"] / per_run,
        "tlm.dmi_grants_per_run": tracer.counts["tlm.dmi_grants"] / per_run,
        "observe.digest_bytes_per_run": digest_bytes / captured,
    }


# -- profiled pass ------------------------------------------------------------

#: Package prefix (under ``repro``) -> bucket for the kernel.run split.
PACKAGE_BUCKET = {
    "kernel": "kernel",
    "tlm": "tlm",
    "hw": "models",
    "platforms": "models",
    "sw": "models",
}


def _bucket_of(filename: str) -> _t.Optional[str]:
    parts = pathlib.PurePath(filename).parts
    if "repro" not in parts:
        return None
    rest = parts[parts.index("repro") + 1:]
    if not rest:
        return None
    return PACKAGE_BUCKET.get(rest[0], "other")


class RunProfiler:
    """cProfile switched on only inside ``Simulator.run`` calls."""

    def __init__(self):
        self.profile = cProfile.Profile()
        self.calls = 0
        self._original = None

    def __enter__(self) -> "RunProfiler":
        original = self._original = _scheduler.Simulator.run
        profile = self.profile

        def run(sim, *args, **kwargs):
            self.calls += 1
            profile.enable()
            try:
                return original(sim, *args, **kwargs)
            finally:
                profile.disable()

        _scheduler.Simulator.run = run
        return self

    def __exit__(self, *exc_info) -> None:
        _scheduler.Simulator.run = self._original

    def shares(self) -> _t.Dict[str, float]:
        if not self.calls:
            return {}
        return profile_shares(pstats.Stats(self.profile))


def profile_shares(stats: pstats.Stats) -> _t.Dict[str, float]:
    """Self-time shares of kernel / tlm / models / other.

    Functions outside ``repro`` (builtins, stdlib) are charged to their
    callers' packages in proportion to the self time each caller edge
    accounts for; what still has no ``repro`` caller lands in other.
    """
    buckets: _t.Dict[str, float] = collections.defaultdict(float)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
        bucket = _bucket_of(func[0])
        if bucket is not None:
            buckets[bucket] += tottime
            continue
        edges = {
            caller: edge[2] for caller, edge in callers.items()
            if _bucket_of(caller[0]) is not None
        }
        edge_total = sum(edges.values())
        if edge_total <= 0:
            buckets["other"] += tottime
            continue
        for caller, share in edges.items():
            buckets[_bucket_of(caller[0])] += tottime * share / edge_total
    total = sum(buckets.values()) or 1.0
    return {
        name: buckets.get(name, 0.0) / total
        for name in ("kernel", "tlm", "models", "other")
    }


def layer_metrics(
    tracer: Tracer,
    runs: int,
    wall_s: float,
    workers: int,
    shares: _t.Mapping[str, float],
) -> _t.Tuple[_t.Dict[str, float], _t.List[str]]:
    """Per-layer metrics of one traced region, plus reconciliation
    problems: the runs' own ``wall_s`` must fit inside the dispatch
    spans that cover them."""
    parent = tracer.all_spans()
    workers_spans = tracer.worker_spans
    per_run = 1.0 / max(runs, 1)
    own = self_times(parent)
    remote = self_times(workers_spans)
    totals, calls = span_totals(parent + workers_spans)
    run_layers = {
        layer: own.get(layer, 0.0) + remote.get(layer, 0.0)
        for layer in RUN_LAYERS
    }
    run_time = totals.get("run", 0.0)
    dispatch_total = totals.get("dispatch", 0.0)
    dispatch_self = dispatch_total - run_time / workers
    attributed = (
        sum(own.get(layer, 0.0) for layer in TOP_LAYERS)
        + dispatch_self
        + sum(run_layers[layer] for layer in RUN_LAYERS) / workers
    )
    outcome_wall = sum(tracer.outcome_walls)
    problems = []
    if outcome_wall > workers * dispatch_total:
        problems.append(
            f"reconciliation: per-run wall_s sum {outcome_wall:.6f}s "
            f"exceeds {workers} x dispatch spans {dispatch_total:.6f}s"
        )
    kernel_run = run_layers["kernel.run"]
    counters = exact_counters(tracer, runs)
    events = counters["kernel.events_per_run"]
    metrics = {
        "plan.self_s": own.get("plan", 0.0) * per_run,
        "dispatch.self_s": dispatch_self * per_run,
        "dispatch.worker_busy_frac": (
            run_time / (workers * dispatch_total) if dispatch_total else 0.0
        ),
        "run.acquire_s": run_layers["run.acquire"] * per_run,
        "kernel.run_s": kernel_run * per_run,
        "kernel.self_s": kernel_run * shares.get("kernel", 0.0) * per_run,
        "kernel.snapshot_s": run_layers["kernel.snapshot"] * per_run,
        "kernel.snapshot_calls": calls["kernel.snapshot"] * per_run,
        "kernel.restore_s": run_layers["kernel.restore"] * per_run,
        "kernel.restore_calls": calls["kernel.restore"] * per_run,
        "kernel.ns_per_event": (
            kernel_run * per_run / events * 1e9 if events else 0.0
        ),
        "tlm.self_s": kernel_run * shares.get("tlm", 0.0) * per_run,
        "models.self_s": kernel_run * shares.get("models", 0.0) * per_run,
        "classify.s": run_layers["classify"] * per_run,
        "observe.finalize_s": run_layers["observe.finalize"] * per_run,
        "journal.write_s": own.get("journal.write", 0.0) * per_run,
        "journal.load_s": own.get("journal.load", 0.0) * per_run,
        "risk.report_s": own.get("risk.report", 0.0) * per_run,
        "gate.compile_s": own.get("gate.compile", 0.0) * per_run,
        "gate.sim_s": own.get("gate.sim", 0.0) * per_run,
        "unattributed_s": (wall_s - attributed) * per_run,
    }
    metrics.update(counters)
    return metrics, problems
