"""The error-effect loop benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload airbag-serial --seed 3 --seconds 25
    python3 perfbench/run.py --workload risk-fork --trace 1
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --write-pins             # after a deliberate
                                                      # counter change

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures an untraced half and a traced half of the time
and reports the per-layer metrics.  Either way the outputs are checked
(fingerprint per chunk, a reference re-derivation, and the pinned
fingerprints and exact counters at the pin seed); any mismatch is
printed by name on stderr, ``correct`` turns false and the exit code
is 1.  The last stdout line is the JSON result; the lines before it
list every metric with its unit.  METRICS.md defines each metric.
"""
# vp-lint: disable-file=VP005 - benchmark: wall-clock timing is the measurement

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import typing as _t

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Loop:
    """Closed-loop chunk runner for one timed region."""

    def __init__(self, workload):
        self.workload = workload
        self.rates: _t.List[float] = []
        self.attempted = 0
        self.failed = 0
        self.retried = 0
        self.dangerous = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.first: _t.Optional[_t.Any] = None
        self.problems: _t.List[str] = []

    def run(self, seconds: float, after_first: _t.Callable[[], None] = None):
        cpu0 = cpu_seconds()
        self.workload.begin()
        try:
            self._loop(seconds, after_first)
        finally:
            self.workload.end()
        self.cpu += cpu_seconds() - cpu0

    def _loop(self, seconds: float, after_first) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            chunk = self.workload.chunk()
            end = time.perf_counter()
            self.wall += end - start
            self.rates.append(chunk.runs / (end - start))
            self.attempted += chunk.runs
            self.failed += chunk.failed
            self.retried += chunk.retried
            self.dangerous += chunk.dangerous
            if self.first is None:
                self.first = chunk
                if after_first is not None:
                    after_first()
            elif chunk.fingerprint != self.first.fingerprint:
                self.failed += chunk.runs
                self.problems.append(
                    f"{self.workload.name}: chunk fingerprint "
                    f"{chunk.fingerprint} differs from the first chunk's "
                    f"{self.first.fingerprint}"
                )
            if end >= deadline:
                return

    @property
    def runs_per_s(self) -> float:
        return statistics.median(self.rates)

    @property
    def cpu_ms_per_run(self) -> float:
        return self.cpu / self.attempted * 1e3


def pin_pass(name: str, workdir: pathlib.Path):
    """Fingerprint and exact counters of one traced chunk at PIN_SEED."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name](workdir)
    workload.setup(workloads.PIN_SEED)
    with tracing.Tracer(workdir) as tracer:
        tracer.install(workload.campaigns())
        workload.begin()
        try:
            chunk = workload.chunk()
        finally:
            workload.end()
    tracer.collect_workers()
    counters = tracing.exact_counters(tracer, chunk.runs)
    counters.update(
        (key, value) for key, value in chunk.layer.items()
        if key == "gate.sites"
    )
    return {"fingerprint": chunk.fingerprint, "counters": counters}


def pin_problems(name: str, workdir: pathlib.Path) -> _t.List[str]:
    expected = json.loads(PINS.read_text())["workloads"].get(name)
    if expected is None:
        return [f"{name}: no pins recorded in {PINS.name}"]
    got = pin_pass(name, workdir)
    problems = []
    for key, value in sorted(expected["counters"].items()):
        if got["counters"].get(key) != value:
            problems.append(
                f"PIN MISMATCH {name} {key}: pinned {value!r}, "
                f"measured {got['counters'].get(key)!r}"
            )
    if got["fingerprint"] != expected["fingerprint"]:
        problems.append(
            f"FINGERPRINT MISMATCH {name}: pinned {expected['fingerprint']}, "
            f"measured {got['fingerprint']}"
        )
    return problems


def write_pins(workdir: pathlib.Path) -> None:
    import workloads

    PINS.write_text(json.dumps({
        "seed": workloads.PIN_SEED,
        "workloads": {
            name: pin_pass(name, workdir) for name in workloads.WORKLOADS
        },
    }, indent=2, sort_keys=True) + "\n")


def host_facts(workers: int) -> _t.Dict[str, _t.Any]:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workers": workers,
        "commit": "unknown",
    }
    try:
        facts["commit"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        facts["numpy"] = importlib.import_module("numpy").__version__
    except ImportError:
        facts["numpy"] = None
    return facts


def measure(
    name: str, seed: int, seconds: float, trace: bool,
    workdir: pathlib.Path,
) -> _t.Dict[str, _t.Any]:
    import workloads

    start = time.perf_counter()
    cls = workloads.WORKLOADS[name]
    for module in cls.imports:
        importlib.import_module(module)
    # A process imports once, so imports are timed once; the rest of
    # set-up is repeated and its median taken.
    import_s = time.perf_counter() - start

    workload = cls(workdir)
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - start)

    if trace:
        metrics, loop, problems = traced_metrics(workload, seconds, workdir)
    else:
        loop = Loop(workload)
        loop.run(seconds)
        problems = []
        metrics = {
            "runs_per_s": loop.runs_per_s,
            "cpu_ms_per_run": loop.cpu_ms_per_run,
            "peak_rss_mb": peak_rss_mb(),
        }
    problems += loop.problems
    problems += workload.check(loop.first.fingerprint)
    problems += pin_problems(name, workdir)
    if not trace:
        metrics["setup_s"] = import_s + statistics.median(setups)
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    return {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec
        },
        "problems": problems,
        "host": host_facts(workload.workers),
    }


def traced_metrics(workload, seconds: float, workdir: pathlib.Path):
    """Untraced half, traced half, profiled chunk -> per-layer metrics."""
    import tracing

    plain = Loop(workload)
    plain.run(seconds / 2)
    traced = Loop(workload)
    tracer = tracing.Tracer(workdir)
    with tracer:
        tracer.install(workload.campaigns())
        traced.run(seconds / 2, after_first=tracer.stop_capture)
    tracer.collect_workers()
    with tracing.RunProfiler() as profiler:
        workload.profiled_chunk()
    layers, problems = tracing.layer_metrics(
        tracer, traced.attempted, traced.wall, workload.workers,
        profiler.shares(),
    )
    layers.update(traced.first.layer)
    attempted = plain.attempted + traced.attempted
    layers.update({
        "dispatch.retried": plain.retried + traced.retried,
        "trace_overhead": traced.runs_per_s / plain.runs_per_s,
        "hazards_per_cpu_s": plain.dangerous / plain.cpu,
        "failed_frac": (plain.failed + traced.failed) / attempted,
    })
    layers.setdefault("journal.bytes_per_run", 0.0)
    layers.setdefault("gate.sites", 0)
    plain.attempted, plain.failed = attempted, plain.failed + traced.failed
    plain.problems += traced.problems
    return layers, plain, problems


def run_all(args) -> int:
    """Every workload in its own process, one table at the end."""
    import workloads

    rows, merged, ok = [], {}, True
    attempted = failed = 0
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            ok = False
        if not lines:
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            rows.append((name, key, metric["value"], metric["unit"]))
            merged[f"{name}/{key}"] = metric
    for name, key, value, unit in rows:
        print(f"{name:<20} {key:<32} {value:>14.6g} {unit}")
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return 0 if ok else 1


def main(argv: _t.Optional[_t.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-record pins.json at the pin seed and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all" and not args.write_pins:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS and not args.write_pins:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_pins:
            write_pins(workdir)
            return 0
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for problem in result.pop("problems"):
        print(problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": result.pop("host")}))
    for key, metric in result["metrics"].items():
        print(f"{key:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
