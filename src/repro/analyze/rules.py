"""The VP-lint rule registry.

Every rule encodes a platform-soundness hazard this repository has
already paid for in review time or equivalence-test debugging (PRs
2-4: warm-reset leaks, mutable initial values, notifications lost to
fast paths, swallowed deadlines).  Codes are stable — reports, pragmas,
and CI artifacts refer to them — so a rule is never renumbered, only
retired.

Rules with ``kernel_internal_ok = True`` do not apply inside
``repro/kernel/``: the kernel *implements* the abstractions those
rules protect (it may construct signals, spawn processes, and touch
its own private state by definition).  Everywhere else, intentional
violations must carry a ``# vp-lint: disable=...`` pragma with a
rationale.
"""

from __future__ import annotations

import ast
import pathlib
import typing as _t

from .findings import ERROR, WARNING, Finding

if _t.TYPE_CHECKING:  # pragma: no cover
    from .linter import LintContext


RULES: _t.Dict[str, "Rule"] = {}


def rule(cls: _t.Type["Rule"]) -> _t.Type["Rule"]:
    """Register a rule class (instantiated once) under its code."""
    instance = cls()
    if instance.code in RULES:
        raise ValueError(f"duplicate rule code {instance.code}")
    RULES[instance.code] = instance
    return cls


class Rule:
    """Base class: one hazard, one stable code."""

    code: str = "VP000"
    name: str = "rule"
    severity: str = ERROR
    summary: str = ""
    #: True when the rule is definitionally satisfied inside the
    #: kernel package (which implements the protected abstraction).
    kernel_internal_ok: bool = False

    def check_node(
        self, node: ast.AST, ctx: "LintContext"
    ) -> _t.Iterator[Finding]:
        return iter(())

    def finding(
        self, node: ast.AST, ctx: "LintContext", message: str
    ) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            severity=self.severity,
            rule=self.name,
        )


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def _call_name(node: ast.Call) -> _t.Optional[str]:
    """``f(...)`` -> ``"f"``; ``a.b.f(...)`` -> ``"f"``; else None."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_base_name(node: ast.Attribute) -> _t.Optional[str]:
    """``base.attr`` -> ``"base"`` when base is a plain name."""
    if isinstance(node.value, ast.Name):
        return node.value.id
    return None


_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.DictComp, ast.SetComp)
_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}


def collect_mutable_globals(tree: ast.Module) -> _t.Set[str]:
    """Module-level names bound to mutable containers.

    Passing such a name as a signal's initial value aliases shared
    mutable state into the channel — exactly the leak class the warm
    reuse fixes in PR 4 closed (VP003).
    """
    names: _t.Set[str] = set()
    for stmt in tree.body:
        targets: _t.List[ast.expr] = []
        value: _t.Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(value, _MUTABLE_LITERALS) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

_CHANNEL_CLASSES = {"Signal", "Wire", "Clock"}


@rule
class DirectChannelConstruction(Rule):
    """Channels built outside the ``Module`` helpers are invisible to
    ``Module.detach()``: on a warm kernel they accumulate in
    ``Simulator._signals`` forever, growing memory and reset cost with
    every run."""

    code = "VP001"
    name = "direct-channel-construction"
    severity = ERROR
    summary = (
        "Signal/Wire/Clock constructed directly; use Module.signal/"
        "wire/clock so detach() can reclaim it"
    )
    kernel_internal_ok = True

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        name = _call_name(node)
        if name in _CHANNEL_CLASSES:
            yield self.finding(
                node, ctx,
                f"{name}(...) constructed directly — channels created "
                f"outside the Module helpers (Module.{name.lower()}) "
                f"escape detach() reclamation on a warm kernel",
            )


@rule
class DirectProcessSpawn(Rule):
    """Processes spawned via ``sim.spawn`` instead of
    ``Module.process`` are not owned by any module subtree, so
    ``detach()`` cannot kill and unregister them."""

    code = "VP002"
    name = "direct-process-spawn"
    severity = ERROR
    summary = (
        "Simulator.spawn called directly; use Module.process so "
        "detach() can reclaim the process"
    )
    kernel_internal_ok = True

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        if isinstance(node.func, ast.Attribute) and node.func.attr == "spawn":
            yield self.finding(
                node, ctx,
                ".spawn(...) called directly — processes created outside "
                "Module.process escape detach() reclamation on a warm "
                "kernel",
            )


_SIGNAL_HELPERS = {"signal", "wire"} | _CHANNEL_CLASSES


@rule
class SharedMutableInitial(Rule):
    """A module-level mutable container passed as a signal initial
    value aliases shared state into the channel: an in-place mutation
    during one run leaks into every later reader of the global."""

    code = "VP003"
    name = "shared-mutable-initial"
    severity = WARNING
    summary = (
        "module-level mutable container passed as a signal initial "
        "value; pass a copy or an immutable"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        if _call_name(node) not in _SIGNAL_HELPERS:
            return
        suspects = list(node.args) + [kw.value for kw in node.keywords]
        for arg in suspects:
            if (
                isinstance(arg, ast.Name)
                and arg.id in ctx.mutable_globals
            ):
                yield self.finding(
                    node, ctx,
                    f"signal initial value {arg.id!r} is a shared "
                    f"module-level mutable container — pass a copy "
                    f"(e.g. list({arg.id})) so per-run mutation cannot "
                    f"leak through the alias",
                )


_GLOBAL_RNG_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
    "randbytes", "seed",
}


@rule
class UnseededRandomness(Rule):
    """The process-global RNG is shared across every run in a worker:
    fresh-vs-warm and serial-vs-parallel executions consume it in
    different orders, breaking byte-identity.  Runs must draw from a
    ``random.Random(run_seed)`` instance."""

    code = "VP004"
    name = "unseeded-randomness"
    severity = ERROR
    summary = (
        "module-global random.* call (or seedless random.Random()); "
        "use a per-run random.Random(seed) instance"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if _attr_base_name(func) != "random":
            return
        if func.attr in _GLOBAL_RNG_FUNCS:
            yield self.finding(
                node, ctx,
                f"random.{func.attr}() draws from the process-global "
                f"RNG — worker execution order leaks into results; use "
                f"a seeded random.Random instance (run specs carry a "
                f"per-run seed)",
            )
        elif func.attr == "Random" and not node.args and not node.keywords:
            yield self.finding(
                node, ctx,
                "random.Random() without a seed falls back to OS "
                "entropy — pass the run seed explicitly",
            )


_WALLCLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}


@rule
class WallClockInModel(Rule):
    """Wall-clock reads make simulation content depend on host speed
    and scheduling: the same seed stops reproducing the same bytes.
    Simulated time is ``sim.now``; the only legitimate wall-clock
    users are the deadline watchdog and throughput accounting, which
    carry pragmas."""

    code = "VP005"
    name = "wall-clock-in-model"
    severity = ERROR
    summary = (
        "wall-clock call (time.time/perf_counter/datetime.now); model "
        "code must use simulated time (sim.now)"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = _attr_base_name(func)
        if base is None and isinstance(func.value, ast.Attribute):
            # datetime.datetime.now(...)
            base = func.value.attr
        if (base, func.attr) in _WALLCLOCK_CALLS:
            yield self.finding(
                node, ctx,
                f"{base}.{func.attr}() reads the wall clock — results "
                f"become host-speed dependent; use sim.now (simulated "
                f"time) or move the measurement to campaign accounting",
            )


_PRIVATE_KERNEL_STATE = {
    "_signals", "_processes", "_runnable", "_wheel", "_update_queue",
    "_delta_events", "_delta_resumes", "_timed_now", "_elab_snapshot",
    "_current", "_next", "_value", "_update_pending",
    "_waiters", "_pending_kind",
}


@rule
class PrivateKernelState(Rule):
    """Reaching into kernel-private state bypasses the invariants the
    scheduler maintains (update staging, elaboration snapshots, waiter
    bookkeeping) — mutations through these attributes are exactly the
    corruptions the warm-reuse equivalence tests exist to catch."""

    code = "VP006"
    name = "private-kernel-state"
    severity = ERROR
    summary = (
        "direct access to private kernel state (_signals, _processes, "
        "Signal._current, ...); use the public API"
    )
    kernel_internal_ok = True

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Attribute):
            return
        if node.attr not in _PRIVATE_KERNEL_STATE:
            return
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            # A class touching its *own* private attribute that merely
            # shares a name with kernel state is not a violation.
            return
        yield self.finding(
            node, ctx,
            f"access to private kernel state .{node.attr} — use the "
            f"public kernel API (read()/write()/staged/stats()) so "
            f"scheduler invariants hold",
        )


_CONTROL_EXCEPTIONS = {"DeadlineExceeded", "KeyboardInterrupt"}
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _handler_names(handler: ast.ExceptHandler) -> _t.Set[str]:
    names: _t.Set[str] = set()
    nodes: _t.List[ast.expr] = []
    if handler.type is not None:
        nodes = (
            list(handler.type.elts)
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
    for expr in nodes:
        if isinstance(expr, ast.Name):
            names.add(expr.id)
        elif isinstance(expr, ast.Attribute):
            names.add(expr.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(sub, ast.Raise) and sub.exc is None
        for sub in ast.walk(handler)
    )


@rule
class BroadExceptionHandler(Rule):
    """A bare/broad except around simulation code swallows
    ``DeadlineExceeded`` — the hung run is misclassified as an
    ordinary error instead of degrading to the TIMEOUT record the
    fault-tolerance layer expects.  Acceptable only when an earlier
    handler re-raises the control exceptions or the broad handler
    itself re-raises."""

    code = "VP007"
    name = "broad-exception-handler"
    severity = ERROR
    summary = (
        "bare `except:` / `except Exception` without a preceding "
        "DeadlineExceeded re-raise clause"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Try):
            return
        control_handled = False
        for handler in node.handlers:
            names = _handler_names(handler)
            if names & _CONTROL_EXCEPTIONS:
                control_handled = True
                continue
            broad = handler.type is None or bool(names & _BROAD_EXCEPTIONS)
            if not broad or control_handled or _reraises(handler):
                continue
            what = (
                "bare `except:`" if handler.type is None
                else f"`except {'/'.join(sorted(names & _BROAD_EXCEPTIONS))}`"
            )
            yield Finding(
                code=self.code,
                message=(
                    f"{what} can swallow DeadlineExceeded — add an "
                    f"`except DeadlineExceeded: raise` clause before it "
                    f"(or re-raise inside the handler)"
                ),
                path=ctx.path,
                line=handler.lineno,
                col=handler.col_offset + 1,
                severity=self.severity,
                rule=self.name,
            )


@rule
class UnpicklableRunSpecPayload(Rule):
    """RunSpecs cross the process-pool pickle boundary; a lambda (or
    generator expression) embedded in one fails at dispatch time —
    on the parallel backend only, long after the serial tests passed."""

    code = "VP008"
    name = "unpicklable-runspec-payload"
    severity = ERROR
    summary = (
        "lambda/generator expression inside a RunSpec(...) payload; "
        "specs must stay picklable for pool dispatch"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        if _call_name(node) != "RunSpec":
            return
        suspects = list(node.args) + [kw.value for kw in node.keywords]
        for arg in suspects:
            for sub in ast.walk(arg):
                if isinstance(sub, (ast.Lambda, ast.GeneratorExp)):
                    kind = (
                        "lambda" if isinstance(sub, ast.Lambda)
                        else "generator expression"
                    )
                    yield self.finding(
                        sub, ctx,
                        f"{kind} inside a RunSpec payload does not "
                        f"pickle — the spec will fail at pool dispatch; "
                        f"use a module-level function or plain data",
                    )
                    break


@rule
class UnresettableRegistration(Rule):
    """A platform registered without a ``reset`` hook is rebuilt from
    scratch for every run — correct, but it silently forfeits warm
    reuse.  Declare the choice: provide the hook, or pragma the
    registration with the reason it must stay fresh-build."""

    code = "VP009"
    name = "unresettable-registration"
    severity = WARNING
    summary = (
        "register_platform(...) without a reset= hook; platform "
        "silently forfeits warm reuse"
    )

    #: reset is the 7th positional parameter of register_platform.
    _RESET_POSITION = 7

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        if _call_name(node) != "register_platform":
            return
        if len(node.args) >= self._RESET_POSITION:
            return
        if any(kw.arg == "reset" for kw in node.keywords):
            return
        yield self.finding(
            node, ctx,
            "register_platform(...) without reset= — the platform is "
            "rebuilt for every run; declare each component's STATE and "
            "add a reset hook that restores a capture_state() taken at "
            "construction, or pragma this line with why it must stay "
            "fresh-build",
        )


@rule
class ForklessWarmRegistration(Rule):
    """A platform registered with a ``reset`` hook but no
    ``capture_state``/``restore_state`` pair supports warm reuse but
    not snapshot-fork execution: every fork-enabled campaign silently
    falls back to per-run simulation for it.  A module whose state a
    ``reset`` hook can rebuild can almost always be deep-captured too
    — declare the choice either way."""

    code = "VP011"
    name = "forkless-warm-registration"
    severity = WARNING
    summary = (
        "register_platform(...) with reset= but no capture_state=; "
        "platform silently forfeits snapshot-fork execution"
    )

    #: capture_state is the 8th positional parameter of
    #: register_platform (after reset).
    _CAPTURE_POSITION = 8

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        if _call_name(node) != "register_platform":
            return
        has_reset = (
            len(node.args) >= UnresettableRegistration._RESET_POSITION
            or any(kw.arg == "reset" for kw in node.keywords)
        )
        if not has_reset:
            return
        has_capture = (
            len(node.args) >= self._CAPTURE_POSITION
            or any(kw.arg == "capture_state" for kw in node.keywords)
        )
        if has_capture:
            return
        yield self.finding(
            node, ctx,
            "register_platform(...) declares reset= but no "
            "capture_state=/restore_state= — fork-enabled campaigns "
            "silently fall back to per-run simulation; declare each "
            "component's STATE and pass capture_state=Module."
            "capture_state, restore_state=Module.restore_state, or "
            "pragma this line with why mid-run capture is unsupported",
        )


@rule
class ProcessExitInModel(Rule):
    """``os._exit``/``sys.exit`` in platform code kills the executing
    process — in a serial campaign that is the campaign itself.  Only
    the hostile crash-test platform may do this, explicitly."""

    code = "VP010"
    name = "process-exit-in-model"
    severity = ERROR
    summary = (
        "os._exit/sys.exit call in model code; raise or stop() the "
        "simulation instead"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = _attr_base_name(func)
        if (base, func.attr) in (("os", "_exit"), ("sys", "exit")):
            yield self.finding(
                node, ctx,
                f"{base}.{func.attr}() terminates the executing "
                f"process — in a serial campaign that is the campaign; "
                f"raise an exception or call sim.stop() instead",
            )


#: Draw/state functions on numpy's module-level legacy RNG.  Like the
#: stdlib set above, ``seed``/state calls are included: seeding the
#: *shared* generator is exactly the cross-run leak being banned.
_NUMPY_GLOBAL_RNG_FUNCS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "lognormal", "exponential", "poisson", "beta",
    "gamma", "binomial", "multinomial", "multivariate_normal",
    "triangular", "weibull", "pareto", "bytes", "seed", "get_state",
    "set_state",
}

_NUMPY_MODULE_NAMES = {"numpy", "np"}


@rule
class UnseededNumpyRandomness(Rule):
    """VP004's numpy sibling.  ``numpy.random.*`` draws from the
    process-global legacy RNG and ``default_rng()`` without a seed
    falls back to OS entropy — both break byte-reproducibility the
    moment the vector engine or the risk sampler runs in a different
    worker order.  Model and strategy code must hold an explicitly
    seeded ``numpy.random.Generator``."""

    code = "VP012"
    name = "unseeded-numpy-randomness"
    severity = ERROR
    summary = (
        "numpy.random.* global-RNG call or seedless default_rng(); "
        "use an explicitly seeded numpy Generator"
    )

    def _unseeded(self, node: ast.Call) -> bool:
        return not node.args and not node.keywords

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        func = node.func
        # Bare call imported via `from numpy.random import default_rng`.
        if (
            isinstance(func, ast.Name)
            and func.id == "default_rng"
            and self._unseeded(node)
        ):
            yield self.finding(
                node, ctx,
                "default_rng() without a seed falls back to OS entropy "
                "— pass the run seed explicitly",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        # numpy.random.<fn>(...) / np.random.<fn>(...)
        via_module = (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in _NUMPY_MODULE_NAMES
        )
        # random.<fn>(...) where `from numpy import random` — the
        # global-draw names below don't collide with the stdlib set
        # VP004 owns, so only default_rng is claimed here.
        via_bare = _attr_base_name(func) == "random"
        if via_module and func.attr in _NUMPY_GLOBAL_RNG_FUNCS:
            yield self.finding(
                node, ctx,
                f"numpy.random.{func.attr}() draws from the "
                f"process-global numpy RNG — worker execution order "
                f"leaks into results; use a seeded "
                f"numpy.random.Generator (e.g. "
                f"Generator(PCG64(run_seed)))",
            )
        elif (
            (via_module or via_bare)
            and func.attr == "default_rng"
            and self._unseeded(node)
        ):
            yield self.finding(
                node, ctx,
                "default_rng() without a seed falls back to OS entropy "
                "— pass the run seed explicitly",
            )


_POOL_CLASSES = {"ProcessPoolExecutor", "ThreadPoolExecutor"}
_SOCKET_FACTORIES = {"socket", "create_connection", "create_server"}

#: Consecutive path components of the sanctioned execution layers —
#: the modules that *implement* make_executor backends may of course
#: construct pools, threads, and sockets.
_EXECUTION_LAYER_PARTS = (
    ("repro", "distributed"),
    ("repro", "core", "executors.py"),
)


def _in_execution_layer(path: str) -> bool:
    parts = pathlib.PurePath(path).parts
    for marker in _EXECUTION_LAYER_PARTS:
        width = len(marker)
        if any(
            parts[i: i + width] == marker
            for i in range(len(parts) - width + 1)
        ):
            return True
    return False


@rule
class DirectConcurrencyConstruction(Rule):
    """Campaign/model code constructing its own pools, threads, or
    sockets bypasses the executor registry: such runs escape the
    RetryPolicy/timeout accounting, journal checkpointing, and the
    serial-equivalence contract that ``make_executor`` backends (and
    ``repro.distributed``) provide.  The execution layers themselves
    are exempt — they implement that contract."""

    code = "VP013"
    name = "direct-concurrency-construction"
    severity = WARNING
    summary = (
        "ProcessPoolExecutor/Thread/socket constructed directly; route "
        "execution through make_executor or repro.distributed"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.Call):
            return
        if _in_execution_layer(ctx.path):
            return
        func = node.func
        name = _call_name(node)
        if name in _POOL_CLASSES:
            yield self.finding(
                node, ctx,
                f"{name}(...) constructed directly — pool runs bypass "
                f"RetryPolicy/timeout accounting and journaling; use "
                f"make_executor(backend='parallel') instead",
            )
            return
        if name == "Thread" and (
            isinstance(func, ast.Name)
            or _attr_base_name(func) == "threading"
        ):
            yield self.finding(
                node, ctx,
                "threading.Thread(...) constructed directly — "
                "hand-rolled worker threads escape the executor "
                "contract; use make_executor or repro.distributed",
            )
            return
        # Only the module-level factories: `socket.socket(...)` /
        # `socket.create_*(...)`.  Attribute *access* named `socket`
        # (e.g. a TLM endpoint `entry.socket.deliver(...)`) is not a
        # construction and must not fire.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SOCKET_FACTORIES
            and _attr_base_name(func) == "socket"
        ):
            yield self.finding(
                node, ctx,
                f"socket.{func.attr}(...) opens a raw socket — "
                f"distributed execution belongs behind "
                f"repro.distributed's coordinator/worker protocol, not "
                f"ad-hoc connections in campaign code",
            )


def _declared_state(cls: ast.ClassDef) -> _t.Optional[_t.Set[str]]:
    """The names a class body's ``STATE = ("a", "b", ...)`` literal
    declares, or None when the body assigns no literal ``STATE``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "STATE" for t in targets
        ):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)) or not all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            return None
        return {e.value for e in value.elts}
    return None


@rule
class UndeclaredModuleState(Rule):
    """``Module.capture_state``/``restore_state`` copy exactly the
    fields a class's ``STATE`` tuple names.  A method that assigns a
    ``self`` attribute the tuple omits leaks that field from one warm
    or forked run into the next — and the equivalence suites see the
    leak only when some fault happens to reach the field.  Only plain
    attribute assignment is visible: mutation through ``.append()`` or
    a subscript is not, nor are helper objects' own methods."""

    code = "VP014"
    name = "undeclared-module-state"
    severity = ERROR
    summary = (
        "self.<name> assigned outside __init__ in a class whose STATE "
        "omits <name>; warm and forked runs would not restore it"
    )

    def check_node(self, node, ctx):
        if not isinstance(node, ast.ClassDef):
            return
        declared = _declared_state(node)
        if declared is None:
            return
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            # Every assignment target — plain, augmented, annotated,
            # unpacked — is an attribute node in Store context.
            for target in ast.walk(method):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.ctx, ast.Store)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in declared
                ):
                    yield self.finding(
                        target, ctx,
                        f"{node.name}.{method.name} assigns "
                        f"self.{target.attr}, which {node.name}.STATE "
                        f"does not declare — capture_state/"
                        f"restore_state skip it, so it leaks across "
                        f"warm and forked runs; add it to STATE",
                    )


def rule_table() -> _t.List[_t.Dict[str, str]]:
    """Stable-ordered rule metadata (docs, --list-rules)."""
    return [
        {
            "code": code,
            "name": r.name,
            "severity": r.severity,
            "summary": r.summary,
        }
        for code, r in sorted(RULES.items())
    ]
