"""Hierarchical modules.

:class:`Module` gives virtual-prototype components a SystemC-like
structure: a dotted hierarchical name, parent/child links, convenience
constructors for events/signals/processes, and — crucial for this
framework — a registry of *injection points* that fault injectors can
discover without the model code being modified (Sec. 3.3 of the paper:
"errors need to be injected into the DUT, but the design should not be
changed").
"""

from __future__ import annotations

import typing as _t

from .events import Event
from .process import Process
from .scheduler import Simulator
from .signal import _ATOMIC_TYPES, Clock, Signal, Wire, pristine_copy


class Module:
    """Base class for every structural component of a virtual prototype.

    Subclasses build their children and spawn their behaviour processes
    in ``__init__`` (an ``elaborate``-style split is unnecessary in
    Python; construction order gives elaboration order).
    """

    #: Attributes a run mutates, named once; :meth:`capture_state` and
    #: :meth:`restore_state` read this declaration.  A dotted entry
    #: (``"fault.offset"``) names a field of a plain helper object the
    #: module holds and others alias — it is written back into that
    #: same object.  Entries must be plain instance attributes, not
    #: properties: immutable values are restored through ``__dict__``.
    #: The VP014 lint rule flags assignments to undeclared ``self``
    #: attributes outside ``__init__``.
    STATE: _t.Tuple[str, ...] = ()

    #: ``STATE`` resolved once per class: ``(owner, names)`` pairs,
    #: ``owner`` being the helper path's parts (``()`` = the module).
    _state_plan: _t.Tuple[_t.Tuple[tuple, _t.Tuple[str, ...]], ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        owners: _t.Dict[str, list] = {}
        for entry in cls.STATE:
            owner, _, name = entry.rpartition(".")
            owners.setdefault(owner, []).append(name)
        cls._state_plan = tuple(
            (tuple(owner.split(".")) if owner else (), tuple(names))
            for owner, names in owners.items()
        )

    def __init__(
        self,
        name: str,
        parent: _t.Optional["Module"] = None,
        sim: _t.Optional[Simulator] = None,
    ):
        if parent is None and sim is None:
            raise ValueError(
                f"module {name!r} needs either a parent or a simulator"
            )
        self.basename = name
        self.parent = parent
        self.sim: Simulator = sim if sim is not None else parent.sim
        self.children: list = []
        self._injection_points: dict = {}
        # Kernel objects created through this module's helpers, so
        # detach() can hand them back to the kernel (a warm simulator
        # would otherwise accumulate per-run signals/processes forever).
        self._owned_signals: list = []
        self._owned_processes: list = []
        if parent is not None:
            parent.children.append(self)

    # -- naming ----------------------------------------------------------

    @property
    def full_name(self) -> str:
        """Dotted hierarchical name, e.g. ``'top.ecu0.cpu'``."""
        if self.parent is None:
            return self.basename
        return f"{self.parent.full_name}.{self.basename}"

    def find(self, path: str) -> "Module":
        """Resolve a child by relative dotted *path*.

        >>> top.find("ecu0.cpu")        # doctest: +SKIP
        """
        module = self
        for part in path.split("."):
            for child in module.children:
                if child.basename == part:
                    module = child
                    break
            else:
                raise KeyError(
                    f"{module.full_name!r} has no child {part!r}"
                )
        return module

    def walk(self) -> _t.Iterator["Module"]:
        """Depth-first iteration over this module and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- construction helpers ---------------------------------------------

    def event(self, name: str) -> Event:
        return Event(self.sim, f"{self.full_name}.{name}")

    def signal(self, name: str, initial=None) -> Signal:
        signal = Signal(self.sim, f"{self.full_name}.{name}", initial)
        self._owned_signals.append(signal)
        return signal

    def wire(self, name: str, initial: bool = False) -> Wire:
        wire = Wire(self.sim, f"{self.full_name}.{name}", initial)
        self._owned_signals.append(wire)
        return wire

    def clock(self, name: str, period: int, start_high: bool = False) -> Clock:
        """A :class:`Clock` owned by this module (reclaimed on detach).

        Per-run helpers on a warm platform must create clocks through
        this helper rather than ``Clock(sim, ...)`` directly, so the
        clock wire and its driver process are handed back to the kernel
        when the helper detaches.
        """
        clk = Clock(self.sim, f"{self.full_name}.{name}", period, start_high)
        self._owned_signals.append(clk)
        self._owned_processes.append(clk._proc)
        return clk

    def process(self, behavior, name: str = "proc") -> Process:
        """Spawn *behavior* as a process owned by this module.

        *behavior* is a generator or a zero-argument factory returning
        one; pass the factory (``self._run``, not ``self._run()``) when
        the module should survive a warm :meth:`Simulator.reset`.
        """
        process = self.sim.spawn(behavior, name=f"{self.full_name}.{name}")
        self._owned_processes.append(process)
        return process

    def detach(self) -> None:
        """Tear this subtree out of the platform (warm-platform teardown).

        Per-run helpers built *onto* a reusable platform (the campaign
        stressor) must not accumulate across runs; after the run they
        detach, leaving the parent — and the kernel — exactly as
        elaborated: the subtree is unlinked from ``children``, its
        processes are killed and unregistered, and its signals are
        unregistered so a warm kernel's memory and reset cost stay
        flat no matter how many runs it serves.  Only kernel objects
        created through the module helpers (:meth:`signal`,
        :meth:`wire`, :meth:`clock`, :meth:`process`) are reclaimed;
        per-run code must not create channels via ``Signal(sim, ...)``
        directly on a warm kernel.
        """
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None  # vp-lint: disable=VP014 - tree structure, not run state
        sim = self.sim
        for module in self.walk():
            for process in module._owned_processes:
                process.kill()
                sim._unregister_process(process)
            module._owned_processes.clear()
            for signal in module._owned_signals:
                sim._unregister_signal(signal)
            module._owned_signals.clear()

    # -- run state ------------------------------------------------------------

    def _state_owners(self, found: list) -> list:
        """Append ``(object, names)`` for every :attr:`STATE` owner in
        this subtree (the module itself, then its dotted helpers)."""
        for path, names in self._state_plan:
            target = self
            for part in path:
                target = getattr(target, part)
            found.append((target, names))
        for child in self.children:
            child._state_owners(found)
        return found

    def capture_state(self) -> tuple:
        """Deep-capture every declared :attr:`STATE` field in this subtree.

        One capture serves both reuse modes: taken at construction it
        is the power-on state a warm run restores, taken mid-run the
        shared prefix forked runs resume from.  Values are copied with
        the kernel's :func:`~repro.kernel.signal.pristine_copy`, and
        the capture holds no object references, so two builds of one
        platform capture equal values.
        """
        return tuple(
            _capture_owner(target, names)
            for target, names in self._state_owners([])
        )

    def restore_state(self, state: tuple) -> None:
        """Re-seed every declared field from a :meth:`capture_state`
        capture of this subtree.

        Repeatable from one capture — the fork executor restores once
        per forked run, and twice around process re-priming.  Lists
        and bytearrays are refilled in place (a DMI region aliases a
        memory's ``data``; list items are shared with the capture, so
        they must be immutable), dotted fields are written into the
        existing helper object, and any other mutable value is a fresh
        copy per restore.
        """
        owners = self._state_owners([])
        if len(owners) != len(state):
            raise ValueError(
                f"{self.full_name!r}: capture holds {len(state)} state "
                f"owners, the subtree has {len(owners)}"
            )
        for (target, _names), (plain, mutables) in zip(owners, state):
            target.__dict__.update(plain)
            for name, value in mutables:
                if isinstance(value, (list, bytearray)):
                    getattr(target, name)[:] = value
                else:
                    setattr(target, name, pristine_copy(value))

    # -- injection points ---------------------------------------------------

    def register_injection_point(self, name: str, point) -> None:
        """Expose *point* (an injector-compatible object) under *name*.

        Components register their corruptible state here during
        construction; the stressor discovers them by walking the module
        tree, so fault campaigns never need design edits.
        """
        if name in self._injection_points:
            raise ValueError(
                f"{self.full_name!r} already has injection point {name!r}"
            )
        self._injection_points[name] = point

    @property
    def injection_points(self) -> dict:
        """Mapping of locally registered injection-point names."""
        return dict(self._injection_points)

    @property
    def owned_signals(self) -> tuple:
        """The signals/wires created through this module's helpers.

        Read-only view for analysis layers (the static reachability
        analyzer maps signal ownership without touching bookkeeping
        lists whose lifecycle belongs to the kernel).
        """
        return tuple(self._owned_signals)

    @property
    def owned_processes(self) -> tuple:
        """The factory-spawned processes owned by this module
        (read-only view, same contract as :attr:`owned_signals`)."""
        return tuple(self._owned_processes)

    def all_injection_points(self) -> dict:
        """All injection points in this subtree, keyed by full path."""
        points: dict = {}
        for module in self.walk():
            for name, point in module._injection_points.items():
                points[f"{module.full_name}.{name}"] = point
        return points

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.full_name!r})"


def _capture_owner(target, names: _t.Tuple[str, ...]) -> tuple:
    """``(plain, mutables)``: immutable values by name, restored with
    one ``__dict__.update``, and ``(name, copy)`` pairs of everything
    else."""
    plain: dict = {}
    mutables = []
    for name in names:
        value = getattr(target, name)
        if isinstance(value, _ATOMIC_TYPES):
            plain[name] = value
        else:
            mutables.append((name, pristine_copy(value)))
    return plain, tuple(mutables)
