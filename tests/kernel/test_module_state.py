"""The module-state protocol: ``STATE`` declarations plus the one
generic ``Module.capture_state``/``restore_state`` pair.

Warm reuse and snapshot-fork both rest on this pair, and their
equivalence suites only notice a missed field when some fault reaches
it.  These checks exercise every declared field directly.
"""

import pytest

from repro.kernel import Module, Simulator
from repro.platforms import get_platform, registry
from repro.platforms.airbag import AirbagPlatform


class _Sentinel:
    """A value no model ever holds; compares equal only to itself."""


def _forkable_bundles():
    return [
        name for name in registry.available_platforms()
        if get_platform(name).forkable
    ]


def _declared_fields(root):
    """``(owner, name)`` for every ``STATE`` entry in *root*'s subtree."""
    for module in root.walk():
        for entry in type(module).STATE:
            *path, name = entry.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            yield owner, name


@pytest.mark.parametrize("platform", _forkable_bundles())
def test_every_declared_field_is_restored(platform):
    bundle = get_platform(platform)
    root = bundle.factory(Simulator())
    original = bundle.capture_state(root)
    fields = list(_declared_fields(root))
    assert fields, f"{platform} declares no module state"
    for owner, name in fields:
        value = getattr(owner, name)
        if isinstance(value, list):
            value.append(_Sentinel())  # in-place images must survive
        elif isinstance(value, bytearray):
            value.extend(b"\xa5")
        else:
            setattr(owner, name, _Sentinel())
    assert bundle.capture_state(root) != original
    bundle.restore_state(root, original)
    assert bundle.capture_state(root) == original


def test_restore_keeps_aliased_objects():
    platform = AirbagPlatform(Simulator(), ecc_params=False)
    data = platform.param_mem.data
    sensor = platform.sensor_a
    point = sensor.injection_points["frontend"]
    capture = platform.capture_state()
    data[0] ^= 0xFF
    point.set_offset(0.5)
    platform.restore_state(capture)
    assert platform.param_mem.data is data  # DMI regions alias it
    assert sensor.fault is point.fault  # the injector holds the object
    assert sensor.fault.offset == 0.0
    assert platform.capture_state() == capture


def test_one_capture_serves_repeated_restores():
    bundle = get_platform("steering")
    root = bundle.factory(Simulator())
    capture = root.capture_state()
    root.restore_state(capture)
    root.servo.position_log.append((1, 2.0))
    assert root.capture_state() != capture
    root.restore_state(capture)
    assert root.capture_state() == capture
    root.servo.position_log.append((3, 4.0))
    root.restore_state(capture)
    assert root.capture_state() == capture


def test_capture_of_another_tree_is_rejected():
    airbag = get_platform("airbag-normal").factory(Simulator())
    steering = get_platform("steering").factory(Simulator())
    with pytest.raises(ValueError, match="state owners"):
        steering.restore_state(airbag.capture_state())


class _Helper:
    def __init__(self):
        self.a = 0


class _Probe(Module):
    STATE = ("count", "helper.a")

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.count = 0
        self.helper = _Helper()


class _Quiet(_Probe):
    STATE = ()


def test_subclass_state_overrides_the_parent_declaration():
    root = _Probe("top", sim=Simulator())
    quiet = _Quiet("quiet", parent=root)
    helper = root.helper
    capture = root.capture_state()
    root.count, helper.a, quiet.count = 1, 2, 3
    root.restore_state(capture)
    assert (root.count, root.helper.a) == (0, 0)
    assert root.helper is helper
    assert quiet.count == 3  # _Quiet declares nothing
