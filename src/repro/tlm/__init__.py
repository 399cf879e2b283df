"""Transaction-level modeling layer (substrate S2), TLM-2.0 style."""

from .payload import READ, WRITE, Command, GenericPayload, Response
from .router import MapEntry, Router
from .sockets import DmiRegion, InitiatorSocket, SimpleTarget, TargetSocket

__all__ = [
    "READ",
    "WRITE",
    "Command",
    "GenericPayload",
    "Response",
    "MapEntry",
    "Router",
    "DmiRegion",
    "InitiatorSocket",
    "SimpleTarget",
    "TargetSocket",
]
