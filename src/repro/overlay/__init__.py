"""Linearized De Bruijn overlay network (Section II-A of the paper)."""

from repro.overlay.ldb import (
    KIND_NAMES,
    LEFT,
    MIDDLE,
    RIGHT,
    LdbTopology,
    kind_of,
    pid_of,
    vid_of,
    virtual_label,
)
from repro.overlay.routing import route_on_topology, route_steps_for

__all__ = [
    "KIND_NAMES",
    "LEFT",
    "MIDDLE",
    "RIGHT",
    "LdbTopology",
    "kind_of",
    "pid_of",
    "route_on_topology",
    "route_steps_for",
    "vid_of",
    "virtual_label",
]
