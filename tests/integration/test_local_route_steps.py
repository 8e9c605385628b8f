"""Process-local routing steps: a routed PUT/GET never messages a sibling.

One process emulates its three virtual nodes l(v), m(v), r(v), so the
De Bruijn edge from m(v) to l(v)/r(v) — and any cycle step between two
of them — stays inside that process.  ``QueueNode._route_hop`` hands the
route state to the sibling in the same call instead of sending a
message (see DESIGN.md, "Process-local routing steps").  These tests
wrap every node's ``send`` and pin the invariant on both simulators,
for every structure, together with Definition 1 over the history.
"""

from __future__ import annotations

import random

import pytest

from repro.core.actions import A_RT_GET, A_RT_PUT
from repro.core.requests import INSERT, REMOVE
from repro.core.structures import get_structure
from repro.sim.process import Actor
from tests.conftest import verify

N_PROCESSES = 16


def _wrap_sends(monkeypatch) -> list[tuple[int, int, int]]:
    """Record ``(src_vid, dest_vid, action)`` of every routed PUT/GET.

    The nodes are slotted, so the wrapper goes on the class every node
    sends through."""
    routed: list[tuple[int, int, int]] = []
    send = Actor.send

    def recording_send(node, dest, action, payload):
        if action == A_RT_PUT or action == A_RT_GET:
            routed.append((node.aid, dest, action))
        send(node, dest, action, payload)

    monkeypatch.setattr(Actor, "send", recording_send)
    return routed


def _drive(cluster, structure: str, ops: int, seed: int) -> None:
    rng = random.Random(f"local-route-{seed}")
    n_priorities = cluster.ctx.n_priorities if structure == "heap" else 1
    for i in range(ops):
        pid = rng.randrange(N_PROCESSES)
        if rng.random() < 0.6:
            cluster.submit(pid, INSERT, f"item-{i}", rng.randrange(n_priorities))
        else:
            cluster.submit(pid, REMOVE)
        if rng.random() < 0.3:
            cluster.step()
    cluster.run_until_done()


@pytest.mark.parametrize("runner", ["sync", "async"])
@pytest.mark.parametrize("structure", ["queue", "stack", "heap"])
def test_no_routed_message_between_siblings(structure, runner, monkeypatch):
    spec = get_structure(structure)
    routed = _wrap_sends(monkeypatch)
    with spec.cluster_class(n_processes=N_PROCESSES, seed=7, runner=runner) as c:
        _drive(c, structure, ops=120, seed=7)
        assert routed, "the workload routed nothing: the check is vacuous"
        same_pid = [hop for hop in routed if hop[0] // 3 == hop[1] // 3]
        assert not same_pid, (
            f"{len(same_pid)} routed PUT/GET messages between virtual nodes "
            f"of one process, e.g. {same_pid[:3]}"
        )
        verify(c)
