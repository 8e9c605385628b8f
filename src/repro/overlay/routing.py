"""Continuous-discrete De Bruijn routing on the LDB (Lemma 3).

To reach the node responsible for a target point ``t = 0.t1 t2 t3 ...``
the message applies the De Bruijn maps ``x -> (x + b) / 2`` for the bits
``b = tL, ..., t1`` (reverse order): each application prepends one target
bit to the binary expansion of the current position, so after ``L`` steps
the position agrees with ``t`` on ``L`` bits, i.e. lies within ``2^-L``
of it.  With ``L = ceil(log2(#vnodes)) + 2`` the final linear walk to the
owner is O(1) hops in expectation and the whole route O(log n) w.h.p.

Only middle nodes own De Bruijn shortcuts (their same-process left/right
nodes sit at exactly ``x/2`` and ``(x+1)/2``), so each De Bruijn step is:
walk along the cycle to a middle node near the current *ideal point*,
then take the virtual edge selected by the current bit.  The ideal point
``q`` — what the position would be if every hop were exact — travels in
the message: each De Bruijn hop updates ``q <- (q + b) / 2`` exactly, and
the middle-seek walks on the *wrap-free side* of ``q`` (below it for
``q >= 0.5``, above it otherwise).  This matters because the De Bruijn
map is discontinuous at the 1.0/0.0 wrap: a seek that crossed the wrap
would silently lose half a bit of precision and strand the message far
from the target (an O(n)-hop final walk).

The per-hop decision function is shared between the standalone router
(tests, routing benchmark) and the message-level protocol.  A hop is a
step between two virtual nodes, not necessarily a message: the protocol
takes a routed PUT/GET's step between two virtual nodes of one process
(every m(v) -> l(v)/r(v) De Bruijn edge) inside that process, so only
hops that cross to another process cost a message.
"""

from __future__ import annotations

import math

from repro.overlay.ldb import MIDDLE, LEFT, RIGHT, LdbTopology, kind_of, pid_of, vid_of

__all__ = [
    "RouteState",
    "initial_route_state",
    "owns",
    "route_on_topology",
    "route_step",
    "route_steps_for",
]


def route_steps_for(n_vnodes: int) -> int:
    """Number of De Bruijn steps for a network of ``n_vnodes`` nodes."""
    return max(1, math.ceil(math.log2(max(2, n_vnodes)))) + 2


def owns(label: float, succ_label: float, point: float) -> bool:
    """Responsibility rule: ``v`` owns ``[v, succ(v))`` with cycle wrap."""
    if label < succ_label:
        return label <= point < succ_label
    # v is the maximum node: it owns the wrap range [v, 1) + [0, min)
    return point >= label or point < succ_label


# routing state carried inside routed messages:
# (bits_int, steps_remaining, ideal_point)
RouteState = tuple[int, int, float]


def initial_route_state(target: float, steps: int, origin: float = 0.0) -> RouteState:
    """Encode the first ``steps`` bits of ``target`` for bit-by-bit use.

    The integer holds bits ``t1 .. tL`` with ``tL`` as the least
    significant bit, so consuming ``bits & 1`` yields the reverse order
    the De Bruijn maps need.  ``origin`` seeds the ideal point (the
    sender's label).
    """
    if not 0.0 <= target < 1.0:
        raise ValueError(f"target must be in [0, 1), got {target}")
    return int(target * (1 << steps)), steps, origin


def route_step(
    vid: int,
    label: float,
    pred_vid: int,
    succ_vid: int,
    succ_label: float,
    target: float,
    state: RouteState,
    pred_label: float = -1.0,
) -> tuple[int | None, RouteState]:
    """One routing decision at node ``vid``.

    Returns ``(next_vid, new_state)``; ``next_vid is None`` means the
    message has reached the owner of ``target`` and must be delivered.
    """
    bits, steps, ideal = state
    if steps > 0:
        seek_below = ideal >= 0.5  # keep the seek on the wrap-free side
        if kind_of(vid) == MIDDLE and (
            (seek_below and label <= ideal) or (not seek_below and label >= ideal)
        ):
            bit = bits & 1
            nxt = vid_of(pid_of(vid), RIGHT if bit else LEFT)
            return nxt, (bits >> 1, steps - 1, (ideal + bit) / 2.0)
        if seek_below and pred_label > label:
            # crossed the wrap without finding a middle below the ideal
            # point (only possible when middles are very sparse): relax —
            # accept the nearest middle at the small precision cost
            return pred_vid, (bits, steps, 1.0 - 2**-53)
        if not seek_below and succ_label < label:
            return succ_vid, (bits, steps, 0.0)
        # walk towards a usable middle node (geometric, E[hops] small)
        return (pred_vid if seek_below else succ_vid), state
    if owns(label, succ_label, target):
        return None, state
    # final linear walk: labels are distinct, so strict comparison decides
    if target > label:
        return succ_vid, state
    return pred_vid, state


def route_on_topology(
    topology: LdbTopology,
    src_vid: int,
    target: float,
    steps: int | None = None,
    max_hops: int = 100_000,
) -> tuple[int, int, list[int]]:
    """Standalone router over a static snapshot.

    Returns ``(destination_vid, hops, path)``.  Used by unit tests and the
    Lemma-3 benchmark; the live protocol executes exactly the same
    :func:`route_step` decisions.  ``hops`` counts virtual nodes visited;
    a routed PUT/GET sends a message only for the hops in ``path`` whose
    two ends belong to different processes.
    """
    if steps is None:
        steps = route_steps_for(len(topology))
    state = initial_route_state(target, steps, origin=topology.label(src_vid))
    vid = src_vid
    path = [vid]
    for hop in range(max_hops):
        nxt, state = route_step(
            vid,
            topology.label(vid),
            topology.pred(vid),
            topology.succ(vid),
            topology.label(topology.succ(vid)),
            target,
            state,
            pred_label=topology.label(topology.pred(vid)),
        )
        if nxt is None:
            return vid, hop, path
        vid = nxt
        path.append(vid)
    raise RuntimeError(f"routing to {target} did not converge in {max_hops} hops")
