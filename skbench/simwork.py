"""Simulator legs of the traced pass: ``sim-steady`` and ``sim-churn``.

Both drive a :func:`repro.connect` session on the synchronous runner
(``SyncRunner``), one protocol round per ``cluster.step()``.  The
benchmark sees the protocol only from outside: it submits through the
session backend, counts every message by wrapping the runtime's
``send``, and notes each completion by wrapping the metrics'
``observe``.  Round counts repeat exactly for a seed.
"""

from __future__ import annotations

import copy
import random
import time
from collections import deque

import repro
from repro.core import actions as A
from repro.core.requests import BOTTOM, INSERT, REMOVE
from repro.core.structures import get_structure
from repro.experiments.workload import FixedRateWorkload
from repro.verify.seqcons import order_key

from common import mean

#: sim-steady: the paper's Section VII-A model at n = 256; one pass
#: runs these rounds on each of the fixed topologies (20k ops)
STEADY_N = 256
STEADY_ROUNDS = 1000
#: sim-churn: a small system that changes size while it serves
CHURN_N = 64
CHURN_ROUNDS = 1000
CHURN_EVERY = 25  # one JOIN and one LEAVE every this many rounds
PER_ROUND = 10
#: rounds a rep may run past its inputs: ops take a few hundred (p99
#: about 200), so one still pending after this many is lost
MAX_DRAIN_ROUNDS = 10_000
#: messages kept for the codec measurements
CAPTURE_MAX = 4000

ROUTE = frozenset({A.A_RT_PUT, A.A_RT_GET})
WAVE = frozenset({A.A_AGG, A.A_SERVE, A.A_REQUEUE, A.A_CHASE, A.A_WAKE})
DHT_REPLY = frozenset({A.A_GET_REPLY, A.A_PUT_ACK})
NUDGE = frozenset({A.A_NUDGE})
MEMBERSHIP = frozenset(
    code for code in range(A.A_NUDGE + 1)
    if code not in ROUTE | WAVE | DHT_REPLY | NUDGE
)
CATEGORIES = {"route": ROUTE, "wave": WAVE, "dht_reply": DHT_REPLY,
              "nudge": NUDGE, "membership": MEMBERSHIP}
#: (action, index of the DHT item collection in its payload)
_HANDOVER = {A.A_JOIN_GRANT: 2, A.A_SLICE: 0, A.A_DEPART_DUMP: 0,
             A.A_ABSORB: 0}


class SendTally:
    """Per-action message counts taken by wrapping ``runtime.send``.

    Every ``capture_every``-th message is kept as a ``(dest, action,
    payload)`` tuple for the codec measurements; DHT items carried by
    membership handover messages are counted too.
    """

    def __init__(self, capture_every: int = 0) -> None:
        self.counts = [0] * (A.A_NUDGE + 1)
        self.handover_items = 0
        self.captured: list[tuple] = []
        self._every = capture_every

    def attach(self, runtime) -> None:
        inner = runtime.send
        counts = self.counts
        every = self._every

        def send(dest, action, payload):
            counts[action] += 1
            slot = _HANDOVER.get(action)
            if slot is not None:
                self.handover_items += len(payload[slot])
            if every and counts[action] % every == 0 and (
                    len(self.captured) < CAPTURE_MAX):
                self.captured.append((dest, action, payload))
            inner(dest, action, payload)

        runtime.send = send

    def category(self, name: str) -> int:
        return sum(self.counts[code] for code in CATEGORIES[name])


def steady_inputs(seed: int, rounds: int, n: int = STEADY_N,
                  p: float = 0.5) -> list[list[tuple[int, int]]]:
    """Fixed-rate rounds of ``(pid, kind)``, pids uniform at random."""
    workload = FixedRateWorkload(n, p, PER_ROUND, seed=seed)
    return [workload.requests_for_round() for _ in range(rounds)]


def churn_inputs(seed: int, rounds: int, p: float = 0.6):
    """Per-round ``(u, kind)`` draws — ``u`` picks a pid among those
    live at that round — plus, every ``CHURN_EVERY`` rounds, the ``u``
    that picks which live process leaves."""
    rng = random.Random(f"skbench-churn-{seed}")
    ops = [[(rng.random(), INSERT if rng.random() < p else REMOVE)
            for _ in range(PER_ROUND)] for _ in range(rounds)]
    leaves = {r: rng.random() for r in range(CHURN_EVERY, rounds, CHURN_EVERY)}
    return ops, leaves


class SimRep:
    """One run of a fixed input on a fresh session.

    ``topology`` is the cluster seed: it fixes the overlay labels (and
    the engine's delivery-order stream), not the inputs.
    """

    def __init__(self, n: int, topology: int, *, runner: str = "sync",
                 tally: SendTally | None = None, trace_sample: float = 0.0,
                 spans=None) -> None:
        self.spans = spans
        self.log: ChurnLog | None = None
        self.session = repro.connect(
            runner, n_processes=n, seed=topology,
            max_rounds=MAX_DRAIN_ROUNDS, trace_sample=trace_sample)
        self.cluster = self.session.cluster
        self.runtime = self.cluster.runtime
        self.metrics = self.cluster.metrics
        self.backend = self.session.backend
        if tally is not None:
            tally.attach(self.runtime)
        self.completions: list[tuple[float, float]] = []
        observe = self.metrics.observe
        done = self.completions.append
        runtime = self.runtime

        def on_complete(kind, value):
            done((runtime.now, value))
            observe(kind, value)

        self.metrics.observe = on_complete
        self.ops = 0
        self.failed = 0
        self.occupancy_spread = 0.0
        self.cpu_s = 0.0
        self._c0 = 0.0

    def begin(self) -> None:
        self._c0 = time.process_time()

    def submit(self, pid: int, kind: int) -> None:
        self.backend.submit(pid, kind, self.ops if kind == INSERT else None, 0)
        self.ops += 1

    def drain(self, settled=None) -> None:
        """Step until every op completed (and ``settled()`` holds)."""
        for _ in range(MAX_DRAIN_ROUNDS):
            if self.metrics.all_done and (settled is None or settled()):
                break
            self.cluster.step()
        self.failed = self.metrics.pending
        self.cpu_s = time.process_time() - self._c0

    def rounds(self) -> list[float]:
        return [value for _, value in self.completions]

    def signature(self) -> tuple:
        """Deterministic counters that must repeat exactly for a seed."""
        return (self.ops, self.metrics.messages, self.metrics.completed,
                tuple(sorted(self.completions)))

    def verify(self) -> int:
        """Definition 1 over the rep's history; returns the dequeues
        lost (see :func:`check_with_lost`)."""
        if self.spans is None:
            return check_with_lost(self.session.history())
        with self.spans.span("verify", "verify", ops=self.ops):
            return check_with_lost(self.session.history())

    def close(self) -> None:
        self.session.close()


def check_with_lost(records) -> int:
    """Definition 1 over a queue history in which valued dequeues may
    never have come back (the churn defect, README.md).

    Each such dequeue is completed, on a copy, with the only result its
    value rank allows (the front of the queue at that rank), so every
    op that did complete is checked as usual.  Returns how many were
    lost; raises like ``check_history`` on any other violation,
    incomplete ops without a value included.
    """
    lost = {r.req_id for r in records if not r.completed
            and r.kind == REMOVE and r.value is not None}
    if lost:
        keys = order_key(records)
        fifo: deque = deque()
        stand_ins = {}
        for rec in sorted(records, key=lambda r: keys[r.req_id]):
            if rec.kind == INSERT:
                fifo.append(rec.element)
                continue
            front = fifo.popleft() if fifo else BOTTOM
            if rec.req_id in lost:
                stand_in = copy.copy(rec)
                stand_in.completed = True
                stand_in.result = front
                stand_ins[rec.req_id] = stand_in
        records = [stand_ins.get(r.req_id, r) for r in records]
    get_structure("queue").check_history(records)
    return len(lost)


def run_steady(inputs, n: int, topology: int, **kwargs) -> SimRep:
    rep = SimRep(n, topology, **kwargs)
    rep.begin()
    for ops in inputs:
        for pid, kind in ops:
            rep.submit(pid, kind)
        rep.cluster.step()
    rep.drain()
    return rep


def occupancy_spread(cluster) -> float:
    """Max over mean stored elements per virtual node (Lemma 4)."""
    occupancy = cluster.occupancies()
    busy = mean(occupancy)
    return max(occupancy) / busy if busy else 0.0


class ChurnLog:
    """Join/leave bookkeeping of one churn rep (rounds per event)."""

    def __init__(self) -> None:
        self.join_start: dict[int, int] = {}
        self.leave_start: dict[int, int] = {}
        self.join_rounds: list[int] = []
        self.leave_rounds: list[int] = []
        self.requested = 0
        self.epochs: set[int] = set()

    def poll(self, cluster, now: int) -> None:
        for pid, start in list(self.join_start.items()):
            if pid in cluster.live_pids:
                self.join_rounds.append(now - start)
                del self.join_start[pid]
        for pid, start in list(self.leave_start.items()):
            if pid not in cluster.live_pids:
                self.leave_rounds.append(now - start)
                del self.leave_start[pid]


def run_churn(inputs, topology: int, **kwargs) -> SimRep:
    """A rep whose ``log`` holds the churn bookkeeping."""
    ops_rounds, leaves = inputs
    rep = SimRep(CHURN_N, topology, **kwargs)
    cluster = rep.cluster
    log = rep.log = ChurnLog()
    hook = cluster.ctx.on_update_over

    def on_update_over(epoch, members=0):
        log.epochs.add(epoch)
        hook(epoch, members)

    cluster.ctx.on_update_over = on_update_over
    rep.begin()
    for now, ops in enumerate(ops_rounds):
        live = sorted(pid for pid in cluster.live_pids
                      if cluster.can_submit(pid))
        for u, kind in ops:
            rep.submit(live[int(u * len(live))], kind)
        u = leaves.get(now)
        if u is not None:
            log.join_start[cluster.join()] = now
            candidates = sorted(pid for pid in cluster.live_pids
                                if cluster.can_leave(pid))
            pid = candidates[int(u * len(candidates))]
            cluster.leave(pid)
            log.leave_start[pid] = now
            log.requested += 2
        cluster.step()
        log.poll(cluster, now + 1)
    rep.occupancy_spread = occupancy_spread(cluster)

    def settled() -> bool:
        log.poll(cluster, int(rep.runtime.now))
        return not (cluster.joining_pids or cluster.leaving_pids)

    rep.drain(settled)
    if not rep.failed:  # ops left pending keep the cluster unsettled
        cluster.run_until_settled(MAX_DRAIN_ROUNDS)
        log.poll(cluster, int(rep.runtime.now))
    return rep


def inputs_for(workload: str, seed: int, scale: float = 1.0):
    rounds = max(20, int(scale * (CHURN_ROUNDS if workload == "sim-churn"
                                  else STEADY_ROUNDS)))
    if workload == "sim-churn":
        return churn_inputs(seed, rounds)
    return steady_inputs(seed, rounds)


def run(workload: str, inputs, topology: int, **kwargs) -> SimRep:
    if workload == "sim-churn":
        return run_churn(inputs, topology, **kwargs)
    return run_steady(inputs, STEADY_N, topology, **kwargs)
