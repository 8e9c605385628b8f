"""TCP workloads: one client process against a local 2-host deployment.

Every workload launches hosts with :func:`repro.net.launcher.launch_local`
and drives them through one :class:`repro.net.client.SkueueClient`
(one connection per host) over loopback.  Inputs — pids uniform at
random, kinds 50/50, Poisson arrival times — are generated from the
seed before any timer starts.  Host CPU and memory come from
``/proc``; host-side counters from ``host_telemetry``.
"""

from __future__ import annotations

import asyncio
import math
import random
import time

from repro.core.requests import INSERT, REMOVE
from repro.core.structures import get_structure
from repro.net.client import SkueueClient
from repro.net.launcher import launch_local

from common import TOPOLOGIES, pct, proc_cpu_s, proc_rss_mb

HOSTS = 2
PROCESSES = 16  # 8 per host
SLOTS = 256  # closed-loop requests in flight
WARMUP_S = 1.0
#: elements enqueued before the warm-up: with a 50/50 mix the queue's
#: length is a random walk, and a dequeue that finds it empty skips the
#: DHT, so without a standing backlog a dequeue's messages, CPU and
#: latency would follow the seed
PREFILL = 2000
OP_TIMEOUT_S = 20.0
#: the open-loop rate: CPU mostly idle (the hosts saturate near 1200
#: ops/s on 2 cores), so latency shows wave cadence and hops
OPEN_RATES = {"tcp-open-low": 100.0}
#: seconds of the deployment's protocol round (``launch_local``'s
#: default ``round_seconds``): host latencies are counted in these
ROUND_S = 0.01


def op_stream(seed: str, count: int, n: int = PROCESSES) -> list[tuple]:
    """``(pid, kind)`` pairs: uniform pids, enqueue/dequeue 50/50."""
    rng = random.Random(f"skbench-tcp-ops-{seed}")
    return [(rng.randrange(n), INSERT if rng.random() < 0.5 else REMOVE)
            for _ in range(count)]


def arrival_times(seed: str, rate: float, span: float) -> list[float]:
    """Poisson arrival offsets (seconds) over ``[0, span)``, conditioned
    on exactly ``rate * span`` arrivals (sorted uniform draws), so every
    run offers the same load."""
    rng = random.Random(f"skbench-tcp-arrivals-{seed}-{rate}")
    return sorted(rng.uniform(0.0, span) for _ in range(int(rate * span)))


class Deployment:
    """A launched deployment plus one connected client."""

    def __init__(self, topology: int, *, codec: str = "binary",
                 coalesce: bool = True, trace_sample: float = 0.0) -> None:
        self.topology = topology
        self.codec = codec
        self.coalesce = coalesce
        self.trace_sample = trace_sample
        self.deployment = None
        self.client: SkueueClient | None = None
        self.setup_s = 0.0
        # the client keeps one pending metrics request per host, so
        # concurrent readers must take turns
        self._metrics_lock = asyncio.Lock()

    async def open(self) -> "Deployment":
        start = time.perf_counter()
        self.deployment = launch_local(
            HOSTS, PROCESSES, seed=self.topology, codec=self.codec,
            coalesce=self.coalesce, trace_sample=self.trace_sample)
        try:
            self.client = SkueueClient(
                self.deployment.host_map, codec=self.codec,
                coalesce=self.coalesce)
            await self.client.connect()
        except BaseException:
            self.deployment.close()
            raise
        self.setup_s = time.perf_counter() - start
        return self

    async def close(self) -> None:
        try:
            if self.client is not None:
                await self.client.close()
        finally:
            self.deployment.close()

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self.deployment.processes]

    def host_cpu_s(self) -> float:
        return sum(proc_cpu_s(pid) for pid in self.pids)

    def host_rss_mb(self) -> float:
        return sum(proc_rss_mb(pid) for pid in self.pids)

    async def telemetry(self) -> dict[int, dict]:
        async with self._metrics_lock:
            return await self.client.host_telemetry()

def latency_totals(tel: dict) -> tuple[int, float]:
    """(completed ops, summed latency in rounds) over every host."""
    count, total = 0, 0.0
    for host in tel.values():
        for stat in host["summary"]["per_kind"].values():
            count += stat["count"]
            total += stat["count"] * stat["mean"]
    return count, total


async def setup_samples(count: int) -> list[float]:
    """Set-up times of ``count`` more launch+connect cycles."""
    samples = []
    for i in range(count):
        dep = await Deployment(TOPOLOGIES[i % len(TOPOLOGIES)]).open()
        samples.append(dep.setup_s)
        await dep.close()
    return samples


class Window:
    """Counters read at the start and end of the measured window."""

    def __init__(self, dep: Deployment) -> None:
        self.dep = dep
        self.start: dict = {}
        self.end: dict = {}

    def _stamp(self) -> dict:
        return {"wall": time.perf_counter(), "cpu": time.process_time(),
                "host_cpu": self.dep.host_cpu_s()}

    async def open(self) -> None:
        """Read the hosts, then stamp: the window starts when this returns."""
        tel = await self.dep.telemetry()
        self.start = {**self._stamp(), "tel": tel, "lat": latency_totals(tel),
                      "rss": self.dep.host_rss_mb()}

    async def close(self) -> None:
        """Stamp, then read the hosts: the window ends when this is called,
        so the telemetry round trip stays out of its seconds."""
        self.end = self._stamp()
        tel = await self.dep.telemetry()
        self.end.update(tel=tel, lat=latency_totals(tel))

    @property
    def seconds(self) -> float:
        return self.end["wall"] - self.start["wall"]

    def rounds_mean(self) -> float:
        (c0, t0), (c1, t1) = self.start["lat"], self.end["lat"]
        return (t1 - t0) / (c1 - c0) if c1 > c0 else 0.0


class Outcome:
    """What one measured leg produced."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.lateness_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.submitted: list[int] = []
        self.timed_out: set[int] = set()
        self.window: Window | None = None

    @property
    def ops(self) -> int:
        return len(self.latencies_ms)


async def prefill(dep: Deployment, out: Outcome, spans) -> None:
    """Enqueue ``PREFILL`` elements, spread over the pids, and wait."""
    client = dep.client
    with spans.span("prefill", "api", ops=PREFILL):
        out.submitted += await client.submit_many(
            [(i % PROCESSES, INSERT, -1 - i) for i in range(PREFILL)])
        await client.wait_all(timeout=OP_TIMEOUT_S)


async def closed_loop(dep: Deployment, ops: list[tuple], seconds: float,
                      spans) -> Outcome:
    """``SLOTS`` submitters, each waiting for its op before the next;
    ops that complete inside the window are measured."""
    client = dep.client
    out = Outcome()
    await prefill(dep, out, spans)
    out.window = Window(dep)
    state = {"next": 0, "measuring": False, "stop": False}

    async def slot() -> None:
        while not state["stop"]:
            i = state["next"]
            state["next"] = i + 1
            pid, kind = ops[i % len(ops)]
            start = time.perf_counter()
            with spans.span("submit", "api"):
                if kind == INSERT:
                    req = await client.enqueue(pid, i)
                else:
                    req = await client.dequeue(pid)
            out.submitted.append(req)
            counted = state["measuring"]
            try:
                with spans.span("wait", "api", req=req):
                    await client.wait(req, timeout=OP_TIMEOUT_S)
            except TimeoutError:
                out.timed_out.add(req)
                if counted:
                    out.attempted += 1
                    out.failed += 1
                continue
            if state["measuring"]:
                out.attempted += 1
                out.latencies_ms.append((time.perf_counter() - start) * 1e3)

    tasks = [asyncio.ensure_future(slot()) for _ in range(SLOTS)]
    await asyncio.sleep(WARMUP_S)
    await out.window.open()
    state["measuring"] = True
    await asyncio.sleep(seconds)
    state["measuring"] = False
    await out.window.close()
    state["stop"] = True
    with spans.span("drain", "api"):
        await asyncio.gather(*tasks)
        await client.wait_all(timeout=OP_TIMEOUT_S)
    return out


async def open_loop(dep: Deployment, ops: list[tuple], times: list[float],
                    seconds: float, spans) -> Outcome:
    """Submit each op when it is due, whatever is still in flight; an
    op's latency runs from when it was due.  Ops due inside the window
    (after ``WARMUP_S``) are measured."""
    client = dep.client
    out = Outcome()
    await prefill(dep, out, spans)
    out.window = Window(dep)
    waiters = []

    async def one(i: int, due: float, measured: bool) -> None:
        pid, kind = ops[i % len(ops)]
        with spans.span("submit", "api"):
            if kind == INSERT:
                req = await client.enqueue(pid, i)
            else:
                req = await client.dequeue(pid)
        out.submitted.append(req)
        try:
            with spans.span("wait", "api", req=req):
                await client.wait(req, timeout=OP_TIMEOUT_S)
        except TimeoutError:
            out.timed_out.add(req)
            if measured:
                out.failed += 1
            return
        if measured:
            out.latencies_ms.append((time.perf_counter() - due) * 1e3)

    base = time.perf_counter() + 0.01
    opened = False
    for i, offset in enumerate(times):
        due = base + offset
        measured = WARMUP_S <= offset < WARMUP_S + seconds
        if measured and not opened:
            await out.window.open()
            opened = True
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if measured:
            out.attempted += 1
            out.lateness_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
        waiters.append(asyncio.ensure_future(one(i, due, measured)))
    await asyncio.sleep(max(0.0, base + WARMUP_S + seconds
                            - time.perf_counter()))
    await out.window.close()
    with spans.span("drain", "api"):
        await asyncio.gather(*waiters)
        await client.wait_all(timeout=OP_TIMEOUT_S)
    return out


async def verify(dep: Deployment, out: Outcome, spans) -> list[str]:
    """Definition 1 over every host's records, and every op this client
    submitted present, completed and agreeing with what the client saw.
    Returns problems; ops missing from the history or never completed
    count as failed (once: a timed-out op already did)."""
    client = dep.client
    with spans.span("collect", "net.client"):
        records = await client.collect_records()
    problems = []
    with spans.span("verify", "verify", ops=len(records)):
        try:
            get_structure("queue").check_history(records)
        except Exception as exc:  # noqa: BLE001 - reported, run fails
            problems.append(f"Definition 1: {exc}")
    by_req = {rec.req_id: rec for rec in records}
    missing = 0
    for req in out.submitted:
        rec = by_req.get(req)
        if rec is None or not rec.completed:
            missing += req not in out.timed_out  # else already counted
            continue
        seen = client.result_of(req)
        if rec.kind == INSERT:
            agree = seen is True
        else:
            agree = seen is rec.result if not isinstance(
                rec.result, tuple) else seen == rec.result[1]
        if not agree:
            problems.append(f"req {req}: client saw {seen!r}, "
                            f"history has {rec.result!r}")
    if missing:
        out.failed += missing
        out.attempted += missing
    return problems


def _registry(tel: dict, name: str, labels: str = "") -> float:
    return sum(host["registry"].get(name, {}).get(labels, 0.0)
               for host in tel.values())


def _messages(tel: dict) -> float:
    return sum(host["summary"].get("messages", 0) for host in tel.values())


def _hist(tel: dict, name: str) -> tuple[float, float]:
    count = total = 0.0
    for host in tel.values():
        hist = host["registry"].get(name, {}).get("")
        if hist:
            count += hist["count"]
            total += hist["sum"]
    return count, total


def _phase(tel: dict, phase: str, key: str) -> float:
    """Count-weighted mean over hosts of one phase-histogram figure."""
    pairs = [(host["phases"].get(phase) or {}) for host in tel.values()]
    pairs = [(p.get("count", 0), p.get(key) or 0.0) for p in pairs]
    count = sum(c for c, _ in pairs)
    return sum(c * v for c, v in pairs) / count if count else 0.0


def server_metrics(out: Outcome, outbox_max: float) -> dict[str, float]:
    """``net.server.*`` and ``net.client.*`` per-layer figures of a
    telemetry window."""
    w = out.window
    ops = max(1, out.ops)
    t0, t1 = w.start["tel"], w.end["tel"]

    def delta(name, labels=""):
        return _registry(t1, name, labels) - _registry(t0, name, labels)

    wb0, wb1 = _hist(t0, "skueue_write_batch_frames"), _hist(
        t1, "skueue_write_batch_frames")
    writes = wb1[0] - wb0[0]
    resident = (_registry(t1, "skueue_records_local")
                + _registry(t1, "skueue_records_replica"))
    m = {
        "net.server.cpu_ms_per_op":
            (w.end["host_cpu"] - w.start["host_cpu"]) * 1e3 / ops,
        "net.server.frames_in_per_op":
            delta("skueue_frames_total", '{direction="in"}') / ops,
        "net.server.frames_out_per_op":
            delta("skueue_frames_total", '{direction="out"}') / ops,
        "net.server.bytes_out_per_op":
            delta("skueue_bytes_total", '{direction="out"}') / ops,
        "net.server.write_batch_mean":
            (wb1[1] - wb0[1]) / writes if writes else 0.0,
        "net.server.peer_outbox_max": outbox_max,
        "net.client.cpu_us_per_op":
            (w.end["cpu"] - w.start["cpu"]) * 1e6 / ops,
        "net.server.wave_nudge_probes":
            delta("skueue_wave_nudge_probes_total"),
        "net.server.wave_force_fires":
            delta("skueue_wave_force_fires_total"),
        "net.server.records_resident_per_op":
            resident / max(1, len(out.submitted)),
        "net.server.hops_mean": _phase(t1, "hops", "mean"),
    }
    for phase in ("buffer", "wave", "deliver"):
        for q in ("p50", "p99"):
            m[f"net.server.phase.{phase}_ms_{q}"] = (
                _phase(t1, phase, q) * 1e3)
    return m


async def sample_outbox(dep: Deployment, stop: asyncio.Event,
                        period: float = 0.25) -> float:
    """Largest summed peer-outbox depth seen while ``stop`` is unset."""
    peak = 0.0
    while not stop.is_set():
        tel = await dep.telemetry()
        peak = max(peak, _registry(tel, "skueue_peer_outbox_frames"))
        try:
            await asyncio.wait_for(stop.wait(), period)
        except asyncio.TimeoutError:
            pass
    return peak


def loadgen_metrics(out: Outcome) -> dict[str, float]:
    w = out.window
    return {
        "loadgen.lateness_p99_ms":
            pct(out.lateness_ms, 0.99) if out.lateness_ms else 0.0,
        "loadgen.cpu_util": (w.end["cpu"] - w.start["cpu"]) / w.seconds,
    }


class Leg:
    """One measured deployment: its outcome and what was read around it."""

    def __init__(self, out: Outcome, setup_s: float, problems: list[str],
                 outbox_max: float) -> None:
        self.out = out
        self.setup_s = setup_s
        self.problems = problems
        self.outbox_max = outbox_max


async def run_leg(workload: str, seed: str, topology: int, seconds: float,
                  spans, *, codec: str = "binary", coalesce: bool = True,
                  trace_sample: float = 0.0, watch_outbox: bool = False) -> Leg:
    """Generate inputs, launch, measure, verify, stop."""
    if workload == "tcp-closed":
        # more ops than 2 hosts complete; the stream wraps if not
        ops = op_stream(seed, int(4000 * (WARMUP_S + seconds + 5)))
        times = None
    else:
        times = arrival_times(seed, OPEN_RATES[workload], WARMUP_S + seconds)
        ops = op_stream(seed, len(times))
    dep = Deployment(topology, codec=codec, coalesce=coalesce,
                     trace_sample=trace_sample)
    with spans.span("launch+connect", "net.launcher", topology=topology):
        await dep.open()
    try:
        stop = asyncio.Event()
        sampler = (asyncio.ensure_future(sample_outbox(dep, stop))
                   if watch_outbox else None)
        try:
            with spans.span("measure", "net.client", workload=workload):
                if times is None:
                    out = await closed_loop(dep, ops, seconds, spans)
                else:
                    out = await open_loop(dep, ops, times, seconds, spans)
        finally:
            stop.set()
        outbox_max = await sampler if sampler is not None else 0.0
        problems = await verify(dep, out, spans)
    finally:
        with spans.span("shutdown", "net.launcher"):
            await dep.close()
    return Leg(out, dep.setup_s, problems, outbox_max)


async def run_pass(workload: str, seed: int, seconds: float, spans,
                   **kwargs) -> list[Leg]:
    """One leg per fixed topology, splitting ``seconds`` between them;
    each leg draws its own inputs from ``seed``."""
    share = seconds / len(TOPOLOGIES)
    return [await run_leg(workload, f"{seed}-{topology}", topology, share,
                          spans, **kwargs)
            for topology in TOPOLOGIES]


def costs(legs: list[Leg]) -> dict[str, float]:
    """End-to-end figures over every leg of a pass: what an op costs.

    Messages are the hosts' protocol messages sent over the window and
    bytes what they wrote to their sockets (to peers and the client),
    both per op the client completed in it.  Memory is the hosts'
    resident set when the window opens: warmed up, holding the
    ``PREFILL`` backlog.  (Their peak at the end grows with the ops the
    window completed, which follows the CPU left free.)"""
    ops = sum(leg.out.ops for leg in legs)
    msgs = wire = 0.0
    for leg in legs:
        t0, t1 = leg.out.window.start["tel"], leg.out.window.end["tel"]
        msgs += _messages(t1) - _messages(t0)
        wire += (_registry(t1, "skueue_bytes_total", '{direction="out"}')
                 - _registry(t0, "skueue_bytes_total", '{direction="out"}'))
    return {
        "msgs_per_op": msgs / ops if ops else math.inf,
        "wire_bytes_per_op": wire / ops if ops else math.inf,
        "host_rss_mb": max(leg.out.window.start["rss"] for leg in legs),
    }


def client_view(legs: list[Leg]) -> dict[str, float]:
    """Wall-clock figures over every leg of a pass: throughput and
    latency as the client saw them, and the hosts' latency in rounds.
    They follow the CPU the box's neighbours leave free (README.md), so
    they are per-layer figures of the traced pass, not gated ones."""
    latencies = [ms for leg in legs for ms in leg.out.latencies_ms]
    failed = sum(leg.out.failed for leg in legs)
    ops = sum(leg.out.ops for leg in legs)
    seconds = sum(leg.out.window.seconds for leg in legs)
    count = total = 0.0
    for leg in legs:
        w = leg.out.window
        count += w.end["lat"][0] - w.start["lat"][0]
        total += w.end["lat"][1] - w.start["lat"][1]
    cap = OP_TIMEOUT_S * 1e3  # a miss reads as the op timeout
    return {
        "net.client.ops_per_s": ops / seconds,
        "net.client.latency_p50_ms": min(cap, pct(latencies, 0.5, failed)),
        "net.client.latency_p99_ms": min(cap, pct(latencies, 0.99, failed)),
        "net.server.rounds_mean": total / count if count else 0.0,
    }


def pooled_layers(legs: list[Leg]) -> dict[str, float]:
    """Per-layer figures of telemetry legs, weighted by each leg's ops
    (maxima and counts combine as such)."""
    parts = [(leg.out.ops, {**server_metrics(leg.out, leg.outbox_max),
                            **loadgen_metrics(leg.out)}) for leg in legs]
    ops = sum(n for n, _ in parts) or 1
    out = {}
    for name in parts[0][1]:
        values = [(n, m[name]) for n, m in parts]
        if name.endswith(("_max", "lateness_p99_ms")):
            out[name] = max(v for _, v in values)
        elif name.endswith(("wave_nudge_probes", "wave_force_fires")):
            out[name] = sum(v for _, v in values)
        else:
            out[name] = sum(n * v for n, v in values) / ops
    return out
