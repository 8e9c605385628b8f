"""Skueue benchmark: end-to-end and per-layer figures, one workload a run.

Usage (from the root of a checkout)::

    python3 skbench/run.py --workload tcp-closed --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json
with all tracing off.  ``--trace 1`` is the separate traced pass: it
runs the workload untraced and traced, reports every per-layer metric
and the tracing overhead, and writes the benchmark's spans (merged with
the simulator's own op traces) as Chrome trace JSON under
``skbench/out/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run
measures the same fixed topologies (``common.TOPOLOGIES``); the seed
draws the inputs.  See skbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tcp-closed", "tcp-open-low")
#: sample rate of the repo's own per-op tracer on the traced TCP leg
TCP_TRACE_SAMPLE = 0.02
#: a generator this late (p99) no longer offers the rate it claims
MAX_LATENESS_MS = 100.0
#: ops replayed on the async runner and on TCP in the runtime leg
RUNTIME_LEG_OPS = 1000
#: ops run at each size of the scaling leg
SCALING_OPS = 4000
SCALING_SIZES = (64, 256, 1024)
#: launch+connect cycles a TCP run makes before its legs, for set-up
#: samples: the first few launches of a burst take up to twice as long
#: as the rest (as do the legs' own), so the median needs many
EXTRA_SETUPS = 11
#: seconds the traced pass measures at most per TCP pass: it makes
#: about ten passes and legs, and must end well within 180 s on a box
#: whose neighbours slow its set-up and checks
TRACE_SECONDS = 12.0
#: the workload whose traced pass also runs the simulator legs
#: (sim-steady and sim-churn): wall-clock figures of the CPU-bound
#: simulator do not repeat on a shared 2-core box, so the simulators
#: are not workloads of their own (README.md)
SIM_LEGS_WORKLOAD = "tcp-open-low"


class Run:
    """Accumulates one run's result line."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 scale: float, spans) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.spans = spans
        self.metrics: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# -- simulators ---------------------------------------------------------------


def _sim_verify(run: Run, rep) -> None:
    try:
        lost = rep.verify()
    except Exception as exc:  # noqa: BLE001 - any violation fails the run
        run.problems.append(f"Definition 1: {exc}")
        return
    if lost:
        # counted in ``failed`` through ``rep.failed``; left standing
        print(f"[skbench] {lost} dequeues never completed, counted in "
              "failed (README.md, known defects)", file=sys.stderr,
              flush=True)


def _protocol_layer(reps, tally) -> dict[str, float]:
    """``core.protocol.*`` and ``overlay.routing.*`` over the reps that
    ``tally`` counted."""
    import simwork as S
    from common import pct
    from repro.core import actions as A
    from repro.core.requests import BOTTOM, INSERT

    ops = max(1, sum(rep.ops for rep in reps))
    failed = sum(rep.failed for rep in reps)
    records = [r for rep in reps for r in rep.cluster.records]
    puts = sum(1 for r in records if r.kind == INSERT)
    gets = sum(1 for r in records if r.kind != INSERT and r.completed
               and r.result is not BOTTOM)
    metrics = [rep.metrics for rep in reps]
    batches = sum(m.batch_observations for m in metrics)
    waves = [m.stats["wave_duration"] for m in metrics
             if "wave_duration" in m.stats]
    wave_count = sum(w.count for w in waves)
    rounds = [v for rep in reps for v in rep.rounds()]
    out = {f"core.protocol.msgs_per_op.{name}": tally.category(name) / ops
           for name in S.CATEGORIES}
    out.update({
        "core.protocol.msgs_per_op.total":
            sum(m.messages for m in metrics) / ops,
        "core.protocol.batch_len_mean":
            sum(m.batch_len_total for m in metrics) / batches
            if batches else 0.0,
        "core.protocol.wave_rounds_mean":
            sum(w.total for w in waves) / wave_count if wave_count else 0.0,
        "core.protocol.nudges_per_kop": sum(
            m.counters.get("wave_nudge_probes", 0) for m in metrics)
            * 1e3 / ops,
        "core.protocol.rounds_p50": pct(rounds, 0.5, failed),
        "core.protocol.rounds_p99": pct(rounds, 0.99, failed),
        "overlay.routing.hops_per_put":
            tally.counts[A.A_RT_PUT] / puts if puts else 0.0,
        "overlay.routing.hops_per_get":
            tally.counts[A.A_RT_GET] / gets if gets else 0.0,
    })
    return out


def _membership_layer(reps, tally) -> dict[str, float]:
    from common import pct

    joins = [r for rep in reps for r in rep.log.join_rounds]
    leaves = [r for rep in reps for r in rep.log.leave_rounds]
    requested = sum(rep.log.requested for rep in reps)
    return {
        "core.membership.msgs_per_event":
            tally.category("membership") / max(1, requested),
        "core.membership.update_phases":
            sum(len(rep.log.epochs) for rep in reps),
        "core.membership.events_completed_frac":
            (len(joins) + len(leaves)) / requested if requested else 0.0,
        "core.membership.join_rounds_p50": pct(joins, 0.5),
        "core.membership.leave_rounds_p50": pct(leaves, 0.5),
        "core.membership.ops_lost": sum(rep.failed for rep in reps),
        "dht.storage.handover_items": tally.handover_items,
        "dht.storage.occupancy_max_over_mean":
            max(rep.occupancy_spread for rep in reps),
    }


def _api_leg(inputs, n: int, topology: int, spans) -> float:
    """µs per op spent in the handle API's ``submit`` (stepping untimed)."""
    import simwork as S
    from repro.core.requests import INSERT

    rep = S.SimRep(n, topology)
    session = rep.session
    spent = 0.0
    ops = 0
    try:
        for round_ops in inputs:
            start = time.perf_counter()
            for pid, kind in round_ops:
                session.submit(kind, ops if kind == INSERT else None, pid=pid)
                ops += 1
            end = time.perf_counter()
            spans.add("submit round", "api", start, end, ops=len(round_ops))
            spent += end - start
            rep.cluster.step()
        with spans.span("drain", "api"):
            session.drain()
    finally:
        rep.close()
    return spent * 1e6 / max(1, ops)


def _net_leg(inputs, topology: int, spans) -> tuple[float, int, int]:
    """The same ops on a 2-host TCP deployment of 16 processes, a round
    of them every protocol round.  Returns host CPU µs per op, ops and
    ops still pending after the op timeout."""
    import tcpwork as T
    from repro.core.requests import INSERT

    async def go() -> tuple[float, int, int]:
        dep = T.Deployment(topology)
        with spans.span("launch+connect", "net.launcher"):
            await dep.open()
        try:
            cpu0 = dep.host_cpu_s()
            ops = 0
            with spans.span("replay", "net.client"):
                for round_ops in inputs:
                    await dep.client.submit_many(
                        [(pid, kind, ops + i if kind == INSERT else None)
                         for i, (pid, kind) in enumerate(round_ops)])
                    ops += len(round_ops)
                    await asyncio.sleep(T.ROUND_S)
                try:
                    await dep.client.wait_all(timeout=T.OP_TIMEOUT_S)
                except TimeoutError:
                    pass  # counted below
            cpu = (dep.host_cpu_s() - cpu0) * 1e6 / max(1, ops)
            return cpu, ops, dep.client.pending_count
        finally:
            await dep.close()

    return asyncio.run(go())


def _sim_reps(run: Run, workload: str) -> dict:
    """Each fixed topology untraced, then traced (send tally plus the
    repo's tracer on every op): the per-layer figures of ``sim-steady``
    (protocol, routing, verify) or ``sim-churn`` (membership, DHT).
    Returns the first traced rep's Chrome trace."""
    import simwork as S
    from common import TOPOLOGIES

    spans = run.spans
    inputs = S.inputs_for(workload, run.seed, run.scale)
    tally = S.SendTally()
    base, traced = [], []
    try:
        for topology in TOPOLOGIES:
            with spans.span(f"untraced {workload}", "sim.runtime",
                            topology=topology):
                base.append(S.run(workload, inputs, topology))
            with spans.span(f"traced {workload}", "sim.runtime",
                            topology=topology):
                traced.append(S.run(workload, inputs, topology, tally=tally,
                                    trace_sample=1.0, spans=spans))
        for rep in traced:
            run.count(rep.ops, rep.failed)
        if [r.signature() for r in base] != [r.signature() for r in traced]:
            run.problems.append(f"{workload}: deterministic counters differ "
                                "between the untraced and the traced reps")
        start = time.perf_counter()
        for rep in traced:
            _sim_verify(run, rep)
        verify_s = time.perf_counter() - start
        if workload == "sim-churn":
            run.metrics.update(_membership_layer(traced, tally))
        else:
            run.metrics.update(_protocol_layer(traced, tally))
            run.metrics["verify.us_per_op"] = verify_s * 1e6 / max(
                1, sum(rep.ops for rep in traced))
        return traced[0].cluster.trace_export()
    finally:
        for rep in base + traced:
            rep.close()


def _runtime_legs(run: Run) -> None:
    """The same ops on sync, async, TCP and the handle API, at the TCP
    deployments' 16 processes; then Lemma 3's scaling shape."""
    import simwork as S
    import tcpwork as T
    from common import TOPOLOGIES

    spans = run.spans
    topology = TOPOLOGIES[0]
    n = T.PROCESSES
    inputs = S.steady_inputs(run.seed, max(1, RUNTIME_LEG_OPS // S.PER_ROUND),
                             n=n)
    for runner in ("sync", "async"):
        with spans.span(f"{runner} replay", "sim.runtime"):
            rep = S.run_steady(inputs, n, topology, runner=runner)
        try:
            run.count(rep.ops, rep.failed)
            run.metrics[f"sim.runtime.{runner}.cpu_us_per_op"] = (
                rep.cpu_s * 1e6 / max(1, rep.ops))
        finally:
            rep.close()
    with spans.span("net replay", "net.client"):
        cpu, ops, pending = _net_leg(inputs, topology, spans)
    run.count(ops, pending)
    run.metrics["sim.runtime.net.host_cpu_us_per_op"] = cpu
    with spans.span("api leg", "api"):
        run.metrics["api.submit_us_per_op"] = _api_leg(inputs, n, topology,
                                                       spans)
    for size in SCALING_SIZES:
        tally = S.SendTally()
        rounds = max(20, int(run.scale * SCALING_OPS / S.PER_ROUND))
        sized = S.steady_inputs(run.seed, rounds, n=size)
        with spans.span(f"scaling n={size}", "core.protocol"):
            rep = S.run_steady(sized, size, topology, tally=tally)
        try:
            run.count(rep.ops, rep.failed)
            layer = _protocol_layer([rep], tally)
        finally:
            rep.close()
        run.metrics[f"core.protocol.scaling.n{size}.msgs_per_op"] = (
            layer["core.protocol.msgs_per_op.total"])
        for name in ("hops_per_put", "hops_per_get"):
            run.metrics[f"overlay.routing.scaling.n{size}.{name}"] = (
                layer[f"overlay.routing.{name}"])


# -- TCP ----------------------------------------------------------------------


def _tcp_pass(run: Run, spans, **kwargs):
    import tcpwork as T

    legs = asyncio.run(T.run_pass(run.workload, run.seed, run.seconds,
                                  spans, **kwargs))
    for leg in legs:
        run.problems.extend(leg.problems)
        run.count(leg.out.attempted, leg.out.failed)
    return legs


def _tcp_e2e(run: Run) -> None:
    import tcpwork as T
    from common import median

    setups = asyncio.run(T.setup_samples(EXTRA_SETUPS))
    legs = _tcp_pass(run, run.spans)
    lateness = max(T.loadgen_metrics(leg.out)["loadgen.lateness_p99_ms"]
                   for leg in legs)
    if lateness > MAX_LATENESS_MS:
        run.problems.append(f"load generator ran {lateness:.0f} ms late "
                            "(p99): the offered rate was not met")
    run.metrics.update(T.costs(legs))
    run.metrics["setup_s"] = median(setups + [leg.setup_s for leg in legs])


def _tcp_trace(run: Run) -> None:
    import codec
    import simwork as S
    import tcpwork as T
    from common import Spans

    quiet = Spans(False)
    # the wall-clock figures come from the untraced pass
    base = T.client_view(_tcp_pass(run, quiet))
    run.metrics.update(base)
    legs = _tcp_pass(run, run.spans, trace_sample=TCP_TRACE_SAMPLE,
                     watch_outbox=True)
    traced = T.client_view(legs)
    run.metrics.update(T.pooled_layers(legs))
    if run.workload == "tcp-closed":
        run.metrics["trace.overhead_pct"] = (
            1.0 - traced["net.client.ops_per_s"]
            / base["net.client.ops_per_s"]) * 100
        # codec x coalescing: the share of the hot path each explains
        short = Run(run.workload, run.seed, max(3.0, run.seconds / 4),
                    run.scale, quiet)
        for wire in ("json", "binary"):
            for coalesce in (True, False):
                name = "on" if coalesce else "off"
                with run.spans.span(f"leg {wire} coalesce={name}",
                                    "net.client"):
                    figures = T.client_view(_tcp_pass(
                        short, quiet, codec=wire, coalesce=coalesce))
                run.metrics[f"net.leg.{wire}.coalesce_{name}.ops_per_s"] = (
                    figures["net.client.ops_per_s"])
        run.problems.extend(short.problems)
        run.count(short.attempted, short.failed)
    else:
        run.metrics["trace.overhead_pct"] = (
            traced["net.client.latency_p50_ms"]
            / base["net.client.latency_p50_ms"] - 1.0) * 100
    _stall_leg(run)
    extra = []
    if run.workload == SIM_LEGS_WORKLOAD:
        # the simulator layers, measured where a gated run can show them
        extra.append(_sim_reps(run, "sim-steady"))
        _sim_reps(run, "sim-churn")
        _runtime_legs(run)
    # the codec on simulator traffic of the same size (16 processes)
    tally = S.SendTally(capture_every=4)
    rounds = max(20, int(run.scale * 200))
    inputs = S.steady_inputs(run.seed, rounds, n=T.PROCESSES)
    rep = S.run_steady(inputs, T.PROCESSES, T.TOPOLOGIES[0], tally=tally)
    try:
        run.metrics.update(codec.measure(tally.captured, rep.cluster.records,
                                         run.spans))
    finally:
        rep.close()
    _write_trace(run, extra)


def _stall_leg(run: Run) -> None:
    """The same load on the deployment whose waves stall (not gated)."""
    import tcpwork as T
    from common import STALL_TOPOLOGY

    with run.spans.span("stall topology", "net.client"):
        leg = asyncio.run(T.run_leg(
            run.workload, f"{run.seed}-{STALL_TOPOLOGY}", STALL_TOPOLOGY,
            run.seconds / len(T.TOPOLOGIES), run.spans,
            trace_sample=TCP_TRACE_SAMPLE, watch_outbox=True))
    run.problems.extend(leg.problems)
    run.count(leg.out.attempted, leg.out.failed)
    figures = T.client_view([leg])
    layers = T.pooled_layers([leg])
    prefix = f"net.topology{STALL_TOPOLOGY}"
    run.metrics.update({
        f"{prefix}.latency_p50_ms": figures["net.client.latency_p50_ms"],
        f"{prefix}.latency_p99_ms": figures["net.client.latency_p99_ms"],
        f"{prefix}.phase.buffer_ms_p99": layers["net.server.phase.buffer_ms_p99"],
        f"{prefix}.phase.wave_ms_p99": layers["net.server.phase.wave_ms_p99"],
    })


# -- output -------------------------------------------------------------------


def _write_trace(run: Run, extra: list[dict]) -> None:
    from repro.telemetry.export import merge_traces, validate_chrome_trace

    merged = merge_traces([run.spans.export(), *extra])
    problems = validate_chrome_trace(merged)
    if problems:
        run.problems.append(f"invalid Chrome trace: {problems[:3]}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{run.workload}-seed{run.seed}.trace.json"
    path.write_text(json.dumps(merged))
    run.metrics["trace.events"] = len(merged["traceEvents"])
    print(f"[skbench] wrote {path.relative_to(ROOT)} "
          f"({len(merged['traceEvents'])} events)", flush=True)


def _result(run: Run, spec: dict, trace: bool) -> dict:
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    unknown = sorted(set(run.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if not trace:
        missing = sorted(set(units) - set(run.metrics))
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {}
    for name, unit in units.items():
        # a per-layer figure the workload does not exercise reads 0
        value = float(run.metrics.get(name, 0.0))
        if not math.isfinite(value):
            run.problems.append(f"{name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink simulator input sizes (smoke test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"skbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from common import HostErrorWatch, Spans

    # a SIGTERM unwinds like an error, so every deployment's finally
    # block stops its host processes
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = min(args.seconds, TRACE_SECONDS) if args.trace else args.seconds
    run = Run(args.workload, args.seed, seconds, args.scale,
              Spans(bool(args.trace)))
    measure = _tcp_trace if args.trace else _tcp_e2e
    with HostErrorWatch() as watch:
        measure(run)
    run.problems.extend(watch.lines)
    for problem in run.problems:
        print(f"[skbench] FAIL {problem}", file=sys.stderr, flush=True)
    print(json.dumps(_result(run, spec, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
