"""Lemma 3: LDB routing reaches the owner in O(log n) hops w.h.p.

``mean_hops`` counts virtual nodes visited; ``mean_msgs`` counts only
the hops that cross to another process.  A step between two virtual
nodes of one process (the De Bruijn edge m(v) -> l(v)/r(v)) is taken
inside that process without a message.
"""

from __future__ import annotations

import statistics

from conftest import run_once

from repro.experiments.figures import full_scale
from repro.experiments.tables import render_table
from repro.overlay.ldb import LdbTopology, pid_of
from repro.overlay.routing import route_on_topology
from repro.util.rng import RngStreams


def _sweep():
    sizes = [1000, 4000, 16000, 64000] if full_scale() else [250, 1000, 4000]
    rng = RngStreams(7).py("routing-bench")
    rows = []
    for n in sizes:
        topology = LdbTopology(list(range(n)), salt="route-bench")
        vids = topology.vids
        hops, msgs = [], []
        for _ in range(400):
            src = rng.choice(vids)
            target = rng.random()
            dest, hop_count, path = route_on_topology(topology, src, target)
            assert dest == topology.owner_of(target)
            hops.append(hop_count)
            msgs.append(
                sum(pid_of(a) != pid_of(b) for a, b in zip(path, path[1:]))
            )
        rows.append(
            {
                "n": n,
                "vnodes": len(topology),
                "mean_hops": round(statistics.mean(hops), 1),
                "mean_msgs": round(statistics.mean(msgs), 1),
                "p99_hops": sorted(hops)[int(0.99 * len(hops))],
                "max_hops": max(hops),
            }
        )
    return rows


def test_routing_hops_logarithmic(benchmark):
    rows = run_once(benchmark, _sweep)
    print()
    print(render_table(rows))
    # O(log n): x16 size growth increases mean hops by far less than x4
    first, last = rows[0], rows[-1]
    growth = last["mean_hops"] / first["mean_hops"]
    assert growth < 2.5, f"routing hops grew too fast: {growth:.2f}x"
    # the p99 stays near the mean; the absolute max is a w.h.p. tail and
    # may spike (long linear walks between middle nodes), so it only gets
    # a loose sanity bound
    for row in rows:
        assert row["p99_hops"] < row["mean_hops"] * 4 + 20
        assert row["max_hops"] < row["mean_hops"] * 10 + 60
    benchmark.extra_info["rows"] = rows
