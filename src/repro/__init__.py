"""Skueue — a scalable, sequentially consistent distributed queue.

Full reproduction of Feldmann, Scheideler & Setzer, *"Skueue: A Scalable
and Sequentially Consistent Distributed Queue"*, IPDPS 2018 (full
version: arXiv:1802.07504): the linearized De Bruijn overlay, the
consistent-hashing DHT, the batched four-stage queue protocol with
JOIN/LEAVE, the distributed stack variant, a Definition-1 sequential
consistency checker, baselines, and the paper's full evaluation harness.

Quickstart (the unified handle API — same script on every backend)::

    import repro

    with repro.connect("sync", n_processes=16, seed=1) as queue:
        queue.enqueue("job-1", pid=3)
        job = queue.dequeue(pid=11)
        assert job.result() == "job-1"

Swap ``"sync"`` for ``"async"`` (adversarial delays) or ``"tcp"`` (real
multi-process deployment) and nothing else changes; see ``repro.api``.
The engine-level facades (:class:`SkueueCluster`, :class:`SkackCluster`)
remain available for round-precise simulation control.
"""

from repro.api import Op, connect
from repro.core.cluster import SkackCluster, SkeapCluster, SkueueCluster
from repro.core.requests import BOTTOM

__version__ = "1.3.0"

__all__ = [
    "BOTTOM",
    "Op",
    "SkackCluster",
    "SkeapCluster",
    "SkueueCluster",
    "__version__",
    "connect",
]
