"""Shared pieces of the Skueue benchmark.

Percentiles that count failures as misses, ``/proc`` readers for host
CPU and memory, the benchmark's own span recorder (written out as
Chrome trace JSON), and a guard that fails a run when a host reports a
protocol error on stderr.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from contextlib import contextmanager

#: the fixed deployment (cluster) seeds every run measures: the overlay
#: labels hash from this seed, and latency depends on them several-fold
#: (see README.md), so runs vary their inputs but not their topologies
TOPOLOGIES = (0, 1)
#: deployment seed 2 stalls waves for seconds on TCP, so its latency
#: grows with the window and no percentile of it repeats; the traced
#: TCP runs measure it on its own (``net.topology2.*``, README.md)
STALL_TOPOLOGY = 2

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_HOST_ERROR = re.compile(rb"^\[host \d+\] ")


def pct(values: list[float], q: float, misses: int = 0) -> float:
    """Nearest-rank ``q``-quantile of ``values`` plus ``misses`` failed
    samples that count as infinitely slow (so they miss every limit)."""
    total = len(values) + misses
    if total == 0:
        return math.nan
    rank = min(total - 1, max(0, math.ceil(q * total) - 1))
    if rank >= len(values):
        return math.inf
    return sorted(values)[rank]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        stat = fh.read()
    # the comm field may contain spaces; fields resume after its ')'
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_rss_mb(pid: int) -> float:
    """Resident set size (``VmRSS``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


class Spans:
    """Benchmark-side spans around each call into a layer.

    Kept in memory; :meth:`export` renders them as Chrome trace events.
    A span's ``args.parent`` names the span that was open around it, so
    a layer's self time is its duration minus its children's.  With
    ``enabled=False`` every :meth:`span` is a no-op.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.events: list[dict] = []
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, layer: str, **args):
        if not self.enabled:
            yield
            return
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.add(name, layer, start, end, id=span_id, parent=parent,
                     **args)

    def add(self, name: str, layer: str, start: float, end: float,
            tid: int = 0, **args) -> None:
        """Record a span measured elsewhere (``perf_counter`` stamps)."""
        if self.enabled:
            self.events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": (start - self._t0) * 1e6, "dur": (end - start) * 1e6,
                "pid": os.getpid(), "tid": tid, "args": args,
            })

    def export(self) -> dict:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms",
                "otherData": {"source": "skbench"}}


class HostErrorWatch:
    """Tee this process's fd 2 through a pipe and remember every
    ``[host N] ...`` line written there.

    Host processes inherit fd 2, and the launcher forwards their stdout
    (where a host prints protocol errors) to this process's stderr, so
    both paths pass through the pipe.  Exit only after every host has
    been stopped: the reader thread ends when the last writer closes.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._saved = -1
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HostErrorWatch":
        import sys

        sys.stderr.flush()
        self._saved = os.dup(2)
        read_fd, write_fd = os.pipe()
        os.dup2(write_fd, 2)
        os.close(write_fd)
        self._thread = threading.Thread(
            target=self._pump, args=(read_fd,), daemon=True)
        self._thread.start()
        return self

    def _pump(self, read_fd: int) -> None:
        buffer = b""
        with os.fdopen(read_fd, "rb", buffering=0) as stream:
            while True:
                chunk = stream.read(65536)
                if not chunk:
                    break
                os.write(self._saved, chunk)
                buffer += chunk
                *whole, buffer = buffer.split(b"\n")
                for line in whole:
                    if _HOST_ERROR.match(line):
                        self.lines.append(line.decode(errors="replace"))

    def __exit__(self, exc_type, exc, tb) -> None:
        import sys

        sys.stderr.flush()
        os.dup2(self._saved, 2)
        self._thread.join(timeout=10.0)
        os.close(self._saved)
