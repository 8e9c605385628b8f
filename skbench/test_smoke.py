"""Tiny-size smoke test of the benchmark's output schema and metric names.

Run from the repository root (about two minutes on 2 cores)::

    python3 -m pytest skbench/test_smoke.py -q

Every workload runs briefly untraced and traced; each result line must
carry exactly the metrics BENCHMARK.json lists, with their units, and a
checkout without the program must make the benchmark fail.  The check
of histories with lost dequeues is tested on hand-made histories.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _history(lost_result):
    """p0 enqueues x1 then x2; p1's first dequeue (value 3) is lost, its
    second (value 4) returned ``lost_result``."""
    from repro.core.requests import INSERT, REMOVE, OpRecord

    def rec(req_id, pid, idx, kind, value, result=None, completed=True):
        r = OpRecord(req_id, pid, idx, kind, f"x{req_id}", 0)
        r.value, r.result, r.completed = value, result, completed
        return r

    return [rec(1, 0, 0, INSERT, 1), rec(2, 0, 1, INSERT, 2),
            rec(3, 1, 0, REMOVE, 3, completed=False),
            rec(4, 1, 1, REMOVE, 4, result=lost_result)]


def test_lost_dequeues_count_but_the_rest_is_checked(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import simwork
    from repro.verify import ConsistencyViolation

    # the lost dequeue took (1, "x1"), so the next one must see (2, "x2")
    assert simwork.check_with_lost(_history((2, "x2"))) == 1
    with pytest.raises(ConsistencyViolation):
        simwork.check_with_lost(_history((1, "x1")))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "skbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1.5", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["skbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    code, stdout = _run(workload, trace)
    assert code == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]
    assert result["correct"] is True
    # the churn leg of a traced pass may lose dequeues (README.md), and
    # reports them as failed ops
    lost = result["metrics"].get("core.membership.ops_lost", {"value": 0})
    assert result["failed"] == lost["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "skbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, stdout = _run("tcp-open-low", 0, cwd=tmp_path)
    assert code != 0
    assert stdout == ""
