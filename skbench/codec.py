"""Wire-codec layer (``repro.net.transport``) on captured protocol traffic.

Builds the four hot frame shapes from real simulator traffic and times
their encode and decode on both codecs:

* ``msg`` — one peer frame per captured ``(dest, action, payload)``,
* ``batch`` — runs of 8 consecutive ``msg`` frames in one wrapper,
* ``submit_batch`` — client submission rows, 16 per frame,
* ``done_batch`` — DONE rows of completed records, 16 per frame.

Encode covers ``encode_payload`` plus ``encode_frame`` (what a host
pays per frame); decode covers ``FrameReader.feed`` plus
``decode_payload`` of the frame's payload fields.
"""

from __future__ import annotations

import time

from repro.core.requests import INSERT
from repro.net.transport import (
    WIRE_CODECS,
    FrameReader,
    decode_payload,
    encode_frame,
    encode_payload,
)

FRAMES = ("msg", "batch", "submit_batch", "done_batch")
_BATCH = 8
_ROWS = 16


def _msg(seq: int, dest: int, action: int, payload) -> dict:
    return {"op": "msg", "dest": dest, "action": action, "gen": 0,
            "payload": encode_payload(payload), "src": 0, "seq": seq}


def _chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items) - size + 1, size)]


def build_frames(captured: list[tuple], records) -> dict[str, list]:
    """Frame-building closures per shape; each returns a fresh frame
    (encoding the payload is part of what is timed)."""
    msgs = [(i, dest, action, payload)
            for i, (dest, action, payload) in enumerate(captured)]
    subs = [(rec.req_id, rec.pid, rec.kind, rec.item, rec.priority)
            for rec in records]
    dones = [(rec.req_id, rec.kind, rec.result)
             for rec in records if rec.completed]
    return {
        "msg": [lambda m=m: _msg(*m) for m in msgs],
        "batch": [lambda run=run: {"op": "batch",
                                   "frames": [_msg(*m) for m in run]}
                  for run in _chunks(msgs, _BATCH)],
        "submit_batch": [
            lambda rows=rows: {"op": "submit_batch", "subs": [
                [req, pid, kind, encode_payload(item), pri]
                for req, pid, kind, item, pri in rows]}
            for rows in _chunks(subs, _ROWS)],
        "done_batch": [
            lambda rows=rows: {"op": "done_batch", "dones": [
                [req, kind, encode_payload(result)]
                for req, kind, result in rows]}
            for rows in _chunks(dones, _ROWS)],
    }


def _decode_payloads(frame: dict) -> None:
    op = frame["op"]
    if op == "msg":
        decode_payload(frame["payload"])
    elif op == "batch":
        for inner in frame["frames"]:
            decode_payload(inner["payload"])
    elif op == "submit_batch":
        for row in frame["subs"]:
            decode_payload(row[3])
    else:
        for row in frame["dones"]:
            if row[1] != INSERT:
                decode_payload(row[2])


def measure(captured: list[tuple], records, spans=None) -> dict[str, float]:
    """``net.transport.{encode_us,decode_us,bytes}.<codec>.<frame>``."""
    builders = build_frames(captured, records)
    out: dict[str, float] = {}
    for codec in WIRE_CODECS:
        for shape in FRAMES:
            makers = builders[shape]
            encoded = []
            start = time.perf_counter()
            for make in makers:
                encoded.append(encode_frame(make(), codec))
            mid = time.perf_counter()
            reader = FrameReader()
            for blob in encoded:
                for frame in reader.feed(blob):
                    _decode_payloads(frame)
            end = time.perf_counter()
            if spans is not None:
                spans.add(f"encode {shape}", "net.transport", start, mid,
                          codec=codec, frames=len(makers))
                spans.add(f"decode {shape}", "net.transport", mid, end,
                          codec=codec, frames=len(makers))
            count = max(1, len(makers))
            key = f"{codec}.{shape}"
            out[f"net.transport.encode_us.{key}"] = (mid - start) * 1e6 / count
            out[f"net.transport.decode_us.{key}"] = (end - mid) * 1e6 / count
            out[f"net.transport.bytes.{key}"] = (
                sum(map(len, encoded)) / count)
    return out
