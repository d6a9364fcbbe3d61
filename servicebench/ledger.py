"""Per-layer metrics of a traced run, computed from its spans.

Spans come from the generator process (client layers, phases, recovery)
and from each traced server process.  ``perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, so the two processes' timestamps share one
time line.

Self time is a span's duration minus the time its direct children cover;
children are recorded on the caller's thread, so work a request hands to
a shard thread is not subtracted from it.  Shard-thread spans are worker
busy time.

The ingest ledger, per ingest request (means over every ingest request
of the run)::

    client.roundtrip = client.self + client.encode_chunk + client.encode_record
                     + server.transport + (self times under server.handle)
                     + server.unattributed + ledger.leftover

where ``server.transport`` is the client's time on the wire minus the
server's ``handle`` time, and ``server.unattributed`` is ``handle``'s own
self time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any

class Spans:
    def __init__(self, rows: list[dict[str, Any]]) -> None:
        self.rows = rows
        self.children: dict[tuple[int, int], list[dict[str, Any]]] = defaultdict(list)
        for row in rows:
            if row["parent"] is not None:
                self.children[(row["pid"], row["parent"])].append(row)

    @staticmethod
    def load(paths: list[Path], generator: list[dict[str, Any]], pid: int) -> "Spans":
        rows = [dict(row, pid=pid) for row in generator]
        for path in paths:
            payload = json.loads(path.read_text())
            rows += [dict(row, pid=payload["pid"]) for row in payload["spans"]]
        return Spans(rows)

    @staticmethod
    def duration(row: dict[str, Any]) -> float:
        return row["end"] - row["start"]

    def self_time(self, row: dict[str, Any]) -> float:
        kids = self.children.get((row["pid"], row["id"]), [])
        return self.duration(row) - sum(self.duration(kid) for kid in kids)

    def named(self, name: str, pid: int | None = None) -> list[dict[str, Any]]:
        return [r for r in self.rows if r["name"] == name and (pid is None or r["pid"] == pid)]

    def descendants(self, row: dict[str, Any]) -> list[dict[str, Any]]:
        out = []
        stack = list(self.children.get((row["pid"], row["id"]), []))
        while stack:
            kid = stack.pop()
            out.append(kid)
            stack.extend(self.children.get((kid["pid"], kid["id"]), []))
        return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _mean_ms(rows: list[dict[str, Any]]) -> float:
    return 1e3 * _mean([Spans.duration(r) for r in rows])


def compute(spans: Spans, gen_pid: int, recoveries: int) -> dict[str, float]:
    """The per-layer metrics the spans give; a layer without spans reads 0."""
    out: dict[str, float] = defaultdict(float)
    server_rows = [r for r in spans.rows if r["pid"] != gen_pid]
    server = Spans(server_rows)

    # Generator side: the ingest calls and what they contain.
    roundtrips = spans.named("client.roundtrip", gen_pid)
    n = len(roundtrips)
    client_children: dict[str, float] = defaultdict(float)
    wire = 0.0
    for row in roundtrips:
        for kid in spans.descendants(row):
            if kid["name"] == "client.wire":
                wire += Spans.duration(kid)
            else:
                client_children[kid["name"]] += spans.self_time(kid)
    client_total = sum(Spans.duration(r) for r in roundtrips)
    if n:
        out["client.roundtrip_ms"] = 1e3 * client_total / n
        out["client.encode_chunk_ms"] = 1e3 * client_children["client.encode_chunk"] / n
        out["client.encode_record_ms"] = 1e3 * client_children["client.encode_record"] / n
        client_self = client_total - wire - sum(client_children.values())
        out["client.self_ms"] = 1e3 * client_self / n

    # Server side: request handling by op, and the ingest ledger.
    ingest_handles = []
    for op in ("ingest", "ingest_binary", "snapshot", "query", "audit", "checkpoint",
               "advance_window"):
        rows = server.named(f"server.handle.{op}")
        out[f"server.handle_ms.{op}"] = _mean_ms(rows)
        if op.startswith("ingest"):
            ingest_handles += rows
    handle_total = sum(Spans.duration(r) for r in ingest_handles)
    unattributed = sum(server.self_time(r) for r in ingest_handles)
    children_self = handle_total - unattributed
    if n:
        transport = wire - handle_total
        out["server.transport_ms"] = 1e3 * transport / n
        out["server.unattributed_ms"] = 1e3 * unattributed / n
        accounted = (out["client.self_ms"] + out["client.encode_chunk_ms"]
                     + out["client.encode_record_ms"] + out["server.transport_ms"]
                     + 1e3 * children_self / n + out["server.unattributed_ms"])
        out["ledger.leftover_ms"] = out["client.roundtrip_ms"] - accounted

    codec_rows = server.named("codec.encode_chunk") + server.named("serialization.load_chunk_bytes")
    out["codec.encode_chunk_ms"] = _mean_ms(server.named("codec.encode_chunk"))
    out["codec.new_entries_per_chunk"] = _mean([r["attrs"].get("new", 0) for r in codec_rows])
    out["serialization.load_chunk_bytes_ms"] = _mean_ms(server.named("serialization.load_chunk_bytes"))
    out["wire.parse_record_ms"] = _mean_ms(server.named("wire.parse_record"))
    out["wal.encode_record_ms"] = _mean_ms(server.named("wal.encode_record"))
    appends = server.named("wal.append_record")
    out["wal.append_record_ms"] = _mean_ms(appends)
    out["wal.sync_ms"] = _mean_ms(server.named("wal.fsync"))
    # Only servers that ran a WAL count: strings-ndjson's timed phase has none.
    logging_pids = {r["pid"] for r in appends}
    tokens = sum(r["attrs"].get("tokens", 0) for r in codec_rows if r["pid"] in logging_pids)
    if tokens:
        out["wal.bytes_per_tok"] = sum(r["attrs"]["bytes"] for r in appends) / tokens
    out["wal.write_checkpoint_ms"] = _mean_ms(server.named("wal.write_checkpoint"))

    ingests = server.named("sharding.ingest")
    out["sharding.ingest_ms"] = _mean_ms(ingests)
    out["sharding.flush_ms"] = _mean_ms(server.named("sharding.flush"))
    out["sharding.queue_depth_max"] = float(max((r["attrs"].get("depth", 0) for r in ingests),
                                                default=0))
    applies = [r for r in server.named("space_saving.update_batch")
               if r["thread"].startswith("shard-")]
    out["space_saving.update_batch_ms"] = _mean_ms(applies)
    per_shard: dict[str, int] = defaultdict(int)
    for r in applies:
        per_shard[r["thread"]] += r["attrs"].get("tokens", 0)
    if per_shard:
        out["sharding.shard_skew"] = max(per_shard.values()) / _mean(list(per_shard.values()))
    main = spans.named("phase.main", gen_pid)
    if main:
        t0, t1 = main[0]["start"], main[0]["end"]
        for shard in (0, 1):
            busy = sum(max(0.0, min(r["end"], t1) - max(r["start"], t0))
                       for r in applies if r["thread"] == f"shard-{shard}")
            out[f"space_saving.busy_share.{shard}"] = busy / (t1 - t0)

    out["snapshots.refresh_ms"] = _mean_ms(server.named("snapshots.refresh"))
    out["merging.merge_ms"] = _mean_ms(server.named("merging.merge"))
    for kind in ("point", "top_k", "heavy_hitters", "window_top_k"):
        out[f"snapshots.query_ms.{kind}"] = _mean_ms(server.named(f"snapshots.query.{kind}"))
    out["windows.update_batch_ms"] = _mean_ms(server.named("windows.update_batch"))
    out["windows.query_ms"] = _mean_ms(server.named("windows.query"))
    out["audit.observe_chunk_ms"] = _mean_ms(server.named("audit.observe_chunk"))
    out["audit.run_audit_ms"] = _mean_ms(server.named("audit.run_audit"))

    # Recovery, per recover() call, in the generator process.
    if recoveries:
        parts = {}
        for part in ("load_checkpoint", "scan", "decode", "apply", "merge"):
            rows = spans.named(f"recovery.{part}", gen_pid)
            parts[part] = sum(spans.self_time(r) for r in rows) / recoveries
            out[f"recovery.{part}_s"] = parts[part]
        total = sum(Spans.duration(r) for r in spans.named("recovery.total", gen_pid))
        out["recovery.other_s"] = total / recoveries - sum(parts.values())
    return dict(out)
