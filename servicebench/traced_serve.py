"""Start the service exactly as ``repro serve`` does, with span recorders.

Usage::

    python servicebench/traced_serve.py SPANS.json serve [repro serve args...]

``repro.service.serve`` is replaced by a wrapper that builds (or takes
the recovered) :class:`~repro.service.server.HeavyHittersService`, wraps
its public entry points with span recorders and hands it to the original
``serve(config, service=...)``; then the unmodified ``repro serve``
command runs.  Spans stay in memory.  ``SIGUSR1`` writes them to
``SPANS.json`` (the benchmark asks for that before it SIGKILLs the
server), and so does a normal exit.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, wrap_attr  # noqa: E402


def _op_name(request: Any) -> str:
    op = request.get("op") if isinstance(request, dict) else None
    return f"server.handle.{str(op).replace('-', '_')}"


def instrument(recorder: SpanRecorder, service: Any) -> None:
    """Wrap the layers a request passes through, outside-in."""
    import repro.serialization as serialization
    import repro.service.server as server_mod
    import repro.service.snapshots as snapshots_mod
    from repro.algorithms.space_saving import SpaceSaving
    from repro.engine.codec import TokenCodec

    wrap_attr(recorder, service, "handle", _op_name)

    def vocab_before(codec: Any, *args: Any, **kwargs: Any) -> dict[str, Any]:
        return {"vocab": len(codec)}

    def new_entries(attrs: dict[str, Any], result: Any, args: tuple, kwargs: dict) -> None:
        attrs["new"] = len(result.codec) - attrs.pop("vocab")
        attrs["tokens"] = len(result)

    wrap_attr(recorder, TokenCodec, "encode_chunk", "codec.encode_chunk",
              vocab_before, new_entries)
    wrap_attr(recorder, serialization, "load_chunk_bytes", "serialization.load_chunk_bytes",
              lambda data, codec=None: {"vocab": len(codec) if codec is not None else 0},
              new_entries)
    wrap_attr(recorder, server_mod, "encode_chunk_record", "wal.encode_record")
    wrap_attr(recorder, server_mod, "parse_chunk_record", "wire.parse_record")
    wrap_attr(recorder, server_mod, "write_checkpoint", "wal.write_checkpoint")
    if service.wal is not None:
        wrap_attr(recorder, service.wal, "append_record", "wal.append_record",
                  lambda record, trace=None: {"bytes": len(record)})
        wrap_attr(recorder, service.wal, "_fsync_locked", "wal.fsync")

    sharded = service.sharded

    def queue_depth(attrs: dict[str, Any], result: Any, args: tuple, kwargs: dict) -> None:
        attrs["depth"] = max(q["pending_batches"] for q in sharded.queue_stats())

    wrap_attr(recorder, sharded, "ingest", "sharding.ingest", after=queue_depth)
    wrap_attr(recorder, sharded, "flush", "sharding.flush")
    # Shard workers and window buckets both apply batches through
    # SpaceSaving.update_batch; the span's thread tells them apart.
    wrap_attr(recorder, SpaceSaving, "update_batch", "space_saving.update_batch",
              lambda self, items, weights=None: {"tokens": len(items)})
    if service.windowed is not None:
        wrap_attr(recorder, service.windowed, "update_batch", "windows.update_batch")
        wrap_attr(recorder, service.windowed, "query", "windows.query")
    if service.auditor is not None:
        wrap_attr(recorder, service.auditor, "observe_chunk", "audit.observe_chunk")
        wrap_attr(recorder, service.auditor, "run_audit", "audit.run_audit")
    wrap_attr(recorder, service.snapshots, "refresh", "snapshots.refresh")
    wrap_attr(recorder, snapshots_mod, "merge_summaries", "merging.merge")
    wrap_attr(recorder, service, "_snapshot_query",
              lambda query_type, *a, **k: f"snapshots.query.{query_type.replace('-', '_')}")
    wrap_attr(recorder, service, "_window_query",
              lambda query_type, *a, **k: f"snapshots.query.{query_type.replace('-', '_')}")


def main(argv: list[str]) -> int:
    spans_path = argv[0]
    recorder = SpanRecorder()

    import repro.service as service_pkg
    from repro.cli import main as repro_main
    from repro.service.server import HeavyHittersService

    original_serve = service_pkg.serve

    def traced_serve(config: Any, host: str = "127.0.0.1", port: int = 0,
                     service: Any = None) -> Any:
        service = HeavyHittersService(config) if service is None else service
        instrument(recorder, service)
        return original_serve(config, host=host, port=port, service=service)

    service_pkg.serve = traced_serve

    def dump(*_: Any) -> None:
        recorder.dump(spans_path)

    signal.signal(signal.SIGUSR1, dump)
    try:
        return repro_main(argv[1:])
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
