"""The three workloads: one run against a fresh server process.

Every run has the same skeleton, so every workload reports every
end-to-end metric:

1. set-up: the server is launched ``SETUP_LAUNCHES`` times (all but the
   last are killed again); ``setup_s`` is the median time from launch
   to the first answered ping;
2. warm-up: the whole key space once, a drained snapshot, and a WAL
   checkpoint where the timed phase runs with a WAL;
3. the timed phase, ``--seconds`` long, which differs per workload;
4. queries against the drained state (closed-loop workloads), then checks
   against the drained state, the exported counters and the auditor;
5. the durability epilogue: a checkpoint, a fixed tail of chunks and a
   drained snapshot on a live server that never restarted (the timed
   phase's own server where it has a WAL, else a second server that logs
   the warm-up and the tail), then SIGKILL and ``recover()``
   ``RECOVERIES`` times in this process (``recover_s`` is the median;
   ``wal_mb`` is the WAL the tail wrote).  The tail is fixed so that
   replay work does not grow with ingest speed.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import checks
from harness import BenchError, Server, pin_generator
from inputs import PROFILES, Profile, Stream, build_stream, query_schedule
from spans import SpanRecorder, wrap_attr, wrap_generator

SETUP_LAUNCHES = 5
RECOVERIES = 5
GENERATOR_SWITCH_INTERVAL_S = 0.0005
PHIS = (0.002, 0.005, 0.01)
TOPKS = (5, 10, 20)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def decode_item(entry_item: Any, tagged: Any) -> Any:
    from repro.serialization import decode_item_key

    return decode_item_key(entry_item) if tagged else entry_item


def entries(response: dict[str, Any], field_name: str) -> list[tuple[Any, float]]:
    return [
        (decode_item(e["item"], e.get("item_tagged")), float(e["estimate"]))
        for e in response[field_name]
    ]


class ExactState:
    """Exact counts of any per-shard prefix of the chunks sent so far.

    A snapshot is a cut at batch boundaries per shard, and its response
    carries each shard's applied weight; since every chunk's split across
    shards is known (public ``shard_for`` placement), those weights name
    exactly which prefix of the stream each shard had applied.
    """

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.index = {key: i for i, key in enumerate(stream.keys)}
        self.shards = stream.profile.num_shards
        self.chunks: list[np.ndarray] = []
        self.cum = [[0] for _ in range(self.shards)]
        self._cache: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def total(self) -> int:
        """Tokens acked so far."""
        return sum(c[-1] for c in self.cum)

    def add(self, ids: np.ndarray) -> None:
        split = np.bincount(self.stream.key_shard[ids], minlength=self.shards)
        self.chunks.append(ids)
        for s in range(self.shards):
            self.cum[s].append(self.cum[s][-1] + int(split[s]))

    def prefixes(self, shard_lengths: list[float]) -> tuple[int, ...] | None:
        found = []
        for s, length in enumerate(shard_lengths):
            p = int(np.searchsorted(self.cum[s], round(length)))
            if p >= len(self.cum[s]) or self.cum[s][p] != round(length):
                return None
            found.append(p)
        return tuple(found)

    def counts(self, prefixes: tuple[int, ...]) -> np.ndarray:
        cached = self._cache.get(prefixes)
        if cached is not None:
            return cached
        size = len(self.stream.keys)
        total = np.zeros(size, dtype=np.int64)
        for s, p in enumerate(prefixes):
            if p:
                part = np.bincount(np.concatenate(self.chunks[:p]), minlength=size)
                total += np.where(self.stream.key_shard == s, part, 0)
        self._cache[prefixes] = total
        return total

    def all_counts(self) -> np.ndarray:
        return self.counts(tuple(len(c) - 1 for c in self.cum))


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Run:
    """One workload run: server processes, generator threads and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> None:
        if workload not in PROFILES:
            raise BenchError(f"unknown workload {workload!r}")
        self.profile: Profile = PROFILES[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.wal_dir = workdir / "wal"
        self.stream = build_stream(self.profile, seed)
        self.exact = ExactState(self.stream)
        self.result = Result()
        self.recorder = SpanRecorder() if trace else None
        self.server_spans: list[Path] = []
        self.servers: list[Server] = []
        self.ingest_lat: list[float] = []
        self.snapshot_lat: list[float] = []
        self.query_lat: list[float] = []
        self.late: list[float] = []
        self.queries: list[tuple[str, int, dict[str, Any]]] = []
        self.audits: list[dict[str, Any]] = []
        self.advances: list[int] = []  # chunk counts at which the window ring rotated
        self._count_lock = threading.Lock()

    # -- plumbing --------------------------------------------------------- #

    def launch(self, wal_dir: Path | None, tag: str) -> Server:
        args = list(self.profile.serve_args)
        if wal_dir is not None:
            args += ["--wal-dir", str(wal_dir), *self.profile.wal_args]
        spans = None
        if self.trace:
            spans = self.workdir / f"spans-{tag}.json"
            self.server_spans.append(spans)
        server = Server(args, self.workdir, tag, spans)
        self.servers.append(server)
        return server

    def client(self, server: Server, binary: bool) -> Any:
        from repro.service.client import ServiceClient

        return ServiceClient(port=server.port, timeout=120.0,
                             binary="always" if binary else "never")

    def op(self, fn: Any, *args: Any) -> Any:
        """Run one generator operation, counting it as attempted/failed."""
        with self._count_lock:
            self.result.attempted += 1
        try:
            return fn(*args)
        except Exception:
            with self._count_lock:
                self.result.failed += 1
            raise

    def ingest(self, client: Any, items: list[Any], ids: np.ndarray,
               exact: ExactState | None = None) -> float:
        started = time.perf_counter()
        accepted = self.op(client.ingest, items)
        elapsed = time.perf_counter() - started
        if accepted != len(items):
            raise BenchError(f"service accepted {accepted} of {len(items)} tokens")
        (exact or self.exact).add(ids)
        return elapsed

    def drained_snapshot(self, client: Any) -> dict[str, Any]:
        started = time.perf_counter()
        response = self.op(client.snapshot, True)
        self.snapshot_lat.append(time.perf_counter() - started)
        return response

    def warm_up(self, client: Any, exact: ExactState) -> None:
        """Every key once, so the server codec holds the whole vocabulary."""
        for items, ids in zip(self.stream.warm_chunks, self.stream.warm_ids):
            self.ingest(client, items, ids, exact)

    def instrument_generator(self) -> None:
        """Span recorders around the generator-side layers and recovery."""
        import repro.service.client as client_mod
        import repro.service.recovery as recovery_mod
        from repro.algorithms.space_saving import SpaceSaving
        from repro.engine.codec import TokenCodec

        rec = self.recorder
        wrap_attr(rec, client_mod.ServiceClient, "ingest", "client.roundtrip")
        wrap_attr(rec, TokenCodec, "encode_chunk", "client.encode_chunk")
        wrap_attr(rec, client_mod, "encode_chunk_record", "client.encode_record")
        wrap_attr(rec, client_mod.ServiceClient, "call", "client.wire")
        wrap_attr(rec, client_mod.ServiceClient, "_read_frame_response", "client.wire")
        wrap_attr(rec, recovery_mod, "recover", "recovery.total")
        wrap_attr(rec, recovery_mod, "load_checkpoint", "recovery.load_checkpoint")
        wrap_generator(rec, recovery_mod, "iter_wal", "recovery.scan")
        wrap_attr(rec, recovery_mod, "decode_chunk_record", "recovery.decode")
        wrap_attr(rec, recovery_mod, "partition_batch", "recovery.apply")
        wrap_attr(rec, SpaceSaving, "update_batch", "recovery.apply")
        wrap_attr(rec, recovery_mod, "merge_summaries", "recovery.merge")

    def phase(self, name: str) -> Any:
        return self.recorder.open(f"phase.{name}") if self.recorder else None

    def end_phase(self, span: Any) -> None:
        if span is not None:
            self.recorder.close(span)

    # -- the run ---------------------------------------------------------- #

    def execute(self) -> Result:
        if self.trace:
            self.instrument_generator()
        # The generator must not add pauses of its own to what it times:
        # its inputs are built and never freed, so they are frozen out of
        # the collector, the collector is off until recovery (responses
        # hold no reference cycles), and the two generator threads hand
        # the interpreter lock over faster than the 5 ms default.
        gc.collect()
        gc.freeze()
        gc.disable()
        sys.setswitchinterval(GENERATOR_SWITCH_INTERVAL_S)
        pin_generator()
        try:
            self._execute()
        finally:
            for server in self.servers:
                server.kill()
        return self.result

    def _execute(self) -> None:
        p = self.profile
        metrics = self.result.metrics

        setups = []
        for i in range(SETUP_LAUNCHES):
            last = i == SETUP_LAUNCHES - 1
            wal_dir = None
            if p.main_wal:
                wal_dir = self.wal_dir if last else self.workdir / f"wal-setup-{i}"
            server = self.launch(wal_dir, "main" if last else f"setup{i}")
            setups.append(server.setup_s)
            if not last:
                server.dump_spans()
                server.kill()
                if wal_dir is not None:
                    shutil.rmtree(wal_dir, ignore_errors=True)
        metrics["setup_s"] = statistics.median(setups)

        ingest_client = self.client(server, p.binary)
        span = self.phase("warmup")
        self.warm_up(ingest_client, self.exact)
        self.drained_snapshot(ingest_client)
        if p.main_wal:
            self.op(ingest_client.checkpoint)
        self.end_phase(span)
        self.snapshot_lat.clear()

        span = self.phase("main")
        if p.queries_per_s:
            self.mixed_phase(server, ingest_client)
        else:
            self.closed_loop_phase(ingest_client)
        self.end_phase(span)

        acked = self.exact.total
        final = self.op(ingest_client.snapshot, True)
        fails = self.result.failures
        fails += checks.check_equal("final drained snapshot stream_length",
                                    final["stream_length"], acked)
        if p.quiesced_queries:
            span = self.phase("queries")
            self.quiesced_queries(server)
            self.end_phase(span)
        self.check_queries()
        stats = self.op(ingest_client.stats)
        fails += checks.check_equal("stats tokens_enqueued", stats["tokens_enqueued"], acked)
        self.audits.append(self.op(ingest_client.audit))
        for audit in self.audits:
            fails += checks.check_budget_ratio("audit op on a drained state",
                                               audit.get("budget_ratio"))
        exported = server.scrape()
        fails += checks.check_equal("repro_ingest_tokens_total",
                                    exported.get("repro_ingest_tokens_total", -1), acked)
        fails += checks.check_budget_ratio("repro_error_budget_ratio",
                                           exported.get("repro_error_budget_ratio"))
        metrics["rss_mb"] = server.rss_peak_mb()
        self.summarise_main()
        self.durability_epilogue(server, ingest_client)

    @property
    def counters(self) -> int:
        args = self.profile.serve_args
        return int(args[args.index("--counters") + 1])

    def bound(self, counts: np.ndarray, merged: bool = True) -> float:
        return checks.tail_bound(counts, self.counters, self.profile.k, merged)

    # -- timed phases ----------------------------------------------------- #

    def closed_loop_phase(self, client: Any) -> None:
        p = self.profile
        i = 0
        deadline = time.perf_counter() + self.seconds
        started = time.perf_counter()
        snap_time = 0.0
        tokens = 0
        while time.perf_counter() < deadline:
            j = i % p.pool_chunks
            self.ingest_lat.append(self.ingest(client, self.stream.pool[j], self.stream.pool_ids[j]))
            tokens += len(self.stream.pool_ids[j])
            i += 1
            if i % p.snapshot_every == 0:
                self.drained_snapshot(client)
                snap_time += self.snapshot_lat[-1]
        elapsed = time.perf_counter() - started
        self.result.metrics["ingest_tok_s"] = tokens / (elapsed - snap_time)

    def mixed_phase(self, server: Server, client: Any) -> None:
        """Paced ingest on one thread, open-loop queries on another.

        The ingest thread also takes a drained snapshot and an ``audit``
        every ``snapshot_every`` chunks: with nothing ingested between
        the drain and the audit, the auditor's snapshot and its exact
        mirror describe the same stream, so its budget ratio is checked
        while the query thread keeps racing.

        Both schedules run at the same rate, each query due halfway
        between two chunks, so every run meets the same schedule of
        collisions and a query or chunk that overruns its half period
        shows as contention on the other side.
        """
        p = self.profile
        query_client = self.client(server, False)
        count = int(round(p.queries_per_s * self.seconds))
        schedule = query_schedule(self.seed, count, racing=True)
        errors: list[BaseException] = []
        start = time.perf_counter() + 0.05

        def query_loop() -> None:
            try:
                for n, (kind, arg) in enumerate(schedule):
                    due = start + (n + 0.5) / p.queries_per_s
                    now = time.perf_counter()
                    if now < due:
                        time.sleep(due - now)
                    sent = time.perf_counter()
                    self.late.append(sent - due)
                    acked_before = len(self.exact.chunks)
                    response = self.send_query(query_client, kind, arg)
                    self.query_lat.append(time.perf_counter() - due)
                    # The answer saw every chunk acked before it was sent,
                    # and at most the one chunk in flight after the last ack.
                    response["_chunks"] = (acked_before, len(self.exact.chunks) + 1)
                    self.queries.append((kind, arg, response))
            except BaseException as error:  # surfaced after join
                errors.append(error)

        thread = threading.Thread(target=query_loop, name="bench-queries", daemon=True)
        thread.start()
        try:
            period = 1.0 / p.ingest_chunks_per_s
            chunks = int(round(p.ingest_chunks_per_s * self.seconds))
            tokens = 0
            busy = 0.0
            for i in range(chunks):
                due = start + i * period
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                j = i % p.pool_chunks
                self.ingest_lat.append(
                    self.ingest(client, self.stream.pool[j], self.stream.pool_ids[j]))
                busy += self.ingest_lat[-1]
                tokens += len(self.stream.pool_ids[j])
                if (i + 1) % p.snapshot_every == 0:
                    self.drained_snapshot(client)
                    self.audits.append(self.op(client.audit))
                if p.advance_every and (i + 1) % p.advance_every == 0:
                    self.op(client.advance_window, 1)
                    self.advances.append(len(self.exact.chunks))
        finally:
            thread.join(timeout=60)
            query_client.close()
        if thread.is_alive():
            raise BenchError("query thread did not finish")
        if errors:
            raise errors[0]
        # Acked tokens per second of send-to-ack time: the rate the service
        # sustains under query contention, not the generator's pace.
        self.result.metrics["ingest_tok_s"] = tokens / busy

    def send_query(self, client: Any, kind: str, arg: int) -> dict[str, Any]:
        if kind == "point":
            item = self.stream.query_items[arg % len(self.stream.query_items)]
            response = self.op(client.point, item)
            response["_item"] = item
            return response
        if kind in ("top-k", "top-all"):
            k = TOPKS[arg % 3] if kind == "top-k" else self.counters
            return self.op(client.call, {"op": "query", "type": "top-k", "k": k})
        if kind == "heavy-hitters":
            return self.op(client.call, {"op": "query", "type": "heavy-hitters",
                                         "phi": PHIS[arg % 3]})
        if kind == "refresh":
            return self.op(client.snapshot, False)
        if kind == "window-top-k":
            return self.op(client.call, {"op": "query", "type": "window-top-k",
                                         "k": TOPKS[arg % 3]})
        return self.op(client.audit)

    def quiesced_queries(self, server: Server) -> None:
        """A closed loop of queries against the drained final state."""
        client = self.client(server, False)
        try:
            schedule = query_schedule(self.seed, self.profile.quiesced_queries,
                                      racing=False)
            for kind, arg in schedule:
                started = time.perf_counter()
                response = self.send_query(client, kind, arg)
                self.query_lat.append(time.perf_counter() - started)
                self.queries.append((kind, arg, response))
        finally:
            client.close()

    # -- checks ----------------------------------------------------------- #

    def check_queries(self) -> None:
        fails = self.result.failures
        stream = self.stream
        for kind, arg, response in self.queries:
            if kind == "audit":
                fails += checks.check_budget_ratio("audit op", response.get("budget_ratio"))
                continue
            if kind == "window-top-k":
                fails += self.check_window(response)
                continue
            if kind == "refresh":
                # Quiesced: a fresh merge covers every acked token.
                fails += checks.check_equal("refresh stream_length", response["stream_length"],
                                            self.exact.total)
                continue
            state = self.exact.prefixes(response["shard_lengths"])
            if state is None:
                fails.append(f"{kind}: shard lengths {response['shard_lengths']} match "
                             "no prefix of the acked stream")
                continue
            counts = self.exact.counts(state)
            fails += checks.check_equal(f"{kind} stream_length", response["stream_length"],
                                        counts.sum())
            bound = self.bound(counts)
            if kind == "point":
                fails += checks.check_estimates([(response["_item"], response["estimate"])],
                                                self.exact.index, counts, bound, "point")
            elif kind in ("top-k", "top-all"):
                fails += checks.check_estimates(entries(response, "top_k"),
                                                self.exact.index, counts, bound, "top-k")
            else:
                answered = entries(response, "heavy_hitters")
                fails += checks.check_estimates(answered, self.exact.index, counts, bound,
                                                "heavy-hitters")
                fails += checks.check_heavy_hitters(
                    [item for item, _ in answered], stream.keys, counts,
                    float(response["phi"]), float(response["stream_length"]), bound)

    def check_window(self, response: dict[str, Any]) -> list[str]:
        """Match a window answer to the bucket ring state that produced it.

        Buckets rotate only on the ingest connection's ``advance-window``
        ops, at chunk counts the benchmark recorded, so the ring after
        ``n`` chunks and ``a`` advances is known exactly.  ``n`` lies
        between the chunks acked before the query was sent and one past
        those acked when it returned; within that range the answer's
        total weight identifies ``(n, a)``.
        """
        p = self.profile
        ring = int(p.serve_args[p.serve_args.index("--window-buckets") + 1])
        weight = round(float(response["stream_length"]))
        cum = np.concatenate([[0], np.cumsum([len(ids) for ids in self.exact.chunks])])
        low, high = response.get("_chunks", (0, len(cum) - 1))
        match = None
        for n in range(low, min(high, len(cum) - 1) + 1):
            for a in {sum(x < n for x in self.advances), sum(x <= n for x in self.advances)}:
                starts = [0, *self.advances[:a]]
                live = range(max(0, a + 1 - ring), a + 1)
                first = starts[live[0]]
                if cum[n] - cum[first] == weight:
                    ends = [*starts[1:], n]
                    nonempty = sum(1 for b in live if min(ends[b], n) > starts[b])
                    match = (first, n, nonempty)
        if match is None:
            return [f"window-top-k: weight {weight} matches no ring state"]
        first, n, nonempty = match
        counts = np.zeros(len(self.stream.keys), dtype=np.int64)
        for ids in self.exact.chunks[first:n]:
            counts += np.bincount(ids, minlength=len(self.stream.keys))
        bound = self.bound(counts, merged=nonempty > 1)
        return checks.check_estimates(entries(response, "top_k"), self.exact.index, counts,
                                      bound, "window-top-k")

    # -- durability ------------------------------------------------------- #

    def durability_epilogue(self, server: Server, client: Any) -> None:
        """Checkpoint, a fixed tail, SIGKILL and ``recover()``.

        The live server never restarts, so the recovered state is compared
        with what the crashed process held.
        """
        p = self.profile
        exact = self.exact
        if not p.main_wal:
            # The timed phase ran without a WAL (the default ``repro
            # serve``): a second server logs the warm-up and the tail.
            client.close()
            server.dump_spans()
            server.kill()
            server = self.launch(self.wal_dir, "durable")
            client = self.client(server, p.binary)
            exact = ExactState(self.stream)
            self.warm_up(client, exact)
        self.op(client.checkpoint)
        before = self.op(client.stats)["wal"]["bytes_appended"]
        span = self.phase("tail")
        for items, ids in zip(self.stream.tail, self.stream.tail_ids):
            self.ingest(client, items, ids, exact)
        self.end_phase(span)
        after = self.op(client.stats)["wal"]["bytes_appended"]
        self.result.metrics["wal_mb"] = (after - before) / 1e6
        snapshot = self.op(client.snapshot, True)
        self.result.failures.extend(checks.check_equal(
            "drained snapshot after the tail stream_length", snapshot["stream_length"],
            exact.total))
        live = dict(entries(self.op(client.call, {
            "op": "query", "type": "top-k", "k": 4 * self.counters}), "top_k"))
        client.close()
        server.dump_spans()
        server.kill()
        self.recover(live, exact)

    def recover(self, live: dict[Any, float], exact: ExactState) -> None:
        from repro.service.recovery import recover

        fails = self.result.failures
        durations = []
        counts = exact.all_counts()
        bound = self.bound(counts)
        # recover() runs with the collector on, as in a process of its own:
        # everything the generator holds so far is frozen out of it, and
        # each call starts without the previous call's garbage.
        gc.collect()
        gc.freeze()
        gc.enable()
        span = self.phase("recover")
        result = None
        for _ in range(RECOVERIES):
            result = None
            gc.collect()
            started = time.perf_counter()
            result = recover(self.wal_dir)
            durations.append(time.perf_counter() - started)
        self.end_phase(span)
        self.result.metrics["recover_s"] = statistics.median(durations)
        recovered = result.estimator.counters()
        fails += checks.check_equal("recover() stream_length", result.stream_length,
                                    exact.total)
        fails += checks.check_same_heaviest(live, recovered, self.profile.k)
        fails += checks.check_full_summary(recovered, self.stream.keys, counts, bound,
                                           "recovered merged summary")
        fails += checks.check_full_summary(live, self.stream.keys, counts, bound,
                                           "live merged summary")
        differing = checks.differing_counters(live, recovered)
        self.result.layer["recovery.diverged_counters"] = float(differing)
        if differing:
            self.result.notes.append(
                f"recovered summary differs from the live one on {differing} of "
                f"{len(live)} counters (counter order is not kept across a checkpoint)")

    # -- metrics ---------------------------------------------------------- #

    def summarise_main(self) -> None:
        m = self.result.metrics
        if len(self.ingest_lat) < 100:
            raise BenchError(f"only {len(self.ingest_lat)} ingest chunks in the timed phase")
        if len(self.query_lat) < 1000:
            raise BenchError(f"only {len(self.query_lat)} queries")
        m["ingest_p50_ms"] = 1e3 * percentile(self.ingest_lat, 50)
        m["ingest_p90_ms"] = 1e3 * percentile(self.ingest_lat, 90)
        m["query_p50_ms"] = 1e3 * percentile(self.query_lat, 50)
        m["query_p99_ms"] = 1e3 * percentile(self.query_lat, 99)
        m["snapshot_p50_ms"] = 1e3 * percentile(self.snapshot_lat, 50)
