"""Seeded inputs of the three workloads, and the benchmark's exact counts.

Everything here is built before any timing starts and depends only on
the workload's constants and ``--seed``.  A stream is a pool of pre-built
chunks (lists of Python tokens) plus, for each chunk, the dense key-index
array it was drawn from; the benchmark counts its own stream exactly from
those index arrays, never from anything the service reports.

Keys are drawn from a Zipf-like law over a seeded permutation of the key
space (rank ``r`` has weight ``r**-skew``), so a different seed changes
which keys are heavy as well as the draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.sketches.hashing import shard_for


@dataclass(frozen=True)
class Profile:
    """The fixed input make-up and service settings of one workload."""

    name: str
    key_kind: str  # "flow" (5-tuples) or "string"
    key_space: int
    skew: float
    chunk_tokens: int
    pool_chunks: int
    serve_args: tuple[str, ...]
    wal_args: tuple[str, ...]  # WAL settings, wherever the workload runs a WAL
    main_wal: bool             # False: the timed phase runs without a WAL
    binary: bool
    num_shards: int = 2
    k: int = 10
    tail_chunks: int = 96      # durability tail, in chunks of TAIL_TOKENS
    # query-mix only: paced ingest and the open-loop query schedule
    ingest_chunks_per_s: float = 0.0
    queries_per_s: float = 0.0
    # closed-loop workloads: quiesced query phase after ingest
    quiesced_queries: int = 0
    snapshot_every: int = 16
    advance_every: int = 0


#: Tokens per chunk of the durability tail, whatever the timed phase uses.
TAIL_TOKENS = 2048

PROFILES: dict[str, Profile] = {
    "flows-binary-wal": Profile(
        name="flows-binary-wal",
        key_kind="flow",
        key_space=40_000,
        skew=1.1,
        chunk_tokens=2048,
        pool_chunks=96,
        serve_args=("--counters", "1000", "--shards", "2", "--k", "10"),
        wal_args=("--fsync", "interval", "--fsync-interval", "1.0"),
        tail_chunks=160,
        main_wal=True,
        binary=True,
        quiesced_queries=1000,
        snapshot_every=64,
    ),
    "strings-ndjson": Profile(
        name="strings-ndjson",
        key_kind="string",
        key_space=1_500,
        skew=1.0,
        chunk_tokens=8192,
        pool_chunks=48,
        serve_args=("--counters", "1000", "--shards", "2", "--k", "10"),
        wal_args=("--fsync", "off"),
        main_wal=False,
        binary=False,
        tail_chunks=480,
        quiesced_queries=1000,
        snapshot_every=64,
    ),
    "query-mix": Profile(
        name="query-mix",
        key_kind="string",
        key_space=20_000,
        skew=1.1,
        chunk_tokens=256,
        pool_chunks=256,
        serve_args=("--counters", "2000", "--shards", "2", "--k", "10",
                    "--window-buckets", "2", "--snapshot-interval", "3.9"),
        wal_args=("--fsync", "interval", "--fsync-interval", "2.9"),
        main_wal=True,
        binary=False,
        tail_chunks=256,
        ingest_chunks_per_s=50.0,
        queries_per_s=50.0,
        snapshot_every=50,
        advance_every=125,
    ),
}


def _flow_keys(rng: np.random.Generator, count: int) -> list[Any]:
    """Distinct network-flow 5-tuples (src, dst, sport, dport, proto)."""
    keys: set[tuple[str, str, int, int, int]] = set()
    while len(keys) < count:
        need = count - len(keys)
        src = rng.integers(0, 1 << 24, size=need)
        dst = rng.integers(0, 1 << 16, size=need)
        sport = rng.integers(1024, 65536, size=need)
        dport = rng.choice(np.array([53, 80, 123, 443, 8080, 8443]), size=need)
        proto = rng.choice(np.array([6, 17]), size=need)
        for s, d, sp, dp, pr in zip(src.tolist(), dst.tolist(), sport.tolist(),
                                    dport.tolist(), proto.tolist()):
            keys.add((f"10.{s >> 16}.{(s >> 8) & 255}.{s & 255}",
                      f"192.168.{d >> 8}.{d & 255}", sp, dp, pr))
    return sorted(keys)


def _string_keys(rng: np.random.Generator, count: int) -> list[Any]:
    """Distinct word-like string tokens."""
    keys: set[str] = set()
    while len(keys) < count:
        for value in rng.integers(0, 1 << 40, size=count - len(keys)).tolist():
            keys.add(f"tok-{value:010x}")
    return sorted(keys)


@dataclass
class Stream:
    """A workload's keys, chunk pool and the benchmark's own bookkeeping."""

    profile: Profile
    keys: list[Any]
    key_shard: np.ndarray          # shard owning each key (public placement)
    warm_chunks: list[list[Any]]   # every key once, in chunk-sized pieces
    warm_ids: list[np.ndarray]
    pool: list[list[Any]]          # main-phase chunks, sent round-robin
    pool_ids: list[np.ndarray]
    tail: list[list[Any]]          # durability-tail chunks (TAIL_TOKENS each)
    tail_ids: list[np.ndarray]
    query_items: list[Any] = field(default_factory=list)


def build_stream(profile: Profile, seed: int) -> Stream:
    rng = np.random.default_rng([seed, 0x5EB])
    space = profile.key_space
    keys = _flow_keys(rng, space) if profile.key_kind == "flow" else _string_keys(rng, space)
    key_shard = np.array([shard_for(key, profile.num_shards) for key in keys], dtype=np.int64)
    # Zipf weights over a seeded permutation: rank r -> r**-skew.
    order = rng.permutation(space)
    weights = np.empty(space)
    weights[order] = np.arange(1, space + 1, dtype=np.float64) ** -profile.skew
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0

    size = profile.chunk_tokens
    warm_perm = rng.permutation(space)
    warm_ids = [warm_perm[i:i + size] for i in range(0, space, size)]
    pool_ids = [
        np.searchsorted(cdf, rng.random(size), side="right").astype(np.int64)
        for _ in range(profile.pool_chunks)
    ]
    stream = Stream(
        profile=profile,
        keys=keys,
        key_shard=key_shard,
        warm_chunks=[[keys[i] for i in ids.tolist()] for ids in warm_ids],
        warm_ids=warm_ids,
        pool=[[keys[i] for i in ids.tolist()] for ids in pool_ids],
        pool_ids=pool_ids,
        tail=[],
        tail_ids=[],
    )
    # The durability tail cycles through the pool in TAIL_TOKENS pieces.
    cycle = np.concatenate(pool_ids)
    for n in range(profile.tail_chunks):
        ids = np.take(cycle, np.arange(n * TAIL_TOKENS, (n + 1) * TAIL_TOKENS), mode="wrap")
        stream.tail_ids.append(ids)
        stream.tail.append([keys[i] for i in ids.tolist()])
    # Point-query targets: a fixed mix of heavy, middling and rare keys.
    heavy = order[:64]
    rest = rng.choice(order[64:], size=192, replace=False)
    stream.query_items = [keys[i] for i in np.concatenate([heavy, rest]).tolist()]
    return stream


def query_schedule(seed: int, count: int, racing: bool) -> list[tuple[str, int]]:
    """A seeded shuffle of a fixed mix of ``(query type, argument)`` pairs.

    The mix is exact, not sampled, so every run has the same number of
    each query type.  Point queries are the cheapest type and full dumps
    and window queries the dearest; the shares put the median well inside
    the top-k/heavy-hitters population and the 99th percentile inside the
    dearest one, never on the edge between two populations, where a small
    shift would swing the percentile.

    Against a quiesced service: point 30%, top-k 30%, heavy-hitters 30%,
    audit 4%, 4% full dumps (top-k over the whole merged summary, as a
    dashboard pulls it) and 2% refreshes (a non-drained ``snapshot`` op, a
    fresh Theorem 11 merge, as a reader wanting the newest state forces
    it), the dearest type.  Racing ingest (query-mix): point 30%, top-k 34%,
    heavy-hitters 34%, and window-top-k 2% in fixed slots (every 50th
    query), so that their timing against the ingest schedule does not
    change from seed to seed.  Audits race ingest on the ingest connection
    instead (see ``workloads.py``).
    """
    rng = np.random.default_rng([seed, 0x9E7])
    if racing:
        shares = {"point": 0.30, "top-k": 0.34, "heavy-hitters": 0.34}
        fixed = {i: "window-top-k" for i in range(25, count, 50)}
    else:
        shares = {"point": 0.30, "top-k": 0.30, "heavy-hitters": 0.30, "audit": 0.04,
                  "top-all": 0.04, "refresh": 0.02}
        fixed = {}
    free = count - len(fixed)
    kinds = [kind for kind, share in shares.items() for _ in range(round(share * count))]
    kinds = (kinds + ["point"] * free)[:free]
    shuffled = iter([kinds[i] for i in rng.permutation(free).tolist()])
    args = rng.integers(0, 1 << 30, size=count).tolist()
    return [(fixed.get(i) or next(shuffled), args[i]) for i in range(count)]
