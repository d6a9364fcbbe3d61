"""Show that every correctness check passes on a true answer and fails on a
perturbed one.

The answers come from real SpaceSaving summaries (two shards merged under
Theorem 11) over a small seeded Zipf stream; each check is run on the
answer as computed and on a copy with one thing changed.  Exit code 0
means every check behaved; the table printed names each case.
"""

from __future__ import annotations

import numpy as np

import checks
from inputs import PROFILES, build_stream
from workloads import ExactState, Run


def _summaries(seed: int = 7) -> tuple[list, np.ndarray, dict, dict, float, float]:
    from repro.algorithms.space_saving import SpaceSaving
    from repro.core.merging import merge_summaries

    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(3000)]
    draws = np.minimum(rng.zipf(1.3, size=60_000) - 1, len(keys) - 1)
    counts = np.bincount(draws, minlength=len(keys))
    shards = [SpaceSaving(200), SpaceSaving(200)]
    for part in np.array_split(draws, 30):
        for shard, summary in enumerate(shards):
            summary.update_batch([keys[i] for i in part[part % 2 == shard].tolist()])
    merged = merge_summaries(shards, k=10, make_estimator=lambda: SpaceSaving(200))
    summary = merged.estimator.counters()
    bound = checks.tail_bound(counts, 200, 10, merged=True)
    return keys, counts, {k: i for i, k in enumerate(keys)}, summary, bound, float(counts.sum())


def cases() -> list[tuple[str, list[str], list[str]]]:
    """(check, failures on the true answer, failures on the perturbed one)."""
    keys, counts, index, summary, bound, total = _summaries()
    top = sorted(summary.items(), key=lambda kv: -kv[1])[:20]
    heavy_item = keys[int(np.argmax(counts))]
    perturbed_top = [(item, est + bound + 1.0) if n == 0 else (item, est)
                     for n, (item, est) in enumerate(top)]
    phi = 0.01
    answered = [item for item, est in summary.items() if est > phi * total]
    out = [
        ("estimate within the Theorem 11 bound",
         checks.check_estimates(top, index, counts, bound, "top-k"),
         checks.check_estimates(perturbed_top, index, counts, bound, "top-k")),
        ("heavy hitters contain every key above phi*N + bound",
         checks.check_heavy_hitters(answered, keys, counts, phi, total, bound),
         checks.check_heavy_hitters([x for x in answered if x != heavy_item], keys, counts,
                                    phi, total, bound)),
        ("acked tokens equal snapshot stream_length / exported counter",
         checks.check_equal("stream_length", total, counts.sum()),
         checks.check_equal("stream_length", total - 1, counts.sum())),
        ("error budget ratio below 1",
         checks.check_budget_ratio("ratio", 0.4),
         checks.check_budget_ratio("ratio", 1.0) + checks.check_budget_ratio("ratio", None)),
        ("recovered heaviest counters equal the live ones",
         checks.check_same_heaviest(summary, dict(summary), 10),
         checks.check_same_heaviest(summary, {**summary, top[9][0]: top[9][1] + 1}, 10)
         + checks.check_same_heaviest(summary, {**summary, "never-sent": top[0][1] + 1}, 10)),
        ("recovered summary meets the bound over all keys",
         checks.check_full_summary(summary, keys, counts, bound, "summary"),
         checks.check_full_summary({**summary, top[0][0]: top[0][1] + 2 * bound}, keys, counts,
                                   bound, "summary")
         + checks.check_full_summary({**summary, "never-sent": 1.0}, keys, counts, bound,
                                     "summary")),
    ]

    # Racing snapshot answers: shard lengths must name a per-shard prefix.
    stream = build_stream(PROFILES["query-mix"], 3)
    exact = ExactState(stream)
    for ids in stream.pool_ids[:6]:
        exact.add(ids)
    lengths = [exact.cum[0][4], exact.cum[1][2]]
    good = [] if exact.prefixes(lengths) == (4, 2) else ["prefix not found"]
    bad = [] if exact.prefixes([lengths[0] + 1, lengths[1]]) is None else ["matched"]
    out.append(("snapshot shard lengths match a prefix of the acked stream",
                good, bad or ["shard lengths match no prefix"]))

    # Window answers: the answer's weight must match a ring state.
    run = object.__new__(Run)
    run.profile, run.stream, run.exact, run.advances = stream.profile, stream, exact, [3]
    counts_window = np.zeros(len(stream.keys), dtype=np.int64)
    for ids in exact.chunks[:6]:
        counts_window += np.bincount(ids, minlength=len(stream.keys))
    heavy = np.argsort(-counts_window)[:5]
    response = {"stream_length": float(counts_window.sum()), "buckets_merged": 2,
                "top_k": [{"item": stream.keys[i], "estimate": float(counts_window[i])}
                          for i in heavy]}
    wrong_weight = dict(response, stream_length=response["stream_length"] - 1)
    wrong_estimate = dict(response, top_k=[dict(response["top_k"][0], estimate=1e9)]
                          + response["top_k"][1:])
    out.append(("window answer matches a ring state and the bound",
                Run.check_window(run, response),
                Run.check_window(run, wrong_weight) + Run.check_window(run, wrong_estimate)))
    return out


def main() -> int:
    status = 0
    for name, on_true, on_perturbed in cases():
        ok = not on_true and bool(on_perturbed)
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true answer -> "
              f"{'passes' if not on_true else on_true[0]}; perturbed -> "
              f"{on_perturbed[0] if on_perturbed else 'passes (check is blind)'}")
    return status
