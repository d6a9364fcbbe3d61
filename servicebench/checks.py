"""Correctness checks, computed apart from the program under test.

The benchmark counts its own generated stream exactly and derives every
bound itself: for SpaceSaving the per-summary guarantee is ``(A, B) =
(1, 1)`` and Theorem 11 gives ``(3A, A+B) = (3, 2)`` once two or more
summaries are merged, so an answered estimate must lie within
``3 * F1_res(k) / (m - 2k)`` of the exact count, with ``F1_res(k)`` the
exact stream weight outside the ``k`` heaviest keys.

Each function returns a list of failure messages (empty when the check
holds).  ``run.py --self-test`` shows every check failing on a perturbed
answer.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

import numpy as np

#: Slack for float comparisons of integer-valued counts.
EPS = 1e-6


def residual(counts: np.ndarray, k: int) -> float:
    """``F1_res(k)``: total weight minus the ``k`` largest exact counts."""
    total = float(counts.sum())
    if counts.size <= k:
        return 0.0
    return total - float(np.partition(counts, counts.size - k)[-k:].sum())


def tail_bound(counts: np.ndarray, m: int, k: int, merged: bool) -> float:
    """The k-tail error bound: ``A * F1_res(k) / (m - B k)``."""
    a, b = (3.0, 2.0) if merged else (1.0, 1.0)
    if m <= b * k:
        raise ValueError(f"vacuous bound: m={m} <= {b}*k")
    return a * residual(counts, k) / (m - b * k)


def check_estimates(
    pairs: Iterable[tuple[Any, float]],
    index: Mapping[Any, int],
    counts: np.ndarray,
    bound: float,
    what: str,
) -> list[str]:
    """Every ``(item, estimate)`` lies within ``bound`` of the exact count."""
    failures = []
    for item, estimate in pairs:
        idx = index.get(item)
        exact = 0.0 if idx is None else float(counts[idx])
        if abs(float(estimate) - exact) > bound + EPS:
            failures.append(
                f"{what}: estimate {estimate} for {item!r} is {abs(estimate - exact):.1f} "
                f"from exact {exact:.0f}, bound {bound:.1f}"
            )
    return failures


def check_heavy_hitters(
    answered: Iterable[Any],
    keys: list[Any],
    counts: np.ndarray,
    phi: float,
    stream_length: float,
    bound: float,
) -> list[str]:
    """Every key whose exact count exceeds ``phi N + bound`` was reported."""
    present = set(answered)
    threshold = phi * stream_length + bound
    missing = [keys[i] for i in np.flatnonzero(counts > threshold + EPS) if keys[i] not in present]
    if missing:
        return [
            f"heavy-hitters(phi={phi}): {len(missing)} key(s) with exact count above "
            f"phi*N + bound = {threshold:.1f} missing, e.g. {missing[0]!r}"
        ]
    return []


def check_equal(name: str, observed: float, expected: float) -> list[str]:
    if abs(float(observed) - float(expected)) > EPS:
        return [f"{name}: {observed} != expected {expected}"]
    return []


def check_budget_ratio(name: str, ratio: Any) -> list[str]:
    """The live auditor's observed-error / bound ratio must be below 1."""
    if not isinstance(ratio, (int, float)) or not ratio < 1.0:
        return [f"{name}: error budget ratio {ratio!r} is not < 1"]
    return []


def differing_counters(live: Mapping[Any, float], recovered: Mapping[Any, float]) -> int:
    """How many items the two summaries estimate differently."""
    return sum(
        1 for item in set(live) | set(recovered)
        if abs(float(live.get(item, 0.0)) - float(recovered.get(item, 0.0))) > EPS
    )


def check_same_heaviest(
    live: Mapping[Any, float], recovered: Mapping[Any, float], k: int
) -> list[str]:
    """The ``k`` heaviest counters of each summary carry the same estimate in
    the other.

    Replay after a checkpoint may choose other eviction victims among
    equal counters than the live process did, so counters near the
    minimum can differ; a heavy counter never comes near the minimum, and
    a lost, doubled or misrouted record changes it.
    """
    heaviest = {
        item
        for summary in (live, recovered)
        for item, _ in sorted(summary.items(), key=lambda kv: -kv[1])[:k]
    }
    differing = [
        item for item in heaviest
        if abs(float(live.get(item, 0.0)) - float(recovered.get(item, 0.0))) > EPS
    ]
    if differing:
        item = differing[0]
        return [
            f"recovered summary differs from the live one on {len(differing)} of its "
            f"{k} heaviest counters, e.g. {item!r}: live {live.get(item)} vs "
            f"recovered {recovered.get(item)}"
        ]
    return []


def check_full_summary(
    summary: Mapping[Any, float],
    keys: list[Any],
    counts: np.ndarray,
    bound: float,
    what: str,
) -> list[str]:
    """A whole summary meets the bound over every key of the key space."""
    estimates = np.array([float(summary.get(key, 0.0)) for key in keys])
    errors = np.abs(estimates - counts)
    worst = int(np.argmax(errors))
    failures = []
    if errors[worst] > bound + EPS:
        failures.append(
            f"{what}: error {errors[worst]:.1f} on {keys[worst]!r} exceeds bound {bound:.1f}"
        )
    outside = set(summary) - set(keys)
    if outside:
        failures.append(f"{what}: {len(outside)} item(s) never sent, e.g. {next(iter(outside))!r}")
    return failures
