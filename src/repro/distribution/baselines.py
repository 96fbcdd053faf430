"""Baseline batching strategies the paper compares against (or improves on).

* :func:`fixed_count_batches` — PyTorch-Geometric-style mini-batching with a
  fixed number of graphs per batch, regardless of their sizes (the paper's
  "MACE" baseline configuration, batch size 6-8 in §5.2);
* :func:`first_fit_decreasing` / :func:`best_fit_decreasing` — the classical
  bin-packing heuristics §3.2 contrasts Algorithm 1 with: they optimize
  per-bin waste only, not cross-bin balance;
* :func:`lpt_schedule` — longest-processing-time-first multiprocessor
  scheduling (the fixed-bin-count framing mentioned in §3.1).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

import numpy as np

from .binpack import BinPlan, _checked_sizes, _segment_sums

__all__ = [
    "fixed_count_batches",
    "first_fit_decreasing",
    "best_fit_decreasing",
    "lpt_schedule",
]


def fixed_count_batches(
    sizes: Sequence[int],
    graphs_per_batch: int,
    rng: Optional[np.random.Generator] = None,
) -> BinPlan:
    """Fixed-graph-count batching (the PyG default the paper starts from).

    Graphs are optionally shuffled and grouped ``graphs_per_batch`` at a
    time; batch token counts therefore vary wildly with graph sizes
    (Observation 1).  The plan's ``capacity`` is set to the maximum batch
    fill so padding accounting reflects a common allocation size.
    """
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    if graphs_per_batch <= 0:
        raise ValueError("graphs_per_batch must be positive")
    idx = np.arange(sizes_arr.size)
    if rng is not None:
        idx = rng.permutation(idx)
    offsets = np.append(np.arange(0, idx.size, graphs_per_batch), idx.size)
    used = _segment_sums(sizes_arr[idx], offsets)
    return BinPlan(idx, offsets, used, used.max() if used.size else 0)


def first_fit_decreasing(sizes: Sequence[int], capacity: int) -> BinPlan:
    """Classic FFD: place each item (largest first) in the first open bin
    with room, opening a new bin when none fits."""
    return _fit_decreasing(sizes, capacity, lambda fits, rems: next(fits, None))


def best_fit_decreasing(sizes: Sequence[int], capacity: int) -> BinPlan:
    """Classic BFD: place each item (largest first) in the open bin whose
    remaining capacity is tightest — minimizes *per-bin* waste, which is
    exactly the single-objective view Algorithm 1 improves on."""
    return _fit_decreasing(
        sizes, capacity, lambda fits, rems: min(fits, key=rems.__getitem__, default=None)
    )


def _fit_decreasing(sizes: Sequence[int], capacity: int, choose) -> BinPlan:
    """Place each item, largest first, in the bin ``choose`` picks among the
    open bins with room (first on ties), opening a new bin when it picks none."""
    sizes_arr = _checked_sizes(sizes, capacity)
    order = np.argsort(-sizes_arr, kind="stable")
    rems: List[int] = []
    bin_of: List[int] = []
    for size in sizes_arr[order].tolist():
        j = choose((j for j, rem in enumerate(rems) if rem >= size), rems)
        if j is None:
            j = len(rems)
            rems.append(capacity)
        rems[j] -= size
        bin_of.append(j)
    return BinPlan.from_assignment(order, bin_of, len(rems), sizes_arr, capacity)


def lpt_schedule(sizes: Sequence[int], num_bins: int) -> BinPlan:
    """Longest-processing-time-first onto a *fixed* number of bins.

    The scheduling-problem framing (§3.1): bin count is fixed (e.g. the GPU
    count), each item goes to the currently least-loaded bin.  There is no
    capacity constraint; ``capacity`` is set to the final maximum fill.
    """
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    order = np.argsort(-sizes_arr, kind="stable")
    heap = [(0, j) for j in range(num_bins)]
    bin_of: List[int] = []
    for size in sizes_arr[order].tolist():
        used, j = heapq.heappop(heap)
        bin_of.append(j)
        heapq.heappush(heap, (used + size, j))
    capacity = max(used for used, _ in heap)
    return BinPlan.from_assignment(order, bin_of, num_bins, sizes_arr, capacity)
