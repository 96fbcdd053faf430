"""Distributed batch samplers.

The paper implements Algorithm 1 by modifying PyTorch's
``DistributedSampler`` into a *batch* sampler that re-plans the epoch's
bins up front (§3.2.1).  This module reproduces that integration point:

* :class:`BalancedDistributedSampler` — Algorithm 1 per epoch; every rank
  derives the same deterministic plan and takes bins ``rank, rank + G,
  rank + 2G, ...`` (cyclic), so no communication is needed;
* :class:`FixedCountDistributedSampler` — the baseline: shuffle, chunk a
  fixed number of graphs per batch, deal round-robin.

Both give each rank its epoch plan as ``(indices, capacity)`` bins
(:meth:`~_EpochPlanMixin.plan_rank_bins`, or every rank's at once with
:meth:`~_EpochPlanMixin.all_rank_bins`); the capacity travels with each
bin because :class:`~repro.graphs.pipeline.CollateCache` keys on it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .binpack import BinPlan, create_balanced_batches
from .baselines import fixed_count_batches

__all__ = ["BalancedDistributedSampler", "FixedCountDistributedSampler"]


class _EpochPlanMixin:
    """Epoch-plan consumption shared by both samplers.

    Subclasses provide ``plan_epoch(epoch) -> BinPlan`` and
    ``num_replicas``; everything below — the cyclic rank dealing rule
    (bin ``i`` goes to rank ``i % G``) and capacity extraction — lives
    here so there is exactly one source of truth for how plans map onto
    ranks.  The last epoch's plan is kept
    in a one-entry memo, so dealing every rank's bins and its shard
    schedule packs the epoch once.

    When ``shard_ids`` is set (per-sample shard assignment from a
    :class:`repro.data.store.SizeIndex`), each rank's bins are
    additionally reordered by dominant shard (stable sort), so a
    streaming consumer walks the shard files mostly sequentially and a
    bounded resident-shard budget stays effective.  Everything here
    consumes only per-sample *sizes* and ``shard_ids`` — never structure
    payloads (enforced by the ``epoch-plan-payload-read`` lint rule).
    """

    shard_ids = None  # optional per-sample shard assignment (size-index only)
    _memo = None  # (epoch, each rank's bins as a plan, in walking order)

    def _rank_plan(self, epoch: int, rank: int) -> BinPlan:
        """Rank ``rank``'s bins in walking order; each epoch is packed once."""
        if not 0 <= rank < self.num_replicas:
            raise ValueError(f"rank {rank} out of range")
        memo = self._memo
        if memo is None or memo[0] != epoch:
            plan = self.plan_epoch(epoch)
            i = np.arange(len(plan))
            rank_of = i % self.num_replicas
            if self.shard_ids is None:
                dom = np.zeros_like(i)
            else:
                dom = self._dominant_shards(plan)
            order = np.lexsort((i, dom, rank_of))
            ends = np.cumsum(np.bincount(rank_of, minlength=self.num_replicas))[:-1]
            memo = self._memo = (epoch, [plan.take(b) for b in np.split(order, ends)])
        return memo[1][rank]

    def _dominant_shards(self, plan: BinPlan) -> np.ndarray:
        """Each bin's most frequent shard, ties to the smallest id; -1 if empty."""
        span = int(self.shard_ids.max()) + 1
        pairs, counts = np.unique(
            np.repeat(np.arange(len(plan)) * span, plan.lengths)
            + self.shard_ids[plan.items],
            return_counts=True,
        )
        bins, shards = np.divmod(pairs, span)
        # lexsort is stable, so among equal counts the smallest shard comes first.
        best = np.lexsort((-counts, bins))
        best = best[np.diff(bins[best], prepend=-1) != 0]
        dom = np.full(len(plan), -1, dtype=np.int64)
        dom[bins[best]] = shards[best]
        return dom

    def all_rank_bins(self, epoch: int) -> List[List[Tuple[List[int], int]]]:
        """Per-rank ``(indices, capacity)`` bin lists from one planning pass."""
        return [self.plan_rank_bins(epoch, r) for r in range(self.num_replicas)]

    def plan_rank_shards(self, epoch: int, rank: int) -> List[int]:
        """Shard ids rank ``rank`` touches this epoch, in first-use order.

        The per-rank prefetch schedule: computed from ``shard_ids`` alone
        (no payload reads), it tells a streaming consumer which shard
        files this rank's epoch walks and in what order — bin by bin,
        each bin's shards ascending.
        """
        if self.shard_ids is None:
            raise ValueError("sampler has no shard_ids (size index not attached)")
        bins = self._rank_plan(epoch, rank)
        sid = self.shard_ids[bins.items]
        pos = np.repeat(np.arange(len(bins)), bins.lengths)
        walk = sid[np.lexsort((sid, pos))]
        _, first = np.unique(walk, return_index=True)
        return walk[np.sort(first)].tolist()

    def plan_rank_bins(
        self, epoch: int, rank: int
    ) -> List[Tuple[List[int], int]]:
        """``(indices, capacity)`` pairs of the bins rank ``rank`` owns."""
        bins = self._rank_plan(epoch, rank)
        return [(items.tolist(), bins.capacity) for items in bins]


class BalancedDistributedSampler(_EpochPlanMixin):
    """Epoch-wise balanced batch sampler (the paper's modified sampler).

    Parameters
    ----------
    sizes:
        Per-sample token counts; §3.2.1 notes the size metric is pluggable
        (vertex count, edge count, or a function of both) — pass the metric
        you want balanced via ``size_metric`` applied to ``sizes``.
    capacity:
        Bin capacity ``C`` in tokens (the paper operates at 3072, §5.2).
    num_replicas:
        World size ``G``.
    shuffle:
        Re-shuffle sample order each epoch before packing.  Packing is
        deterministic given the epoch seed, so all ranks agree.  (The
        sorted packing sacrifices sample-order randomness — the limitation
        §7 acknowledges; shuffling only perturbs tie-breaking.)
    seed:
        Base seed combined with the epoch number.
    shard_ids:
        Optional per-sample shard assignment (e.g.
        ``ShardedDataset.size_index.shard_id``).  Enables the mixin's
        shard-locality bin ordering and ``plan_rank_shards`` — the
        streaming story's planning half, still size-index-only.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        capacity: int,
        num_replicas: int,
        shuffle: bool = True,
        seed: int = 0,
        size_metric: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        shard_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if size_metric is not None:
            self.metric = np.asarray(size_metric(self.sizes), dtype=np.int64)
        else:
            self.metric = self.sizes
        self.capacity = int(capacity)
        self.num_replicas = int(num_replicas)
        self.shuffle = shuffle
        self.seed = seed
        if shard_ids is not None:
            shard_ids = np.asarray(shard_ids, dtype=np.int64)
            if shard_ids.shape != self.sizes.shape or np.any(shard_ids < 0):
                raise ValueError("shard_ids must be one non-negative id per sample")
        self.shard_ids = shard_ids

    def plan_epoch(self, epoch: int) -> BinPlan:
        """Pack the whole epoch into bins (identical on every rank)."""
        order = np.arange(self.sizes.size)
        if self.shuffle:
            rng = np.random.default_rng(self.seed + epoch)
            order = rng.permutation(order)
        plan = create_balanced_batches(
            self.metric[order], self.capacity, self.num_replicas
        )
        # Map positions back to dataset indices.
        return replace(plan, items=order[plan.items])


class FixedCountDistributedSampler(_EpochPlanMixin):
    """The PyG-default baseline: fixed graphs-per-batch, shuffled each epoch."""

    def __init__(
        self,
        sizes: Sequence[int],
        graphs_per_batch: int,
        num_replicas: int,
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.graphs_per_batch = int(graphs_per_batch)
        self.num_replicas = int(num_replicas)
        self.shuffle = shuffle
        self.seed = seed

    def plan_epoch(self, epoch: int) -> BinPlan:
        """Chunk the (shuffled) dataset into fixed-count batches."""
        rng = np.random.default_rng(self.seed + epoch) if self.shuffle else None
        return fixed_count_batches(self.sizes, self.graphs_per_batch, rng=rng)
