"""Randomness-preserving balanced batching (the paper's §7 future work).

The paper acknowledges one limitation of Algorithm 1: the deterministic
size-sorted packing "sacrifices randomness, which may impact training
effectiveness".  This module implements the natural remedy the limitation
suggests: **sharded balanced packing**.  The (shuffled) dataset is cut
into random shards of a few thousand samples and Algorithm 1 runs *within
each shard*.  Sample-to-batch assignment then changes every epoch — SGD
keeps its stochasticity — while each shard's bins remain balanced, so the
straggler protection is retained at a small, quantifiable cost.

``shard_size -> dataset size`` recovers plain Algorithm 1;
``shard_size -> capacity`` approaches fully random batching.  The
trade-off curve is measured in ``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .binpack import BinPlan, create_balanced_batches
from .sampler import _EpochPlanMixin

__all__ = ["sharded_balanced_batches", "RandomizedBalancedSampler"]


def sharded_balanced_batches(
    sizes: Sequence[int],
    capacity: int,
    num_gpus: int,
    shard_size: int,
    rng: Optional[np.random.Generator] = None,
) -> BinPlan:
    """Shuffle, cut into shards, run Algorithm 1 per shard, interleave.

    Parameters
    ----------
    sizes:
        Per-graph token counts.
    capacity, num_gpus:
        As in :func:`create_balanced_batches`; every shard's bin count is a
        multiple of ``num_gpus``, hence so is the total.
    shard_size:
        Samples per shard.  Must comfortably exceed ``capacity`` worth of
        tokens or bins degenerate.
    rng:
        Shuffle source; ``None`` keeps input order (deterministic shards).
    """
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    order = np.arange(sizes_arr.size)
    if rng is not None:
        order = rng.permutation(order)
    starts = range(0, sizes_arr.size, shard_size)
    plans = [
        create_balanced_batches(
            sizes_arr[order[start : start + shard_size]], capacity, num_gpus
        )
        for start in starts
    ]
    # One gather maps every shard's positions back to dataset indices.
    items = order[np.concatenate([p.items + start for p, start in zip(plans, starts)])]
    offsets = np.concatenate(
        [[0]] + [p.offsets[1:] + start for p, start in zip(plans, starts)]
    )
    return BinPlan(items, offsets, np.concatenate([p.used for p in plans]), capacity)


class RandomizedBalancedSampler(_EpochPlanMixin):
    """Epoch sampler using sharded balanced packing.

    Drop-in alternative to
    :class:`repro.distribution.BalancedDistributedSampler` whose epoch
    plans are genuinely stochastic: the shard composition (hence every
    batch) changes with the epoch seed.  Rank dealing, capacity
    extraction and batch materialization come from the shared mixin.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        capacity: int,
        num_replicas: int,
        shard_size: int = 4096,
        seed: int = 0,
    ) -> None:
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.capacity = int(capacity)
        self.num_replicas = int(num_replicas)
        self.shard_size = int(shard_size)
        self.seed = seed

    def plan_epoch(self, epoch: int) -> BinPlan:
        """Shard + pack this epoch (same plan on every rank)."""
        rng = np.random.default_rng(self.seed + epoch)
        return sharded_balanced_batches(
            self.sizes, self.capacity, self.num_replicas, self.shard_size, rng
        )

    def assignment_entropy(self, n_epochs: int = 4) -> float:
        """Fraction of samples whose batch co-members change between epochs
        (1.0 = fully re-randomized; 0.0 = deterministic plans)."""
        prev = None
        changed = []
        for epoch in range(n_epochs):
            partner: dict = {}
            for items in self.plan_epoch(epoch):
                key = tuple(sorted(items.tolist()))
                for i in key:
                    partner[i] = key
            if prev is not None:
                diff = sum(1 for i, k in partner.items() if prev.get(i) != k)
                changed.append(diff / len(partner))
            prev = partner
        return float(np.mean(changed)) if changed else 0.0
