"""Experiment: Figure 12 — per-GPU workload distribution snapshot.

Shows how one step's worth of graphs lands on 8 GPUs under (a) the default
fixed-graph-count batching (4 graphs per batch in the figure) and (b) the
balanced bin packing at 3072 tokens per bin.  The paper's visual: with the
load balancer, all 8 GPUs receive (nearly) identical token counts and
*more* graphs fit within the same memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..data import build_spec
from ..distribution import (
    create_balanced_batches,
    evaluate_bins,
    fixed_count_batches,
    per_gpu_loads,
)
from .common import format_table

__all__ = ["DistributionSnapshot", "run", "report"]

NUM_GPUS = 8
FIXED_GRAPHS_PER_BATCH = 4  # matches the figure's left panel
CAPACITY = 3072


@dataclass
class DistributionSnapshot:
    """Token/graph counts per GPU for both strategies (one step each)."""

    fixed_tokens: np.ndarray
    fixed_graphs: np.ndarray
    balanced_tokens: np.ndarray
    balanced_graphs: np.ndarray

    @property
    def fixed_straggler(self) -> float:
        return float(self.fixed_tokens.max() / max(self.fixed_tokens.mean(), 1.0))

    @property
    def balanced_straggler(self) -> float:
        return float(
            self.balanced_tokens.max() / max(self.balanced_tokens.mean(), 1.0)
        )


def run(n_samples: int = 4000, seed: int = 0) -> DistributionSnapshot:
    """Pack a sample pool both ways and take the first step's 8 bins."""
    spec = build_spec(0.002, seed=seed)
    sizes = spec.n_atoms[:n_samples]
    rng = np.random.default_rng(seed + 1)
    fixed = fixed_count_batches(sizes, FIXED_GRAPHS_PER_BATCH, rng=rng)[:NUM_GPUS]
    balanced = create_balanced_batches(sizes, CAPACITY, NUM_GPUS)[:NUM_GPUS]
    return DistributionSnapshot(
        fixed_tokens=fixed.used,
        fixed_graphs=fixed.lengths,
        balanced_tokens=balanced.used,
        balanced_graphs=balanced.lengths,
    )


def report(snap: DistributionSnapshot) -> str:
    rows = []
    for gpu in range(NUM_GPUS):
        rows.append(
            (
                gpu,
                int(snap.fixed_tokens[gpu]),
                int(snap.fixed_graphs[gpu]),
                int(snap.balanced_tokens[gpu]),
                int(snap.balanced_graphs[gpu]),
            )
        )
    return (
        format_table(
            [
                "GPU",
                "fixed-count tokens",
                "fixed-count graphs",
                "balanced tokens",
                "balanced graphs",
            ],
            rows,
        )
        + f"\n\nstraggler ratio (max/mean tokens): fixed {snap.fixed_straggler:.2f}"
        + f" vs balanced {snap.balanced_straggler:.3f}"
        + f"\ngraphs placed per step: fixed {int(snap.fixed_graphs.sum())}"
        + f" vs balanced {int(snap.balanced_graphs.sum())}"
    )


if __name__ == "__main__":  # pragma: no cover
    print(report(run()))
