"""Quality metrics of a batch distribution.

These quantify the three objectives of §3.1.1 plus the operational
quantities the evaluation plots: per-GPU token loads (Figure 12), padding
waste, and straggler-driven imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binpack import BinPlan

__all__ = [
    "DistributionMetrics",
    "evaluate_bins",
    "per_gpu_loads",
    "step_imbalance",
]


@dataclass(frozen=True)
class DistributionMetrics:
    """Summary of one packing.

    Attributes
    ----------
    num_bins:
        Bin count (objective 3).
    padding_fraction:
        Total zero-padded tokens over total allocated tokens (objective 4).
    max_pairwise_gap:
        Largest fill difference between any two bins, in tokens
        (objective 5, linear form).
    quadratic_gap:
        Objective 5 exactly as equation (5) states it, on squared sizes.
    load_cv:
        Coefficient of variation of bin fills (std / mean).
    straggler_ratio:
        max fill / mean fill — the factor by which the slowest GPU lags.
    """

    num_bins: int
    padding_fraction: float
    max_pairwise_gap: int
    quadratic_gap: float
    load_cv: float
    straggler_ratio: float


def evaluate_bins(bins: BinPlan, sizes: Sequence[int] | None = None) -> DistributionMetrics:
    """Compute :class:`DistributionMetrics` for a packing.

    ``sizes`` is needed only for the exact quadratic objective (5); when
    omitted the quadratic gap is computed on bin fills instead.
    """
    if not len(bins):
        raise ValueError("no bins to evaluate")
    fills = bins.used.astype(np.float64)
    caps = np.maximum(bins.capacity, bins.used).astype(np.float64)
    total_cap = caps.sum()
    pad_frac = float((caps - fills).sum() / total_cap) if total_cap > 0 else 0.0
    if sizes is not None:
        sz = np.asarray(sizes, dtype=np.int64)
        sq = bins.sums(sz * sz).astype(np.float64)
    else:
        sq = fills**2
    mean = float(fills.mean())
    return DistributionMetrics(
        num_bins=len(bins),
        padding_fraction=pad_frac,
        max_pairwise_gap=int(fills.max() - fills.min()),
        quadratic_gap=float(sq.max() - sq.min()),
        load_cv=float(fills.std() / mean) if mean > 0 else 0.0,
        straggler_ratio=float(fills.max() / mean) if mean > 0 else 0.0,
    )


def per_gpu_loads(bins: BinPlan, num_gpus: int) -> np.ndarray:
    """Total tokens landing on each GPU under round-robin bin assignment.

    This is the quantity Figure 12 visualizes: with the load balancer every
    GPU receives (nearly) the same token count; with fixed-count batching
    the loads vary widely.
    """
    return _per_step(bins.used, num_gpus).sum(axis=0)


def step_imbalance(bins: BinPlan, num_gpus: int) -> np.ndarray:
    """Per-step straggler factor under synchronous DDP.

    Bins are consumed ``num_gpus`` at a time (one per rank per step); each
    step's cost is driven by its largest bin.  Returns ``max/mean`` per
    step — the quantity that directly multiplies epoch time.
    """
    per_step = _per_step(bins.used.astype(np.float64), num_gpus)
    means = per_step.mean(axis=1)
    means[means == 0.0] = 1.0
    return per_step.max(axis=1) / means


def _per_step(fills: np.ndarray, num_gpus: int) -> np.ndarray:
    """Fills as ``(steps, num_gpus)`` rows, the last step zero-padded."""
    return np.pad(fills, (0, (-fills.size) % num_gpus)).reshape(-1, num_gpus)
