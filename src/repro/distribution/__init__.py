"""Data distribution: the paper's multi-objective bin-packing load balancer."""

from .binpack import BinPlan, create_balanced_batches
from .baselines import (
    best_fit_decreasing,
    first_fit_decreasing,
    fixed_count_batches,
    lpt_schedule,
)
from .metrics import (
    DistributionMetrics,
    evaluate_bins,
    per_gpu_loads,
    step_imbalance,
)
from .sampler import BalancedDistributedSampler, FixedCountDistributedSampler
from .randomized import RandomizedBalancedSampler, sharded_balanced_batches

__all__ = [
    "BinPlan",
    "create_balanced_batches",
    "fixed_count_batches",
    "first_fit_decreasing",
    "best_fit_decreasing",
    "lpt_schedule",
    "DistributionMetrics",
    "evaluate_bins",
    "per_gpu_loads",
    "step_imbalance",
    "BalancedDistributedSampler",
    "FixedCountDistributedSampler",
    "RandomizedBalancedSampler",
    "sharded_balanced_batches",
]
