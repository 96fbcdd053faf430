"""Shared machinery for the per-figure experiment modules.

Provides fast per-bin workload extraction for both batching strategies so
every figure's simulation runs over the full 2.65 M-sample spec in seconds,
plus small formatting helpers for the harness output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..cluster import A100, DRAGONFLY, PAPER_MODEL, EpochReport, simulate_epoch
from ..data.composite import DatasetSpec
from ..distribution import create_balanced_batches

__all__ = [
    "BinWorkloads",
    "fixed_count_workloads",
    "balanced_workloads",
    "simulate",
    "format_table",
    "DEFAULT_CAPACITY",
    "DEFAULT_GRAPHS_PER_BATCH",
]

DEFAULT_CAPACITY = 3072  # tokens per bin (paper §5.2)
DEFAULT_GRAPHS_PER_BATCH = 7  # the paper's baseline uses 6-8 graphs/batch


@dataclass(frozen=True)
class BinWorkloads:
    """Per-bin token and edge totals of one epoch plan."""

    tokens: np.ndarray
    edges: np.ndarray

    @property
    def n_bins(self) -> int:
        return int(self.tokens.size)


def fixed_count_workloads(
    spec: DatasetSpec, graphs_per_batch: int = DEFAULT_GRAPHS_PER_BATCH, seed: int = 1
) -> BinWorkloads:
    """Baseline batching: shuffled, fixed graph count per batch.

    Vectorized equivalent of
    :class:`repro.distribution.FixedCountDistributedSampler` for simulation
    purposes (identical distribution of batch workloads).
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(spec.n_samples)
    nb = spec.n_samples // graphs_per_batch
    cut = nb * graphs_per_batch
    tokens = spec.n_atoms[perm][:cut].reshape(nb, graphs_per_batch).sum(axis=1)
    edges = spec.n_edges[perm][:cut].reshape(nb, graphs_per_batch).sum(axis=1)
    return BinWorkloads(tokens.astype(np.float64), edges.astype(np.float64))


def balanced_workloads(
    spec: DatasetSpec,
    num_gpus: int,
    capacity: int = DEFAULT_CAPACITY,
) -> BinWorkloads:
    """Algorithm 1 batching over the full spec."""
    bins = create_balanced_batches(spec.n_atoms, capacity, num_gpus)
    return BinWorkloads(
        bins.used.astype(np.float64), bins.sums(spec.n_edges).astype(np.float64)
    )


def simulate(
    work: BinWorkloads,
    num_gpus: int,
    variant: str,
    model=PAPER_MODEL,
    gpu=A100,
    interconnect=DRAGONFLY,
) -> EpochReport:
    """Simulate one epoch of the given plan on ``num_gpus`` GPUs."""
    return simulate_epoch(
        work.tokens,
        work.edges,
        num_gpus,
        variant=variant,
        model=model,
        gpu=gpu,
        interconnect=interconnect,
    )


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a fixed-width ASCII table (the harness's output format)."""
    cols = [[str(h)] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(v) for v in col) for col in cols]
    def fmt_row(vals):
        return "  ".join(str(v).rjust(w) for v, w in zip(vals, widths))
    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines += [fmt_row(r) for r in rows]
    return "\n".join(lines)
