"""Distributed training runs: real gradients, simulated wall-clock.

This module couples the repository's two halves exactly the way the paper
couples Figure 9 with Figure 7: the *numerics* of synchronous multi-GPU
training run for real (per-rank batches, gradient averaging, one optimizer
step — see :class:`repro.parallel.ParallelDDP`), while the *wall-clock*
each epoch would have cost on the target machine comes from the cluster
simulator, driven by the very same batch plan.

The result is a single report showing loss versus simulated training time
for any (sampler, world size, kernel variant) combination — e.g. "what
does the loss-vs-hours curve look like at 64 GPUs with and without the
load balancer?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic
from typing import List, Tuple

import numpy as np

from ..cluster import A100, DRAGONFLY, PAPER_MODEL, simulate_epoch
from ..cluster.gpu import GPUSpec
from ..cluster.interconnect import InterconnectSpec
from ..cluster.workload import MACEWorkloadModel
from ..parallel import BaseExecutor, ParallelDDP
from .trainer import Trainer

__all__ = ["DistributedRunReport", "DistributedTrainingRun"]


@dataclass
class DistributedRunReport:
    """Loss trajectory annotated with simulated cluster time.

    ``epoch_wall_seconds`` is the *measured* host wall-clock of each
    epoch's step loop, on the executor named by ``execution`` (its
    ``backend``): sequentialised rank turns on ``"serial"``, real
    concurrent ranks on ``"thread"`` / ``"process"``.  Comparing them is
    the DDP half of the cost-model validation harness.
    """

    world_size: int
    variant: str
    epoch_losses: List[float] = field(default_factory=list)
    epoch_minutes: List[float] = field(default_factory=list)
    epoch_wall_seconds: List[float] = field(default_factory=list)
    execution: str = "serial"

    @property
    def total_minutes(self) -> float:
        return float(np.sum(self.epoch_minutes))

    @property
    def total_wall_seconds(self) -> float:
        return float(np.sum(self.epoch_wall_seconds))

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]

    def loss_at_time(self) -> List[tuple]:
        """(cumulative simulated minutes, loss) pairs for plotting."""
        return list(zip(np.cumsum(self.epoch_minutes).tolist(), self.epoch_losses))


class DistributedTrainingRun:
    """Synchronous data-parallel training with simulated timing.

    Parameters
    ----------
    trainer:
        A :class:`repro.training.Trainer` over labeled graphs.
    sampler:
        Any sampler of :mod:`repro.distribution`; each epoch's plan is
        its ``all_rank_bins(epoch)``, ``(indices, capacity)`` bins per
        rank.
    world_size:
        Simulated GPU count.  The *numerics* are exact for any world size
        (gradients are averaged over ranks each step); the wall-clock is
        what that plan would cost on the modeled cluster.
    executor:
        The :class:`~repro.parallel.BaseExecutor` every DDP step runs on,
        through :class:`~repro.parallel.ParallelDDP`: per-rank
        forward/backward on workers, a gradient all-reduce through the
        executor's slab, one optimizer step on ``trainer``.  The caller
        owns the pool; :meth:`run` holds one parameter segment and one
        gradient segment per rank on its slab and frees them when it
        returns or raises.  Before each epoch's first step every rank
        gets its bins of the plan and prunes its private collate cache
        to them (:meth:`~repro.training.Trainer.retain_bins`).  Ranks
        compile their loss plans when ``trainer.plan_cache`` is set and
        run eagerly otherwise.  The
        serial backend (``make_executor("serial", 1)``) is the reference:
        with eager ranks every backend matches it bitwise, with compiled
        ranks to 1e-12, and the simulated epoch minutes do not depend on
        the backend — only the *measured* ``epoch_wall_seconds`` does.
        Each rank holds its own trainer (a model clone, a graph-list
        clone and their caches) even on the serial backend; no caller in
        the repository runs more than 4 ranks.
    variant:
        Kernel variant used for the timing model (the numerics of this
        repository's two variants are identical, so only time differs).
    """

    def __init__(
        self,
        trainer: Trainer,
        sampler,
        world_size: int,
        executor: BaseExecutor,
        variant: str = "optimized",
        workload_model: MACEWorkloadModel = PAPER_MODEL,
        gpu: GPUSpec = A100,
        interconnect: InterconnectSpec = DRAGONFLY,
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.trainer = trainer
        self.sampler = sampler
        self.world_size = int(world_size)
        self.variant = variant
        self.workload_model = workload_model
        self.gpu = gpu
        self.interconnect = interconnect
        self.executor = executor

    # -- internals --------------------------------------------------------------

    def _epoch_plan(self, epoch: int) -> List[List[Tuple[List[int], int]]]:
        plan = self.sampler.all_rank_bins(epoch)
        if len(plan) != self.world_size:
            raise ValueError(
                f"sampler is configured for {len(plan)} replicas, "
                f"run expects {self.world_size}"
            )
        return plan

    def _simulate_plan(self, plan: List[List[Tuple[List[int], int]]]) -> float:
        """Simulated epoch seconds for this exact batch plan.

        With an out-of-core trainer the per-sample sizes come from the
        dataset's size index — simulation cost scales with the index,
        not payload bytes (no shard maps are opened here).
        """
        dataset = getattr(self.trainer, "dataset", None)
        if dataset is not None:
            atoms_of = dataset.size_index.n_atoms
            edges_of = dataset.size_index.n_edges
        else:
            graphs = self.trainer.graphs
            atoms_of = None
        tokens, edges = [], []
        n_steps = max(len(r) for r in plan)
        for step in range(n_steps):
            for rank in range(self.world_size):
                batch = plan[rank][step][0] if step < len(plan[rank]) else []
                if atoms_of is not None:
                    batch = np.asarray(batch, dtype=np.int64)
                    tokens.append(int(atoms_of[batch].sum()))
                    edges.append(int(edges_of[batch].sum()))
                else:
                    tokens.append(sum(graphs[i].n_atoms for i in batch))
                    edges.append(sum(graphs[i].n_edges for i in batch))
        report = simulate_epoch(
            np.asarray(tokens, dtype=np.float64),
            np.asarray(edges, dtype=np.float64),
            self.world_size,
            variant=self.variant,
            model=self.workload_model,
            gpu=self.gpu,
            interconnect=self.interconnect,
        )
        return report.epoch_time

    # -- public API ---------------------------------------------------------------

    def run(self, n_epochs: int, verbose: bool = False) -> DistributedRunReport:
        """Train ``n_epochs`` of synchronous DDP; return the timed report."""
        report = DistributedRunReport(
            self.world_size, self.variant, execution=self.executor.backend
        )
        ddp = ParallelDDP(self.trainer, self.executor, self.world_size)
        try:
            for epoch in range(n_epochs):
                plan = self._epoch_plan(epoch)
                ddp.retain_bins(plan)
                n_steps = max(len(r) for r in plan)
                losses = []
                wall_t0 = monotonic()
                for step in range(n_steps):
                    # Indexed by rank (rank -> pinned worker state); a rank
                    # whose plan has run out sits the step out.
                    rank_bins = [
                        bins[step] if step < len(bins) else ([], 0) for bins in plan
                    ]
                    if any(indices for indices, _ in rank_bins):
                        losses.append(ddp.step(rank_bins))
                report.epoch_wall_seconds.append(monotonic() - wall_t0)
                self.trainer.scheduler.step()
                report.epoch_losses.append(float(np.mean(losses)))
                report.epoch_minutes.append(self._simulate_plan(plan) / 60.0)
                if verbose:
                    print(
                        f"epoch {epoch:3d}  loss {report.epoch_losses[-1]:.5f}  "
                        f"simulated {report.epoch_minutes[-1]:.2f} min"
                    )
        finally:
            ddp.close()
        return report
