"""Synchronous data-parallel training steps over a worker pool.

:class:`ParallelDDP` is the repository's one DDP step: per-rank
forward/backward on executor workers, a gradient all-reduce, one
optimizer step on the driver's trainer.  On a
:class:`~repro.parallel.SerialExecutor` the ranks take turns in the
driver's process; that backend is the reference the pools are held to.

Determinism contract: the driver reduces the per-rank flattened
gradients in **fixed rank order** with a running ``+=`` left fold, so the
step does not depend on which worker finished first.  With eager rank
losses (a driver trainer without a plan cache) the per-rank gradients
are bitwise equal on every backend (same NumPy ops, same inputs), and so
is the whole step; with compiled rank steps the backends agree to
summation reassociation (~1e-15, asserted at 1e-12 in the tests).  A
one-rank step divides the gradient by 1 and then applies the trainer's
own optimizer and EMA update, so with eager ranks it reproduces
:meth:`~repro.training.Trainer.train_step` bitwise.

Wire format: parameters are flattened once per step, at step entry,
into one shared slab segment every rank reads; each rank owns a private
gradient segment it writes, so a run holds ``1 + world_size`` segments.
Ranks are pinned to workers (``rank % n_workers``) so each worker's
trainer state — collate cache, compiled loss plans, scatter memos — is
reused across steps exactly like a persistent DDP rank.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .executor import BaseExecutor
from .shm import SlabFull
from .worker import GradStep, InstallModel, RetainBins, SetupRank, flatten_params

__all__ = ["ParallelDDP"]


class ParallelDDP:
    """Drive synchronous DDP steps of a trainer through an executor.

    Parameters
    ----------
    trainer:
        The driver-side :class:`~repro.training.Trainer`; its optimizer,
        EMA and scheduler state stay authoritative — workers only
        compute gradients.
    executor:
        Any :class:`~repro.parallel.BaseExecutor`.  The model and one
        :class:`~repro.parallel.worker.SetupRank` per rank are installed
        at construction.
    world_size:
        Number of DDP ranks.  Each rank is a trainer over a private model
        and graph-list clone on its pinned worker, on every backend.

    Rank trainers compile their loss plans exactly when the driver's
    ``trainer.plan_cache`` is set: an eager driver gets eager ranks.
    Every parameter is flattened and updated, so a trainer after
    ``freeze_representation`` raises ``ValueError``.  Each step
    flattens the parameters as they are at step entry, so weights
    written in place between steps (``load_state_dict``,
    ``ema.copy_to``, an extra ``train_step``) are what the ranks see.
    :meth:`close` frees the ``1 + world_size`` slab segments allocated
    here; when they do not fit, parameters and gradients travel inline.
    """

    def __init__(self, trainer, executor: BaseExecutor, world_size: int) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.trainer = trainer
        self.executor = executor
        self.world_size = int(world_size)
        self.params = list(trainer.model.parameters())
        if len(trainer.optimizer.params) != len(self.params):
            raise ValueError(
                "parallel DDP flattens the full parameter list; trainers "
                "with frozen subsets (freeze_representation) are not supported"
            )
        self._n_flat = int(sum(p.data.size for p in self.params))
        self._step_id = 0
        self.step_seconds: List[float] = []

        executor.install(InstallModel(version=0, model=trainer.model))
        for rank in range(self.world_size):
            executor.install(
                SetupRank(
                    rank=rank,
                    model_version=0,
                    graphs=trainer.graphs,
                    scaler_mean=trainer.scaler.mean_per_atom,
                    scaler_std=trainer.scaler.std_per_atom,
                    loss_weighting=trainer.loss_weighting,
                    compiled=trainer.plan_cache is not None,
                ),
                worker=rank % executor.n_workers,
            )
        # One parameter segment + one gradient segment per rank.
        slab = executor.slab
        allocated: List = []
        try:
            for _ in range(1 + self.world_size):
                allocated.append(slab.alloc((self._n_flat,), np.float64))
        except SlabFull:
            # Inline fallback: params ride in each task, grads in results.
            for seg in allocated:
                slab.free(seg)
            allocated = [None] * (1 + self.world_size)
        self._param_seg, *self._grad_segs = allocated

    # -- one step ----------------------------------------------------------------

    def step(self, rank_bins: Sequence[Tuple[Sequence[int], int]]) -> float:
        """One synchronous DDP step; returns the mean loss across ranks.

        ``rank_bins`` is indexed by rank: each rank's ``(indices,
        capacity)`` bin of the epoch plan.  A rank with empty indices sits
        out, and the gradient average is over the ranks that took part.
        """
        if len(rank_bins) > self.world_size:
            raise ValueError(
                f"{len(rank_bins)} rank bins for world size {self.world_size}"
            )
        t0 = time.monotonic()
        # One segment suffices: drain() below returns only after every
        # rank's result is in, and nothing reads the segment again until
        # the next step rewrites it here from the current p.data.
        flat = flatten_params(self.params)
        if self._param_seg is not None:
            self.executor.slab.view(self._param_seg)[...] = flat
            params_ref = self._param_seg
        else:
            params_ref = flat
        active = [
            (rank, tuple(indices), int(capacity))
            for rank, (indices, capacity) in enumerate(rank_bins)
            if len(indices)
        ]
        if not active:
            raise ValueError("ddp step received no non-empty batches")
        for rank, batch, capacity in active:
            task = GradStep(
                task_id=(self._step_id, rank),
                rank=rank,
                batch_indices=batch,
                capacity=capacity,
                params=params_ref,
                grads=self._grad_segs[rank],
            )
            self.executor.submit(task, worker=rank % self.executor.n_workers)
        results = self.executor.drain()
        self._step_id += 1

        losses: List[float] = []
        total: Optional[np.ndarray] = None
        for rank, _, _ in active:  # fixed rank order, whatever finished first
            res = results[(self._step_id - 1, rank)]
            if "error" in res:
                raise RuntimeError(f"rank {rank} failed:\n{res['error']}")
            losses.append(res["loss"])
            g = (
                self.executor.slab.view(self._grad_segs[rank])
                if self._grad_segs[rank] is not None
                else res["grad"]
            )
            if total is None:
                total = np.array(g, dtype=np.float64, copy=True)
            else:
                total += g
        world = len(active)
        offset = 0
        for p in self.params:
            n = p.data.size
            p.grad = (total[offset : offset + n] / world).reshape(p.data.shape)
            offset += n
        self.trainer.optimizer.step()
        self.trainer.ema.update()
        self.step_seconds.append(time.monotonic() - t0)
        return float(np.mean(losses))

    def retain_bins(self, plan: Sequence[Sequence[Tuple[Sequence[int], int]]]) -> None:
        """Send each rank its epoch bins (``plan[rank]``) once an epoch, so
        its private collate cache keeps only what the epoch can ask for."""
        for rank, bins in enumerate(plan):
            task = RetainBins(task_id=("retain", rank), rank=rank, bins=bins)
            self.executor.submit(task, worker=rank % self.executor.n_workers)
        for (_, rank), res in sorted(self.executor.drain().items()):
            if "error" in res:
                raise RuntimeError(f"rank {rank} failed:\n{res['error']}")

    def close(self) -> None:
        """Release the slab segments (the executor stays usable)."""
        if self._param_seg is not None:
            for seg in [self._param_seg, *self._grad_segs]:
                self.executor.slab.free(seg)
            self._param_seg = None
            self._grad_segs = [None] * self.world_size
