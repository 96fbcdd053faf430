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

Wire format: parameters are flattened once per step into a shared slab
segment every rank reads; each rank owns a private gradient segment it
writes.  Ranks are pinned to workers (``rank % n_workers``) so each
worker's trainer state — collate cache, compiled loss plans, scatter
memos — is reused across steps exactly like a persistent DDP rank.

Pipelined broadcast: whenever the parameter segments fit on the slab,
the parameter broadcast of step *k+1* overlaps the tail of step *k* — after
the optimizer step, a background thread flattens the updated parameters
into the *standby* half of a double-buffered pair of slab segments while
the driver returns to the caller (epoch bookkeeping, loss logging,
simulation).  The next ``step()`` joins the thread and flips buffers
instead of flattening inline.  Parity is untouched: the staged bytes are
exactly the flatten an inline broadcast would produce at step entry,
because between steps only ``optimizer.step`` mutates parameter data
(EMA updates touch shadow copies only) — guarded by the optimizer's step
counter; a mismatch (e.g. an extra serial step between parallel steps)
discards the staged buffer and re-flattens inline.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .executor import BaseExecutor
from .shm import SlabFull
from .worker import GradStep, InstallModel, SetupRank, flatten_params

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
    ``freeze_representation`` raises ``ValueError``.  :meth:`close`
    frees the slab segments allocated here.
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
        # Double-buffered parameter broadcast segments + one gradient
        # segment per rank.
        slab = executor.slab
        allocated: List = []
        try:
            self._param_segs = []
            for _ in range(2):
                seg = slab.alloc((self._n_flat,), np.float64)
                allocated.append(seg)
                self._param_segs.append(seg)
            self._grad_segs = []
            for _ in range(self.world_size):
                seg = slab.alloc((self._n_flat,), np.float64)
                allocated.append(seg)
                self._grad_segs.append(seg)
        except SlabFull:
            # Inline fallback: params ride in each task, grads in results.
            for seg in allocated:
                slab.free(seg)
            self._param_segs = None
            self._grad_segs = [None] * self.world_size
        self._param_views = (
            [slab.view(seg) for seg in self._param_segs]
            if self._param_segs is not None
            else None
        )
        self._active = 0  # which param segment the *next* step broadcasts
        self._stage_thread: Optional[threading.Thread] = None
        self._staged = False
        self._stage_error: Optional[BaseException] = None
        self._staged_t = -1  # optimizer.t the staged params correspond to
        self.staged_broadcasts = 0  # steps served from a staged buffer
        self.inline_broadcasts = 0  # steps that flattened at step entry

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
        if self._param_segs is not None:
            self._join_stage()
            if self._staged and self._staged_t == self.trainer.optimizer.t:
                # Step k's tail already flattened the updated params into
                # the standby buffer; flip instead of flattening.
                self._active = 1 - self._active
                self.staged_broadcasts += 1
            else:
                self._param_views[self._active][...] = flatten_params(self.params)
                self.inline_broadcasts += 1
            self._staged = False
            params_ref = self._param_segs[self._active]
            flat = None
        else:
            flat = flatten_params(self.params)
            params_ref = flat
            self.inline_broadcasts += 1
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
        if self._param_segs is not None:
            self._start_stage()
        self.step_seconds.append(time.monotonic() - t0)
        return float(np.mean(losses))

    # -- pipelined broadcast -----------------------------------------------------

    def _start_stage(self) -> None:
        """Flatten the post-step parameters into the standby buffer, off
        the driver's critical path.  Safe because nothing mutates
        ``p.data`` until the next ``optimizer.step`` (the EMA only writes
        its shadow dict), and the next ``step()`` joins before reading."""
        standby_view = self._param_views[1 - self._active]

        def _stage() -> None:
            try:
                standby_view[...] = flatten_params(self.params)
            except BaseException as exc:  # re-flatten inline at next step
                self._stage_error = exc

        self._stage_error = None
        self._staged_t = self.trainer.optimizer.t
        self._stage_thread = threading.Thread(
            target=_stage, name="ddp-broadcast-stage", daemon=True
        )
        self._stage_thread.start()
        self._staged = True

    def _join_stage(self) -> None:
        if self._stage_thread is not None:
            self._stage_thread.join()
            self._stage_thread = None
        if self._stage_error is not None:
            self._staged = False
            self._stage_error = None

    def close(self) -> None:
        """Release the slab segments (the executor stays usable)."""
        self._join_stage()
        self._staged = False
        if self._param_segs is not None:
            for seg in self._param_segs:
                self.executor.slab.free(seg)
            for seg in self._grad_segs:
                self.executor.slab.free(seg)
            self._param_segs = None
            self._param_views = None
            self._grad_segs = [None] * self.world_size
