"""Worker-side protocol: installed state and the tasks that run on it.

Everything a worker holds lives in one :class:`WorkerContext`; nothing
in this module keeps module-level state, so a respawned worker is
reconstructed exactly by replaying the executor's install log (see
:mod:`repro.parallel.executor`).

Two message kinds cross the task queue:

- **install messages** (:class:`InstallModel`, :class:`SetupRank`)
  mutate the context and are idempotent — the executor logs them per
  worker and replays the log into a respawned replacement after a
  worker death;
- **tasks** (:class:`ForwardTask`, :class:`GradStep`,
  :class:`RetainBins`) compute and return
  a small metadata dict; array payloads travel through the executor's
  shared-memory slab (:mod:`repro.parallel.shm`) whenever they fit, and
  inline through the queue otherwise.

Timestamps use ``time.monotonic()``: ``CLOCK_MONOTONIC`` is system-wide
on Linux, so worker-side start/finish stamps are directly comparable to
the driver's clock.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

import numpy as np

from .shm import ArrayHandle

__all__ = [
    "ForwardTask",
    "GradStep",
    "InstallModel",
    "SetupRank",
    "WorkerContext",
]


def _clone(obj):
    """Process-equivalent copy: the same round trip the queue would do.

    Thread workers install through this too, so every backend gives each
    worker a private model instance (and each worker captures its own
    plans against it) — replaying a shared plan from two threads would
    race on its instruction state and arena buffers.
    """
    return pickle.loads(pickle.dumps(obj))


@dataclass
class RankState:
    """One DDP rank living on a worker: a trainer over a private model."""

    rank: int
    trainer: Any
    params: list  # the flatten/unflatten order, = list(model.parameters())


class WorkerContext:
    """All state a worker accumulates from install messages."""

    def __init__(self, worker_id: int, slab=None) -> None:
        self.worker_id = worker_id
        self.slab = slab  # attached ShmSlab (process), LocalSlab, or None
        self.models: Dict[int, Any] = {}  # version -> MACE
        self.plan_caches: Dict[int, Any] = {}  # version -> PlanCache
        self.ranks: Dict[int, RankState] = {}

    def _array(self, ref):
        """Resolve a task operand: slab handle or inline ndarray."""
        if isinstance(ref, ArrayHandle):
            return self.slab.view(ref)
        return ref


# -- install messages ---------------------------------------------------------


@dataclass
class InstallModel:
    """Publish one model version to a worker."""

    version: int
    model: Any

    def install(self, ctx: WorkerContext) -> None:
        from ..runtime import PlanCache

        ctx.models[self.version] = _clone(self.model)
        # One bucket-keyed plan cache per version: plans are captured
        # here, against the worker's private clone, and die with it.
        ctx.plan_caches[self.version] = PlanCache()

    def replaces(self, other) -> bool:
        return isinstance(other, InstallModel) and other.version == self.version


@dataclass
class SetupRank:
    """Create one DDP rank's state: a trainer over a private model clone.

    The shipped ``graphs`` are the full training list (batch indices are
    global), and the driver's fitted scaler is copied in verbatim so the
    worker's loss matches the driver's trainer bit for bit.
    ``compiled`` mirrors whether the driver's trainer has a plan cache;
    eager ranks give per-rank gradients *bitwise* equal on every backend
    (compiled steps agree to ~1e-15 reassociation; see
    ``tests/test_parallel.py``).
    """

    rank: int
    model_version: int
    graphs: Any
    scaler_mean: float
    scaler_std: float
    loss_weighting: str = "per_atom"
    compiled: bool = True

    def install(self, ctx: WorkerContext) -> None:
        from ..training.trainer import Trainer

        model = _clone(ctx.models[self.model_version])
        trainer = Trainer(
            model,
            _clone(self.graphs),
            loss_weighting=self.loss_weighting,
            plan_cache="auto" if self.compiled else None,
        )
        trainer.scaler.mean_per_atom = self.scaler_mean
        trainer.scaler.std_per_atom = self.scaler_std
        ctx.ranks[self.rank] = RankState(
            rank=self.rank, trainer=trainer, params=list(model.parameters())
        )

    def replaces(self, other) -> bool:
        return isinstance(other, SetupRank) and other.rank == self.rank


# -- tasks --------------------------------------------------------------------


@dataclass
class ForwardTask:
    """One micro-batch energy evaluation.

    ``batch`` carries the bucket-shaped collated arrays by field name
    (slab handles, or inline ndarrays when the slab is full) and
    ``ghosts`` the batch's ``(ghost_atoms, ghost_edges, ghost_graphs)``
    — inputs only, nothing compiled crosses the wire.  The worker
    rebuilds the :class:`~repro.graphs.GraphBatch` as it was and runs
    :meth:`repro.mace.MACE.predict_energy` against the plan cache of its
    model ``version``, which binds the arrays to their bucket's plan as
    replay inputs, so a worker captures once per bucket and a respawned
    one needs the ``InstallModel`` log alone.

    ``result`` optionally names a driver-allocated slab segment with one
    entry per real graph; the energies are written there and the
    returned metadata carries only timestamps.  Without it the energies
    come back inline.
    """

    FIELDS: ClassVar[Tuple[str, ...]] = (
        "positions",
        "species",
        "edge_index",
        "edge_shift",
        "graph_index",
        "energies",
    )  # the GraphBatch arrays ``batch`` carries

    task_id: Any
    version: int
    batch: Dict[str, Any]
    n_graphs: int
    ghosts: Tuple[int, int, int]
    result: Optional[ArrayHandle] = None

    def run(self, ctx: WorkerContext) -> Dict[str, Any]:
        from ..graphs.batch import GraphBatch

        start = time.monotonic()
        model = ctx.models[self.version]
        ghost_atoms, ghost_edges, ghost_graphs = self.ghosts
        batch = GraphBatch(
            **{name: np.asarray(ctx._array(ref)) for name, ref in self.batch.items()},
            n_graphs=self.n_graphs,
            ghost_atoms=ghost_atoms,
            ghost_edges=ghost_edges,
            ghost_graphs=ghost_graphs,
        )
        energies = model.predict_energy(batch, compiled=ctx.plan_caches[self.version])
        out: Dict[str, Any] = {
            "task_id": self.task_id,
            "worker": ctx.worker_id,
            "start": start,
            "finish": time.monotonic(),
        }
        if self.result is not None:
            ctx.slab.view(self.result)[...] = energies
        else:
            out["energies"] = np.asarray(energies, dtype=np.float64)
        return out


@dataclass
class GradStep:
    """One rank's forward/backward for one DDP step.

    Parameters stream in through ``params`` (the shared flattened
    parameter segment, written by the driver before each step); the
    flattened gradient streams out through ``grads`` (this rank's private
    segment).  Without a slab both fall back to inline arrays in the
    task/result messages.
    """

    task_id: Any
    rank: int
    batch_indices: Tuple[int, ...]
    capacity: int = 0
    params: Any = None  # ArrayHandle | ndarray (inline)
    grads: Optional[ArrayHandle] = None

    def run(self, ctx: WorkerContext) -> Dict[str, Any]:
        start = time.monotonic()
        state = ctx.ranks[self.rank]
        trainer = state.trainer
        unflatten_into(
            np.asarray(ctx._array(self.params)), [p.data for p in state.params]
        )
        trainer.model.zero_grad()
        batch = trainer._collate(list(self.batch_indices), self.capacity)
        loss = trainer._loss_step(batch)
        grad_flat = np.concatenate(
            [
                (p.grad if p.grad is not None else np.zeros(p.data.shape)).ravel()
                for p in state.params
            ]
        )
        out: Dict[str, Any] = {
            "task_id": self.task_id,
            "worker": ctx.worker_id,
            "rank": self.rank,
            "loss": float(loss),
            "start": start,
            "finish": time.monotonic(),
        }
        if self.grads is not None:
            ctx.slab.view(self.grads)[...] = grad_flat
        else:
            out["grad"] = grad_flat
        return out


@dataclass
class RetainBins:
    """Prune one rank's private collate cache to its epoch bins.

    Ranks collate through :class:`GradStep`, never through
    ``train_epoch_bins``, so the driver sends each rank its bins once an
    epoch and the rank trainer applies
    :meth:`~repro.training.Trainer.retain_bins`.
    """

    task_id: Any
    rank: int
    bins: Any  # the rank's (indices, capacity) bins

    def run(self, ctx: WorkerContext) -> Dict[str, Any]:
        ctx.ranks[self.rank].trainer.retain_bins(self.bins)
        return {"task_id": self.task_id, "worker": ctx.worker_id, "rank": self.rank}


def flatten_params(params) -> np.ndarray:
    """Concatenate parameter arrays in order (the DDP wire format)."""
    return np.concatenate([np.asarray(p.data).ravel() for p in params])


def unflatten_into(flat: np.ndarray, arrays) -> None:
    """Scatter a flat vector back over ``arrays`` in order, in place."""
    offset = 0
    for a in arrays:
        n = a.size
        a[...] = flat[offset : offset + n].reshape(a.shape)
        offset += n
