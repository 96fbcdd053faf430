"""Training loop for MACE on molecular-graph datasets.

Implements the paper's §5.2 training recipe on top of the NumPy autograd
substrate: Adam (lr 0.005), an exponential-moving-average of the weights,
an exponential LR schedule, and a weighted energy loss.  The trainer works
with any batch sampler from :mod:`repro.distribution`, which is exactly
the integration point the paper modifies.

Energy labels are standardized per atom (mean/std over the training set)
so the loss is well-scaled across chemical systems of very different size.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor
from ..autograd.engine import no_grad
from ..data.labels import ReferencePotential, attach_labels
from ..data.stream import StreamingLoader, StreamStats
from ..graphs.batch import EdgeTopology, GraphBatch, collate
from ..graphs.molecular_graph import MolecularGraph
from ..graphs.pipeline import CollateCache
from ..mace import MACE
from ..nn import Adam, ExponentialLR, ExponentialMovingAverage
from ..runtime import resolve_plan_cache

__all__ = ["EnergyScaler", "Trainer", "TrainResult"]


@dataclass
class EnergyScaler:
    """Per-atom energy standardization fitted on the training set."""

    mean_per_atom: float = 0.0
    std_per_atom: float = 1.0

    @classmethod
    def fit(cls, graphs: Sequence[MolecularGraph]) -> "EnergyScaler":
        per_atom = np.array(
            [g.energy / g.n_atoms for g in graphs if g.energy is not None]
        )
        if per_atom.size == 0:
            raise ValueError("no labeled graphs to fit the scaler")
        std = float(per_atom.std())
        return cls(float(per_atom.mean()), std if std > 1e-12 else 1.0)

    @classmethod
    def fit_index(cls, index) -> "EnergyScaler":
        """Fit from a :class:`repro.data.SizeIndex` without payload reads.

        Element-for-element the same float64 operations as :meth:`fit`
        (scalar and vectorized IEEE division/mean/std agree bitwise), so
        a streamed trainer's scaler — and therefore its losses — matches
        the in-memory trainer exactly.
        """
        labeled = np.isfinite(index.energy)
        if not labeled.any():
            raise ValueError("no labeled structures in the size index")
        per_atom = index.energy[labeled] / index.n_atoms[labeled]
        std = float(per_atom.std())
        return cls(float(per_atom.mean()), std if std > 1e-12 else 1.0)

    def normalize(self, energies: np.ndarray, n_atoms: np.ndarray) -> np.ndarray:
        """Graph energies -> standardized per-atom targets."""
        return (energies / n_atoms - self.mean_per_atom) / self.std_per_atom

    def denormalize(self, targets: np.ndarray, n_atoms: np.ndarray) -> np.ndarray:
        """Standardized per-atom predictions -> graph energies."""
        return (targets * self.std_per_atom + self.mean_per_atom) * n_atoms


@dataclass
class TrainResult:
    """Loss trajectory of one training run."""

    epoch_losses: List[float] = field(default_factory=list)
    val_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs trained")
        return self.epoch_losses[-1]


class Trainer:
    """Energy-loss trainer reproducing the paper's §5.2 recipe.

    Parameters
    ----------
    model:
        A :class:`repro.mace.MACE` instance.
    graphs:
        Labeled training graphs (with neighbor lists), fully resident in
        memory.  Mutually exclusive with ``dataset``.
    dataset:
        A :class:`repro.data.ShardedDataset` for out-of-core training:
        label/edge validation and scaler fitting run from its size index
        (no payload reads at construction), and ``fit`` /
        ``train_epoch_bins`` build batches on a forked fetch worker,
        ``prefetch_depth`` batches ahead of compute.  Losses are
        byte-identical to an in-memory trainer over the same structures
        (``tests/test_store.py::TestStreamedTrainer``).  A dataset passed
        positionally as ``graphs`` is routed here automatically.
    prefetch_depth:
        Batches a streamed epoch reads from its fetch worker ahead of
        compute (2 = double buffering).
    lr:
        Learning rate (paper: 0.005).
    lr_gamma:
        Per-epoch exponential LR decay.
    ema_decay:
        Exponential-moving-average decay of the weights.
    loss_weighting:
        ``"per_atom"`` weights each graph by ``1 / n_atoms`` (the weighted
        loss of §5.2, preventing huge systems from dominating) or
        ``"uniform"``.
    collate_cache:
        :class:`repro.graphs.CollateCache` threading.  The default
        ``"auto"`` gives the trainer its own private cache, so ``fit``,
        ``train_epoch_bins``, ``train_step`` and ``evaluate`` reuse
        collated batches out of the box.  Retention rule of the private
        cache (:meth:`retain_bins`; each ``train_epoch_bins`` call and
        each DDP rank's epoch run it first): drop this dataset's
        batches whose bin is not in its plan, keeping ``evaluate``'s
        full-set batch — a plan that does not shuffle hits on every epoch
        past the first, while a reshuffled plan (which almost never
        repeats a bin) holds one epoch's batches instead of up to
        ``maxsize``.  Pass an existing cache to share it (it is never
        pruned) or ``None`` to disable caching.
        The key's geometry/label fingerprint makes in-place *graph*
        mutation a miss, never a stale read, and the loss is invariant to
        member order within a batch, so caching does not change training.
        Each cached batch is bucket-shaped and memoizes its edge
        features (``GraphBatch.features``), so a hit is ready to replay;
        cached batches are shared and must not be edited in place — edit
        the graphs.
    plan_cache:
        :class:`repro.runtime.PlanCache` threading for compiled
        loss-step execution.  The default ``"auto"`` gives the trainer a
        private cache holding one plan per *shape bucket*: every batch
        is born at its ``(atoms, edges, graphs)`` bucket
        (:func:`repro.graphs.collate`) and everything that is
        batch *content* — species, edge and graph indices, the edge
        features, per-graph counts / targets / loss weights — is bound
        as a replay input.  The first step on a bucket runs eagerly
        while recording; every later batch of that shape, whatever its
        composition, replays the compiled plan — no tape construction,
        a precompiled backward into reused gradient buffers.  Reshuffled
        epochs therefore replay a handful of plans instead of
        recapturing every batch.  Shape, dtype or parameter drift fails
        the replay guard and falls back to eager — never a stale replay.
        Pass ``None`` to always run eagerly.
    """

    def __init__(
        self,
        model: MACE,
        graphs: Optional[Sequence[MolecularGraph]] = None,
        lr: float = 5e-3,
        lr_gamma: float = 0.98,
        ema_decay: float = 0.99,
        loss_weighting: str = "per_atom",
        collate_cache="auto",
        plan_cache="auto",
        dataset=None,
        prefetch_depth: int = 2,
    ) -> None:
        if loss_weighting not in ("per_atom", "uniform"):
            raise ValueError(f"unknown loss weighting {loss_weighting!r}")
        self.model = model
        # A ShardedDataset passed positionally routes to the dataset path
        # (duck-typed on its size index), so call sites that forward
        # `trainer.graphs` — worker SetupRank, DDP — stream transparently.
        if dataset is None and graphs is not None and hasattr(graphs, "size_index"):
            dataset, graphs = graphs, None
        self.dataset = dataset
        if dataset is not None:
            if graphs is not None:
                raise ValueError("pass graphs or dataset, not both")
            # Out-of-core path: validation and scaler fitting come from
            # the size index — setup cost is payload-free and the fitted
            # scaler is bitwise-equal to the in-memory EnergyScaler.fit.
            index = dataset.size_index
            if not dataset.edges_built:
                raise ValueError(
                    "dataset was packed without neighbor lists; re-pack with edges"
                )
            unlabeled = ~np.isfinite(index.energy)
            if unlabeled.any():
                raise ValueError(
                    f"{int(unlabeled.sum())} structures have no energy label"
                )
            self.graphs = dataset
            self.scaler = EnergyScaler.fit_index(index)
        else:
            if graphs is None:
                raise ValueError("Trainer needs graphs or dataset")
            # Keep the caller's list object when possible: the collate cache
            # keys on dataset identity, so sharing one cache between this
            # trainer and the caller requires both to see the same list.
            # The list is treated as owned by the trainer —
            # mutating it after construction bypasses the label validation
            # below (appended unlabeled graphs are caught per-batch in
            # _collate; replaced graphs must be followed by cache.clear()).
            self.graphs = graphs if isinstance(graphs, list) else list(graphs)
            for i, g in enumerate(self.graphs):
                if g.energy is None:
                    raise ValueError(f"graph {i} has no energy label")
                if not g.has_edges:
                    raise ValueError(f"graph {i} has no neighbor list")
            self.scaler = EnergyScaler.fit(self.graphs)
        self.optimizer = Adam(model.parameters(), lr=lr)
        self.scheduler = ExponentialLR(self.optimizer, gamma=lr_gamma)
        self.ema = ExponentialMovingAverage(model, decay=ema_decay)
        self.loss_weighting = loss_weighting
        self._owns_collate_cache = collate_cache == "auto"
        if self._owns_collate_cache:
            collate_cache = CollateCache()
        self.collate_cache = collate_cache
        self.plan_cache = resolve_plan_cache(plan_cache)
        self.prefetch_depth = int(prefetch_depth)
        self.stream_stats = StreamStats()

    # -- batching -----------------------------------------------------------------

    def _collate(self, batch_indices: Sequence[int], capacity: int = 0) -> GraphBatch:
        """Collate a mini-batch, through the cache when one is attached.

        ``capacity`` is the bin size the plan packed the batch into; it is
        part of the cache key and bounds the batch's real atoms.
        """
        return self._resolve(self._prepare(batch_indices, capacity))

    def _prepare(self, batch_indices: Sequence[int], capacity: int = 0) -> tuple:
        """``(key, batch)``: ``batch`` is ``None`` if the cache holds
        ``key``, else collated with a cached batch's features and topology
        memoized (``key`` is ``None`` without a cache).  It leaves the
        cache as it is, so a streamed epoch runs it on its fetch worker."""
        cache = self.collate_cache
        if cache is None:
            graphs = [self.graphs[i] for i in batch_indices]
            return None, self._checked(collate(graphs, capacity=capacity))
        key = cache.key(self.graphs, batch_indices, capacity)
        return key, None if key in cache else self._checked(cache.build(self.graphs, key))

    def _checked(self, batch: GraphBatch) -> GraphBatch:
        # Init-time validation doesn't cover graphs appended to the list
        # afterwards; fail loudly instead of training on NaN targets.
        if np.isnan(batch.energies).any():
            raise ValueError(
                "batch contains graphs without energy labels "
                "(dataset mutated after Trainer construction?)"
            )
        if batch.features is not None:  # a cached batch: fill its memo now
            self.model.message_inputs(batch)
        return batch

    def _resolve(self, prepared: tuple) -> GraphBatch:
        """A :meth:`_prepare` result's batch: cached on a hit, else inserted."""
        key, batch = prepared
        if key is None:
            return batch
        cache = self.collate_cache
        hit = cache.lookup(key)
        if hit is not None:
            return hit
        if batch is None:  # evicted since a fetch worker's snapshot
            batch = self._checked(cache.build(self.graphs, key))
        return cache.insert(key, batch)

    # -- loss ---------------------------------------------------------------------

    def _loss_inputs(self, batch: GraphBatch) -> Tuple[np.ndarray, ...]:
        """The content arrays a loss graph is a function of, in plan-input
        order: the model's :meth:`~repro.mace.MACE.message_inputs`, then
        per-graph atom counts, standardized targets and normalized loss
        weights.  Ghost graphs get count 1 (no 0/0), target 0 and
        weight 0.
        """
        n_real = batch.n_graphs - batch.ghost_graphs
        counts = np.maximum(
            np.bincount(batch.graph_index, minlength=batch.n_graphs), 1
        ).astype(np.float64)
        target = self.scaler.normalize(batch.energies, counts)
        weights = 1.0 / counts if self.loss_weighting == "per_atom" else np.ones_like(counts)
        target[n_real:] = 0.0
        weights[n_real:] = 0.0
        return self.model.message_inputs(batch) + (
            counts,
            target,
            weights / weights.sum(),
        )

    def _batch_loss(
        self, batch: GraphBatch, inputs: Optional[Sequence[Tensor]] = None
    ) -> Tensor:
        """Weighted-MSE loss graph of ``batch`` over its content ``inputs``
        (default: fresh constant tensors of :meth:`_loss_inputs`).  Only
        array *shapes* and the graph count are read off ``batch`` itself,
        so a plan recorded here serves every batch of the same bucket.
        """
        if inputs is None:
            inputs = tuple(Tensor(a) for a in self._loss_inputs(batch))
        topology, (Y, basis, counts, target, weights) = EdgeTopology.bind(inputs)
        energies = self.model.message_passing(topology, Y, basis)
        pred_norm = (energies / counts - self.scaler.mean_per_atom) / self.scaler.std_per_atom
        diff = pred_norm - target
        return (weights * diff * diff).sum()

    def _loss_step(self, batch: GraphBatch, with_grads: bool = True) -> float:
        """Loss of one batch, through the compiled-plan cache when attached.

        With ``with_grads`` the parameters' ``.grad`` is populated (the
        compiled replay overwrites it — callers zero first, as both step
        entry points do).  The plan key is the batch's *shape bucket* —
        the shapes and dtypes of its content inputs — plus what the
        recorded graph burns in (model identity, scaler, loss
        weighting); the content itself is rebound on every replay, so
        any batch of a seen bucket replays.  A guard-rejected replay
        (:class:`~repro.runtime.PlanStale`, e.g. a parameter array
        swapped to a new shape/dtype) invalidates the entry and falls
        back to eager.

        ``batch`` is taken as it is.  Its species and labels are read
        live; its edge features come from
        :meth:`repro.mace.MACE.featurize`, memoized on a cached batch and
        evaluated afresh on a caller's — nothing is remembered about a
        caller's batch, so one edited between two steps trains on its new
        content.
        """
        arrays = self._loss_inputs(batch)

        def eager():
            inputs = tuple(Tensor(a) for a in arrays)
            loss = self._batch_loss(batch, inputs)
            if with_grads:
                loss.backward()
            return ([loss.data], []), dict(
                outputs=(loss,), seed=loss, inputs=inputs, owner=self.model
            )

        cache = self.plan_cache
        if cache is None:
            with contextlib.nullcontext() if with_grads else no_grad():
                (outputs, _), _ = eager()
        else:
            key = (
                "loss",
                self.model,
                self.loss_weighting,
                self.scaler.mean_per_atom,
                self.scaler.std_per_atom,
            )
            outputs, _ = cache.run(key, arrays, eager, compute_grads=with_grads)
        return float(outputs[0])

    # -- steps --------------------------------------------------------------------

    def train_batch(self, batch: GraphBatch) -> float:
        """One optimizer step on an already-collated batch.

        The compute half of :meth:`train_step`; the streaming path feeds
        it batches built on the fetch worker.
        """
        self.optimizer.zero_grad()
        loss = self._loss_step(batch)
        self.optimizer.step()
        self.ema.update()
        return loss

    def train_step(self, batch_indices: Sequence[int], capacity: int = 0) -> float:
        """One optimizer step on one mini-batch; returns the loss."""
        return self.train_batch(self._collate(batch_indices, capacity))

    # -- epochs -------------------------------------------------------------------

    def retain_bins(self, bins: Sequence[tuple]) -> None:
        """Apply the private collate cache's retention rule (see
        ``collate_cache``) for one epoch's ``(indices, capacity)`` bins;
        a cache passed in is never pruned, but it learns the dataset's
        token, which a fetch worker's keys then carry."""
        if self._owns_collate_cache:
            self.collate_cache.retain(
                self.graphs, list(bins) + [(range(len(self.graphs)), 0)]
            )
        elif self.collate_cache is not None:
            self.collate_cache.token(self.graphs)

    def train_epoch_bins(self, bins: Sequence[tuple]) -> List[float]:
        """One pass over an epoch plan's ``(indices, capacity)`` bins.

        With a ``dataset`` attached and a bin not cached, :meth:`_prepare`
        runs on a fetch worker forked for the epoch after
        :meth:`retain_bins` and joined before this returns
        (:class:`~repro.data.StreamingLoader`), and :meth:`_resolve` on the
        driver, ``prefetch_depth`` batches ahead of ``train_batch``; the
        collate cache sees the serial lookups, so losses and counters are
        the serial ones.  With every bin cached only keys are left to
        compute, cheaper here than a fork and its copy-on-write faults.
        Overlap counters accumulate into ``stream_stats``.  Does **not**
        advance the scheduler — epoch drivers (``fit``) own that.
        """
        plan = [(indices, cap) for indices, cap in bins if indices]
        self.retain_bins(plan)
        cache = self.collate_cache
        cached = cache is not None and cache.holds(self.graphs, plan)
        if self.dataset is None or len(plan) <= 1 or cached:
            return [self.train_step(indices, cap) for indices, cap in plan]
        loader = StreamingLoader(plan, self._prepare, depth=self.prefetch_depth)
        try:
            losses = [self.train_batch(self._resolve(item)) for _, item in loader]
        finally:
            loader.close()
            self.stream_stats.merge(loader.stats)
        return losses

    def evaluate(self, graphs: Optional[Sequence[MolecularGraph]] = None) -> float:
        """Weighted MSE on a validation set (default: training graphs).

        With a ``collate_cache`` attached, the default (training-set)
        evaluation batch is memoized instead of re-collated on every
        call: repeated ``evaluate()`` calls between epochs hit the cache,
        and the key's geometry/label fingerprint invalidates the entry
        automatically when any member graph is mutated or replaced in
        place.  Explicitly passed validation sets are collated directly —
        memoizing caller-constructed lists (often a fresh object per
        call) would only churn the cache's bounded dataset registry; to
        memoize a long-lived external validation set, query the cache
        yourself with ``cache.get(val_graphs, range(len(val_graphs)))``.
        """
        if graphs is None:
            graphs = self.graphs
        if graphs is self.graphs:
            batch = self._collate(range(len(graphs)))
        else:
            batch = collate(list(graphs))
        # The compiled path replays (or captures) forward-only; explicit
        # validation sets ride through too, featurized per call, and
        # share the plan of their shape bucket.
        return self._loss_step(batch, with_grads=False)

    def freeze_representation(self) -> int:
        """Fine-tuning mode: keep only the readout heads and per-species
        energies trainable (the CFM fine-tuning workflow of §1 — reuse the
        learned representation, adapt the prediction heads to a new task).

        Returns the number of parameters remaining trainable and rebuilds
        the optimizer state over them.
        """
        keep_prefixes = ("readout", "species_energy", "energy_scale")
        trainable = [
            p
            for name, p in self.model.named_parameters()
            if name.startswith(keep_prefixes)
        ]
        if not trainable:
            raise ValueError("no readout parameters found to fine-tune")
        lr = self.optimizer.lr
        self.optimizer = Adam(trainable, lr=lr)
        self.scheduler = ExponentialLR(self.optimizer, gamma=self.scheduler.gamma)
        return sum(p.size for p in trainable)

    def fit(
        self,
        sampler,
        n_epochs: int,
        rank: int = 0,
        verbose: bool = False,
    ) -> TrainResult:
        """Train ``n_epochs`` on rank ``rank``'s share of a distribution
        sampler's epoch plans (``sampler.plan_rank_bins``).
        """
        result = TrainResult()
        for epoch in range(n_epochs):
            losses = self.train_epoch_bins(sampler.plan_rank_bins(epoch, rank))
            self.scheduler.step()
            loss = float(np.mean(losses))
            result.epoch_losses.append(loss)
            if verbose:
                print(f"epoch {epoch:3d}  loss {loss:.6f}")
        return result
