"""Calculators: the bridge between potentials and simulation drivers.

A calculator exposes ``energy_and_forces(graph)``; MD and geometry
optimization are written against this interface so they work with both
the trained MACE model and the synthetic reference potential (useful for
validating the drivers independently of the model).

Both calculators can own a :class:`repro.graphs.NeighborListCache`
(Verlet skin): pass a ``cutoff`` and the calculator keeps the graph's
edges exact at every evaluation while rebuilding the underlying cell
list only when an atom has moved more than ``skin / 2`` since the last
build.  Without a ``cutoff`` the caller manages neighbor lists, as
before.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..data.labels import ReferencePotential
from ..graphs.batch import bucket_size, collate
from ..graphs.molecular_graph import MolecularGraph
from ..graphs.pipeline import DEFAULT_SKIN, NeighborListCache
from ..runtime import resolve_plan_cache

__all__ = ["MACECalculator", "ReferenceCalculator"]


class MACECalculator:
    """Energies and forces from a (trained) MACE model.

    The model's autograd graph supplies exact forces ``-dE/dr``; energy
    and forces come from a *single* forward+backward pass
    (:meth:`repro.mace.MACE.energy_and_forces`).

    Parameters
    ----------
    model:
        A :class:`repro.mace.MACE` instance.
    cutoff:
        When given, the calculator maintains the graph's neighbor list
        itself through a Verlet-skin cache; when ``None`` (default) the
        graph must arrive with edges already built.
    skin:
        Verlet-skin radius of the internal cache (with ``cutoff``).
    compiled:
        Compiled-plan threading (:mod:`repro.runtime`).  The default
        ``"auto"`` gives the calculator a private
        :class:`~repro.runtime.PlanCache`: the force graph is captured
        once per edge set and replayed every MD step with positions as
        the replay input, falling back to eager capture whenever the
        Verlet rebuild changes the edge set (a new shape bucket) and to
        plain eager on any replay-guard rejection.  Pass ``None`` to
        always run eagerly, or an existing cache to share it.
    pad_edges:
        Pad MD batches to capacity buckets so plan hit rates survive
        neighbor-list refilters.  The batch carries the Verlet
        *candidate* edge set (fixed between rebuilds) padded with ghost
        self-edges up to a grow-only :func:`repro.graphs.bucket_size`
        capacity, so the shape buckets a trajectory visits stay few; the
        model masks out-of-cutoff edges so results match the exact edge
        set, while the plan-cache key stays constant between rebuilds
        instead of changing whenever an edge crosses the cutoff.  The
        default ``"auto"`` enables this exactly when the calculator owns
        both a neighbor list and a plan cache (the regime where it
        pays); ``True`` additionally requires ``cutoff``.

    Attributes
    ----------
    edge_capacity:
        Current (grow-only) padded edge capacity; 0 until the first
        padded evaluation.
    """

    def __init__(
        self,
        model,
        cutoff: Optional[float] = None,
        skin: float = DEFAULT_SKIN,
        compiled="auto",
        pad_edges="auto",
    ) -> None:
        self.model = model
        self.neighbor_cache = (
            NeighborListCache(cutoff, skin) if cutoff is not None else None
        )
        self.plan_cache = resolve_plan_cache(compiled)
        if pad_edges == "auto":
            pad_edges = (
                self.neighbor_cache is not None and self.plan_cache is not None
            )
        elif pad_edges and self.neighbor_cache is None:
            raise ValueError(
                "pad_edges needs the calculator-owned neighbor list; pass cutoff"
            )
        self.pad_edges = bool(pad_edges)
        self.edge_capacity = 0
        self._pad_build = -1  # neighbor_cache.rebuilds the padding was built at
        self._pad_batch = None  # collated padded batch, reused between rebuilds

    def energy_and_forces(self, graph: MolecularGraph) -> Tuple[float, np.ndarray]:
        if self.neighbor_cache is not None:
            self.neighbor_cache.update(graph)
        elif not graph.has_edges:
            raise ValueError("graph needs a neighbor list")
        if self.pad_edges:
            batch = self._padded_batch(graph)
        else:
            batch = collate([graph])
        energies, forces = self.model.energy_and_forces(
            batch, compiled=self.plan_cache
        )
        return float(energies[0]), forces

    def _padded_batch(self, graph: MolecularGraph):
        """Collate ``graph`` on its padded candidate edge set.

        The padded arrays are rebuilt only when the Verlet cache
        rebuilds its candidate list; between rebuilds every step sees
        bit-identical edge arrays, so force-plan signatures repeat and
        replays hit.  Ghost edges are self-edges on atom 0 displaced by
        ``2 * cutoff`` — beyond the cutoff, so the model's within-cutoff
        mask zeroes their contribution exactly.
        """
        cache = self.neighbor_cache
        if self._pad_build != cache.rebuilds:
            cand_index, cand_shift = cache.candidate_edges()
            n_cand = cand_index.shape[1]
            self.edge_capacity = max(self.edge_capacity, bucket_size(max(n_cand, 1)))
            pad = self.edge_capacity - n_cand
            ghost_index = np.zeros((2, pad), dtype=cand_index.dtype)
            ghost_shift = np.zeros((pad, 3))
            ghost_shift[:, 0] = 2.0 * cache.cutoff
            padded = MolecularGraph(
                graph.positions,
                graph.species,
                cell=graph.cell,
                pbc=graph.pbc,
                edge_index=np.concatenate([cand_index, ghost_index], axis=1),
                edge_shift=np.concatenate([cand_shift, ghost_shift], axis=0),
                system=graph.system,
            )
            # The collated batch is cached between rebuilds — not just
            # the padded arrays — so the *objects* the model sees stay
            # stable step to step.  The edge arrays are bound as replay
            # inputs; keeping them the same objects preserves the
            # per-index scatter memoization and keeps signature hashing
            # off the hot path's edge content.
            self._pad_batch = collate([padded])
            self._pad_batch.masked_cutoff = cache.cutoff
            self._pad_build = cache.rebuilds
        batch = self._pad_batch
        batch.positions = graph.positions.copy()
        return batch


class ReferenceCalculator:
    """Energies and *numerical* forces from the synthetic reference
    potential (central differences; the potential is cheap and smooth).

    The finite-difference probes displace one coordinate by ``eps`` —
    far below any sensible skin radius — so a Verlet-skin cache turns
    the ``6 n`` neighbor-list rebuilds per force evaluation into one
    build plus cheap distance re-filters, without changing any energy:
    probe edges stay exactly the within-``cutoff`` set.
    """

    def __init__(self, potential: ReferencePotential | None = None, eps: float = 1e-4) -> None:
        self.potential = potential or ReferencePotential()
        self.eps = eps
        self.neighbor_cache = NeighborListCache(
            self.potential.cutoff, skin=DEFAULT_SKIN
        )

    def energy_and_forces(self, graph: MolecularGraph) -> Tuple[float, np.ndarray]:
        if not graph.has_edges:
            raise ValueError("graph needs a neighbor list")
        energy = self.potential.energy(graph)
        forces = np.zeros_like(graph.positions)
        probe = MolecularGraph(
            graph.positions.copy(),
            graph.species.copy(),
            cell=None if graph.cell is None else graph.cell.copy(),
            pbc=graph.pbc,
        )
        for i in range(graph.n_atoms):
            for d in range(3):
                for sign, slot in ((+1, 0), (-1, 1)):
                    probe.positions[...] = graph.positions
                    probe.positions[i, d] += sign * self.eps
                    self.neighbor_cache.update(probe)
                    e = self.potential.energy(probe)
                    if slot == 0:
                        e_plus = e
                    else:
                        e_minus = e
                forces[i, d] = -(e_plus - e_minus) / (2.0 * self.eps)
        return energy, forces
