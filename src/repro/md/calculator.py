"""Calculators: the bridge between potentials and simulation drivers.

A calculator exposes ``energy_and_forces(graph)``; MD and geometry
optimization are written against this interface so they work with both
the trained MACE model and the synthetic reference potential (useful for
validating the drivers independently of the model).

A calculator's ``neighbor_cache`` (:class:`repro.graphs.NeighborListCache`,
Verlet skin) keeps the edges of the graph it is given exact at every
evaluation while rebuilding the underlying cell list only when an atom
has moved more than ``skin / 2`` since the last build, so
:class:`~repro.md.VelocityVerlet` leaves the edges to it: one refilter a
step.  :class:`MACECalculator` keeps one when given a ``cutoff``;
without one the caller manages neighbor lists.
:class:`ReferenceCalculator`'s ``probe_cache`` serves only its
finite-difference probes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..data.labels import ReferencePotential
from ..graphs.batch import collate
from ..graphs.molecular_graph import MolecularGraph
from ..graphs.pipeline import DEFAULT_SKIN, NeighborListCache
from ..runtime import resolve_plan_cache

__all__ = ["MACECalculator", "ReferenceCalculator"]


class MACECalculator:
    """Energies and forces from a (trained) MACE model.

    The model's autograd graph supplies exact forces ``-dE/dr``; energy
    and forces come from a *single* forward+backward pass
    (:meth:`repro.mace.MACE.energy_and_forces`) on the graph's
    bucket-shaped batch (:func:`repro.graphs.collate`), so the force
    plan is keyed on the batch's shape bucket and every step of a
    trajectory whose edge count stays in one bucket replays it.

    Every call collates the graph's own exact within-cutoff edges.
    With a ``cutoff`` the calculator first refreshes them
    through its Verlet-skin cache, which re-filters the candidates at
    ``cutoff + skin`` every step and rebuilds them only after enough
    drift; the skin sets that rebuild cadence and nothing else, since
    the model never sees a candidate beyond the cutoff.  Without a
    ``cutoff`` the graph must arrive with its edges built.

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
        once per shape bucket and replayed with all batch content as
        replay inputs, falling back to plain eager on any replay-guard
        rejection.  Pass ``None`` to always run eagerly, or an existing
        cache to share it.

    Attributes
    ----------
    edge_capacity:
        Padded edge extent of the last evaluation; 0 before the first.
    """

    def __init__(
        self,
        model,
        cutoff: Optional[float] = None,
        skin: float = DEFAULT_SKIN,
        compiled="auto",
    ) -> None:
        self.model = model
        self.neighbor_cache = (
            NeighborListCache(cutoff, skin) if cutoff is not None else None
        )
        self.plan_cache = resolve_plan_cache(compiled)
        self.edge_capacity = 0

    def energy_and_forces(self, graph: MolecularGraph) -> Tuple[float, np.ndarray]:
        if self.neighbor_cache is not None:
            self.neighbor_cache.update(graph)
        elif not graph.has_edges:
            raise ValueError("graph needs a neighbor list")
        batch = collate([graph])
        if self.neighbor_cache is not None:
            # Calculator-owned: its topology is derived from the cache's
            # candidates, memoized on it and read by the force pass.
            batch.features = {}
            self.model.topology(batch, self.neighbor_cache)
        self.edge_capacity = batch.n_edges
        energies, forces = self.model.energy_and_forces(
            batch, compiled=self.plan_cache
        )
        return float(energies[0]), forces


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
        self.probe_cache = NeighborListCache(self.potential.cutoff, skin=DEFAULT_SKIN)

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
                    self.probe_cache.update(probe)
                    e = self.potential.energy(probe)
                    if slot == 0:
                        e_plus = e
                    else:
                        e_minus = e
                forces[i, d] = -(e_plus - e_minus) / (2.0 * self.eps)
        return energy, forces
