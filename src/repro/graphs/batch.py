"""Mini-batch assembly of molecular graphs.

Graph neural network libraries combine many small graphs into one batch by
stacking adjacency structure block-diagonally (paper Figure 3): atom arrays
are concatenated and edge indices offset so each graph stays an isolated
component.

Compiled execution plans (:mod:`repro.runtime`) are specific to array
*shapes*, and every reshuffled training batch has its own.  So a batch
is born bucket-shaped: :func:`collate` allocates its atom, edge and
graph arrays at :func:`bucket_size` extents, writes the member graphs
as a prefix and fills the rest with ghost entries that contribute
exactly zero, so the few buckets an epoch visits recur and their plans
replay.  :meth:`GraphBatch.real` is the exact batch, as views of that
prefix.  The paper's padding (objective 4: a bin filled short of its
capacity ``C``) is a planning quantity and lives in
:func:`repro.distribution.evaluate_bins`; ``collate`` only checks that
a bin's real atoms fit it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .molecular_graph import MolecularGraph

__all__ = ["GraphBatch", "bucket_size", "collate"]


def bucket_size(n: int) -> int:
    """Round ``n`` up to its shape bucket.

    Buckets keep the four leading bits of ``n``: the step is
    ``2**(floor(log2 n) - 3)``, so padding stays under 12.5% at any
    scale, with a floor of 8 on the step so small extents (graphs per
    batch, toy systems) still share buckets.  The one rule behind every
    padded shape in the repository, applied by :func:`collate` to
    training batches, served micro-batches and MD force batches alike.
    """
    n = int(n)
    step = max(8, 1 << max(n.bit_length() - 4, 0))
    return -(-n // step) * step


@dataclass
class GraphBatch:
    """A block-diagonal batch of molecular graphs at its shape bucket.

    Attributes
    ----------
    positions, species:
        Per-atom arrays: the member graphs' atoms, then the ghost atoms.
    edge_index:
        ``(2, n_edges)`` with per-graph vertex offsets applied.
    edge_shift:
        ``(n_edges, 3)`` periodic shift vectors.
    graph_index:
        ``(n_atoms,)`` id of the graph owning each atom (for per-graph
        energy pooling).
    n_graphs:
        Number of graphs, ghost graphs included.
    energies:
        ``(n_graphs,)`` reference energies (NaN where unlabeled).
    ghost_atoms, ghost_edges, ghost_graphs:
        Trailing entries of the atom / edge / graph arrays that are
        bucket padding (see :func:`collate`).  ``n_atoms``, ``n_edges``
        and ``n_graphs`` are array extents and include them;
        :meth:`real` drops them.
    features:
        Edge-feature memo of a :class:`~repro.graphs.CollateCache`-owned
        batch, filled by :meth:`repro.mace.MACE.featurize` and evicted
        with the entry; ``None`` on every other batch, which is
        featurized afresh on every call.  Cached batches are shared and
        never edited in place: mutate the *graphs* and the cache key's
        fingerprint yields a new batch.
    """

    positions: np.ndarray
    species: np.ndarray
    edge_index: np.ndarray
    edge_shift: np.ndarray
    graph_index: np.ndarray
    n_graphs: int
    energies: np.ndarray
    ghost_atoms: int = 0
    ghost_edges: int = 0
    ghost_graphs: int = 0
    features: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def n_atoms(self) -> int:
        """Rows of the atom arrays (ghost atoms included)."""
        return int(self.positions.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def real(self) -> "GraphBatch":
        """The exact batch: every array's real prefix, as views of this
        batch's arrays (no copies), with no ghost entries."""
        a = self.n_atoms - self.ghost_atoms
        e = self.n_edges - self.ghost_edges
        g = self.n_graphs - self.ghost_graphs
        return GraphBatch(
            positions=self.positions[:a],
            species=self.species[:a],
            edge_index=self.edge_index[:, :e],
            edge_shift=self.edge_shift[:e],
            graph_index=self.graph_index[:a],
            n_graphs=g,
            energies=self.energies[:g],
        )

    def displacement_vectors(self) -> np.ndarray:
        """Edge displacement vectors r_ji = pos[j] + shift - pos[i]."""
        send, recv = self.edge_index
        return self.positions[send] + self.edge_shift - self.positions[recv]


def _with_ghosts(parts, extent: int, fill, axis: int = 0) -> np.ndarray:
    """``parts`` concatenated along ``axis`` as the prefix of an array
    ``extent`` long there, whose remaining entries are ``fill``."""
    shape = list(parts[0].shape)
    shape[axis] = extent
    out = np.empty(shape, dtype=np.result_type(*{p.dtype for p in parts}))
    n = sum(p.shape[axis] for p in parts)
    lead = (slice(None),) * axis
    np.concatenate(parts, axis=axis, out=out[lead + (slice(0, n),)])
    out[lead + (slice(n, None),)] = fill
    return out


def collate(
    graphs: Sequence[MolecularGraph],
    capacity: int = 0,
) -> GraphBatch:
    """Assemble graphs into one bucket-shaped :class:`GraphBatch`
    (Figure 3's operation).

    Every graph must already carry a neighbor list.  The member graphs'
    arrays are the prefix of arrays allocated at their shape bucket, and
    the rest are ghosts by one convention:

    - atoms are padded to ``bucket_size(n_atoms)`` with ghost atoms
      (copies of atom 0's species at the origin) that all belong to the
      first of ``bucket_size(n_graphs + 1) - n_graphs`` ghost graphs —
      at least one;
    - edges are padded to ``bucket_size(n_edges)`` with ghost self-edges
      on the last atom (a real one when the atoms sit exactly at their
      bucket) with zero shift, so every ghost edge has length exactly
      ``0.0``;
    - ghost graphs carry energy ``0.0``, so label checks still see only
      real ``NaN`` s.

    Real entries keep their order, so sums over them are unchanged bit
    for bit.  Nothing here makes a ghost vanish by itself: consumers
    zero the harmonics of zero-length edges
    (:meth:`repro.mace.MACE.featurize` gives ghost edges zero feature
    rows, the force path masks ``r == 0``), give ghost graphs zero loss
    weight (:class:`repro.training.Trainer`), which makes their
    contributions exactly ``0.0``, and drop ghost graphs' energies and
    ghost atoms' forces (:meth:`repro.mace.MACE.predict_energy`,
    :meth:`repro.mace.MACE.energy_and_forces`).

    ``capacity`` is the bin size ``C`` the batch was packed into (0 =
    none): a batch whose *real* atoms exceed it raises, whatever its
    bucket.
    """
    if not graphs:
        raise ValueError("cannot collate an empty list of graphs")
    for g_id, g in enumerate(graphs):
        if not g.has_edges:
            raise ValueError(
                f"graph {g_id} ({g.system}) has no neighbor list; "
                "call build_neighbor_list first"
            )
    n_atoms = np.array([g.n_atoms for g in graphs], dtype=np.int64)
    real_atoms = int(n_atoms.sum())
    if capacity and real_atoms > capacity:
        raise ValueError(
            f"batch holds {real_atoms} tokens, over capacity {capacity}"
        )
    real_edges = sum(g.n_edges for g in graphs)
    n_graphs = len(graphs)
    atoms = bucket_size(real_atoms)
    edges = bucket_size(real_edges)
    graph_slots = bucket_size(n_graphs + 1)
    offsets = np.cumsum(n_atoms) - n_atoms  # per-graph vertex offsets
    species = _with_ghosts([g.species for g in graphs], atoms, 0)
    species[real_atoms:] = species[0]  # ghost atoms copy atom 0's species
    return GraphBatch(
        positions=_with_ghosts([g.positions for g in graphs], atoms, 0.0),
        species=species,
        edge_index=_with_ghosts(
            [g.edge_index + off for g, off in zip(graphs, offsets)],
            edges,
            atoms - 1,
            axis=1,
        ),
        edge_shift=_with_ghosts(
            [
                g.edge_shift
                if g.edge_shift is not None
                else np.zeros((g.n_edges, 3))
                for g in graphs
            ],
            edges,
            0.0,
        ),
        graph_index=_with_ghosts(
            [np.repeat(np.arange(n_graphs, dtype=np.int64), n_atoms)],
            atoms,
            n_graphs,
        ),
        n_graphs=graph_slots,
        energies=_with_ghosts(
            [np.array([np.nan if g.energy is None else g.energy for g in graphs])],
            graph_slots,
            0.0,
        ),
        ghost_atoms=atoms - real_atoms,
        ghost_edges=edges - real_edges,
        ghost_graphs=graph_slots - n_graphs,
    )
