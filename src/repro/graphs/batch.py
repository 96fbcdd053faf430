"""Mini-batch assembly of molecular graphs.

Graph neural network libraries combine many small graphs into one batch by
stacking adjacency structure block-diagonally (paper Figure 3): atom arrays
are concatenated and edge indices offset so each graph stays an isolated
component.  The batch additionally records *padding*: when the batch is
allocated at a fixed token capacity (the bin size ``C`` of the load
balancer), any capacity not filled by real atoms is zero-padded memory —
the quantity objective (4) of the bin-packing formulation minimizes.

Compiled execution plans (:mod:`repro.runtime`) are specific to array
*shapes*, and every reshuffled training batch has its own.
:func:`pad_to_bucket` rounds a batch's atom, edge and graph extents up
to :func:`bucket_size` with ghost entries that contribute exactly zero,
so the few buckets an epoch visits recur and their plans replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .molecular_graph import MolecularGraph

__all__ = ["GraphBatch", "bucket_size", "collate", "pad_to_bucket"]


def bucket_size(n: int) -> int:
    """Round ``n`` up to its shape bucket.

    Buckets keep the four leading bits of ``n``: the step is
    ``2**(floor(log2 n) - 3)``, so padding stays under 12.5% at any
    scale, with a floor of 8 on the step so small extents (graphs per
    batch, toy systems) still share buckets.  The one rule behind every
    padded shape in the repository, applied by :func:`pad_to_bucket` to
    training batches, served micro-batches and MD force batches alike.
    """
    n = int(n)
    step = max(8, 1 << max(n.bit_length() - 4, 0))
    return -(-n // step) * step


@dataclass
class GraphBatch:
    """A block-diagonal batch of molecular graphs.

    Attributes
    ----------
    positions, species:
        Concatenated per-atom arrays over all member graphs.
    edge_index:
        ``(2, n_edges)`` with per-graph vertex offsets applied.
    edge_shift:
        ``(n_edges, 3)`` periodic shift vectors.
    graph_index:
        ``(n_atoms,)`` id of the member graph owning each atom (for
        per-graph energy pooling).
    n_graphs:
        Number of member graphs.
    energies:
        ``(n_graphs,)`` reference energies (NaN where unlabeled).
    capacity:
        Token capacity the batch was packed into (0 = no fixed capacity).
    ghost_atoms, ghost_edges, ghost_graphs:
        Trailing entries of the atom / edge / graph arrays that are
        bucket padding (:func:`pad_to_bucket`); all zero on an exact
        batch.  ``n_atoms``, ``n_edges`` and ``n_graphs`` are array
        extents and include them.
    edge_sh, edge_radial:
        Parameter-free edge features — spherical harmonics ``(E, d)``
        and Bessel x envelope ``(E, n_basis)`` — attached by
        :meth:`repro.mace.MACE.featurize`, with zero rows on ghost
        edges.  ``None`` until featurized.
    padded:
        Memo slot for batches owned by a
        :class:`~repro.graphs.CollateCache`: ``(model, batch)`` — this
        batch's bucket-padded, featurized form and the model whose edge
        features it carries — kept here by
        :meth:`repro.mace.MACE.padded_twin` so the padded form is
        cached, shared and evicted with the entry.  Cached
        batches are shared objects and are never edited in place: mutate
        the *graphs* and the cache key's fingerprint yields a new batch.
    """

    positions: np.ndarray
    species: np.ndarray
    edge_index: np.ndarray
    edge_shift: np.ndarray
    graph_index: np.ndarray
    n_graphs: int
    energies: np.ndarray
    capacity: int = 0
    ghost_atoms: int = 0
    ghost_edges: int = 0
    ghost_graphs: int = 0
    edge_sh: Optional[np.ndarray] = None
    edge_radial: Optional[np.ndarray] = None
    padded: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def n_atoms(self) -> int:
        """Rows of the atom arrays (ghost atoms included)."""
        return int(self.positions.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def padding(self) -> int:
        """Zero-padded tokens when allocated at ``capacity``."""
        if self.capacity <= 0:
            return 0
        return max(self.capacity - (self.n_atoms - self.ghost_atoms), 0)

    @property
    def padding_fraction(self) -> float:
        """Padding as a fraction of capacity (0 when capacity unset)."""
        if self.capacity <= 0:
            return 0.0
        return self.padding / self.capacity

    def displacement_vectors(self) -> np.ndarray:
        """Edge displacement vectors r_ji = pos[j] + shift - pos[i]."""
        send, recv = self.edge_index
        return self.positions[send] + self.edge_shift - self.positions[recv]


def collate(
    graphs: Sequence[MolecularGraph],
    capacity: int = 0,
) -> GraphBatch:
    """Assemble graphs into one :class:`GraphBatch` (Figure 3's operation).

    Every graph must already carry a neighbor list.  ``capacity`` records
    the bin size used to pack the batch so padding can be accounted.
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
    offsets = np.cumsum(n_atoms) - n_atoms  # per-graph vertex offsets
    energies = np.array(
        [np.nan if g.energy is None else g.energy for g in graphs]
    )
    batch = GraphBatch(
        positions=np.concatenate([g.positions for g in graphs], axis=0),
        species=np.concatenate([g.species for g in graphs], axis=0),
        edge_index=np.concatenate(
            [g.edge_index + off for g, off in zip(graphs, offsets)], axis=1
        ),
        edge_shift=np.concatenate(
            [
                g.edge_shift
                if g.edge_shift is not None
                else np.zeros((g.n_edges, 3))
                for g in graphs
            ],
            axis=0,
        ),
        graph_index=np.repeat(np.arange(len(graphs), dtype=np.int64), n_atoms),
        n_graphs=len(graphs),
        energies=energies,
        capacity=capacity,
    )
    if capacity and batch.n_atoms > capacity:
        raise ValueError(
            f"batch holds {batch.n_atoms} tokens, over capacity {capacity}"
        )
    return batch


def pad_to_bucket(batch: GraphBatch) -> GraphBatch:
    """``batch`` padded to its shape bucket with zero-contribution ghosts.

    Atoms are padded to ``bucket_size(n_atoms)`` with ghost atoms (copies
    of atom 0's species at the origin) that all belong to the first of
    ``bucket_size(n_graphs + 1) - n_graphs`` ghost graphs — at least one,
    so ``ghost_graphs > 0`` marks a padded batch; edges are padded to
    ``bucket_size(n_edges)`` with ghost self-edges on the last atom (a
    real one when the atoms sit exactly at their bucket) with zero
    shift, so every ghost edge has length exactly ``0.0``.  Real entries
    keep their order, so sums over them are unchanged bit for bit;
    ``capacity`` carries over.  Nothing here makes a ghost vanish by
    itself: consumers zero the harmonics of zero-length
    edges (:meth:`repro.mace.MACE.featurize` gives ghost edges zero
    feature rows, the force path masks ``r == 0``), give ghost graphs
    zero loss weight (:class:`repro.training.Trainer`), which makes
    their contributions exactly ``0.0``, and drop ghost graphs' energies
    and ghost atoms' forces (:meth:`repro.mace.MACE.predict_energy`,
    :meth:`repro.mace.MACE.energy_and_forces`).  Ghost graphs carry
    energy ``0.0`` so label checks still see only real ``NaN`` s.
    """
    n_atoms, n_edges, n_graphs = batch.n_atoms, batch.n_edges, batch.n_graphs
    ghost_atoms = bucket_size(n_atoms) - n_atoms
    ghost_edges = bucket_size(n_edges) - n_edges
    ghost_graphs = bucket_size(n_graphs + 1) - n_graphs
    last_atom = n_atoms + ghost_atoms - 1
    return GraphBatch(
        positions=np.concatenate(
            [batch.positions, np.zeros((ghost_atoms, 3), dtype=batch.positions.dtype)]
        ),
        species=np.concatenate(
            [batch.species, np.full(ghost_atoms, batch.species[0])]
        ),
        edge_index=np.concatenate(
            [
                batch.edge_index,
                np.full((2, ghost_edges), last_atom, dtype=batch.edge_index.dtype),
            ],
            axis=1,
        ),
        edge_shift=np.concatenate(
            [
                batch.edge_shift,
                np.zeros((ghost_edges, 3), dtype=batch.edge_shift.dtype),
            ]
        ),
        graph_index=np.concatenate(
            [batch.graph_index, np.full(ghost_atoms, n_graphs, dtype=np.int64)]
        ),
        n_graphs=n_graphs + ghost_graphs,
        energies=np.concatenate([batch.energies, np.zeros(ghost_graphs)]),
        capacity=batch.capacity,
        ghost_atoms=ghost_atoms,
        ghost_edges=ghost_edges,
        ghost_graphs=ghost_graphs,
    )
