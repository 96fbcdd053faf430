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

from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Tuple

import numpy as np

from ..autograd.ops import RowIndex, row_index
from .molecular_graph import MolecularGraph

__all__ = [
    "EdgeTopology",
    "GraphBatch",
    "bucket_size",
    "collate",
    "edge_topology",
    "masked_edges",
]


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
        ``(2, n_edges)`` with per-graph vertex offsets applied, in the
        edge layout of :meth:`repro.mace.MACE.featurize`.
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
        Memo of a :class:`~repro.graphs.CollateCache`-owned batch — its
        edge features (:meth:`repro.mace.MACE.featurize`) and its
        :class:`EdgeTopology` (:meth:`repro.mace.MACE.topology`) —
        evicted with the entry; ``None`` on a caller's batch, which is
        featurized and bound afresh on every call.  Cached batches are
        shared and never edited in place: mutate the *graphs* and the
        cache key's fingerprint yields a new batch.
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
    for bit, and edges keep the layout of
    :meth:`repro.mace.MACE.featurize`: real pairs first, then ghost
    pairs.  The real edges are checked against it in O(E), and a
    ``ValueError`` names the first edge that breaks it; edges are never
    re-paired.  Nothing here makes a ghost
    vanish by itself: consumers zero the harmonics of zero-length edges
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
    edge_index = _with_ghosts(
        [g.edge_index + off for g, off in zip(graphs, offsets)], edges, atoms - 1, axis=1
    )
    edge_shift = _with_ghosts(
        [
            g.edge_shift if g.edge_shift is not None else np.zeros((g.n_edges, 3))
            for g in graphs
        ],
        edges,
        0.0,
    )
    check_pairs(edge_index[:, :real_edges], edge_shift[:real_edges])
    return GraphBatch(
        positions=_with_ghosts([g.positions for g in graphs], atoms, 0.0),
        species=species,
        edge_index=edge_index,
        edge_shift=edge_shift,
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


def check_pairs(edge_index, edge_shift) -> None:
    """Raise ``ValueError`` unless edges ``2p`` and ``2p + 1`` are the
    two directions of one pair for every ``p``: ``(send, recv, shift)``
    and ``(recv, send, -shift)``, not a zero-length self-edge (a
    ``None`` shift is zero).  O(E); the message names the first two
    edges that break the layout."""
    send, recv = edge_index
    shift = np.zeros((send.size, 3)) if edge_shift is None else np.asarray(edge_shift)
    n = send.size - send.size % 2
    a, b = slice(0, n, 2), slice(1, n, 2)
    bad = (
        (send[b] != recv[a])
        | (recv[b] != send[a])
        | (shift[b] != -shift[a]).any(axis=1)
        | ((send[a] == recv[a]) & (shift[a] == 0.0).all(axis=1))
    )
    if bad.any():
        e = 2 * int(np.argmax(bad))
        edge = lambda i: f"{i} ({send[i]} -> {recv[i]}, shift {shift[i].tolist()})"
        raise ValueError(
            f"edges {edge(e)} and {edge(e + 1)} are not the two directions of one "
            "pair; edges 2p and 2p + 1 must be (rebuild the neighbor list)"
        )
    if n < send.size:
        raise ValueError(f"edge {n} has no reverse: {send.size} edges is odd")


@dataclass(frozen=True, eq=False)
class EdgeTopology:
    """Every row index of one batch, bound once with its CSR structure.

    A batch's structure — who sends, who receives, which graph and which
    species row each atom has — is fixed for the batch, so each index is
    a :class:`~repro.autograd.ops.RowIndex` whose stable order and row
    pointers are made once, here, and the model's gathers and scatters
    (:meth:`repro.mace.MACE.message_passing`) only wrap them.  Which
    edges pair needs no index: the layout of
    :meth:`repro.mace.MACE.featurize` fixes it by position.

    ``species`` ``(n_atoms,)`` are the model's species rows of each atom
    (over ``n_species``); ``send`` / ``recv`` ``(n_edges,)`` the edge
    endpoints (over ``n_atoms``); ``graph_index`` ``(n_atoms,)`` the
    graph of each atom (over ``n_graphs``).  :meth:`arrays` is the
    plan-input order of all of them and :meth:`bind` reads a topology
    back from a plan's inputs, so every shape is fixed by the batch's
    ``(atoms, edges, graphs)`` bucket.
    """

    species: RowIndex
    send: RowIndex
    recv: RowIndex
    graph_index: RowIndex

    def arrays(self) -> tuple:
        """Each field's ``(index, order, indptr)``, in field order."""
        return tuple(a for f in fields(self) for a in getattr(self, f.name).arrays())

    @classmethod
    def bind(cls, inputs: Sequence) -> Tuple["EdgeTopology", tuple]:
        """The topology whose arrays lead ``inputs`` in :meth:`arrays`
        order (a plan's input Tensors), and the inputs after them."""
        n = 3 * len(fields(cls))
        rows = (RowIndex(*inputs[i : i + 3]) for i in range(0, n, 3))
        return cls(*rows), tuple(inputs[n:])


def edge_topology(
    batch: GraphBatch, species_rows: np.ndarray, n_species: int
) -> EdgeTopology:
    """The :class:`EdgeTopology` of ``batch`` with atoms on the model's
    ``species_rows``: one sort per index, after :func:`check_pairs` on
    the real edges, so a batch edited since :func:`collate` is refused
    too.  Its one caller, :meth:`repro.mace.MACE.topology`, memoizes it."""
    n_real = batch.n_edges - batch.ghost_edges
    check_pairs(batch.edge_index[:, :n_real], batch.edge_shift[:n_real])
    send, recv = batch.edge_index
    return EdgeTopology(
        row_index(species_rows, n_species),
        row_index(send, batch.n_atoms),
        row_index(recv, batch.n_atoms),
        row_index(batch.graph_index, batch.n_graphs),
    )


def masked_edges(
    batch: GraphBatch, within: np.ndarray, send: RowIndex, recv: RowIndex
) -> Tuple[RowIndex, RowIndex]:
    """``batch``'s ``send`` and ``recv`` rows, in O(E) and without a
    sort, when its real edges are the candidate edges ``within`` keeps,
    in candidate order (a one-graph :func:`collate` of a Verlet-skin
    cache's exact edges), and ``send`` / ``recv`` are the candidates'
    bound rows.

    A stable filter of a sorted order stays sorted, and ghost edges, at
    the last atom and after every real edge, sort last.  Each derived
    order is checked by :func:`~repro.autograd.ops.row_index`, so a
    stale input raises ``ValueError`` instead of computing.
    """
    keep = np.flatnonzero(within)
    n_real = batch.n_edges - batch.ghost_edges
    if keep.size != n_real or not within.shape == send.index.shape == recv.index.shape:
        raise ValueError(
            f"{keep.size} of {within.size} candidates kept for {n_real} real edges, "
            f"with {send.index.size} / {recv.index.size} rows"
        )
    at = np.empty(within.size, dtype=np.int64)  # candidate -> edge
    at[keep] = np.arange(n_real)
    ghosts = np.arange(n_real, batch.n_edges)

    def rows(index, candidates: RowIndex) -> RowIndex:
        kept = candidates.order[within[candidates.order]]
        return row_index(index, batch.n_atoms, np.concatenate((at[kept], ghosts)))

    return rows(batch.edge_index[0], send), rows(batch.edge_index[1], recv)
