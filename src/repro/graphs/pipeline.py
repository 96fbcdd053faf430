"""Cached graph pipeline: Verlet-skin neighbor lists and batch reuse.

The load balancer (Algorithm 1) only pays off when mini-batch
*construction* — neighbor lists, block-diagonal collation at the batch's
shape bucket — is not itself the bottleneck.  This module adds the two
caches that take batch construction off the hot path:

* :class:`NeighborListCache` — a Verlet-skin neighbor list.  The list is
  built once at ``cutoff + skin`` and each query merely *filters* the
  cached candidate edges down to the true ``cutoff`` with current
  positions.  **Invalidation rule:** a full rebuild happens only when any
  atom has moved more than ``skin / 2`` from its position at build time
  (then a pair outside the candidate set could have entered the cutoff),
  or when the system itself changes (atom count, species, cell, pbc).
  The filtered edge set is always *identical* to a fresh build at
  ``cutoff`` — the skin trades a cheap O(E) distance filter per query for
  an O(n) grid rebuild every few MD steps.  The candidates keep the
  edge layout of :meth:`repro.mace.MACE.featurize` and the filter keeps
  pairs whole, so the exact edges keep it too.  The candidates' sender /
  receiver orders are made once per rebuild, on the first
  :meth:`NeighborListCache.topology` request, and each step's
  :class:`~repro.graphs.EdgeTopology` is derived from them by the same
  cutoff mask (:func:`~repro.graphs.batch.masked_edges`).

* :class:`CollateCache` — an LRU cache of materialized
  :class:`~repro.graphs.batch.GraphBatch` objects keyed on dataset
  identity (the ``is``-identity of the graph list), *bin composition*
  (the sorted tuple of dataset indices), capacity, and a *fingerprint*
  (digest of each member's positions/cell/species/edge count and
  energy/forces labels), so one cache can serve several datasets
  (train/validation) without index collisions.  An epoch plan that does
  not shuffle repeats its compositions every epoch, so training loops
  reuse collated batches instead of re-concatenating the same arrays; a
  reshuffled plan almost never repeats a bin, so a trainer keeps only
  its current epoch's bins (:meth:`CollateCache.retain`).  Member graphs
  are collated in sorted-index order, so two bins with the same
  composition share one batch regardless of the order the sampler listed
  them in — all consumers (loss, metrics) are invariant to member order
  within a batch.
  Because the fingerprint is part of the key, active-learning loops that
  mutate graphs *in place* (new positions, replaced cells, relabeled
  energies/forces) can never silently read a stale batch: a mutated
  member simply misses, is re-collated, and the superseded entry is
  evicted on the spot.  :meth:`CollateCache.clear` remains available to
  free all memory at once.

An entry is one bucket-shaped batch (:func:`~repro.graphs.collate`)
plus the memo of its edge features and its
:class:`~repro.graphs.EdgeTopology` (``GraphBatch.features``, filled by
:meth:`repro.mace.MACE.featurize`), so a hit hands every consumer the
arrays its compiled plan binds without re-collating, re-featurizing or
sorting an index.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..autograd.ops import RowIndex, row_index
from .batch import EdgeTopology, GraphBatch, collate, masked_edges
from .molecular_graph import MolecularGraph
from .neighborlist import DEFAULT_CUTOFF, build_neighbor_list

__all__ = ["NeighborListCache", "CollateCache", "DEFAULT_SKIN"]

DEFAULT_SKIN = 0.6  # Angstrom; a typical MD Verlet-skin radius

# Auto-skin tuning: aim for roughly this many queries between full grid
# rebuilds.  A rebuild triggers when the max drift exceeds skin/2, and a
# system drifting d per step rebuilds every ~skin / (2 d) steps, so the
# tuned skin is 2 * target * d (clamped; see NeighborListCache).
_AUTO_SKIN_TARGET_STEPS = 20
_AUTO_SKIN_MIN = 0.1
_AUTO_SKIN_MAX = 2.0
_AUTO_SKIN_EMA = 0.3  # weight of the newest per-step displacement sample


def _geometry_fingerprint(graph: MolecularGraph) -> bytes:
    """Digest of a graph's geometry, labels and edge content.

    Hashing is O(n_atoms + n_edges) — far cheaper than collation — so
    recomputing it on every cache lookup keeps the hit path fast while
    making in-place mutation visible to :class:`CollateCache`.
    Positions, cell, species and labels are hashed byte-exact.  The edge
    arrays (which dominate the byte count) enter through their count plus
    vectorized wraparound sum / sum-of-squares checksums rather than a
    byte hash, so a neighbor-list rebuild at a different cutoff is caught
    even when the edge *count* happens to be preserved — two distinct
    edge sets would have to collide in all four checksums at once, which
    does not happen short of an engineered collision.  Labels are
    included because collated batches carry them — a relabeling loop at
    fixed geometry must also miss, not read stale energies.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(graph.positions).tobytes())
    h.update(np.ascontiguousarray(graph.species).tobytes())
    h.update(graph.n_edges.to_bytes(8, "little", signed=False))
    if graph.edge_index is not None:
        ei = graph.edge_index.astype(np.uint64, copy=False)
        h.update(np.uint64(ei.sum()).tobytes())
        h.update(np.uint64((ei * ei).sum()).tobytes())
    if graph.edge_shift is not None and graph.edge_shift.size:
        es = graph.edge_shift
        h.update(es.sum(axis=0).tobytes())
        h.update(np.float64(np.abs(es).sum()).tobytes())
    # Optional fields are tagged so present/absent states cannot alias.
    if graph.cell is not None:
        h.update(b"C")
        h.update(np.ascontiguousarray(graph.cell).tobytes())
    if graph.energy is not None:
        h.update(b"E")
        h.update(np.float64(graph.energy).tobytes())
    if graph.forces is not None:
        h.update(b"F")
        h.update(np.ascontiguousarray(graph.forces).tobytes())
    return h.digest()


class NeighborListCache:
    """Verlet-skin neighbor-list cache for trajectories.

    Parameters
    ----------
    cutoff:
        True interaction cutoff; returned edges are exactly those within
        it (the cache is invisible to consumers).
    skin:
        Extra candidate radius.  Larger skins rebuild less often but
        filter more candidate edges per query; 0 disables caching (every
        query is a full rebuild).  Pass ``"auto"`` to let the cache tune
        the skin itself from the observed per-query maximum displacement:
        hot (fast-moving) systems get a larger skin so rebuilds stay
        roughly ``_AUTO_SKIN_TARGET_STEPS`` queries apart, cold systems
        get a small skin so each query filters fewer candidate edges.
        The tuned radius is re-derived at every rebuild from an
        exponential moving average of the per-step drift, clamped to
        ``[0.1, 2.0]`` Angstrom.
    method:
        Neighbor-list method forwarded to
        :func:`~repro.graphs.neighborlist.build_neighbor_list`.

    Attributes
    ----------
    queries, rebuilds:
        Statistics counters; ``rebuilds <= queries`` and the gap is the
        work the skin saved.
    skin:
        The current skin radius (mutates between rebuilds in auto mode).
    """

    def __init__(
        self,
        cutoff: float = DEFAULT_CUTOFF,
        skin=DEFAULT_SKIN,
        method: str = "auto",
    ) -> None:
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.auto_skin = skin == "auto"
        if self.auto_skin:
            skin = DEFAULT_SKIN
        if not isinstance(skin, (int, float)):
            raise ValueError("skin must be a number or 'auto'")
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.method = method
        self.queries = 0
        self.rebuilds = 0
        self._ref_positions: Optional[np.ndarray] = None
        self._ref_species: Optional[np.ndarray] = None
        self._ref_cell: Optional[np.ndarray] = None
        self._ref_pbc: bool = False
        self._cand_index: Optional[np.ndarray] = None
        self._cand_shift: Optional[np.ndarray] = None
        self._prev_positions: Optional[np.ndarray] = None
        self._step_drift_ema: Optional[float] = None
        self._within: Optional[np.ndarray] = None  # the last query's cutoff mask
        self._cand_rows = None  # the candidates' (send rows, recv rows)
        self._atom_rows: Dict[str, RowIndex] = {}

    # -- invalidation ---------------------------------------------------------------

    def _needs_rebuild(self, graph: MolecularGraph) -> bool:
        ref = self._ref_positions
        if ref is None or self.skin == 0.0:
            return True
        if graph.n_atoms != ref.shape[0]:
            return True
        if not np.array_equal(graph.species, self._ref_species):
            return True
        if graph.pbc != self._ref_pbc:
            return True
        if (graph.cell is None) != (self._ref_cell is None):
            return True
        if graph.cell is not None and not np.array_equal(graph.cell, self._ref_cell):
            return True
        disp2 = np.einsum(
            "ij,ij->i", graph.positions - ref, graph.positions - ref
        )
        return bool(disp2.max(initial=0.0) > (self.skin * 0.5) ** 2)

    # -- query ----------------------------------------------------------------------

    def _observe_drift(self, graph: MolecularGraph) -> None:
        """Update the per-query displacement EMA (auto-skin mode)."""
        prev = self._prev_positions
        if prev is not None and prev.shape == graph.positions.shape:
            disp2 = np.einsum(
                "ij,ij->i", graph.positions - prev, graph.positions - prev
            )
            step = float(np.sqrt(disp2.max(initial=0.0)))
            if self._step_drift_ema is None:
                self._step_drift_ema = step
            else:
                self._step_drift_ema = (
                    _AUTO_SKIN_EMA * step
                    + (1.0 - _AUTO_SKIN_EMA) * self._step_drift_ema
                )
        self._prev_positions = graph.positions.copy()

    def _retune_skin(self) -> None:
        """Pick the skin for the next build window from the observed drift."""
        if self._step_drift_ema is None:
            return  # nothing observed yet; keep the current skin
        tuned = 2.0 * _AUTO_SKIN_TARGET_STEPS * self._step_drift_ema
        self.skin = float(np.clip(tuned, _AUTO_SKIN_MIN, _AUTO_SKIN_MAX))

    def update(self, graph: MolecularGraph) -> bool:
        """Attach exact-``cutoff`` edges to ``graph``; returns whether a
        full rebuild was performed (False = cached candidates reused)."""
        self.queries += 1
        if self.auto_skin:
            self._observe_drift(graph)
        rebuilt = self._needs_rebuild(graph)
        if rebuilt:
            self.rebuilds += 1
            if self.auto_skin:
                self._retune_skin()
            build_neighbor_list(
                graph, cutoff=self.cutoff + self.skin, method=self.method
            )
            self._cand_index = graph.edge_index
            self._cand_shift = (
                graph.edge_shift
                if graph.edge_shift is not None
                else np.zeros((graph.n_edges, 3))
            )
            self._ref_positions = graph.positions.copy()
            self._ref_species = graph.species.copy()
            self._ref_cell = None if graph.cell is None else graph.cell.copy()
            self._ref_pbc = graph.pbc
            self._cand_rows = None
        # One test per pair, on its even edge; both edges stay or go.
        send, recv = self._cand_index[:, 0::2]
        delta = graph.positions[send] - graph.positions[recv] + self._cand_shift[0::2]
        within = np.einsum("ij,ij->i", delta, delta) <= self.cutoff * self.cutoff
        within = np.repeat(within, 2)
        graph.edge_index = self._cand_index[:, within]
        graph.edge_shift = self._cand_shift[within]
        self._within = within
        return rebuilt

    def topology(
        self, batch: GraphBatch, species_rows: np.ndarray, n_species: int
    ) -> EdgeTopology:
        """The :class:`~repro.graphs.EdgeTopology` of ``batch``, the
        one-graph :func:`~repro.graphs.collate` of the graph this cache
        last updated, with atoms on the model's ``species_rows``.

        The first request after a rebuild sorts the candidates' senders
        and receivers; every request derives the exact set's edge rows
        from those by the last cutoff mask, in O(E) with no sort, checked
        before use (:func:`~repro.graphs.batch.masked_edges`).  The
        species and graph rows are bound again only when their content
        changes.
        """
        if self._cand_rows is None:
            n_atoms = self._ref_positions.shape[0]
            self._cand_rows = tuple(row_index(i, n_atoms) for i in self._cand_index)
        return EdgeTopology(
            self._bound_atoms("species", species_rows, n_species),
            *masked_edges(batch, self._within, *self._cand_rows),
            self._bound_atoms("graph_index", batch.graph_index, batch.n_graphs),
        )

    def _bound_atoms(self, name: str, index: np.ndarray, n_rows: int) -> RowIndex:
        """``index`` bound to its rows, reusing the last binding of ``name``
        while its content, dtype and row count are unchanged."""
        rows = self._atom_rows.get(name)
        if not (
            rows is not None
            and rows.n_rows == n_rows
            and rows.index.dtype == index.dtype
            and np.array_equal(rows.index, index)
        ):
            rows = self._atom_rows[name] = row_index(index, n_rows)
        return rows

    @property
    def reuse_fraction(self) -> float:
        """Fraction of queries served without a rebuild."""
        if self.queries == 0:
            return 0.0
        return 1.0 - self.rebuilds / self.queries


class CollateCache:
    """LRU cache of collated :class:`GraphBatch` objects.

    Parameters
    ----------
    maxsize:
        Maximum number of cached batches (least-recently-used eviction);
        ``None`` means unbounded.
    max_datasets:
        Maximum number of distinct graph lists tracked at once.  Keys
        include a dataset-identity token, and the cache pins a strong
        reference to each tracked list so its ``is``-identity stays
        valid; when the bound is exceeded the least-recently-used
        dataset is dropped together with all its cached batches.

    Attributes
    ----------
    hits, misses:
        Statistics counters.
    """

    def __init__(
        self, maxsize: Optional[int] = 1024, max_datasets: int = 8
    ) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None)")
        if max_datasets <= 0:
            raise ValueError("max_datasets must be positive")
        self.maxsize = maxsize
        self.max_datasets = max_datasets
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[Tuple, GraphBatch]" = OrderedDict()
        # token -> dataset, in recency order.  Tokens are never reused,
        # so evicting a dataset cannot alias a later one's keys.
        self._datasets: "OrderedDict[int, Sequence[MolecularGraph]]" = OrderedDict()
        self._next_token = 0
        # (token, composition, capacity) -> current full key, so a miss
        # caused by a fingerprint change evicts the superseded entry
        # immediately instead of leaving it to age out of the LRU.
        self._current: Dict[Tuple, Tuple] = {}

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Tuple) -> bool:
        """Whether ``key`` is cached; neither counted nor refreshed."""
        return key in self._store

    def token(self, graphs: Sequence[MolecularGraph]) -> int:
        """The dataset's token in this cache's keys, registering it on
        first sight."""
        for token, known in self._datasets.items():
            if known is graphs:
                self._datasets.move_to_end(token)
                return token
        token = self._next_token
        self._next_token += 1
        self._datasets[token] = graphs
        if len(self._datasets) > self.max_datasets:
            stale, _ = self._datasets.popitem(last=False)
            for key in [k for k in self._store if k[0] == stale]:
                del self._store[key]
            for prefix in [p for p in self._current if p[0] == stale]:
                del self._current[prefix]
        return token

    def key(
        self,
        graphs: Sequence[MolecularGraph],
        indices: Sequence[int],
        capacity: int = 0,
    ) -> Tuple:
        """Cache key: dataset identity, bin composition (order-insensitive),
        capacity, and the members' combined geometry/label fingerprint.

        The fingerprint makes in-place mutation (active-learning loops
        updating ``positions``/``cell``, relabeling loops updating
        ``energy``/``forces``) a cache *miss* instead of a silent stale
        read.
        """
        comp = tuple(sorted(int(i) for i in indices))
        geo = hashlib.blake2b(digest_size=16)
        for i in comp:
            geo.update(_geometry_fingerprint(graphs[i]))
        return (
            self.token(graphs),
            comp,
            int(capacity),
            geo.digest(),
        )

    def get(
        self,
        graphs: Sequence[MolecularGraph],
        indices: Sequence[int],
        capacity: int = 0,
    ) -> GraphBatch:
        """The batch for bin ``indices`` of ``graphs``, collating on miss."""
        key = self.key(graphs, indices, capacity)
        batch = self.lookup(key)
        return batch if batch is not None else self.insert(key, self.build(graphs, key))

    @staticmethod
    def build(graphs: Sequence[MolecularGraph], key: Tuple) -> GraphBatch:
        """The cache-owned batch of ``key``: its member graphs collated in
        sorted-index order, so equal compositions share one batch, with
        an empty ``features`` memo."""
        batch = collate([graphs[i] for i in key[1]], capacity=key[2])
        batch.features = {}
        return batch

    def lookup(self, key: Tuple) -> Optional[GraphBatch]:
        """The cached batch of ``key`` (a hit), or ``None``."""
        batch = self._store.get(key)
        if batch is not None:
            self.hits += 1
            self._store.move_to_end(key)
        return batch

    def insert(self, key: Tuple, batch: GraphBatch) -> GraphBatch:
        """Cache ``batch`` (built by :meth:`build`) under ``key`` (a miss)."""
        self.misses += 1
        # A fingerprint change supersedes the old entry for this bin;
        # drop it now so mutation loops don't accumulate dead batches.
        prefix = key[:3]
        old_key = self._current.get(prefix)
        if old_key is not None and old_key != key:
            self._store.pop(old_key, None)
        self._current[prefix] = key
        self._store[key] = batch
        if self.maxsize is not None and len(self._store) > self.maxsize:
            evicted_key, _ = self._store.popitem(last=False)
            if self._current.get(evicted_key[:3]) == evicted_key:
                del self._current[evicted_key[:3]]
        return batch

    def retain(
        self, graphs: Sequence[MolecularGraph], bins: Iterable[Tuple[Sequence[int], int]]
    ) -> None:
        """Drop the cached batches of ``graphs`` whose ``(indices,
        capacity)`` bin is not among ``bins``; other datasets' entries
        stay."""
        token = self.token(graphs)
        keep = {
            (tuple(sorted(int(i) for i in indices)), int(capacity))
            for indices, capacity in bins
        }
        for key in [k for k in self._store if k[0] == token and k[1:3] not in keep]:
            del self._store[key]
            self._current.pop(key[:3], None)

    def holds(self, graphs: Sequence[MolecularGraph], bins: Iterable[Tuple]) -> bool:
        """Whether every ``(indices, capacity)`` bin of ``graphs`` has a
        cached batch; its fingerprint is checked only by :meth:`key`."""
        token = self.token(graphs)
        comps = ((tuple(sorted(int(i) for i in ix)), int(cap)) for ix, cap in bins)
        return all((token, *comp) in self._current for comp in comps)

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters plus the resulting hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._store),
            "hit_rate": self.hits / total if total else 0.0,
        }

    def clear(self) -> None:
        """Drop all cached batches and dataset references.

        Not required for correctness after in-place mutation (the
        fingerprint in the key already invalidates entries whose members'
        geometry or labels changed, and the superseded entry is dropped
        on the replacing miss); useful to release all memory at once.
        """
        self._store.clear()
        self._datasets.clear()
        self._current.clear()
