"""The MACE model: equivariant message passing with higher body-order products.

Architecture (paper Figure 2):

1. **Embedding** — species -> scalar channel features ``(N, K, 1)``;
   edge displacements -> spherical harmonics per directed edge + Bessel
   radial features per undirected pair (the layout: :meth:`MACE.featurize`).
2. **Interaction** (x ``n_layers``) — channelwise tensor product of edge
   harmonics with sender features, weighted by a radial MLP (Algorithm 2),
   pooled over neighborhoods into the atomic basis ``A_{i,klm}``.  Each
   layer reads features up to degree ``l_in``: 0 for the first layer,
   which sees only the embedding, ``l_hidden`` after it.
3. **Product** — symmetric tensor contraction of ``A`` up to correlation
   order ``nu`` (Algorithm 3) followed by an equivariant linear update with
   a residual connection at ``min(l_in, l_out)``.  Each layer writes
   features up to degree ``l_out``: ``l_hidden``, except 0 for the last
   layer, whose only reader is the invariant readout.
4. **Readout** — intermediate layers: linear on the invariant (degree-0)
   part; final layer: MLP.  Per-atom energies are pooled per graph.

The ``kernel_variant`` config switch selects baseline vs optimized
implementations of Algorithms 2-3 — everything else is shared, which is
what makes the ablation clean.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, gather_rows, segment_sum
from ..autograd.engine import no_grad
from ..autograd.ops import concatenate
from ..equivariant.spherical_harmonics import sh_dim
from ..runtime import PlanCache
from ..graphs.batch import EdgeTopology, GraphBatch, edge_topology
from ..kernels import (
    channelwise_tp_baseline,
    channelwise_tp_optimized,
    channelwise_tp_table,
    sym_contraction_spec,
    symmetric_contraction_baseline,
    symmetric_contraction_optimized,
    weight_layout,
)
from ..nn import MLP, Embedding, EquivariantLinear, Linear, Module, Parameter
from .config import MACEConfig
from .geometry import (
    edge_lengths,
    edge_spherical_harmonics,
    edge_vectors,
    within_cutoff,
)
from .radial import RadialNetwork, bessel_basis

__all__ = ["MACE", "InteractionLayer"]


class InteractionLayer(Module):
    """One MACE interaction + product block (Figure 2 c-d).

    ``l_in`` caps the degree of the node features the layer reads and
    ``l_out`` the degree it writes: the channelwise TP takes sender
    features up to ``l_in``, the symmetric contraction and ``linear_msg``
    make messages up to ``l_out``, and the residual ``linear_skip`` runs
    at ``min(l_in, l_out)``, adding into that low-degree prefix of the
    output.  :class:`MACE` sets them from the layer's position.
    """

    def __init__(
        self, cfg: MACEConfig, rng: np.random.Generator, l_in: int, l_out: int
    ) -> None:
        super().__init__()
        self.cfg = cfg
        K = cfg.num_channels
        self.tp_table = channelwise_tp_table(cfg.lmax_sh, l_in, cfg.l_atomic_basis)
        self.radial = RadialNetwork(
            cfg.n_radial_basis,
            cfg.radial_mlp_hidden,
            K,
            self.tp_table.num_paths,
            rng,
        )
        self.linear_A = EquivariantLinear(K, K, cfg.l_atomic_basis, rng=rng)
        self.sc_spec = sym_contraction_spec(cfg.l_atomic_basis, cfg.correlation, l_out)
        scale = 1.0 / math.sqrt(max(self.sc_spec.total_nnz(), 1))
        for i, (nu, L, n_paths) in enumerate(weight_layout(self.sc_spec)):
            setattr(
                self,
                f"product_weight_{i}",
                Parameter(rng.standard_normal((cfg.n_species, K, n_paths)) * scale),
            )
        self.linear_msg = EquivariantLinear(K, K, l_out, rng=rng)
        self.linear_skip = EquivariantLinear(K, K, min(l_in, l_out), rng=rng)

    def _product_weights(self) -> List[Parameter]:
        return [
            getattr(self, f"product_weight_{i}")
            for i in range(len(self.sc_spec.blocks))
        ]

    def forward(
        self, h: Tensor, Y: Tensor, topology: EdgeTopology, basis: Tensor
    ) -> Tensor:
        """One interaction + product block: ``(N, K, (l_in+1)^2)`` node
        features in, ``(N, K, (l_out+1)^2)`` out.

        The radial weights come from the Bessel ``basis`` of the pair
        lengths, one row per undirected pair, which edges ``2p`` and
        ``2p + 1`` share (see :meth:`MACE.featurize`); the optimized TP
        reads ``h`` through ``topology.send`` and them by position, the
        baseline gathers ``h`` onto edges and repeats each pair row for
        its two edges first.  The batch's ``topology`` binds every index
        the block gathers and scatters by.
        """
        cfg = self.cfg
        R = self.radial(basis)  # (E/2, K, n_paths) pair rows
        if cfg.kernel_variant == "optimized":
            A_edge = channelwise_tp_optimized(Y, h, R, self.tp_table, send=topology.send)
        else:
            n_pairs, K, n_paths = R.shape
            R_j = concatenate([R, R], axis=1).reshape((2 * n_pairs, K, n_paths))
            A_edge = channelwise_tp_baseline(
                Y, gather_rows(h, topology.send), R_j, self.tp_table
            )
        # Pool messages onto receivers; normalize by typical neighbor count.
        A = segment_sum(A_edge, topology.recv) / math.sqrt(cfg.avg_num_neighbors)
        A = self.linear_A(A)
        weights = self._product_weights()
        species = topology.species
        if cfg.kernel_variant == "optimized":
            msg = symmetric_contraction_optimized(A, species, weights, self.sc_spec)
        else:
            msg = symmetric_contraction_baseline(A, species, weights, self.sc_spec)
        out = self.linear_msg(msg)
        d = sh_dim(self.linear_skip.lmax)
        skip = self.linear_skip(h if h.shape[2] == d else h[:, :, :d])
        if out.shape[2] == d:
            return out + skip
        return concatenate([out[:, :, :d] + skip, out[:, :, d:]], axis=2)


class MACE(Module):
    """Full MACE potential: graphs in, per-graph energies out.

    Parameters
    ----------
    cfg:
        Hyperparameters; ``cfg.kernel_variant`` selects the kernel paths.
    seed:
        Initialization seed (two models with the same seed but different
        kernel variants have *identical* parameters — the property the
        loss-parity experiment relies on).
    """

    def __init__(self, cfg: MACEConfig = MACEConfig(), seed: int = 0) -> None:
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        K = cfg.num_channels
        # Atomic number -> embedding row, -1 where the model has no such
        # species; the extra last slot catches out-of-range numbers.
        self._species_lut = np.full(max(cfg.species) + 2, -1, dtype=np.int64)
        self._species_lut[list(cfg.species)] = np.arange(cfg.n_species)
        self.embedding = Embedding(cfg.n_species, K, rng=rng)
        last = cfg.n_layers - 1
        for t in range(cfg.n_layers):
            l_in = 0 if t == 0 else cfg.l_hidden
            l_out = 0 if t == last else cfg.l_hidden
            setattr(self, f"layer{t}", InteractionLayer(cfg, rng, l_in, l_out))
        for t in range(cfg.n_layers - 1):
            setattr(self, f"readout{t}", Linear(K, 1, rng=rng))
        self.readout_final = MLP([K, cfg.readout_mlp_hidden, 1], rng=rng)
        self.species_energy = Parameter(np.zeros(cfg.n_species))
        self.energy_scale = Parameter(np.ones(1))

    # -- species handling -------------------------------------------------------

    def species_indices(self, atomic_numbers: np.ndarray) -> np.ndarray:
        """Map atomic numbers to embedding rows (raises on unknown species)."""
        z = np.asarray(atomic_numbers, dtype=np.int64)
        lut = self._species_lut
        rows = lut[np.clip(z, -1, lut.size - 1)]
        unknown = rows < 0
        if unknown.any():
            raise KeyError(f"species {int(z[unknown][0])} not in model config")
        return rows

    # -- forward -----------------------------------------------------------------

    def forward(self, batch: GraphBatch) -> Tensor:
        """Per-graph total energies, shape ``(n_graphs,)``, with the
        batch's arrays as constants of the graph (see
        :meth:`energy_and_forces` for forces and compiled replay)."""
        return self._energies(
            Tensor(batch.positions), batch.edge_shift, self.topology(batch)
        )

    def _energies(self, positions, edge_shift, topology: EdgeTopology) -> Tensor:
        """Per-graph energies from atom positions: edge geometry → mask
        and radial basis → :meth:`message_passing`, the one path of
        :meth:`forward` and the force plans.

        Lengths stay per edge, since the cutoff mask and the harmonics
        read them; the radial basis takes each pair's even edge
        (:meth:`featurize`).  The harmonics of every
        zero-length edge are zeroed.  The channelwise TP is linear in
        them, so the ghost self-edges of :func:`~repro.graphs.collate`
        contribute exactly ``0.0`` to energies and forces.
        """
        vec = edge_vectors(positions, (topology.send, topology.recv), edge_shift)
        r = edge_lengths(vec)
        mask = within_cutoff(r).reshape((r.shape[0], 1))
        Y = edge_spherical_harmonics(vec, self.cfg.lmax_sh) * mask
        basis = bessel_basis(r[0::2], self.cfg.n_radial_basis, self.cfg.cutoff)
        return self.message_passing(topology, Y, basis)

    def message_passing(self, topology: EdgeTopology, Y: Tensor, basis: Tensor) -> Tensor:
        """Per-graph energies from edge features: everything in
        :meth:`forward` downstream of the geometry.

        ``Y`` and ``basis`` are :meth:`featurize`'s edge harmonics and
        pair-row radial basis, evaluated once for every layer;
        ``topology`` is the batch's :meth:`topology`, every index the
        layers gather and scatter by.  Its arrays are the batch's (the
        structural constants of the recorded graph) or integer Tensors,
        which a compiled plan listing them among its inputs rebinds per
        replay: loss, energy and force plans bind *all* batch content
        this way, so one plan serves every batch of its shape bucket.
        """
        cfg = self.cfg
        species = topology.species
        n_atoms = species.index.shape[0]
        # The species embedding: the scalar features the first layer reads.
        h = self.embedding(species).reshape((n_atoms, cfg.num_channels, 1))

        site_energy = gather_rows(self.species_energy, species)  # (N,)
        for t in range(cfg.n_layers):
            h = getattr(self, f"layer{t}")(h, Y, topology, basis)
            invariant = h[:, :, 0]  # (N, K) degree-0 part
            if t < cfg.n_layers - 1:
                contrib = getattr(self, f"readout{t}")(invariant)
            else:
                contrib = self.readout_final(invariant)
            site_energy = site_energy + self.energy_scale * contrib.reshape((n_atoms,))
        return segment_sum(site_energy, topology.graph_index)

    def topology(self, batch: GraphBatch, neighbors=None) -> EdgeTopology:
        """The batch's :class:`~repro.graphs.EdgeTopology` on this
        model's species rows: every index bound once with its CSR
        structure.

        Memoized in ``batch.features`` under the species it depends on,
        by the rules of :meth:`featurize`: once per cache entry on a
        :class:`~repro.graphs.CollateCache` batch, afresh on every call
        on a caller's.  ``neighbors`` is the
        :class:`~repro.graphs.NeighborListCache` whose last update gave
        the batch's one graph its edges; the edge rows are then derived
        from its candidates' rows by the cutoff mask instead of being
        sorted again (the MD calculator's per-step path).
        """
        key = ("topology", self.cfg.species)
        memo = batch.features
        if memo is not None and key in memo:
            return memo[key]
        species = self.species_indices(batch.species)
        if neighbors is None:
            topology = edge_topology(batch, species, self.cfg.n_species)
        else:
            topology = neighbors.topology(batch, species, self.cfg.n_species)
        if memo is not None:
            memo[key] = topology
        return topology

    def featurize(self, batch: GraphBatch) -> Tuple[np.ndarray, ...]:
        """The parameter-free edge features of ``batch``: ``(Y, basis)``.

        **The edge layout.**  A batch stores every undirected atom pair
        ``p`` as two directed edges side by side: edge ``2p`` is
        ``(send, recv, shift)`` and edge ``2p + 1`` its exact reverse
        ``(recv, send, -shift)``.  The neighbor-list builders emit it
        (:mod:`repro.graphs.neighborlist`: each pair found once, from one
        side), a Verlet refilter keeps pairs whole, and
        :func:`~repro.graphs.collate` keeps it — the member graphs' real
        pairs first, then the ghost pairs, ghost self-edges paired by
        position the same way — and refuses edges that break it.  So no
        index names a pair: pair ``p`` is edges ``2p`` and ``2p + 1``,
        the real pairs are a prefix of the pairs and the ghost pairs the
        rest.  Edge vectors ``pos[send] - pos[recv] + shift`` of a pair
        are exact negations of each other, so both directions' lengths,
        radial basis rows and radial weights ``R`` are bitwise equal, and
        the radial work runs once per pair, on the even edges:
        :class:`~repro.mace.radial.RadialNetwork` evaluates its MLP on
        the pair rows, and the channelwise TP reads row ``e // 2`` of
        ``R`` for edge ``e`` (its backward sums the two).  Every other
        edge array, and every scatter over edges, keeps the edge order.

        **The topology is bound once per batch.**  Every index the model
        gathers and scatters by — species rows, senders, receivers,
        graph membership — is one :class:`~repro.graphs.EdgeTopology`
        (:meth:`topology`), each index with its CSR order and row
        pointers sorted when it is built, so no replay sorts an index.
        It is memoized under exactly the rules of the features below.

        Returns the harmonics ``Y`` ``(n_edges, (lmax_sh+1)^2)``, one
        row per directed edge, and the Bessel x envelope radial ``basis``
        ``(n_edges // 2, n_radial_basis)``, one row per pair.  Both
        feature arrays are evaluated once,
        without a tape, on the real edges (the even ones for the basis),
        and their ghost rows stay zero: the channelwise TP is
        linear in the harmonics, so ghost edges' messages are exactly
        ``0.0`` with no mask op in the plan.  On a batch a
        :class:`~repro.graphs.CollateCache` owns, the result is memoized
        in ``batch.features`` under the config fields it depends on, so
        every model of that geometry shares one evaluation per cache entry
        (on the fetch worker when streaming); cached batches are never
        edited.  Any other batch is featurized, and bound, afresh on
        every call and nothing is stored on it, so one edited between two
        calls answers for its new content.  Pure NumPy on thread-local
        engine state.
        """
        cfg = self.cfg
        key = (cfg.lmax_sh, cfg.n_radial_basis, cfg.cutoff)
        memo = batch.features
        if memo is not None and key in memo:
            return memo[key]
        n_real = batch.n_edges - batch.ghost_edges
        edge_sh = np.zeros((batch.n_edges, sh_dim(cfg.lmax_sh)))
        edge_radial = np.zeros((batch.n_edges // 2, cfg.n_radial_basis))
        with no_grad():
            vec = edge_vectors(
                Tensor(batch.positions),
                batch.edge_index[:, :n_real],
                batch.edge_shift[:n_real],
            )
            edge_sh[:n_real] = edge_spherical_harmonics(vec, cfg.lmax_sh).data
            r = edge_lengths(vec).data[0::2]  # the real pairs' even edges
            edge_radial[: n_real // 2] = bessel_basis(
                Tensor(r), cfg.n_radial_basis, cfg.cutoff
            ).data
        if memo is not None:
            memo[key] = (edge_sh, edge_radial)
        return edge_sh, edge_radial

    def message_inputs(self, batch: GraphBatch) -> Tuple[np.ndarray, ...]:
        """The content arrays :meth:`message_passing` is a function of,
        in plan-input order: the :meth:`topology`'s arrays
        (:meth:`~repro.graphs.EdgeTopology.arrays`), then
        :meth:`featurize`'s edge harmonics and pair-row radial basis."""
        return self.topology(batch).arrays() + self.featurize(batch)

    # -- compiled execution (repro.runtime) --------------------------------------

    @staticmethod
    def _checked_cache(compiled) -> Optional[PlanCache]:
        """The ``compiled=`` argument of the prediction entry points:
        ``None`` (eager) or the :class:`~repro.runtime.PlanCache` to
        capture into and replay from."""
        if compiled is None or isinstance(compiled, PlanCache):
            return compiled
        raise TypeError(f"compiled must be None or a PlanCache, got {compiled!r}")

    def forces(self, batch: GraphBatch, compiled=None) -> np.ndarray:
        """``(n_atoms, 3)`` forces, ``F = -dE/dr`` via reverse-mode autograd.

        ``compiled`` selects the record-once/replay-many path (see
        :meth:`energy_and_forces`, which this delegates to).
        """
        return self.energy_and_forces(batch, compiled=compiled)[1]

    def energy_and_forces(
        self, batch: GraphBatch, compiled=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-graph energies and per-atom forces from one forward+backward.

        With ``compiled`` (a :class:`~repro.runtime.PlanCache`), the pass
        is captured once per *shape bucket* and replayed thereafter, as
        in :meth:`predict_energy`: positions, edge shifts and the arrays
        of the batch's :meth:`topology` are replay inputs, and
        the key adds only the padded graph count, which the recorded
        graph burns in, so every MD step whose exact edge set stays in
        a seen bucket, and every other system of that bucket, replays.
        ``batch`` is read in full on every call, as it is.  The compiled
        backward targets only the positions, pruning the
        parameter-gradient branches the eager pass always pays for.
        Ghost graphs' energies and ghost atoms' forces are dropped.
        """
        cache = self._checked_cache(compiled)
        arrays = (batch.positions, batch.edge_shift) + self.topology(batch).arrays()

        def eager():
            positions = Tensor(arrays[0].copy(), requires_grad=True)
            inputs = (positions,) + tuple(Tensor(a) for a in arrays[1:])
            topology, _ = EdgeTopology.bind(inputs[2:])
            energies = self._energies(positions, inputs[1], topology)
            total = energies.sum()
            total.backward()
            return ([energies.numpy()], [positions.grad]), dict(
                outputs=(energies,),
                seed=total,
                inputs=inputs,
                grad_params=False,
                owner=self,
            )

        if cache is None:
            (energies,), (grad,) = eager()[0]
        else:
            key = ("forces", self, batch.n_graphs)
            (energies,), (grad, *_) = cache.run(key, arrays, eager)
        return (
            energies[: batch.n_graphs - batch.ghost_graphs],
            -grad[: batch.n_atoms - batch.ghost_atoms],
        )

    def predict_energy(self, batch: GraphBatch, compiled=None) -> np.ndarray:
        """Per-graph energies as a plain array (no tape).

        With ``compiled``, :meth:`message_passing` is captured once per
        *shape bucket* and replayed thereafter: the arrays of the batch's
        :meth:`topology`, edge harmonics and the pair-row radial basis
        are replay inputs and nothing of the batch is
        folded into the plan, so any batch of a seen bucket replays,
        whatever its composition.  The edge features come from
        :meth:`featurize`: memoized on a cached batch, evaluated afresh
        on a caller's.  Ghost graphs are dropped.
        """
        cache = self._checked_cache(compiled)
        arrays = self.message_inputs(batch)

        def eager():
            inputs = tuple(Tensor(a) for a in arrays)
            topology, (Y, basis) = EdgeTopology.bind(inputs)
            with no_grad():
                out = self.message_passing(topology, Y, basis)
            return ([out.numpy()], []), dict(outputs=(out,), inputs=inputs, owner=self)

        if cache is None:
            (energies,), _ = eager()[0]
        else:
            # The graph count is burned into the recorded segment sum and
            # no input shape carries it, so it is part of the key.
            key = ("energy", self, batch.n_graphs)
            (energies,), _ = cache.run(key, arrays, eager)
        return energies[: batch.n_graphs - batch.ghost_graphs]
