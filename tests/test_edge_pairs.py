"""Edge pairing: :func:`repro.graphs.edge_pairs` and the radial work that
runs once per undirected pair.

A batch stores every atom pair as two directed edges whose vectors are
exact negations, so both directions' lengths, Bessel rows and radial
weights ``R`` are bitwise equal.  These tests check the pairing on random
open and periodic pools (small cells with self-image edges, isolated
atoms, all-ghost edge sets), that the pair path computes the same bits
as a per-edge evaluation, that a caller's edited batch is re-paired, and
pin served energies and first losses to digests taken while the radial
MLP still ran once per directed edge.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, no_grad
from repro.data import attach_labels, build_training_set, generate_structure
from repro.graphs import (
    MolecularGraph,
    NeighborListCache,
    brute_force_neighbor_list,
    build_neighbor_list,
    cell_list_neighbor_list,
    collate,
    edge_pairs,
)
from repro.mace import MACE, MACEConfig, bessel_basis, edge_lengths, edge_vectors
from repro.md import MACECalculator, VelocityVerlet
from repro.runtime import PlanCache
from repro.serving import build_request_pool
from repro.training import Trainer

CUTOFF = 3.0
CFG = MACEConfig(
    num_channels=4,
    lmax_sh=2,
    l_atomic_basis=2,
    correlation=2,
    cutoff=CUTOFF,
    species=(1, 6, 8),
)


def random_graph(rng, n_atoms: int, periodic: bool, box_scale: float, method: str):
    """A graph of ``n_atoms``; a ``box_scale`` under the cutoff makes
    periodic cells small enough for atoms to see their own images."""
    box = box_scale * max(n_atoms, 1) ** (1.0 / 3.0)
    g = MolecularGraph(
        rng.uniform(0.0, box, (n_atoms, 3)),
        rng.choice(CFG.species, n_atoms),
        cell=np.eye(3) * box + rng.normal(0.0, 0.1, (3, 3)) if periodic else None,
        pbc=periodic,
    )
    return build_neighbor_list(g, cutoff=CUTOFF, method=method)


def mates(pair: np.ndarray) -> np.ndarray:
    """Each edge's partner, from a pair index in which every pair has
    exactly two edges."""
    order = np.argsort(pair, kind="stable")
    mate = np.empty_like(order)
    mate[order[0::2]], mate[order[1::2]] = order[1::2], order[0::2]
    return mate


def check_layout(batch, model):
    n_edges = batch.n_edges
    n_real = n_edges - batch.ghost_edges
    pair, canon = edge_pairs(batch.edge_index, batch.edge_shift, batch.ghost_edges)
    assert pair.shape == (n_edges,) and canon.shape == (n_edges // 2,)
    assert (np.bincount(pair, minlength=n_edges // 2) == 2).all()
    mate = mates(pair)
    edges = np.arange(n_edges)
    # canon: the lower edge of each pair, in edge order.
    assert np.array_equal(canon, np.flatnonzero(mate > edges))
    assert np.array_equal(pair[canon], np.arange(n_edges // 2))
    # Real edges pair with their exact reverse, ghosts with the ghost
    # next to them.
    send, recv = batch.edge_index
    real = mate[:n_real]
    assert (real != edges[:n_real]).all() and (real < n_real).all()
    assert np.array_equal(send[real], recv[:n_real])
    assert np.array_equal(recv[real], send[:n_real])
    assert np.array_equal(batch.edge_shift[real], -batch.edge_shift[:n_real])
    assert np.array_equal(mate[n_real:], edges[n_real:] ^ 1)
    # Both directions carry bitwise-equal vectors (up to sign), lengths,
    # Bessel rows and radial weights, and the pair path computes the
    # per-edge bits.
    with no_grad():
        vec = edge_vectors(Tensor(batch.positions), batch.edge_index, batch.edge_shift)
        r = edge_lengths(vec).data
        basis = bessel_basis(Tensor(r), CFG.n_radial_basis, CFG.cutoff).data
        radial = model.layer0.radial
        per_edge = radial.mlp(Tensor(basis)).data
        paired = radial(Tensor(basis[canon])).data[pair].reshape(per_edge.shape)
    assert np.array_equal(vec.data[mate], -vec.data)
    assert np.array_equal(r[mate], r)
    assert np.array_equal(basis[mate], basis)
    assert np.array_equal(per_edge[mate], per_edge)
    assert np.array_equal(paired, per_edge)
    return mate


MODEL = MACE(CFG, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_graphs=st.integers(1, 4),
    box_scale=st.sampled_from([1.2, 2.2]),
    method=st.sampled_from(["brute", "cell"]),
)
def test_every_edge_pairs_with_its_exact_reverse(seed, n_graphs, box_scale, method):
    rng = np.random.default_rng(seed)
    graphs = [
        random_graph(
            rng, int(rng.integers(1, 12)), bool(rng.integers(2)), box_scale, method
        )
        for _ in range(n_graphs)
    ]
    batch = collate(graphs)
    mate = check_layout(batch, MODEL)
    # The same arrays, every edge a ghost: pairs by position only.
    pair, canon = edge_pairs(batch.edge_index, batch.edge_shift, batch.n_edges)
    assert np.array_equal(pair, np.arange(batch.n_edges) // 2)
    assert np.array_equal(canon, np.arange(0, batch.n_edges, 2))
    # Deleting one real edge leaves its reverse unpaired, and it is named.
    exact = batch.real()
    if exact.n_edges:
        k = int(rng.integers(exact.n_edges))
        lone = mate[k] - (mate[k] > k)  # the reverse's index after the deletion
        send, recv = exact.edge_index[:, k]
        with pytest.raises(ValueError, match=rf"edge {lone} \({recv} -> {send},"):
            edge_pairs(
                np.delete(exact.edge_index, k, axis=1),
                np.delete(exact.edge_shift, k, axis=0),
            )


def test_self_image_edges_and_isolated_atoms_pair():
    rng = np.random.default_rng(3)
    tiny = random_graph(rng, 1, True, 1.2, "brute")  # one atom, its own images
    assert tiny.n_edges and (tiny.edge_index[0] == tiny.edge_index[1]).all()
    lone = random_graph(rng, 1, False, 2.2, "brute")  # one atom, no edges
    assert lone.n_edges == 0
    check_layout(collate([tiny, lone]), MODEL)
    pair, canon = edge_pairs(lone.edge_index, np.zeros((0, 3)))
    assert pair.size == 0 and canon.size == 0


def test_ghost_content_is_never_read():
    rng = np.random.default_rng(4)
    index = rng.integers(0, 5, (2, 16))
    pair, canon = edge_pairs(index, rng.normal(size=(16, 3)), ghost_edges=16)
    assert np.array_equal(pair, np.arange(16) // 2)
    assert np.array_equal(canon, np.arange(0, 16, 2))


def test_odd_ghost_count_and_zero_length_real_edge_raise():
    with pytest.raises(ValueError, match="odd"):
        edge_pairs(np.zeros((2, 3), dtype=np.int64), np.zeros((3, 3)), ghost_edges=3)
    with pytest.raises(ValueError, match=r"edge 0 \(2 -> 2,"):
        edge_pairs(np.full((2, 2), 2), np.zeros((2, 3)))


@pytest.mark.parametrize("seed", [0, 3, 6])
def test_neighbor_lists_keep_both_directions_at_the_cutoff(seed):
    """Every builder tests ``pos[j] - pos[i] + shift``, whose reverse is
    its exact negation, so a cutoff within an ulp of a pair's length
    keeps both directions or neither (``pos[j] + shift - pos[i]`` kept
    one direction alone on these cells)."""
    rng = np.random.default_rng(seed)
    cell = np.eye(3) * 9.0 + rng.normal(0.0, 0.3, (3, 3))
    pos = rng.uniform(0.0, 1.0, (3, 3)) @ cell
    (send, recv), shift = brute_force_neighbor_list(pos, 4.0, cell, True)
    lengths = [
        np.sqrt(np.einsum("ij,ij->i", d, d))
        for d in (pos[send] + shift - pos[recv], pos[send] - pos[recv] + shift)
    ]
    cutoffs = {
        float(c)
        for r in lengths
        for c in (*r, *np.nextafter(r, 0.0), *np.nextafter(r, 9.0))
    }
    species = np.ones(3, dtype=np.int64)
    for cutoff in sorted(cutoffs):
        verlet = MolecularGraph(pos.copy(), species, cell=cell, pbc=True)
        NeighborListCache(cutoff, skin=0.5).update(verlet)
        for index, shifts in (
            brute_force_neighbor_list(pos, cutoff, cell, True),
            cell_list_neighbor_list(pos, cutoff, cell, True),
            (verlet.edge_index, verlet.edge_shift),
        ):
            edge_pairs(index, shifts)  # raises on an edge with no reverse


def test_editing_a_callers_real_edges_re_pairs_them():
    """Nothing is remembered about a caller's batch: reordering its real
    edges between two calls changes every pair's edge indices, and both
    the energy and the force plan answer for the new order."""
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, n, True, 2.2, "brute") for n in (6, 9, 7)]
    batch = collate(graphs)
    model, cache = MACE(CFG, seed=0), PlanCache()
    energies = model.predict_energy(batch, compiled=cache)
    _, forces = model.energy_and_forces(batch, compiled=cache)
    n_real = batch.n_edges - batch.ghost_edges
    perm = rng.permutation(n_real)
    batch.edge_index[:, :n_real] = batch.edge_index[:, perm]
    batch.edge_shift[:n_real] = batch.edge_shift[perm]
    edited = model.predict_energy(batch, compiled=cache)
    _, edited_forces = model.energy_and_forces(batch, compiled=cache)
    assert cache.stats()["hits"] == 2 and batch.features is None
    np.testing.assert_allclose(edited, energies, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(edited_forces, forces, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(
        edited, model.predict_energy(batch.real()), rtol=0.0, atol=1e-10
    )


def _digest(values) -> str:
    h = hashlib.blake2b(digest_size=16)
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestPinnedExactness:
    """Pairing is an index, not a reordering, and each pair's radial
    weights are the bits either direction computed on its own, so served
    energies and first losses equal, bit for bit, these digests taken
    while the radial MLP ran once per directed edge.  Weight gradients,
    zeolite forces and an MD trajectory are pinned at their values when
    every replay still rebuilt its scatter structures, which binding
    them once per batch must not move."""

    SERVE_CFG = MACEConfig(num_channels=8, lmax_sh=2, l_atomic_basis=2, correlation=2)
    MD_CFG = MACEConfig(num_channels=16, lmax_sh=2, l_atomic_basis=2, correlation=3)
    ENERGY_DIGEST = "da5bddc91f87329c34ca9132ec50ca4e"
    LOSS_DIGEST = "a0a5dc615070886775552af60f8eac04"
    EAGER_GRAD_DIGEST = "f764c282c34a79a7158aaeafe6915327"
    REPLAYED_GRAD_DIGEST = "af1b36313ba1baa6c204035d8529bd24"
    FORCE_DIGEST = "1fda8fbca49642e62e0a3fb99d9679f9"
    TRAJECTORY_DIGEST = "6b140e03cc7eb2b3d80a156e4a42a770"
    REBUILT_TRAJECTORY_DIGEST = "935bceeb62d1c89312dee1fa324f82ba"

    def test_served_energies_eager_and_compiled(self):
        pool = build_request_pool(24, seed=3, max_atoms=72)
        bins = [pool[i : i + 3] for i in range(0, 24, 3)]
        model = MACE(self.SERVE_CFG, seed=0)
        eager = [model.predict_energy(collate(b)) for b in bins]
        assert _digest(eager) == self.ENERGY_DIGEST
        cache, replayed = PlanCache(), []
        for b in bins:
            model.predict_energy(collate(b), compiled=cache)  # capture
            replayed.append(model.predict_energy(collate(b), compiled=cache))
        assert cache.stats()["hits"] == len(bins)
        assert _digest(replayed) == self.ENERGY_DIGEST

    def test_first_loss_of_a_trainer(self):
        labeled = attach_labels(build_training_set(8, seed=11, max_atoms=40))
        eager = Trainer(MACE(self.SERVE_CFG, seed=0), labeled, plan_cache=None)
        assert _digest([eager.train_step(range(8))]) == self.LOSS_DIGEST
        trainer = Trainer(MACE(self.SERVE_CFG, seed=0), labeled)
        assert _digest([trainer.train_step(range(8))]) == self.LOSS_DIGEST  # capture
        twin = Trainer(MACE(self.SERVE_CFG, seed=0), labeled)
        twin._loss_step(twin._collate(range(8)), with_grads=False)
        replayed = twin._loss_step(twin._collate(range(8)), with_grads=False)
        assert twin.plan_cache.hits == 1
        assert _digest([replayed]) == self.LOSS_DIGEST

    def test_weight_gradients_after_one_step_eager_and_replayed(self):
        labeled = attach_labels(build_training_set(8, seed=11, max_atoms=40))
        eager = Trainer(MACE(self.SERVE_CFG, seed=0), labeled, plan_cache=None)
        eager.train_step(range(8))
        grads = [p.grad for p in eager.model.parameters()]
        assert _digest(grads) == self.EAGER_GRAD_DIGEST
        twin = Trainer(MACE(self.SERVE_CFG, seed=0), labeled)
        batch = twin._collate(range(8))
        twin._loss_step(batch)  # capture
        twin.optimizer.zero_grad()
        twin._loss_step(batch)
        assert twin.plan_cache.hits == 1
        grads = [p.grad for p in twin.model.parameters()]
        assert _digest(grads) == self.REPLAYED_GRAD_DIGEST

    def test_zeolite_forces_of_the_compiled_force_plan(self):
        graph = generate_structure("Zeolite", np.random.default_rng(8), 204)
        build_neighbor_list(graph, cutoff=4.5)
        model, cache = MACE(self.MD_CFG, seed=0), PlanCache()
        model.energy_and_forces(collate([graph]), compiled=cache)  # capture
        energies, forces = model.energy_and_forces(collate([graph]), compiled=cache)
        assert cache.stats()["hits"] == 1
        assert _digest([energies, forces]) == self.FORCE_DIGEST

    def test_md_zeolite_trajectory_with_a_verlet_cache(self):
        graph = generate_structure("Zeolite", np.random.default_rng(8), 204)
        calculator = MACECalculator(MACE(self.MD_CFG, seed=0), cutoff=4.5)
        md = VelocityVerlet(
            calculator, graph, timestep_fs=0.5, cutoff=4.5, skin="auto", seed=1
        )
        md.initialize_velocities(300.0)
        frames = []
        for _ in range(20):
            state = md.step()
            frames += [state.positions, state.forces, [state.potential_energy]]
        cache = calculator.neighbor_cache
        assert (cache.queries, cache.rebuilds) == (21, 1)  # one candidate window
        assert _digest(frames) == self.TRAJECTORY_DIGEST

    def test_md_zeolite_trajectory_across_neighbor_rebuilds(self):
        """Twelve steps rebuilding the neighbor list every fourth: three
        new edge sets, each a new topology replayed by the one force plan
        of their shape bucket, pinned before the TP read node and pair
        rows itself."""
        graph = generate_structure("Zeolite", np.random.default_rng(8), 204)
        calculator = MACECalculator(MACE(self.MD_CFG, seed=0))
        md = VelocityVerlet(
            calculator, graph, timestep_fs=0.5, cutoff=4.5, rebuild_every=4, seed=1
        )
        md.initialize_velocities(300.0)
        frames, edge_sets = [], []
        for _ in range(12):
            state = md.step()
            frames += [state.positions, state.forces, [state.potential_energy]]
            edges = graph.edge_index.tobytes()
            if not edge_sets or edge_sets[-1] != edges:
                edge_sets.append(edges)
        assert len(edge_sets) == 4  # the first list, then three rebuilds
        stats = calculator.plan_cache.stats()
        assert (stats["captures"], stats["hits"]) == (1, 12)
        assert _digest(frames) == self.REBUILT_TRAJECTORY_DIGEST
