"""The pair layout: edges ``2p`` and ``2p + 1`` are the two directions of
undirected pair ``p``, and the radial work runs once per pair.

Every neighbor-list builder emits the layout (each pair found once, from
one side), a Verlet cache's refilter keeps pairs whole, and
:func:`repro.graphs.collate` keeps it, ghost pairs last, refusing edges
that break it.  Both directions' vectors are exact negations, so their
lengths, Bessel rows and radial weights ``R`` are bitwise equal.  These
tests check the layout on random open and periodic pools (small cells
with self-image edges, cutoffs wider than the cell, isolated atoms,
pairs exactly at the cutoff), that the pair path computes the same bits
as a per-edge evaluation, that a caller's permuted edges are refused,
and pin served energies, first losses, gradients, forces and MD
trajectories.
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
)
from repro.graphs.neighborlist import _cell_widths, _grid_open, _grid_periodic
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


def assert_pairs(edge_index, edge_shift):
    """Edge ``2p + 1`` is edge ``2p`` with ``send`` / ``recv`` swapped and
    its shift negated bit for bit."""
    send, recv = edge_index
    assert send.size % 2 == 0
    assert np.array_equal(send[1::2], recv[0::2])
    assert np.array_equal(recv[1::2], send[0::2])
    negated = np.negative(edge_shift[0::2]).view(np.uint64)
    assert np.array_equal(edge_shift[1::2].view(np.uint64), negated)


def check_layout(batch, model):
    n_edges = batch.n_edges
    n_real = n_edges - batch.ghost_edges
    assert n_real % 2 == 0 and batch.ghost_edges % 2 == 0
    assert_pairs(batch.edge_index[:, :n_real], batch.edge_shift[:n_real])
    # Ghost pairs follow the real ones: zero-shift self-edges on the last atom.
    assert (batch.edge_index[:, n_real:] == batch.n_atoms - 1).all()
    assert not batch.edge_shift[n_real:].any()
    # Both directions carry bitwise-equal vectors (up to sign), lengths,
    # Bessel rows and radial weights, and the pair path computes the
    # per-edge bits.
    mate = np.arange(n_edges) ^ 1
    with no_grad():
        vec = edge_vectors(Tensor(batch.positions), batch.edge_index, batch.edge_shift)
        r = edge_lengths(vec).data
        basis = bessel_basis(Tensor(r), CFG.n_radial_basis, CFG.cutoff).data
        radial = model.layer0.radial
        per_edge = radial.mlp(Tensor(basis)).data
        paired = radial(Tensor(basis[0::2])).data
    assert np.array_equal(vec.data[mate], -vec.data)
    assert np.array_equal(r[mate], r)
    assert np.array_equal(basis[mate], basis)
    assert np.array_equal(per_edge[mate], per_edge)
    assert np.array_equal(np.repeat(paired, 2, axis=0).reshape(per_edge.shape), per_edge)
    # featurize's pair rows are the real pairs' even edges, then zeros.
    _, pair_basis = model.featurize(batch)
    assert np.array_equal(pair_basis[: n_real // 2], basis[0:n_real:2])
    assert not pair_basis[n_real // 2 :].any()


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
    check_layout(collate(graphs), MODEL)
    # Deleting one edge of a graph breaks its layout, and the first
    # edges out of place are named.
    g = graphs[int(rng.integers(n_graphs))]
    if g.n_edges:
        k = int(rng.integers(g.n_edges))
        g.edge_index = np.delete(g.edge_index, k, axis=1)
        g.edge_shift = np.delete(g.edge_shift, k, axis=0)
        with pytest.raises(ValueError, match=r"edge"):
            collate(graphs)


def _keys(edge_index, edge_shift) -> np.ndarray:
    """Directed edges as sorted ``(send, recv, shift bits)`` rows."""
    keys = np.column_stack((edge_index.T, edge_shift.view(np.int64)))
    return keys[np.lexsort(keys.T[::-1])]


def _builders(pos, cutoff, cell):
    """Each builder's edges at ``cutoff``, by name: the cell list, and the
    grid it dispatches to where one applies (atoms, and no cell width
    under the cutoff, which falls back to brute force)."""
    pbc = cell is not None
    builds = {"cell": cell_list_neighbor_list(pos, cutoff, cell, pbc)}
    if pos.shape[0] and not pbc:
        builds["grid"] = _grid_open(pos, cutoff)
    elif pos.shape[0] and (_cell_widths(cell) >= cutoff).all():
        builds["grid"] = _grid_periodic(pos, cutoff, cell)
    return builds


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_atoms=st.integers(0, 14),
    geometry=st.sampled_from(["open", "periodic", "small", "subcritical"]),
    at_cutoff=st.booleans(),
)
def test_builders_emit_interleaved_pairs(seed, n_atoms, geometry, at_cutoff):
    """Brute force, the open and periodic cell lists (with the brute-force
    fallback when the cutoff exceeds a cell width) all emit pair ``p`` as
    edges ``2p`` / ``2p + 1`` and the same directed edges as the
    reference.  Small cells give self-image pairs, a wide box 1-atom and
    0-edge graphs, and cutoffs an ulp around a pair's length test pairs
    exactly at the cutoff: each is kept whole or dropped whole.  A
    Verlet cache's refiltered edges equal a fresh build at every step
    across at least three rebuilds."""
    rng = np.random.default_rng(seed)
    width = {"open": 3.0, "periodic": 3.2, "small": 1.05, "subcritical": 0.8}[geometry]
    if geometry == "open":
        cell, pbc = None, False
        pos = rng.uniform(0.0, width * CUTOFF * 1.5, (n_atoms, 3))
    else:
        cell = np.diag(rng.uniform(width, 1.3 * width, 3) * CUTOFF)
        cell += rng.uniform(-0.05, 0.05, (3, 3)) * CUTOFF
        pbc = True
        pos = rng.uniform(0.0, 1.0, (n_atoms, 3)) @ cell
    cutoffs = [CUTOFF]
    if at_cutoff:
        (send, recv), shift = brute_force_neighbor_list(pos, CUTOFF, cell, pbc)
        if send.size:
            p = 2 * int(rng.integers(send.size // 2))
            d = pos[send[p]] - pos[recv[p]] + shift[p]
            r = np.sqrt(d @ d)
            cutoffs = [r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)]
    for cutoff in cutoffs:
        reference = brute_force_neighbor_list(pos, cutoff, cell, pbc)
        assert_pairs(*reference)
        for name, edges in _builders(pos, cutoff, cell).items():
            assert_pairs(*edges)
            assert np.array_equal(_keys(*edges), _keys(*reference)), name
    if n_atoms == 0:
        return
    graph = MolecularGraph(pos, np.ones(n_atoms, dtype=np.int64), cell=cell, pbc=pbc)
    method = ("brute", "cell")[seed % 2]
    verlet = NeighborListCache(CUTOFF, skin=0.3, method=method)
    for step in range(8):
        drift = rng.normal(0.0, 0.02, pos.shape)
        drift[0, 0] += 0.3 * (step % 2)  # past skin / 2 every other step: a rebuild
        graph.positions = graph.positions + drift
        verlet.update(graph)
        assert_pairs(graph.edge_index, graph.edge_shift)
        fresh = build_neighbor_list(
            MolecularGraph(graph.positions, graph.species, cell=cell, pbc=pbc),
            cutoff=CUTOFF,
            method=method,
        )
        assert np.array_equal(
            _keys(graph.edge_index, graph.edge_shift), _keys(fresh.edge_index, fresh.edge_shift)
        )
    assert verlet.rebuilds >= 3


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
            assert_pairs(index, shifts)  # each edge 2p + 1 is edge 2p reversed


def test_self_image_edges_and_isolated_atoms_pair():
    rng = np.random.default_rng(3)
    tiny = random_graph(rng, 1, True, 1.2, "brute")  # one atom, its own images
    assert tiny.n_edges and (tiny.edge_index[0] == tiny.edge_index[1]).all()
    lone = random_graph(rng, 1, False, 2.2, "brute")  # one atom, no edges
    assert lone.n_edges == 0
    check_layout(collate([tiny, lone]), MODEL)


def test_ghost_content_is_never_read():
    """Ghost pairs are pairs by position alone: scrambling every ghost
    edge's endpoints and shift after :func:`collate` changes no energy."""
    rng = np.random.default_rng(4)
    graphs = [random_graph(rng, n, True, 2.2, "brute") for n in (6, 8)]
    batch = collate(graphs)
    assert batch.ghost_edges
    energies = MODEL.predict_energy(batch)
    n_real = batch.n_edges - batch.ghost_edges
    batch.edge_index[:, n_real:] = rng.integers(0, batch.n_atoms, (2, batch.ghost_edges))
    batch.edge_shift[n_real:] = rng.normal(size=(batch.ghost_edges, 3))
    assert np.array_equal(MODEL.predict_energy(batch), energies)


def test_odd_edge_count_and_zero_length_real_edge_raise():
    self_edge = MolecularGraph(np.zeros((3, 3)), np.ones(3, dtype=np.int64))
    self_edge.edge_index, self_edge.edge_shift = np.full((2, 2), 2), np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"edges 0 \(2 -> 2, shift \[0.0, 0.0, 0.0\]\)"):
        collate([self_edge])
    self_edge.edge_index, self_edge.edge_shift = np.array([[0, 1, 0], [1, 0, 2]]), None
    with pytest.raises(ValueError, match="edge 2 has no reverse: 3 edges is odd"):
        collate([self_edge])


def test_a_permuted_caller_edge_list_is_refused():
    """Nothing re-pairs a caller's edges: a permuted edge list is refused
    by :func:`collate` and, edited into a collated batch, by the model,
    and a rebuilt neighbor list is accepted with the original energies."""
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, n, True, 2.2, "brute") for n in (6, 9, 7)]
    batch = collate(graphs)
    model, cache = MACE(CFG, seed=0), PlanCache()
    energies = model.predict_energy(batch, compiled=cache)
    n_real = batch.n_edges - batch.ghost_edges
    perm = rng.permutation(n_real)
    batch.edge_index[:, :n_real] = batch.edge_index[:, perm]
    batch.edge_shift[:n_real] = batch.edge_shift[perm]
    with pytest.raises(ValueError, match="not the two directions of one pair"):
        model.predict_energy(batch, compiled=cache)
    with pytest.raises(ValueError, match="not the two directions of one pair"):
        model.energy_and_forces(batch, compiled=cache)
    g = graphs[1]
    perm = rng.permutation(g.n_edges)
    g.edge_index, g.edge_shift = g.edge_index[:, perm], g.edge_shift[perm]
    with pytest.raises(ValueError, match="not the two directions of one pair"):
        collate(graphs)
    build_neighbor_list(g, cutoff=CUTOFF, method="brute")
    assert np.array_equal(model.predict_energy(collate(graphs), compiled=cache), energies)
    assert cache.stats()["hits"] == 1


def _digest(values) -> str:
    h = hashlib.blake2b(digest_size=16)
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


class TestPinnedExactness:
    """Each pair's radial weights are the bits either direction computed
    on its own, so served energies and first losses equal, bit for bit,
    these digests taken while the radial MLP ran once per directed edge.
    Weight gradients, zeolite forces and the MD trajectories are pinned
    at the pair layout's edge order, which sets each receiver's and
    sender's summation order."""

    SERVE_CFG = MACEConfig(num_channels=8, lmax_sh=2, l_atomic_basis=2, correlation=2)
    MD_CFG = MACEConfig(num_channels=16, lmax_sh=2, l_atomic_basis=2, correlation=3)
    ENERGY_DIGEST = "da5bddc91f87329c34ca9132ec50ca4e"
    LOSS_DIGEST = "a0a5dc615070886775552af60f8eac04"
    EAGER_GRAD_DIGEST = "4074ba74af9d9b29a4c7c5176ad01b38"
    REPLAYED_GRAD_DIGEST = "b8475767ded712ed6d5117a435d70ce2"
    FORCE_DIGEST = "efe7973887f9c76b38053a777075e66a"
    TRAJECTORY_DIGEST = "58887f9b2e633cb764695e5faaac6c63"
    REBUILT_TRAJECTORY_DIGEST = "c2e7276d5224cf2e3f0b86ebd27a5a9d"

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
        of their shape bucket."""
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
