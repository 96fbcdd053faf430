"""Tests for molecular graphs, neighbor lists (incl. PBC) and batching."""

import numpy as np
import pytest

from repro.equivariant import random_rotation
from repro.graphs import (
    GraphBatch,
    MolecularGraph,
    brute_force_neighbor_list,
    bucket_size,
    build_neighbor_list,
    cell_list_neighbor_list,
    collate,
)


def _edge_set(ei):
    return set(zip(ei[0].tolist(), ei[1].tolist()))


class TestMolecularGraph:
    def test_basic_properties(self):
        g = MolecularGraph(np.zeros((3, 3)), np.array([8, 1, 1]))
        assert g.n_atoms == 3
        assert g.n_edges == 0
        assert not g.has_edges

    def test_species_length_mismatch(self):
        with pytest.raises(ValueError):
            MolecularGraph(np.zeros((3, 3)), np.array([1, 1]))

    def test_pbc_requires_cell(self):
        with pytest.raises(ValueError):
            MolecularGraph(np.zeros((2, 3)), np.array([1, 1]), pbc=True)

    def test_bad_cell_shape(self):
        with pytest.raises(ValueError):
            MolecularGraph(
                np.zeros((2, 3)), np.array([1, 1]), cell=np.eye(2), pbc=True
            )

    def test_displacement_vectors(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        g = MolecularGraph(pos, np.array([1, 1]))
        build_neighbor_list(g, cutoff=2.0)
        vec = g.displacement_vectors()
        assert vec.shape == (2, 3)
        # Both directed edges, opposite vectors.
        np.testing.assert_allclose(vec[0], -vec[1])

    def test_sparsity_complete_graph(self):
        pos = np.zeros((4, 3))
        pos[:, 0] = [0.0, 0.1, 0.2, 0.3]
        g = MolecularGraph(pos, np.ones(4, dtype=int))
        build_neighbor_list(g, cutoff=1.0)
        assert g.sparsity() == pytest.approx(1.0)

    def test_sparsity_single_atom(self):
        g = MolecularGraph(np.zeros((1, 3)), np.array([1]))
        g.edge_index = np.zeros((2, 0), dtype=np.int64)
        assert g.sparsity() == 0.0

    def test_rotated_preserves_distances(self, rng):
        pos = rng.standard_normal((5, 3))
        g = MolecularGraph(pos, np.ones(5, dtype=int))
        R = random_rotation(rng)
        g2 = g.rotated(R)
        d1 = np.linalg.norm(pos[0] - pos[1])
        d2 = np.linalg.norm(g2.positions[0] - g2.positions[1])
        assert d1 == pytest.approx(d2)

    def test_permuted_moves_labels(self, rng):
        pos = rng.standard_normal((4, 3))
        g = MolecularGraph(pos, np.array([1, 8, 14, 29]))
        perm = np.array([2, 0, 3, 1])
        g2 = g.permuted(perm)
        np.testing.assert_array_equal(g2.species, g.species[perm])
        np.testing.assert_array_equal(g2.positions, g.positions[perm])


class TestNeighborListOpen:
    def test_pair_within_cutoff(self):
        ei, es = brute_force_neighbor_list(
            np.array([[0.0, 0, 0], [1.0, 0, 0]]), cutoff=1.5
        )
        assert _edge_set(ei) == {(0, 1), (1, 0)}
        np.testing.assert_array_equal(es, 0.0)

    def test_pair_beyond_cutoff(self):
        ei, _ = brute_force_neighbor_list(
            np.array([[0.0, 0, 0], [2.0, 0, 0]]), cutoff=1.5
        )
        assert ei.shape == (2, 0)

    def test_no_self_edges(self, rng):
        pos = rng.uniform(0, 3, (20, 3))
        ei, _ = brute_force_neighbor_list(pos, cutoff=2.0)
        assert not np.any(ei[0] == ei[1])

    def test_symmetry(self, rng):
        pos = rng.uniform(0, 5, (30, 3))
        ei, _ = brute_force_neighbor_list(pos, cutoff=2.0)
        edges = _edge_set(ei)
        assert all((j, i) in edges for i, j in edges)

    def test_empty_input(self):
        ei, es = brute_force_neighbor_list(np.zeros((0, 3)), cutoff=1.0)
        assert ei.shape == (2, 0)

    def test_cell_list_matches_brute_force(self, rng):
        pos = rng.uniform(0, 12, (80, 3))
        ei_b, _ = brute_force_neighbor_list(pos, cutoff=3.0)
        ei_c, _ = cell_list_neighbor_list(pos, cutoff=3.0)
        assert _edge_set(ei_b) == _edge_set(ei_c)

    def test_cutoff_boundary_inclusive(self):
        ei, _ = brute_force_neighbor_list(
            np.array([[0.0, 0, 0], [1.0, 0, 0]]), cutoff=1.0
        )
        assert ei.shape[1] == 2


class TestNeighborListPeriodic:
    def test_wraparound_edge(self):
        """Atoms near opposite faces connect through the boundary."""
        cell = np.eye(3) * 10.0
        pos = np.array([[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]])
        ei, es = brute_force_neighbor_list(pos, cutoff=1.5, cell=cell, pbc=True)
        edges = _edge_set(ei)
        assert (0, 1) in edges and (1, 0) in edges
        # The shift carries the sender across the boundary.
        k = np.nonzero((ei[0] == 1) & (ei[1] == 0))[0][0]
        d = pos[1] + es[k] - pos[0]
        assert np.linalg.norm(d) == pytest.approx(1.0)

    def test_self_image_interaction(self):
        """In a tiny cell an atom sees its own periodic images."""
        cell = np.eye(3) * 2.0
        pos = np.array([[1.0, 1.0, 1.0]])
        ei, es = brute_force_neighbor_list(pos, cutoff=2.1, cell=cell, pbc=True)
        assert ei.shape[1] >= 6  # at least the 6 face neighbors

    def test_no_pbc_cell_ignored(self):
        cell = np.eye(3) * 10.0
        pos = np.array([[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]])
        ei, _ = brute_force_neighbor_list(pos, cutoff=1.5, cell=cell, pbc=False)
        assert ei.shape[1] == 0

    def test_grid_matches_brute_force_periodic(self, rng):
        cell = np.eye(3) * 20.0
        pos = rng.uniform(0, 20, (60, 3))
        ei_b, es_b = brute_force_neighbor_list(pos, 3.0, cell, True)
        ei_c, es_c = cell_list_neighbor_list(pos, 3.0, cell, True)
        # Compare multisets of (sender, receiver, rounded shift).
        def key(ei, es):
            return sorted(
                (int(a), int(b), tuple(np.round(s, 6)))
                for a, b, s in zip(ei[0], ei[1], es)
            )
        assert key(ei_b, es_b) == key(ei_c, es_c)

    def test_small_cell_fallback(self, rng):
        cell = np.eye(3) * 6.0
        pos = rng.uniform(0, 6, (20, 3))
        ei_b, _ = brute_force_neighbor_list(pos, 4.5, cell, True)
        ei_c, _ = cell_list_neighbor_list(pos, 4.5, cell, True)
        assert ei_b.shape == ei_c.shape

    def test_singular_cell_raises(self):
        with pytest.raises(ValueError):
            brute_force_neighbor_list(
                np.zeros((2, 3)), 1.0, np.zeros((3, 3)), True
            )

    def test_build_neighbor_list_methods_agree(self, rng):
        from repro.graphs import MolecularGraph

        pos = rng.uniform(0, 15, (50, 3))
        g1 = MolecularGraph(pos, np.ones(50, dtype=int))
        g2 = MolecularGraph(pos.copy(), np.ones(50, dtype=int))
        build_neighbor_list(g1, cutoff=3.0, method="brute")
        build_neighbor_list(g2, cutoff=3.0, method="cell")
        assert g1.n_edges == g2.n_edges

    def test_unknown_method_raises(self):
        g = MolecularGraph(np.zeros((1, 3)), np.array([1]))
        with pytest.raises(ValueError):
            build_neighbor_list(g, method="quantum")


class TestCollate:
    def _two_graphs(self):
        g1 = MolecularGraph(
            np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([1, 1]), energy=-1.0
        )
        g2 = MolecularGraph(
            np.array([[0.0, 0, 0], [0.0, 1.2, 0], [0.0, 0, 1.2]]),
            np.array([8, 1, 1]),
            energy=-2.0,
        )
        build_neighbor_list(g1, cutoff=2.0)
        build_neighbor_list(g2, cutoff=2.0)
        return g1, g2

    def test_block_diagonal_offsets(self):
        g1, g2 = self._two_graphs()
        batch = collate([g1, g2]).real()
        assert batch.n_atoms == 5
        assert batch.n_graphs == 2
        # Edges of graph 2 are offset by graph 1's atom count.
        assert batch.edge_index[:, g1.n_edges :].min() >= 2
        np.testing.assert_array_equal(batch.graph_index, [0, 0, 1, 1, 1])

    def test_no_cross_graph_edges(self):
        g1, g2 = self._two_graphs()
        batch = collate([g1, g2])
        send, recv = batch.edge_index
        same_graph = batch.graph_index[send] == batch.graph_index[recv]
        assert same_graph.all()

    def test_energies_collected(self):
        g1, g2 = self._two_graphs()
        batch = collate([g1, g2])
        np.testing.assert_allclose(batch.real().energies, [-1.0, -2.0])
        assert not batch.energies[2:].any()  # ghost graphs carry 0.0

    def test_capacity_bounds_real_atoms_not_rows(self):
        g1, g2 = self._two_graphs()
        batch = collate([g1, g2], capacity=5)  # 5 real atoms, 8 rows
        assert batch.n_atoms == 8 and batch.ghost_atoms == 3
        with pytest.raises(ValueError, match="holds 5 tokens, over capacity 4"):
            collate([g1, g2], capacity=4)

    @pytest.mark.parametrize(
        "seed, sizes",
        [
            (0, [(1, False)]),  # one atom, no edges
            (1, [(16, True), (20, False), (12, True)]),  # 48 atoms: at the bucket
            (2, [(3, False)] * 7),  # 7 graphs + 1 ghost fill 8 graph slots
            (3, [(3, False)] * 8),  # one more graph crosses into 16 slots
            (4, [(5, True), (9, False), (7, True), (11, False)]),  # mixed cells
        ],
        ids=["one-atom", "atoms-at-bucket", "7-graphs", "8-graphs", "mixed-cells"],
    )
    def test_real_is_the_plain_concatenation(self, seed, sizes):
        rng = np.random.default_rng(seed)
        graphs = []
        for n, periodic in sizes:
            box = 2.2 * max(n, 2) ** (1.0 / 3.0)
            g = MolecularGraph(
                rng.uniform(0.0, box, (n, 3)),
                rng.choice([1, 6, 8], n),
                cell=np.eye(3) * box if periodic else None,
                pbc=periodic,
                energy=float(rng.normal()),
            )
            graphs.append(build_neighbor_list(g, cutoff=3.0))
        batch = collate(graphs)
        real = batch.real()
        counts = np.array([g.n_atoms for g in graphs])
        offsets = np.cumsum(counts) - counts
        expected = {
            "positions": np.concatenate([g.positions for g in graphs]),
            "species": np.concatenate([g.species for g in graphs]),
            "edge_index": np.concatenate(
                [g.edge_index + off for g, off in zip(graphs, offsets)], axis=1
            ),
            "edge_shift": np.concatenate(
                [
                    g.edge_shift if g.edge_shift is not None else np.zeros((g.n_edges, 3))
                    for g in graphs
                ]
            ),
            "graph_index": np.repeat(np.arange(len(graphs)), counts),
            "energies": np.array([g.energy for g in graphs]),
        }
        for name, want in expected.items():
            got = getattr(real, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name  # bitwise
            assert got.base is getattr(batch, name), name  # a view, not a copy
        a, e, g = real.n_atoms, real.n_edges, real.n_graphs
        assert g == len(graphs) and real.ghost_atoms == real.ghost_edges == 0
        assert (batch.n_atoms, batch.n_edges, batch.n_graphs) == (
            bucket_size(a),
            bucket_size(e),
            bucket_size(g + 1),
        )
        assert batch.ghost_atoms == batch.n_atoms - a
        assert batch.ghost_edges == batch.n_edges - e
        assert batch.ghost_graphs == batch.n_graphs - g
        # Ghost atoms: at the origin, atom 0's species, in the first ghost graph.
        assert not batch.positions[a:].any()
        assert (batch.species[a:] == batch.species[0]).all()
        assert (batch.graph_index[a:] == g).all()
        # Ghost edges: zero-shift self-edges on the last atom; ghost graphs: 0.0.
        assert (batch.edge_index[:, e:] == batch.n_atoms - 1).all()
        assert not batch.edge_shift[e:].any()
        assert not batch.energies[g:].any()
        if sizes[0][0] == 16:
            # No ghost atom, so the ghost edges sit on a real atom.
            assert batch.ghost_atoms == 0 and batch.ghost_edges > 0

    def test_capacity_overflow_raises(self):
        g1, g2 = self._two_graphs()
        with pytest.raises(ValueError):
            collate([g1, g2], capacity=4)

    def test_missing_neighbor_list_raises(self):
        g = MolecularGraph(np.zeros((2, 3)), np.array([1, 1]))
        with pytest.raises(ValueError):
            collate([g])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            collate([])

    def test_displacements_match_per_graph(self):
        g1, g2 = self._two_graphs()
        batch = collate([g1, g2])
        d_batch = batch.displacement_vectors()
        d1 = g1.displacement_vectors()
        np.testing.assert_allclose(d_batch[: g1.n_edges], d1)
