"""Tests for the vectorized neighbor-list pipeline and its caches:
cell-list-vs-brute-force equivalence (incl. skewed periodic cells),
Verlet-skin cache exactness/invalidation, and collate-cache reuse."""

import numpy as np
import pytest

from repro.cluster.workload import PAPER_MODEL
from repro.distribution import BalancedDistributedSampler
from repro.graphs import (
    CollateCache,
    MolecularGraph,
    NeighborListCache,
    brute_force_neighbor_list,
    build_neighbor_list,
    cell_list_neighbor_list,
    collate,
)
from repro.graphs.neighborlist import _grid_open, _grid_periodic


def _edge_set(ei, es):
    """Hashable (sender, receiver, shift) set for order-free comparison."""
    return set(
        zip(ei[0].tolist(), ei[1].tolist(), map(tuple, np.round(es, 6)))
    )


def _random_skewed_cell(rng, cutoff):
    """A random triclinic cell wide enough for the grid path (>= 3 bins)."""
    base = np.diag(rng.uniform(3.2 * cutoff, 6.0 * cutoff, 3))
    skew = rng.uniform(-0.25, 0.25, (3, 3))
    np.fill_diagonal(skew, 0.0)
    return base + skew * base.max()


class TestCellListEquivalence:
    def test_open_boundary_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 17, 250, 600):
            pos = rng.uniform(0.0, 14.0, (n, 3))
            ei_b, es_b = brute_force_neighbor_list(pos, 3.0)
            ei_c, es_c = cell_list_neighbor_list(pos, 3.0)
            assert _edge_set(ei_b, es_b) == _edge_set(ei_c, es_c)

    def test_open_boundary_clustered(self):
        """Many empty bins between two dense clusters."""
        rng = np.random.default_rng(1)
        pos = np.concatenate(
            [
                rng.uniform(0.0, 2.0, (40, 3)),
                rng.uniform(20.0, 22.0, (40, 3)),
            ]
        )
        ei_b, es_b = brute_force_neighbor_list(pos, 2.5)
        ei_c, es_c = _grid_open(pos, 2.5)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_c, es_c)

    @pytest.mark.parametrize("trial", range(8))
    def test_periodic_skewed_cells_match_brute_force(self, trial):
        rng = np.random.default_rng(100 + trial)
        cutoff = float(rng.uniform(1.0, 2.0))
        cell = _random_skewed_cell(rng, cutoff)
        n = int(rng.integers(5, 250))
        pos = rng.uniform(0.0, 1.0, (n, 3)) @ cell
        ei_b, es_b = brute_force_neighbor_list(pos, cutoff, cell, True)
        ei_c, es_c = _grid_periodic(pos, cutoff, cell)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_c, es_c)

    def test_periodic_boundary_crossing_pair(self):
        """A pair split across the boundary connects through the wrapped
        image with the correct nonzero shift."""
        cutoff = 1.5
        cell = np.eye(3) * 6.0
        pos = np.array([[0.2, 3.0, 3.0], [5.8, 3.0, 3.0]])
        ei, es = _grid_periodic(pos, cutoff, cell)
        edges = _edge_set(ei, es)
        assert (1, 0, (-6.0, 0.0, 0.0)) in edges
        assert (0, 1, (6.0, 0.0, 0.0)) in edges
        ei_b, es_b = brute_force_neighbor_list(pos, cutoff, cell, True)
        assert edges == _edge_set(ei_b, es_b)

    def test_out_of_cell_positions(self):
        """Atoms drifted outside the unit cell (MD never wraps positions)
        keep exact edges: each atom's own fold goes into the edge shift.
        Regression for the wrapped-binning/unwrapped-distance mismatch."""
        rng = np.random.default_rng(42)
        cutoff = 1.5
        cell = _random_skewed_cell(rng, cutoff)
        n = 150
        pos = rng.uniform(0.0, 1.0, (n, 3)) @ cell
        pos += rng.normal(0.0, 0.4, pos.shape)  # drift partly outside
        pos[0] += cell[0] * 2.3  # and one atom far outside
        ei_b, es_b = brute_force_neighbor_list(pos, cutoff, cell, True)
        ei_c, es_c = _grid_periodic(pos, cutoff, cell)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_c, es_c)
        # Shift convention check on the actual displacements.
        for ei, es in ((ei_b, es_b), (ei_c, es_c)):
            d = pos[ei[0]] + es - pos[ei[1]]
            assert np.all(np.einsum("ij,ij->i", d, d) <= cutoff * cutoff)

    def test_two_bin_cell_uses_grid_and_matches_brute_force(self):
        rng = np.random.default_rng(2)
        cell = np.eye(3) * 4.0  # 2 bins per direction at cutoff 2
        pos = rng.uniform(0.0, 4.0, (30, 3))
        ei_c, es_c = cell_list_neighbor_list(pos, 2.0, cell, True)
        ei_b, es_b = brute_force_neighbor_list(pos, 2.0, cell, True)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_c, es_c)
        # The minimum-image grid itself (not the brute-force fallback)
        # must produce this edge set.
        ei_g, es_g = _grid_periodic(pos, 2.0, cell)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_g, es_g)

    @pytest.mark.parametrize("nbins", [(1, 1, 1), (1, 2, 3), (2, 2, 2)])
    def test_minimum_image_grid_on_small_cells(self, nbins):
        """1-2 bins per direction: the wrapped +-1 offsets must enumerate
        exactly the in-range periodic images (incl. self-images)."""
        rng = np.random.default_rng(3)
        cutoff = 2.0
        cell = np.diag([n * cutoff * 1.05 for n in nbins])
        pos = rng.uniform(0.0, 1.0, (25, 3)) @ cell
        ei_b, es_b = brute_force_neighbor_list(pos, cutoff, cell, True)
        ei_g, es_g = _grid_periodic(pos, cutoff, cell)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_g, es_g)

    @pytest.mark.parametrize("trial", range(3))
    def test_minimum_image_grid_on_skewed_small_cells(self, trial):
        rng = np.random.default_rng(100 + trial)
        cutoff = 2.0
        base = np.diag(rng.uniform(1.2 * cutoff, 2.8 * cutoff, 3))
        skew = rng.uniform(-0.15, 0.15, (3, 3))
        np.fill_diagonal(skew, 0.0)
        cell = base + skew * base.max()
        from repro.graphs.neighborlist import _cell_widths

        if np.any(_cell_widths(cell) < cutoff):
            pytest.skip("skew made a width subcritical; fallback covers it")
        pos = rng.uniform(0.0, 1.0, (20, 3)) @ cell
        ei_b, es_b = brute_force_neighbor_list(pos, cutoff, cell, True)
        ei_g, es_g = _grid_periodic(pos, cutoff, cell)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_g, es_g)

    def test_subcritical_width_still_defers_to_brute_force(self):
        """cutoff > cell width needs images beyond +-1; the dispatcher
        must keep routing those cells to the brute-force enumeration."""
        rng = np.random.default_rng(4)
        cell = np.eye(3) * 3.0
        pos = rng.uniform(0.0, 3.0, (12, 3))
        ei_c, es_c = cell_list_neighbor_list(pos, 4.0, cell, True)
        ei_b, es_b = brute_force_neighbor_list(pos, 4.0, cell, True)
        assert _edge_set(ei_b, es_b) == _edge_set(ei_c, es_c)


class TestNeighborListCache:
    def _periodic_graph(self, rng, n=60, width=12.0):
        cell = np.eye(3) * width
        pos = rng.uniform(0.0, 1.0, (n, 3)) @ cell
        return MolecularGraph(pos, np.full(n, 8), cell=cell, pbc=True)

    def test_filtered_edges_exact_under_drift(self):
        rng = np.random.default_rng(3)
        g = self._periodic_graph(rng)
        cache = NeighborListCache(cutoff=3.0, skin=0.5)
        for _ in range(20):
            g.positions += rng.normal(0.0, 0.03, g.positions.shape)
            cache.update(g)
            ei_b, es_b = brute_force_neighbor_list(
                g.positions, 3.0, g.cell, True
            )
            assert _edge_set(g.edge_index, g.edge_shift) == _edge_set(
                ei_b, es_b
            )
        assert cache.rebuilds < cache.queries
        assert 0.0 < cache.reuse_fraction < 1.0

    def test_no_rebuild_below_half_skin(self):
        rng = np.random.default_rng(4)
        g = self._periodic_graph(rng)
        cache = NeighborListCache(cutoff=3.0, skin=1.0)
        cache.update(g)
        g.positions += 0.4 / np.sqrt(3.0)  # uniform drift, |d| = 0.4 < 0.5
        assert cache.update(g) is False
        assert cache.rebuilds == 1

    def test_rebuild_beyond_half_skin(self):
        rng = np.random.default_rng(5)
        g = self._periodic_graph(rng)
        cache = NeighborListCache(cutoff=3.0, skin=1.0)
        cache.update(g)
        g.positions[0] += np.array([0.6, 0.0, 0.0])  # > skin / 2
        assert cache.update(g) is True
        assert cache.rebuilds == 2

    def test_invalidation_on_system_change(self):
        rng = np.random.default_rng(6)
        g = self._periodic_graph(rng)
        cache = NeighborListCache(cutoff=3.0, skin=1.0)
        cache.update(g)
        # Different atom count.
        g2 = self._periodic_graph(rng, n=61)
        assert cache.update(g2) is True
        # Same geometry, different species.
        g3 = MolecularGraph(
            g2.positions.copy(),
            np.full(g2.n_atoms, 1),
            cell=g2.cell.copy(),
            pbc=True,
        )
        assert cache.update(g3) is True
        # Different cell.
        g4 = MolecularGraph(
            g3.positions.copy(),
            g3.species.copy(),
            cell=g3.cell * 1.01,
            pbc=True,
        )
        assert cache.update(g4) is True

    def test_zero_skin_always_rebuilds(self):
        rng = np.random.default_rng(7)
        g = self._periodic_graph(rng)
        cache = NeighborListCache(cutoff=3.0, skin=0.0)
        cache.update(g)
        cache.update(g)
        assert cache.rebuilds == cache.queries == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NeighborListCache(cutoff=0.0)
        with pytest.raises(ValueError):
            NeighborListCache(cutoff=3.0, skin=-0.1)
        with pytest.raises(ValueError):
            NeighborListCache(cutoff=3.0, skin="adaptive")

    def _drive(self, cache, sigma, steps=60, seed=8):
        """Random-walk a graph through ``steps`` cache updates."""
        rng = np.random.default_rng(seed)
        g = self._periodic_graph(rng)
        cache.update(g)
        for _ in range(steps):
            g.positions += rng.normal(0.0, sigma, g.positions.shape)
            cache.update(g)
        return g

    def test_auto_skin_hot_system_picks_larger_skin(self):
        hot = NeighborListCache(cutoff=3.0, skin="auto")
        cold = NeighborListCache(cutoff=3.0, skin="auto")
        assert hot.auto_skin and cold.auto_skin
        self._drive(hot, sigma=0.05)
        self._drive(cold, sigma=0.002)
        assert hot.skin > cold.skin
        from repro.graphs.pipeline import _AUTO_SKIN_MAX, _AUTO_SKIN_MIN

        for cache in (hot, cold):
            assert _AUTO_SKIN_MIN <= cache.skin <= _AUTO_SKIN_MAX

    def test_auto_skin_rebuilds_less_than_fixed_small_skin_when_hot(self):
        auto = NeighborListCache(cutoff=3.0, skin="auto")
        fixed = NeighborListCache(cutoff=3.0, skin=0.1)
        self._drive(auto, sigma=0.05)
        self._drive(fixed, sigma=0.05)
        assert auto.rebuilds < fixed.rebuilds

    def test_auto_skin_edges_stay_exact(self):
        rng = np.random.default_rng(9)
        g = self._periodic_graph(rng)
        cache = NeighborListCache(cutoff=3.0, skin="auto")
        for _ in range(25):
            g.positions += rng.normal(0.0, 0.04, g.positions.shape)
            cache.update(g)
            ei_b, es_b = brute_force_neighbor_list(g.positions, 3.0, g.cell, True)
            assert _edge_set(g.edge_index, g.edge_shift) == _edge_set(ei_b, es_b)

    def test_fixed_skin_never_retunes(self):
        cache = NeighborListCache(cutoff=3.0, skin=0.7)
        self._drive(cache, sigma=0.05)
        assert cache.skin == 0.7 and not cache.auto_skin


def _labeled_graphs(rng, count=8):
    graphs = []
    for i in range(count):
        n = int(rng.integers(4, 12))
        g = MolecularGraph(
            rng.uniform(0.0, 6.0, (n, 3)),
            np.full(n, 8),
            energy=float(rng.normal()),
        )
        build_neighbor_list(g, cutoff=3.0)
        graphs.append(g)
    return graphs


class TestCollateCache:
    def test_hit_on_permuted_composition(self):
        rng = np.random.default_rng(8)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        b1 = cache.get(graphs, [3, 0, 5], capacity=128)
        b2 = cache.get(graphs, [5, 3, 0], capacity=128)
        assert b1 is b2
        assert cache.stats()["hits"] == 1

    def test_batch_matches_direct_collate(self):
        rng = np.random.default_rng(9)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        batch = cache.get(graphs, [4, 1], capacity=64)
        direct = collate([graphs[1], graphs[4]], capacity=64)
        for name in ("positions", "species", "edge_index", "edge_shift",
                     "graph_index", "energies"):
            np.testing.assert_array_equal(getattr(batch, name), getattr(direct, name))
        assert (batch.ghost_atoms, batch.ghost_edges, batch.ghost_graphs) == (
            direct.ghost_atoms, direct.ghost_edges, direct.ghost_graphs
        )
        # Only the cache's own batch memoizes edge features.
        assert batch.features == {} and direct.features is None

    def test_over_capacity_check_counts_real_atoms(self):
        """Capacity 100 is no bucket boundary: 97 real atoms occupy 104
        rows and must still fit, and 101 real atoms must not."""
        from repro.mace import MACE, MACEConfig
        from repro.serving import InferenceEngine, generate_trace

        rng = np.random.default_rng(23)

        def graph(n):
            g = MolecularGraph(
                rng.uniform(0.0, 10.0, (n, 3)), np.full(n, 8), energy=-1.0
            )
            return build_neighbor_list(g, cutoff=3.0)

        fits, over = [graph(97)], [graph(101)]
        batch = collate(fits, capacity=100)
        assert batch.n_atoms == 104 and batch.ghost_atoms == 7
        assert CollateCache().get(fits, [0], capacity=100).n_atoms == 104
        cfg = MACEConfig(num_channels=2, lmax_sh=1, l_atomic_basis=1,
                         correlation=1, cutoff=3.0, species=(8,))
        engine = InferenceEngine(MACE(cfg, seed=0), fits, n_replicas=1,
                                 max_batch_tokens=100)
        report = engine.serve(generate_trace(fits, 2, rate=10.0, seed=0))
        assert all(np.isfinite(r.energy) for r in report.records)
        for call in (
            lambda: collate(over, capacity=100),
            lambda: CollateCache().get(over, [0], capacity=100),
        ):
            with pytest.raises(ValueError, match="holds 101 tokens, over capacity 100"):
                call()
        engine = InferenceEngine(MACE(cfg, seed=0), over, n_replicas=1,
                                 max_batch_tokens=100)
        with pytest.raises(ValueError):
            engine.serve(generate_trace(over, 1, rate=10.0, seed=0))

    def test_capacity_is_part_of_key(self):
        rng = np.random.default_rng(10)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        assert cache.get(graphs, [0, 1], 64) is not cache.get(graphs, [0, 1], 32)
        assert cache.stats()["misses"] == 2

    def test_distinct_datasets_do_not_collide(self):
        """Same indices into different graph lists are different batches
        (regression: keys once lacked dataset identity, so a shared
        cache returned train batches for validation queries)."""
        rng = np.random.default_rng(20)
        train = _labeled_graphs(rng)
        val = _labeled_graphs(rng)
        cache = CollateCache()
        b_train = cache.get(train, [0, 1])
        b_val = cache.get(val, [0, 1])
        assert b_train is not b_val
        np.testing.assert_allclose(
            b_val.positions,
            collate([val[0], val[1]]).positions,
        )
        # Re-querying either dataset still hits its own entry.
        assert cache.get(train, [1, 0]) is b_train
        assert cache.get(val, [1, 0]) is b_val

    def test_inplace_position_mutation_is_never_stale(self):
        """Active-learning loops mutate graphs in place; the geometry
        fingerprint in the key must force re-collation, not serve the
        pre-mutation batch."""
        rng = np.random.default_rng(30)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        before = cache.get(graphs, [0, 2])
        graphs[2].positions = graphs[2].positions + 0.37
        build_neighbor_list(graphs[2], cutoff=3.0)
        after = cache.get(graphs, [0, 2])
        assert after is not before
        np.testing.assert_allclose(
            after.positions, collate([graphs[0], graphs[2]]).positions
        )
        # Untouched members of other bins still hit.
        b1 = cache.get(graphs, [1, 3])
        assert cache.get(graphs, [3, 1]) is b1

    def test_inplace_cell_mutation_is_never_stale(self):
        rng = np.random.default_rng(31)
        cell = np.eye(3) * 8.0
        graphs = [
            MolecularGraph(
                rng.uniform(0, 8, (6, 3)), np.full(6, 8), cell=cell.copy(),
                pbc=True, energy=0.0,
            )
            for _ in range(3)
        ]
        for g in graphs:
            build_neighbor_list(g, cutoff=3.0)
        cache = CollateCache()
        before = cache.get(graphs, [0, 1])
        graphs[0].cell = np.eye(3) * 9.0
        build_neighbor_list(graphs[0], cutoff=3.0)
        assert cache.get(graphs, [0, 1]) is not before

    def test_count_preserving_edge_rebuild_is_never_stale(self):
        """A neighbor-list rebuild that swaps edges while keeping the
        count (e.g. a cutoff change) must miss: the fingerprint
        checksums edge content, not just the edge count."""
        rng = np.random.default_rng(34)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        before = cache.get(graphs, [0, 1])
        g = graphs[0]
        ei = g.edge_index.copy()
        assert ei.shape[1] >= 2
        # Replace one pair (edges 0 and 1) with a different pair, same count.
        ei[:, :2] = (ei[:, :2] + 1) % g.n_atoms
        g.edge_index = ei
        after = cache.get(graphs, [0, 1])
        assert after is not before
        np.testing.assert_array_equal(
            after.edge_index, collate([graphs[0], graphs[1]]).edge_index
        )

    def test_label_only_mutation_is_never_stale(self):
        """Relabeling at fixed geometry (active-learning energy updates)
        must also miss: batches carry the labels."""
        rng = np.random.default_rng(33)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        before = cache.get(graphs, [0, 1])
        graphs[1].energy = (graphs[1].energy or 0.0) + 1.5
        after = cache.get(graphs, [0, 1])
        assert after is not before
        np.testing.assert_allclose(
            after.energies, collate([graphs[0], graphs[1]]).energies
        )
        graphs[0].forces = rng.standard_normal(graphs[0].positions.shape)
        assert cache.get(graphs, [0, 1]) is not after

    def test_superseded_entries_are_evicted_not_accumulated(self):
        """A mutation loop must not pile up dead batches: each
        fingerprint-invalidated miss evicts the entry it supersedes."""
        rng = np.random.default_rng(35)
        graphs = _labeled_graphs(rng, count=4)
        cache = CollateCache()
        for _ in range(20):
            graphs[0].positions += rng.normal(0.0, 0.01, graphs[0].positions.shape)
            build_neighbor_list(graphs[0], cutoff=3.0)
            cache.get(graphs, [0, 1])
            cache.get(graphs, [2, 3])
        stats = cache.stats()
        assert stats["size"] == 2, stats  # one live entry per bin
        assert stats["hits"] == 19  # the static bin kept hitting

    def test_unchanged_geometry_still_hits(self):
        rng = np.random.default_rng(32)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        b1 = cache.get(graphs, [0, 1], capacity=32)
        assert cache.get(graphs, [1, 0], capacity=32) is b1
        assert cache.stats()["hit_rate"] == 0.5

    def test_transient_datasets_are_bounded(self):
        """The dataset registry is bounded: old datasets (and their
        batches) are evicted instead of being pinned forever."""
        rng = np.random.default_rng(21)
        cache = CollateCache(max_datasets=3)
        for _ in range(10):
            cache.get(_labeled_graphs(rng, count=2), [0, 1])
        assert len(cache._datasets) == 3
        assert len(cache) == 3  # evicted datasets took their entries along

    def test_lru_eviction(self):
        rng = np.random.default_rng(11)
        graphs = _labeled_graphs(rng)
        cache = CollateCache(maxsize=2)
        cache.get(graphs, [0])
        cache.get(graphs, [1])
        cache.get(graphs, [2])  # evicts [0]
        assert len(cache) == 2
        cache.get(graphs, [0])
        assert cache.stats()["misses"] == 4

    def test_retain_drops_unplanned_bins_of_one_dataset(self):
        rng = np.random.default_rng(16)
        graphs = _labeled_graphs(rng)
        other = _labeled_graphs(rng, count=3)
        cache = CollateCache()
        kept = cache.get(graphs, [1, 0], 24)
        cache.get(graphs, [2, 3], 24)
        cache.get(graphs, [0, 1])  # same composition, another capacity
        elsewhere = cache.get(other, [0, 2], 24)
        cache.retain(graphs, [([0, 1], 24), ([4], 24)])
        assert len(cache) == 2
        assert cache.holds(graphs, [([1, 0], 24)]) and cache.holds(other, [([0, 2], 24)])
        assert not cache.holds(graphs, [([0, 1], 24), ([4], 24)])
        assert not cache.holds(graphs, [([2, 3], 24)])
        assert cache.get(graphs, [0, 1], 24) is kept
        assert cache.get(other, [2, 0], 24) is elsewhere
        assert cache.stats()["hits"] == 2

    def test_clear(self):
        rng = np.random.default_rng(12)
        graphs = _labeled_graphs(rng)
        cache = CollateCache()
        cache.get(graphs, [0, 1])
        cache.clear()
        assert len(cache) == 0


def _collated_plan(sampler, graphs, epoch, rank, cache=None):
    """Rank ``rank``'s epoch plan collated bin by bin at each bin's
    capacity, through ``cache`` when one is given."""
    return [
        cache.get(graphs, indices, capacity)
        if cache is not None
        else collate([graphs[i] for i in indices], capacity=capacity)
        for indices, capacity in sampler.plan_rank_bins(epoch, rank)
    ]


class TestSamplerMaterialization:
    def test_bins_fit_capacity_and_cached_across_epochs(self):
        rng = np.random.default_rng(13)
        graphs = _labeled_graphs(rng, count=12)
        sizes = [g.n_atoms for g in graphs]
        sampler = BalancedDistributedSampler(
            sizes, capacity=24, num_replicas=2, shuffle=False
        )
        cache = CollateCache()
        first = _collated_plan(sampler, graphs, 0, 0, cache=cache)
        assert first and all(b.real().n_atoms <= 24 for b in first)
        assert all(b.features == {} for b in first)  # cache-owned, nothing featurized yet
        # Deterministic plan (no shuffle): epoch 1 is pure cache hits.
        second = _collated_plan(sampler, graphs, 1, 0, cache=cache)
        assert all(a is b for a, b in zip(first, second))
        assert cache.stats()["hits"] == len(second)

    def test_trainer_and_sampler_share_cache_entries(self):
        """Trainer.fit keys batches at the plan's capacity, so a cache
        shared with the caller holds one entry per composition."""
        from repro.mace import MACE, MACEConfig
        from repro.training import Trainer

        rng = np.random.default_rng(15)
        graphs = []
        for _ in range(6):
            n = int(rng.integers(4, 10))
            g = MolecularGraph(
                rng.uniform(0.0, 6.0, (n, 3)),
                np.full(n, 8),
                energy=float(rng.normal()),
            )
            build_neighbor_list(g, cutoff=3.0)
            graphs.append(g)
        sampler = BalancedDistributedSampler(
            [g.n_atoms for g in graphs], capacity=24, num_replicas=1,
            shuffle=False,
        )
        cache = CollateCache()
        pre = _collated_plan(sampler, graphs, 0, 0, cache=cache)
        cfg = MACEConfig(
            num_channels=2, lmax_sh=1, l_atomic_basis=1, correlation=2
        )
        trainer = Trainer(
            MACE(cfg, seed=0), graphs, collate_cache=cache
        )
        trainer.fit(sampler, n_epochs=1)
        # A single step on a plan bin keys identically too.
        trainer.train_step(*sampler.plan_rank_bins(0, 0)[0])
        stats = cache.stats()
        assert stats["misses"] == len(pre)  # no duplicate (indices, 0) keys
        assert stats["hits"] >= len(pre) + 1

    def test_materialize_without_cache(self):
        rng = np.random.default_rng(14)
        graphs = _labeled_graphs(rng, count=6)
        sampler = BalancedDistributedSampler(
            [g.n_atoms for g in graphs], capacity=24, num_replicas=1,
            shuffle=False,
        )
        batches = _collated_plan(sampler, graphs, 0, 0)
        assert sum(b.real().n_graphs for b in batches) == len(graphs)

    def test_fit_capacity_agrees_with_materialization(self):
        """Trainer.fit and a caller collating the plan must key a shared cache
        identically for *any* sampler, including the fixed-count baseline
        whose capacity lives on its plan's bins, not the sampler."""
        from repro.distribution import FixedCountDistributedSampler
        from repro.mace import MACE, MACEConfig
        from repro.training import Trainer

        rng = np.random.default_rng(23)
        graphs = _labeled_graphs(rng, count=6)
        sampler = FixedCountDistributedSampler(
            [g.n_atoms for g in graphs], graphs_per_batch=2, num_replicas=1,
            shuffle=False,
        )
        cache = CollateCache()
        pre = _collated_plan(sampler, graphs, 0, 0, cache=cache)
        cfg = MACEConfig(
            num_channels=2, lmax_sh=1, l_atomic_basis=1, correlation=2
        )
        trainer = Trainer(MACE(cfg, seed=0), graphs, collate_cache=cache)
        trainer.fit(sampler, n_epochs=1)
        assert cache.stats()["misses"] == len(pre)

    def test_appended_unlabeled_graph_fails_loudly(self):
        from repro.mace import MACE, MACEConfig
        from repro.training import Trainer

        rng = np.random.default_rng(24)
        graphs = _labeled_graphs(rng, count=4)
        cfg = MACEConfig(
            num_channels=2, lmax_sh=1, l_atomic_basis=1, correlation=2
        )
        trainer = Trainer(MACE(cfg, seed=0), graphs)
        rogue = MolecularGraph(np.zeros((2, 3)), np.array([8, 8]))
        build_neighbor_list(rogue, cutoff=3.0)
        graphs.append(rogue)  # aliased list; no label
        with pytest.raises(ValueError, match="without energy labels"):
            trainer.train_step([0, len(graphs) - 1])

    def test_fixed_count_baseline_keeps_padding_accounting(self):
        """The fixed-count baseline's per-epoch max-fill capacity lives on
        its plan's bins; the padding comparison against the balanced
        sampler reads it there (``evaluate_bins``), and materialization
        checks every bin's real atoms against it."""
        from repro.distribution import FixedCountDistributedSampler, evaluate_bins

        rng = np.random.default_rng(22)
        graphs = _labeled_graphs(rng, count=9)
        sizes = [g.n_atoms for g in graphs]
        sampler = FixedCountDistributedSampler(
            sizes, graphs_per_batch=3, num_replicas=1, shuffle=False,
        )
        bins = sampler.plan_rank_bins(0, 0)
        batches = _collated_plan(sampler, graphs, 0, 0)
        fills = [b.real().n_atoms for b in batches]
        assert fills == [sum(sizes[i] for i in idx) for idx, _ in bins]
        assert all(cap == max(fills) for _, cap in bins)
        padding = evaluate_bins(sampler.plan_epoch(0)).padding_fraction
        assert padding == pytest.approx(1.0 - sum(fills) / (len(fills) * max(fills)))


class TestHostCollateModel:
    def test_cache_hits_reduce_host_time(self):
        tokens = np.array([3000.0, 1500.0])
        edges = tokens * 30.0
        cold = PAPER_MODEL.host_collate_seconds(tokens, edges)
        warm = PAPER_MODEL.host_collate_seconds(tokens, edges, cache_hit_rate=1.0)
        assert np.all(warm < cold)
        half = PAPER_MODEL.host_collate_seconds(tokens, edges, cache_hit_rate=0.5)
        np.testing.assert_allclose(half, 0.5 * cold + 0.5 * warm)

    def test_rejects_bad_hit_rate(self):
        with pytest.raises(ValueError):
            PAPER_MODEL.host_collate_seconds(
                np.array([10.0]), np.array([10.0]), cache_hit_rate=1.5
            )
