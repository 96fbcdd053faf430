"""Seeded randomized differential tests of shape-bucketed plans.

The numerics contract of the bucketed paths: a loss step replayed from a
shape-keyed plan on a padded batch equals the eager loss graph of the
*unpadded* batch to 1e-10 — loss and every parameter gradient — for
random bin contents, and everything the padding adds contributes
exactly ``0.0``; energies served from a bucket plan equal the unbatched
eager prediction of each member to 1e-10, whatever else shares the
micro-batch; energies and forces replayed from a bucket force plan equal
the eager pass on the exact batch to 1e-10, rotate with the input, and
ignore ghost atoms bit for bit.
"""

import hashlib
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.equivariant import random_rotation
from repro.graphs import (
    MolecularGraph,
    bucket_size,
    build_neighbor_list,
    collate,
)
from repro.kernels import counting, record_kernel
from repro.mace import MACE, MACEConfig
from repro.runtime import PlanCache
from repro.serving import InferenceEngine, build_request_pool, generate_trace
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
TOL = 1e-10
# One layer reads and writes scalars only; three put a middle layer at
# ``l_hidden`` on both sides between the scalar-input first layer and the
# invariant-output last one.
LAYER_COUNTS = pytest.mark.parametrize("n_layers", [1, 3])


def random_graph(rng, n_atoms: int, periodic: bool) -> MolecularGraph:
    """A labeled graph of ``n_atoms`` at roughly constant density."""
    box = 2.2 * max(n_atoms, 2) ** (1.0 / 3.0)
    g = MolecularGraph(
        rng.uniform(0.0, box, (n_atoms, 3)),
        rng.choice(CFG.species, n_atoms),
        cell=np.eye(3) * box + rng.normal(0.0, 0.1, (3, 3)) if periodic else None,
        pbc=periodic,
        energy=float(rng.normal(-2.0 * n_atoms, 1.0)),
    )
    return build_neighbor_list(g, cutoff=CUTOFF)


def random_bin(rng, sizes) -> list:
    """Graphs of the given sizes, periodic and open cells mixed."""
    return [random_graph(rng, n, periodic=bool(rng.integers(2))) for n in sizes]


def eager_unpadded(graphs, indices, weighting="per_atom", cfg=CFG):
    """Loss and parameter gradients of the exact batch on the eager tape."""
    ref = Trainer(MACE(cfg, seed=0), graphs, plan_cache=None, loss_weighting=weighting)
    loss = ref._batch_loss(collate([graphs[i] for i in indices]).real())
    loss.backward()
    return loss.item(), [p.grad for p in ref.model.parameters()]


def replayed(trainer, indices):
    """Loss and gradients of one *replayed* step on ``indices``."""
    trainer._loss_step(trainer._collate(indices))  # capture (or earlier replay)
    hits = trainer.plan_cache.hits
    trainer.model.zero_grad()
    loss = trainer._loss_step(trainer._collate(indices))
    assert trainer.plan_cache.hits == hits + 1  # this one replayed
    return loss, [p.grad.copy() for p in trainer.model.parameters()]


def assert_matches(graphs, weighting="per_atom", cfg=CFG):
    trainer = Trainer(MACE(cfg, seed=0), graphs, loss_weighting=weighting)
    loss, grads = replayed(trainer, range(len(graphs)))
    ref_loss, ref_grads = eager_unpadded(graphs, range(len(graphs)), weighting, cfg)
    assert abs(loss - ref_loss) < TOL
    for (name, _), g, r in zip(trainer.model.named_parameters(), grads, ref_grads):
        np.testing.assert_allclose(g, r, rtol=0.0, atol=TOL, err_msg=name)
    return trainer


class TestBucketSize:
    def test_padding_bound_and_monotone(self):
        previous = 0
        for n in range(0, 20000, 7):
            b = bucket_size(n)
            assert b >= n and b >= previous
            assert b - n <= max(7, n // 8)  # <= 12.5%, or the 8-step floor
            assert bucket_size(b) == b  # buckets are fixed points
            previous = b


class TestBucketedReplayMatchesEagerUnpadded:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_bins(self, seed):
        rng = np.random.default_rng(1000 + seed)
        sizes = rng.integers(2, 24, size=int(rng.integers(2, 7)))
        weighting = ("per_atom", "uniform")[seed % 2]
        assert_matches(random_bin(rng, sizes), weighting)

    def test_one_atom_graph(self):
        rng = np.random.default_rng(7)
        graphs = random_bin(rng, [1, 9, 14])
        graphs[0] = random_graph(rng, 1, periodic=False)  # isolated atom, no edges
        assert graphs[0].n_edges == 0
        assert_matches(graphs)

    def test_bin_exactly_at_capacity_has_no_ghost_atom(self):
        rng = np.random.default_rng(8)
        graphs = random_bin(rng, [16, 20, 12])  # 48 atoms: a bucket boundary
        trainer = assert_matches(graphs)
        twin = trainer._collate(range(3))
        assert twin.ghost_atoms == 0 and twin.n_atoms == 48
        assert twin.ghost_graphs > 0  # ghost graph slots exist, all empty

    def test_graph_count_crossing_a_bucket_edge(self):
        rng = np.random.default_rng(9)
        graphs = random_bin(rng, [5, 6, 4, 7, 5, 6, 4, 5])
        seven = assert_matches(graphs[:7])._collate(range(7))
        eight = assert_matches(graphs)._collate(range(8))
        assert seven.n_graphs == 8 and eight.n_graphs == 16

    @LAYER_COUNTS
    def test_layer_counts(self, n_layers):
        rng = np.random.default_rng(1100 + n_layers)
        assert_matches(random_bin(rng, [5, 11, 17]), cfg=replace(CFG, n_layers=n_layers))


class TestGhostsContributeExactlyZero:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.graphs = random_bin(rng, [7, 12, 10])
        self.trainer = Trainer(MACE(CFG, seed=0), self.graphs, plan_cache=None)
        self.twin = collate(self.graphs)  # the caller's: featurized per call
        self.rng = rng

    def _loss_and_grads(self, batch):
        self.trainer.model.zero_grad()
        loss = self.trainer._batch_loss(batch)
        loss.backward()
        return loss.item(), [p.grad.copy() for p in self.trainer.model.parameters()]

    def test_ghost_rows_and_weights_are_zero(self):
        twin = self.twin
        assert twin.ghost_atoms and twin.ghost_edges and twin.ghost_graphs
        e, g = twin.n_edges - twin.ghost_edges, twin.n_graphs - twin.ghost_graphs
        edge_sh, edge_radial = self.trainer.model.featurize(twin)
        # Ghost edges pair with ghosts only (edges 2p and 2p + 1), and
        # their pairs are the trailing basis rows: the real pairs come first.
        assert e % 2 == 0 and edge_radial.shape[0] == twin.n_edges // 2
        assert edge_radial[: e // 2].all(axis=1).any()
        assert not edge_sh[e:].any() and not edge_radial[e // 2 :].any()
        *_, counts, target, weights = self.trainer._loss_inputs(twin)
        assert not weights[g:].any() and not target[g:].any()
        assert (counts[g + 1 :] == 1.0).all()  # empty ghost graphs: no 0/0
        assert weights[:g].sum() == pytest.approx(1.0)

    def test_scrambling_ghost_content_changes_nothing_bitwise(self):
        """If every ghost contribution is exactly 0.0, arbitrary ghost
        content — endpoints, species, positions, labels — is invisible."""
        twin, rng = self.twin, self.rng
        loss, grads = self._loss_and_grads(twin)
        a = twin.n_atoms - twin.ghost_atoms
        e = twin.n_edges - twin.ghost_edges
        g = twin.n_graphs - twin.ghost_graphs
        twin.edge_index[:, e:] = rng.integers(0, twin.n_atoms, (2, twin.ghost_edges))
        twin.species[a:] = rng.choice(CFG.species, twin.ghost_atoms)
        twin.positions[a:] = rng.normal(size=(twin.ghost_atoms, 3))
        twin.energies[g:] = rng.normal(size=twin.ghost_graphs)
        edge_sh, edge_radial = self.trainer.model.featurize(twin)  # edited geometry
        assert not edge_sh[e:].any() and not edge_radial[e // 2 :].any()
        loss2, grads2 = self._loss_and_grads(twin)
        assert loss2 == loss
        for p, q in zip(grads, grads2):
            assert np.array_equal(p, q)


class TestOnePlanPerBucket:
    def test_two_contents_of_one_bucket_replay_the_same_plan(self):
        rng = np.random.default_rng(21)
        pool = [random_graph(rng, int(n), bool(rng.integers(2))) for n in rng.integers(6, 16, 24)]
        # Two bins whose exact (atoms, edges) differ but whose bucket agrees.
        by_bucket = {}
        for start in range(0, len(pool) - 2):
            idx = (start, start + 1, start + 2)
            twin = collate([pool[i] for i in idx])
            exact = twin.real()
            shape = (twin.n_atoms, twin.n_edges, twin.n_graphs)
            by_bucket.setdefault(shape, {})[(exact.n_atoms, exact.n_edges)] = idx
        first, second = next(
            list(bins.values())[:2] for bins in by_bucket.values() if len(bins) >= 2
        )
        trainer = Trainer(MACE(CFG, seed=0), pool)
        trainer._loss_step(trainer._collate(first))
        (plan,) = trainer.plan_cache._store.values()
        trainer.model.zero_grad()
        loss = trainer._loss_step(trainer._collate(second))
        stats = trainer.plan_cache.stats()
        assert stats["captures"] == 1 and stats["hits"] == 1
        assert list(trainer.plan_cache._store.values()) == [plan]  # same object
        ref_loss, ref_grads = eager_unpadded(pool, second)
        assert abs(loss - ref_loss) < TOL
        for p, r in zip(trainer.model.parameters(), ref_grads):
            np.testing.assert_allclose(p.grad, r, rtol=0.0, atol=TOL)

    def test_reshuffled_epochs_capture_once_per_bucket(self):
        from repro.distribution import BalancedDistributedSampler

        rng = np.random.default_rng(22)
        pool = [random_graph(rng, int(n), False) for n in rng.integers(3, 12, 40)]
        trainer = Trainer(MACE(CFG, seed=0), pool)
        sampler = BalancedDistributedSampler(
            [g.n_atoms for g in pool], capacity=48, num_replicas=1, seed=3
        )
        buckets = set()
        for epoch in range(3):
            bins = sampler.plan_rank_bins(epoch, 0)
            for indices, capacity in bins:
                twin = trainer._collate(indices, capacity)
                buckets.add((twin.n_atoms, twin.n_edges, twin.n_graphs))
            trainer.train_epoch_bins(bins)
        stats = trainer.plan_cache.stats()
        assert stats["captures"] == len(buckets) < stats["hits"]

    def test_second_reshuffled_epoch_replays_nine_steps_in_ten(self):
        """At training size (192 graphs, 28 bins an epoch) the first
        epoch already meets almost every bucket."""
        from repro.data import attach_labels, build_training_set
        from repro.distribution import BalancedDistributedSampler

        graphs = attach_labels(build_training_set(192, seed=0, max_atoms=40), batch=True)
        cfg = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)
        trainer = Trainer(MACE(cfg, seed=0), graphs)
        sampler = BalancedDistributedSampler(
            [g.n_atoms for g in graphs], 192, num_replicas=1, seed=0
        )
        trainer.train_epoch_bins(sampler.plan_rank_bins(0, 0))
        before = trainer.plan_cache.stats()
        bins = sampler.plan_rank_bins(1, 0)  # shuffle=True: re-packed
        trainer.train_epoch_bins(bins)
        after = trainer.plan_cache.stats()
        assert after["hits"] - before["hits"] >= 0.9 * len(bins)


class TestEditedContentIsNeverReplayedStale:
    """What a loss step remembers about a batch: nothing for a caller's
    batch, and for a cached one only what its graphs' fingerprint keys."""

    def setup_method(self):
        rng = np.random.default_rng(41)
        self.graphs = random_bin(rng, [8, 11, 6])
        self.trainer = Trainer(MACE(CFG, seed=0), self.graphs)
        self.rng = rng

    def _reference(self):
        """An eager, cache-free trainer with the same weights and scaler."""
        ref = Trainer(MACE(CFG, seed=0), self.graphs, plan_cache=None, collate_cache=None)
        ref.scaler = self.trainer.scaler
        return ref

    def test_callers_batch_edited_between_steps_trains_on_the_new_content(self):
        batch = collate(self.graphs)
        first = self.trainer._loss_step(batch)
        batch.positions += self.rng.normal(0.0, 0.05, batch.positions.shape)
        batch.energies += 1.0
        edited = self.trainer._loss_step(batch)  # same bucket: a replay
        assert self.trainer.plan_cache.stats()["hits"] == 1
        assert batch.features is None  # nothing was remembered on it
        ref = self._reference()._loss_step(batch.real())
        assert edited != first and abs(edited - ref) < TOL

    def test_graph_edited_in_place_yields_a_new_cached_batch(self):
        trainer = self.trainer
        stale = trainer._collate(range(3))
        first = trainer._loss_step(stale)
        g = self.graphs[1]
        g.positions = g.positions + self.rng.normal(0.0, 0.05, g.positions.shape)
        g.energy += 1.0
        build_neighbor_list(g, cutoff=CUTOFF)
        fresh = trainer._collate(range(3))
        assert fresh is not stale and trainer.collate_cache.stats()["misses"] == 2
        edited = trainer._loss_step(fresh)
        ref = self._reference().evaluate()
        assert edited != first and abs(edited - ref) < TOL

    def test_cached_batch_is_featurized_once_per_geometry(self):
        """A cached batch memoizes its edge features and its topology
        under the config fields they depend on, so models differing only
        in weights share them; a caller's batch keeps nothing."""
        trainer = self.trainer
        batch = trainer._collate(range(3))
        assert trainer._collate(range(3)) is batch
        topology_key = ("topology", CFG.species)
        key = (CFG.lmax_sh, CFG.n_radial_basis, CFG.cutoff)
        assert set(batch.features) == {key, topology_key}
        features, topology = batch.features[key], batch.features[topology_key]
        assert trainer.evaluate() == trainer._loss_step(batch, with_grads=False)
        other = Trainer(MACE(CFG, seed=1), self.graphs, collate_cache=trainer.collate_cache)
        assert other._collate(range(3)) is batch
        assert other.model.featurize(batch) is features  # computed once, shared
        assert other.model.topology(batch) is topology
        wider = MACE(replace(CFG, n_radial_basis=CFG.n_radial_basis + 2), seed=0)
        assert wider.featurize(batch)[1].shape[1] == CFG.n_radial_basis + 2
        assert len(batch.features) == 3  # another geometry, its own entry
        caller = collate(self.graphs)
        trainer._loss_step(caller)
        trainer.model.featurize(caller)
        assert caller.features is None

    def test_labels_of_a_featurized_batch_are_read_live(self):
        padded = self.trainer._collate(range(3))
        first = self.trainer._loss_step(padded)
        padded.energies[:3] += 1.0
        assert self.trainer._loss_step(padded) != first
        padded.energies[:3] -= 1.0
        assert abs(self.trainer._loss_step(padded) - first) < TOL


def unbatched(model, graphs) -> np.ndarray:
    """Each graph's eager energy, predicted on its own."""
    return np.array([model.predict_energy(collate([g]).real())[0] for g in graphs])


def served(model, graphs, cache) -> np.ndarray:
    """Energies of ``graphs`` as one micro-batch, from a *replayed* plan."""
    model.predict_energy(collate(graphs), compiled=cache)  # capture (or replay)
    hits = cache.hits
    energies = model.predict_energy(collate(graphs), compiled=cache)
    assert cache.hits == hits + 1  # this one replayed
    return energies


class TestServedEnergiesMatchUnbatchedEager:
    def setup_method(self):
        self.model, self.cache = MACE(CFG, seed=0), PlanCache()

    def _assert_served(self, graphs):
        energies = served(self.model, graphs, self.cache)
        assert energies.shape == (len(graphs),)  # ghost graphs dropped
        np.testing.assert_allclose(
            energies, unbatched(self.model, graphs), rtol=0.0, atol=TOL
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_pools_through_the_engine(self, seed):
        rng = np.random.default_rng(2000 + seed)
        pool = random_bin(rng, rng.integers(1, 24, size=10))
        engine = InferenceEngine(self.model, pool, n_replicas=2, max_batch_tokens=64)
        trace = generate_trace(pool, 30, rate=4000.0, process="bursty", seed=seed)
        report = engine.serve(trace)
        assert report.n_batches <= report.n_requests / 2  # really batched
        singles = unbatched(self.model, pool)
        for rec in report.records:
            assert abs(rec.energy - singles[rec.graph_id]) < TOL

    def test_one_atom_graph(self):
        rng = np.random.default_rng(7)
        lone = random_graph(rng, 1, periodic=False)  # isolated atom, no edges
        assert lone.n_edges == 0
        self._assert_served([lone] + random_bin(rng, [9, 14]))
        self._assert_served([lone])  # a batch with no edge at all

    def test_batch_exactly_at_its_atom_bucket(self):
        rng = np.random.default_rng(8)
        graphs = random_bin(rng, [16, 20, 12])  # 48 atoms: a bucket boundary
        twin = collate(graphs)
        assert twin.ghost_atoms == 0 and twin.ghost_graphs > 0
        self._assert_served(graphs)

    def test_graph_count_crossing_a_bucket_edge(self):
        rng = np.random.default_rng(9)
        graphs = random_bin(rng, [5, 6, 4, 7, 5, 6, 4, 5])
        assert collate(graphs[:7]).n_graphs == 8
        assert collate(graphs).n_graphs == 16
        self._assert_served(graphs[:7])
        self._assert_served(graphs)

    @LAYER_COUNTS
    def test_layer_counts(self, n_layers):
        self.model = MACE(replace(CFG, n_layers=n_layers), seed=0)
        rng = np.random.default_rng(2100 + n_layers)
        self._assert_served(random_bin(rng, [3, 9, 14]))


class TestServedEnergiesOnePlanPerBucket:
    def setup_method(self):
        self.model, self.cache = MACE(CFG, seed=0), PlanCache()

    def test_graph_count_is_part_of_the_key(self):
        """Seven and eight dimers pad to the same atom and edge buckets —
        every bound array has the same shape — but to 8 and 16 graph
        slots, which the recorded segment sum burns in."""

        def dimer(d):
            g = MolecularGraph(np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0]]), np.array([1, 8]))
            return build_neighbor_list(g, cutoff=CUTOFF)

        dimers = [dimer(0.9 + 0.1 * k) for k in range(8)]
        seven, eight = collate(dimers[:7]), collate(dimers)
        assert (seven.n_atoms, seven.n_edges) == (eight.n_atoms, eight.n_edges) == (16, 16)
        assert (seven.n_graphs, eight.n_graphs) == (8, 16)
        for graphs in (dimers[:7], dimers):
            np.testing.assert_allclose(
                served(self.model, graphs, self.cache),
                unbatched(self.model, graphs),
                rtol=0.0,
                atol=TOL,
            )
        assert self.cache.captures == len(self.cache) == 2

    def test_two_compositions_of_one_bucket_replay_one_plan(self):
        rng = np.random.default_rng(21)
        pool = [random_graph(rng, int(n), bool(rng.integers(2))) for n in rng.integers(6, 16, 24)]
        by_bucket = {}
        for start in range(len(pool) - 2):
            members = pool[start : start + 3]
            twin = collate(members)
            shape = (twin.n_atoms, twin.n_edges, twin.n_graphs)
            by_bucket.setdefault(shape, []).append(members)
        first, second = next(bins[:2] for bins in by_bucket.values() if len(bins) >= 2)
        self.model.predict_energy(collate(first), compiled=self.cache)
        energies = self.model.predict_energy(collate(second), compiled=self.cache)
        stats = self.cache.stats()
        assert stats["captures"] == 1 and stats["hits"] == 1
        np.testing.assert_allclose(
            energies, unbatched(self.model, second), rtol=0.0, atol=TOL
        )


class TestServedEnergiesIgnoreGhosts:
    def test_scrambling_ghost_content_changes_no_energy_bitwise(self):
        rng = np.random.default_rng(11)
        model, cache = MACE(CFG, seed=0), PlanCache()
        twin = collate(random_bin(rng, [7, 12, 10]))
        assert twin.ghost_atoms and twin.ghost_edges and twin.ghost_graphs
        model.predict_energy(twin, compiled=cache)  # capture
        energies = model.predict_energy(twin, compiled=cache)
        a = twin.n_atoms - twin.ghost_atoms
        e = twin.n_edges - twin.ghost_edges
        twin.edge_index[:, e:] = rng.integers(0, twin.n_atoms, (2, twin.ghost_edges))
        twin.species[a:] = rng.choice(CFG.species, twin.ghost_atoms)
        twin.positions[a:] = rng.normal(size=(twin.ghost_atoms, 3))
        edge_sh, edge_radial = model.featurize(twin)  # the edited geometry
        assert not edge_sh[e:].any() and not edge_radial[e // 2 :].any()
        assert np.array_equal(model.predict_energy(twin, compiled=cache), energies)
        assert cache.stats()["captures"] == 1  # all three were the one plan


class TestServedEnergiesAreNeverStale:
    def test_callers_batch_edited_between_calls_answers_for_the_new_content(self):
        rng = np.random.default_rng(41)
        model, cache = MACE(CFG, seed=0), PlanCache()
        batch = collate(random_bin(rng, [8, 11, 6]))
        first = model.predict_energy(batch, compiled=cache)
        batch.positions += rng.normal(0.0, 0.05, batch.positions.shape)
        batch.species[:] = np.roll(batch.species, 1)
        edited = model.predict_energy(batch, compiled=cache)  # same bucket: a replay
        assert cache.stats()["hits"] == 1
        assert batch.features is None  # nothing remembered
        assert np.abs(edited - first).min() > 1e-6
        np.testing.assert_allclose(
            edited, model.predict_energy(batch.real()), rtol=0.0, atol=TOL
        )


class TestServedEnergiesOnABurstyTrace:
    """One engine, one 40-request bursty trace, the schedule pinned from
    the commit before serving plans were bucketed."""

    # (req_id, dispatch, finish, replica, batch_id) of every record plus
    # batch_tokens, digested; passes differ because the first one fills
    # the collate cache the modeled host time depends on.
    PARENT_BATCH_TOKENS = [36, 33, 19, 24, 89, 85, 93, 95, 86, 87, 90, 93, 84, 87, 95]
    PARENT_SCHEDULE = ("2b8cf2c2a3c0774a", "59008cd14cbf2de4")
    PARENT_P50_P95 = (
        (0.0010964967696265291, 0.0016049459679794527),
        (0.0009501099236028767, 0.0013776558833010209),
    )

    def setup_method(self):
        self.cfg = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)
        self.pool = build_request_pool(24, seed=3, max_atoms=40)
        self.trace = generate_trace(self.pool, 40, rate=2000.0, process="bursty", seed=11)
        self.engine = InferenceEngine(
            MACE(self.cfg, seed=0),
            self.pool,
            n_replicas=2,
            scheduler="cost-aware",
            max_batch_tokens=96,
            max_wait=5e-3,
        )

    def test_second_pass_captures_and_evicts_nothing(self):
        cache = self.engine.plan_cache
        first = self.engine.serve(self.trace)
        compositions = {
            tuple(sorted(r.graph_id for r in first.records if r.batch_id == b))
            for b in range(first.n_batches)
        }
        # Fewer plans than compositions: buckets, not content, are keyed.
        assert cache.captures == len(cache) < len(compositions)
        before = cache.stats()
        second = self.engine.serve(self.trace)
        after = cache.stats()
        assert after["captures"] == before["captures"]  # 0 captures ...
        assert after["size"] == after["captures"] <= 32  # ... and nothing ever evicted
        assert after["hits"] - before["hits"] == second.n_batches
        singles = unbatched(self.engine.model, self.pool)
        for rec in second.records:
            assert abs(rec.energy - singles[rec.graph_id]) < TOL

    def test_virtual_schedule_equals_the_parents(self):
        for n_pass in range(2):
            report = self.engine.serve(self.trace)
            schedule = [
                (r.req_id, r.dispatch, r.finish, r.replica, r.batch_id)
                for r in report.records
            ]
            digest = hashlib.blake2b(
                repr((schedule, report.batch_tokens)).encode(), digest_size=8
            ).hexdigest()
            assert report.batch_tokens == self.PARENT_BATCH_TOKENS
            assert digest == self.PARENT_SCHEDULE[n_pass]
            latency = report.latency
            assert (latency.p50, latency.p95) == self.PARENT_P50_P95[n_pass]

    def test_swap_model_leaves_no_plan_and_the_next_pass_is_the_new_model(self):
        self.engine.serve(self.trace)
        assert len(self.engine.plan_cache) > 0
        other = MACE(self.cfg, seed=1)
        self.engine.swap_model(other)
        assert len(self.engine.plan_cache) == 0
        report = self.engine.serve(self.trace)
        singles = unbatched(other, self.pool)
        stale = unbatched(MACE(self.cfg, seed=0), self.pool)
        assert np.abs(singles - stale).min() > 1e-6  # the models really differ
        for rec in report.records:
            assert abs(rec.energy - singles[rec.graph_id]) < TOL


class TestRotationInvarianceThroughPaddedPlans:
    def test_loss_is_rotation_invariant_on_the_compiled_path(self):
        rng = np.random.default_rng(31)
        graphs = random_bin(rng, [9, 13, 6, 11])
        R = random_rotation(rng)
        rotated = []
        for g in graphs:
            r = g.rotated(R)
            # Same topology, rotated shifts: the rotated bin has the same
            # shapes, so it replays the plan captured on the original.
            r.edge_index, r.edge_shift = g.edge_index, g.edge_shift @ R.T
            rotated.append(r)
        trainer = Trainer(MACE(CFG, seed=0), graphs + rotated)
        loss, grads = replayed(trainer, range(4))
        trainer.model.zero_grad()
        rot_loss = trainer._loss_step(trainer._collate(range(4, 8)))
        assert trainer.plan_cache.stats()["captures"] == 1
        assert abs(loss - rot_loss) < 1e-9
        for g, p in zip(grads, trainer.model.parameters()):
            np.testing.assert_allclose(g, p.grad, rtol=0.0, atol=1e-9)


class TestKernelCountersAreThreadLocal:
    def test_two_threads_count_independently(self):
        """One thread's ``counting()`` must neither absorb nor pop another's
        (thread-executor workers run kernels beside the driver)."""
        inside = threading.Barrier(2, timeout=10)
        totals = {}

        def worker(name: str, launches: int) -> None:
            with counting() as kc:
                inside.wait()  # both blocks are open at once
                for _ in range(launches):
                    record_kernel(name, 1, 1.0, 1.0)
                inside.wait()  # ... and still open when the other records
            totals[name] = (kc.launches, sorted(kc.by_name))

        threads = [
            threading.Thread(target=worker, args=(name, n))
            for name, n in (("a", 3), ("b", 5))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert totals == {"a": (3, ["a"]), "b": (5, ["b"])}


def forces_replayed(model, graphs, cache):
    """Energies and forces of ``graphs`` as one batch, from a *replayed*
    bucket plan."""
    model.energy_and_forces(collate(graphs), compiled=cache)  # capture (or replay)
    hits = cache.hits
    out = model.energy_and_forces(collate(graphs), compiled=cache)
    assert cache.hits == hits + 1  # this one replayed
    return out


class TestForcesMatchEagerUnpadded:
    """Compiled bucket-padded energies and forces ≡ the eager pass on the
    exact, unpadded batch."""

    def setup_method(self):
        self.model, self.cache = MACE(CFG, seed=0), PlanCache()

    def _assert_matches(self, graphs):
        energies, forces = forces_replayed(self.model, graphs, self.cache)
        ref_e, ref_f = self.model.energy_and_forces(collate(graphs).real())
        n_atoms = sum(g.n_atoms for g in graphs)
        assert energies.shape == (len(graphs),) and forces.shape == (n_atoms, 3)
        np.testing.assert_allclose(energies, ref_e, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(forces, ref_f, rtol=0.0, atol=TOL)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_pools(self, seed):
        rng = np.random.default_rng(3000 + seed)
        self._assert_matches(random_bin(rng, rng.integers(1, 24, size=int(rng.integers(1, 6)))))

    def test_one_atom_graph(self):
        rng = np.random.default_rng(7)
        lone = random_graph(rng, 1, periodic=False)  # isolated atom, no edges
        assert lone.n_edges == 0
        self._assert_matches([lone] + random_bin(rng, [9, 14]))
        self._assert_matches([lone])  # a batch with no edge at all

    def test_batch_exactly_at_its_atom_bucket(self):
        """No ghost atom: the ghost self-edges sit on a real atom."""
        rng = np.random.default_rng(8)
        graphs = random_bin(rng, [16, 20, 12])  # 48 atoms: a bucket boundary
        twin = collate(graphs)
        assert twin.ghost_atoms == 0 and twin.ghost_edges > 0
        self._assert_matches(graphs)

    def test_edge_count_exactly_at_its_bucket(self):
        rng = np.random.default_rng(10)
        pool = random_bin(rng, rng.integers(2, 16, size=24))
        graphs = next(
            pool[i : i + 3]
            for i in range(len(pool) - 2)
            if collate(pool[i : i + 3]).ghost_edges == 0
        )
        self._assert_matches(graphs)

    def test_graph_count_crossing_a_bucket_edge(self):
        rng = np.random.default_rng(9)
        graphs = random_bin(rng, [5, 6, 4, 7, 5, 6, 4, 5])
        self._assert_matches(graphs[:7])
        self._assert_matches(graphs)
        assert self.cache.captures == 2  # 8 and 16 graph slots

    @LAYER_COUNTS
    def test_layer_counts(self, n_layers):
        self.model = MACE(replace(CFG, n_layers=n_layers), seed=0)
        rng = np.random.default_rng(3100 + n_layers)
        self._assert_matches(random_bin(rng, [3, 9, 14]))


class TestForcesOnePlanPerBucket:
    def test_two_compositions_of_one_bucket_replay_one_plan(self):
        rng = np.random.default_rng(21)
        pool = [random_graph(rng, int(n), bool(rng.integers(2))) for n in rng.integers(6, 16, 24)]
        by_bucket = {}
        for start in range(len(pool) - 2):
            members = pool[start : start + 3]
            twin = collate(members)
            by_bucket.setdefault((twin.n_atoms, twin.n_edges, twin.n_graphs), []).append(members)
        first, second = next(bins[:2] for bins in by_bucket.values() if len(bins) >= 2)
        model, cache = MACE(CFG, seed=0), PlanCache()
        model.energy_and_forces(collate(first), compiled=cache)
        energies, forces = model.energy_and_forces(collate(second), compiled=cache)
        stats = cache.stats()
        assert stats["captures"] == 1 and stats["hits"] == 1
        ref_e, ref_f = model.energy_and_forces(collate(second).real())
        np.testing.assert_allclose(energies, ref_e, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(forces, ref_f, rtol=0.0, atol=TOL)


class TestForcesIgnoreGhosts:
    def test_scrambling_ghost_atoms_changes_no_real_result_bitwise(self):
        rng = np.random.default_rng(11)
        model, cache = MACE(CFG, seed=0), PlanCache()
        twin = collate(random_bin(rng, [7, 12, 10]))
        assert twin.ghost_atoms and twin.ghost_edges and twin.ghost_graphs
        model.energy_and_forces(twin, compiled=cache)  # capture
        energies, forces = model.energy_and_forces(twin, compiled=cache)
        a = twin.n_atoms - twin.ghost_atoms
        twin.species[a:] = rng.choice(CFG.species, twin.ghost_atoms)
        twin.positions[a:] = rng.normal(size=(twin.ghost_atoms, 3))
        scrambled = model.energy_and_forces(twin, compiled=cache)
        assert np.array_equal(scrambled[0], energies)
        assert np.array_equal(scrambled[1], forces)
        assert cache.stats()["captures"] == 1


class TestForcesEquivariantThroughPaddedPlans:
    def test_energy_invariant_and_forces_rotate(self):
        rng = np.random.default_rng(31)
        graphs = random_bin(rng, [9, 13, 6])
        R = random_rotation(rng)
        rotated = []
        for g in graphs:
            r = g.rotated(R)
            # Same topology, rotated shifts: the same bucket, the same plan.
            r.edge_index, r.edge_shift = g.edge_index, g.edge_shift @ R.T
            rotated.append(r)
        model, cache = MACE(CFG, seed=0), PlanCache()
        energies, forces = forces_replayed(model, graphs, cache)
        rot_e, rot_f = model.energy_and_forces(collate(rotated), compiled=cache)
        assert cache.stats()["captures"] == 1
        np.testing.assert_allclose(rot_e, energies, rtol=0.0, atol=TOL)
        np.testing.assert_allclose(rot_f, forces @ R.T, rtol=0.0, atol=TOL)


class TestForcesThroughMD:
    def test_cutoffless_calculator_captures_once_per_bucket_visited(self):
        from repro.data import generate_structure
        from repro.md import MACECalculator, VelocityVerlet

        water = generate_structure("Water clusters", np.random.default_rng(51), n_atoms=12)
        calc = MACECalculator(MACE(CFG, seed=0))  # the integrator owns the edges
        md = VelocityVerlet(
            calc, water, timestep_fs=2.0, cutoff=CUTOFF, rebuild_every=5, seed=1
        )
        md.initialize_velocities(3000.0)
        edge_sets, buckets = {md.graph.n_edges}, {calc.edge_capacity}
        for _ in range(40):
            md.step()
            edge_sets.add(md.graph.n_edges)
            buckets.add(calc.edge_capacity)
        assert len(edge_sets) > len(buckets) > 1
        assert calc.plan_cache.captures == len(buckets)
        assert calc.plan_cache.hits == 40 + 1 - len(buckets)
