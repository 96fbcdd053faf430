"""Tests for the training loop: scaler, convergence, DDP equivalence."""

import numpy as np
import pytest

from repro.data import attach_labels, build_training_set
from repro.distribution import BalancedDistributedSampler, FixedCountDistributedSampler
from repro.graphs import MolecularGraph, collate
from repro.mace import MACE, MACEConfig
from repro.parallel import ParallelDDP, make_executor
from repro.training import EnergyScaler, Trainer

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)


@pytest.fixture(scope="module")
def labeled_graphs():
    return attach_labels(build_training_set(8, seed=11, max_atoms=40))


class TestEnergyScaler:
    def test_fit_and_roundtrip(self, labeled_graphs):
        scaler = EnergyScaler.fit(labeled_graphs)
        energies = np.array([g.energy for g in labeled_graphs])
        n_atoms = np.array([g.n_atoms for g in labeled_graphs], dtype=float)
        norm = scaler.normalize(energies, n_atoms)
        back = scaler.denormalize(norm, n_atoms)
        np.testing.assert_allclose(back, energies, rtol=1e-12)

    def test_normalized_distribution(self, labeled_graphs):
        scaler = EnergyScaler.fit(labeled_graphs)
        energies = np.array([g.energy for g in labeled_graphs])
        n_atoms = np.array([g.n_atoms for g in labeled_graphs], dtype=float)
        norm = scaler.normalize(energies, n_atoms)
        assert abs(norm.mean()) < 1e-10
        assert norm.std() == pytest.approx(1.0, rel=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EnergyScaler.fit([])


class TestTrainer:
    def test_requires_labels(self, labeled_graphs):
        g = MolecularGraph(np.zeros((1, 3)), np.array([1]))
        g.edge_index = np.zeros((2, 0), dtype=np.int64)
        g.edge_shift = np.zeros((0, 3))
        with pytest.raises(ValueError):
            Trainer(MACE(CFG, seed=0), [g])

    def test_requires_neighbor_lists(self, labeled_graphs):
        g = MolecularGraph(np.zeros((1, 3)), np.array([1]), energy=-1.0)
        with pytest.raises(ValueError):
            Trainer(MACE(CFG, seed=0), [g])

    def test_bad_weighting(self, labeled_graphs):
        with pytest.raises(ValueError):
            Trainer(MACE(CFG, seed=0), labeled_graphs, loss_weighting="magic")

    def test_loss_decreases(self, labeled_graphs):
        model = MACE(CFG, seed=0)
        trainer = Trainer(model, labeled_graphs, lr=0.01)
        sampler = BalancedDistributedSampler(
            [g.n_atoms for g in labeled_graphs], 128, num_replicas=1, seed=0
        )
        result = trainer.fit(sampler, n_epochs=6)
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        assert result.final_loss == result.epoch_losses[-1]

    def test_fit_with_fixed_count_sampler(self, labeled_graphs):
        model = MACE(CFG, seed=0)
        trainer = Trainer(model, labeled_graphs, lr=0.01)
        sampler = FixedCountDistributedSampler(
            [g.n_atoms for g in labeled_graphs], 3, num_replicas=1, seed=0
        )
        result = trainer.fit(sampler, n_epochs=2)
        assert len(result.epoch_losses) == 2

    def test_lr_schedule_advances(self, labeled_graphs):
        model = MACE(CFG, seed=0)
        trainer = Trainer(model, labeled_graphs, lr=0.01, lr_gamma=0.5)
        trainer.train_epoch_bins([([0, 1], 0)])
        trainer.scheduler.step()
        assert trainer.optimizer.lr == pytest.approx(0.005)

    def test_evaluate(self, labeled_graphs):
        model = MACE(CFG, seed=0)
        trainer = Trainer(model, labeled_graphs)
        loss = trainer.evaluate()
        assert np.isfinite(loss) and loss > 0

    def test_collate_cache_on_by_default(self, labeled_graphs):
        """fit/train_step thread a private CollateCache unless disabled."""
        from repro.graphs import CollateCache

        trainer = Trainer(MACE(CFG, seed=0), labeled_graphs)
        assert isinstance(trainer.collate_cache, CollateCache)
        sampler = BalancedDistributedSampler(
            [g.n_atoms for g in labeled_graphs],
            capacity=80,
            num_replicas=1,
            shuffle=False,
            seed=0,
        )
        trainer.fit(sampler, n_epochs=2)
        stats = trainer.collate_cache.stats()
        # Epoch 2 repeats epoch 1's compositions: pure hits.
        assert stats["hits"] >= stats["misses"] > 0
        disabled = Trainer(MACE(CFG, seed=0), labeled_graphs, collate_cache=None)
        assert disabled.collate_cache is None

    def test_default_cache_trains_identically_to_disabled(self, labeled_graphs):
        sampler = BalancedDistributedSampler(
            [g.n_atoms for g in labeled_graphs],
            capacity=80,
            num_replicas=1,
            shuffle=True,
            seed=3,
        )
        r_default = Trainer(MACE(CFG, seed=6), labeled_graphs).fit(sampler, 3)
        r_off = Trainer(
            MACE(CFG, seed=6), labeled_graphs, collate_cache=None
        ).fit(sampler, 3)
        np.testing.assert_allclose(
            r_default.epoch_losses, r_off.epoch_losses, rtol=1e-12
        )

    def test_evaluate_memoizes_through_collate_cache(self, labeled_graphs):
        """With a collate cache attached, repeated default evaluate()
        calls reuse one memoized batch (and agree with the uncached
        path); explicit validation sets bypass the cache."""
        from repro.graphs import CollateCache

        cache = CollateCache()
        model = MACE(CFG, seed=4)
        cached = Trainer(model, labeled_graphs, collate_cache=cache)
        plain = Trainer(MACE(CFG, seed=4), labeled_graphs)
        l1 = cached.evaluate()
        l2 = cached.evaluate()
        assert l1 == l2
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
        np.testing.assert_allclose(l1, plain.evaluate(), rtol=1e-12)
        # Explicit (caller-owned) validation sets are collated directly
        # and must not register transient datasets in the cache.
        val = list(labeled_graphs[:4])
        cached.evaluate(val)
        cached.evaluate(tuple(val))
        assert cache.stats()["misses"] == 1 and len(cache._datasets) == 1
        np.testing.assert_allclose(
            cached.evaluate(val), plain.evaluate(val), rtol=1e-12
        )

    def test_evaluate_cache_invalidates_on_graph_replacement(self, labeled_graphs):
        """Mutating a training graph in place must re-collate (the
        fingerprint changes the key), not reuse the stale batch."""
        import copy

        from repro.graphs import CollateCache, build_neighbor_list

        cache = CollateCache()
        # Own copies: this test mutates graphs in place and the fixture
        # is shared module-wide.
        own = copy.deepcopy(list(labeled_graphs))
        trainer = Trainer(MACE(CFG, seed=5), own, collate_cache=cache)
        before = trainer.evaluate()
        # Non-rigid perturbation (a rigid translation would leave the
        # invariant energy — and therefore the loss — unchanged).
        rng = np.random.default_rng(0)
        target = trainer.graphs[1]
        target.positions = target.positions + 0.15 * rng.standard_normal(
            target.positions.shape
        )
        build_neighbor_list(target, cutoff=3.0)
        after = trainer.evaluate()
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 2
        fresh = Trainer(MACE(CFG, seed=5), trainer.graphs).evaluate()
        np.testing.assert_allclose(after, fresh, rtol=1e-12)
        assert after != before

    def test_ddp_step_equals_large_batch_gradient(self, labeled_graphs):
        """Averaging per-rank gradients must equal one step on the union
        batch when weighted equally (equivalence of simulated DDP)."""
        model_a = MACE(CFG, seed=2)
        model_b = MACE(CFG, seed=2)
        ta = Trainer(model_a, labeled_graphs, lr=0.01, loss_weighting="uniform")
        tb = Trainer(model_b, labeled_graphs, lr=0.01, loss_weighting="uniform")
        # DDP: two ranks with two graphs each.
        with make_executor("serial", 1) as ex:
            ddp = ParallelDDP(ta, ex, world_size=2)
            ddp.step([([0, 1], 0), ([2, 3], 0)])
            ddp.close()
        # Equivalent single step: average of the two batch losses.
        from repro.autograd import Tensor

        tb.optimizer.zero_grad()
        l1 = tb._batch_loss(collate([labeled_graphs[0], labeled_graphs[1]]))
        l2 = tb._batch_loss(collate([labeled_graphs[2], labeled_graphs[3]]))
        ((l1 + l2) * 0.5).backward()
        tb.optimizer.step()
        for (na, pa), (nb, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-10, err_msg=na)

    def test_collate_cache_trains_identically(self, labeled_graphs):
        """A collate cache must not change training: the loss is invariant
        to member order within a batch, so cached (order-normalized)
        batches give the same losses and weights."""
        from repro.graphs import CollateCache

        cache = CollateCache()
        model_a = MACE(CFG, seed=3)
        model_b = MACE(CFG, seed=3)
        ta = Trainer(model_a, labeled_graphs, lr=0.01)
        tb = Trainer(model_b, labeled_graphs, lr=0.01, collate_cache=cache)
        batches = [[3, 0, 1], [2, 4], [1, 3, 0]]  # repeats a composition
        la = [ta.train_step(b) for b in batches]
        lb = [tb.train_step(b) for b in batches]
        np.testing.assert_allclose(la, lb, rtol=1e-12)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        for (na, pa), (nb, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-12, err_msg=na)

    def test_ddp_step_empty_raises(self, labeled_graphs):
        trainer = Trainer(MACE(CFG, seed=0), labeled_graphs)
        with make_executor("serial", 1) as ex:
            ddp = ParallelDDP(trainer, ex, world_size=2)
            with pytest.raises(ValueError):
                ddp.step([([], 0), ([], 0)])
            ddp.close()

    def test_variants_train_identically(self, labeled_graphs):
        """Figure 9's foundation: identical losses for both kernel variants."""
        losses = {}
        for variant in ("baseline", "optimized"):
            model = MACE(CFG.with_variant(variant), seed=5)
            trainer = Trainer(model, labeled_graphs, lr=0.01)
            losses[variant] = [trainer.train_step([0, 1, 2]) for _ in range(3)]
        np.testing.assert_allclose(losses["baseline"], losses["optimized"], atol=1e-12)


class TestCollateRetention:
    """The trainer's private collate cache keeps the current epoch's bins
    and evaluate's full-set batch; a cache the caller passed in is never
    pruned."""

    @staticmethod
    def _sampler(graphs, shuffle, seed=0):
        return BalancedDistributedSampler(
            [g.n_atoms for g in graphs], 80, num_replicas=1, shuffle=shuffle, seed=seed
        )

    def test_reshuffled_epochs_hold_one_epoch(self, labeled_graphs):
        from repro.graphs import CollateCache

        sampler = self._sampler(labeled_graphs, shuffle=True)
        own = Trainer(MACE(CFG, seed=0), labeled_graphs)
        shared = CollateCache()
        kept = Trainer(MACE(CFG, seed=0), labeled_graphs, collate_cache=shared)
        own.fit(sampler, n_epochs=3)
        kept.fit(sampler, n_epochs=3)
        last = sampler.plan_rank_bins(2, 0)
        assert len(own.collate_cache) <= len(last) + 1
        assert len(shared) > len(own.collate_cache)  # the passed cache is whole

    def test_fixed_plan_hits_unchanged(self, labeled_graphs):
        from repro.graphs import CollateCache

        sampler = self._sampler(labeled_graphs, shuffle=False)
        own = Trainer(MACE(CFG, seed=0), labeled_graphs)
        shared = CollateCache()
        kept = Trainer(MACE(CFG, seed=0), labeled_graphs, collate_cache=shared)
        own.fit(sampler, n_epochs=3)
        kept.fit(sampler, n_epochs=3)
        n_bins = len(sampler.plan_rank_bins(0, 0))
        assert own.collate_cache.stats() == shared.stats()
        assert shared.stats()["hits"] == 2 * n_bins

    def test_fit_then_evaluate_twice_hits_evaluate_batch(self, labeled_graphs):
        trainer = Trainer(MACE(CFG, seed=0), labeled_graphs)
        cache = trainer.collate_cache
        for seed in (0, 1):
            trainer.fit(self._sampler(labeled_graphs, shuffle=True, seed=seed), 1)
            hits = cache.hits
            trainer.evaluate()
            assert cache.hits == hits + seed  # a miss first, a hit after
