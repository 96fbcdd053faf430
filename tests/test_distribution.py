"""Tests for baseline batchers, distribution metrics and the samplers."""

import numpy as np
import pytest

from repro.distribution import (
    BalancedDistributedSampler,
    BinPlan,
    FixedCountDistributedSampler,
    best_fit_decreasing,
    create_balanced_batches,
    evaluate_bins,
    first_fit_decreasing,
    fixed_count_batches,
    lpt_schedule,
    per_gpu_loads,
    step_imbalance,
)


class TestFixedCountBatches:
    def test_counts(self):
        bins = fixed_count_batches([10, 20, 30, 40, 50], 2)
        assert bins.lengths.tolist() == [2, 2, 1]

    def test_all_assigned_once(self, rng):
        sizes = rng.integers(1, 100, 53)
        bins = fixed_count_batches(sizes, 7, rng=rng)
        assigned = sorted(bins.items.tolist())
        assert assigned == list(range(53))

    def test_capacity_is_max_fill(self, rng):
        sizes = rng.integers(1, 100, 20)
        bins = fixed_count_batches(sizes, 5)
        assert bins.capacity == bins.used.max()

    def test_bad_count(self):
        with pytest.raises(ValueError):
            fixed_count_batches([1, 2], 0)


class TestClassicHeuristics:
    def test_ffd_respects_capacity(self, rng):
        sizes = rng.integers(1, 100, 200)
        assert first_fit_decreasing(sizes, 128).used.max() <= 128

    def test_bfd_respects_capacity(self, rng):
        sizes = rng.integers(1, 100, 200)
        assert best_fit_decreasing(sizes, 128).used.max() <= 128

    def test_bfd_no_worse_bin_count_than_ffd(self, rng):
        sizes = rng.integers(1, 120, 300)
        n_ffd = len(first_fit_decreasing(sizes, 128))
        n_bfd = len(best_fit_decreasing(sizes, 128))
        assert n_bfd <= n_ffd + 1

    def test_ffd_near_optimal_bins(self, rng):
        """FFD is an 11/9 OPT + 1 approximation."""
        sizes = rng.integers(1, 100, 500)
        bins = first_fit_decreasing(sizes, 100)
        opt_lower = int(np.ceil(sizes.sum() / 100))
        assert len(bins) <= int(11 / 9 * opt_lower) + 1

    def test_alg1_balances_better_than_bfd(self, rng):
        """The paper's point (§3.2): BFD minimizes per-bin waste but leaves
        imbalanced bins; Algorithm 1 trades a little waste for balance."""
        sizes = rng.integers(1, 500, 5000)
        alg1 = evaluate_bins(create_balanced_batches(sizes, 3072, 8), sizes)
        bfd = evaluate_bins(best_fit_decreasing(sizes, 3072), sizes)
        assert alg1.load_cv < bfd.load_cv

    def test_lpt_fixed_bin_count(self, rng):
        sizes = rng.integers(1, 100, 57)
        bins = lpt_schedule(sizes, 8)
        assert len(bins) == 8
        assigned = sorted(bins.items.tolist())
        assert assigned == list(range(57))

    def test_lpt_balance(self, rng):
        sizes = rng.integers(1, 100, 800)
        m = evaluate_bins(lpt_schedule(sizes, 8), sizes)
        assert m.straggler_ratio < 1.02

    def test_lpt_bad_bins(self):
        with pytest.raises(ValueError):
            lpt_schedule([1, 2], 0)


class TestMetrics:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            evaluate_bins([])

    def test_perfectly_balanced(self):
        bins = BinPlan([0, 1], [0, 1, 2], [10, 10], 10)
        m = evaluate_bins(bins, [10, 10])
        assert m.load_cv == 0.0
        assert m.straggler_ratio == 1.0
        assert m.padding_fraction == 0.0
        assert m.max_pairwise_gap == 0

    def test_padding_fraction(self):
        bins = BinPlan([0, 1], [0, 1, 2], [5, 10], 10)
        m = evaluate_bins(bins)
        assert m.padding_fraction == pytest.approx(0.25)

    def test_quadratic_gap_matches_equation5(self):
        """Objective (5) uses squared per-graph sizes."""
        sizes = [3, 4]
        bins = BinPlan([0, 1], [0, 1, 2], [3, 4], 10)
        m = evaluate_bins(bins, sizes)
        assert m.quadratic_gap == pytest.approx(16 - 9)

    def test_per_gpu_loads_round_robin(self):
        bins = BinPlan(range(4), range(5), [10, 20, 30, 40], 0)
        loads = per_gpu_loads(bins, 2)
        np.testing.assert_array_equal(loads, [10 + 30, 20 + 40])

    def test_step_imbalance_uniform(self):
        bins = BinPlan(range(8), range(9), [7] * 8, 0)
        np.testing.assert_allclose(step_imbalance(bins, 4), 1.0)

    def test_step_imbalance_straggler(self):
        bins = BinPlan([0, 1], [0, 1, 2], [100, 10], 0)
        ratio = step_imbalance(bins, 2)
        assert ratio[0] == pytest.approx(100 / 55)


def _batches(sampler, epoch, rank):
    """Rank ``rank``'s epoch plan without its bin capacities."""
    return [items for items, _ in sampler.plan_rank_bins(epoch, rank)]


class TestSamplers:
    SIZES = None

    @pytest.fixture(autouse=True)
    def _sizes(self, rng):
        self.SIZES = rng.integers(1, 300, 400)

    def test_balanced_covers_dataset(self):
        sampler = BalancedDistributedSampler(self.SIZES, 1024, num_replicas=4)
        all_bins = sampler.all_rank_bins(epoch=0)
        seen = sorted(i for rank in all_bins for b, _ in rank for i in b)
        assert seen == list(range(400))

    def test_balanced_ranks_disjoint(self):
        sampler = BalancedDistributedSampler(self.SIZES, 1024, num_replicas=4)
        sets = [
            {i for b in _batches(sampler, 0, r) for i in b} for r in range(4)
        ]
        for a in range(4):
            for b in range(a + 1, 4):
                assert not (sets[a] & sets[b])

    def test_balanced_same_batch_count_per_rank(self):
        sampler = BalancedDistributedSampler(self.SIZES, 1024, num_replicas=4)
        counts = {len(_batches(sampler, 0, r)) for r in range(4)}
        assert len(counts) == 1  # bins are a multiple of replicas

    def test_epoch_changes_plan_when_shuffled(self):
        sampler = BalancedDistributedSampler(
            self.SIZES, 1024, num_replicas=2, shuffle=True
        )
        a = _batches(sampler, 0, 0)
        b = _batches(sampler, 1, 0)
        assert a != b

    def test_no_shuffle_is_stable(self):
        sampler = BalancedDistributedSampler(
            self.SIZES, 1024, num_replicas=2, shuffle=False
        )
        assert _batches(sampler, 0, 0) == _batches(sampler, 5, 0)

    def test_rank_out_of_range(self):
        sampler = BalancedDistributedSampler(self.SIZES, 1024, num_replicas=2)
        with pytest.raises(ValueError):
            _batches(sampler, 0, 2)

    def test_custom_size_metric(self):
        """§3.2.1: the size metric is pluggable (e.g. edge counts)."""
        sampler = BalancedDistributedSampler(
            self.SIZES,
            90000,
            num_replicas=2,
            size_metric=lambda s: s * s // 100 + 1,
        )
        plan = sampler.plan_epoch(0)
        seen = sorted(plan.items.tolist())
        assert seen == list(range(400))

    def test_fixed_sampler_covers_dataset(self):
        sampler = FixedCountDistributedSampler(self.SIZES, 8, num_replicas=4)
        all_bins = sampler.all_rank_bins(epoch=0)
        seen = sorted(i for rank in all_bins for b, _ in rank for i in b)
        assert seen == list(range(400))

    def test_fixed_sampler_batch_sizes(self):
        sampler = FixedCountDistributedSampler(self.SIZES, 8, num_replicas=4)
        for b in _batches(sampler, 0, 1):
            assert len(b) <= 8

    def test_fixed_rank_out_of_range(self):
        sampler = FixedCountDistributedSampler(self.SIZES, 8, num_replicas=4)
        with pytest.raises(ValueError):
            _batches(sampler, 0, 7)

    def test_balanced_sampler_balances_tokens(self):
        sampler = BalancedDistributedSampler(self.SIZES, 1024, num_replicas=4)
        loads = [
            sum(self.SIZES[i] for b in _batches(sampler, 0, r) for i in b)
            for r in range(4)
        ]
        assert max(loads) / (sum(loads) / 4) < 1.05
