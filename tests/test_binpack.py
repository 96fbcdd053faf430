"""Tests for Algorithm 1 (Create-Balanced-Batches) and its invariants."""

import hashlib
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import build_spec
from repro.distribution import (
    BalancedDistributedSampler,
    BinPlan,
    FixedCountDistributedSampler,
    RandomizedBalancedSampler,
    create_balanced_batches,
    evaluate_bins,
)
from repro.distribution import binpack


def assert_valid_packing(bins, sizes, capacity, num_gpus):
    """The three hard invariants of Algorithm 1's output."""
    # (1) every graph assigned exactly once (assignment constraint, eq. 7)
    assigned = sorted(i for b in bins for i in b.tolist())
    assert assigned == list(range(len(sizes)))
    # (2) capacity constraint (eq. 6)
    for items, used in zip(bins, bins.used.tolist()):
        assert sum(sizes[i] for i in items) == used
        assert used <= capacity
    # (3) bin count is a positive multiple of the GPU count
    assert len(bins) > 0
    assert len(bins) % num_gpus == 0


# -- Algorithm 1 graph by graph: the reference the array deal equals bin for bin


@dataclass
class Bin:
    """One mini-batch bin.

    Attributes
    ----------
    capacity:
        Token capacity ``C`` the bin was allocated with.
    items:
        Indices of the graphs packed into the bin (into the input size list).
    used:
        Sum of the packed graph sizes.
    """

    capacity: int
    items: List[int] = field(default_factory=list)
    used: int = 0

    @property
    def remaining(self) -> int:
        return self.capacity - self.used

    @property
    def padding(self) -> int:
        """Zero-padded tokens if the bin is materialized at capacity."""
        return self.remaining

    def add(self, index: int, size: int) -> None:
        if size > self.remaining:
            raise ValueError("item exceeds remaining capacity")
        self.items.append(index)
        self.used += size


def oracle_balanced_batches(sizes, capacity, num_gpus) -> List[Bin]:
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    # Line 1: stable sort, descending, remembering original indices.
    order = np.argsort(-sizes_arr, kind="stable")
    sorted_sizes = sizes_arr[order]
    return _pack_sorted(sorted_sizes, order, capacity, num_gpus)


def _pack_sorted(
    sorted_sizes: np.ndarray,
    original_idx: np.ndarray,
    capacity: int,
    num_gpus: int,
) -> List[Bin]:
    n = sorted_sizes.size
    # Lines 2-4: number of bins = ceil(total / C) rounded up to a multiple of G.
    total = int(sorted_sizes.sum())
    m = max(math.ceil(total / capacity), 1)
    m = math.ceil(m / num_gpus) * num_gpus

    active: List[Bin] = [Bin(capacity) for _ in range(m)]
    full: List[Bin] = []
    p = 0  # pointer into the sorted item list

    # Lines 7-22: deal items across bins, one per bin per round.
    while p < n and active:
        # Line 8: stable sort by remaining capacity, descending (fullest
        # *capacity* first — prioritizes bins with the most room so large
        # remaining items land where they fit).
        active.sort(key=lambda b: -b.remaining)
        newly_full: List[Bin] = []
        still_active: List[Bin] = []
        for b in active:
            if p >= n:
                still_active.append(b)
                continue
            if b.remaining >= sorted_sizes[p]:
                b.add(int(original_idx[p]), int(sorted_sizes[p]))
                p += 1
                still_active.append(b)
            else:
                # Line 17: cannot take the current (largest remaining) item.
                newly_full.append(b)
        full.extend(newly_full)
        active = still_active
        # Lines 20-22: adaptive re-activation — if some active bin now has
        # *less* remaining room than a "full" bin, the full marks were
        # premature (smaller items may still fit); return them to the pool.
        if active and full:
            min_active_rem = min(b.remaining for b in active)
            max_full_rem = max(b.remaining for b in full)
            if min_active_rem < max_full_rem:
                active.extend(full)
                full.clear()

    bins = active + full
    # Lines 23-25: recurse on the leftovers (already sorted).
    if p < n:
        bins.extend(
            _pack_sorted(sorted_sizes[p:], original_idx[p:], capacity, num_gpus)
        )
    # Drop empty bins but keep the bin count a multiple of num_gpus.
    nonempty = [b for b in bins if b.items]
    deficit = (-len(nonempty)) % num_gpus
    empties = [b for b in bins if not b.items][:deficit]
    return nonempty + empties


def assert_matches_oracle(sizes, capacity, num_gpus):
    plan = create_balanced_batches(sizes, capacity, num_gpus)
    expected = oracle_balanced_batches(sizes, capacity, num_gpus)
    assert [items.tolist() for items in plan] == [b.items for b in expected]
    assert plan.used.tolist() == [b.used for b in expected]
    assert plan.capacity == capacity


class TestMatchesPerGraphLoop:
    @pytest.mark.parametrize(
        "sizes, capacity, num_gpus",
        [
            ([5, 5, 5, 5, 3, 3], 10, 2),  # ties
            ([7, 3, 7, 2], 7, 1),  # a size equal to capacity
            ([4, 2, 1], 8, 6),  # G > n
            ([9], 12, 1),  # a single item
            ([3, 3, 3], 5, 1),  # leftovers recurse
            ([15, 53, 29, 28, 21, 26], 62, 1),  # re-activation changes the plan
            ([47, 26, 12, 17, 18, 6, 1, 17, 33, 21], 66, 1),  # equal room stays full
            ([18, 17, 32, 5, 34, 56, 24, 55], 68, 1),  # re-activation by one token
        ],
    )
    def test_edge_cases(self, sizes, capacity, num_gpus):
        assert_matches_oracle(sizes, capacity, num_gpus)

    def test_leftovers_recurse_into_fresh_bins(self, monkeypatch):
        calls = []
        deal = binpack._pack_sorted

        def counting(*args):
            calls.append(args[0].size)
            return deal(*args)

        monkeypatch.setattr(binpack, "_pack_sorted", counting)
        plan = create_balanced_batches([3, 3, 3], 5, 1)
        assert calls == [3, 1]
        assert [items.tolist() for items in plan] == [[0], [1], [2]]

    @pytest.mark.parametrize("scale, num_gpus", [(0.02, 64), (0.005, 740)])
    def test_table3_specs(self, scale, num_gpus):
        spec = build_spec(scale, seed=0)
        assert_matches_oracle(spec.n_atoms, 3072, num_gpus)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=150),
    slack=st.integers(0, 60),
    gpus=st.integers(1, 12),
)
def test_property_bin_for_bin_equal_to_oracle(sizes, slack, gpus):
    """Order, items and fill of every bin equal the per-graph loop's."""
    assert_matches_oracle(sizes, max(sizes) + slack, gpus)


class TestBinPlan:
    PLAN = BinPlan([4, 1, 0, 3, 2], [0, 2, 2, 5], [9, 0, 11], 12)

    def test_sequence_of_read_only_item_arrays(self):
        plan = self.PLAN
        assert len(plan) == 3
        assert [items.tolist() for items in plan] == [[4, 1], [], [0, 3, 2]]
        assert plan[-1].tolist() == [0, 3, 2]
        assert not plan[0].flags.writeable
        for arr in (plan.items, plan.offsets, plan.used):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(IndexError):
            plan[3]

    def test_slice_is_a_plan(self):
        head = self.PLAN[::2]
        assert [items.tolist() for items in head] == [[4, 1], [0, 3, 2]]
        assert head.used.tolist() == [9, 11] and head.capacity == 12

    def test_sums_are_zero_on_empty_bins(self):
        values = np.array([1, 2, 3, 4, 5])
        assert self.PLAN.sums(values).tolist() == [5 + 2, 0, 1 + 4 + 3]
        assert self.PLAN.lengths.tolist() == [2, 0, 3]


class TestAlgorithm1:
    def test_simple_exact_fit(self):
        bins = create_balanced_batches([3, 3, 2, 2], capacity=5, num_gpus=2)
        assert_valid_packing(bins, [3, 3, 2, 2], 5, 2)
        assert len(bins) == 2
        fills = sorted(bins.used.tolist())
        assert fills == [5, 5]

    def test_paper_example_figure3(self):
        """Figure 3's bottom-right bin: graphs of 23 + 24 + 25 = 72 tokens."""
        bins = create_balanced_batches([23, 24, 25], capacity=72, num_gpus=1)
        assert len(bins) == 1
        assert bins.used.tolist() == [72]

    def test_single_graph(self):
        bins = create_balanced_batches([10], capacity=16, num_gpus=4)
        assert_valid_packing(bins, [10], 16, 4)

    def test_capacity_below_largest_raises(self):
        with pytest.raises(ValueError):
            create_balanced_batches([10, 20], capacity=15, num_gpus=1)

    def test_empty_sizes_raises(self):
        with pytest.raises(ValueError):
            create_balanced_batches([], capacity=10, num_gpus=1)

    def test_nonpositive_size_raises(self):
        with pytest.raises(ValueError):
            create_balanced_batches([3, 0], capacity=10, num_gpus=1)

    def test_bad_gpu_count_raises(self):
        with pytest.raises(ValueError):
            create_balanced_batches([1], capacity=10, num_gpus=0)

    def test_balance_on_uniform_sizes(self, rng):
        sizes = rng.integers(10, 100, 500)
        bins = create_balanced_batches(sizes, capacity=512, num_gpus=8)
        assert_valid_packing(bins, sizes, 512, 8)
        m = evaluate_bins(bins, sizes)
        assert m.load_cv < 0.05
        assert m.straggler_ratio < 1.10

    def test_balance_on_heavy_tailed_sizes(self, rng):
        """The realistic case: mostly small graphs, a few 768-atom ones."""
        sizes = np.concatenate(
            [rng.integers(1, 60, 8000), np.full(400, 768), np.full(200, 500)]
        )
        rng.shuffle(sizes)
        bins = create_balanced_batches(sizes, capacity=3072, num_gpus=16)
        assert_valid_packing(bins, sizes, 3072, 16)
        m = evaluate_bins(bins, sizes)
        assert m.straggler_ratio < 1.10
        assert m.padding_fraction < 0.08

    def test_deterministic(self, rng):
        sizes = rng.integers(1, 500, 1000).tolist()
        a = create_balanced_batches(sizes, 2048, 4)
        b = create_balanced_batches(sizes, 2048, 4)
        assert [x.tolist() for x in a] == [x.tolist() for x in b]

    def test_composite_dataset_packing(self):
        """Algorithm 1 on a real slice of the paper's dataset distribution."""
        spec = build_spec(0.02, seed=0)
        bins = create_balanced_batches(spec.n_atoms, 3072, 64)
        assert_valid_packing(bins, spec.n_atoms, 3072, 64)
        m = evaluate_bins(bins, spec.n_atoms)
        assert m.load_cv < 0.02
        assert m.padding_fraction < 0.02

    def test_capacity_equals_largest_graph(self):
        """Degenerate case: each 768-atom graph needs its own bin."""
        sizes = [768, 768, 10, 10]
        bins = create_balanced_batches(sizes, capacity=768, num_gpus=1)
        assert_valid_packing(bins, sizes, 768, 1)

    def test_all_identical_sizes(self):
        bins = create_balanced_batches([100] * 64, capacity=400, num_gpus=8)
        assert_valid_packing(bins, [100] * 64, 400, 8)
        fills = set(bins.used.tolist())
        assert len(fills) == 1  # perfectly uniform

    def test_near_optimal_bin_count(self, rng):
        """Bin count should be close to the volume lower bound."""
        sizes = rng.integers(1, 400, 3000)
        capacity, gpus = 2048, 8
        bins = create_balanced_batches(sizes, capacity, gpus)
        lower = int(np.ceil(sizes.sum() / capacity))
        lower = int(np.ceil(lower / gpus)) * gpus
        assert len(bins) <= lower + 2 * gpus


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=120),
    capacity=st.integers(200, 1000),
    gpus=st.integers(1, 8),
)
def test_property_packing_invariants(sizes, capacity, gpus):
    """Hypothesis: every valid input yields a valid packing."""
    bins = create_balanced_batches(sizes, capacity, gpus)
    assert_valid_packing(bins, sizes, capacity, gpus)


@settings(max_examples=30, deadline=None)
@given(
    n_large=st.integers(0, 20),
    n_small=st.integers(150, 400),
    seed=st.integers(0, 100),
)
def test_property_balance_beats_random_chunking(n_large, n_small, seed):
    """Algorithm 1's straggler ratio never exceeds naive fixed-count's
    (on heterogeneous inputs it should be dramatically lower)."""
    rng = np.random.default_rng(seed)
    sizes = np.concatenate(
        [np.full(n_large, 768), rng.integers(1, 80, n_small)]
    ).astype(np.int64)
    rng.shuffle(sizes)
    from repro.distribution import fixed_count_batches

    balanced = create_balanced_batches(sizes, 3072, 2)
    fixed = fixed_count_batches(sizes, 4, rng=rng)
    mb = evaluate_bins(balanced, sizes)
    mf = evaluate_bins(fixed, sizes)
    assert mb.straggler_ratio <= mf.straggler_ratio + 0.15


# -- samplers: one pack per epoch, list output, and pinned plans ---------------

G = 8
SPEC = build_spec(0.002, seed=0)
SHARD_IDS = np.arange(SPEC.n_samples) // 256


def _samplers():
    """The three repo samplers over one smoke-scale spec, all shard-aware."""
    fixed = FixedCountDistributedSampler(SPEC.n_atoms, 7, G, seed=1)
    randomized = RandomizedBalancedSampler(SPEC.n_atoms, 3072, G, shard_size=1024, seed=1)
    fixed.shard_ids = randomized.shard_ids = SHARD_IDS
    balanced = BalancedDistributedSampler(SPEC.n_atoms, 3072, G, seed=1, shard_ids=SHARD_IDS)
    return {"balanced": balanced, "randomized": randomized, "fixed": fixed}


# blake2b digests of every rank's bins and the first and last rank's shard
# schedule, epochs 0-2, recorded from the per-graph loop implementation.
PINNED_DIGESTS = {
    "balanced": ["c37b49e7f0a990e5", "b6aa2ee74ad8e655", "f55a075fa18098e3"],
    "randomized": ["ca91763a1e483eed", "67dbfd980749f069", "8c7d9bae0d08b3a2"],
    "fixed": ["6464c6b1a4bc7db8", "f35d7265f2628cc0", "0973fcbbbe02bd9a"],
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_epoch_plans_are_pinned(name):
    sampler = _samplers()[name]
    digests = []
    for epoch in range(3):
        h = hashlib.blake2b(digest_size=8)
        h.update(repr(sampler.all_rank_bins(epoch)).encode())
        for rank in (0, G - 1):
            h.update(repr(sampler.plan_rank_shards(epoch, rank)).encode())
        digests.append(h.hexdigest())
    assert digests == PINNED_DIGESTS[name]


class TestEpochPlanMemo:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_one_pack_per_epoch(self, name, monkeypatch):
        sampler = _samplers()[name]
        packs = []
        plan_epoch = sampler.plan_epoch

        def counting(epoch):
            packs.append(epoch)
            return plan_epoch(epoch)

        monkeypatch.setattr(sampler, "plan_epoch", counting)
        for epoch in (0, 1):
            sampler.all_rank_bins(epoch)
            for rank in range(G):
                sampler.plan_rank_bins(epoch, rank)
                sampler.plan_rank_shards(epoch, rank)
        assert packs == [0, 1]

    def test_plan_arrays_are_read_only(self):
        sampler = _samplers()["balanced"]
        for plan in (sampler.plan_epoch(0), sampler._rank_plan(0, G - 1)):
            for arr in (plan.items, plan.offsets, plan.used):
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                plan.items[0] = 1

    def test_rank_bins_are_lists_of_python_ints(self):
        for sampler in _samplers().values():
            for items, capacity in sampler.plan_rank_bins(0, G - 1):
                assert type(items) is list and type(capacity) is int
                assert all(type(i) is int for i in items)


def test_trainer_and_collate_consume_multi_graph_bins():
    from repro.graphs import MolecularGraph, build_neighbor_list, collate
    from repro.mace import MACE, MACEConfig
    from repro.training import Trainer

    rng = np.random.default_rng(5)
    graphs = []
    for _ in range(10):
        n = int(rng.integers(4, 9))
        g = MolecularGraph(
            rng.uniform(0.0, 5.0, (n, 3)), np.full(n, 8), energy=float(rng.normal())
        )
        build_neighbor_list(g, cutoff=3.0)
        graphs.append(g)
    sizes = [g.n_atoms for g in graphs]
    sampler = BalancedDistributedSampler(sizes, 24, num_replicas=1, seed=0)
    bins = sampler.plan_rank_bins(0, 0)
    assert max(len(items) for items, _ in bins) > 1
    batches = [collate([graphs[i] for i in items], capacity=cap) for items, cap in bins]
    assert [b.real().n_atoms for b in batches] == [
        sum(sizes[i] for i in items) for items, _ in bins
    ]
    cfg = MACEConfig(num_channels=2, lmax_sh=1, l_atomic_basis=1, correlation=2)
    losses = Trainer(MACE(cfg, seed=0), graphs).train_epoch_bins(bins)
    assert len(losses) == len(bins) and all(np.isfinite(losses))
