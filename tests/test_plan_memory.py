"""Memory follows the live set: gradient lifetimes and shared arena slabs.

* Eager ``backward`` gives ``.grad`` to leaves only; interior gradients
  die after their one use.
* A compiled replay drops each gradient once its backward instruction
  has read it, so one MD force evaluation has a deterministic memory
  ledger (``tracemalloc`` counts allocation sizes, not wall-clock).
* The plans of one :class:`PlanCache` share one grow-only arena slab per
  thread, sized to the largest plan, and the slab dies with the cache.
"""

from __future__ import annotations

import gc
import pickle
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.data import generate_structure
from repro.graphs import collate
from repro.mace import MACE, MACEConfig
from repro.md import MACECalculator
from repro.runtime import PlanCache, record_tape
from repro.training import Trainer

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)
MB = 1e6


def _interior_grads(tape):
    """Tape outputs (every non-leaf tensor of the graph) holding ``.grad``."""
    return [out for _, _, _, out in tape.records if out.grad is not None]


class TestEagerGradientsOnLeavesOnly:
    def test_trainer_loss_step(self, small_graphs):
        eager = Trainer(MACE(CFG, seed=0), small_graphs, plan_cache=None)
        batch = eager._collate(list(range(len(small_graphs))), 0)
        eager.model.zero_grad()
        with record_tape() as tape:
            eager._loss_step(batch)
        assert len(tape.records) > 50
        assert _interior_grads(tape) == []
        # Leaf gradients still match the compiled replay.
        compiled = Trainer(MACE(CFG, seed=0), small_graphs, plan_cache=PlanCache())
        for _ in range(2):  # capture, then replay
            compiled.model.zero_grad()
            compiled._loss_step(batch)
        assert compiled.plan_cache.hits == 1
        n_grads = 0
        for pe, pc in zip(eager.model.parameters(), compiled.model.parameters()):
            if pe.grad is not None:
                np.testing.assert_allclose(pc.grad, pe.grad, rtol=0.0, atol=1e-10)
                n_grads += 1
        assert n_grads > 0

    def test_energy_and_forces(self, small_graphs):
        model = MACE(CFG, seed=0)
        batch = collate(small_graphs[:3])
        with record_tape() as tape:
            energies, forces = model.energy_and_forces(batch)
        assert _interior_grads(tape) == []
        assert np.abs(forces).sum() > 0.0
        cache = PlanCache()
        for _ in range(2):
            e_plan, f_plan = model.energy_and_forces(batch, compiled=cache)
        assert cache.hits == 1
        np.testing.assert_allclose(e_plan, energies, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(f_plan, forces, rtol=0.0, atol=1e-10)


class TestForceEvaluationMemoryLedger:
    """One MD force evaluation on the 204-atom zeolite, by allocation size.

    Before interior gradients were dropped, the capture peaked at ~278 MB
    and a warm replay at ~85 MB above the live bytes between calls.  The
    live bytes between calls were 52 MB while each layer kept ``(E, K, ·)``
    edge copies of its node features and radial weights for the TP's
    backward; with the TP reading node and pair rows itself they are 39 MB.
    """

    def test_capture_and_warm_replay_peaks(self):
        graph = generate_structure("Zeolite", np.random.default_rng(8), 204)
        cfg = MACEConfig(num_channels=16, correlation=3, lmax_sh=2, l_atomic_basis=2)
        calc = MACECalculator(MACE(cfg, seed=0), cutoff=4.5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            calc.energy_and_forces(graph)  # capture
            capture_peak = tracemalloc.get_traced_memory()[1] - base
            calc.energy_and_forces(graph)  # first replay touches the slab
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            calc.energy_and_forces(graph)
            replay_peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert calc.plan_cache.captures == 1 and calc.plan_cache.hits == 2
        assert capture_peak <= 180 * MB, capture_peak / MB
        assert live - base <= 45 * MB, (live - base) / MB
        assert replay_peak <= 55 * MB, replay_peak / MB


def _force_batches(small_graphs):
    """Two batches of different shape buckets (so two force plans)."""
    small, large = collate(small_graphs[:1]), collate(small_graphs[:5])
    assert small.n_atoms != large.n_atoms
    return small, large


def _plans(cache):
    return list(cache._store.values())


class TestOneSlabPerCache:
    @pytest.fixture()
    def setup(self, small_graphs):
        model = MACE(CFG, seed=0)
        a, b = _force_batches(small_graphs)
        cache = PlanCache()
        model.energy_and_forces(a, compiled=cache)
        model.energy_and_forces(b, compiled=cache)
        return model, a, b, cache

    def test_arena_bytes_is_the_largest_plan_not_the_sum(self, setup):
        model, a, b, cache = setup
        sizes = [plan._slab_nbytes for plan in _plans(cache)]
        assert len(sizes) == 2 and min(sizes) > 0
        assert cache.stats()["arena_bytes"] == max(sizes) < sum(sizes)
        # Capturing the larger plan grew the slab and dropped the smaller
        # plan's views into the old one, which is gone; it rebinds on replay.
        small = _plans(cache)[0]
        assert small._slab_nbytes == min(sizes) and small._slab is None
        model.energy_and_forces(a, compiled=cache)
        assert cache.stats()["arena_bytes"] == max(sizes)
        slab = cache._arena.current()
        assert all(plan._slab is slab for plan in _plans(cache))

    def test_shared_replays_are_bitwise_private_ones(self, setup):
        model, a, b, shared = setup
        private = {}
        for name, batch in (("a", a), ("b", b)):
            private[name] = PlanCache()
            model.energy_and_forces(batch, compiled=private[name])
        for name, batch in (("a", a), ("b", b), ("a", a)):
            e_shared, f_shared = model.energy_and_forces(batch, compiled=shared)
            e_private, f_private = model.energy_and_forces(batch, compiled=private[name])
            np.testing.assert_array_equal(e_shared, e_private)
            np.testing.assert_array_equal(f_shared, f_private)
        assert shared.hits == 3

    def test_slab_dies_with_its_cache(self, small_graphs):
        model = MACE(CFG, seed=0)
        cache = PlanCache()
        for batch in _force_batches(small_graphs):
            model.energy_and_forces(batch, compiled=cache)
        slab = weakref.ref(cache._arena.current())
        gc.collect()
        assert slab() is not None
        del cache
        gc.collect()
        assert slab() is None

    def test_pickled_plan_replays_bitwise_on_a_slab_of_its_own(self, setup):
        model, a, b, cache = setup
        plan = _plans(cache)[1]
        assert plan.__getstate__()["_arena"] is None  # no thread-local on the wire
        clone = pickle.loads(pickle.dumps(plan))
        assert clone._arena is not cache._arena and clone._slab is None
        inputs = (b.positions, b.edge_shift) + model.topology(b).arrays()
        for _ in range(2):
            (e0,), (g0, *_) = plan.replay(*inputs)
            (e1,), (g1, *_) = clone.replay(*inputs)
            np.testing.assert_array_equal(e1, e0)
            np.testing.assert_array_equal(g1, g0)
        assert not np.shares_memory(clone._slab, cache._arena.current())


class TestTwoThreadsOneCache:
    def test_threads_replay_bitwise_on_disjoint_slabs(self, small_graphs):
        model = MACE(CFG, seed=0)
        batches = _force_batches(small_graphs)
        cache = PlanCache()
        for batch in batches:
            model.energy_and_forces(batch, compiled=cache)  # capture
        serial = [model.energy_and_forces(batch, compiled=cache) for batch in batches]
        results = [[], []]
        slabs = [None, None]
        errors = []

        def work(k):
            try:
                for _ in range(50):
                    results[k].append(model.energy_and_forces(batches[k], compiled=cache))
                slabs[k] = cache._arena.current()
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        for k in range(2):
            assert len(results[k]) == 50
            for energies, forces in results[k]:
                np.testing.assert_array_equal(energies, serial[k][0])
                np.testing.assert_array_equal(forces, serial[k][1])
        assert slabs[0] is not None and slabs[1] is not None
        assert not np.shares_memory(slabs[0], slabs[1])
        assert not np.shares_memory(slabs[0], cache._arena.current())
        assert cache.captures == 2
