"""Tests for repro.runtime: capture/replay plans, caching, invalidation.

The contract under test (ISSUE 5): compiled replay matches the eager
engine to 1e-10 on energies, forces and parameter gradients; parameters
are re-read every replay (optimizer steps are always visible); and every
invalidation event — shape-bucket change, dtype change, parameter array
replacement, registry hot swap — falls back to eager / recapture and
never replays stale buffers.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, gather_rows, segment_sum
from repro.autograd.ops import RowIndex, row_index
from repro.data import attach_labels, build_training_set
from repro.graphs.batch import collate
from repro.mace import MACE, MACEConfig
from repro.runtime import (
    CompiledPlan,
    PlanCache,
    PlanStale,
    record_tape,
)
from repro.training import Trainer

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)


@pytest.fixture(scope="module")
def labeled():
    return attach_labels(build_training_set(6, seed=7, max_atoms=40))


@pytest.fixture(scope="module")
def model():
    return MACE(CFG, seed=0)


class TestCompiledPlanCore:
    def _capture_quadratic(self):
        w = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        c = Tensor(np.array([0.5, 0.5]))
        with record_tape() as tape:
            z = x * w + c
            _dead = z * 10.0
            folded = (c * c).sum()
            loss = (z * z).sum() + folded
        loss.backward()
        plan = CompiledPlan(tape, outputs=(loss,), seed=loss, inputs=(x,))
        return plan, w, x, c, loss

    def test_replay_matches_eager(self):
        plan, w, x, c, loss = self._capture_quadratic()
        w.grad = None
        (value,), (gx,) = plan.replay(x.data)
        assert value == pytest.approx(loss.item(), abs=1e-12)
        assert np.allclose(w.grad, np.array([5.0, 5.0]))
        assert np.allclose(gx, np.array([10.0, -15.0]))

    def test_dead_node_elimination_and_folding(self):
        plan, *_ = self._capture_quadratic()
        assert plan.n_dead == 1  # z * 10.0 feeds nothing
        assert plan.n_folded == 2  # c*c and its sum depend on constants only
        assert (
            plan.n_forward_ops
            == plan.n_recorded - plan.n_dead - plan.n_folded - plan.n_fused_away
        )

    def test_parameter_mutation_visible_next_replay(self):
        """In-place (and whole-array, same-shape) parameter updates are
        re-read on every replay — never a stale fold."""
        plan, w, x, c, _ = self._capture_quadratic()
        w.data -= 1.0  # what Optimizer.step does
        (value,), _ = plan.replay(x.data)
        z = x.data * w.data + c.data
        assert value == pytest.approx((z * z).sum() + (c.data * c.data).sum(), abs=1e-12)

    def test_input_shape_and_dtype_guards(self):
        plan, w, x, _, _ = self._capture_quadratic()
        with pytest.raises(PlanStale):
            plan.replay(np.ones(3))
        with pytest.raises(PlanStale):
            plan.replay(x.data.astype(np.float32))
        with pytest.raises(PlanStale):
            plan.replay()  # wrong arity

    def test_parameter_dtype_and_shape_guards(self):
        plan, w, x, _, _ = self._capture_quadratic()
        keep = w.data
        w.data = keep.astype(np.float32)
        with pytest.raises(PlanStale):
            plan.replay(x.data)
        w.data = np.ones(3)
        with pytest.raises(PlanStale):
            plan.replay(x.data)
        w.data = keep

    def test_replayed_scatters_equal_eager_bitwise(self):
        """A replayed ``SegmentSum`` and ``GatherRows.backward`` — up to
        the 10th call on one Function — equal a fresh eager pass over the
        same content bit for bit.  The last atom receives and sends no
        edge (an empty segment, like a ghost atom)."""
        n_atoms, n_edges = 7, 19
        w = Tensor(np.linspace(0.5, 2.0, 5))

        def content(seed):
            r = np.random.default_rng(seed)
            x = r.standard_normal((n_atoms, 5)) * 10.0 ** r.integers(-6, 6, (n_atoms, 5))
            send, recv = r.integers(0, n_atoms - 1, (2, n_edges))
            bound = row_index(send, n_atoms).arrays() + row_index(recv, n_atoms).arrays()
            return (x,) + bound

        def eager(x, *bound):
            inputs = (Tensor(x.copy(), requires_grad=True),) + tuple(map(Tensor, bound))
            send, recv = RowIndex(*inputs[1:4]), RowIndex(*inputs[4:])
            agg = segment_sum(gather_rows(inputs[0], send) * w, recv)
            loss = (agg * agg).sum()
            return inputs, agg, loss

        with record_tape() as tape:
            inputs, agg, loss = eager(*content(0))
        loss.backward()
        plan = CompiledPlan(tape, outputs=(agg,), seed=loss, inputs=inputs)
        for seed in range(1, 11):
            (agg_r,), (gx_r, *_) = plan.replay(*content(seed))
            inputs, agg, loss = eager(*content(seed))
            loss.backward()
            assert agg_r.tobytes() == agg.numpy().tobytes()
            assert gx_r.tobytes() == inputs[0].grad.tobytes()

    def test_nested_recording_rejected(self):
        with record_tape():
            with pytest.raises(RuntimeError, match="nested"):
                with record_tape():
                    pass  # pragma: no cover

    def test_forward_only_plan_has_no_backward(self, model, labeled):
        batch = collate(labeled[:2])
        from repro.autograd.engine import no_grad

        with record_tape() as tape, no_grad():
            out = model.forward(batch)
        plan = CompiledPlan(tape, outputs=(out,))
        assert plan.n_backward_ops == 0
        (energies,), grads = plan.replay()
        assert np.allclose(energies, out.numpy(), atol=1e-12)
        assert grads == []


class TestModelCompiledPaths:
    def test_predict_energy_replay_matches_eager(self, model, labeled):
        batch = collate(labeled[:3])
        cache = PlanCache()
        eager = model.predict_energy(batch)
        captured = model.predict_energy(batch, compiled=cache)
        replayed = model.predict_energy(batch, compiled=cache)
        assert np.abs(eager - captured).max() < 1e-10
        assert np.abs(eager - replayed).max() < 1e-10
        assert cache.stats() == pytest.approx(
            {**cache.stats(), "hits": 1, "captures": 1}
        )

    def test_energy_and_forces_replay_matches_eager(self, model, labeled):
        batch = collate(labeled[:3])
        cache = PlanCache()
        e_ref, f_ref = model.energy_and_forces(batch)
        model.energy_and_forces(batch, compiled=cache)  # capture
        e_c, f_c = model.energy_and_forces(batch, compiled=cache)  # replay
        assert np.abs(e_ref - e_c).max() < 1e-10
        assert np.abs(f_ref - f_c).max() < 1e-10

    def test_plan_is_verified_at_insert_and_never_on_replay(self, model, labeled):
        batch = collate(labeled[:2])
        cache = PlanCache()
        model.energy_and_forces(batch, compiled=cache)  # capture + verified insert
        assert cache.stats()["verified"] == 1
        for _ in range(5):
            model.energy_and_forces(batch, compiled=cache)
        stats = cache.stats()
        assert stats["verified"] == 1 and stats["hits"] == 5

    def test_forces_plan_replays_across_position_changes(self, model, labeled):
        """Positions are a replay input: same edge set, new geometry
        hits the same plan and still matches eager."""
        cache = PlanCache()
        batch = collate(labeled[:2])
        model.energy_and_forces(batch, compiled=cache)
        moved = collate(labeled[:2])
        rng = np.random.default_rng(3)
        moved.positions = moved.positions + 1e-4 * rng.standard_normal(
            moved.positions.shape
        )
        e_c, f_c = model.energy_and_forces(moved, compiled=cache)
        e_ref, f_ref = model.energy_and_forces(moved)
        assert cache.hits == 1  # the perturbed batch replayed the plan
        assert np.abs(e_c - e_ref).max() < 1e-10
        assert np.abs(f_c - f_ref).max() < 1e-10

    def test_shape_bucket_change_is_miss_then_recapture(self, model, labeled):
        cache = PlanCache()
        model.predict_energy(collate(labeled[:2]), compiled=cache)
        model.predict_energy(collate(labeled[2:5]), compiled=cache)
        assert cache.captures == 2 and cache.hits == 0
        # Both buckets now replay.
        model.predict_energy(collate(labeled[:2]), compiled=cache)
        model.predict_energy(collate(labeled[2:5]), compiled=cache)
        assert cache.hits == 2

    def test_input_dtype_change_is_a_new_key_and_a_recapture(
        self, model, labeled, monkeypatch
    ):
        """Energy plans bind all batch content as inputs and key on the
        inputs' shapes and dtypes: the same content in another dtype
        never reaches the old plan's replay guard, it captures afresh."""
        batch = collate(labeled[:2])
        ref = model.predict_energy(batch.real())
        featurize = model.featurize
        for field, dtype, tol in (
            ("edge_index", np.int32, 1e-10),
            ("graph_index", np.int32, 1e-10),
            ("edge_sh", np.float32, 1e-5),
            ("edge_radial", np.float32, 1e-5),
        ):
            cache = PlanCache()
            model.predict_energy(batch, compiled=cache)
            drifted = collate(labeled[:2])
            if hasattr(drifted, field):
                setattr(drifted, field, getattr(drifted, field).astype(dtype))
            else:  # an edge feature: cast it where featurize hands it out
                k = ("edge_sh", "edge_radial").index(field)
                monkeypatch.setattr(
                    model,
                    "featurize",
                    lambda b: tuple(
                        f.astype(dtype) if i == k else f
                        for i, f in enumerate(featurize(b))
                    ),
                )
            energies = model.predict_energy(drifted, compiled=cache)
            stats = cache.stats()
            assert (stats["captures"], stats["hits"], stats["stale"]) == (2, 0, 0), field
            model.predict_energy(drifted, compiled=cache)
            assert cache.hits == 1, field  # and the new key replays
            monkeypatch.undo()
            assert np.abs(energies - ref).max() < tol, field

    def test_force_plan_signature_covers_position_dtype(self, model, labeled):
        """Force plans bind positions and edge shifts as inputs, so their
        key covers those inputs' dtypes: float32 geometry is a new key and
        a fresh capture, never a guard rejection of the float64 plan."""
        batch = collate(labeled[:2])
        e_ref, f_ref = model.energy_and_forces(batch.real())
        for field in ("positions", "edge_shift"):
            cache = PlanCache()
            model.energy_and_forces(batch, compiled=cache)
            f32 = collate(labeled[:2])
            setattr(f32, field, getattr(f32, field).astype(np.float32))
            energies, forces = model.energy_and_forces(f32, compiled=cache)
            stats = cache.stats()
            assert (stats["captures"], stats["hits"], stats["stale"]) == (2, 0, 0), field
            assert len(cache) == 2, field
            assert np.abs(energies - e_ref).max() < 1e-8, field
            assert np.abs(forces - f_ref).max() < 1e-8, field
            model.energy_and_forces(f32, compiled=cache)
            assert cache.hits == 1, field  # and the new key replays

    def test_param_array_swap_falls_back_to_eager(self, labeled):
        """Replacing a parameter array with a different dtype trips the
        replay guard: the call falls back to eager (correct result) and
        the stale plan is invalidated."""
        own = MACE(CFG, seed=2)
        cache = PlanCache()
        batch = collate(labeled[:2])
        own.predict_energy(batch, compiled=cache)
        assert own.predict_energy(batch, compiled=cache) is not None  # replay ok
        own.energy_scale.data = own.energy_scale.data.astype(np.float32)
        energies = own.predict_energy(batch, compiled=cache)
        assert cache.stale == 1 and len(cache) == 0
        assert np.abs(energies - own.predict_energy(batch)).max() < 1e-10

    def test_optimizer_step_mutation_is_fresh_not_stale(self, labeled):
        """After Optimizer.step mutates parameters in place, the replay
        must produce the *new* model's numbers (parameters are plan
        inputs, not folded constants)."""
        own = MACE(CFG, seed=3)
        trainer = Trainer(own, list(labeled), plan_cache=None)
        cache = PlanCache()
        batch = collate(labeled[:3])
        own.predict_energy(batch, compiled=cache)  # capture at theta_0
        trainer.train_step([0, 1, 2])  # theta_0 -> theta_1 in place
        replayed = own.predict_energy(batch, compiled=cache)
        assert cache.hits == 1  # same bucket, replayed
        eager = own.predict_energy(batch)
        assert np.abs(replayed - eager).max() < 1e-10


class TestTrainerPlanCache:
    def test_plan_cache_on_by_default_and_replays(self, labeled):
        trainer = Trainer(MACE(CFG, seed=4), list(labeled))
        assert isinstance(trainer.plan_cache, PlanCache)
        batches = [[0, 1, 2], [3, 4, 5]]
        for _ in range(3):
            for b in batches:
                trainer.train_step(b)
        stats = trainer.plan_cache.stats()
        assert stats["captures"] == 2 and stats["hits"] == 4

    def test_compiled_training_matches_eager_training(self, labeled):
        """The acceptance-criterion parity: identical losses and weights
        (to 1e-10) between plan-cached and eager trainers."""
        graphs = list(labeled)
        eager = Trainer(MACE(CFG, seed=5), graphs, plan_cache=None)
        comp = Trainer(MACE(CFG, seed=5), graphs)
        batches = [[0, 1, 2], [3, 4, 5], [1, 2, 3]] * 3
        l_eager = [eager.train_step(b) for b in batches]
        l_comp = [comp.train_step(b) for b in batches]
        np.testing.assert_allclose(l_eager, l_comp, rtol=1e-10, atol=1e-12)
        for (name, pa), (_, pb) in zip(
            eager.model.named_parameters(), comp.model.named_parameters()
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-10, err_msg=name)

    def test_ddp_step_through_plans_matches_eager(self, labeled):
        from repro.parallel import ParallelDDP, make_executor

        graphs = list(labeled)
        eager = Trainer(MACE(CFG, seed=6), graphs, plan_cache=None)
        comp = Trainer(MACE(CFG, seed=6), graphs)
        with make_executor("serial", 1) as ex_e, make_executor("serial", 1) as ex_c:
            ddp_e = ParallelDDP(eager, ex_e, world_size=2)
            ddp_c = ParallelDDP(comp, ex_c, world_size=2)
            for _ in range(2):  # second round replays
                ddp_e.step([([0, 1], 0), ([2, 3], 0)])
                ddp_c.step([([0, 1], 0), ([2, 3], 0)])
            ddp_e.close()
            ddp_c.close()
            ranks = ex_c._contexts[0].ranks.values()
            assert all(r.trainer.plan_cache.hits > 0 for r in ranks)
            assert all(
                r.trainer.plan_cache is None for r in ex_e._contexts[0].ranks.values()
            )
        for (name, pa), (_, pb) in zip(
            eager.model.named_parameters(), comp.model.named_parameters()
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-10, err_msg=name)

    def test_evaluate_replays_forward_only(self, labeled):
        trainer = Trainer(MACE(CFG, seed=7), list(labeled))
        l1 = trainer.evaluate()
        l2 = trainer.evaluate()
        assert l1 == pytest.approx(l2, abs=1e-12)
        assert trainer.plan_cache.hits >= 1
        plain = Trainer(MACE(CFG, seed=7), list(labeled), plan_cache=None)
        assert l2 == pytest.approx(plain.evaluate(), abs=1e-10)

    def test_relabel_replays_with_the_new_labels(self, labeled):
        """Labels are replay inputs of the shape-keyed loss plan: relabeled
        energies at fixed geometry replay the same plan (a collate-cache
        miss, not a plan miss) and the step sees the new targets."""
        import copy

        graphs = copy.deepcopy(list(labeled))
        trainer = Trainer(MACE(CFG, seed=8), graphs)
        eager = Trainer(MACE(CFG, seed=8), copy.deepcopy(graphs), plan_cache=None)
        old_labels = Trainer(MACE(CFG, seed=8), list(labeled), plan_cache=None)
        first = trainer.train_step([0, 1])
        assert first == pytest.approx(eager.train_step([0, 1]), abs=1e-10)
        assert first == pytest.approx(old_labels.train_step([0, 1]), abs=1e-10)
        for gs in (graphs, eager.graphs):
            gs[0].energy = gs[0].energy + 0.5
        relabeled = trainer.train_step([0, 1])
        assert trainer.plan_cache.captures == 1 and trainer.plan_cache.hits == 1
        assert relabeled == pytest.approx(eager.train_step([0, 1]), abs=1e-10)
        # ... and not the targets the plan was captured with:
        assert abs(relabeled - old_labels.train_step([0, 1])) > 1e-6


class TestMDCompiled:
    def test_calculator_compiled_matches_eager(self, labeled):
        from repro.md.calculator import MACECalculator

        model = MACE(CFG, seed=0)
        g = labeled[0]
        eager = MACECalculator(model, compiled=None)
        comp = MACECalculator(model)  # compiled="auto" default
        e_ref, f_ref = eager.energy_and_forces(g)
        comp.energy_and_forces(g)  # capture
        e_c, f_c = comp.energy_and_forces(g)  # replay
        assert comp.plan_cache.hits == 1
        assert e_c == pytest.approx(e_ref, abs=1e-10)
        assert np.abs(f_c - f_ref).max() < 1e-10

    def test_md_trajectory_compiled_matches_eager(self, labeled):
        """A short NVE run with the compiled calculator tracks the eager
        trajectory; Verlet rebuilds change the edge set and recapture."""
        import copy

        from repro.md.calculator import MACECalculator
        from repro.md.integrators import VelocityVerlet

        model = MACE(CFG, seed=0)
        g1, g2 = copy.deepcopy(labeled[0]), copy.deepcopy(labeled[0])
        md_e = VelocityVerlet(
            MACECalculator(model, compiled=None), g1, timestep_fs=0.2, skin=0.4, seed=1
        )
        md_c = VelocityVerlet(
            MACECalculator(model), g2, timestep_fs=0.2, skin=0.4, seed=1
        )
        md_e.initialize_velocities(200.0)
        md_c.initialize_velocities(200.0)
        for _ in range(5):
            se = md_e.step()
            sc = md_c.step()
            assert se.potential_energy == pytest.approx(
                sc.potential_energy, abs=1e-8
            )
            np.testing.assert_allclose(se.positions, sc.positions, atol=1e-8)


class TestServingRuntimeIntegration:
    def test_engine_plans_reused_for_hot_molecules(self, model):
        from repro.serving import InferenceEngine, build_request_pool, generate_trace

        pool = build_request_pool(10, seed=3, max_atoms=48)
        w = np.zeros(len(pool))
        w[2] = w[5] = 0.5
        trace = generate_trace(pool, 60, rate=5000.0, seed=1, weights=w)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=96, execute=True
        )
        report = engine.serve(trace)
        assert engine.plan_cache.hits > 0  # hot compositions replayed
        # Numerics still match unbatched eager predictions.
        singles = {
            rec.graph_id: float(model.predict_energy(collate([pool[rec.graph_id]]))[0])
            for rec in report.records
        }
        for rec in report.records:
            assert rec.energy == pytest.approx(singles[rec.graph_id], abs=1e-10)

    def test_hot_swap_clears_plan_cache(self, model):
        from repro.serving import InferenceEngine, build_request_pool

        pool = build_request_pool(6, seed=3, max_atoms=48)
        engine = InferenceEngine(model, pool, n_replicas=2, execute=True)
        engine.predict([pool[0], pool[1]])
        engine.predict([pool[0], pool[1]])
        assert len(engine.plan_cache) > 0 and engine.plan_cache.hits > 0
        other = MACE(CFG, seed=1)
        engine.swap_model(other)
        assert len(engine.plan_cache) == 0  # registry-publish invalidation rule
        swapped = engine.predict([pool[0], pool[1]])
        expected = other.predict_energy(collate([pool[0], pool[1]]))
        assert np.abs(swapped - expected).max() < 1e-10


class TestPlanCacheResolution:
    def test_false_disables_everywhere(self, labeled):
        from repro.md.calculator import MACECalculator

        trainer = Trainer(MACE(CFG, seed=9), list(labeled), plan_cache=False)
        assert trainer.plan_cache is None
        assert trainer.train_step([0, 1]) > 0  # eager path works
        calc = MACECalculator(MACE(CFG, seed=9), compiled=False)
        assert calc.plan_cache is None

    def test_invalid_value_rejected(self, labeled):
        with pytest.raises(TypeError, match="plan cache"):
            Trainer(MACE(CFG, seed=9), list(labeled), plan_cache=123)

    def test_shared_cache_passes_through(self, labeled):
        cache = PlanCache()
        trainer = Trainer(MACE(CFG, seed=9), list(labeled), plan_cache=cache)
        assert trainer.plan_cache is cache


class TestPlanMemoryRelease:
    def test_activations_released_between_replays(self, model, labeled):
        """A cached plan must not pin a full forward's intermediates
        between calls: fn.saved and bound argument slots are cleared
        after compile and after every replay."""
        cache = PlanCache()
        batch = collate(labeled[:2])
        model.predict_energy(batch, compiled=cache)  # capture + compile
        (key,) = list(cache._store)
        plan = cache._store[key]

        def held():
            return sum(
                1
                for instr in plan._forward
                if instr.fn.saved != ()
                or any(instr.args[p] is not None for p, _ in instr.bindings)
            )

        assert held() == 0  # released at compile
        model.predict_energy(batch, compiled=cache)  # replay
        assert held() == 0  # released after replay too


class TestPlanPickle:
    """CompiledPlan survives a pickle round trip (the worker-pool wire
    format of :mod:`repro.parallel`): replay equivalence after ``loads``,
    with buffers rebuilt lazily on the first replay."""

    def test_quadratic_roundtrip_matches_original(self):
        import pickle

        plan, w, x, c, loss = TestCompiledPlanCore()._capture_quadratic()
        clone = pickle.loads(pickle.dumps(plan))
        x2 = np.array([0.5, 2.0])
        (a,), (ga,) = plan.replay(x2)
        # The clone carries cloned parameter tensors, so only outputs and
        # returned input-gradients are comparable — and they are bitwise.
        (b,), (gb,) = clone.replay(x2)
        assert a == b
        np.testing.assert_array_equal(ga, gb)

    def test_bucket_energy_plan_roundtrip_replays_on_rebound_inputs(
        self, model, labeled
    ):
        """A bucket energy plan carries no batch content, so its clone
        answers for whatever same-shaped inputs it is handed."""
        import pickle

        inputs = model.message_inputs
        cache = PlanCache()
        captured = collate(labeled[:2])
        model.predict_energy(captured, compiled=cache)
        (plan,) = cache._store.values()
        clone = pickle.loads(pickle.dumps(plan))
        # Other content of the same shapes: the members swapped and jiggled.
        other = collate(labeled[1::-1])
        exact = other.real()
        exact.positions += np.random.default_rng(5).normal(0.0, 0.01, exact.positions.shape)
        assert [a.shape for a in inputs(other)] == [a.shape for a in inputs(captured)]
        (e0,), _ = plan.replay(*inputs(other))
        (e1,), _ = clone.replay(*inputs(other))  # first replay rebuilds buffers
        np.testing.assert_array_equal(e1, e0)
        n_real = other.n_graphs - other.ghost_graphs
        np.testing.assert_allclose(e1[:n_real], model.predict_energy(exact), atol=1e-10)
        (e2,), _ = clone.replay(*inputs(captured))  # rebinding again
        np.testing.assert_array_equal(
            e2[:n_real], model.predict_energy(captured, compiled=cache)
        )

    def test_double_roundtrip(self):
        """A rebuilt plan can be pickled again (re-broadcast path)."""
        import pickle

        plan, w, x, c, loss = TestCompiledPlanCore()._capture_quadratic()
        once = pickle.loads(pickle.dumps(plan))
        once.replay(x.data)  # buffers live
        twice = pickle.loads(pickle.dumps(once))
        (a,), _ = plan.replay(x.data)
        (b,), _ = twice.replay(x.data)
        assert a == b
