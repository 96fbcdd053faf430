"""Tests for the serving subsystem: traces, schedulers, engine, registry."""

import hashlib

import numpy as np
import pytest

from repro.cluster import PAPER_MODEL
from repro.cluster.workload import MACEWorkloadModel
from repro.graphs.batch import collate
from repro.mace import MACE, MACEConfig
from repro.serving import (
    InferenceEngine,
    ModelRegistry,
    Replica,
    ServiceModel,
    build_request_pool,
    compare_policies,
    generate_trace,
    make_scheduler,
)
from repro.serving.scheduler import fifo_microbatches

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)


@pytest.fixture(scope="module")
def pool():
    return build_request_pool(10, seed=3, max_atoms=48)


@pytest.fixture(scope="module")
def model():
    return MACE(CFG, seed=0)


class TestTrace:
    def test_deterministic_given_seed(self, pool):
        a = generate_trace(pool, 50, rate=100.0, seed=4)
        b = generate_trace(pool, 50, rate=100.0, seed=4)
        assert [r.arrival for r in a.requests] == [r.arrival for r in b.requests]
        assert [r.graph_id for r in a.requests] == [r.graph_id for r in b.requests]

    def test_arrivals_sorted_and_sizes_match_pool(self, pool):
        for process in ("poisson", "bursty", "diurnal"):
            trace = generate_trace(pool, 60, rate=200.0, process=process, seed=1)
            arr = trace.arrival_array()
            assert np.all(np.diff(arr) >= 0)
            assert np.all(arr > 0)
            for r in trace.requests:
                assert r.tokens == pool[r.graph_id].n_atoms
                assert r.edges == pool[r.graph_id].n_edges

    def test_bursty_is_burstier_than_poisson(self, pool):
        poisson = generate_trace(pool, 400, rate=100.0, process="poisson", seed=2)
        bursty = generate_trace(pool, 400, rate=100.0, process="bursty", seed=2)
        cv = lambda t: np.std(np.diff(t.arrival_array())) / np.mean(
            np.diff(t.arrival_array())
        )
        assert cv(bursty) > 1.5 * cv(poisson)

    def test_weights_skew_population(self, pool):
        w = np.zeros(len(pool))
        w[0] = 1.0
        trace = generate_trace(pool, 30, rate=100.0, seed=0, weights=w)
        assert all(r.graph_id == 0 for r in trace.requests)

    def test_rejects_unknown_process_and_bad_weights(self, pool):
        with pytest.raises(ValueError, match="unknown arrival process"):
            generate_trace(pool, 10, rate=10.0, process="sawtooth")
        with pytest.raises(ValueError, match="weights"):
            generate_trace(pool, 10, rate=10.0, weights=[1.0])


class TestSchedulers:
    def _engine(self, model, pool, policy, **kw):
        kw.setdefault("max_batch_tokens", 96)
        kw.setdefault("n_replicas", 3)
        kw.setdefault("execute", False)
        return InferenceEngine(model, pool, scheduler=policy, **kw)

    def test_fifo_batches_respect_budgets(self, pool):
        trace = generate_trace(pool, 80, rate=500.0, seed=5)
        batches = fifo_microbatches(trace.requests, max_tokens=90)
        flat = [r.req_id for b in batches for r in b]
        assert flat == [r.req_id for r in trace.requests]  # arrival order kept
        for b in batches:
            assert sum(r.tokens for r in b) <= 90 or len(b) == 1

    def test_fifo_edge_budget(self, pool):
        trace = generate_trace(pool, 40, rate=500.0, seed=5)
        batches = fifo_microbatches(trace.requests, max_tokens=10**9, max_edges=600)
        assert len(batches) > 1
        for b in batches:
            assert sum(r.edges for r in b) <= 600 or len(b) == 1

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "cost-aware"])
    def test_plan_covers_pending_within_budgets(self, model, pool, policy):
        engine = self._engine(model, pool, policy)
        trace = generate_trace(pool, 60, rate=1e4, seed=6)
        plans = engine.scheduler.plan(
            trace.requests, 0.0, engine.replicas, engine
        )
        planned = sorted(r.req_id for batch, _ in plans for r in batch)
        assert planned == list(range(60))  # exactly once each
        for batch, j in plans:
            assert 0 <= j < len(engine.replicas)
            assert sum(r.tokens for r in batch) <= engine.max_batch_tokens

    def test_cost_aware_packs_fewer_fuller_batches(self, model, pool):
        trace = generate_trace(pool, 60, rate=1e4, seed=6)
        rr = self._engine(model, pool, "round-robin")
        ca = self._engine(model, pool, "cost-aware")
        n_rr = len(rr.scheduler.plan(trace.requests, 0.0, rr.replicas, rr))
        n_ca = len(ca.scheduler.plan(trace.requests, 0.0, ca.replicas, ca))
        assert n_ca <= n_rr

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_scheduler("fifo-magic")


class TestReplica:
    def test_dispatch_queues_behind_inflight_work(self):
        rep = Replica(0)
        s0, f0 = rep.dispatch(1.0, 0.5, n_requests=2, tokens=30)
        assert (s0, f0) == (1.0, 1.5)
        s1, f1 = rep.dispatch(1.2, 0.25, n_requests=1, tokens=10)
        assert s1 == 1.5 and f1 == 1.75  # queued behind the first batch
        assert rep.busy_seconds == 0.75
        assert rep.n_requests == 3 and rep.tokens_served == 40

    def test_service_model_forward_cheaper_than_training(self):
        sm = ServiceModel(workload_model=PAPER_MODEL)
        fwd = sm.device_seconds(500, 5000)
        train = PAPER_MODEL.step_times(
            sm.gpu, np.array([500.0]), np.array([5000.0]), "optimized"
        )[0]
        assert 0 < fwd < train

    def test_cache_hit_host_time_cheaper(self):
        sm = ServiceModel(workload_model=PAPER_MODEL)
        assert sm.host_seconds(500, 5000, True) < sm.host_seconds(500, 5000, False)


class TestEngine:
    def test_batched_matches_unbatched_to_1e10(self, model, pool):
        trace = generate_trace(pool, 25, rate=2000.0, seed=7)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=128, execute=True
        )
        report = engine.serve(trace)
        assert report.n_requests == 25
        for rec in report.records:
            single = float(model.predict_energy(collate([pool[rec.graph_id]]))[0])
            assert rec.energy == pytest.approx(single, abs=1e-10)

    def test_serve_is_deterministic(self, model, pool):
        trace = generate_trace(pool, 40, rate=2000.0, seed=8)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=128, execute=False
        )
        r1 = engine.serve(trace)
        r2 = engine.serve(trace)
        assert np.array_equal(r1.latencies(), r2.latencies())
        assert np.array_equal(r1.replica_busy, r2.replica_busy)

    def test_max_wait_bounds_dispatch_delay(self, model, pool):
        trace = generate_trace(pool, 30, rate=50.0, seed=9)  # sparse arrivals
        engine = InferenceEngine(
            model,
            pool,
            n_replicas=2,
            max_batch_tokens=4096,
            max_wait=1e-3,
            execute=False,
        )
        report = engine.serve(trace)
        for rec in report.records:
            assert rec.dispatch - rec.arrival <= 1e-3 + 1e-12

    def test_request_over_budget_rejected(self, model, pool):
        trace = generate_trace(pool, 5, rate=100.0, seed=0)
        biggest = max(r.tokens for r in trace.requests)
        engine = InferenceEngine(
            model, pool, max_batch_tokens=biggest - 1, execute=False
        )
        with pytest.raises(ValueError, match="token micro-batch budget"):
            engine.serve(trace)

    def test_request_over_edge_budget_rejected(self, model, pool):
        trace = generate_trace(pool, 5, rate=100.0, seed=0)
        biggest = max(r.edges for r in trace.requests)
        engine = InferenceEngine(
            model,
            pool,
            max_batch_tokens=4096,
            max_batch_edges=biggest - 1,
            execute=False,
        )
        with pytest.raises(ValueError, match="edge micro-batch budget"):
            engine.serve(trace)

    def test_request_for_unknown_graph_rejected(self, model, pool):
        trace = generate_trace(pool, 30, rate=100.0, seed=0)
        n_known = min(r.graph_id for r in trace.requests if r.graph_id > 0)
        engine = InferenceEngine(
            model, pool[:n_known], max_batch_tokens=4096, execute=False
        )
        with pytest.raises(ValueError, match="unknown graph"):
            engine.serve(trace)

    def test_collate_cache_reused_for_hot_molecules(self, model, pool):
        w = np.zeros(len(pool))
        w[2] = w[5] = 0.5
        trace = generate_trace(pool, 60, rate=5000.0, seed=1, weights=w)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=96, execute=True
        )
        report = engine.serve(trace)
        assert report.collate_hits > 0

    def test_report_metrics_consistent(self, model, pool):
        trace = generate_trace(pool, 50, rate=2000.0, seed=2)
        engine = InferenceEngine(
            model,
            pool,
            n_replicas=3,
            max_batch_tokens=128,
            execute=False,
            slo_seconds=10.0,
        )
        report = engine.serve(trace)
        assert report.n_requests == 50
        assert report.makespan >= max(r.finish for r in report.records) - 1e-12
        assert sum(report.batch_tokens) == trace.total_tokens
        assert report.slo_attainment == 1.0  # generous SLO
        assert report.utilization_imbalance >= 1.0
        assert 0 < report.mean_batch_fill <= 1.0
        assert "policy" in report.summary()

    def test_mid_traffic_hot_swap_is_atomic_per_batch(self, model, pool):
        # Swap to a model with different weights mid-trace: every request
        # energy must equal one of the two models' single predictions —
        # never a mix within a batch.
        other = MACE(CFG, seed=1)
        trace = generate_trace(pool, 30, rate=2000.0, seed=3)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=128, execute=True
        )
        t_swap = trace.requests[15].arrival
        report = engine.serve(trace, swaps=[(t_swap, other)])
        assert engine.model is other
        by_batch = {}
        for rec in report.records:
            by_batch.setdefault(rec.batch_id, []).append(rec)
        n_old = n_new = 0
        for recs in by_batch.values():
            pred_old = {
                r.graph_id: float(model.predict_energy(collate([pool[r.graph_id]]))[0])
                for r in recs
            }
            pred_new = {
                r.graph_id: float(other.predict_energy(collate([pool[r.graph_id]]))[0])
                for r in recs
            }
            all_old = all(r.energy == pytest.approx(pred_old[r.graph_id], abs=1e-10) for r in recs)
            all_new = all(r.energy == pytest.approx(pred_new[r.graph_id], abs=1e-10) for r in recs)
            assert all_old or all_new, "batch mixed two model versions"
            n_old += all_old
            n_new += all_new
        assert n_old > 0 and n_new > 0  # the swap really happened mid-traffic

    def test_cost_aware_beats_round_robin_on_heterogeneous_trace(self, model):
        # The paper's load-balancing result in the serving regime, on the
        # virtual clock: identical offered load, only batching and placement
        # differ.
        from dataclasses import replace

        from repro.cluster import A100

        pool = build_request_pool(24, seed=3, max_atoms=72)
        trace = generate_trace(pool, 400, rate=3000.0, process="bursty", seed=1)
        reports = compare_policies(
            model,
            pool,
            trace,
            policies=("round-robin", "cost-aware"),
            n_replicas=4,
            max_batch_tokens=384,
            max_wait=1e-2,
            workload_model=PAPER_MODEL,
            gpu=replace(A100, saturation_tokens_fp32=64),
            execute=False,
        )
        rr, ca = reports["round-robin"], reports["cost-aware"]
        assert rr.n_requests == ca.n_requests == 400  # both complete the trace
        assert ca.latency.p99 < rr.latency.p99
        assert ca.utilization_imbalance < rr.utilization_imbalance
        assert ca.throughput_rps >= rr.throughput_rps * 0.999


class TestRegistry:
    def test_publish_load_roundtrip_and_versioning(self, model, tmp_path):
        reg = ModelRegistry(tmp_path)
        assert reg.versions("m") == []
        v1 = reg.publish(model, "m")
        v2 = reg.publish(MACE(CFG, seed=1), "m")
        assert (v1, v2) == (1, 2)
        assert reg.versions("m") == [1, 2]
        assert reg.latest_version("m") == 2
        assert reg.names() == ["m"]
        loaded, v = reg.load("m", 1, with_version=True)
        assert v == 1
        for (name, a), (bname, b) in zip(
            sorted(model.state_dict().items()), sorted(loaded.state_dict().items())
        ):
            assert name == bname and np.array_equal(a, b)

    def test_versions_are_immutable(self, model, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish(model, "m", version=3)
        with pytest.raises(FileExistsError, match="immutable"):
            reg.publish(model, "m", version=3)

    def test_warm_cache_reuses_instances(self, model, tmp_path):
        reg = ModelRegistry(tmp_path)
        reg.publish(model, "m")
        a = reg.load("m")
        b = reg.load("m")
        assert a is b
        assert reg.warm_hits == 1 and reg.cold_loads == 1

    def test_load_missing_raises(self, model, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(KeyError):
            reg.latest_version("ghost")
        reg.publish(model, "m")
        with pytest.raises(FileNotFoundError):
            reg.load("m", version=9)

    def test_invalid_name_rejected(self, model, tmp_path):
        reg = ModelRegistry(tmp_path)
        with pytest.raises(ValueError, match="invalid model name"):
            reg.publish(model, "../escape")


class TestWorkloadModelServingSupport:
    def test_from_config_mirrors_architecture(self):
        m = MACEWorkloadModel.from_config(CFG)
        assert m.channels == CFG.num_channels
        assert m.lmax_sh == CFG.lmax_sh
        assert m.n_layers == CFG.n_layers
        assert m.dtype_bytes == 8  # NumPy reference runs float64

    def test_inference_strictly_cheaper_than_training(self):
        from repro.cluster import A100

        t = np.array([64.0, 512.0, 4096.0])
        e = np.array([640.0, 5120.0, 40960.0])
        for variant in ("baseline", "optimized"):
            fwd = PAPER_MODEL.inference_times(A100, t, e, variant)
            full = PAPER_MODEL.step_times(A100, t, e, variant)
            assert np.all(fwd > 0)
            assert np.all(fwd < full)


class TestWorkConservingAdmission:
    def _light_trace(self, pool):
        # Sparse arrivals: inter-arrival times far above service times,
        # so every request meets an idle pool.
        return generate_trace(pool, 30, rate=50.0, seed=9)

    def test_light_load_p50_beats_deadline_wait(self, model, pool):
        """The work-conserving regression gate: at light load, p50
        latency is the service time, not ~max_wait, because partial
        windows flush the moment a replica is idle."""
        max_wait = 2e-2
        engine = InferenceEngine(
            model,
            pool,
            n_replicas=2,
            max_batch_tokens=4096,
            max_wait=max_wait,
            execute=False,
        )
        report = engine.serve(self._light_trace(pool))
        assert report.latency.p50 < 0.5 * max_wait
        # Dispatch is immediate: no request waits in the admission queue.
        for rec in report.records:
            assert rec.dispatch - rec.arrival <= 1e-9

    def test_deadline_still_bounds_delay_under_load(self, model, pool):
        """Work conservation never extends the deadline guarantee."""
        trace = generate_trace(pool, 60, rate=5000.0, seed=4)
        engine = InferenceEngine(
            model,
            pool,
            n_replicas=2,
            max_batch_tokens=256,
            max_wait=1e-3,
            execute=False,
        )
        report = engine.serve(trace)
        for rec in report.records:
            assert rec.dispatch - rec.arrival <= 1e-3 + 1e-12

    def test_busy_pool_still_batches(self, model, pool):
        """Under heavy load the replicas stay busy, so work conservation
        must not degrade into one-request batches."""
        trace = generate_trace(pool, 80, rate=8000.0, seed=5)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=256, execute=False
        )
        report = engine.serve(trace)
        assert report.n_batches < report.n_requests / 2

    @pytest.mark.parametrize(
        "policy, n_batches, queue_peak, digest",
        [
            ("round-robin", 29, 8, "e1ad5db58aaa38bf39a6e69b6129da19"),
            ("cost-aware", 28, 8, "807367965b5e22fcb186305c35cf88dd"),
        ],
    )
    def test_virtual_schedule_is_pinned(
        self, model, pool, policy, n_batches, queue_peak, digest
    ):
        """The virtual-clock schedule of a fixed bursty trace, bit for bit.

        Admission, batching and placement changes that are meant to keep
        the schedule must keep these literals; a change that moves the
        schedule on purpose (e.g. measured service tables) updates them.
        """
        trace = generate_trace(pool, 60, rate=3000.0, process="bursty", seed=21)
        report = InferenceEngine(
            model,
            pool,
            n_replicas=2,
            scheduler=policy,
            max_batch_tokens=128,
            max_wait=2e-3,
            execute=False,
        ).serve(trace)
        h = hashlib.blake2b(digest_size=16)
        for r in report.records:
            h.update(
                repr(
                    (r.req_id, r.batch_id, r.replica, r.dispatch.hex(), r.finish.hex())
                ).encode()
            )
        assert report.n_batches == n_batches
        assert report.queue_depth_peak == queue_peak
        assert h.hexdigest() == digest


class TestHeterogeneousPools:
    def _mixed_gpus(self, n_fast, n_slow):
        from dataclasses import replace

        from repro.cluster import A100

        fast = replace(A100, saturation_tokens_fp32=64)
        slow = replace(
            fast,
            name="A100-half",
            sustained_flops=fast.sustained_flops / 2,
            sustained_bandwidth=fast.sustained_bandwidth / 2,
        )
        return [fast] * n_fast + [slow] * n_slow

    def test_gpu_list_builds_per_replica_service_models(self, model, pool):
        gpus = self._mixed_gpus(1, 1)
        engine = InferenceEngine(model, pool, n_replicas=2, gpu=gpus, execute=False)
        assert [rep.gpu for rep in engine.replicas] == gpus
        fast = engine.estimate_service(300, 3000, replica=0)
        slow = engine.estimate_service(300, 3000, replica=1)
        assert slow > fast  # the half-speed device really costs more

    def test_gpu_list_length_mismatch_rejected(self, model, pool):
        with pytest.raises(ValueError, match="specs for"):
            InferenceEngine(
                model, pool, n_replicas=3, gpu=self._mixed_gpus(1, 1), execute=False
            )

    def test_cost_aware_exploits_asymmetry(self, model, pool):
        """On a mixed fleet the cost-aware scheduler (which predicts
        per-replica finish times) must beat round-robin (which ignores
        them) on tail latency."""
        from repro.serving import build_request_pool

        big_pool = build_request_pool(24, seed=3, max_atoms=72)
        trace = generate_trace(big_pool, 300, rate=2500.0, process="bursty", seed=2)
        reports = compare_policies(
            model,
            big_pool,
            trace,
            policies=("round-robin", "cost-aware"),
            n_replicas=4,
            gpu=self._mixed_gpus(2, 2),
            max_batch_tokens=384,
            max_wait=1e-2,
            workload_model=PAPER_MODEL,
            execute=False,
        )
        rr, ca = reports["round-robin"], reports["cost-aware"]
        assert ca.latency.p99 < rr.latency.p99
        assert ca.throughput_rps >= rr.throughput_rps * 0.999


class TestHitRateSharpenedEstimates:
    def test_estimate_starts_pessimistic(self, model, pool):
        engine = InferenceEngine(model, pool, n_replicas=2, execute=False)
        assert engine.cache_hit_ema == 0.0
        miss_cost = engine.service_models[0].batch_seconds(300, 3000, hit_rate=0.0)
        assert engine.estimate_service(300, 3000) == pytest.approx(miss_cost)

    def test_hot_traffic_raises_ema_and_lowers_estimate(self, model, pool):
        w = np.zeros(len(pool))
        w[2] = w[5] = 0.5
        trace = generate_trace(pool, 60, rate=5000.0, seed=1, weights=w)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=96, execute=True
        )
        cold = engine.estimate_service(300, 3000)
        engine.serve(trace)
        assert engine.cache_hit_ema > 0.0
        warm = engine.estimate_service(300, 3000)
        assert warm < cold  # observed hits sharpen the placement estimate
        # And the EMA tracks the collate cache's own statistics direction.
        assert engine.collate_cache.hits > 0

    def test_simulated_serves_never_move_the_ema(self, model, pool):
        trace = generate_trace(pool, 40, rate=2000.0, seed=8)
        engine = InferenceEngine(
            model, pool, n_replicas=2, max_batch_tokens=128, execute=False
        )
        engine.serve(trace)
        assert engine.cache_hit_ema == 0.0  # execute=False: nothing observed
