"""Tests for repro.parallel: slab allocator, executors, robustness, DDP,
and the serving engine's wall-clock mode.

The contracts under test (this PR's tentpole):

- the slab allocator hands out aligned, coalescing segments and both slab
  flavors view the same bytes;
- every backend (serial / thread / process) produces the same task
  results as inline eager execution;
- a SIGKILLed pool worker is detected, respawned from its install log,
  its in-flight tasks are resubmitted, and the run completes with the
  incident counted;
- ParallelDDP with eager rank steps is *bitwise* equal across the
  serial, thread and process backends (compiled rank steps agree to
  1e-12), and a run frees its slab segments even when a rank fails;
- serving on an ``executor=`` keeps the virtual-clock schedule and
  numerics while filling measured timing fields, and a failed
  micro-batch leaks no slab memory.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.data import attach_labels, build_training_set
from repro.distribution import BalancedDistributedSampler
from repro.graphs.batch import collate
from repro.mace import MACE, MACEConfig
from repro.parallel import (
    ForwardTask,
    GradStep,
    InstallModel,
    LocalSlab,
    ParallelDDP,
    ProcessExecutor,
    SerialExecutor,
    ShmSlab,
    SlabFull,
    make_executor,
)
from repro.serving import InferenceEngine, build_request_pool, generate_trace
from repro.training import DistributedTrainingRun, Trainer

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def labeled():
    return attach_labels(build_training_set(6, seed=31, max_atoms=40))


@pytest.fixture(scope="module")
def model():
    return MACE(CFG, seed=0)


def _batch_payload(batch):
    """Inline ForwardTask batch arguments from a collated batch."""
    return dict(
        batch={name: getattr(batch, name) for name in ForwardTask.FIELDS},
        n_graphs=batch.n_graphs,
        ghosts=(batch.ghost_atoms, batch.ghost_edges, batch.ghost_graphs),
    )


class TestSlab:
    @pytest.mark.parametrize("cls", [LocalSlab, ShmSlab])
    def test_alloc_view_take_free(self, cls):
        slab = cls(1 << 16)
        try:
            h = slab.alloc((5, 3), np.float64)
            view = slab.view(h)
            view[...] = np.arange(15.0).reshape(5, 3)
            again = slab.view(h)
            np.testing.assert_array_equal(again, np.arange(15.0).reshape(5, 3))
            taken = slab.take(h)  # copy + free
            np.testing.assert_array_equal(taken, np.arange(15.0).reshape(5, 3))
            h2 = slab.alloc((5, 3), np.float64)  # freed space is reusable
            assert h2.offset == h.offset
            slab.free(h2)
            del view, again  # views must not outlive the slab (ownership rule)
        finally:
            slab.close()
            if cls is ShmSlab:
                slab.unlink()

    def test_place_round_trips(self):
        slab = LocalSlab(1 << 12)
        arr = np.linspace(0.0, 1.0, 7)
        h = slab.place(arr)
        np.testing.assert_array_equal(slab.view(h), arr)

    def test_alignment_and_coalescing(self):
        slab = LocalSlab(1 << 12)
        handles = [slab.alloc((13,), np.float64) for _ in range(4)]
        assert all(h.offset % 64 == 0 for h in handles)
        for h in handles:
            slab.free(h)
        # After freeing everything the free list coalesces back into one
        # run: a near-full single allocation must fit again.
        big = slab.alloc(((1 << 12) - 64,), np.uint8)
        slab.free(big)

    def test_slab_full(self):
        slab = LocalSlab(1 << 10)
        with pytest.raises(SlabFull):
            slab.alloc((1 << 20,), np.float64)

    def test_shm_attach_sees_driver_writes(self):
        owner = ShmSlab(1 << 12)
        try:
            h = owner.place(np.array([1.0, 2.0, 4.0]))
            worker_side = ShmSlab.attach(owner.name, 1 << 12)
            seen = np.array(worker_side.view(h))  # copy: view dies with it
            np.testing.assert_array_equal(seen, np.array([1.0, 2.0, 4.0]))
            with pytest.raises(RuntimeError):
                worker_side.alloc((4,), np.float64)  # owner-only
            worker_side.close()
        finally:
            owner.close()
            owner.unlink()


class TestExecutors:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forward_task_matches_eager(self, backend, model, labeled):
        batch = collate(labeled[:3])
        ref = model.predict_energy(batch)
        with make_executor(backend, 2) as ex:
            ex.install(InstallModel(version=0, model=model))
            for t in range(3):
                ex.submit(
                    ForwardTask(
                        task_id=t,
                        version=0,
                        **_batch_payload(batch),
                    ),
                    worker=t,  # wraps modulo n_workers
                )
            results = ex.drain()
        assert sorted(results) == [0, 1, 2]
        for res in results.values():
            assert "error" not in res
            assert res["finish"] >= res["start"]
            np.testing.assert_allclose(res["energies"], ref, atol=1e-10)

    def test_duplicate_task_id_rejected(self, model, labeled):
        batch = collate(labeled[:1])
        with make_executor("serial", 1) as ex:
            ex.install(InstallModel(version=0, model=model))
            task = ForwardTask(
                task_id="t", version=0, **_batch_payload(batch)
            )
            ex.submit(task)
            with pytest.raises(ValueError, match="duplicate"):
                ex.submit(task)

    def test_task_error_is_reported_not_raised(self, labeled):
        batch = collate(labeled[:1])
        with make_executor("serial", 1) as ex:
            ex.submit(  # no model version 99 was ever installed
                ForwardTask(
                    task_id="boom", version=99, **_batch_payload(batch)
                )
            )
            results = ex.drain()
        assert "KeyError: 99" in results["boom"]["error"]
        assert ex.stats.errors == 1

    def test_workers_capture_one_verified_plan_per_bucket(self, model, labeled):
        """Nothing compiled crosses the wire: a worker pads what it is
        sent and captures into its own per-version cache, once per shape
        bucket whatever the composition."""
        with make_executor("serial", 1) as ex:
            ex.install(InstallModel(version=0, model=model))
            for t, members in enumerate(([0, 1], [1, 0], [0, 1], [2, 3, 4])):
                batch = collate([labeled[i] for i in members])
                ex.submit(
                    ForwardTask(
                        task_id=t,
                        version=0,
                        **_batch_payload(batch),
                    )
                )
                res = ex.drain()[t]
                np.testing.assert_allclose(
                    res["energies"], model.predict_energy(batch), atol=1e-10
                )
            stats = ex._contexts[0].plan_caches[0].stats()
        assert stats["captures"] == stats["verified"] == 2 and stats["hits"] == 2

    def test_install_log_compaction(self, model):
        ex = SerialExecutor(1)
        ex.install(InstallModel(version=0, model=model))
        ex.install(InstallModel(version=0, model=model))  # supersedes
        ex.install(InstallModel(version=1, model=model))
        assert len(ex._logs[0].messages) == 2  # one per live version
        ex.shutdown()

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_executor("gpu", 2)


class TestWorkerRobustness:
    def test_sigkill_mid_work_recovers(self, model, labeled):
        """Kill a pool worker with work in flight: the executor respawns
        it from the install log, resubmits its tasks, and the drain
        completes with every result correct and the incident counted."""
        batch = collate(labeled[:3])
        ref = model.predict_energy(batch)
        ex = ProcessExecutor(2, poll_seconds=0.02)
        try:
            ex.install(InstallModel(version=0, model=model))
            for t in range(4):
                ex.submit(
                    ForwardTask(
                        task_id=t,
                        version=0,
                        **_batch_payload(batch),
                    ),
                    worker=t,
                )
            victim = ex.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            # Pile more work onto the dead worker: these cannot complete
            # before the respawn, so resubmission is guaranteed to fire.
            for t in range(4, 7):
                ex.submit(
                    ForwardTask(
                        task_id=t,
                        version=0,
                        **_batch_payload(batch),
                    ),
                    worker=0,
                )
            results = ex.drain(timeout=120.0)
            assert sorted(results) == list(range(7))
            for res in results.values():
                assert "error" not in res
                np.testing.assert_allclose(res["energies"], ref, atol=1e-10)
            assert ex.stats.worker_deaths >= 1
            assert ex.stats.resubmitted >= 1
            assert victim not in ex.worker_pids  # really replaced
        finally:
            ex.shutdown()


def _bins(plan, capacity=0):
    """One DDP step's per-rank ``(indices, capacity)`` bins."""
    return [(list(batch), capacity) for batch in plan]


class TestParallelDDP:
    def _fresh(self, labeled, lr=0.01, plan_cache=None):
        model = MACE(CFG, seed=0)
        trainer = Trainer(model, labeled, lr=lr, plan_cache=plan_cache)
        return model, trainer

    def _run(self, labeled, plans, backend, n_workers=2, plan_cache=None, **ex_kw):
        """Model, per-step losses and the closed ParallelDDP after
        ``plans`` (one index list per rank and step) on ``backend``."""
        model, trainer = self._fresh(labeled, plan_cache=plan_cache)
        with make_executor(backend, n_workers, **ex_kw) as ex:
            ddp = ParallelDDP(trainer, ex, world_size=2)
            losses = [ddp.step(_bins(plan)) for plan in plans]
            ddp.close()
        return model, losses, ddp

    def _serial_reference(self, labeled, plans, plan_cache=None):
        model, losses, _ = self._run(labeled, plans, "serial", 1, plan_cache)
        return model, losses

    def test_eager_ranks_bitwise_equal_serial(self, labeled):
        plans = [[[0, 1], [2, 3]], [[4], [5, 0]], [[1, 3], []]]
        ref_model, ref_losses = self._serial_reference(labeled, plans)
        for backend in ("thread", "process"):
            model, losses, _ = self._run(labeled, plans, backend)
            assert losses == ref_losses  # bitwise, not approx
            for pa, pb in zip(ref_model.parameters(), model.parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_compiled_ranks_match_serial(self, backend, labeled):
        plans = [[[0, 1], [2, 3]], [[4, 5], [0, 2]]]
        ref_model, ref_losses = self._serial_reference(labeled, plans, "auto")
        model, losses, ddp = self._run(labeled, plans, backend, plan_cache="auto")
        for a, b in zip(losses, ref_losses):
            assert a == pytest.approx(b, abs=1e-12)
        for pa, pb in zip(ref_model.parameters(), model.parameters()):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)
        assert len(ddp.step_seconds) == 2

    def test_slab_broadcast_matches_inline(self, labeled):
        """A slab-backed thread run, which holds one parameter segment
        and one gradient segment per rank, is bitwise equal to a serial
        run whose slab is too small for any segment (every broadcast
        inline)."""
        plans = [[[0, 1], [2, 3]], [[4], [5, 0]], [[1, 3], [2]]]
        model_off, losses_off, _ = self._run(
            labeled, plans, "serial", 1, slab_bytes=64
        )
        model_on, trainer = self._fresh(labeled)
        n_params = sum(p.data.size for p in model_on.parameters())
        segment = -(-n_params * 8 // 64) * 64  # the slab's 64-byte extents
        with make_executor("thread", 2) as ex:
            ddp = ParallelDDP(trainer, ex, world_size=2)
            losses_on = [ddp.step(_bins(plan)) for plan in plans]
            assert ex.slab.live_bytes == (1 + 2) * segment
            ddp.close()
            assert ex.slab.live_bytes == 0
        assert losses_on == losses_off  # bitwise
        for pa, pb in zip(model_on.parameters(), model_off.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_out_of_band_step_is_broadcast(self, labeled):
        """An out-of-band optimizer step between parallel steps is what
        the next parallel step broadcasts — it matches a serial
        reference bitwise.  The reference is a ``train_step`` chain: a
        one-rank DDP step is its gradient divided by 1 and the same
        optimizer and EMA update."""
        model_ref, trainer_ref = self._fresh(labeled)
        trainer_ref.train_step([0, 1])
        trainer_ref.train_step([2, 3])
        ref_loss = trainer_ref.train_step([4, 5])
        model, trainer = self._fresh(labeled)
        with make_executor("serial", 1) as ex:
            ddp = ParallelDDP(trainer, ex, world_size=1)
            ddp.step(_bins([[0, 1]]))
            trainer.train_step([2, 3])
            loss = ddp.step(_bins([[4, 5]]))
            ddp.close()
        assert loss == ref_loss
        for pa, pb in zip(model_ref.parameters(), model.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_in_place_load_is_broadcast(self, labeled):
        """Weights loaded in place between DDP steps (no optimizer step,
        so ``optimizer.t`` does not move) are what the next step
        computes on: bitwise the same loss and parameters as taking that
        second step with ``train_step``."""
        other = MACE(CFG, seed=7).state_dict()
        results = []
        for second in ("ddp", "train_step"):
            model, trainer = self._fresh(labeled)
            with make_executor("serial", 1) as ex:
                ddp = ParallelDDP(trainer, ex, world_size=1)
                ddp.step(_bins([[0, 1]]))
                model.load_state_dict(other)
                if second == "ddp":
                    loss = ddp.step(_bins([[2, 3]]))
                else:
                    loss = trainer.train_step([2, 3])
                ddp.close()
            results.append((loss, [p.data.copy() for p in model.parameters()]))
        (loss_ddp, params_ddp), (loss_ref, params_ref) = results
        assert loss_ddp == loss_ref
        for pa, pb in zip(params_ddp, params_ref):
            np.testing.assert_array_equal(pa, pb)

    def test_empty_ranks_sit_out(self, labeled):
        model, trainer = self._fresh(labeled)
        with make_executor("serial", 2) as ex:
            ddp = ParallelDDP(trainer, ex, world_size=3)
            loss = ddp.step(_bins([[0, 1], [], [2]]))  # rank 1 sits out
            assert np.isfinite(loss)
            with pytest.raises(ValueError, match="no non-empty"):
                ddp.step(_bins([[], [], []]))
            ddp.close()

    def _distributed_run(self, labeled, executor):
        trainer = Trainer(MACE(CFG, seed=0), labeled, lr=0.01, plan_cache=None)
        sizes = [g.n_atoms for g in labeled]
        sampler = BalancedDistributedSampler(sizes, 96, num_replicas=2, seed=0)
        return DistributedTrainingRun(trainer, sampler, 2, executor)

    def test_distributed_run_executor_path(self, labeled):
        """DistributedTrainingRun on a process pool matches the serial
        backend bitwise (eager ranks) while recording measured wall
        seconds, and frees its slab segments on both."""
        with make_executor("serial", 1) as ex:
            ref = self._distributed_run(labeled, ex).run(2)
            assert ex.slab.live_bytes == 0
        with make_executor("process", 2) as ex:
            par = self._distributed_run(labeled, ex).run(2)
            assert ex.slab.live_bytes == 0
        assert par.execution == "process" and ref.execution == "serial"
        assert par.epoch_losses == ref.epoch_losses  # bitwise
        assert par.epoch_minutes == ref.epoch_minutes  # simulation untouched
        assert len(par.epoch_wall_seconds) == 2
        assert all(w > 0 for w in par.epoch_wall_seconds)
        assert par.total_wall_seconds == pytest.approx(
            sum(par.epoch_wall_seconds)
        )

    def test_distributed_runs_free_their_segments(self, labeled):
        """Two runs in a row on one pool leave no slab segment behind."""
        with make_executor("serial", 1) as ex:
            for _ in range(2):
                self._distributed_run(labeled, ex).run(1)
                assert ex.slab.live_bytes == 0

    def test_failed_rank_frees_every_segment(self, labeled, monkeypatch):
        """A rank task that fails raises a typed error from run(), after
        the run's parameter and gradient segments are released."""
        run, calls = GradStep.run, []

        def failing_run(task, ctx):
            calls.append(task.task_id)
            if len(calls) == 2:
                raise ValueError("injected rank failure")
            return run(task, ctx)

        monkeypatch.setattr(GradStep, "run", failing_run)
        with make_executor("serial", 1) as ex:
            with pytest.raises(RuntimeError, match="injected rank failure"):
                self._distributed_run(labeled, ex).run(1)
            assert ex.slab.live_bytes == 0


class TestRankCollateCaches:
    """DDP ranks collate through GradStep, so a run sends each rank its
    epoch bins and the rank trainer prunes its private collate cache by
    the trainer's own retention rule."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return attach_labels(build_training_set(24, seed=5, max_atoms=40))

    def _rank_stats(self, graphs, shuffle):
        """Each rank's collate-cache stats and its last epoch's bin count
        after a 2-rank, 6-epoch run on the serial backend."""
        trainer = Trainer(MACE(CFG, seed=0), graphs, plan_cache=None)
        sizes = [g.n_atoms for g in graphs]
        sampler = BalancedDistributedSampler(
            sizes, 96, num_replicas=2, shuffle=shuffle, seed=0
        )
        with make_executor("serial", 1) as ex:
            DistributedTrainingRun(trainer, sampler, 2, ex).run(6)
            ranks = ex._contexts[0].ranks
            return [
                (ranks[r].trainer.collate_cache.stats(), len(bins))
                for r, bins in enumerate(sampler.all_rank_bins(5))
            ]

    def test_reshuffled_ranks_hold_one_epoch(self, graphs):
        for stats, n_bins in self._rank_stats(graphs, shuffle=True):
            assert stats["size"] <= n_bins + 1

    def test_fixed_plan_ranks_keep_hitting(self, graphs):
        for stats, n_bins in self._rank_stats(graphs, shuffle=False):
            assert stats["size"] == n_bins == 4
            assert stats["hit_rate"] == pytest.approx(5 / 6)


class TestEngineWallClock:
    @pytest.fixture(scope="class")
    def pool(self):
        return build_request_pool(6, seed=3, max_atoms=40)

    @pytest.fixture(scope="class")
    def trace(self, pool):
        return generate_trace(pool, 25, rate=400.0, seed=4)

    def _engine(self, pool, **kw):
        return InferenceEngine(
            MACE(CFG, seed=0), pool, n_replicas=2, max_batch_tokens=96, **kw
        )

    def _simulate(self, pool, trace):
        return self._engine(pool).serve(trace)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wall_clock_keeps_schedule_and_numerics(self, backend, pool, trace):
        sim = self._simulate(pool, trace)
        with make_executor(backend, 2) as ex:
            rep = self._engine(pool, executor=ex).serve(trace)
            assert ex.slab.live_bytes == 0  # segments released
        # Identical virtual schedule...
        assert [(r.req_id, r.batch_id, r.replica) for r in rep.records] == [
            (r.req_id, r.batch_id, r.replica) for r in sim.records
        ]
        np.testing.assert_allclose(
            [r.finish for r in rep.records],
            [r.finish for r in sim.records],
            atol=1e-12,
        )
        # ...and matching energies from the workers' own bucket plans.
        e_wall = np.array([r.energy for r in rep.records])
        e_sim = np.array([r.energy for r in sim.records])
        np.testing.assert_allclose(e_wall, e_sim, atol=1e-12)
        # Measured fields are filled and sane.
        assert rep.mode == "wall-clock" and rep.backend == backend
        assert len(rep.batch_measured_seconds) == rep.n_batches
        assert len(rep.batch_predicted_seconds) == rep.n_batches
        assert all(m > 0 for m in rep.batch_measured_seconds)
        assert rep.measured_makespan > 0
        assert rep.measured_throughput_rps > 0
        assert rep.cost_model_scale > 0
        assert "wall-clock" in rep.summary()

    def test_full_slab_ships_arrays_inline(self, pool, trace):
        """A slab with room for one result and no batch array: everything
        else rides the queue inline — slower, never wrong, nothing leaks."""
        sim = self._simulate(pool, trace)
        with make_executor("thread", 2, slab_bytes=64) as ex:
            rep = self._engine(pool, executor=ex).serve(trace)
            assert ex.slab.live_bytes == 0
        np.testing.assert_allclose(
            [r.energy for r in rep.records],
            [r.energy for r in sim.records],
            atol=1e-12,
        )

    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_failed_batch_frees_every_segment(self, backend, pool, trace, monkeypatch):
        """One worker error fails the serve with a typed error, after
        every micro-batch's input and result segments are released."""
        run, calls = ForwardTask.run, []

        def failing_run(task, ctx):
            calls.append(task.task_id)
            if len(calls) == 2:
                raise ValueError("injected forward failure")
            return run(task, ctx)

        monkeypatch.setattr(ForwardTask, "run", failing_run)
        with make_executor(backend, 2) as ex:
            with pytest.raises(RuntimeError, match="injected forward failure"):
                self._engine(pool, executor=ex).serve(trace)
            assert ex.slab.live_bytes == 0

    def test_wall_clock_needs_execute_and_plans(self, pool):
        with make_executor("serial", 1) as ex:
            with pytest.raises(ValueError, match="wall-clock"):
                InferenceEngine(MACE(CFG, seed=0), pool, executor=ex, execute=False)
            with pytest.raises(ValueError, match="wall-clock"):
                InferenceEngine(MACE(CFG, seed=0), pool, executor=ex, plan_cache=None)

    def test_worker_death_mid_trace_surfaces_in_report(self, pool, trace):
        """SIGKILL a pool worker with a trace's batches in flight: the
        serve completes, energies still match, and the report carries the
        incident counters."""
        sim = self._simulate(pool, trace)
        with make_executor("process", 2) as ex:
            eng = self._engine(pool, executor=ex)
            warm = eng.serve(trace)  # installs the model, warms worker plans
            assert warm.worker_deaths == 0
            # The respawn below has the model log alone to rebuild from.
            assert all(
                isinstance(m, InstallModel) for log in ex._logs for m in log.messages
            )
            os.kill(ex.worker_pids[0], signal.SIGKILL)
            time.sleep(0.05)  # let the process actually die
            rep = eng.serve(trace)
            live_bytes = ex.slab.live_bytes
        e_wall = np.array([r.energy for r in rep.records])
        e_sim = np.array([r.energy for r in sim.records])
        np.testing.assert_allclose(e_wall, e_sim, atol=1e-12)
        assert rep.worker_deaths >= 1
        assert rep.resubmitted >= 1
        assert "worker deaths" in rep.summary()
        assert live_bytes == 0  # every input and result segment was released
