"""Cost-model-driven batched inference engine.

The serving composition of the paper's ingredients: single-molecule
energy requests arrive over time, the engine packs them into dynamic
micro-batches under a token/edge budget and a max-wait deadline (batch
assembly goes through :class:`repro.graphs.CollateCache`, so hot
molecules are collated once), and a pluggable scheduler
(:mod:`repro.serving.scheduler`) routes the micro-batches across a pool
of simulated replicas whose step time comes from the same analytical
cost model the paper uses to balance training workloads —
:meth:`MACEWorkloadModel.inference_times` rooflines on a
:class:`~repro.cluster.gpu.GPUSpec`, plus the modeled host collate cost
and, optionally, the measured wall-time of the real NumPy forward.

Numerics and timing are decoupled: with ``execute=True`` every dispatched
micro-batch runs the real model forward and each request's energy is
returned in its :class:`~repro.serving.metrics.RequestRecord` (batched
predictions match unbatched single-graph predictions to 1e-10 — the
block-diagonal batch keeps every graph an isolated component); with
``execute=False`` the engine is a pure discrete-event simulator, which is
what the scheduler benchmarks use.
"""

from __future__ import annotations

import math
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.gpu import A100, GPUSpec
from ..cluster.workload import MACEWorkloadModel
from ..graphs.batch import collate
from ..graphs.molecular_graph import MolecularGraph
from ..graphs.neighborlist import build_neighbor_list
from ..graphs.pipeline import CollateCache
from ..mace import MACE
from ..runtime import resolve_plan_cache
from .metrics import RequestRecord, ServingReport
from .replica import Replica, ServiceModel
from .scheduler import Scheduler, make_scheduler
from .trace import TraceRequest, WorkloadTrace

__all__ = ["InferenceEngine", "compare_policies"]


class InferenceEngine:
    """Batched molecule-inference engine over simulated replicas.

    Parameters
    ----------
    model:
        The served :class:`repro.mace.MACE`; swap it mid-traffic with
        :meth:`swap_model` / :meth:`deploy`.
    pool:
        The molecule population requests refer to by index (see
        :mod:`repro.serving.trace`).  Graphs missing neighbor lists get
        one built at the model's cutoff.
    n_replicas:
        Simulated serving devices.
    scheduler:
        Policy name (``"round-robin"``, ``"least-loaded"``,
        ``"cost-aware"``) or a :class:`~repro.serving.scheduler.Scheduler`.
    max_batch_tokens / max_batch_edges:
        Micro-batch budgets; every request must fit the token budget
        alone.  ``max_batch_edges=None`` leaves edges uncapped.
    max_wait:
        Admission deadline in seconds: a request is scheduled no later
        than ``arrival + max_wait`` — the latency/throughput knob of
        every batching server.

        Admission is work-conserving and windowed, with no further
        knobs.  A partial pending window is flushed as soon as a replica
        is idle to take it, instead of waiting out the deadline: at
        light load every request dispatches on arrival, while under load
        the replicas stay busy and the window accumulates into full
        micro-batches.  A flush also triggers when pending work would
        exceed ``n_replicas * max_batch_tokens`` tokens, so each flush
        can feed the whole pool and the cost-aware packer gets a window
        worth balancing.
    gpu, workload_model, variant:
        Replica timing model.  ``workload_model`` defaults to
        :meth:`MACEWorkloadModel.from_config` of the served model so the
        roofline matches what is actually being run; ``variant`` defaults
        to the model config's kernel variant.  ``gpu`` accepts either
        one :class:`~repro.cluster.gpu.GPUSpec` (homogeneous pool) or a
        sequence of ``n_replicas`` specs (heterogeneous pool); each
        replica is costed and timed on its own spec, and the cost-aware
        scheduler exploits the asymmetry through its per-replica
        service estimates.
    collate_cache:
        Micro-batch assembly cache (default: a private
        :class:`~repro.graphs.CollateCache`); repeated compositions of
        hot molecules are collated once.
    plan_cache:
        :class:`~repro.runtime.PlanCache` for compiled model execution
        (default ``"auto"``: a private cache).  With ``execute=True``,
        every micro-batch is its bucket-shaped collate-cache entry, with
        its edge features memoized on it, and replays the one plan
        of its ``(atoms, edges, graphs)`` shape bucket, whatever its
        composition — a warmed round is collate hit → replay;
        :meth:`swap_model` (and therefore every registry deploy) clears
        the cache so a hot swap can never replay plans captured against
        the previous model.  ``None`` disables compiled execution.
    execute:
        Run the real NumPy forward per micro-batch and fill per-request
        energies (True), or simulate timing only (False).
    executor:
        ``None`` (default) times batches purely on the cost model's
        virtual clock.  A :class:`~repro.parallel.BaseExecutor` keeps the
        *identical* virtual schedule — same admission, batching,
        placement and records — and additionally executes every
        micro-batch on that worker pool: the driver ships the
        bucket-shaped collated arrays, the pinned worker (``replica %
        n_workers``) runs the same ``predict_energy`` against its own
        per-version plan cache (one capture per shape bucket), and the
        report gains measured per-batch seconds, the real makespan and
        the pool's robustness counters beside the predictions — the raw
        material of cost-model validation.  Requires ``execute=True``
        and a plan cache.  The caller owns the pool (``with
        make_executor(backend, n_workers) as ex:``); each :meth:`serve`
        drains it.
    slo_seconds:
        Optional latency SLO recorded on reports (attainment fraction).
    """

    def __init__(
        self,
        model: MACE,
        pool: Sequence[MolecularGraph],
        n_replicas: int = 4,
        scheduler="cost-aware",
        max_batch_tokens: int = 512,
        max_batch_edges: Optional[int] = None,
        max_wait: float = 5e-3,
        gpu=A100,
        workload_model: Optional[MACEWorkloadModel] = None,
        variant: Optional[str] = None,
        collate_cache: Optional[CollateCache] = None,
        plan_cache="auto",
        execute: bool = True,
        slo_seconds: Optional[float] = None,
        executor=None,
    ) -> None:
        if n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        if max_batch_tokens <= 0:
            raise ValueError("max_batch_tokens must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self.model = model
        self.model_version = 0
        self.pool = pool if isinstance(pool, list) else list(pool)
        for g in self.pool:
            if not g.has_edges:
                build_neighbor_list(g, cutoff=model.cfg.cutoff)
        if isinstance(gpu, GPUSpec):
            gpus = [gpu] * n_replicas
        else:
            gpus = list(gpu)
            if len(gpus) != n_replicas:
                raise ValueError(
                    f"gpu list has {len(gpus)} specs for {n_replicas} replicas"
                )
        self.gpus = gpus
        self.replicas = [Replica(i, gpu=spec) for i, spec in enumerate(gpus)]
        self.scheduler: Scheduler = make_scheduler(scheduler)
        self.max_batch_tokens = int(max_batch_tokens)
        self.max_batch_edges = (
            None if max_batch_edges is None else int(max_batch_edges)
        )
        self.max_wait = float(max_wait)
        wm = (
            workload_model
            if workload_model is not None
            else MACEWorkloadModel.from_config(model.cfg)
        )
        variant = variant if variant is not None else model.cfg.kernel_variant
        self.service_models = [
            ServiceModel(workload_model=wm, gpu=spec, variant=variant)
            for spec in gpus
        ]
        self.collate_cache = (
            collate_cache if collate_cache is not None else CollateCache()
        )
        self.plan_cache = resolve_plan_cache(plan_cache)
        self.execute = execute
        self.slo_seconds = slo_seconds
        if executor is not None and (not execute or self.plan_cache is None):
            raise ValueError(
                "wall-clock execution on an executor needs execute=True and "
                "a plan cache (workers run compiled plans)"
            )
        self.executor = executor
        # Model versions already broadcast to the pool.
        self._installed_versions: set = set()
        # Observed collate-cache hit rate (EMA over executed batches);
        # starts pessimistic (0 = every batch collates from scratch) and
        # sharpens estimate_service as traffic reveals hot molecules.
        self.cache_hit_ema = 0.0
        self._hit_ema_alpha = 0.2

    # -- model management ---------------------------------------------------------

    def swap_model(self, model: MACE) -> int:
        """Atomically swap the served model; returns the new version.

        The swap is a single reference assignment between micro-batches:
        every batch is computed entirely by one model, never a mix.  The
        collate cache holds *inputs* (batches), not predictions, so no
        invalidation is needed — but the *plan* cache holds compiled
        execution bound to the previous model's parameters, so it is
        cleared: the first batch per shape bucket after a swap recaptures
        against the new weights (every registry ``deploy`` routes through
        here, so a publish can never replay stale plans).
        """
        if model.cfg.species != self.model.cfg.species:
            raise ValueError(
                "hot-swap model supports different species than the pool "
                "was admitted under"
            )
        self.model = model
        self.model_version += 1
        if self.plan_cache is not None:
            self.plan_cache.clear()
        return self.model_version

    def deploy(self, registry, name: str, version: Optional[int] = None) -> int:
        """Warm-load a checkpoint from a registry and hot-swap to it.

        Returns the *registry* version deployed (not the engine's swap
        counter).
        """
        model, version = registry.load(name, version, with_version=True)
        self.swap_model(model)
        return version

    # -- prediction ---------------------------------------------------------------

    def predict(self, graphs: Sequence[MolecularGraph]) -> np.ndarray:
        """Synchronous batched energies for ``graphs`` (input order kept).

        The real forward on one block-diagonal batch — the numerics the
        simulated serve path produces, without the clock.
        """
        graphs = list(graphs)
        for g in graphs:
            if not g.has_edges:
                build_neighbor_list(g, cutoff=self.model.cfg.cutoff)
        return self.model.predict_energy(collate(graphs), compiled=self.plan_cache)

    def estimate_service(
        self, tokens: int, edges: int, replica: Optional[int] = None
    ) -> float:
        """Predicted service seconds of a micro-batch (scheduler costing).

        ``replica`` selects that replica's own :class:`ServiceModel`
        (heterogeneous pools cost differently per device); ``None`` uses
        the pool's first spec.  The host-collate term is weighted by the
        *observed* collate-cache hit rate (an EMA over executed batches)
        instead of assuming a miss: under hot-molecule skew the real
        host cost shrinks with every repeated composition, and the
        schedulers' placement should see that.  The EMA starts at 0, so
        a cold engine (and every ``execute=False`` simulation) costs the
        pessimistic all-miss path exactly as before.
        """
        sm = self.service_models[0 if replica is None else replica]
        return sm.batch_seconds(tokens, edges, hit_rate=self.cache_hit_ema)

    # -- wall-clock execution -----------------------------------------------------

    def _install_model(self, ex) -> None:
        if self.model_version not in self._installed_versions:
            from ..parallel import InstallModel

            ex.install(InstallModel(version=self.model_version, model=self.model))
            self._installed_versions.add(self.model_version)

    def _submit_forward(self, ex, gb, task_id, worker: int) -> Tuple[object, list]:
        """Ship one bucket-shaped micro-batch to a worker.

        Arrays travel as slab handles (inline through the queue when the
        slab is full).  Returns ``(result segment or None, input
        segments)`` for :meth:`_collect_forwards`; the inputs stay
        allocated until then, so a task resubmitted after a worker death
        still finds them.
        """
        from ..parallel import ArrayHandle, ForwardTask, SlabFull

        def place(array):
            try:
                return ex.slab.place(array)
            except SlabFull:
                return array

        self._install_model(ex)
        try:
            result = ex.slab.alloc((gb.n_graphs - gb.ghost_graphs,), np.float64)
        except SlabFull:
            result = None  # energies ride back inline through the queue
        payload = {name: place(getattr(gb, name)) for name in ForwardTask.FIELDS}
        ex.submit(
            ForwardTask(
                task_id=task_id,
                version=self.model_version,
                batch=payload,
                n_graphs=gb.n_graphs,
                ghosts=(gb.ghost_atoms, gb.ghost_edges, gb.ghost_graphs),
                result=result,
            ),
            worker=worker,
        )
        return result, [h for h in payload.values() if isinstance(h, ArrayHandle)]

    @staticmethod
    def _collect_forwards(ex, inflight: Dict[int, tuple]) -> Tuple[Dict, Dict]:
        """Drain the pool; ``(energies, results)`` keyed by batch id.

        Every micro-batch's input and result segments are freed before
        the first worker error is raised, so a failed batch leaks no slab
        memory.
        """
        results = ex.drain()
        failed = [bid for bid in inflight if "error" in results[bid]]
        energies: Dict[int, np.ndarray] = {}
        for bid, (result, inputs) in inflight.items():
            for seg in inputs:
                ex.slab.free(seg)
            # take() frees the result segment, written or not.
            energies[bid] = (
                ex.slab.take(result)
                if result is not None
                else results[bid].get("energies")
            )
        if failed:
            error = results[failed[0]]["error"]
            raise RuntimeError(f"micro-batch {failed[0]!r} failed on worker:\n{error}")
        return energies, results

    # -- serving ------------------------------------------------------------------

    def _admit(self, reqs: Sequence[TraceRequest]):
        """Work-conserving windowed admission; yields ``(time, pending)`` flushes.

        The consumer dispatches each flush before the next is computed:
        replica ``free_at`` after that dispatch decides when the next
        partial window may stop waiting for its deadline.
        """
        window = len(self.replicas) * self.max_batch_tokens
        pending: List[TraceRequest] = []
        pending_tokens = 0
        last_admit = 0.0
        i = 0
        while i < len(reqs) or pending:
            deadline = pending[0].arrival + self.max_wait if pending else math.inf
            next_arrival = reqs[i].arrival if i < len(reqs) else math.inf
            if pending:
                # The moment a replica is idle (which can be no earlier
                # than the last admission), a partial window stops
                # waiting for its deadline.  Ties with the next arrival
                # go to admission, so co-arriving requests still batch
                # together.
                idle_at = min(rep.free_at for rep in self.replicas)
                flush_at = max(idle_at, last_admit)
                if flush_at < next_arrival and flush_at <= deadline:
                    yield flush_at, pending
                    pending, pending_tokens = [], 0
                    continue
            if i < len(reqs) and next_arrival <= deadline:
                r = reqs[i]
                if pending and pending_tokens + r.tokens > window:
                    # Window overflow observed at this arrival: flush the
                    # backlog now, then admit the newcomer.
                    yield r.arrival, pending
                    pending, pending_tokens = [], 0
                pending.append(r)
                pending_tokens += r.tokens
                last_admit = r.arrival
                i += 1
            else:
                yield deadline, pending
                pending, pending_tokens = [], 0

    def serve(
        self,
        trace: WorkloadTrace,
        swaps: Optional[Sequence[Tuple[float, MACE]]] = None,
    ) -> ServingReport:
        """Run the trace through the engine; returns the full report.

        ``swaps`` is an optional list of ``(time, model)`` hot-swap
        events applied at the first flush at-or-after each time — the
        mid-traffic deployment path.
        """
        reqs = trace.requests
        last = -math.inf
        for r in reqs:
            if r.arrival < last:
                raise ValueError("trace is not sorted by arrival time")
            last = r.arrival
            if r.tokens > self.max_batch_tokens:
                raise ValueError(
                    f"request {r.req_id} has {r.tokens} tokens, over the "
                    f"{self.max_batch_tokens}-token micro-batch budget"
                )
            if self.max_batch_edges is not None and r.edges > self.max_batch_edges:
                raise ValueError(
                    f"request {r.req_id} has {r.edges} edges, over the "
                    f"{self.max_batch_edges}-edge micro-batch budget"
                )
            if not 0 <= r.graph_id < len(self.pool):
                raise ValueError(f"request {r.req_id} references unknown graph")
        for rep in self.replicas:
            rep.reset()
        self.scheduler.reset()
        swap_events = sorted(swaps or [], key=lambda ev: ev[0])
        swap_idx = 0
        hits0, misses0 = self.collate_cache.hits, self.collate_cache.misses
        ex = self.executor
        if ex is not None:
            deaths0 = ex.stats.worker_deaths
            resub0 = ex.stats.resubmitted
            wall_t0 = monotonic()

        records: List[RequestRecord] = []
        batch_tokens: List[int] = []
        predicted: List[float] = []
        # batch_id -> first record index, and -> energies (local forward)
        # or in-flight slab segments (executor forward).
        first_record: Dict[int, int] = {}
        executed: Dict[int, object] = {}
        host_forward = 0.0
        queue_peak = 0
        for now, pending in self._admit(reqs):
            while swap_idx < len(swap_events) and swap_events[swap_idx][0] <= now:
                self.swap_model(swap_events[swap_idx][1])
                swap_idx += 1
            queue_peak = max(queue_peak, len(pending))
            plans = self.scheduler.plan(pending, now, self.replicas, self)
            planned = sum(len(batch) for batch, _ in plans)
            if planned != len(pending):
                raise RuntimeError(
                    f"scheduler {self.scheduler.name!r} planned {planned} of "
                    f"{len(pending)} pending requests"
                )
            for batch, j in plans:
                bid = len(batch_tokens)
                tokens = sum(r.tokens for r in batch)
                edges = sum(r.edges for r in batch)
                cache_hit = False
                if self.execute:
                    comp = [r.graph_id for r in batch]
                    h_before = self.collate_cache.hits
                    gb = self.collate_cache.get(
                        self.pool, comp, capacity=self.max_batch_tokens
                    )
                    cache_hit = self.collate_cache.hits > h_before
                    first_record[bid] = len(records)
                    if ex is None:
                        t0 = perf_counter()
                        executed[bid] = self.model.predict_energy(
                            gb, compiled=self.plan_cache
                        )
                        host_forward += perf_counter() - t0
                    else:
                        executed[bid] = self._submit_forward(
                            ex, gb, bid, j % ex.n_workers
                        )
                    self.cache_hit_ema += self._hit_ema_alpha * (
                        float(cache_hit) - self.cache_hit_ema
                    )
                service = self.service_models[j].batch_seconds(
                    tokens, edges, hit_rate=1.0 if cache_hit else 0.0
                )
                predicted.append(service)
                start, finish = self.replicas[j].dispatch(
                    now, service, len(batch), tokens
                )
                # The cache collates members in sorted-graph_id order, so
                # records are appended in that order: energies[pos] of a
                # batch belongs to its pos-th record.
                for r in sorted(batch, key=lambda r: r.graph_id):
                    records.append(
                        RequestRecord(
                            req_id=r.req_id,
                            graph_id=r.graph_id,
                            arrival=r.arrival,
                            dispatch=start,
                            finish=finish,
                            replica=j,
                            batch_id=bid,
                        )
                    )
                batch_tokens.append(tokens)

        wall_fields = {}
        if ex is not None:
            executed, results = self._collect_forwards(ex, executed)
            done = [results[bid] for bid in range(len(batch_tokens))]
            wall_fields = dict(
                mode="wall-clock",
                backend=ex.backend,
                n_workers=ex.n_workers,
                batch_predicted_seconds=predicted,
                batch_measured_seconds=[res["finish"] - res["start"] for res in done],
                measured_makespan=(
                    max(res["finish"] for res in done) - wall_t0 if done else 0.0
                ),
                worker_deaths=ex.stats.worker_deaths - deaths0,
                resubmitted=ex.stats.resubmitted - resub0,
            )
        for bid, energies in executed.items():
            for pos, energy in enumerate(energies):
                records[first_record[bid] + pos].energy = float(energy)

        records.sort(key=lambda rec: rec.req_id)
        makespan = max((rec.finish for rec in records), default=0.0)
        return ServingReport(
            policy=self.scheduler.name,
            records=records,
            replica_busy=np.array([rep.busy_seconds for rep in self.replicas]),
            makespan=makespan,
            batch_tokens=batch_tokens,
            batch_capacity=self.max_batch_tokens,
            queue_depth_peak=queue_peak,
            host_forward_seconds=host_forward,
            collate_hits=self.collate_cache.hits - hits0,
            collate_misses=self.collate_cache.misses - misses0,
            slo_seconds=self.slo_seconds,
            **wall_fields,
        )


def compare_policies(
    model: MACE,
    pool: Sequence[MolecularGraph],
    trace: WorkloadTrace,
    policies: Sequence[str] = ("round-robin", "least-loaded", "cost-aware"),
    **engine_kwargs,
) -> Dict[str, ServingReport]:
    """Serve one trace under several policies on identical fresh engines.

    Every engine gets its *own* collate cache: a shared cache would let
    hits paid for by an earlier policy cheapen the modeled host collate
    time of a later one, biasing the comparison by serve order.  With
    identical budgets, replica counts and (policy-independent)
    admission/flush logic, the reports therefore differ only by batching
    composition and placement.  Returns ``{policy: report}`` in the
    order given.
    """
    pool = pool if isinstance(pool, list) else list(pool)
    reports: Dict[str, ServingReport] = {}
    for policy in policies:
        engine = InferenceEngine(
            model,
            pool,
            scheduler=policy,
            collate_cache=CollateCache(),
            **engine_kwargs,
        )
        reports[policy] = engine.serve(trace)
    return reports
