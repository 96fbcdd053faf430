"""The five workloads, driven through the layers' public APIs only.

A *round* is the timed unit and always does the same amount of work;
``bench/measure.py`` decides how many rounds run.  Inputs come from the
seed alone.  ``bench/README.md`` records why each workload exists and
the sizing evidence behind the numbers below.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import A100, DRAGONFLY, PAPER_MODEL, simulate_epoch_from_bins
from repro.data import build_spec, generate_structure, pack_training_set
from repro.distribution import BalancedDistributedSampler, evaluate_bins
from repro.graphs import collate
from repro.mace import MACE, MACEConfig
from repro.md import MACECalculator, VelocityVerlet
from repro.serving import (
    InferenceEngine,
    ModelRegistry,
    build_request_pool,
    generate_trace,
)
from repro.training import Trainer

from . import checks

# What all six pre-existing --smoke gates use.
CFG = MACEConfig(num_channels=8, lmax_sh=2, l_atomic_basis=2, correlation=2)
# Wider and one correlation order up, so sc_fused is non-trivial next to tp_fused.
MD_CFG = replace(CFG, num_channels=16, correlation=3)

# "full" is what BENCHMARK.json measures; "smoke" is seconds-long and unrecorded.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        "setups": 3,
        "min_rounds": 3,
        "plan_scale": 0.1,
        "plan_replicas": 74,
        "fixed_plan_samples": 96,
        "reshuffled_samples": 192,
        "reshuffle_warmup_epochs": 3,
        "serve_requests": 400,
        "md_warmup_steps": 3,
        "md_steps": 3,
    },
    "smoke": {
        "setups": 1,
        "min_rounds": 2,
        "plan_scale": 0.002,
        "plan_replicas": 4,
        "fixed_plan_samples": 16,
        "reshuffled_samples": 16,
        "reshuffle_warmup_epochs": 2,
        "serve_requests": 40,
        "md_warmup_steps": 1,
        "md_steps": 1,
    },
}

CAPACITY = 3072  # tokens per bin, the paper's operating point (section 5.2)
TRAIN_CAPACITY = 192
CUTOFF = 4.5


class Workload:
    """One workload: inputs, warm-up, a fixed-work round, an output check."""

    name: str
    cfg: MACEConfig = CFG
    atoms_per_round: int = 0  # throughput numerator: atoms a round processes
    ops_per_round: int = 0  # operations the failed/attempted counts are in

    def __init__(self, seed: int, sizes: Dict[str, object], tmp: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.extras: Dict[str, float] = {}  # per-layer values measured directly

    def build_inputs(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def check_round(self) -> Tuple[int, int]:
        """``(attempted, failed)`` operations of the round just run (untimed)."""
        raise NotImplementedError

    def run_round(self) -> float:
        """Time one round, then check it; an exception fails the whole round."""
        start = perf_counter()
        try:
            self.round()
            raised = False
        except Exception:  # boundary: the benchmark reports failures, it does not die
            traceback.print_exc()
            raised = True
        elapsed = perf_counter() - start
        attempted, failed = (
            (self.ops_per_round, self.ops_per_round) if raised else self.check_round()
        )
        self.attempted += attempted
        self.failed += failed
        return elapsed

    # -- what the per-layer pass reads ---------------------------------------------

    plan_cache = None
    collate_cache = None

    def counters(self) -> Dict[str, float]:
        """Cumulative public counters; the traced pass reports their deltas."""
        out: Dict[str, float] = {}
        if self.plan_cache is not None:
            stats = self.plan_cache.stats()
            for key in ("hits", "misses", "captures", "verified", "size"):
                out[f"plan_{key}"] = stats[key]
        if self.collate_cache is not None:
            stats = self.collate_cache.stats()
            out["collate_hits"] = stats["hits"]
            out["collate_misses"] = stats["misses"]
        return out

    def kernel_shape(self) -> Optional[Tuple[int, int]]:
        """``(edges, atoms)`` of the largest batch the kernels see, if any."""
        return None

    def finish(self) -> None:
        """Fill ``extras`` that are only worth computing once, after the rounds."""

    def close(self) -> None:
        """Release files and maps before the next set-up repeat."""


class PlanPaperMix(Workload):
    name = "plan_paper_mix"

    def build_inputs(self) -> None:
        self.spec = build_spec(self.sizes["plan_scale"], self.seed)
        n = self.spec.n_samples
        self.replicas = int(self.sizes["plan_replicas"])
        self.sampler = BalancedDistributedSampler(
            self.spec.n_atoms,
            CAPACITY,
            num_replicas=self.replicas,
            seed=self.seed,
            shard_ids=np.arange(n) // 4096,
        )
        self.epoch = 0
        self.atoms_per_round = int(self.spec.total_tokens)
        self.ops_per_round = n

    def warm_up(self) -> None:
        self.round()

    def round(self) -> None:
        self.rank_bins = self.sampler.all_rank_bins(self.epoch)
        self.rank_shards = self.sampler.plan_rank_shards(self.epoch, 0)
        self.epoch += 1

    def check_round(self) -> Tuple[int, int]:
        return checks.check_plan(self.rank_bins, self.spec.n_atoms, CAPACITY)

    def finish(self) -> None:
        bins = self.sampler.plan_epoch(self.epoch - 1)
        quality = evaluate_bins(bins)
        start = perf_counter()
        report = simulate_epoch_from_bins(
            bins,
            self.spec.n_atoms,
            self.spec.n_edges,
            self.replicas,
            model=PAPER_MODEL,
            gpu=A100,
            interconnect=DRAGONFLY,
        )
        self.extras.update(
            {
                "cluster.simulate_epoch_s": perf_counter() - start,
                "distribution.bins": quality.num_bins,
                "distribution.padding_frac": quality.padding_fraction,
                "distribution.straggler_ratio": quality.straggler_ratio,
                "distribution.load_cv": quality.load_cv,
                "distribution.sim_epoch_min": report.epoch_time / 60.0,
            }
        )


class _Train(Workload):
    shuffle: bool
    samples_key: str  # which SIZES entry is the corpus size
    epochs_per_round: int

    def build_inputs(self) -> None:
        start = perf_counter()
        self.dataset = pack_training_set(
            self.tmp / "corpus",
            int(self.sizes[self.samples_key]),
            seed=self.seed,
            cutoff=CUTOFF,
            max_atoms=40,
            shard_size=16,
            resident_shards=2,
        )
        self.extras["data.store.pack_s"] = perf_counter() - start
        self.trainer = Trainer(MACE(CFG, seed=0), dataset=self.dataset)
        self.sampler = self.dataset.sampler(
            TRAIN_CAPACITY, shuffle=self.shuffle, seed=self.seed
        )
        self.plan_cache = self.trainer.plan_cache
        self.collate_cache = self.trainer.collate_cache
        self.epoch = 0
        self.round_losses: List[List[float]] = []
        index = self.dataset.size_index
        self.atoms_per_round = int(index.total_tokens) * self.epochs_per_round
        self.ops_per_round = len(self.sampler.plan_rank_bins(0, 0)) * self.epochs_per_round

    def _epoch(self) -> List[float]:
        bins = self.sampler.plan_rank_bins(self.epoch, 0)
        self.epoch += 1
        return self.trainer.train_epoch_bins(bins)

    def round(self) -> None:
        self.losses = [x for _ in range(self.epochs_per_round) for x in self._epoch()]

    def check_round(self) -> Tuple[int, int]:
        self.round_losses.append(self.losses)
        return checks.check_train(self.first_epoch_losses, self.losses)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        stream = self.trainer.stream_stats
        out.update(
            loads=self.dataset.payload_reads,
            maps=self.dataset.maps_opened,
            stalls=stream.stalls,
            stall_s=stream.stall_seconds,
            depth_sum=stream.depth_sum,
            stream_batches=stream.batches,
        )
        return out

    def kernel_shape(self) -> Tuple[int, int]:
        index = self.dataset.size_index
        edges, atoms = max(
            (int(index.n_edges[items].sum()), int(index.n_atoms[items].sum()))
            for items, _ in self.sampler.plan_rank_bins(0, 0)
        )
        return edges, atoms

    def finish(self) -> None:
        # Losses up to the end of the first timed round: the same steps on
        # every run of a seed, whatever --seconds allowed after them.
        fixed = np.array(self.warmup_losses + sum(self.round_losses[:1], []), dtype=np.float64)
        digest = hashlib.blake2b(fixed.tobytes(), digest_size=6).digest()
        self.extras["training.loss_digest"] = float(int.from_bytes(digest, "big"))

    def close(self) -> None:
        self.dataset.close()


class TrainFixedPlan(_Train):
    name = "train_fixed_plan"
    shuffle = False
    samples_key = "fixed_plan_samples"
    epochs_per_round = 2

    def warm_up(self) -> None:
        self.first_epoch_losses = self._epoch()  # capture: eager + record + verify
        start = perf_counter()
        second = self._epoch()  # first replay: arenas are touched for the first time
        self.extras["runtime.first_replay_s"] = perf_counter() - start
        self.warmup_losses = self.first_epoch_losses + second


class TrainReshuffled(_Train):
    name = "train_reshuffled"
    shuffle = True
    samples_key = "reshuffled_samples"
    epochs_per_round = 1

    def warm_up(self) -> None:
        # Until PlanCache(64) is at capacity and evicting: from then on the
        # memory high-water mark is reached and a round's cost is steady.
        self.first_epoch_losses = self._epoch()
        self.warmup_losses = list(self.first_epoch_losses)
        for _ in range(int(self.sizes["reshuffle_warmup_epochs"]) - 1):
            self.warmup_losses += self._epoch()


class ServeBursty(Workload):
    name = "serve_bursty"
    n_reference = 8

    def build_inputs(self) -> None:
        self.pool = build_request_pool(24, seed=self.seed + 3, max_atoms=72)
        model = MACE(CFG, seed=0)
        registry = ModelRegistry(self.tmp / "registry")
        start = perf_counter()
        registry.publish(model, "mace")
        self.extras["serving.registry_publish_s"] = perf_counter() - start
        self.engine = InferenceEngine(
            model,
            self.pool,
            n_replicas=2,
            scheduler="cost-aware",
            max_batch_tokens=TRAIN_CAPACITY,
            max_wait=5e-3,
            workload_model=PAPER_MODEL,
            gpu=replace(A100, saturation_tokens_fp32=64),
            execute=True,
        )
        start = perf_counter()
        self.engine.deploy(registry, "mace")
        self.extras["serving.deploy_s"] = perf_counter() - start
        n = int(self.sizes["serve_requests"])
        self.trace = generate_trace(
            self.pool, n, rate=2000.0, process="bursty", seed=self.seed + 11
        )
        self.plan_cache = self.engine.plan_cache
        self.collate_cache = self.engine.collate_cache
        self.atoms_per_round = int(self.trace.total_tokens)
        self.ops_per_round = n
        self.references: Optional[Dict[int, float]] = None

    def warm_up(self) -> None:
        # The first pass fills the collate cache and settles the engine's
        # hit-rate EMA (the virtual schedule is identical from the second
        # pass on); wall time keeps falling until the second pass is done.
        self.round()
        self.round()

    def round(self) -> None:
        self.report = self.engine.serve(self.trace)

    def _reference_energies(self) -> Dict[int, float]:
        """Unbatched eager energies of a few seeded requests, for the 1e-10 check."""
        n = self.ops_per_round
        picks = np.random.default_rng(self.seed).choice(
            n, size=min(self.n_reference, n), replace=False
        )
        return {
            int(i): float(
                self.engine.model.predict_energy(
                    collate([self.pool[self.trace.requests[i].graph_id]])
                )[0]
            )
            for i in picks
        }

    def check_round(self) -> Tuple[int, int]:
        if self.references is None:  # untimed, and before any span is installed
            self.references = self._reference_energies()
        return checks.check_serve(
            self.report.records, self.ops_per_round, self.references
        )

    def kernel_shape(self) -> Tuple[int, int]:
        edges: Dict[int, int] = {}
        atoms: Dict[int, int] = {}
        for rec in self.report.records:
            g = self.pool[rec.graph_id]
            edges[rec.batch_id] = edges.get(rec.batch_id, 0) + g.n_edges
            atoms[rec.batch_id] = atoms.get(rec.batch_id, 0) + g.n_atoms
        largest = max(edges, key=edges.get)
        return edges[largest], atoms[largest]

    def finish(self) -> None:
        report = self.report
        latency = report.latency
        self.extras.update(
            {
                "serving.batches": report.n_batches,
                "serving.mean_batch_fill": report.mean_batch_fill,
                "serving.queue_depth_peak": report.queue_depth_peak,
                "serving.virtual_p50_ms": latency.p50 * 1e3,
                "serving.virtual_p95_ms": latency.p95 * 1e3,
                "serving.virtual_p99_ms": latency.p99 * 1e3,
                "serving.utilization_imbalance": report.utilization_imbalance,
            }
        )


class MDZeolite(Workload):
    name = "md_zeolite"
    cfg = MD_CFG

    def build_inputs(self) -> None:
        self.graph = generate_structure(
            "Zeolite", np.random.default_rng(self.seed + 8), 204
        )
        self.calculator = MACECalculator(MACE(MD_CFG, seed=0), cutoff=CUTOFF)
        self.plan_cache = self.calculator.plan_cache
        self.steps = int(self.sizes["md_steps"])
        self.atoms_per_round = self.graph.n_atoms * self.steps
        self.ops_per_round = self.steps

    def _total_energy(self) -> float:
        state = self.md.state
        return state.potential_energy + state.kinetic_energy(self.md.masses)

    def warm_up(self) -> None:
        # Construction evaluates forces once: neighbor build + force-plan capture.
        self.md = VelocityVerlet(
            self.calculator,
            self.graph,
            timestep_fs=0.5,
            cutoff=CUTOFF,
            skin="auto",
            seed=self.seed + 1,
        )
        self.md.initialize_velocities(300.0)
        self.energy0 = self._total_energy()
        start = perf_counter()
        self.md.step()
        self.extras["runtime.first_replay_s"] = perf_counter() - start
        for _ in range(int(self.sizes["md_warmup_steps"]) - 1):
            self.md.step()

    def round(self) -> None:
        for _ in range(self.steps):
            self.md.step()

    def check_round(self) -> Tuple[int, int]:
        drift = (self._total_energy() - self.energy0) / self.graph.n_atoms
        self.extras["md.energy_drift_per_atom"] = drift
        return checks.check_md(self.steps, self.md.state.forces, drift)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        caches = (self.md.neighbor_cache, self.calculator.neighbor_cache)
        out["neighbor_queries"] = sum(c.queries for c in caches)
        out["neighbor_rebuilds"] = sum(c.rebuilds for c in caches)
        return out

    def kernel_shape(self) -> Tuple[int, int]:
        edges = self.calculator.edge_capacity or self.graph.n_edges
        return int(edges), self.graph.n_atoms


WORKLOADS = {
    cls.name: cls
    for cls in (PlanPaperMix, TrainFixedPlan, TrainReshuffled, ServeBursty, MDZeolite)
}
