"""Measure one workload in this process: set-up, timed rounds, traced rounds.

End-to-end metrics come from untraced rounds only.  With ``trace`` on,
the run spends half its seconds untraced, installs the spans and spends
the other half traced; the ratio of the two round medians is the
tracing overhead.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.equivariant.spherical_harmonics import sh_dim, spherical_harmonics
from repro.kernels import (
    channelwise_tp_optimized,
    channelwise_tp_table,
    counting,
    sym_contraction_spec,
    symmetric_contraction_optimized,
    weight_layout,
)

from . import stats
from .metrics import PER_LAYER
from .trace import Recorder, install
from .workloads import SIZES, WORKLOADS, Workload

KERNEL_REPEATS = 5


def set_up(name: str, seed: int, sizes: Dict[str, object], tmp: Path):
    """Set the workload up ``sizes["setups"]`` times; keep the last one.

    Returns the ready workload and the median seconds of input building
    and of warm-up.  Each repeat starts from nothing: the previous
    workload is closed and collected first, so peak memory is one
    workload's, not the sum.
    """
    inputs_s: List[float] = []
    warmup_s: List[float] = []
    workload = None
    for k in range(int(sizes["setups"])):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload = WORKLOADS[name](seed, sizes, tmp / f"setup{k}")
        t0 = perf_counter()
        workload.build_inputs()
        t1 = perf_counter()
        workload.warm_up()
        t2 = perf_counter()
        inputs_s.append(t1 - t0)
        warmup_s.append(t2 - t1)
    return workload, statistics.median(inputs_s), statistics.median(warmup_s)


def run_rounds(workload: Workload, seconds: float, min_rounds: int) -> List[float]:
    """Rounds of fixed work until ``seconds`` have passed (at least ``min_rounds``)."""
    times: List[float] = []
    deadline = perf_counter() + seconds
    while len(times) < min_rounds or perf_counter() < deadline:
        times.append(workload.run_round())
    return times


def kernel_microbench(cfg, edges: int, atoms: int, seed: int) -> Dict[str, float]:
    """TP / SC / SH forward+backward called directly at one batch's shapes."""
    rng = np.random.default_rng(seed)
    K = cfg.num_channels
    table = channelwise_tp_table(cfg.lmax_sh, cfg.l_hidden, cfg.l_atomic_basis)
    spec = sym_contraction_spec(cfg.l_atomic_basis, cfg.correlation, cfg.l_hidden)
    Y = Tensor(rng.standard_normal((edges, sh_dim(table.l1max))), requires_grad=True)
    h = Tensor(rng.standard_normal((edges, K, sh_dim(table.l2max))), requires_grad=True)
    R = Tensor(rng.standard_normal((edges, K, table.num_paths)), requires_grad=True)
    g_tp = np.ones((edges, K, sh_dim(table.l3max)))
    A = Tensor(rng.standard_normal((atoms, K, sh_dim(spec.lmax))), requires_grad=True)
    species = rng.integers(0, cfg.n_species, atoms)
    weights = [
        Tensor(rng.standard_normal((cfg.n_species, K, p)) * 0.2, requires_grad=True)
        for (_, _, p) in weight_layout(spec)
    ]
    g_sc = np.ones((atoms, K, spec.out_dim))
    vectors = rng.standard_normal((edges, 3))

    def timed(fn) -> Tuple[float, float]:
        """Median forward seconds and median forward+backward seconds."""
        fwd, both = [], []
        for _ in range(KERNEL_REPEATS):
            t0 = perf_counter()
            out, grad = fn()
            t1 = perf_counter()
            out.backward(grad)
            t2 = perf_counter()
            fwd.append(t1 - t0)
            both.append(t2 - t0)
        return statistics.median(fwd), statistics.median(both)

    with counting() as kc:
        channelwise_tp_optimized(Y, h, R, table)
    tp_fwd, tp_both = timed(lambda: (channelwise_tp_optimized(Y, h, R, table), g_tp))
    _, sc_both = timed(
        lambda: (symmetric_contraction_optimized(A, species, weights, spec), g_sc)
    )
    sh = []
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        spherical_harmonics(cfg.lmax_sh, vectors, normalization="component")
        sh.append(perf_counter() - t0)
    return {
        "kernels.tp_fwd_bwd_s": tp_both,
        "kernels.sc_fwd_bwd_s": sc_both,
        "kernels.tp_gflops_per_s": kc.flops / tp_fwd / 1e9,
        "equivariant.sh_s": statistics.median(sh),
    }


# Per-layer seconds: self time of every span with this name, per traced round.
SPAN_SECONDS = {
    "distribution.plan_epoch_s": "distribution.plan_epoch",
    "distribution.rank_deal_s": "distribution.all_rank_bins",
    "distribution.rank_shards_s": "distribution.plan_rank_shards",
    "data.store.load_s": "data.store.load",
    "graphs.collate_s": "graphs.collate",
    "graphs.neighbor_update_s": "graphs.neighbor_update",
    "runtime.replay_s": "runtime.replay",
    "runtime.compile_s": "runtime.compile",
    "analysis.verify_s": "analysis.verify",
    "training.train_batch_self_s": "training.train_batch",
    "nn.optimizer_step_s": "nn.optimizer_step",
    "serving.schedule_s": "serving.schedule",
    "serving.host_forward_s": "serving.host_forward",
    "serving.engine_self_s": "serving.serve",
    "md.calculator_s": "md.calculator",
    "md.integrator_self_s": "md.step",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    workload: Workload,
    recorder: Recorder,
    delta: Dict[str, float],
    kernels,
    rounds: int,
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload never enters the layer."""
    out = {m["name"]: 0.0 for m in PER_LAYER}
    totals = recorder.totals()
    for metric, span in SPAN_SECONDS.items():
        if span in totals:
            out[metric] = totals[span]["self_s"] / rounds

    def d(key: str) -> float:
        return delta.get(key, 0.0)

    out["runtime.replays"] = _ratio(totals.get("runtime.replay", {}).get("count", 0), rounds)
    out["runtime.plan_hit_ratio"] = _ratio(d("plan_hits"), d("plan_hits") + d("plan_misses"))
    out["runtime.captures"] = d("plan_captures") / rounds
    out["runtime.evictions"] = (d("plan_captures") - d("plan_size")) / rounds
    out["analysis.verifies"] = d("plan_verified") / rounds
    out["graphs.collate_hit_ratio"] = _ratio(
        d("collate_hits"), d("collate_hits") + d("collate_misses")
    )
    out["data.store.loads"] = d("loads") / rounds
    out["data.store.maps_opened"] = d("maps") / rounds
    out["data.store.map_churn"] = _ratio(d("maps"), d("loads"))
    out["data.stream.stall_s"] = d("stall_s") / rounds
    out["data.stream.stalls"] = d("stalls") / rounds
    out["data.stream.mean_depth"] = _ratio(d("depth_sum"), d("stream_batches"))
    out["graphs.neighbor_rebuilds"] = d("neighbor_rebuilds") / rounds
    if d("neighbor_queries"):
        out["graphs.neighbor_reuse_frac"] = 1.0 - d("neighbor_rebuilds") / d("neighbor_queries")
    steps = recorder.durations("training.train_batch")
    if steps:
        summary = stats.summarize(steps)
        out["training.steps"] = len(steps) / rounds
        out["training.step_p50_ms"] = summary["median"] * 1e3
        # Below 40 steps no percentile has ten samples beyond it: report the median.
        out["training.step_tail_ms"] = (summary["tail"] or summary["median"]) * 1e3
    for prefix, kernel in (("tp", "tp_fused"), ("sc", "sc_fused")):
        slot = kernels.by_name.get(kernel)
        if slot:
            out[f"kernels.{prefix}_flops"] = slot["flops"] / rounds
            out[f"kernels.{prefix}_bytes_computed"] = slot["bytes"] / rounds
            out[f"kernels.{prefix}_launches"] = slot["launches"] / rounds
    out.update(workload.extras)
    return out


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: str, out_dir: Path, import_s: float
) -> Dict[str, object]:
    """Run one workload; returns the full record (both metric groups when traced)."""
    sizes = SIZES[scale]
    tmp = out_dir / f"tmp_{name}_{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        workload, inputs_s, warmup_s = set_up(name, seed, sizes, tmp)
        min_rounds = int(sizes["min_rounds"])
        untraced = run_rounds(workload, seconds / 2 if trace else seconds, min_rounds)
        round_s = stats.quiet_time(untraced)
        record: Dict[str, object] = {
            "workload": name,
            "scale": scale,
            "fingerprint": stats.fingerprint(seed),
            "round_s": stats.summarize(untraced),
            "quiet_round_s": round_s,
            "round_times_s": untraced,
            "atoms_per_round": workload.atoms_per_round,
            "ops_per_round": workload.ops_per_round,
        }
        end_to_end = {
            "atoms_per_s": workload.atoms_per_round / round_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s + inputs_s + warmup_s,
        }
        record["end_to_end"] = end_to_end
        if trace:
            recorder = Recorder()
            install(recorder)
            before = workload.counters()
            with counting() as kernels:
                traced = run_rounds(workload, seconds / 2, min_rounds)
            after = workload.counters()
            delta = {key: after[key] - before[key] for key in after}
            workload.finish()
            per_layer = layer_metrics(workload, recorder, delta, kernels, len(traced))
            shape = workload.kernel_shape()
            if shape is not None:
                per_layer.update(kernel_microbench(workload.cfg, *shape, seed))
            per_layer.update(
                {
                    "harness.import_s": import_s,
                    "harness.inputs_s": inputs_s,
                    "harness.warmup_s": warmup_s,
                    "harness.trace_overhead_frac": stats.quiet_time(traced) / round_s - 1.0,
                }
            )
            record["per_layer"] = per_layer
            record["traced_rounds"] = len(traced)
            record["spans"] = len(recorder.spans)
            recorder.write_chrome_trace(out_dir / f"trace_{name}.json")
        record["attempted"] = workload.attempted
        record["failed"] = workload.failed
        workload.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return record
