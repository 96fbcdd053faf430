"""The benchmark's declared names: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root is this module's ``benchmark_json()``
written out; ``python -m bench.run --list`` prints the same names and
``bench/test_bench.py`` asserts the two agree.  Later issues refer to
these names verbatim.

Every ``*_s`` per-layer metric is *self* seconds per round (span minus
covered children, see ``bench/trace.py``); every count is per round.
"""

from __future__ import annotations

from typing import Dict, List

RUN_SECONDS = 10

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "plan_paper_mix",
        "why": "Paper contribution 1: bin-pack 265k Table-3 samples for 74 ranks at 3072 tokens; "
        "only repro.distribution works and no kernel runs, so kernel/runtime changes must not move it.",
    },
    {
        "name": "train_fixed_plan",
        "why": "Repeating epoch plan (shuffle=False): collate and plan caches hit 100%, so compiled "
        "replay, kernels and the optimizer do the work; eager autograd, capture and verify do none.",
    },
    {
        "name": "train_reshuffled",
        "why": "Same corpus, default shuffle=True: every batch is new, so shard loads, collate misses, "
        "eager forward/backward, plan capture and verify do the work and replay does none.",
    },
    {
        "name": "serve_bursty",
        "why": "Forward-only path (admission, scheduler, registry, collate) over a bursty open-loop "
        "trace on the virtual clock whose plan working set is larger than PlanCache(64).",
    },
    {
        "name": "md_zeolite",
        "why": "The one large-graph, kernel-bound workload: 204-atom periodic zeolite MD with force "
        "plans, Verlet neighbor cache and padded edge buckets that nothing else uses.",
    },
]

# `bound` is the share of the parent's median a metric may worsen by.
END_TO_END: List[Dict[str, object]] = [
    {"name": "atoms_per_s", "unit": "atoms/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _layer(name: str, unit: str, better: str = "lower") -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER: List[Dict[str, str]] = [
    # repro.distribution / repro.cluster (plan_paper_mix)
    _layer("distribution.plan_epoch_s", "s"),
    _layer("distribution.rank_deal_s", "s"),
    _layer("distribution.rank_shards_s", "s"),
    _layer("distribution.bins", "count"),
    _layer("distribution.padding_frac", "ratio"),
    _layer("distribution.straggler_ratio", "ratio"),
    _layer("distribution.load_cv", "ratio"),
    _layer("distribution.sim_epoch_min", "min"),
    _layer("cluster.simulate_epoch_s", "s"),
    # repro.data
    _layer("data.store.pack_s", "s"),
    _layer("data.store.load_s", "s"),
    _layer("data.store.loads", "count"),
    _layer("data.store.maps_opened", "count"),
    _layer("data.store.map_churn", "ratio"),
    _layer("data.stream.stall_s", "s"),
    _layer("data.stream.stalls", "count"),
    _layer("data.stream.mean_depth", "count", "higher"),
    # repro.graphs
    _layer("graphs.collate_s", "s"),
    _layer("graphs.collate_hit_ratio", "ratio", "higher"),
    _layer("graphs.neighbor_update_s", "s"),
    _layer("graphs.neighbor_rebuilds", "count"),
    _layer("graphs.neighbor_reuse_frac", "ratio", "higher"),
    # repro.runtime / repro.analysis
    _layer("runtime.plan_hit_ratio", "ratio", "higher"),
    _layer("runtime.evictions", "count"),
    _layer("runtime.replay_s", "s"),
    _layer("runtime.replays", "count", "higher"),
    _layer("runtime.compile_s", "s"),
    _layer("runtime.captures", "count"),
    _layer("runtime.first_replay_s", "s"),
    _layer("analysis.verify_s", "s"),
    _layer("analysis.verifies", "count"),
    # repro.training / repro.nn
    _layer("training.train_batch_self_s", "s"),
    _layer("training.step_p50_ms", "ms"),
    _layer("training.step_tail_ms", "ms"),
    _layer("training.steps", "count", "higher"),
    _layer("training.loss_digest", "hash"),
    _layer("nn.optimizer_step_s", "s"),
    # repro.kernels / repro.equivariant
    _layer("kernels.tp_flops", "flop"),
    _layer("kernels.tp_bytes_computed", "B"),
    _layer("kernels.tp_launches", "count"),
    _layer("kernels.sc_flops", "flop"),
    _layer("kernels.sc_bytes_computed", "B"),
    _layer("kernels.sc_launches", "count"),
    _layer("kernels.tp_fwd_bwd_s", "s"),
    _layer("kernels.sc_fwd_bwd_s", "s"),
    _layer("kernels.tp_gflops_per_s", "GFLOP/s", "higher"),
    _layer("equivariant.sh_s", "s"),
    # repro.serving
    _layer("serving.schedule_s", "s"),
    _layer("serving.host_forward_s", "s"),
    _layer("serving.engine_self_s", "s"),
    _layer("serving.registry_publish_s", "s"),
    _layer("serving.deploy_s", "s"),
    _layer("serving.batches", "count"),
    _layer("serving.mean_batch_fill", "ratio", "higher"),
    _layer("serving.queue_depth_peak", "count"),
    _layer("serving.virtual_p50_ms", "ms"),
    _layer("serving.virtual_p95_ms", "ms"),
    _layer("serving.virtual_p99_ms", "ms"),
    _layer("serving.utilization_imbalance", "ratio"),
    # repro.md
    _layer("md.calculator_s", "s"),
    _layer("md.integrator_self_s", "s"),
    _layer("md.energy_drift_per_atom", "eV/atom"),
    # the harness itself
    _layer("harness.import_s", "s"),
    _layer("harness.inputs_s", "s"),
    _layer("harness.warmup_s", "s"),
    _layer("harness.trace_overhead_frac", "ratio"),
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench.run"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
