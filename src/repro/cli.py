"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments``
    Regenerate paper tables/figures (all, or a named subset).
``pack``
    Run the load balancer on a synthetic dataset slice and print the
    packing quality metrics.
``simulate``
    Strong-scaling simulation at chosen GPU counts.
``train``
    Train a small MACE on synthetic data and report the loss trajectory.
``serve-bench``
    Serve a synthetic inference trace through the batched engine and
    compare scheduling policies (round-robin / least-loaded / cost-aware)
    on tail latency, throughput and replica balance.
``plan-report``
    Capture compiled plans (training step, force and energy inference)
    on a synthetic batch, verify them statically, and print the
    liveness/aliasing report with legal buffer-donation pairs — the
    artifact the arena-planning work consumes.
``dataset-pack``
    Generate, label and pack a synthetic training set into the sharded
    on-disk format (``repro.data.store``).
``dataset-report``
    Describe a packed dataset from its size index alone — no shard
    payload is opened unless ``--verify`` asks for the deep check.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

__all__ = ["main"]

_EXPERIMENTS = [
    "table3",
    "figure5",
    "figure6",
    "figure7",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
]


def _cmd_experiments(args: argparse.Namespace) -> int:
    from . import experiments

    names = args.names or _EXPERIMENTS
    for name in names:
        if name not in _EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from {_EXPERIMENTS}")
            return 2
        mod = getattr(experiments, name)
        t0 = time.time()
        print("=" * 72)
        print(f"{name}  ({mod.__doc__.strip().splitlines()[0]})")
        print("=" * 72)
        print(mod.report(mod.run()))
        print(f"[{time.time() - t0:.1f} s]\n")
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from .data import build_spec
    from .distribution import create_balanced_batches, evaluate_bins

    spec = build_spec(args.scale, seed=args.seed)
    t0 = time.time()
    bins = create_balanced_batches(spec.n_atoms, args.capacity, args.gpus)
    dt = time.time() - t0
    m = evaluate_bins(bins, spec.n_atoms)
    print(
        f"packed {spec.n_samples:,} graphs ({spec.total_tokens:,} tokens) "
        f"into {m.num_bins:,} bins in {dt:.2f} s"
    )
    print(
        f"  padding {m.padding_fraction:.2%}, load CV {m.load_cv:.4f}, "
        f"straggler ratio {m.straggler_ratio:.4f}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .data import build_spec
    from .experiments.common import (
        balanced_workloads,
        fixed_count_workloads,
        format_table,
        simulate,
    )

    spec = build_spec(args.scale, seed=args.seed)
    fixed = fixed_count_workloads(spec)
    rows = []
    for gpus in args.gpus:
        balanced = balanced_workloads(spec, gpus)
        base = simulate(fixed, gpus, "baseline").epoch_time
        both = simulate(balanced, gpus, "optimized").epoch_time
        rows.append(
            (gpus, f"{base / 60:.1f}", f"{both / 60:.1f}", f"{base / both:.2f}x")
        )
    print(format_table(["GPUs", "baseline (min)", "optimized (min)", "speedup"], rows))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .data import attach_labels, build_training_set
    from .distribution import BalancedDistributedSampler
    from .mace import MACE, MACEConfig
    from .training import Trainer

    graphs = attach_labels(
        build_training_set(
            args.samples, systems=["Water clusters"], seed=args.seed, max_atoms=40
        )
    )
    sampler = BalancedDistributedSampler(
        [g.n_atoms for g in graphs], args.capacity, num_replicas=1, seed=args.seed
    )
    cfg = MACEConfig(
        num_channels=args.channels, lmax_sh=2, l_atomic_basis=2, correlation=2
    )
    model = MACE(cfg, seed=args.seed)
    trainer = Trainer(model, graphs)
    result = trainer.fit(sampler, args.epochs, verbose=True)
    print(f"final loss: {result.final_loss:.6f}")
    if args.output:
        from .serialization import save_model

        path = save_model(model, args.output)
        print(f"checkpoint written to {path}")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .cluster import A100, PAPER_MODEL
    from .experiments.common import format_table
    from .mace import MACE, MACEConfig
    from .serving import build_request_pool, compare_policies, generate_trace

    cfg = MACEConfig(
        num_channels=args.channels, lmax_sh=2, l_atomic_basis=2, correlation=2
    )
    model = MACE(cfg, seed=args.seed)
    pool = build_request_pool(args.pool, seed=args.seed, max_atoms=args.max_atoms)
    trace = generate_trace(
        pool, args.requests, rate=args.rate, process=args.process, seed=args.seed
    )
    gpu = replace(A100, saturation_tokens_fp32=args.saturation)
    if args.slow_replicas:
        if args.slow_replicas >= args.replicas:
            raise SystemExit("--slow-replicas must be below --replicas")
        slow = replace(
            gpu,
            name=f"{gpu.name}-half",
            sustained_flops=gpu.sustained_flops / 2,
            sustained_bandwidth=gpu.sustained_bandwidth / 2,
        )
        gpu = [gpu] * (args.replicas - args.slow_replicas) + [slow] * args.slow_replicas
    reports = compare_policies(
        model,
        pool,
        trace,
        policies=args.policies,
        n_replicas=args.replicas,
        max_batch_tokens=args.capacity,
        max_wait=args.max_wait_ms * 1e-3,
        workload_model=PAPER_MODEL,
        gpu=gpu,
        execute=args.execute,
        slo_seconds=args.slo_ms * 1e-3,
    )
    print(
        f"{args.process} trace: {trace.n_requests} requests over "
        f"{trace.duration * 1e3:.0f} ms simulated, pool "
        f"{min(g.n_atoms for g in pool)}-{max(g.n_atoms for g in pool)} atoms, "
        f"{args.replicas} replicas, micro-batch budget {args.capacity} tokens, "
        f"max wait {args.max_wait_ms:.1f} ms"
    )
    rows = []
    for name, r in reports.items():
        lat = r.latency
        rows.append(
            (
                name,
                f"{lat.p50 * 1e3:.2f}",
                f"{lat.p95 * 1e3:.2f}",
                f"{lat.p99 * 1e3:.2f}",
                f"{r.throughput_rps:.0f}",
                f"{r.utilization_imbalance:.3f}",
                r.n_batches,
                f"{r.mean_batch_fill:.0%}",
                f"{r.slo_attainment:.1%}",
            )
        )
    print(
        format_table(
            [
                "policy",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "req/s",
                "imbalance",
                "batches",
                "fill",
                f"SLO<{args.slo_ms:.0f}ms",
            ],
            rows,
        )
    )
    return 0


def _cmd_plan_report(args: argparse.Namespace) -> int:
    from .analysis import analyze_liveness, verify_plan
    from .data import attach_labels, build_training_set
    from .graphs.batch import collate
    from .mace import MACE, MACEConfig
    from .runtime import PlanCache
    from .training import Trainer

    graphs = attach_labels(
        build_training_set(args.samples, seed=args.seed, max_atoms=args.max_atoms)
    )
    cfg = MACEConfig(
        num_channels=args.channels, lmax_sh=2, l_atomic_basis=2, correlation=2
    )
    model = MACE(cfg, seed=args.seed)
    batch = collate(graphs[: min(2, len(graphs))])

    plans = []
    if args.plan in ("train", "all"):
        trainer = Trainer(model, graphs, plan_cache=PlanCache())
        trainer._loss_step(batch)
        plans.extend(
            ("training step", p) for p in trainer.plan_cache._store.values()
        )
    if args.plan in ("forces", "all"):
        cache = PlanCache()
        model.energy_and_forces(batch, compiled=cache)
        plans.extend(("forces", p) for p in cache._store.values())
    if args.plan in ("energy", "all"):
        cache = PlanCache()
        model.predict_energy(batch, compiled=cache)
        plans.extend(("energy inference", p) for p in cache._store.values())

    for label, plan in plans:
        stats = verify_plan(plan)
        report = analyze_liveness(plan)
        print("=" * 72)
        print(
            f"{label} plan — verified: {stats['forward_ops']} forward / "
            f"{stats['backward_ops']} backward instructions, "
            f"{stats['specs_checked']} output specs checked"
        )
        print("=" * 72)
        print(report.format())
        if args.optimized:
            print(_post_optimization_report(plan, report))
        print()
    return 0


def _cmd_validate_cost_model(args: argparse.Namespace) -> int:
    from .mace import MACE, MACEConfig
    from .parallel import available_cores, make_executor
    from .serving import InferenceEngine, build_request_pool, generate_trace

    cfg = MACEConfig(
        num_channels=args.channels, lmax_sh=2, l_atomic_basis=2, correlation=2
    )
    pool = build_request_pool(args.pool, seed=args.seed, max_atoms=args.max_atoms)
    trace = generate_trace(
        pool, args.requests, rate=args.rate, process="poisson", seed=args.seed
    )

    def engine(**kw):
        return InferenceEngine(
            MACE(cfg, seed=args.seed),
            pool,
            n_replicas=args.replicas,
            max_batch_tokens=args.capacity,
            **kw,
        )

    sim = engine().serve(trace)
    with make_executor(args.backend, args.workers) as ex:
        eng = engine(executor=ex)
        rep = eng.serve(trace)
        if args.warm:
            rep = eng.serve(trace)

    print(
        f"{trace.n_requests} requests on {args.workers} {args.backend} worker(s) "
        f"({available_cores()} core(s) visible), model {args.channels} channels"
    )
    print()
    print(rep.summary())
    err = max(
        abs(a.energy - b.energy) for a, b in zip(rep.records, sim.records)
    )
    print()
    print(f"wall-clock vs simulate max |dE|     : {err:.3e}")
    scale = rep.cost_model_scale
    p90 = rep.cost_model_p90_error
    print(
        f"calibration                         : scale {scale:.2f}x, "
        f"p90 shape error {p90:.0%}"
        if scale is not None and p90 is not None
        else "calibration                         : not enough batches"
    )
    if err > 1e-12:
        print("FAIL: wall-clock numerics drifted from simulate mode")
        return 1
    return 0


def _cmd_dataset_pack(args: argparse.Namespace) -> int:
    from .data import pack_training_set

    t0 = time.time()
    ds = pack_training_set(
        args.path,
        args.samples,
        systems=args.systems,
        seed=args.seed,
        max_atoms=args.max_atoms,
        shard_size=args.shard_size,
        label=not args.unlabeled,
    )
    dt = time.time() - t0
    stats = ds.statistics
    print(
        f"packed {len(ds):,} structures into {ds.n_shards} shard(s) "
        f"({ds.nbytes / 1e6:.2f} MB payload) at {args.path} in {dt:.2f} s"
    )
    print(
        f"  {stats.total_atoms:,} atoms, {stats.total_edges:,} edges, "
        f"{stats.n_labeled:,} labeled; per-atom energy "
        f"{stats.energy_mean_per_atom:.4f} ± {stats.energy_std_per_atom:.4f}"
    )
    if args.verify:
        ds.verify()
        print("  deep verify: OK (payload checksums + statistics cross-check)")
    ds.close()
    return 0


def _cmd_dataset_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .data.store import DatasetStatistics, _read_meta, load_size_index

    meta = _read_meta(Path(args.path))
    index = load_size_index(args.path, meta=meta)
    stats = DatasetStatistics.from_dict(meta["statistics"])
    payload_bytes = sum(rec["nbytes"] for rec in meta["shards"])
    print(f"{args.path}: {meta['format']} v{meta['version']}")
    print(
        f"  {index.n_samples:,} structures in {len(meta['shards'])} shard(s), "
        f"{payload_bytes / 1e6:.2f} MB payload, shard size {meta['shard_size']}"
    )
    print(
        f"  edges {'built' if meta['edges_built'] else 'absent'} "
        f"(cutoff {meta['cutoff']}), "
        f"{stats.n_labeled:,}/{index.n_samples:,} labeled"
    )
    print(
        f"  {index.total_tokens:,} atoms, {index.total_edges:,} edges; "
        f"per-atom energy {stats.energy_mean_per_atom:.4f} "
        f"± {stats.energy_std_per_atom:.4f}"
    )
    for name, count in index.system_counts().items():
        print(f"    {name:<24s} {count:6,d}")
    if args.verify:
        from .data import ShardedDataset

        ds = ShardedDataset(args.path)
        ds.verify()
        print(f"  deep verify: OK ({ds.maps_opened} shard maps opened)")
        ds.close()
    else:
        print("  (size index only — no shard payload was read)")
    return 0


def _post_optimization_report(plan, report) -> str:
    """What the optimizing passes actually consumed on a compiled plan.

    Reports the fused-chain trail, how many of the liveness pass's legal
    donation pairs the arena planner consumed, the arena slab size, and
    the residual transients: instructions that still allocate a fresh
    array every replay (a fully planned training-step plan shows zero of
    both undonated legal pairs and fresh allocations).
    """
    from math import prod

    from .runtime.plan import _is_basic_index

    forward = plan._forward
    meta = plan.meta
    undonated = [
        d for d in report.donations if forward[d.index].donor_slot is None
    ]
    outputs = set(plan._output_slots)
    fresh_bytes = 0
    for instr in forward:
        if instr.out_buffer is not None or instr.donor_slot is not None:
            continue
        name = type(instr.fn).__name__
        if name in ("Reshape", "Transpose", "_FusedElementwise") or (
            name == "GetItem" and _is_basic_index(instr.kwargs["key"])
        ):
            continue  # views and fused-chain scratch allocate nothing
        if instr.out_slot in outputs:
            continue  # plan outputs are handed to the caller by design
        fresh_bytes += (
            prod(meta.slot_shapes[instr.out_slot])
            * meta.slot_dtypes[instr.out_slot].itemsize
        )
    lines = [
        "-" * 72,
        "post-optimization",
        f"  fused chains            : {len(meta.fused)} "
        f"({plan.n_fused_away} instructions eliminated)",
        f"  donated pairs consumed  : {plan.n_donated} of "
        f"{len(report.donations)} legal ({len(undonated)} left undonated)",
        f"  arena slab              : {plan._arena_nbytes} bytes "
        f"backing {len(plan._arena_layout)} output buffers, then "
        f"{plan._slab_nbytes - plan._arena_nbytes} bytes of fused-chain scratch",
        f"  residual transients     : {plan.n_alloc_instrs} fresh-allocating "
        f"instructions, {fresh_bytes} bytes per replay (outputs excluded)",
    ]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the HPDC 2025 MACE training-optimization paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    p_exp.add_argument("names", nargs="*", help=f"subset of {_EXPERIMENTS}")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_pack = sub.add_parser("pack", help="run the load balancer")
    p_pack.add_argument("--scale", type=float, default=0.01)
    p_pack.add_argument("--capacity", type=int, default=3072)
    p_pack.add_argument("--gpus", type=int, default=64)
    p_pack.add_argument("--seed", type=int, default=0)
    p_pack.set_defaults(fn=_cmd_pack)

    p_sim = sub.add_parser("simulate", help="strong-scaling simulation")
    p_sim.add_argument("--scale", type=float, default=0.01)
    p_sim.add_argument("--gpus", type=int, nargs="+", default=[16, 64, 256, 740])
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_train = sub.add_parser("train", help="train a small MACE")
    p_train.add_argument("--samples", type=int, default=16)
    p_train.add_argument("--epochs", type=int, default=8)
    p_train.add_argument("--channels", type=int, default=8)
    p_train.add_argument("--capacity", type=int, default=128)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--output", type=str, default=None)
    p_train.set_defaults(fn=_cmd_train)

    p_serve = sub.add_parser(
        "serve-bench",
        help="compare serving schedulers on a synthetic inference trace",
        description=(
            "Serve a synthetic single-molecule inference trace through the "
            "batched engine (repro.serving) and compare scheduling policies. "
            "Timing is simulated with the paper's analytical cost model, so "
            "runs are deterministic for a given seed; --execute additionally "
            "runs the real NumPy forward per micro-batch."
        ),
    )
    p_serve.add_argument(
        "--requests", type=int, default=400, help="trace length (default 400)"
    )
    p_serve.add_argument(
        "--rate", type=float, default=3000.0, help="mean arrival rate, req/s"
    )
    p_serve.add_argument(
        "--process",
        choices=["poisson", "bursty", "diurnal"],
        default="bursty",
        help="arrival process (default bursty)",
    )
    p_serve.add_argument(
        "--replicas", type=int, default=4, help="simulated replica count"
    )
    p_serve.add_argument(
        "--capacity",
        type=int,
        default=384,
        help="micro-batch token budget (default 384)",
    )
    p_serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=10.0,
        help="admission deadline in milliseconds (default 10)",
    )
    p_serve.add_argument(
        "--slo-ms",
        type=float,
        default=100.0,
        help="latency SLO for the attainment column (default 100 ms)",
    )
    p_serve.add_argument(
        "--pool", type=int, default=24, help="molecule pool size (default 24)"
    )
    p_serve.add_argument(
        "--max-atoms", type=int, default=72, help="largest pool molecule"
    )
    p_serve.add_argument(
        "--channels", type=int, default=8, help="served model channel count"
    )
    p_serve.add_argument(
        "--saturation",
        type=int,
        default=64,
        help="GPU saturation tokens for forward-only serving (default 64)",
    )
    p_serve.add_argument(
        "--policies",
        nargs="+",
        default=["round-robin", "least-loaded", "cost-aware"],
        help="schedulers to compare",
    )
    p_serve.add_argument(
        "--execute",
        action="store_true",
        help="run the real NumPy forward per micro-batch (slower)",
    )
    p_serve.add_argument(
        "--slow-replicas",
        type=int,
        default=0,
        help="make this many replicas half-speed (heterogeneous pool demo)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.set_defaults(fn=_cmd_serve_bench)

    p_plan = sub.add_parser(
        "plan-report",
        help="verify compiled plans and print the liveness/donation report",
        description=(
            "Capture compiled plans on a synthetic batch, run the static "
            "verifier (repro.analysis) and print buffer liveness, alias "
            "classes, the peak-memory estimate and legal donation pairs."
        ),
    )
    p_plan.add_argument(
        "--plan",
        choices=["train", "forces", "energy", "all"],
        default="all",
        help="which plan(s) to capture and analyze (default all)",
    )
    p_plan.add_argument(
        "--optimized",
        action="store_true",
        help=(
            "append the post-optimization report: fused-instruction "
            "count, donated pairs consumed, arena slab size and the "
            "residual per-replay allocations"
        ),
    )
    p_plan.add_argument("--samples", type=int, default=4)
    p_plan.add_argument("--channels", type=int, default=4)
    p_plan.add_argument("--max-atoms", type=int, default=40)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.set_defaults(fn=_cmd_plan_report)

    p_val = sub.add_parser(
        "validate-cost-model",
        help="serve a trace on real workers and calibrate the cost model",
        description=(
            "Serve the same synthetic trace twice: once with simulated "
            "timing (the analytical cost model) and once in wall-clock "
            "mode on a repro.parallel worker pool.  Prints the measured "
            "report plus the calibration numbers — the global scale "
            "factor between predicted and measured batch seconds and the "
            "p90 shape error after dividing that scale out.  Exits "
            "nonzero if the wall-clock energies drift from simulate mode."
        ),
    )
    p_val.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="process",
        help="worker pool backend (default process)",
    )
    p_val.add_argument(
        "--workers", type=int, default=2, help="pool size (default 2)"
    )
    p_val.add_argument(
        "--requests", type=int, default=60, help="trace length (default 60)"
    )
    p_val.add_argument(
        "--rate", type=float, default=400.0, help="mean arrival rate, req/s"
    )
    p_val.add_argument(
        "--replicas", type=int, default=2, help="virtual replica count"
    )
    p_val.add_argument(
        "--capacity",
        type=int,
        default=128,
        help="micro-batch token budget (default 128)",
    )
    p_val.add_argument(
        "--pool", type=int, default=8, help="molecule pool size (default 8)"
    )
    p_val.add_argument(
        "--max-atoms", type=int, default=40, help="largest pool molecule"
    )
    p_val.add_argument(
        "--channels", type=int, default=8, help="served model channel count"
    )
    p_val.add_argument(
        "--no-warm",
        dest="warm",
        action="store_false",
        help="report the cold serve (includes plan capture) instead of a warmed one",
    )
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(fn=_cmd_validate_cost_model)

    p_dpack = sub.add_parser(
        "dataset-pack",
        help="pack a synthetic training set into the sharded on-disk format",
        description=(
            "Generate a synthetic training corpus, attach reference labels "
            "through the vectorized batch path, and pack it into a sharded "
            "mmap dataset directory (repro.data.store).  Welford statistics "
            "accumulate during the single pack pass."
        ),
    )
    p_dpack.add_argument("path", help="output dataset directory")
    p_dpack.add_argument("--samples", type=int, default=64)
    p_dpack.add_argument(
        "--systems", nargs="+", default=None, help="composite system subset"
    )
    p_dpack.add_argument(
        "--shard-size", type=int, default=64, help="structures per shard"
    )
    p_dpack.add_argument("--max-atoms", type=int, default=64)
    p_dpack.add_argument(
        "--unlabeled", action="store_true", help="skip reference labeling"
    )
    p_dpack.add_argument(
        "--verify", action="store_true", help="run the deep check after packing"
    )
    p_dpack.add_argument("--seed", type=int, default=0)
    p_dpack.set_defaults(fn=_cmd_dataset_pack)

    p_drep = sub.add_parser(
        "dataset-report",
        help="describe a packed dataset from its size index alone",
        description=(
            "Print a packed dataset's composition, shard layout and "
            "pack-time statistics reading only index.json and sizes.npz — "
            "the same payload-free view epoch planning uses.  --verify "
            "additionally maps every shard and checks full payload "
            "checksums against the index."
        ),
    )
    p_drep.add_argument("path", help="dataset directory")
    p_drep.add_argument(
        "--verify",
        action="store_true",
        help="deep check: payload checksums + statistics cross-check",
    )
    p_drep.set_defaults(fn=_cmd_dataset_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
