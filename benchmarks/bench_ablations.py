"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Packer choice** — Algorithm 1 vs first-fit-decreasing,
   best-fit-decreasing, and LPT scheduling on the *joint* objective
   (balance AND padding AND bin count), the comparison §3.2 argues.
2. **Size metric** — vertex count vs edge count vs a blend (§3.2.1 notes
   the metric is pluggable).
3. **Bin capacity sweep** — epoch time around the 3072-token operating
   point (§5.5's trade-off).
4. **Kernel-optimization decomposition** — CG sparsity and fusion toggled
   independently in the cost model.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import A100, PAPER_MODEL, simulate_epoch
from repro.data import build_spec
from repro.distribution import (
    best_fit_decreasing,
    create_balanced_batches,
    evaluate_bins,
    first_fit_decreasing,
    lpt_schedule,
)
from repro.experiments.common import balanced_workloads, format_table


@pytest.fixture(scope="module")
def spec():
    return build_spec(0.05, seed=0)


def test_packer_comparison(benchmark, spec):
    """Algorithm 1 dominates classical heuristics on the joint objective."""
    sizes = spec.n_atoms

    def run_all():
        return {
            "Algorithm 1": create_balanced_batches(sizes, 3072, 64),
            "FFD": first_fit_decreasing(sizes, 3072),
            "BFD": best_fit_decreasing(sizes, 3072),
            "LPT (64 bins)": lpt_schedule(sizes, 64),
        }

    packings = benchmark.pedantic(run_all, rounds=1)
    rows = []
    metrics = {}
    for name, bins in packings.items():
        m = evaluate_bins(bins, sizes)
        metrics[name] = m
        rows.append(
            (
                name,
                m.num_bins,
                f"{m.padding_fraction:.3f}",
                f"{m.load_cv:.4f}",
                f"{m.straggler_ratio:.3f}",
            )
        )
    print(
        "\n[ablation: packers]\n"
        + format_table(["Packer", "Bins", "Padding", "Load CV", "Straggler"], rows)
    )
    alg1 = metrics["Algorithm 1"]
    # Better balanced than both classical bin packers...
    assert alg1.load_cv < metrics["FFD"].load_cv
    assert alg1.load_cv < metrics["BFD"].load_cv
    # ...with near-optimal bin count (within a rounding margin).
    assert alg1.num_bins <= metrics["BFD"].num_bins + 2 * 64
    # LPT balances perfectly but needs giant bins (equal to an epoch/GPU):
    assert metrics["LPT (64 bins)"].num_bins == 64


def test_size_metric_choice(benchmark, spec):
    """§3.2.1: balancing edge counts also balances edges (compute proxy)."""
    from repro.distribution import BalancedDistributedSampler

    def pack(metric):
        sampler = BalancedDistributedSampler(
            spec.n_atoms,
            capacity=3072 if metric == "atoms" else int(spec.n_edges.max()) * 4,
            num_replicas=8,
            shuffle=False,
            size_metric=None if metric == "atoms" else lambda s: spec.n_edges + 1,
        )
        edge_loads = sampler.plan_epoch(0).sums(spec.n_edges).astype(float)
        return float(edge_loads.std() / edge_loads.mean())

    atom_cv = pack("atoms")
    edge_cv = benchmark.pedantic(pack, args=("edges",), rounds=1)
    print(
        f"\n[ablation: size metric] edge-load CV balancing by atoms: {atom_cv:.3f}, "
        f"by edges: {edge_cv:.3f}"
    )
    assert edge_cv < atom_cv + 0.02  # balancing edges can't hurt edge balance


@pytest.mark.parametrize("capacity", [1024, 2048, 3072, 6144])
def test_capacity_sweep(benchmark, spec, capacity):
    """Epoch time vs bin capacity: small bins waste steps under-saturated,
    huge bins cost memory — 3072 sits in the flat optimum (§5.5)."""

    def run():
        work = balanced_workloads(spec, 64, capacity=capacity)
        return simulate_epoch(work.tokens, work.edges, 64).epoch_time

    t = benchmark.pedantic(run, rounds=1)
    mem = PAPER_MODEL.memory_per_batch(
        np.array([float(capacity)]), np.array([capacity * 25.0])
    )[0]
    print(
        f"\n[ablation: capacity {capacity}] epoch {t/60:.2f} min, "
        f"batch memory {mem/1e9:.1f} GB (ceiling {A100.memory_bytes/1e9:.0f} GB)"
    )


def test_kernel_toggle_decomposition(benchmark):
    """Decompose the kernel speedup: launches (fusion) vs FLOPs (sparsity)."""
    tokens = np.full(200, 3072.0)
    edges = tokens * 25

    def times():
        out = {}
        for variant in ("baseline", "optimized"):
            launches, flops, bytes_ = PAPER_MODEL.step_workload(
                tokens, edges, variant
            )
            out[variant] = dict(
                launches=float(launches[0]),
                flops=float(flops[0]),
                bytes=float(bytes_[0]),
                time=float(
                    PAPER_MODEL.step_times(A100, tokens, edges, variant)[0]
                ),
            )
        return out

    res = benchmark.pedantic(times, rounds=1)
    b, o = res["baseline"], res["optimized"]
    print(
        f"\n[ablation: kernel decomposition] launches {b['launches']:.0f} -> "
        f"{o['launches']:.0f}, flops {b['flops']/1e9:.1f}G -> {o['flops']/1e9:.1f}G, "
        f"bytes {b['bytes']/1e9:.2f}G -> {o['bytes']/1e9:.2f}G, "
        f"time ratio {b['time']/o['time']:.2f}x"
    )
    assert b["launches"] > 5 * o["launches"]
    assert b["flops"] > 1.5 * o["flops"]


def test_randomized_sampler_tradeoff(benchmark, spec):
    """§7 future work: sharded balanced packing restores epoch-to-epoch
    randomness; measure what it costs in balance/padding vs shard size."""
    from repro.distribution import RandomizedBalancedSampler

    def sweep():
        out = {}
        for shard in (1024, 4096, 16384):
            sampler = RandomizedBalancedSampler(
                spec.n_atoms, 3072, 8, shard_size=shard, seed=0
            )
            bins = sampler.plan_epoch(0)
            m = evaluate_bins(bins, spec.n_atoms)
            out[shard] = (m.straggler_ratio, m.padding_fraction)
        return out

    res = benchmark.pedantic(sweep, rounds=1)
    rows = [
        (shard, f"{sr:.4f}", f"{pf:.3f}") for shard, (sr, pf) in res.items()
    ]
    print(
        "\n[ablation: randomized sampler]\n"
        + format_table(["Shard size", "Straggler", "Padding"], rows)
    )
    # Bigger shards -> closer to the deterministic optimum.
    stragglers = [res[s][0] for s in (1024, 4096, 16384)]
    assert stragglers[-1] <= stragglers[0] + 1e-9
    assert all(s < 1.25 for s in stragglers)


def test_failure_injection(benchmark, spec):
    """Heterogeneity ablation: a throttled GPU paces synchronous training
    regardless of batching strategy — but balanced batching keeps the
    *relative* penalty exactly at the slowdown factor, while fixed-count
    batching hides part of it inside existing straggler waste."""
    from repro.experiments.common import fixed_count_workloads

    balanced = balanced_workloads(spec, 8)
    fixed = fixed_count_workloads(spec)

    def run():
        speed = np.ones(8)
        speed[3] = 0.6  # one GPU at 60% clock
        out = {}
        for name, work in (("balanced", balanced), ("fixed", fixed)):
            nominal = simulate_epoch(work.tokens, work.edges, 8).epoch_time
            slowed = simulate_epoch(
                work.tokens, work.edges, 8, rank_speed=speed
            ).epoch_time
            out[name] = slowed / nominal
        return out

    penalties = benchmark.pedantic(run, rounds=1)
    print(
        f"\n[ablation: failure injection] slowdown penalty with one GPU at 60%:"
        f" balanced {penalties['balanced']:.2f}x, fixed-count"
        f" {penalties['fixed']:.2f}x (ideal async would be 1.05x)"
    )
    assert penalties["balanced"] == pytest.approx(1.0 / 0.6, rel=0.05)
    assert penalties["fixed"] < penalties["balanced"]
