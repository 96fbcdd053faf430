"""Deep dive into the load balancer: Algorithm 1 vs the alternatives.

Compares four ways of packing one epoch of heterogeneous molecular graphs
into mini-batches — the paper's iterative multi-objective algorithm,
first-fit-decreasing, best-fit-decreasing, and naive fixed-graph-count
batching — on the three objectives of §3.1.1 (bin count, padding,
balance), then shows what the imbalance *costs* in simulated epoch time.

Run:  python examples/load_balancing_deep_dive.py
"""

import numpy as np

from repro.cluster import simulate_epoch
from repro.data import build_spec
from repro.distribution import (
    best_fit_decreasing,
    create_balanced_batches,
    evaluate_bins,
    first_fit_decreasing,
    fixed_count_batches,
    per_gpu_loads,
)
from repro.experiments.common import format_table

NUM_GPUS = 8
CAPACITY = 3072

spec = build_spec(0.01, seed=0)  # ~26k samples with the paper's composition
sizes = spec.n_atoms
print(f"dataset slice: {sizes.size:,} graphs, sizes {sizes.min()}-{sizes.max()} atoms\n")

packings = {
    "Algorithm 1 (paper)": create_balanced_batches(sizes, CAPACITY, NUM_GPUS),
    "First-fit decreasing": first_fit_decreasing(sizes, CAPACITY),
    "Best-fit decreasing": best_fit_decreasing(sizes, CAPACITY),
    "Fixed count (PyG default)": fixed_count_batches(
        sizes, 7, rng=np.random.default_rng(1)
    ),
}

rows = []
for name, bins in packings.items():
    m = evaluate_bins(bins, sizes)
    # What the packing costs: simulate one epoch on 8 GPUs.
    tokens = bins.used.astype(float)
    edges = bins.sums(spec.n_edges).astype(float)
    epoch_min = simulate_epoch(tokens, edges, NUM_GPUS).epoch_time / 60.0
    rows.append(
        (
            name,
            m.num_bins,
            f"{m.padding_fraction:.1%}",
            f"{m.load_cv:.4f}",
            f"{m.straggler_ratio:.3f}",
            f"{epoch_min:.1f}",
        )
    )

print(
    format_table(
        ["Strategy", "Bins", "Padding", "Load CV", "Straggler", "Epoch (min, 8 GPUs)"],
        rows,
    )
)

# Per-GPU token loads for the first step of each strategy (Figure 12's view).
print("\nper-GPU tokens, first 8 bins (one DDP step):")
for name, bins in packings.items():
    loads = bins.used[:NUM_GPUS].tolist()
    print(f"  {name:28s} {loads}")

print(
    "\nTakeaway: classical bin packers minimize waste but leave the *last*"
    "\nbins ragged, and fixed-count batching leaves every step ragged;"
    "\nAlgorithm 1 spends ~1% padding to make all bins (hence all GPUs)"
    "\ninterchangeable — which is what the epoch time responds to."
)
