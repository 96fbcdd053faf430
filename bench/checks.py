"""Output checks behind the failed/attempted counts, run on every invocation.

Each check returns ``(attempted, failed)`` in the workload's own
operations: planned samples, train steps, requests, MD steps.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Sequence, Tuple

import numpy as np

ENERGY_TOL = 1e-10
DRIFT_TOL_PER_ATOM = 1e-6


def check_plan(rank_bins, sizes: np.ndarray, capacity: int) -> Tuple[int, int]:
    """Every sample in exactly one bin and no multi-sample bin over capacity.

    ``rank_bins`` is ``all_rank_bins`` output.  A sample fails when it is
    unplaced, placed more than once, or sits in an over-capacity bin.
    """
    n = int(sizes.size)
    bins = [items for rank in rank_bins for items, _ in rank]
    lengths = np.fromiter((len(b) for b in bins), dtype=np.int64, count=len(bins))
    flat = np.fromiter(
        itertools.chain.from_iterable(bins), dtype=np.int64, count=int(lengths.sum())
    )
    in_range = (flat >= 0) & (flat < n)
    counts = np.bincount(flat[in_range], minlength=n)
    bad = counts != 1
    fills = np.zeros(len(bins), dtype=np.int64)
    bin_of = np.repeat(np.arange(len(bins)), lengths)
    np.add.at(fills, bin_of[in_range], sizes[flat[in_range]])
    over = (fills > capacity) & (lengths > 1)
    bad[flat[in_range & over[bin_of]]] = True
    return n, int(bad.sum()) + int((~in_range).sum())


def check_train(
    first_epoch_losses: Sequence[float], losses: Sequence[float]
) -> Tuple[int, int]:
    """A round's losses are finite and their mean is below the first warm-up epoch's.

    A round with a non-finite loss, or one that did not learn, fails all its steps.
    """
    ok = all(math.isfinite(x) for x in losses) and np.mean(losses) < np.mean(
        first_epoch_losses
    )
    return len(losses), 0 if ok else len(losses)


def check_serve(records, n_requests: int, references: Dict[int, float]) -> Tuple[int, int]:
    """Every request has a finite-energy record; sampled ones match unbatched.

    ``references`` maps a request id to the energy of an unbatched
    ``model.predict_energy(collate([graph]))``.
    """
    energy = {}
    for rec in records:
        if rec.energy is not None and math.isfinite(rec.energy):
            energy[rec.req_id] = rec.energy
    failed = sum(1 for i in range(n_requests) if i not in energy)
    for req_id, ref in references.items():
        got = energy.get(req_id)
        if got is not None and abs(got - ref) > ENERGY_TOL * max(1.0, abs(ref)):
            failed += 1
    return n_requests, failed


def check_md(steps: int, forces: np.ndarray, drift_per_atom: float) -> Tuple[int, int]:
    """Finite forces and ``|energy drift| / atom`` under 1e-6 after a round.

    A round that ends with bad forces or drift fails all its steps.
    """
    ok = np.isfinite(forces).all() and abs(drift_per_atom) < DRIFT_TOL_PER_ATOM
    return steps, 0 if ok else steps
