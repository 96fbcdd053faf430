"""Synthetic inference-workload traces.

A molecule-inference service faces exactly the heterogeneity the paper's
load balancer targets at training time: per-request cost varies by orders
of magnitude with atom and edge count (Table 3's vertex ranges span 3 to
~10k), so a trace is a *joint* draw of an arrival process and a mixed
molecule-size population.  This module generates both:

* a **request pool** of materialized molecular graphs (with neighbor
  lists) drawn from the paper's synthetic chemical systems — the
  population requests sample from;
* an **arrival process** over that pool: ``poisson`` (memoryless steady
  traffic), ``bursty`` (Markov-modulated on/off phases, the hardest case
  for a fixed batching window) or ``diurnal`` (a slow sinusoidal rate
  swing, compressed to seconds so benchmarks stay fast).

Traces are deterministic given a seed, which is what lets the scheduler
comparison in ``tests/test_serving.py`` assert strict orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..data import build_training_set
from ..graphs.molecular_graph import MolecularGraph

__all__ = [
    "TraceRequest",
    "WorkloadTrace",
    "ARRIVAL_PROCESSES",
    "build_request_pool",
    "generate_trace",
]

ARRIVAL_PROCESSES = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class TraceRequest:
    """One single-molecule inference request.

    Attributes
    ----------
    req_id:
        Position in the trace (unique).
    graph_id:
        Index into the request pool of :class:`MolecularGraph` objects.
    arrival:
        Arrival time in seconds from trace start.
    tokens, edges:
        Atom and edge counts of the referenced graph — duplicated here so
        schedulers can cost a request without touching the pool.
    """

    req_id: int
    graph_id: int
    arrival: float
    tokens: int
    edges: int


@dataclass
class WorkloadTrace:
    """An arrival-ordered request sequence over a graph pool."""

    requests: List[TraceRequest]
    process: str

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def duration(self) -> float:
        """Seconds from trace start to the last arrival."""
        return self.requests[-1].arrival if self.requests else 0.0

    @property
    def total_tokens(self) -> int:
        return sum(r.tokens for r in self.requests)

    def arrival_array(self) -> np.ndarray:
        return np.array([r.arrival for r in self.requests])


def build_request_pool(
    n_graphs: int = 24,
    systems: Optional[Sequence[str]] = None,
    seed: int = 0,
    max_atoms: int = 72,
    cutoff: float = 4.5,
) -> List[MolecularGraph]:
    """Materialize a heterogeneous molecule population with neighbor lists.

    Round-robins over the paper's synthetic systems (water clusters,
    MPtrj, TMD, HEA by default) so the pool spans the size spread that
    makes request cost heterogeneous.  Labels are not attached — serving
    predicts, it does not train.
    """
    return build_training_set(
        n_graphs, systems=systems, seed=seed, cutoff=cutoff, max_atoms=max_atoms
    )


def _poisson_arrivals(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate, n))


def _bursty_arrivals(
    rng: np.random.Generator,
    n: int,
    rate: float,
    burst_factor: float = 6.0,
    mean_burst: int = 12,
) -> np.ndarray:
    """Markov-modulated arrivals: bursts at ``burst_factor * rate``
    separated by quiet gaps sized to preserve the long-run mean rate."""
    if burst_factor <= 1.0:
        raise ValueError("burst_factor must exceed 1")
    arrivals = np.empty(n)
    t = 0.0
    i = 0
    # Time saved inside a burst relative to the mean-rate process is spent
    # in the gap, so the long-run rate stays ~rate.
    gap_mean = mean_burst * (1.0 - 1.0 / burst_factor) / rate
    while i < n:
        burst = min(int(rng.geometric(1.0 / mean_burst)), n - i)
        for _ in range(burst):
            t += rng.exponential(1.0 / (rate * burst_factor))
            arrivals[i] = t
            i += 1
        t += rng.exponential(gap_mean)
    return arrivals


def _diurnal_arrivals(
    rng: np.random.Generator,
    n: int,
    rate: float,
    period: float = 10.0,
    depth: float = 0.8,
) -> np.ndarray:
    """Inhomogeneous Poisson with rate ``rate * (1 + depth sin(2πt/T))``
    via thinning — a day/night swing compressed to ``period`` seconds."""
    if not 0.0 <= depth < 1.0:
        raise ValueError("depth must be in [0, 1)")
    peak = rate * (1.0 + depth)
    arrivals = np.empty(n)
    t = 0.0
    i = 0
    while i < n:
        t += rng.exponential(1.0 / peak)
        lam = rate * (1.0 + depth * np.sin(2.0 * np.pi * t / period))
        if rng.uniform() * peak <= lam:
            arrivals[i] = t
            i += 1
    return arrivals


def generate_trace(
    pool: Sequence[MolecularGraph],
    n_requests: int,
    rate: float,
    process: str = "poisson",
    seed: int = 0,
    weights: Optional[Sequence[float]] = None,
) -> WorkloadTrace:
    """Draw a deterministic request trace over ``pool``.

    Parameters
    ----------
    pool:
        Graphs (with neighbor lists) requests refer to by index.
    n_requests:
        Trace length.
    rate:
        Mean arrival rate in requests/second.
    process:
        One of :data:`ARRIVAL_PROCESSES`.
    seed:
        RNG seed; the same seed yields the same trace.
    weights:
        Optional per-graph sampling probabilities (default uniform) —
        skew these to model hot molecules that make the
        :class:`~repro.graphs.CollateCache` earn its keep.
    """
    if not pool:
        raise ValueError("request pool is empty")
    if n_requests <= 0:
        raise ValueError("n_requests must be positive")
    if rate <= 0:
        raise ValueError("rate must be positive")
    for g_id, g in enumerate(pool):
        if not g.has_edges:
            raise ValueError(
                f"pool graph {g_id} has no neighbor list; "
                "build it (or use build_request_pool)"
            )
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {process!r}; choose from {ARRIVAL_PROCESSES}"
        )
    rng = np.random.default_rng(seed)
    if process == "poisson":
        arrivals = _poisson_arrivals(rng, n_requests, rate)
    elif process == "bursty":
        arrivals = _bursty_arrivals(rng, n_requests, rate)
    else:
        arrivals = _diurnal_arrivals(rng, n_requests, rate)
    p = None
    if weights is not None:
        p = np.asarray(weights, dtype=np.float64)
        if p.shape != (len(pool),) or np.any(p < 0) or p.sum() <= 0:
            raise ValueError("weights must be non-negative, one per pool graph")
        p = p / p.sum()
    graph_ids = rng.choice(len(pool), size=n_requests, p=p)
    requests = [
        TraceRequest(
            req_id=i,
            graph_id=int(g_id),
            arrival=float(t),
            tokens=pool[g_id].n_atoms,
            edges=pool[g_id].n_edges,
        )
        for i, (g_id, t) in enumerate(zip(graph_ids, arrivals))
    ]
    return WorkloadTrace(requests=requests, process=process)
