"""Pluggable micro-batch formation and replica-routing policies.

Every flush of the engine's admission window hands the scheduler the
pending requests; the scheduler returns micro-batches (each within the
engine's token/edge budgets) and a target replica per batch.  Three
policies reproduce the paper's comparison in the serving regime:

* ``round-robin`` — FIFO batching, cyclic placement.  The serving
  analogue of fixed-count batching: ignores both request cost and
  replica state.
* ``least-loaded`` — FIFO batching, place each batch on the replica
  that frees up first (join-the-shortest-queue on predicted
  availability).
* ``cost-aware`` — the paper's Algorithm 1 applied online: the pending
  window is bin-packed into cost-balanced micro-batches with
  :func:`repro.distribution.create_balanced_batches`, then placed
  longest-processing-time-first onto the replica with the earliest
  predicted finish, using the same analytical cost model the replicas
  are timed with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Type

from ..distribution.binpack import create_balanced_batches
from .replica import Replica
from .trace import TraceRequest

if TYPE_CHECKING:  # pragma: no cover
    from .engine import InferenceEngine

__all__ = [
    "Scheduler",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "CostAwareScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "fifo_microbatches",
]

# One planned dispatch: the requests of one micro-batch and the replica index.
Assignment = Tuple[List[TraceRequest], int]


def fifo_microbatches(
    pending: Sequence[TraceRequest],
    max_tokens: int,
    max_edges: Optional[int] = None,
) -> List[List[TraceRequest]]:
    """Split requests into arrival-ordered micro-batches under the budgets.

    This is the baseline batcher: walk the queue in order, close a batch
    when the next request would overflow the token (or edge) budget.
    """
    batches: List[List[TraceRequest]] = []
    current: List[TraceRequest] = []
    tokens = edges = 0
    for r in pending:
        over_tokens = current and tokens + r.tokens > max_tokens
        over_edges = (
            current and max_edges is not None and edges + r.edges > max_edges
        )
        if over_tokens or over_edges:
            batches.append(current)
            current, tokens, edges = [], 0, 0
        current.append(r)
        tokens += r.tokens
        edges += r.edges
    if current:
        batches.append(current)
    return batches


class Scheduler:
    """Base policy interface.

    Subclasses implement :meth:`plan`; :meth:`reset` clears any
    cross-flush state (cursors) at the start of a serve.
    """

    name = "base"

    def reset(self) -> None:
        pass

    def plan(
        self,
        pending: Sequence[TraceRequest],
        now: float,
        replicas: Sequence[Replica],
        engine: "InferenceEngine",
    ) -> List[Assignment]:
        raise NotImplementedError


class RoundRobinScheduler(Scheduler):
    """FIFO batching, cyclic replica placement (cost- and load-blind)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def plan(self, pending, now, replicas, engine) -> List[Assignment]:
        out: List[Assignment] = []
        for batch in fifo_microbatches(
            pending, engine.max_batch_tokens, engine.max_batch_edges
        ):
            out.append((batch, self._cursor % len(replicas)))
            self._cursor += 1
        return out


class LeastLoadedScheduler(Scheduler):
    """FIFO batching, place on the replica that frees up first.

    Placement projects each assignment's service time (same cost model as
    execution) so consecutive batches in one flush spread instead of all
    picking the momentarily-idlest replica.
    """

    name = "least-loaded"

    def plan(self, pending, now, replicas, engine) -> List[Assignment]:
        projected = [max(now, rep.free_at) for rep in replicas]
        out: List[Assignment] = []
        for batch in fifo_microbatches(
            pending, engine.max_batch_tokens, engine.max_batch_edges
        ):
            j = min(range(len(replicas)), key=lambda k: (projected[k], k))
            out.append((batch, j))
            # Per-replica estimate: a heterogeneous pool's slow device
            # fills up in projection as fast as it would in reality.
            projected[j] += engine.estimate_service(
                sum(r.tokens for r in batch), sum(r.edges for r in batch), replica=j
            )
        return out


class CostAwareScheduler(Scheduler):
    """Algorithm 1 online: balanced bin-packing + cost-model placement.

    The flush window is packed into the *minimum* number of micro-batches
    with balanced token fills (the paper's multi-objective packer,
    §3.1.1, run with ``num_gpus=1`` — rounding the bin count up to the
    replica count would fragment the window into small batches, and the
    §5.5 sub-saturation flattening makes a small batch cost almost as
    much as a full one, so the serving regime wants few, full bins).
    Batches are then placed longest-first on the replica with the
    earliest predicted finish, costing each batch with the identical
    roofline the replicas are timed with.  Both tails benefit: fuller
    balanced batches minimize total device time, cost-model placement
    removes queueing behind a busy replica while a peer idles.
    """

    name = "cost-aware"

    def plan(self, pending, now, replicas, engine) -> List[Assignment]:
        pending = list(pending)
        bins = create_balanced_batches(
            [r.tokens for r in pending],
            capacity=engine.max_batch_tokens,
            num_gpus=1,
        )
        batches: List[List[TraceRequest]] = []
        for items in bins:
            if not items.size:
                continue
            members = [pending[i] for i in items.tolist()]
            if (
                engine.max_batch_edges is not None
                and sum(r.edges for r in members) > engine.max_batch_edges
            ):
                # The packer balances tokens only; respect the edge budget
                # by splitting the offending bin FIFO-style.
                batches.extend(
                    fifo_microbatches(
                        members, engine.max_batch_tokens, engine.max_batch_edges
                    )
                )
            else:
                batches.append(members)
        # Per-replica estimates: a heterogeneous pool serves the same
        # batch at different speeds, and placement must predict each
        # device's own finish time (the cost model already costs per
        # GPUSpec; homogeneous pools reduce to the old single estimate).
        n = len(replicas)
        costed = []
        for batch in batches:
            tokens = sum(r.tokens for r in batch)
            edges = sum(r.edges for r in batch)
            costed.append(
                ([engine.estimate_service(tokens, edges, replica=k) for k in range(n)], batch)
            )
        # LPT: biggest batches placed first keep the projected finish flat.
        costed.sort(key=lambda item: -max(item[0]))
        projected = [max(now, rep.free_at) for rep in replicas]
        busy = [rep.busy_seconds for rep in replicas]
        out: List[Assignment] = []
        for ests, batch in costed:
            # Earliest predicted *finish* on each device's own estimate;
            # ties (idle pool, equal specs) go to the replica with the
            # least cumulative work, so long-run busy seconds stay
            # balanced even when the queue drains.
            j = min(range(n), key=lambda k: (projected[k] + ests[k], busy[k], k))
            out.append((batch, j))
            projected[j] += ests[j]
            busy[j] += ests[j]
        return out


SCHEDULERS: Dict[str, Type[Scheduler]] = {
    cls.name: cls
    for cls in (RoundRobinScheduler, LeastLoadedScheduler, CostAwareScheduler)
}


def make_scheduler(policy) -> Scheduler:
    """Resolve a policy name (or pass through a Scheduler instance)."""
    if isinstance(policy, Scheduler):
        return policy
    if policy not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; choose from {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[policy]()
