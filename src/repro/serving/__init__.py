"""Model serving: the paper's cost model applied to inference traffic.

The training-side contribution — balance heterogeneous per-sample cost
across devices with an analytical workload model — is re-used here in
the regime the ROADMAP's north star actually names: serving molecule
energy requests whose cost spans orders of magnitude.  The pieces:

* :mod:`~repro.serving.trace` — synthetic request traces (Poisson /
  bursty / diurnal arrivals over mixed molecule-size pools);
* :mod:`~repro.serving.engine` — :class:`InferenceEngine`: dynamic
  micro-batching under token/edge budgets and a max-wait deadline,
  dispatching onto simulated replicas; real NumPy forwards supply the
  numerics, the :class:`~repro.cluster.workload.MACEWorkloadModel`
  roofline supplies the clock;
* :mod:`~repro.serving.scheduler` — round-robin / least-loaded baselines
  vs. the cost-aware packer built on :mod:`repro.distribution.binpack`;
* :mod:`~repro.serving.registry` — versioned checkpoints with atomic
  publish and warm hot-swap loads;
* :mod:`~repro.serving.metrics` — p50/p95/p99 latency, throughput,
  queue depth, per-replica utilization imbalance, SLO attainment.

``python -m repro serve-bench`` runs the scheduler comparison end to end;
``tests/test_serving.py`` asserts its orderings.
"""

from .engine import InferenceEngine, compare_policies
from .metrics import LatencyStats, RequestRecord, ServingReport
from .registry import ModelRegistry
from .replica import Replica, ServiceModel
from .scheduler import (
    SCHEDULERS,
    CostAwareScheduler,
    LeastLoadedScheduler,
    RoundRobinScheduler,
    Scheduler,
    make_scheduler,
)
from .trace import (
    ARRIVAL_PROCESSES,
    TraceRequest,
    WorkloadTrace,
    build_request_pool,
    generate_trace,
)

__all__ = [
    "InferenceEngine",
    "compare_policies",
    "LatencyStats",
    "RequestRecord",
    "ServingReport",
    "ModelRegistry",
    "Replica",
    "ServiceModel",
    "Scheduler",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "CostAwareScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "ARRIVAL_PROCESSES",
    "TraceRequest",
    "WorkloadTrace",
    "build_request_pool",
    "generate_trace",
]
