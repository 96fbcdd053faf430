"""Serving-side quality metrics: latency percentiles, throughput, balance.

The serving analogue of :mod:`repro.distribution.metrics`: where training
cares about per-epoch straggler factors, serving cares about the tail of
the per-request latency distribution (p95/p99 against an SLO) and about
how evenly the replica pool shares the offered load — the same imbalance
the paper's bin packer minimizes, measured in busy-seconds instead of
tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["LatencyStats", "RequestRecord", "ServingReport"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_latencies(cls, latencies: np.ndarray) -> "LatencyStats":
        lat = np.asarray(latencies, dtype=np.float64)
        if lat.size == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        p50, p95, p99 = np.percentile(lat, [50.0, 95.0, 99.0])
        return cls(
            count=int(lat.size),
            mean=float(lat.mean()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
            max=float(lat.max()),
        )


@dataclass
class RequestRecord:
    """Lifecycle of one served request on the simulation clock.

    ``energy`` is filled only when the engine executes the real NumPy
    forward (``execute=True``); timing-only simulations leave it ``None``.
    """

    req_id: int
    graph_id: int
    arrival: float
    dispatch: float
    finish: float
    replica: int
    batch_id: int
    energy: Optional[float] = None

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        """Time spent batched/queued before the replica started serving."""
        return self.dispatch - self.arrival


@dataclass
class ServingReport:
    """Outcome of serving one trace under one scheduling policy.

    An engine without an executor reports entirely on the virtual clock
    (``mode="simulate"``).  Given an executor, the same virtual-clock
    schedule (identical admission, batching and placement) additionally
    executes on that worker pool, and the report (``mode="wall-clock"``)
    fills the measured fields: per-batch wall seconds beside the cost
    model's predictions, the real makespan, and the pool's robustness
    counters.
    """

    policy: str
    records: List[RequestRecord] = field(default_factory=list)
    replica_busy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    makespan: float = 0.0
    batch_tokens: List[int] = field(default_factory=list)
    batch_capacity: int = 0
    queue_depth_peak: int = 0
    host_forward_seconds: float = 0.0
    collate_hits: int = 0
    collate_misses: int = 0
    slo_seconds: Optional[float] = None
    # -- wall-clock execution (engine given an executor) ------------------------
    mode: str = "simulate"
    backend: Optional[str] = None
    n_workers: int = 0
    batch_predicted_seconds: List[float] = field(default_factory=list)
    batch_measured_seconds: List[float] = field(default_factory=list)
    measured_makespan: float = 0.0
    worker_deaths: int = 0
    resubmitted: int = 0

    # -- derived quantities -------------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def n_batches(self) -> int:
        return len(self.batch_tokens)

    def latencies(self) -> np.ndarray:
        return np.array([r.latency for r in self.records])

    @property
    def latency(self) -> LatencyStats:
        return LatencyStats.from_latencies(self.latencies())

    @property
    def throughput_rps(self) -> float:
        """Requests per second of simulated wall-clock."""
        return self.n_requests / self.makespan if self.makespan > 0 else 0.0

    @property
    def throughput_tokens(self) -> float:
        total = sum(r_tokens for r_tokens in self.batch_tokens)
        return total / self.makespan if self.makespan > 0 else 0.0

    @property
    def utilization(self) -> np.ndarray:
        """Per-replica busy fraction of the makespan."""
        if self.makespan <= 0 or self.replica_busy.size == 0:
            return np.zeros_like(self.replica_busy)
        return self.replica_busy / self.makespan

    @property
    def utilization_imbalance(self) -> float:
        """max/mean of per-replica busy seconds (1.0 = perfectly even) —
        the serving analogue of the training straggler ratio."""
        busy = self.replica_busy
        if busy.size == 0 or busy.mean() <= 0:
            return 1.0
        return float(busy.max() / busy.mean())

    @property
    def utilization_cv(self) -> float:
        """Coefficient of variation of per-replica busy seconds."""
        busy = self.replica_busy
        if busy.size == 0 or busy.mean() <= 0:
            return 0.0
        return float(busy.std() / busy.mean())

    @property
    def mean_batch_fill(self) -> float:
        """Mean micro-batch occupancy of the token budget (0 when unset)."""
        if self.batch_capacity <= 0 or not self.batch_tokens:
            return 0.0
        return float(np.mean(self.batch_tokens)) / self.batch_capacity

    @property
    def slo_attainment(self) -> Optional[float]:
        """Fraction of requests finishing within the latency SLO."""
        if self.slo_seconds is None or not self.records:
            return None
        lat = self.latencies()
        return float(np.mean(lat <= self.slo_seconds))

    # -- wall-clock derived quantities --------------------------------------------

    @property
    def measured_throughput_rps(self) -> Optional[float]:
        """Requests per second of *real* wall-clock (wall-clock mode only)."""
        if self.measured_makespan <= 0:
            return None
        return self.n_requests / self.measured_makespan

    @property
    def cost_model_scale(self) -> Optional[float]:
        """Median measured/predicted per-batch service ratio.

        The cost model's absolute scale is calibrated to the paper's
        hardware, not this host, so a single multiplicative correction is
        fitted before judging its *shape* (see ``cost_model_p90_error``).
        """
        pred = np.asarray(self.batch_predicted_seconds)
        meas = np.asarray(self.batch_measured_seconds)
        n = min(pred.size, meas.size)
        if n == 0:
            return None
        pred, meas = pred[:n], meas[:n]
        ok = pred > 0
        if not ok.any():
            return None
        return float(np.median(meas[ok] / pred[ok]))

    @property
    def cost_model_p90_error(self) -> Optional[float]:
        """p90 relative error of scale-calibrated predictions vs measurements.

        After dividing out :attr:`cost_model_scale`, this is how far the
        cost model's per-batch service *shape* strays from reality — the
        quantity the validation harness gates on.
        """
        scale = self.cost_model_scale
        if scale is None or scale <= 0:
            return None
        pred = np.asarray(self.batch_predicted_seconds)
        meas = np.asarray(self.batch_measured_seconds)
        n = min(pred.size, meas.size)
        pred, meas = pred[:n], meas[:n]
        ok = (pred > 0) & (meas > 0)
        if not ok.any():
            return None
        rel = np.abs(meas[ok] - scale * pred[ok]) / (scale * pred[ok])
        return float(np.percentile(rel, 90.0))

    # -- presentation -------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lat = self.latency
        lines = [
            f"policy            {self.policy}",
            f"requests          {self.n_requests} in {self.n_batches} micro-batches",
            f"makespan          {self.makespan * 1e3:.2f} ms",
            f"throughput        {self.throughput_rps:.1f} req/s "
            f"({self.throughput_tokens:.0f} tokens/s)",
            f"latency ms        p50 {lat.p50 * 1e3:.3f}  p95 {lat.p95 * 1e3:.3f}  "
            f"p99 {lat.p99 * 1e3:.3f}  max {lat.max * 1e3:.3f}",
            f"batch fill        {self.mean_batch_fill:.1%} of {self.batch_capacity} tokens",
            f"queue depth peak  {self.queue_depth_peak}",
            f"replica util      {np.array2string(self.utilization, precision=3)}"
            f"  imbalance {self.utilization_imbalance:.3f}",
            f"collate cache     {self.collate_hits} hits / {self.collate_misses} misses",
        ]
        if self.slo_seconds is not None:
            lines.append(
                f"SLO {self.slo_seconds * 1e3:.1f} ms    attainment {self.slo_attainment:.1%}"
            )
        if self.mode == "wall-clock":
            lines.append(
                f"execution         {self.mode} on {self.n_workers} "
                f"{self.backend} workers"
            )
            if self.measured_makespan > 0:
                lines.append(
                    f"measured          makespan {self.measured_makespan * 1e3:.2f} ms"
                    f"  throughput {self.measured_throughput_rps:.1f} req/s"
                )
            scale = self.cost_model_scale
            if scale is not None:
                lines.append(
                    f"cost model        scale {scale:.3g}x"
                    f"  p90 shape error {self.cost_model_p90_error:.1%}"
                )
            if self.worker_deaths or self.resubmitted:
                lines.append(
                    f"incidents         {self.worker_deaths} worker deaths, "
                    f"{self.resubmitted} tasks resubmitted"
                )
        return "\n".join(lines)
