"""Span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions: ``install`` wraps those callables (methods
on their class, functions on every ``repro.*`` module that binds them)
so each call records name, start, end, parent span and one id per
operation.  Spans stay in memory and are written once, as Chrome-trace
JSON, when the run ends.  A layer's self time is its span's duration
minus the part its child spans cover.  Nothing under ``src/`` changes;
spans inside the program are ROADMAP item 2.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]  # id of the enclosing span on the same thread
    op: int  # id of the root span: shared by every span of one operation
    tid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the duration of its direct children.

    Children are spans opened on the same thread while the parent was
    open, so they nest and never overlap each other.
    """
    spans = list(spans)
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


class Recorder:
    """Collects spans from any thread; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent, op = stack[-1] if stack else (None, sid)
            stack.append((sid, op))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, op, threading.get_ident())
                )

        return traced

    # -- aggregation ---------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        own = self_times(self.spans)
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            slot = out[s.name]
            slot["count"] += 1
            slot["total_s"] += s.duration
            slot["self_s"] += own[s.id]
        return out

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write_chrome_trace(self, path) -> None:
        """Complete ("X") events, microseconds from the first span's start."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, "op": s.op},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _patch_function(rec: Recorder, func: Callable, name: str) -> None:
    traced = rec.wrap(func, name)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, traced)


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    Patches are process-wide and never undone: call it only in a
    benchmark child, after the untraced rounds.
    """
    from repro.analysis.verifier import verify_plan
    from repro.data.store import ShardedDataset
    from repro.distribution.sampler import BalancedDistributedSampler
    from repro.graphs.pipeline import CollateCache, NeighborListCache
    from repro.mace import MACE
    from repro.md import MACECalculator, VelocityVerlet
    from repro.nn import Adam, ExponentialMovingAverage
    from repro.runtime import CompiledPlan
    from repro.serving import SCHEDULERS, InferenceEngine
    from repro.training import Trainer

    methods = [
        (BalancedDistributedSampler, "plan_epoch", "distribution.plan_epoch"),
        (BalancedDistributedSampler, "all_rank_bins", "distribution.all_rank_bins"),
        (BalancedDistributedSampler, "plan_rank_shards", "distribution.plan_rank_shards"),
        (ShardedDataset, "load", "data.store.load"),
        (CollateCache, "get", "graphs.collate"),
        (NeighborListCache, "update", "graphs.neighbor_update"),
        (CompiledPlan, "__init__", "runtime.compile"),
        (CompiledPlan, "replay", "runtime.replay"),
        (Trainer, "train_batch", "training.train_batch"),
        (Adam, "step", "nn.optimizer_step"),
        (ExponentialMovingAverage, "update", "nn.optimizer_step"),
        (InferenceEngine, "serve", "serving.serve"),
        (MACE, "predict_energy", "serving.host_forward"),
        (MACECalculator, "energy_and_forces", "md.calculator"),
        (VelocityVerlet, "step", "md.step"),
    ]
    methods += [(cls, "plan", "serving.schedule") for cls in SCHEDULERS.values()]
    for cls, attr, name in methods:
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name))
    _patch_function(rec, verify_plan, "analysis.verify")
