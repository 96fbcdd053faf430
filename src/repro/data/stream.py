"""Double-buffered streaming loader: overlap batch construction with compute.

Once compiled plans dominate step time, one background thread is enough
to hide batch construction (shard read + neighbor-list filtering +
bucket-shaped collation + the parameter-free edge geometry, all
inside the ``fetch`` callable — typically ``Trainer._collate`` routed
through ``CollateCache``) behind the previous batch's compute.  :class:`StreamingLoader` runs the epoch plan's
``fetch`` calls on that thread into a bounded queue (``depth`` slots —
double-buffering at the default 2) and yields ready batches to the
training loop.

The overlap is *measured*, not assumed: :class:`StreamStats` records how
long the consumer blocked waiting on the queue (``stall_seconds``), how
long the producer spent fetching (``fetch_seconds``), and the queue
depth found on each get — ``python -m bench.run`` reports them as
``data.stream.stall_s`` / ``stalls`` / ``mean_depth`` on its training
workloads.

Crash/resume: the loader tracks ``next_step`` (the first plan step not
yet yielded).  A fetch or consumer-side failure leaves the loader
closeable and the epoch resumable from ``next_step`` with a fresh
loader — the failed step itself is retried, never skipped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from queue import Empty, Full, Queue
from typing import Any, Callable, Iterator, List, Sequence, Tuple

__all__ = ["StreamingLoader", "StreamStats"]

_DONE = object()


@dataclass
class StreamStats:
    """Counters measuring prefetch/compute overlap quality."""

    batches: int = 0
    stalls: int = 0
    stall_seconds: float = 0.0
    fetch_seconds: float = 0.0
    depth_sum: int = 0
    max_depth: int = 0

    @property
    def mean_depth(self) -> float:
        """Mean queue depth observed at consume time (≈``depth`` when the
        producer keeps up, →0 when the consumer is starved)."""
        return self.depth_sum / self.batches if self.batches else 0.0

    @property
    def stall_fraction_of_fetch(self) -> float:
        """Stall time as a fraction of total fetch time — 0 means batch
        construction was fully hidden behind compute."""
        if self.fetch_seconds <= 0.0:
            return 0.0
        return self.stall_seconds / self.fetch_seconds

    def merge(self, other: "StreamStats") -> None:
        self.batches += other.batches
        self.stalls += other.stalls
        self.stall_seconds += other.stall_seconds
        self.fetch_seconds += other.fetch_seconds
        self.depth_sum += other.depth_sum
        self.max_depth = max(self.max_depth, other.max_depth)


@dataclass
class _Failure:
    step: int
    error: BaseException


class StreamingLoader:
    """Iterate ``(step, fetch(*plan[step]))`` with background prefetch.

    Parameters
    ----------
    plan:
        The epoch plan: a sequence of argument tuples, one per batch —
        for training, the ``(indices, capacity)`` pairs of a sampler's
        ``plan_rank_bins``.
    fetch:
        Called with one plan entry unpacked, on the prefetch thread.
        Must be safe to run concurrently with the consumer's compute;
        ``Trainer._collate`` qualifies because during a streamed epoch
        only this thread touches the collate cache, the dataset maps and
        the cached batches' ``features`` memo, and the geometry it computes runs
        without a tape on thread-local engine/counter state.
    depth:
        Queue capacity — the number of batches fetched ahead.  2 is
        classic double-buffering: one batch in compute, one ready.
    start:
        First plan step to fetch (resume point after a mid-epoch crash).

    Single-shot: iterate once, then :meth:`close` (iterating to
    exhaustion closes automatically).  A fetch error is re-raised in the
    consumer at the failing step, with ``next_step`` pointing at it so a
    fresh loader can retry from there.
    """

    def __init__(
        self,
        plan: Sequence[Tuple],
        fetch: Callable[..., Any],
        depth: int = 2,
        start: int = 0,
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        if not 0 <= start <= len(plan):
            raise ValueError(f"start={start} outside plan of {len(plan)} steps")
        self.plan = list(plan)
        self.fetch = fetch
        self.depth = int(depth)
        self.start = int(start)
        self.stats = StreamStats()
        self._completed = 0
        self._queue: Queue = Queue(maxsize=self.depth)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._producer, name="stream-prefetch", daemon=True
        )
        self._started = False
        self._closed = False

    # -- producer --------------------------------------------------------------

    def _producer(self) -> None:
        for step in range(self.start, len(self.plan)):
            if self._stop.is_set():
                return
            t0 = time.perf_counter()
            try:
                item = (step, self.fetch(*self.plan[step]))
            except BaseException as exc:  # propagated to the consumer
                self._put(_Failure(step, exc))
                return
            self.stats.fetch_seconds += time.perf_counter() - t0
            if not self._put(item):
                return
        self._put(_DONE)

    def _put(self, item) -> bool:
        """Blocking put that stays responsive to close()."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except Full:
                continue
        return False

    # -- consumer --------------------------------------------------------------

    @property
    def next_step(self) -> int:
        """First plan step not yet yielded — the resume point."""
        return self.start + self._completed

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        if self._closed:
            raise RuntimeError("loader already closed")
        if not self._started:
            self._started = True
            self._thread.start()
        while True:
            depth = self._queue.qsize()
            t0 = time.perf_counter()
            item = self._queue.get()
            waited = time.perf_counter() - t0
            if item is _DONE:
                self.close()
                return
            if isinstance(item, _Failure):
                self.close()
                raise item.error
            self.stats.batches += 1
            self.stats.depth_sum += depth
            self.stats.max_depth = max(self.stats.max_depth, depth)
            if depth == 0 and waited > 1e-5:
                self.stats.stalls += 1
                self.stats.stall_seconds += waited
            self._completed += 1
            yield item

    def run(self) -> List[Any]:
        """Drain the whole plan; returns the fetched batches in order."""
        return [batch for _, batch in self]

    def close(self) -> None:
        """Stop prefetching and join the thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._started:
            while self._thread.is_alive():
                try:  # unblock a producer stuck in put()
                    self._queue.get_nowait()
                except Empty:
                    pass
                self._thread.join(timeout=0.05)

    def __enter__(self) -> "StreamingLoader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
