"""Streaming loader: batch construction on a forked fetch worker.

Batch construction (for training, ``Trainer._prepare``: shard read,
collation, edge geometry, topology sort) is Python-level NumPy that
holds the GIL, so no thread can hide it behind the training loop.
:class:`StreamingLoader` forks one fetch worker per pass.  It inherits a
copy-on-write snapshot of what ``fetch`` reads and pipes each step's
result back in order; the driver fetches the first step itself while
the worker starts, and every step inline on one schedulable core.  A
dead worker is re-forked from ``next_step``; a fetch error is raised at
its step, with ``next_step`` pointing at it, so a fresh loader from
there retries that step, never skips it.  ``README.md`` in this package
gives the worker's lifetime and core rules; ``python -m bench.run``
reports :class:`StreamStats` as ``data.stream.*``.
"""

from __future__ import annotations

import contextlib
import fcntl
import multiprocessing as mp
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..parallel.executor import available_cores

__all__ = ["StreamingLoader", "StreamStats"]

_POLL_SECONDS = 0.05  # liveness probe interval while waiting on the worker
_PIPE_BYTES = 1 << 20  # the default pipe-max-size; a training batch is ~0.6 MB


@dataclass
class StreamStats:
    """Overlap counters: results already read when the consumer asked
    (``depth_sum``), and its waits for one (inline, every fetch)."""

    batches: int = 0
    stalls: int = 0
    stall_seconds: float = 0.0
    depth_sum: int = 0

    def merge(self, other: "StreamStats") -> None:
        self.batches += other.batches
        self.stalls += other.stalls
        self.stall_seconds += other.stall_seconds
        self.depth_sum += other.depth_sum


class StreamingLoader:
    """Iterate ``(step, fetch(*plan[step]))`` with ``fetch`` on a forked
    worker.

    Parameters
    ----------
    plan:
        The epoch plan: a sequence of argument tuples, one per batch —
        for training, the ``(indices, capacity)`` pairs of a sampler's
        ``plan_rank_bins``.
    fetch:
        Called with one plan entry unpacked.  In the worker it sees the
        driver's state as of the fork and its side effects stay there,
        so its result must carry all the driver needs, and pickle.
    depth:
        Results read ahead of the consumer.  2 is classic double
        buffering: one batch in compute, one ready.
    start:
        First plan step to fetch (resume point after a mid-epoch crash).

    Single-shot: iterate once, then :meth:`close` (iterating to the end
    closes automatically).
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
        self._ready: deque = deque()  # (ok, value) results read ahead
        self._proc = self._conn = None
        self._respawned_at: Optional[int] = None
        self._closed = False

    @property
    def next_step(self) -> int:
        """First plan step not yet yielded — the resume point."""
        return self.start + self._completed

    # -- the worker ----------------------------------------------------------------

    def _fork(self, start: int) -> None:
        ctx = mp.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        # Room for a whole batch, so the worker goes on to the next one (a
        # size above the host's pipe-max-size leaves the default).
        with contextlib.suppress(OSError):
            fcntl.fcntl(send.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        # Pipe wakeups are synchronous: the kernel puts the woken side on
        # its waker's core.  So while the worker lives, it and this thread
        # keep to cores of their own instead of preempting each other.
        self._cpus = os.sched_getaffinity(0)
        own = {max(self._cpus)}
        self._proc = ctx.Process(
            target=self._work, args=(recv, send, start, own), daemon=True
        )
        self._proc.start()
        os.sched_setaffinity(0, self._cpus - own)
        send.close()  # the worker holds the only write end: its death is EOF here
        self._conn = recv

    def _work(self, recv, send, start: int, cpus: set) -> None:
        """Send each step's ``(ok, value)`` in order; stop at an error."""
        recv.close()  # a driver that dies then breaks the pipe under send
        os.sched_setaffinity(0, cpus)
        for step in range(start, len(self.plan)):
            try:
                payload = pickle.dumps((True, self.fetch(*self.plan[step])), protocol=5)
            except Exception as exc:  # raised in the consumer at this step
                send.send_bytes(pickle.dumps((False, exc), protocol=5))
                return
            send.send_bytes(payload)

    def _read(self) -> Tuple[bool, Any]:
        # Callers poll first, so a whole message or EOF is pending.
        return pickle.loads(self._conn.recv_bytes())  # lint: allow-unbounded-wait

    def _receive(self) -> Tuple[bool, Any]:
        """The next step's result, refetched by a fresh worker if this one died."""
        while not self._conn.poll(_POLL_SECONDS) and self._proc.is_alive():
            pass
        try:
            return self._read()
        except (EOFError, OSError):
            if self._respawned_at == self.next_step:
                raise RuntimeError(f"fetch worker died twice at step {self.next_step}")
        self._respawned_at = self.next_step
        self._reap()
        self._fork(self.next_step)
        return self._receive()

    def _reap(self) -> None:
        """Close the pipe, then terminate and join the worker."""
        proc, conn = self._proc, self._conn
        self._proc = self._conn = None
        if proc is not None:
            os.sched_setaffinity(0, self._cpus)
            conn.close()
            proc.terminate()  # a no-op once it has exited
            proc.join(timeout=5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join(timeout=5.0)
            proc.close()

    # -- the consumer --------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        if self._closed:
            raise RuntimeError("loader already closed")
        inline = available_cores() == 1
        try:
            while self.next_step < len(self.plan):
                step = self.next_step
                fresh = not inline and self._proc is None
                if fresh:  # this step is fetched here while the worker starts up
                    self._fork(step + 1)
                depth = len(self._ready)
                t0 = time.perf_counter()
                if inline or fresh:
                    ok, value = True, self.fetch(*self.plan[step])
                else:
                    ok, value = self._ready.popleft() if depth else self._receive()
                waited = time.perf_counter() - t0
                try:  # read ahead what the worker has sent
                    while self._conn and len(self._ready) < self.depth and self._conn.poll(0):
                        self._ready.append(self._read())
                except (EOFError, OSError):
                    pass  # a dead worker: _receive replaces it once these are used
                if not ok:
                    raise value
                self.stats.batches += 1
                self.stats.depth_sum += depth
                if depth == 0 and waited > 1e-5:
                    self.stats.stalls += 1
                    self.stats.stall_seconds += waited
                self._completed += 1
                yield step, value
        finally:
            self.close()

    def run(self) -> List[Any]:
        """Drain the whole plan; returns the fetched results in order."""
        return [item for _, item in self]

    def close(self) -> None:
        """Stop fetching and join the worker (idempotent)."""
        self._closed = True
        self._reap()
