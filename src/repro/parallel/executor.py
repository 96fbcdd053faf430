"""Worker-pool executors: serial, thread and process backends, one API.

The driver talks to every backend identically:

- :meth:`~BaseExecutor.install` broadcasts an install message (model,
  plan, rank state) to the pool and logs it per worker, so a respawned
  worker can be rebuilt by replaying the log;
- :meth:`~BaseExecutor.submit` enqueues one task (optionally pinned to a
  worker — DDP pins each rank so its trainer state is reused);
- :meth:`~BaseExecutor.drain` blocks until every outstanding task has a
  result and returns ``{task_id: result}``.

Backends:

:class:`SerialExecutor`
    Runs tasks inline at submit time.  The reference backend — its
    results define correctness for the other two — and the zero-overhead
    fallback on single-core machines.

:class:`ThreadExecutor`
    One Python thread per worker.  NumPy's BLAS kernels release the GIL,
    so batched GEMM-heavy replays overlap; pure-Python stretches
    serialize.  Install messages are cloned per worker (the same pickle
    round trip the process queue does), so plans and models are never
    shared between threads.

:class:`ProcessExecutor`
    Real multicore: forked worker processes, per-worker task queues,
    per-worker result *pipes*, array traffic through a
    :class:`ShmSlab`.  Worker death (crash, OOM-kill, ``SIGKILL``) is
    detected while draining; the dead worker is respawned from its
    install log, its in-flight tasks are resubmitted, and the incident
    is counted in :attr:`~BaseExecutor.stats` — the trace completes
    either way.  Results deliberately travel over one pipe per worker
    (driver's write end closed) rather than a shared queue: a worker
    SIGKILLed mid-``put`` on a shared queue leaves a half-written
    message that blocks every later ``get`` forever, while a dead
    worker's private pipe just raises ``EOFError`` and is abandoned.

Nothing in this module keeps module-level mutable state: every queue,
slab and context hangs off an executor or worker instance, so a fork at
any moment captures no half-shared globals (enforced by the
``parallel-module-state`` lint rule).
"""

from __future__ import annotations

import os
import pickle
import queue
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .shm import LocalSlab, ShmSlab
from .worker import WorkerContext

__all__ = [
    "BaseExecutor",
    "ExecutorStats",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "WorkerDied",
    "make_executor",
]

DEFAULT_SLAB_BYTES = 32 << 20  # 32 MiB: thousands of micro-batch results


class WorkerDied(RuntimeError):
    """A worker died and its work could not be recovered."""


@dataclass
class ExecutorStats:
    """Robustness counters, surfaced into serving/training reports."""

    tasks_done: int = 0
    worker_deaths: int = 0
    resubmitted: int = 0
    installs: int = 0
    errors: int = 0


@dataclass
class _InstallLog:
    """Per-worker replayable history of install messages."""

    messages: List[Any] = field(default_factory=list)

    def add(self, message) -> None:
        # An install superseding an earlier one (same model version, same
        # plan key, same rank) replaces it, so the log replayed into a
        # respawned worker stays bounded by live state, not history.
        replaces = getattr(message, "replaces", None)
        if replaces is not None:
            self.messages = [m for m in self.messages if not replaces(m)]
        self.messages.append(message)


class BaseExecutor:
    """Shared bookkeeping: install logs, in-flight tracking, stats."""

    backend = "base"

    def __init__(self, n_workers: int, slab_bytes: int = DEFAULT_SLAB_BYTES) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = int(n_workers)
        self.slab_bytes = int(slab_bytes)
        self.stats = ExecutorStats()
        self._logs = [_InstallLog() for _ in range(self.n_workers)]
        self._inflight: Dict[Any, Tuple[int, Any]] = {}  # task_id -> (worker, task)
        self._results: Dict[Any, Any] = {}
        self._closed = False

    # -- subclass hooks ----------------------------------------------------------

    def _send_install(self, worker: int, message) -> None:
        raise NotImplementedError

    def _send_task(self, worker: int, task) -> None:
        raise NotImplementedError

    def _collect(self, deadline: Optional[float]) -> None:
        """Move finished work from the backend into ``self._results``."""
        raise NotImplementedError

    # -- public API --------------------------------------------------------------

    def install(self, message, worker: Optional[int] = None) -> None:
        """Apply an install message on one worker (default: broadcast)."""
        targets = range(self.n_workers) if worker is None else [worker]
        for w in targets:
            self._logs[w].add(message)
            self._send_install(w, message)
            self.stats.installs += 1

    def submit(self, task, worker: Optional[int] = None) -> Any:
        """Enqueue ``task`` (round-robin when ``worker`` is None)."""
        if self._closed:
            raise RuntimeError("executor is shut down")
        if task.task_id in self._inflight or task.task_id in self._results:
            raise ValueError(f"duplicate task_id {task.task_id!r}")
        w = (len(self._inflight) + self.stats.tasks_done) % self.n_workers
        w = w if worker is None else int(worker) % self.n_workers
        self._inflight[task.task_id] = (w, task)
        self._send_task(w, task)
        return task.task_id

    def drain(self, timeout: Optional[float] = None) -> Dict[Any, Any]:
        """Wait for all outstanding tasks; return and clear their results."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._inflight:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{len(self._inflight)} tasks still outstanding after {timeout}s"
                )
            self._collect(deadline)
        done, self._results = self._results, {}
        return done

    def shutdown(self) -> None:
        self._closed = True

    def __enter__(self) -> "BaseExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- shared helpers ----------------------------------------------------------

    def _finish(self, task_id, result) -> None:
        """Record one completed task (first result wins on duplicates)."""
        if task_id not in self._inflight:
            return  # duplicate after a resubmission race: keep the first
        del self._inflight[task_id]
        self._results[task_id] = result
        self.stats.tasks_done += 1
        if isinstance(result, dict) and "error" in result:
            self.stats.errors += 1


class SerialExecutor(BaseExecutor):
    """Inline execution; the semantics baseline for the pool backends."""

    backend = "serial"

    def __init__(self, n_workers: int = 1, slab_bytes: int = DEFAULT_SLAB_BYTES) -> None:
        super().__init__(n_workers, slab_bytes)
        self.slab = LocalSlab(self.slab_bytes)
        self._contexts = [
            WorkerContext(w, slab=self.slab) for w in range(self.n_workers)
        ]

    def _send_install(self, worker: int, message) -> None:
        message.install(self._contexts[worker])

    def _send_task(self, worker: int, task) -> None:
        try:
            result = task.run(self._contexts[worker])
        except Exception:
            result = {"task_id": task.task_id, "error": traceback.format_exc()}
        self._finish(task.task_id, result)

    def _collect(self, deadline) -> None:
        pass  # submit already completed everything


class ThreadExecutor(BaseExecutor):
    """One thread per worker; BLAS-bound replays overlap under the GIL."""

    backend = "thread"

    def __init__(self, n_workers: int, slab_bytes: int = DEFAULT_SLAB_BYTES) -> None:
        super().__init__(n_workers, slab_bytes)
        self.slab = LocalSlab(self.slab_bytes)
        self._done: "queue.Queue" = queue.Queue()
        self._queues: List["queue.Queue"] = []
        self._threads: List[threading.Thread] = []
        for w in range(self.n_workers):
            q: "queue.Queue" = queue.Queue()
            t = threading.Thread(
                target=_worker_loop,
                args=(WorkerContext(w, slab=self.slab), q, self._done),
                daemon=True,
                name=f"repro-parallel-{w}",
            )
            t.start()
            self._queues.append(q)
            self._threads.append(t)

    def _send_install(self, worker: int, message) -> None:
        # Clone through pickle — identical semantics to the process queue,
        # so no plan/model instance is ever shared between threads.
        self._queues[worker].put(("install", pickle.loads(pickle.dumps(message))))

    def _send_task(self, worker: int, task) -> None:
        self._queues[worker].put(("task", task))

    def _collect(self, deadline) -> None:
        try:
            task_id, result = self._done.get(timeout=0.2)
        except queue.Empty:
            return
        self._finish(task_id, result)

    def shutdown(self) -> None:
        if not self._closed:
            for q in self._queues:
                q.put(("stop", None))
            for t in self._threads:
                t.join(timeout=5.0)
        super().shutdown()


def _worker_loop(ctx: WorkerContext, tasks, done) -> None:
    """Thread-worker main loop (also the template for the process loop)."""
    while True:
        kind, payload = tasks.get()  # lint: allow-unbounded-wait (worker idles until sent to)
        if kind == "stop":
            return
        if kind == "install":
            payload.install(ctx)
            continue
        try:
            result = payload.run(ctx)
        except Exception:
            result = {"task_id": payload.task_id, "error": traceback.format_exc()}
        done.put((payload.task_id, result))


def _process_worker_main(worker_id, slab_name, slab_bytes, tasks, done) -> None:
    """Process-worker entry point (module-level: must pickle by name).

    ``done`` is this worker's private result pipe; ``send`` blocks until
    the driver reads, which is fine — the driver drains eagerly.
    """
    slab = None if slab_name is None else ShmSlab.attach(slab_name, slab_bytes)
    ctx = WorkerContext(worker_id, slab=slab)
    while True:
        kind, payload = tasks.get()  # lint: allow-unbounded-wait (worker idles until sent to)
        if kind == "stop":
            # Release the slab view before interpreter teardown, where
            # SharedMemory.__del__ would trip over the exported buffer.
            del ctx
            if slab is not None:
                slab.close()
            return
        if kind == "install":
            payload.install(ctx)
            continue
        try:
            result = payload.run(ctx)
        except Exception:
            result = {"task_id": payload.task_id, "error": traceback.format_exc()}
        done.send((worker_id, payload.task_id, result))


class ProcessExecutor(BaseExecutor):
    """Forked worker processes with shared-memory array traffic.

    Worker death is survivable: :meth:`drain` polls the result queue with
    a short timeout and probes liveness on every miss; a dead worker is
    replaced by a fresh process (new task queue — the old one may hold a
    half-written message), its install log is replayed, and its in-flight
    tasks are resubmitted.  A task the dying worker *did* finish is
    deduplicated by task id (first result wins).
    """

    backend = "process"

    def __init__(
        self,
        n_workers: int,
        slab_bytes: int = DEFAULT_SLAB_BYTES,
        start_method: str = "fork",
        poll_seconds: float = 0.05,
    ) -> None:
        import multiprocessing as mp

        super().__init__(n_workers, slab_bytes)
        self._mp = mp.get_context(start_method)
        self.slab = ShmSlab(self.slab_bytes)
        self.poll_seconds = float(poll_seconds)
        self._queues: List[Any] = []
        self._conns: List[Any] = []  # per-worker result pipes (read ends)
        self._procs: List[Any] = []
        for w in range(self.n_workers):
            q, conn, p = self._spawn(w)
            self._queues.append(q)
            self._conns.append(conn)
            self._procs.append(p)

    def _spawn(self, worker_id: int):
        q = self._mp.Queue()
        recv_conn, send_conn = self._mp.Pipe(duplex=False)
        p = self._mp.Process(
            target=_process_worker_main,
            args=(worker_id, self.slab.name, self.slab_bytes, q, send_conn),
            daemon=True,
            name=f"repro-parallel-{worker_id}",
        )
        p.start()
        # Close the driver's copy of the write end: the worker now holds
        # the only one, so its death closes the pipe and a pending recv
        # sees EOF instead of blocking forever.
        send_conn.close()
        return q, recv_conn, p

    @property
    def worker_pids(self) -> List[int]:
        """Live worker PIDs (tests kill one to exercise recovery)."""
        return [p.pid for p in self._procs]

    def _send_install(self, worker: int, message) -> None:
        self._queues[worker].put(("install", message))

    def _send_task(self, worker: int, task) -> None:
        self._queues[worker].put(("task", task))

    def _collect(self, deadline) -> None:
        ready = mp_connection.wait(self._conns, timeout=self.poll_seconds)
        got = False
        for conn in ready:
            try:
                # wait() found it ready: a whole message or EOF is pending
                worker_id, task_id, result = conn.recv()  # lint: allow-unbounded-wait
            except (EOFError, OSError):
                # Writer died (possibly mid-send): the pipe is done, and
                # _reap below respawns the worker and resubmits its work.
                continue
            self._finish(task_id, result)
            got = True
        if not got:
            self._reap()

    def _reap(self) -> None:
        """Detect dead workers; respawn and resubmit their in-flight work."""
        for w, p in enumerate(self._procs):
            if p.is_alive():
                continue
            self.stats.worker_deaths += 1
            # The old queue/pipe may hold partially transferred messages
            # and unread tasks whose ids are being resubmitted: abandon
            # both.  cancel_join_thread() matters: the abandoned queue's
            # feeder thread may be blocked flushing into the dead
            # worker's full pipe, and without it the interpreter's exit
            # handler would join that feeder forever.
            self._queues[w].cancel_join_thread()
            self._queues[w].close()
            try:
                self._conns[w].close()
            except OSError:  # pragma: no cover - already torn down
                pass
            q, conn, proc = self._spawn(w)
            self._queues[w] = q
            self._conns[w] = conn
            self._procs[w] = proc
            for message in self._logs[w].messages:
                q.put(("install", message))
            orphans = [
                (task_id, task)
                for task_id, (owner, task) in self._inflight.items()
                if owner == w
            ]
            for task_id, task in orphans:
                self._inflight[task_id] = (w, task)
                q.put(("task", task))
                self.stats.resubmitted += 1

    def shutdown(self) -> None:
        if not self._closed:
            for q in self._queues:
                try:
                    q.put(("stop", None))
                except (ValueError, OSError):
                    pass
            for p in self._procs:
                p.join(timeout=5.0)
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1.0)
            for conn in self._conns:
                try:
                    conn.close()
                except OSError:
                    pass
            for q in self._queues:
                try:
                    q.cancel_join_thread()
                    q.close()
                except (ValueError, OSError):
                    pass
            self.slab.close()
            self.slab.unlink()
        super().shutdown()


def make_executor(
    backend: str,
    n_workers: int,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
    **kwargs,
) -> BaseExecutor:
    """Build an executor by backend name: serial | thread | process."""
    if backend == "serial":
        return SerialExecutor(n_workers, slab_bytes)
    if backend == "thread":
        return ThreadExecutor(n_workers, slab_bytes)
    if backend == "process":
        return ProcessExecutor(n_workers, slab_bytes, **kwargs)
    raise ValueError(f"unknown executor backend {backend!r}")


def available_cores() -> int:
    """CPUs this process may schedule on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback
        return os.cpu_count() or 1
