"""Real multicore execution for replicas and DDP ranks.

Everything above this package *simulates* parallel hardware from a cost
model; this package supplies the real thing on the host CPU — a
worker-pool execution engine consumed by the serving engine
(:class:`repro.serving.InferenceEngine` given an ``executor=``) and the
trainer's real data-parallel mode
(:class:`~repro.parallel.ParallelDDP`, threaded through
``repro.training.distributed``).  Comparing the two is the wall-clock
validation of the cost model (``repro.cli validate-cost-model``).

See ``README.md`` in this package for the executor API, the
shared-memory ownership rules and the threads-versus-processes guidance.
"""

from .ddp import ParallelDDP
from .executor import (
    BaseExecutor,
    ExecutorStats,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerDied,
    available_cores,
    make_executor,
)
from .shm import ArrayHandle, LocalSlab, ShmSlab, SlabFull
from .worker import (
    ForwardTask,
    GradStep,
    InstallModel,
    SetupRank,
    WorkerContext,
)

__all__ = [
    "ArrayHandle",
    "BaseExecutor",
    "ExecutorStats",
    "ForwardTask",
    "GradStep",
    "InstallModel",
    "LocalSlab",
    "ParallelDDP",
    "ProcessExecutor",
    "SerialExecutor",
    "SetupRank",
    "ShmSlab",
    "SlabFull",
    "ThreadExecutor",
    "WorkerContext",
    "WorkerDied",
    "available_cores",
    "make_executor",
]
