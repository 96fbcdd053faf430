"""Kernel-execution accounting.

The paper's Observation 3 is about *kernel structure*: e3nn-style
implementations launch many small kernels and shuttle intermediates through
global memory, while the optimized implementation fuses everything into one
kernel and keeps intermediates local.  To make that contrast measurable in
a NumPy reproduction, every kernel implementation reports its would-be GPU
execution profile — launch count, floating-point operations, and global
memory traffic — to the active :class:`KernelCounter`.

Tests and benchmarks assert the optimized variants reduce all three.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["KernelCounter", "record_kernel", "active_counter", "counting"]


@dataclass
class KernelCounter:
    """Accumulates per-kernel-class execution statistics."""

    launches: int = 0
    flops: float = 0.0
    bytes: float = 0.0
    by_name: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def record(self, name: str, launches: int, flops: float, bytes_: float) -> None:
        """Record one logical kernel invocation group."""
        self.launches += launches
        self.flops += flops
        self.bytes += bytes_
        slot = self.by_name.setdefault(
            name, {"launches": 0, "flops": 0.0, "bytes": 0.0}
        )
        slot["launches"] += launches
        slot["flops"] += flops
        slot["bytes"] += bytes_

    def reset(self) -> None:
        self.launches = 0
        self.flops = 0.0
        self.bytes = 0.0
        self.by_name.clear()


class _Local(threading.local):
    """Per-thread stack of active counters.

    Kernels run on several threads at once (thread-executor workers
    beside the driver); a process-global
    stack would let one thread's ``counting()`` block absorb — or pop —
    another's.
    """

    def __init__(self) -> None:
        self.stack: List[KernelCounter] = []


_LOCAL = _Local()


def active_counter() -> Optional[KernelCounter]:
    """The calling thread's innermost active counter, or None."""
    stack = _LOCAL.stack
    return stack[-1] if stack else None


def record_kernel(name: str, launches: int, flops: float, bytes_: float) -> None:
    """Report a kernel-invocation group to the active counter (if any)."""
    stack = _LOCAL.stack
    if stack:
        stack[-1].record(name, launches, flops, bytes_)


@contextlib.contextmanager
def counting() -> Iterator[KernelCounter]:
    """Context manager collecting the calling thread's kernel statistics::

        with counting() as kc:
            run_kernels()
        assert kc.launches < baseline_launches
    """
    counter = KernelCounter()
    stack = _LOCAL.stack
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.pop()
