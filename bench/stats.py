"""Summary statistics and the machine fingerprint every result record carries.

The percentile rule (choosing-metrics guide, section 1): a timing is
reported as its median plus the highest percentile that still has at
least ten samples beyond it, and the sample count is always stated.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Dict, Optional, Sequence

import numpy as np

from . import ROOT

TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """Highest of ``TAIL_PERCENTILES`` with >= 10 of ``n`` samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            best = p
    return best


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """``n``, median and the rule's tail percentile (``None`` when n < 40)."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": statistics.median(values),
        "tail_percentile": p,
        "tail": None if p is None else float(np.percentile(values, p)),
    }


def quiet_time(values: Sequence[float]) -> float:
    """First quartile of round times: what a round costs when the box is quiet.

    Interference on the shared 2-core VM only ever slows a round, and it
    comes in bursts of 3-15 s at +30-50% (bench/README.md, machine noise),
    often covering more than half of a 10 s run, so the median of a run's
    rounds moves with the neighbours while the first quartile does not.
    """
    return statistics.quantiles(values, n=4)[0]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def fingerprint(seed: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "visible_cores": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "git_commit": _git_commit(),
    }
