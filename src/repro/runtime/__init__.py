"""Runtime: record-once/replay-many compiled execution plans.

The paper's thesis is that an analytical cost model can drive MACE
workloads to hardware limits; this package removes the part of the hot
path the cost model cannot see — eager Python tape construction.  Every
``MACE.forward`` + ``backward()`` normally pays per-op Function objects,
kwargs plumbing and a topological sort, even though training steps, MD
trajectories and serving micro-batches replay the *same* graph over
fixed shape buckets thousands of times.  The pieces:

* :func:`~repro.runtime.plan.record_tape` /
  :class:`~repro.runtime.plan.TapeRecorder` — a capture hook in
  :meth:`repro.autograd.engine.Function.apply` logs one ordinary eager
  pass into a tape;
* :class:`~repro.runtime.plan.CompiledPlan` — lowers the tape to a
  static, topo-ordered instruction list with resolved input slots,
  dead-node elimination, constant folding of parameter-free subgraphs
  (edge geometry, spherical harmonics, radial features of whatever the
  capture did not bind as an input), a compiled backward with
  preallocated gradient buffers, and a
  guard-checked :meth:`~repro.runtime.plan.CompiledPlan.replay` that
  raises :class:`~repro.runtime.plan.PlanStale` instead of ever
  replaying stale shapes or dtypes;
* :class:`~repro.runtime.cache.PlanCache` — a bounded LRU with one
  capture-or-replay protocol (``PlanCache.run``).  Training-loss,
  energy and force plans all key on the batch's shape bucket and rebind
  all content per replay — inputs carry the content, the key carries
  only what the graph burns in — so reshuffled epochs, bursty serving
  traces and MD trajectories across Verlet rebuilds replay a handful of
  plans.

Threaded through the stack by default — ``Trainer(plan_cache="auto")``,
``MACECalculator(compiled="auto")`` and ``InferenceEngine(plan_cache=
"auto")`` each own a cache and hand it to ``MACE.predict_energy`` /
``MACE.forces`` / ``MACE.energy_and_forces`` as ``compiled=`` (``None``
there means eager) — with transparent eager fallback on any cache miss,
guard rejection or model hot swap.  ``tests/test_runtime.py`` and
``tests/test_bucketed_plans.py`` hold the 1e-10 energy/force/gradient
equivalence contract against the eager engine and the
one-capture-per-shape-bucket count on reshuffled epochs and served
traces; replay time is
the ``runtime.replay_s`` / ``training.step_p50_ms`` metrics of
``python -m bench.run`` (workload ``train_fixed_plan``).
"""

from .cache import PlanCache, resolve_plan_cache
from .plan import CompiledPlan, PlanStale, TapeRecorder, record_tape

__all__ = [
    "CompiledPlan",
    "PlanCache",
    "PlanStale",
    "TapeRecorder",
    "record_tape",
    "resolve_plan_cache",
]
