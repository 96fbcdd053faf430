"""Plan caching: the LRU, its keys and the capture-or-replay protocol.

A :class:`~repro.runtime.plan.CompiledPlan` is specific to the array
*shapes* of its capture and to whatever the capture folded as constants;
everything it bound as an input is rebound per replay.  Every plan in
the repository — training loss (:class:`repro.training.Trainer`),
energy (:meth:`repro.mace.MACE.predict_energy`) and forces
(:meth:`repro.mace.MACE.energy_and_forces`) — binds all batch content
as inputs, so a key covers the folded part only: the caller names the
plan kind, the owning model object and the Python scalars the recorded
graph burns in (the padded graph count; the mask radius for forces;
the scaler and loss weighting for losses), and :meth:`PlanCache.run`
appends the shapes and dtypes of the inputs.  One plan then serves
every batch of a shape bucket, and it has no content to go stale: a
replay computes on the arrays it is handed, and a shape or dtype
change of any of them is a new key and a fresh capture.

:class:`PlanCache` is the bounded LRU holding the plans, with hit /
miss / capture / stale counters, and :meth:`PlanCache.run` is the one
lookup → replay → fallback → capture sequence every entry point uses.
Its plans draw their arena buffers and fused-chain scratch from one
:class:`~repro.runtime.plan.Arena` owned by the cache — one grow-only
slab per thread, sized to the largest plan instead of the sum of all.
Hot-swapping a served model clears the engine's cache wholesale (see
``InferenceEngine.swap_model``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from .plan import Arena, CompiledPlan, PlanStale, record_tape

__all__ = ["PlanCache", "resolve_plan_cache"]


def resolve_plan_cache(value) -> Optional["PlanCache"]:
    """Normalize a ``plan_cache``/``compiled`` constructor argument.

    The shared convention across ``Trainer``, ``MACECalculator`` and
    ``InferenceEngine``: ``"auto"`` (or ``True``) builds a fresh private
    cache, ``None``/``False`` disables compiled execution, and an
    existing :class:`PlanCache` is used as-is (sharing allowed).
    """
    if value is None or value is False:
        return None
    if value == "auto" or value is True:
        return PlanCache()
    if isinstance(value, PlanCache):
        return value
    raise TypeError(
        f"plan cache must be 'auto', None, a bool or a PlanCache, got {value!r}"
    )


class PlanCache:
    """Bounded LRU cache of :class:`CompiledPlan` objects.

    Parameters
    ----------
    maxsize:
        Maximum number of cached plans (least-recently-used eviction);
        ``None`` means unbounded.
    verify:
        ``"auto"`` (default) statically verifies each plan once on
        insertion (:func:`repro.analysis.verify_plan`) so a miscompiled
        plan can never be replayed — :meth:`put` raises
        :class:`~repro.analysis.PlanInvalid` pinpointing the offending
        instruction.  ``None``/``False`` disables verification.  This is
        a build-time cost only: replays never re-verify.

    Attributes
    ----------
    hits, misses, captures, stale, verified:
        Counters: replay-served lookups, key misses, plans stored after
        a fresh capture, guard-rejected replays (``PlanStale``), and
        insertion-time verifications run.
    """

    def __init__(self, maxsize: Optional[int] = 64, verify: object = "auto") -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive (or None)")
        if verify not in ("auto", True, False, None):
            raise ValueError(f"verify must be 'auto', a bool or None, got {verify!r}")
        self.maxsize = maxsize
        self.verify = verify in ("auto", True)
        self.hits = 0
        self.misses = 0
        self.captures = 0
        self.stale = 0
        self.verified = 0
        self._store: "OrderedDict[object, CompiledPlan]" = OrderedDict()
        self._arena = Arena()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key) -> Optional[CompiledPlan]:
        """The cached plan for ``key``, bumping recency; ``None`` on miss."""
        plan = self._store.get(key)
        if plan is None:
            self.misses += 1
            return None
        self.hits += 1
        self._store.move_to_end(key)
        return plan

    def put(self, key, plan: CompiledPlan) -> CompiledPlan:
        """Store a freshly captured plan (evicting LRU past ``maxsize``).

        The plan moves its scratch into the cache's shared slab first.
        With ``verify="auto"`` it is then statically verified;
        :class:`~repro.analysis.PlanInvalid` propagates to the caller
        and nothing is stored — a miscompile can never be replayed.
        """
        plan._adopt(self._arena)
        if self.verify:
            # Imported lazily: repro.analysis pulls in the kernel and
            # model modules for its per-op rules, which themselves
            # import repro.runtime.
            from ..analysis.verifier import verify_plan

            verify_plan(plan)
            self.verified += 1
        self.captures += 1
        self._store[key] = plan
        self._store.move_to_end(key)
        if self.maxsize is not None and len(self._store) > self.maxsize:
            self._store.popitem(last=False)
        return plan

    def run(self, key, inputs, eager, compute_grads: bool = True):
        """Replay ``key``'s plan on ``inputs``, capturing it on a miss.

        The one capture-or-replay protocol.  The plan is filed under
        ``key`` extended by the shapes and dtypes of ``inputs`` (arrays),
        so the caller's ``key`` names only what the recorded graph folds
        in beyond them.  ``eager()`` runs the pass
        the plan stands for and returns ``(result, plan_kwargs)``:
        ``result`` in :meth:`CompiledPlan.replay`'s ``(outputs,
        input_grads)`` form and ``plan_kwargs`` the
        :class:`CompiledPlan` arguments describing the pass
        (``outputs``, ``seed``, ``inputs``, ...).  A hit replays; a miss
        runs ``eager`` under :func:`record_tape`, compiles and stores the
        plan; a guard-rejected replay (:class:`PlanStale`) drops the
        entry and answers from a plain ``eager()`` pass, so the next
        call recaptures against the drifted shapes.
        """
        key = (key, tuple((a.shape, a.dtype.str) for a in inputs))
        plan = self.get(key)
        if plan is not None:
            try:
                return plan.replay(*inputs, compute_grads=compute_grads)
            except PlanStale:
                self.invalidate(key)
                return eager()[0]
        with record_tape() as tape:
            result, plan_kwargs = eager()
        self.put(key, CompiledPlan(tape, **plan_kwargs))
        return result

    def invalidate(self, key) -> None:
        """Drop one entry (called after a ``PlanStale`` replay guard)."""
        self.stale += 1
        self._store.pop(key, None)

    def clear(self) -> None:
        """Drop every plan (model hot-swap / registry publish path)."""
        self._store.clear()

    def stats(self) -> Dict[str, float]:
        """Counters, the replay hit rate and the calling thread's slab bytes."""
        total = self.hits + self.misses
        slab = self._arena.current()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "captures": self.captures,
            "stale": self.stale,
            "verified": self.verified,
            "size": len(self._store),
            "hit_rate": self.hits / total if total else 0.0,
            "arena_bytes": 0 if slab is None else slab.nbytes,
        }
