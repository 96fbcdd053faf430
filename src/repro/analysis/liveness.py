"""Buffer liveness, view aliasing and donation legality for compiled plans.

This pass produces the artifact the plan compiler's op fusion, ``out=``
buffer donation and arena planning (:mod:`repro.runtime.plan`) consume:
for every value slot of a
:class:`~repro.runtime.plan.CompiledPlan`, the interval of program time
during which its buffer must stay intact, plus the alias structure that
makes overwriting it legal or not.

Program time is the concatenated instruction list: forward instructions
occupy ``0 .. F-1``, backward instructions ``F .. F+B-1``.  A slot's
interval opens at its defining instruction (or ``-1`` for constants,
inputs and parameters, which exist before the program runs) and closes
at its last read.  Three subtleties:

* **Saved activations** — a backward rule may re-read arrays its forward
  saved.  Ops whose ``saved`` holds only shapes/indices (``Add``,
  ``Sum``, ``GatherRows``, ...) release their operands immediately; ops
  that save operand arrays (``Mul``, ``MatMul``, kernels) keep them
  live until their backward instruction runs; ops that reuse their
  *output* (``Exp``, ``Tanh``) keep that live instead.  The
  classification lives in :data:`SAVED_ARRAYS` — unknown ops default to
  the conservative ``"inputs+out"``.
* **View aliasing** — ``Reshape``/``Transpose``/basic-index ``GetItem``
  outputs (can) share memory with their operand, so a donation is legal
  only when the *entire alias class* is dead, and only when the class
  is rooted in a plan-owned node (never an input, parameter or folded
  constant, whose storage the caller owns).
* **Donation pairs** — instruction ``i`` may write its output into the
  buffer of operand slot ``d`` iff ``d``'s alias class is plan-owned,
  every member's last use is at or before ``i``, and shape, dtype and
  hence byte count match exactly.

:func:`analyze_liveness` also simulates the allocator over the intervals
for a peak-transient-memory estimate and cross-checks that the plan's
preallocated gradient-accumulation buffers do not alias any folded
constant (a write to a still-live alias would corrupt later replays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autograd.engine import _is_basic_index

__all__ = ["SAVED_ARRAYS", "SlotInterval", "DonationPair", "LivenessReport", "analyze_liveness"]

# What each op's backward re-reads from its forward ``saved`` state:
# "none" (shapes/index plans only), "inputs", "out", or "inputs+out".
# Unknown op names fall back to "inputs+out" — always safe, never wrong.
SAVED_ARRAYS: Dict[str, str] = {
    "Add": "none",
    "Sub": "none",
    "Neg": "none",
    "Sum": "none",
    "Mean": "none",
    "Reshape": "none",
    "Transpose": "none",
    "GetItem": "none",
    "Where": "none",
    "Concatenate": "none",
    "GatherRows": "none",
    "SegmentSum": "none",
    "ReLU": "none",  # saves a freshly allocated mask, not the operand
    "Mul": "inputs",
    "Div": "inputs",
    "Pow": "inputs",
    "MatMul": "inputs",
    "Log": "inputs",
    "Softplus": "inputs",
    "SiLU": "inputs",
    "Clip": "inputs",
    "_ChannelMix": "inputs",
    "_BesselBasis": "inputs",
    "_SphericalHarmonicsOp": "inputs",
    "_ChannelwiseTPBaseline": "inputs",
    "_ChannelwiseTPOptimized": "inputs",
    "_SymContractionBaseline": "inputs",
    "_SymContractionOptimized": "inputs",
    "Exp": "out",
    "Sqrt": "out",
    "Tanh": "out",
    "Sigmoid": "out",
    "_EdgeNorm": "inputs+out",
    # Fallback only: live instances carry a per-chain ``saved_arrays``
    # attribute (instance classification wins, see analyze_liveness).
    "_FusedElementwise": "inputs",
}

# Ops whose output is (or may be) a view of their first operand.
_VIEW_OPS = {"Reshape", "Transpose"}


@dataclass
class SlotInterval:
    """One slot's lifetime in program time."""

    slot: int
    kind: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    first_def: int  # -1 for values that exist before the program
    last_use: int  # -1 if never read

    @property
    def nbytes(self) -> int:
        return prod(self.shape) * self.dtype.itemsize


@dataclass
class DonationPair:
    """Instruction ``index`` may write its output into ``donor``'s buffer."""

    index: int
    op: str
    donor: int
    out_slot: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    nbytes: int


@dataclass
class LivenessReport:
    intervals: List[SlotInterval]
    alias_classes: List[List[int]]  # multi-member classes only
    donations: List[DonationPair]
    peak_bytes: int
    peak_at: int
    baseline_bytes: int
    n_forward: int
    n_backward: int
    alias_violations: List[str] = field(default_factory=list)

    def format(self) -> str:
        """Human-readable report (the ``repro.cli plan-report`` payload)."""
        lines = [
            f"program: {self.n_forward} forward + {self.n_backward} backward instructions, "
            f"{len(self.intervals)} slots",
            f"resident (constants/inputs/params): {_fmt_bytes(self.baseline_bytes)}",
            f"peak transient (node buffers): {_fmt_bytes(self.peak_bytes)} "
            f"at {_fmt_time(self.peak_at, self.n_forward)}",
            f"alias classes with >1 member: {len(self.alias_classes)}",
            f"legal donation pairs: {len(self.donations)}",
        ]
        for d in self.donations:
            lines.append(
                f"  forward[{d.index}] {d.op}: slot {d.donor} -> slot {d.out_slot}  "
                f"{d.shape} {d.dtype} ({_fmt_bytes(d.nbytes)})"
            )
        if self.alias_violations:
            lines.append("ALIAS VIOLATIONS:")
            lines.extend(f"  {v}" for v in self.alias_violations)
        return "\n".join(lines)


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"


def _fmt_time(t: int, n_forward: int) -> str:
    if t < 0:
        return "program start"
    if t < n_forward:
        return f"forward[{t}]"
    return f"backward[{t - n_forward}]"


def storage_bounds(a: np.ndarray) -> tuple:
    """Half-open byte range [start, end) an array's storage can touch.

    Matches the bounds ``np.may_share_memory`` uses, so an interval
    overlap between two arrays is exactly what that predicate reports.
    """
    # One __array_interface__ access yields both the base pointer and
    # the contiguity signal (strides is None for C order) — cheaper than
    # a separate a.flags probe on the verifier's per-insert hot path.
    interface = a.__array_interface__
    start = interface["data"][0]
    if interface["strides"] is None:
        return start, start + a.nbytes
    span = a.itemsize + sum(
        (s - 1) * abs(st) for s, st in zip(a.shape, a.strides) if s > 0
    )
    return start, start + span


def constant_bounds(plan) -> tuple:
    """Storage bounds for every constant slot in ``plan._values``.

    Returns ``(slots, starts, ends)`` with the latter two as arrays, so
    callers can test many candidate buffers with one vectorized overlap
    check each instead of a per-constant ``np.may_share_memory`` sweep.
    """
    slots: List[int] = []
    starts: List[int] = []
    ends: List[int] = []
    for slot, value in enumerate(plan._values):
        if value is not None:
            lo, hi = storage_bounds(value)
            slots.append(slot)
            starts.append(lo)
            ends.append(hi)
    return slots, np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)


def _liveness_core(plan):
    """Minimal shared liveness computation, no report objects.

    Returns ``(first_def, last_use, members, donations)`` — def/use
    times per slot, union-find alias classes keyed by root, and legal
    donation triples ``(index, donor, out_slot)``.  This is the part
    the verifier's arena audit re-derives on every verified insert, so
    it stays allocation-light; :func:`analyze_liveness` layers the
    human-facing report (intervals, byte accounting) on top.
    """
    meta = plan.meta
    forward = plan._forward
    backward = plan._backward or []
    n_forward = len(forward)
    n_slots = plan._n_slots

    first_def = [-2] * n_slots  # -2: never defined (unreferenced slot)
    last_use = [-1] * n_slots
    for slot, value in enumerate(plan._values):
        if value is not None:
            first_def[slot] = -1
    for slot, _, _ in plan._input_specs:
        first_def[slot] = -1
    for entry in plan._param_specs:
        first_def[entry[0]] = -1

    # Function instances are pinned by plan._forward for the plan's
    # lifetime, so their id()s cannot be recycled while we analyze.
    backward_time = {
        id(binstr.call.__self__): n_forward + j  # lint: allow-id-keyed-dict
        for j, binstr in enumerate(backward)
    }

    def use(slot: int, t: int) -> None:
        last_use[slot] = max(last_use[slot], t)

    saved_default = SAVED_ARRAYS.get
    for i, instr in enumerate(forward):
        fn = instr.fn
        first_def[instr.out_slot] = i
        for slot in instr.tensor_slots:
            if i > last_use[slot]:
                last_use[slot] = i
        t_bwd = backward_time.get(id(fn))  # lint: allow-id-keyed-dict
        if t_bwd is not None:
            # Instance classification first: plan-private Functions (the
            # fused-chain wrapper) declare their own ``saved_arrays``.
            saved = getattr(fn, "saved_arrays", None) or saved_default(
                type(fn).__name__, "inputs+out"
            )
            if saved in ("inputs", "inputs+out"):
                for slot in instr.tensor_slots:
                    if t_bwd > last_use[slot]:
                        last_use[slot] = t_bwd
            if saved in ("out", "inputs+out"):
                if t_bwd > last_use[instr.out_slot]:
                    last_use[instr.out_slot] = t_bwd

    end = n_forward + len(backward)
    for slot in plan._output_slots:
        use(slot, end)
    if plan._seed_slot is not None:
        use(plan._seed_slot, end)
    for slot, _ in plan._param_grad_slots:
        use(slot, end)

    # -- alias classes (union-find over view-producing instructions).
    parent = list(range(n_slots))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for instr in forward:
        name = type(instr.fn).__name__
        is_view = name in _VIEW_OPS or (
            name == "GetItem" and _is_basic_index(instr.kwargs["key"])
        )
        if is_view and instr.tensor_slots:
            union(instr.out_slot, instr.tensor_slots[0])

    members: Dict[int, List[int]] = {}
    for s in range(n_slots):
        if first_def[s] == -2 and last_use[s] == -1:
            continue  # slot never participates in the live program
        members.setdefault(find(s), []).append(s)

    # -- donation pairs.
    donations: List[tuple] = []
    for i, instr in enumerate(forward):
        name = type(instr.fn).__name__
        out = instr.out_slot
        out_shape, out_dtype = meta.slot_shapes[out], meta.slot_dtypes[out]
        if name in _VIEW_OPS or name == "GetItem":
            continue  # view outputs need no buffer at all
        for donor in dict.fromkeys(instr.tensor_slots):
            if meta.slot_shapes[donor] != out_shape:
                continue
            if meta.slot_dtypes[donor] != out_dtype:
                continue
            cls = members.get(find(donor), [donor])
            if any(meta.kinds[m] != "node" or meta.const[m] for m in cls):
                continue  # caller- or plan-constant-owned storage
            if any(last_use[m] > i for m in cls):
                continue  # somebody still reads this storage later
            donations.append((i, donor, out))
            break  # one donor per instruction is all a planner can use

    return first_def, last_use, members, donations


def analyze_liveness(plan) -> LivenessReport:
    """Compute liveness intervals, alias classes and donation pairs."""
    meta = plan.meta
    forward = plan._forward
    backward = plan._backward or []
    n_forward, n_backward = len(forward), len(backward)
    n_slots = plan._n_slots

    first_def, last_use, members, raw_donations = _liveness_core(plan)

    intervals = [
        SlotInterval(
            slot=s,
            kind=meta.kinds[s],
            shape=meta.slot_shapes[s],
            dtype=meta.slot_dtypes[s],
            first_def=first_def[s],
            last_use=last_use[s],
        )
        for s in range(n_slots)
    ]
    alias_classes = [c for c in members.values() if len(c) > 1]
    donations = [
        DonationPair(
            index=i,
            op=type(forward[i].fn).__name__,
            donor=donor,
            out_slot=out,
            shape=meta.slot_shapes[out],
            dtype=meta.slot_dtypes[out],
            nbytes=intervals[donor].nbytes,
        )
        for i, donor, out in raw_donations
    ]

    # -- peak transient memory over node buffers (alias classes counted once).
    baseline = sum(iv.nbytes for iv in intervals if iv.first_def == -1)
    events: Dict[int, int] = {}
    for root, cls in members.items():
        if any(meta.kinds[m] != "node" or meta.const[m] for m in cls):
            continue
        defs = [first_def[m] for m in cls if first_def[m] >= 0]
        if not defs:
            continue
        opens = min(defs)
        closes = max(last_use[m] for m in cls)
        nbytes = max(intervals[m].nbytes for m in cls)
        if closes < opens:
            closes = opens
        events[opens] = events.get(opens, 0) + nbytes
        events[closes + 1] = events.get(closes + 1, 0) - nbytes
    peak = current = 0
    peak_at = -1
    for t in sorted(events):
        current += events[t]
        if current > peak:
            peak, peak_at = current, t

    # -- writes to still-live aliases: the plan's in-place accumulation
    # targets (gradient buffers, seed buffer) must not share memory with
    # any folded constant it replays from.
    violations: List[str] = []
    buffers = []
    for binstr in backward:
        for _, slot, buffer in binstr.targets:
            if buffer is not None:
                buffers.append((f"gradient buffer for slot {slot}", buffer))
    if plan._seed_buffer is not None:
        buffers.append(("seed accumulation buffer", plan._seed_buffer))
    if buffers:
        # One storage-bounds table for all constants, then a vectorized
        # overlap test per buffer (exact for whole allocations, and the
        # same bounds np.may_share_memory uses).
        const_slots, starts, ends = constant_bounds(plan)
        for label, buffer in buffers:
            b0, b1 = storage_bounds(buffer)
            for k in np.flatnonzero((starts < b1) & (b0 < ends)):
                violations.append(
                    f"{label} aliases constant slot {const_slots[k]}"
                )

    return LivenessReport(
        intervals=intervals,
        alias_classes=alias_classes,
        donations=donations,
        peak_bytes=peak,
        peak_at=peak_at,
        baseline_bytes=baseline,
        n_forward=n_forward,
        n_backward=n_backward,
        alias_violations=violations,
    )
