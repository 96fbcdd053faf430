"""Tape capture and compiled replay of autograd execution plans.

The eager engine in :mod:`repro.autograd.engine` pays per-op Python
costs on every call: a :class:`~repro.autograd.engine.Function` object,
``isinstance`` scans over the argument tuple, a fresh
:class:`~repro.autograd.engine.Tensor` wrapper, and — on ``backward()``
— a full topological sort plus serial-keyed gradient dictionaries.
Training steps, MD trajectories and serving micro-batches replay the
*same* graph over fixed shape buckets thousands of times, so this module
separates graph *capture* from graph *execution*:

* :func:`record_tape` installs a :class:`TapeRecorder` into the engine;
  one ordinary eager pass through any model code logs every Function
  application (the function instance, its argument sources, its output).
* :class:`CompiledPlan` lowers that tape into a static instruction list:
  topo-ordered ``Function.forward`` calls with input slots resolved at
  compile time, a mirrored reverse list of ``Function.backward`` calls
  with gradient-accumulation targets resolved to preallocated buffers,
  dead-node elimination for values nobody consumes, and constant folding
  of subgraphs that depend on no replay input or parameter (for a
  training-step plan this folds the whole edge-geometry pipeline —
  spherical harmonics, Bessel features — which the eager loop recomputes
  every step).
* :meth:`CompiledPlan.replay` re-executes the plan on fresh input arrays
  and freshly read parameter values with **no Tensor or tape
  allocation**, after a guard pass that verifies input/parameter shapes
  and dtypes still match the capture (:class:`PlanStale` on mismatch —
  callers fall back to eager).

With ``optimize=True`` (the default) two more compiler passes run after
DCE and constant folding, turning 1:1 replay into genuinely *compiled*
execution:

* **Elementwise chain fusion** — maximal single-consumer chains of
  elementwise/reduction ops collapse into one
  :class:`_FusedElementwise` instruction whose interior temporaries live
  in fused-chain scratch regions of the arena slab and never appear as
  plan slots (``n_fused_away`` counts the eliminated instructions).
* **Arena memory planning** — the liveness/donation analysis of
  :mod:`repro.analysis.liveness` drives the ``out=`` protocol of
  :class:`~repro.autograd.engine.Function`: each ``supports_out``
  instruction either *donates* a dead operand's buffer (alias-safe ops
  only) or writes into a preallocated arena buffer recycled across dead
  slots, so steady-state replay performs near-zero array allocation
  (``n_alloc_instrs`` counts the residual fresh allocations; plan
  *outputs* are always freshly allocated so callers may keep them).
  The fusion and donation trail is recorded in :class:`PlanMeta` and
  re-checked statically by :func:`repro.analysis.verify_plan`.

Contract
--------
Replay runs the *identical* ``forward`` methods in the identical order
as the capture, so forward outputs are bitwise equal to eager for equal
inputs.  Backward contributions may accumulate in a different (still
valid reverse-topological) order than the eager DFS, so gradients agree
with eager to floating-point reassociation error (far below the 1e-10
equivalence gate of ``tests/test_runtime.py``).  Parameters are
*inputs* of every replay — their ``.data`` is re-read on each call, so
in-place optimizer updates are always visible and never stale.  Replay
*overwrites* ``.grad`` on its leaves rather than accumulating into
pre-existing values; zero grads first (as ``Trainer`` does) when mixing
eager and compiled steps.

Buffers
-------
A plan's arena buffers and fused-chain scratch are *scratch*: nothing in
them is live once a replay returns.  They are views into one
:class:`Arena` slab per thread, shared by every plan of a
:class:`~repro.runtime.cache.PlanCache` and sized to the largest of
them (a plan outside any cache has an arena of its own).  Outputs and
gradients never live there: plan outputs are freshly allocated per
replay, and ``param.grad``, returned input gradients and the backward
accumulation buffers are fresh arrays or plan-private buffers.  Those
private buffers may be reused by the next replay of the *same* plan, so
a gradient is valid until then — the lifetime every in-repo consumer
(optimizer step, DDP gradient copy, force integration) needs.  Replay
drops every other gradient as soon as the one backward instruction that
reads it has run.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import engine as _engine
from ..autograd.engine import Function, Tensor, _is_basic_index
from ..utils.alloc import colored_empty

__all__ = ["PlanStale", "PlanMeta", "TapeRecorder", "record_tape", "CompiledPlan", "Arena"]


class PlanStale(RuntimeError):
    """A compiled plan no longer matches its inputs/parameters.

    Raised by the replay guard before any computation happens (shape or
    dtype drift of an input array or a parameter, wrong input count).
    Callers catch it, invalidate the cache entry and fall back to eager.
    """


class TapeRecorder:
    """Collects ``(fn, args, kwargs, out)`` for every Function applied.

    Strong references to the recorded tensors are held by the records
    themselves (``fn.inputs`` and ``out``); slot assignment in
    :class:`CompiledPlan` keys on tensor *serial numbers*, which are
    never recycled, so it is collision-free unconditionally.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[tuple] = []

    def record(self, fn, args, kwargs, out) -> None:
        self.records.append((fn, args, kwargs, out))

    def __len__(self) -> int:
        return len(self.records)


@contextlib.contextmanager
def record_tape():
    """Context manager recording every autograd op into a fresh tape.

    Recording composes with ``no_grad()`` (capture an inference-only
    plan) and with grad mode (capture a plan that can compile a
    backward).  Nested recording is refused — a capture inside a capture
    would attribute ops to the wrong plan.
    """
    recorder = TapeRecorder()
    previous = _engine._set_recorder(recorder)
    if previous is not None:  # pragma: no cover - defensive
        _engine._set_recorder(previous)
        raise RuntimeError("nested tape recording is not supported")
    try:
        yield recorder
    finally:
        _engine._set_recorder(None)


class Arena:
    """Grow-only scratch slabs, one per thread, shared by a cache's plans.

    Nothing in a plan's arena buffers or fused-chain scratch is live
    between replays, and a thread replays one plan at a time, so every
    plan replaying on one thread can draw its scratch from the same
    bytes: the slab is sized to the largest plan, not the sum of them.
    Each thread gets a slab of its own, so two threads replaying
    different plans of one cache never share bytes (one plan still
    replays on one thread at a time).  The slab lives as long as the
    arena, which the cache and its plans own.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def current(self) -> Optional[np.ndarray]:
        """The calling thread's slab, ``None`` before its first bind."""
        return getattr(self._local, "slab", None)

    def slab(self, plan: "CompiledPlan", nbytes: int) -> np.ndarray:
        """The calling thread's slab grown to ``nbytes``, bound by ``plan``.

        Growing first drops the views this thread's plans hold into the
        old slab, so it is freed before the new one is allocated; each
        such plan rebinds on its next replay.
        """
        local = self._local
        slab = self.current()
        if slab is None or slab.nbytes < nbytes:
            for bound in getattr(local, "plans", ()):
                if bound._slab is slab:
                    bound._unbind()
            local.plans = weakref.WeakSet()
            local.slab = slab = None  # the old slab's last references
            slab = local.slab = np.empty(nbytes, dtype=np.uint8)
        local.plans.add(plan)
        return slab


class PlanMeta:
    """Build-time facts about a plan, retained for :mod:`repro.analysis`.

    Recorded while the capture tape is still in scope, so the static
    verifier and liveness passes can check the lowered program without
    re-running capture: per-slot shapes/dtypes of every value (including
    folded constants and DCE'd intermediates), slot kinds, which slots
    the constant folder reclassified, and an audit trail of every
    instruction dropped by dead-node elimination or folding, every chain
    collapsed by fusion and every buffer donation the arena planner
    consumed.
    """

    __slots__ = (
        "slot_shapes",
        "slot_dtypes",
        "kinds",
        "const",
        "dropped",
        "folded",
        "fused",
        "donated",
    )

    def __init__(
        self, slot_shapes, slot_dtypes, kinds, const, dropped, folded,
        fused=(), donated=(),
    ):
        self.slot_shapes = slot_shapes  # tuple[shape] per slot
        self.slot_dtypes = slot_dtypes  # tuple[np.dtype] per slot
        self.kinds = kinds  # tuple['const'|'input'|'param'|'node']
        self.const = const  # tuple[bool]: const after folding
        self.dropped = dropped  # ((op_name, out_slot, tensor_slots), ...)
        self.folded = folded  # ((op_name, out_slot, tensor_slots), ...)
        self.fused = fused  # ((member_ops, out_slot, interior_slots), ...)
        self.donated = donated  # ((index, op_name, donor_slot, out_slot), ...)


class _ForwardInstr:
    """One replayable forward call with compile-time-resolved inputs."""

    __slots__ = (
        "fn",
        "call",
        "args",
        "bindings",
        "kwargs",
        "out_slot",
        "tensor_slots",
        "out_buffer",
        "donor_slot",
    )

    def __init__(self, fn, args, bindings, kwargs, out_slot, tensor_slots):
        self.fn = fn
        # kwargs are constants of the plan; bind them once so the replay
        # loop is a plain positional call.  The raw dict is kept for the
        # static verifier (repro.analysis), which re-derives output
        # shapes from the argument template without running anything.
        self.call = (
            functools.partial(fn.forward, **kwargs) if kwargs else fn.forward
        )
        self.args = args  # positional template; Tensor positions rebound
        self.bindings = bindings  # [(position, slot), ...]
        self.kwargs = kwargs
        self.out_slot = out_slot
        self.tensor_slots = tensor_slots  # slots in Tensor-argument order
        # Filled by the arena planner (optimize=True): a preallocated
        # static buffer the forward writes into, or the slot whose
        # (dead) replay buffer the write may reuse.  Mutually exclusive.
        self.out_buffer: Optional[np.ndarray] = None
        self.donor_slot: Optional[int] = None

    # out_buffer views into the arena slab are scratch, not state: the
    # plan re-derives them from its layout recipe on the first replay
    # after unpickling (see CompiledPlan._bind).
    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "out_buffer"
        }

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self.out_buffer = None


class _BackwardInstr:
    """One replayable backward call with grad-accumulation targets."""

    __slots__ = ("call", "out_slot", "targets")

    def __init__(self, fn, out_slot, targets):
        self.call = fn.backward
        self.out_slot = out_slot
        # targets: [(grad_index, slot, buffer_or_None), ...] where
        # grad_index indexes fn.backward's return tuple (Tensor-argument
        # order, matching the eager engine's zip over fn.inputs).
        self.targets = targets

    # Accumulation buffers are rebuilt by the owning plan when it is
    # unpickled; serialize only whether a target needs one.
    def __getstate__(self):
        return {
            "call": self.call,
            "out_slot": self.out_slot,
            "targets": [
                (grad_index, slot, buffer is not None)
                for grad_index, slot, buffer in self.targets
            ],
        }

    def __setstate__(self, state) -> None:
        self.call = state["call"]
        self.out_slot = state["out_slot"]
        self.targets = [tuple(t) for t in state["targets"]]


# Ops the chain fuser may absorb.  Every entry implements the ``out=``
# protocol, so fused chains stream through preallocated scratch without
# allocating.  Reductions may sit anywhere in a chain (the member shapes
# come from the capture), but a chain is only worth fusing when it
# contains at least two elementwise members — a lone op feeding a
# reduction eliminates no temporary and saves no dispatch.
_FUSABLE_ELEMENTWISE = frozenset({
    "Add", "Sub", "Mul", "Div", "Neg", "Pow", "Exp", "Log", "Sqrt",
    "Tanh", "Sigmoid", "Clip", "SiLU", "ReLU", "Softplus",
})
_FUSABLE_REDUCTIONS = frozenset({"Sum", "Mean"})
_FUSABLE = _FUSABLE_ELEMENTWISE | _FUSABLE_REDUCTIONS
# Fusable members whose backward re-reads the forward's *output* array.
_SAVES_OUT = frozenset({"Exp", "Sqrt", "Tanh", "Sigmoid"})


class _FusedElementwise(Function):
    """A single-consumer op chain executed as one fused instruction.

    The fusion pass in :class:`CompiledPlan` collapses maximal chains of
    elementwise/reduction ops in which every interior value has exactly
    one consumer — the next chain member — into one instance of this
    Function.  Members execute sequentially through scratch buffers the
    plan binds into its arena slab (a region per chain, disjoint from
    the arena buffers and from other chains, so member saves stay valid
    until the chain's backward), so interior temporaries are never
    allocated (or even visible as slots) during replay; only the final
    member writes the plan-provided ``out`` buffer.  Each member
    runs its original ``forward`` on the same operand values in the same
    order, so fused results stay bitwise equal to eager execution.

    The backward walks the members in reverse, feeding each interior
    gradient straight to its producer and accumulating gradients of the
    chain's *external* operands, aligned with the fused instruction's
    ``tensor_slots`` — exactly the contract :class:`_BackwardInstr`
    expects.  ``out_alias_safe`` is inherited from the final member (the
    only one that touches the plan-provided buffer), and the liveness
    classification (``saved_arrays``) declares the external arrays the
    member backwards re-read.
    """

    supports_out = True

    def __init__(self, members, slot_arrays) -> None:
        super().__init__()
        self._members = list(members)
        interior = {m.out_slot for m in self._members[:-1]}
        ext: List[int] = []
        for member in self._members:
            for slot in member.tensor_slots:
                if slot not in interior and slot not in ext:
                    ext.append(slot)
        self._ext_slots = tuple(ext)
        self._ext_index = {slot: p for p, slot in enumerate(ext)}
        self._interior = frozenset(interior)
        # Per-member scratch, bound by the owning plan into its slab
        # (CompiledPlan._bind); the final member writes the plan-provided
        # ``out`` instead.  The spec survives pickling, the views do not.
        self._scratch_spec: Tuple[tuple, ...] = tuple(
            (slot_arrays[m.out_slot].shape, slot_arrays[m.out_slot].dtype)
            for m in self._members[:-1]
        )
        self._scratch: Optional[List[Optional[np.ndarray]]] = None
        last = type(self._members[-1].fn)
        self.out_alias_safe = last.out_alias_safe
        # Members that save their inputs re-read external operand arrays
        # at backward time; only the *final* member's saved output is a
        # plan-visible buffer (interior saves point at chain scratch).
        self.saved_arrays = "inputs+out" if last.__name__ in _SAVES_OUT else "inputs"
        self._grad_mask: Optional[tuple] = None
        self._member_run: Tuple[bool, ...] = (True,) * len(self._members)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_scratch"] = None  # rebound by the plan, never serialized
        return state

    # The plan's backward builder assigns ``grad_mask`` per instruction;
    # re-deriving per-member masks here lets each member's backward rule
    # skip gradients nobody consumes (e.g. no dC arrays for folded
    # constants), exactly as the unfused instructions would.
    @property
    def grad_mask(self):
        return self._grad_mask

    @grad_mask.setter
    def grad_mask(self, mask) -> None:
        self._grad_mask = mask
        if mask is None:
            self._member_run = (True,) * len(self._members)
            for member in self._members:
                member.fn.grad_mask = None
            return
        needed = {s for s, wanted in zip(self._ext_slots, mask) if wanted}
        run: List[bool] = []
        for member in self._members:
            m_mask = tuple(s in needed for s in member.tensor_slots)
            member.fn.grad_mask = m_mask
            run.append(any(m_mask))
            if run[-1]:
                needed.add(member.out_slot)
        self._member_run = tuple(run)

    def forward(self, *ext, out=None):
        local: Dict[int, np.ndarray] = {}
        index = self._ext_index
        result = None
        for member, buf in zip(self._members, self._scratch):
            args = member.args
            for position, slot in member.bindings:
                p = index.get(slot)
                args[position] = ext[p] if p is not None else local[slot]
            if buf is None:
                buf = out  # final member; out=None falls through to eager
            result = member.call(*args) if buf is None else member.call(*args, out=buf)
            local[member.out_slot] = result
        return result

    def backward(self, grad):
        gext: List[Optional[np.ndarray]] = [None] * len(self._ext_slots)
        glocal: Dict[int, np.ndarray] = {self._members[-1].out_slot: grad}
        index = self._ext_index
        for member, run in zip(reversed(self._members), reversed(self._member_run)):
            g = glocal.pop(member.out_slot, None)
            if g is None or not run:
                continue
            in_grads = member.fn.backward(g)
            for grad_index, slot in enumerate(member.tensor_slots):
                ig = in_grads[grad_index]
                if ig is None:
                    continue
                p = index.get(slot)
                if p is None:
                    current = glocal.get(slot)
                    glocal[slot] = ig if current is None else current + ig
                elif gext[p] is None:
                    gext[p] = ig
                else:
                    gext[p] = gext[p] + ig
        return tuple(gext)

    def infer_spec(self, args, kwargs):
        """Re-infer the chain's output spec member by member.

        Bound-method hook consumed by ``repro.analysis.specs`` (instance
        rules win over the class registry), so the plan verifier can
        check fused instructions without unfusing them.
        """
        from ..analysis.specs import infer_output_spec  # lazy: analysis imports the model stack

        local: Dict[int, object] = {}
        index = self._ext_index
        for member in self._members:
            m_args = list(member.args)
            for position, slot in member.bindings:
                p = index.get(slot)
                m_args[position] = args[p] if p is not None else local[slot]
            local[member.out_slot] = infer_output_spec(member.fn, m_args, member.kwargs)
        return local[self._members[-1].out_slot]


def _nbytes(shape, dtype) -> int:
    return int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize


def _fuse_elementwise_chains(forward, protected, slot_arrays):
    """Collapse maximal single-consumer fusable chains into fused instrs.

    ``protected`` slots (plan outputs, the backward seed) are never
    internalized.  Returns ``(new_forward, trail, n_fused_away)`` where
    ``trail`` records ``(member_ops, out_slot, interior_slots)`` per
    fused chain for :class:`PlanMeta`.
    """
    uses: Dict[int, int] = {}
    consumer: Dict[int, int] = {}
    for j, instr in enumerate(forward):
        for slot in instr.tensor_slots:
            uses[slot] = uses.get(slot, 0) + 1
            consumer[slot] = j
    n = len(forward)
    next_member: List[Optional[int]] = [None] * n
    prev_member: List[Optional[int]] = [None] * n
    for i, instr in enumerate(forward):
        if type(instr.fn).__name__ not in _FUSABLE:
            continue
        out = instr.out_slot
        if out in protected or uses.get(out) != 1:
            continue
        j = consumer[out]
        if type(forward[j].fn).__name__ not in _FUSABLE or prev_member[j] is not None:
            continue
        next_member[i] = j
        prev_member[j] = i

    replaced: Dict[int, _ForwardInstr] = {}
    dropped: set = set()
    trail: List[tuple] = []
    for i in range(n):
        if prev_member[i] is not None or next_member[i] is None:
            continue  # not the head of a chain of length >= 2
        chain = [i]
        while next_member[chain[-1]] is not None:
            chain.append(next_member[chain[-1]])
        members = [forward[k] for k in chain]
        n_elementwise = sum(
            1 for m in members if type(m.fn).__name__ in _FUSABLE_ELEMENTWISE
        )
        if n_elementwise < 2:
            continue
        fn = _FusedElementwise(members, slot_arrays)
        # The fused instruction sits at the *last* member's position:
        # every external operand is defined before its member's original
        # position, so deferring the whole chain there is always legal.
        replaced[chain[-1]] = _ForwardInstr(
            fn,
            [None] * len(fn._ext_slots),
            [(p, slot) for p, slot in enumerate(fn._ext_slots)],
            {},
            members[-1].out_slot,
            list(fn._ext_slots),
        )
        dropped.update(chain[:-1])
        trail.append(
            (
                tuple(type(m.fn).__name__ for m in members),
                members[-1].out_slot,
                tuple(m.out_slot for m in members[:-1]),
            )
        )
    if not replaced:
        return list(forward), tuple(trail), 0
    new_forward = [
        replaced.get(k, instr)
        for k, instr in enumerate(forward)
        if k not in dropped
    ]
    return new_forward, tuple(trail), len(forward) - len(new_forward)


class CompiledPlan:
    """A recorded autograd tape lowered to a static replay program.

    Parameters
    ----------
    tape:
        The :class:`TapeRecorder` of one eager pass.
    outputs:
        Tensors whose values each replay returns (in order).
    seed:
        Scalar tensor seeding the compiled backward (typically the loss
        or the summed energy); ``None`` compiles a forward-only plan.
    inputs:
        Tensors rebound to fresh arrays on every replay (e.g. the MD
        positions).  Inputs with ``requires_grad`` get their gradient
        returned by :meth:`replay`.
    grad_params:
        Whether replay writes ``.grad`` on parameter leaves (trainable
        leaf tensors encountered in the tape).  MD force plans disable
        this: eager ``backward`` always drags gradients into the model
        weights, the compiled plan prunes those branches.
    optimize:
        Run the post-lowering compiler passes (elementwise chain fusion
        and arena memory planning; see the module docstring).  ``False``
        reproduces the 1:1 record/replay behavior — one instruction per
        recorded op, every node buffer freshly allocated per replay —
        the reference the verifier-corruption and liveness tests build
        their plans with.
    owner:
        Optional object (the model) the plan was captured from, kept
        alive with it; :class:`~repro.runtime.cache.PlanCache` keys name
        the same object.

    Notes
    -----
    Construct the plan *after* running any eager ``backward()`` on the
    captured tensors — compilation strips ``fn.inputs`` from the
    retained Functions to release the capture tape's memory.
    """

    def __init__(
        self,
        tape: TapeRecorder,
        outputs: Sequence[Tensor],
        seed: Optional[Tensor] = None,
        inputs: Sequence[Tensor] = (),
        grad_params: bool = True,
        optimize: bool = True,
        owner=None,
    ) -> None:
        self.owner = owner
        records = tape.records
        inputs = tuple(inputs)
        # Slot assignment keys on tensor serial numbers: unlike id(),
        # serials are never recycled, so two distinct capture tensors can
        # never collide even if one is garbage-collected mid-build.
        input_serials = {t._serial: i for i, t in enumerate(inputs)}

        slot_of: Dict[int, int] = {}
        kinds: List[str] = []  # 'const' | 'input' | 'param' | 'node'
        tensors: List[Tensor] = []

        def leaf_slot(t: Tensor) -> int:
            slot = slot_of.get(t._serial)
            if slot is None:
                slot = len(tensors)
                slot_of[t._serial] = slot
                tensors.append(t)
                if t._serial in input_serials:
                    kinds.append("input")
                elif t.requires_grad:
                    kinds.append("param")
                else:
                    kinds.append("const")
            return slot

        for t in inputs:  # register even if unused, so replay arity is fixed
            leaf_slot(t)

        instrs: List[_ForwardInstr] = []
        for fn, args, kwargs, out in records:
            template: List = []
            bindings: List[Tuple[int, int]] = []
            tensor_slots: List[int] = []
            for position, a in enumerate(args):
                if isinstance(a, Tensor):
                    slot = leaf_slot(a)
                    template.append(None)
                    bindings.append((position, slot))
                    tensor_slots.append(slot)
                else:
                    template.append(a)
            out_slot = len(tensors)
            slot_of[out._serial] = out_slot
            tensors.append(out)
            kinds.append("node")
            instrs.append(
                _ForwardInstr(fn, template, bindings, dict(kwargs), out_slot, tensor_slots)
            )

        for t in outputs:
            leaf_slot(t)  # an output may be a leaf (degenerate plans)
        if seed is not None:
            leaf_slot(seed)
        output_slots = [slot_of[t._serial] for t in outputs]
        seed_slot = None if seed is None else slot_of[seed._serial]

        # -- dead-node elimination: keep only ancestors of outputs/seed.
        needed = set(output_slots)
        if seed_slot is not None:
            needed.add(seed_slot)
        live = [False] * len(instrs)
        for i in range(len(instrs) - 1, -1, -1):
            if instrs[i].out_slot in needed:
                live[i] = True
                needed.update(instrs[i].tensor_slots)
        self.n_recorded = len(instrs)
        self.n_dead = live.count(False)
        dropped = tuple(
            (type(instr.fn).__name__, instr.out_slot, tuple(instr.tensor_slots))
            for i, instr in enumerate(instrs)
            if not live[i]
        )

        # -- constant folding: a node fed only by constants is itself a
        # constant; its value was already computed during capture, so
        # folding just reclassifies the slot and drops the instruction.
        const = [k == "const" for k in kinds]
        forward: List[_ForwardInstr] = []
        folded: List[tuple] = []
        for i, instr in enumerate(instrs):
            if not live[i]:
                continue
            if all(const[s] for s in instr.tensor_slots):
                const[instr.out_slot] = True
                folded.append(
                    (type(instr.fn).__name__, instr.out_slot, tuple(instr.tensor_slots))
                )
                continue
            forward.append(instr)
        self.n_folded = live.count(True) - len(forward)

        # -- elementwise chain fusion: collapse single-consumer chains
        # into _FusedElementwise instructions whose interior temporaries
        # live in chain scratch (never plan slots).  Runs before the
        # backward build so interior slots never appear in the backward
        # program either.
        protected = set(output_slots)
        if seed_slot is not None:
            protected.add(seed_slot)
        fused_trail: tuple = ()
        self.n_fused_away = 0
        if optimize and forward:
            forward, fused_trail, self.n_fused_away = _fuse_elementwise_chains(
                forward, protected, [t.data for t in tensors]
            )
        self._forward = forward

        # -- values template: constants materialized once; computed,
        # input and param slots filled per replay.  Only constants that
        # replay actually reads are retained.
        n_slots = len(tensors)
        referenced = set(output_slots)
        for instr in forward:
            referenced.update(instr.tensor_slots)
        values: List[Optional[np.ndarray]] = [None] * n_slots
        for slot in referenced:
            if const[slot]:
                values[slot] = tensors[slot].data
        self._values = values
        self._n_slots = n_slots
        self._output_slots = output_slots

        # -- replay bindings for inputs and parameters (guard specs).
        self._input_specs = [
            (slot_of[t._serial], t.data.shape, t.data.dtype) for t in inputs
        ]
        param_slots = sorted(
            {s for instr in forward for s in instr.tensor_slots if kinds[s] == "param"}
        )
        self._param_specs = [
            (s, tensors[s], tensors[s].data.shape, tensors[s].data.dtype)
            for s in param_slots
        ]

        # -- build metadata for the static analyses, captured while the
        # per-slot capture tensors are still reachable.
        self.meta = PlanMeta(
            slot_shapes=tuple(t.data.shape for t in tensors),
            slot_dtypes=tuple(t.data.dtype for t in tensors),
            kinds=tuple(kinds),
            const=tuple(const),
            dropped=dropped,
            folded=tuple(folded),
            fused=fused_trail,
        )

        # -- compiled backward: reversed instruction order is a valid
        # reverse-topological order of the recorded DAG.
        self._backward: Optional[List[_BackwardInstr]] = None
        self._seed_slot = seed_slot
        self._seed_grad: Optional[np.ndarray] = None
        self._seed_buffer: Optional[np.ndarray] = None
        self._param_grad_slots: List[Tuple[int, Tensor]] = []
        self._input_grad_slots: List[Optional[int]] = []
        if seed is not None:
            wants = [False] * n_slots
            for s in param_slots:
                if grad_params:
                    wants[s] = True
            for t in inputs:
                if t.requires_grad:
                    wants[slot_of[t._serial]] = True
            needs = list(wants)
            for instr in forward:
                if any(needs[s] for s in instr.tensor_slots):
                    needs[instr.out_slot] = True

            contributions = [0] * n_slots
            contributions[seed_slot] += 1
            backward: List[_BackwardInstr] = []
            reachable = {seed_slot}
            for instr in reversed(forward):
                if instr.out_slot not in reachable:
                    continue
                targets = []
                for grad_index, s in enumerate(instr.tensor_slots):
                    if needs[s]:
                        targets.append((grad_index, s))
                        reachable.add(s)
                        contributions[s] += 1
                if targets:
                    # Plan-private instances advertise which gradients are
                    # consumed; heavy backward rules skip the rest (e.g.
                    # no dY GEMMs when the spherical harmonics were
                    # constant-folded, no weight gradients in force-only
                    # plans).  Eager instances never carry a mask.
                    instr.fn.grad_mask = tuple(
                        needs[s] for s in instr.tensor_slots
                    )
                    backward.append(_BackwardInstr(instr.fn, instr.out_slot, targets))
            # Multi-contributor slots accumulate into a plan-private
            # buffer (allocated by _alloc_grad_buffers from these flags).
            for instr in backward:
                instr.targets = [
                    (grad_index, s, contributions[s] > 1)
                    for grad_index, s in instr.targets
                ]
            self._backward = backward
            self._seed_grad = np.ones(tensors[seed_slot].data.shape, dtype=np.float64)
            # The seed also accumulates when it receives graph grads.
            self._seed_buffer = contributions[seed_slot] > 1
            self._alloc_grad_buffers()
            self._param_grad_slots = [
                (s, tensors[s]) for s in param_slots if grad_params and s in reachable
            ]
            self._input_grad_slots = [
                slot_of[t._serial] if t.requires_grad else None for t in inputs
            ]

        # -- arena memory planning: give every supports_out instruction a
        # write target so steady-state replay allocates (near) nothing.
        # The liveness pass supplies backward-aware lifetimes and legal
        # donation pairs; plan outputs (and anything aliasing them) stay
        # freshly allocated so callers may hold returned arrays across
        # replays.
        self._optimized = bool(optimize)
        self.n_donated = 0
        self._arena_nbytes = 0
        # (forward_index, offset, shape, dtype) per arena-backed
        # instruction — the recipe _bind uses to create the slab views.
        self._arena_layout: tuple = ()
        donated_trail: List[tuple] = []
        excluded = set(output_slots)
        if optimize and forward:
            from ..analysis.liveness import analyze_liveness  # lazy: analysis imports the model stack

            report = analyze_liveness(self)
            last_use = [iv.last_use for iv in report.intervals]
            # A buffer stays pinned while *any* view of its storage lives.
            class_last = list(last_use)
            storage = list(range(len(tensors)))  # slot -> its alias class's root
            out_set = set(output_slots)
            for cls in report.alias_classes:
                t = max(last_use[m] for m in cls)
                for m in cls:
                    class_last[m] = max(class_last[m], t)
                    storage[m] = cls[0]
                if any(m in out_set for m in cls):
                    excluded.update(cls)
            donate_at: Dict[int, object] = {}
            for d in report.donations:
                donate_at.setdefault(d.index, d)
            # Storage requests: [def_time, end_time, size64, instr, shape,
            # dtype, offset].  A donated output occupies its donor's
            # storage in place, extending that request's lifetime instead
            # of opening a new one.  Requests are held per alias class, so
            # a donation through a view (a reshaped matmul result scaled
            # in place) extends the request backing the view's base.
            requests: List[list] = []
            holder: Dict[int, list] = {}  # alias root -> request backing it
            for i, instr in enumerate(forward):
                fn = instr.fn
                out = instr.out_slot
                if out in excluded or not fn.supports_out:
                    continue
                d = donate_at.get(i)
                if d is not None and fn.out_alias_safe:
                    instr.donor_slot = d.donor
                    donated_trail.append((i, type(fn).__name__, d.donor, out))
                    req = holder.get(storage[d.donor])
                    if req is not None:
                        req[1] = max(req[1], class_last[out])
                        holder[storage[out]] = req
                    continue
                shape = self.meta.slot_shapes[out]
                dtype = self.meta.slot_dtypes[out]
                size64 = (_nbytes(shape, dtype) + 63) & ~63  # cache-line granularity
                req = [i, max(class_last[out], i), size64, instr, shape, dtype, 0]
                requests.append(req)
                holder[storage[out]] = req
            # Offset assignment: greedy by size, largest block first, each
            # at the lowest offset whose bytes are free over the block's
            # whole lifetime.  All buffers are then views into ONE slab,
            # so the steady-state working set is the program's true peak
            # footprint — close to what malloc's reuse gives an eager
            # pass — instead of one pinned buffer per distinct shape.
            placed: List[tuple] = []  # (offset, limit, def_time, end_time)
            for req in sorted(requests, key=lambda r: -r[2]):
                start, end, size64 = req[0], req[1], req[2]
                spans = sorted(
                    (off, limit)
                    for off, limit, s, e in placed
                    if s <= end and start <= e
                )
                offset = 0
                for lo, hi in spans:
                    if lo - offset >= size64:
                        break
                    if hi > offset:
                        offset = hi
                req[6] = offset
                placed.append((offset, offset + size64, start, end))
            self._arena_nbytes = max((r[6] + r[2] for r in requests), default=0)
            self._arena_layout = tuple(
                (req[0], req[6], req[4], req[5]) for req in requests
            )
            self.n_donated = len(donated_trail)
        self.meta.donated = tuple(donated_trail)
        # Fused-chain scratch follows the arena region, one disjoint
        # region per chain member: member saves may point into it until
        # the chain's backward, so it shares bytes with nothing else.
        scratch_layout: List[tuple] = []
        end = self._arena_nbytes
        for i, instr in enumerate(forward):
            if isinstance(instr.fn, _FusedElementwise):
                regions = []
                for shape, dtype in instr.fn._scratch_spec:
                    regions.append((end, shape, dtype))
                    end += (_nbytes(shape, dtype) + 63) & ~63
                scratch_layout.append((i, tuple(regions)))
        self._scratch_layout = tuple(scratch_layout)
        self._slab_nbytes = end
        self._arena = Arena()
        self._slab: Optional[np.ndarray] = None
        # Residual per-replay allocations: non-view instructions with no
        # arena target.  Plan outputs are fresh by design and excluded;
        # ops' internal temporaries are out of scope of this counter.
        n_alloc = 0
        in_arena = {index for index, *_ in self._arena_layout}
        for i, instr in enumerate(forward):
            if instr.donor_slot is not None or i in in_arena:
                continue
            name = type(instr.fn).__name__
            if name in ("Reshape", "Transpose") or (
                name == "GetItem" and _is_basic_index(instr.kwargs["key"])
            ):
                continue  # view outputs allocate nothing
            if instr.out_slot in excluded:
                continue
            n_alloc += 1
        self.n_alloc_instrs = n_alloc

        # Release the capture tape: replay never reads fn.inputs, and the
        # retained Functions would otherwise pin every capture Tensor.
        # Activations (fn.saved, bound argument slots) are released too —
        # here and again at the end of every replay — so a cached plan
        # holds only constants, buffers and per-instance index/operator
        # memos between calls, not a full forward's intermediates.
        for instr in forward:
            instr.fn.inputs = ()
            for member in getattr(instr.fn, "_members", ()):
                member.fn.inputs = ()
        self._release_activations()
        # Bound last, so the slab is never allocated beside the released
        # activations (that would raise the capture's peak).
        if self._slab_nbytes:
            self._bind()

    def _release_activations(self) -> None:
        for instr in self._forward:
            instr.fn.saved = ()
            args = instr.args
            for position, _ in instr.bindings:
                args[position] = None
            # Fused instructions hold per-member state too: member saves
            # and rebound member argument slots would otherwise pin a
            # full chain's operand arrays between replays.
            for member in getattr(instr.fn, "_members", ()):
                member.fn.saved = ()
                m_args = member.args
                for position, _ in member.bindings:
                    m_args[position] = None

    # -- buffers -----------------------------------------------------------------

    def _bind(self) -> None:
        """Point the arena views and fused-chain scratch into this thread's slab.

        The one buffer-binding path: run at compile, when a cache adopts
        the plan, on the first replay after unpickling, and on any replay
        whose thread's slab is not the one the views point into (it grew,
        or the plan moved to another thread).  Offsets never move.
        """
        slab = self._arena.slab(self, self._slab_nbytes)

        def region(offset, shape, dtype):
            return slab[offset : offset + _nbytes(shape, dtype)].view(dtype).reshape(shape)

        for index, offset, shape, dtype in self._arena_layout:
            self._forward[index].out_buffer = region(offset, shape, dtype)
        for index, regions in self._scratch_layout:
            self._forward[index].fn._scratch = [region(*r) for r in regions] + [None]
        self._slab = slab

    def _unbind(self) -> None:
        """Drop every view into the slab; the next replay rebinds."""
        for index, *_ in self._arena_layout:
            self._forward[index].out_buffer = None
        for index, _ in self._scratch_layout:
            self._forward[index].fn._scratch = None
        self._slab = None

    def _adopt(self, arena: Arena) -> None:
        """Move the plan's scratch into ``arena`` (a cache's shared slabs).

        The old views are dropped before the new slab is requested, so
        the private slab from compile time is freed first.
        """
        self._unbind()
        self._arena = arena
        if self._slab_nbytes:
            self._bind()

    def _alloc_grad_buffers(self) -> None:
        """Allocate the plan-private accumulation buffers from their flags.

        These never live in the arena: an accumulation buffer is handed
        out as ``param.grad`` or as an input gradient, which must survive
        replays of other plans.
        """
        self._seed_buffer = (
            np.empty_like(self._seed_grad) if self._seed_buffer else None
        )
        buffers: Dict[int, np.ndarray] = {}
        for binstr in self._backward or ():
            targets = []
            for grad_index, slot, shared in binstr.targets:
                buffer = None
                if shared:
                    buffer = buffers.get(slot)
                    if buffer is None:
                        buffer = buffers[slot] = colored_empty(
                            self.meta.slot_shapes[slot], np.float64
                        )
                targets.append((grad_index, slot, buffer))
            binstr.targets = targets

    # -- pickling ----------------------------------------------------------------
    #
    # A plan is a static instruction list over plain NumPy arrays, so it
    # ships across processes: the parallel workers receive one pickled
    # plan per shape bucket and replay it locally.  Scratch is identity,
    # not state — the arena views, fused-chain scratch and backward
    # accumulation buffers hold nothing that survives a replay — so
    # pickling serializes only the layout recipes.  An unpickled plan
    # has an arena of its own (a cache's per-thread slabs stay behind),
    # allocates its accumulation buffers on load and binds its slab on
    # the first replay.  The ``owner`` pin is process-local (the model
    # stays with the capturing process's cache keys) and is dropped;
    # ``_param_specs`` tensors are serialized by value, so an unpickled
    # plan is frozen at ship-time parameters — exactly the
    # versioned-snapshot semantics serving workers need.

    def __getstate__(self):
        state = self.__dict__.copy()
        state["owner"] = None
        state["_arena"] = None
        state["_slab"] = None
        state["_seed_buffer"] = self._seed_buffer is not None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._arena = Arena()
        self._alloc_grad_buffers()

    # -- introspection ----------------------------------------------------------

    @property
    def n_forward_ops(self) -> int:
        """Instructions executed per replay (after DCE + folding)."""
        return len(self._forward)

    @property
    def n_backward_ops(self) -> int:
        """Backward instructions per replay (0 for forward-only plans)."""
        return 0 if self._backward is None else len(self._backward)

    # -- execution --------------------------------------------------------------

    def replay(
        self, *inputs: np.ndarray, compute_grads: bool = True
    ) -> Tuple[List[np.ndarray], List[Optional[np.ndarray]]]:
        """Execute the plan on fresh inputs; returns (outputs, input grads).

        Raises :class:`PlanStale` — before any computation — if the
        input arrays or the bound parameters no longer match the shapes
        and dtypes of the capture.  Parameter gradients (when compiled
        with ``grad_params=True``) are written to each parameter's
        ``.grad``; input gradients are returned aligned with ``inputs``
        (``None`` for inputs that do not require grad or when
        ``compute_grads=False``).
        """
        slab = self._slab
        if self._slab_nbytes and (slab is None or slab is not self._arena.current()):
            self._bind()
        specs = self._input_specs
        if len(inputs) != len(specs):
            raise PlanStale(
                f"plan expects {len(specs)} inputs, got {len(inputs)}"
            )
        values = self._values.copy()
        for (slot, shape, dtype), array in zip(specs, inputs):
            array = np.asarray(array)
            if array.shape != shape or array.dtype != dtype:
                raise PlanStale(
                    f"input changed: captured {shape}/{dtype}, "
                    f"got {array.shape}/{array.dtype}"
                )
            values[slot] = array
        for slot, param, shape, dtype in self._param_specs:
            data = param.data
            if data.shape != shape or data.dtype != dtype:
                raise PlanStale(
                    f"parameter changed: captured {shape}/{dtype}, "
                    f"got {data.shape}/{data.dtype}"
                )
            values[slot] = data

        for instr in self._forward:
            args = instr.args
            for position, slot in instr.bindings:
                args[position] = values[slot]
            donor = instr.donor_slot
            if donor is not None:
                values[instr.out_slot] = instr.call(*args, out=values[donor])
            elif instr.out_buffer is not None:
                values[instr.out_slot] = instr.call(*args, out=instr.out_buffer)
            else:
                values[instr.out_slot] = instr.call(*args)

        outputs = [values[s] for s in self._output_slots]
        input_grads: List[Optional[np.ndarray]] = [None] * len(specs)
        if compute_grads and self._backward is not None:
            grads: List[Optional[np.ndarray]] = [None] * self._n_slots
            if self._seed_buffer is not None:
                self._seed_buffer[...] = self._seed_grad
                grads[self._seed_slot] = self._seed_buffer
            else:
                grads[self._seed_slot] = self._seed_grad
            for binstr in self._backward:
                g = grads[binstr.out_slot]
                if g is None:
                    continue
                grads[binstr.out_slot] = None  # read once, by this instruction
                in_grads = binstr.call(g)
                del g
                for grad_index, slot, buffer in binstr.targets:
                    ig = in_grads[grad_index]
                    if ig is None:
                        continue
                    current = grads[slot]
                    if current is None:
                        if buffer is None:
                            grads[slot] = np.asarray(ig, dtype=np.float64)
                        else:
                            buffer[...] = ig
                            grads[slot] = buffer
                    else:
                        current += ig
            for slot, param in self._param_grad_slots:
                g = grads[slot]
                if g is not None:
                    param.grad = g
            input_grads = [
                None if slot is None else grads[slot]
                for slot in self._input_grad_slots
            ]
        self._release_activations()
        return outputs, input_grads
