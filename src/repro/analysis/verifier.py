"""Static consistency verification of compiled plans.

:func:`verify_plan` walks a :class:`~repro.runtime.plan.CompiledPlan`'s
instruction lists without executing anything and proves, against the
build metadata the plan recorded (:class:`~repro.runtime.plan.PlanMeta`):

* **def-before-use** — every slot an instruction consumes is a
  materialized constant, a guarded input/parameter, or the output of an
  earlier instruction; every output slot is defined exactly once;
* **shape/dtype agreement** — the output spec inferred by the per-op
  rules in :mod:`repro.analysis.specs` matches the buffer recorded at
  capture, for every instruction;
* **guard coverage** — every input and parameter slot the forward
  program reads appears in the replay guard specs, so no array that can
  affect replay escapes the staleness check; integer operands (the
  edge / graph / species index content training plans rebind per
  replay) must be plan constants or guarded inputs, never computed or
  parameter slots;
* **backward integrity** — the compiled backward visits instructions in
  reverse-topological order, each gradient target maps back to the
  matching forward operand, and every preallocated accumulation buffer
  (and the seed) has the shape/dtype of the forward value it is the
  gradient of;
* **elimination audit** — dead-node elimination dropped only
  instructions whose output nothing live consumes, constant folding
  reclassified only all-constant subgraphs, and chain fusion
  internalized only slots no surviving instruction reads;
* **arena and donation audit** — every buffer donation the memory
  planner consumed is a legal pair under the liveness analysis
  (:mod:`repro.analysis.liveness`) on an alias-safe ``out=`` op, every
  static arena buffer matches its slot's recorded shape/dtype, buffers
  are reused only across disjoint storage lifetimes, and no arena
  buffer aliases a folded constant.

A violation raises :class:`PlanInvalid`, whose message pinpoints the
offending instruction (``forward[12] Mul: ...``).  Verification is pure
inspection: it allocates nothing input-sized and is intended to run once
per plan at cache-insertion time (see ``PlanCache(verify="auto")``).
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from .specs import ArraySpec, SpecError, infer_output_spec

__all__ = ["PlanInvalid", "verify_plan"]


class PlanInvalid(RuntimeError):
    """A compiled plan failed static verification.

    ``location`` names the offending instruction (``forward[i] OpName``,
    ``backward[j] OpName``) or ``"plan"`` for whole-plan inconsistencies.
    """

    def __init__(self, location: str, message: str) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


def _fail(location: str, message: str) -> None:
    raise PlanInvalid(location, message)


def _op_name(instr) -> str:
    return type(instr.fn).__name__


def verify_plan(plan, strict: bool = True) -> Dict[str, int]:
    """Statically verify ``plan``; returns check counters on success.

    With ``strict=True`` (the default) an instruction whose Function has
    no registered inference rule is itself an error; ``strict=False``
    skips shape/dtype inference for such ops but still runs every
    structural check.
    """
    meta = getattr(plan, "meta", None)
    if meta is None:
        _fail("plan", "no build metadata (plan predates repro.analysis)")

    n_slots = plan._n_slots
    if not (
        len(meta.slot_shapes) == len(meta.slot_dtypes) == len(meta.kinds)
        == len(meta.const) == n_slots == len(plan._values)
    ):
        _fail("plan", "metadata tables disagree on slot count")

    # -- materialized constants match their recorded specs.
    for slot, value in enumerate(plan._values):
        if value is None:
            continue
        if not meta.const[slot]:
            _fail("plan", f"slot {slot} is materialized but not marked constant")
        if value.shape != meta.slot_shapes[slot] or value.dtype != meta.slot_dtypes[slot]:
            _fail(
                "plan",
                f"constant slot {slot} holds {value.shape}/{value.dtype}, "
                f"recorded {meta.slot_shapes[slot]}/{meta.slot_dtypes[slot]}",
            )

    # -- guard specs agree with the metadata.
    input_slots: Set[int] = set()
    for slot, shape, dtype in plan._input_specs:
        input_slots.add(slot)
        if meta.kinds[slot] != "input":
            _fail("plan", f"input guard covers slot {slot} of kind {meta.kinds[slot]!r}")
        if shape != meta.slot_shapes[slot] or dtype != meta.slot_dtypes[slot]:
            _fail("plan", f"input guard for slot {slot} disagrees with capture")
    param_slots: Set[int] = set()
    for entry in plan._param_specs:
        slot, _, shape, dtype = entry
        param_slots.add(slot)
        if meta.kinds[slot] != "param":
            _fail("plan", f"param guard covers slot {slot} of kind {meta.kinds[slot]!r}")
        if shape != meta.slot_shapes[slot] or dtype != meta.slot_dtypes[slot]:
            _fail("plan", f"param guard for slot {slot} disagrees with capture")

    defined: Set[int] = set(input_slots) | set(param_slots)
    defined.update(slot for slot, value in enumerate(plan._values) if value is not None)

    # -- forward walk: def-before-use, guard coverage, spec inference.
    # Hot path (runs once per verified cache insert): metadata tables
    # are hoisted to locals.
    slot_shapes, slot_dtypes = meta.slot_shapes, meta.slot_dtypes
    kinds, const = meta.kinds, meta.const
    specs_checked = 0
    # Abstract values memoized per slot for the duration of this call:
    # a slot's shape/dtype never changes, and rules only read specs.
    spec_of: Dict[int, ArraySpec] = {}
    for i, instr in enumerate(plan._forward):
        # Failure messages (f"forward[{i}] {_op_name(instr)}") are built
        # only on the failing branch — the success path, which runs for
        # every instruction of every verified insert, allocates no
        # strings.
        if [slot for _, slot in instr.bindings] != list(instr.tensor_slots) and {
            slot for _, slot in instr.bindings
        } != set(instr.tensor_slots):
            _fail(f"forward[{i}] {_op_name(instr)}", "bindings and tensor_slots disagree")
        for slot in instr.tensor_slots:
            if not 0 <= slot < n_slots:
                _fail(
                    f"forward[{i}] {_op_name(instr)}",
                    f"reads slot {slot} outside the value table (0..{n_slots - 1})",
                )
            if slot not in defined:
                where = f"forward[{i}] {_op_name(instr)}"
                kind = kinds[slot]
                if kind == "input":
                    _fail(where, f"input slot {slot} has no replay guard (missing guard)")
                if kind == "param":
                    _fail(where, f"parameter slot {slot} has no replay guard (missing guard)")
                _fail(where, f"reads slot {slot} before it is defined (dangling slot)")
            if slot_dtypes[slot].kind in "iu" and not (
                const[slot] or kinds[slot] == "input"
            ):
                # Integer operands are index content (edge lists, graph
                # membership, species rows).  The replay guard is the
                # only thing standing between a rebound index and a
                # wrong-shaped gather, so such an operand must be a
                # constant of the plan or one of its guarded inputs.
                _fail(
                    f"forward[{i}] {_op_name(instr)}",
                    f"integer operand slot {slot} is neither a plan constant "
                    f"nor a guarded input (unguarded index)",
                )
        out = instr.out_slot
        if not 0 <= out < n_slots:
            _fail(f"forward[{i}] {_op_name(instr)}", f"writes slot {out} outside the value table")
        if out in defined:
            _fail(f"forward[{i}] {_op_name(instr)}", f"slot {out} defined twice")
        if kinds[out] != "node":
            _fail(f"forward[{i}] {_op_name(instr)}", f"writes slot {out} of kind {kinds[out]!r}")
        if const[out]:
            _fail(
                f"forward[{i}] {_op_name(instr)}",
                f"writes slot {out} that folding marked constant",
            )
        if instr.tensor_slots and all(const[s] for s in instr.tensor_slots):
            _fail(
                f"forward[{i}] {_op_name(instr)}",
                "all operands constant — folding should have removed this",
            )

        rule_args = list(instr.args)
        try:
            for position, slot in instr.bindings:
                spec = spec_of.get(slot)
                if spec is None:
                    spec = spec_of[slot] = ArraySpec(slot_shapes[slot], slot_dtypes[slot])
                rule_args[position] = spec
            inferred = infer_output_spec(instr.fn, rule_args, instr.kwargs)
        except SpecError as exc:
            if strict:
                _fail(f"forward[{i}] {_op_name(instr)}", str(exc))
            inferred = None
        if inferred is not None:
            if inferred.shape != slot_shapes[out]:
                _fail(
                    f"forward[{i}] {_op_name(instr)}",
                    f"inferred output shape {inferred.shape} but recorded "
                    f"buffer is {slot_shapes[out]}",
                )
            if inferred.dtype != slot_dtypes[out]:
                _fail(
                    f"forward[{i}] {_op_name(instr)}",
                    f"inferred output dtype {inferred.dtype} but recorded "
                    f"buffer is {slot_dtypes[out]}",
                )
            specs_checked += 1
        defined.add(out)

    for slot in plan._output_slots:
        if slot not in defined:
            _fail("plan", f"output slot {slot} is never defined")

    # -- elimination audit.
    consumed: Set[int] = set(plan._output_slots)
    if plan._seed_slot is not None:
        consumed.add(plan._seed_slot)
    for instr in plan._forward:
        consumed.update(instr.tensor_slots)
    for name, out_slot, tensor_slots in meta.dropped:
        if out_slot in consumed:
            _fail(
                "plan",
                f"DCE dropped {name} producing slot {out_slot}, which the "
                f"live program still consumes",
            )
    for name, out_slot, tensor_slots in meta.folded:
        if not all(meta.const[s] for s in tensor_slots):
            _fail(
                "plan",
                f"folding removed {name} producing slot {out_slot} although "
                f"not all of its operands are constant",
            )
        if not meta.const[out_slot]:
            _fail("plan", f"folded slot {out_slot} is not marked constant")
    for names, out_slot, interior in getattr(meta, "fused", ()):
        for slot in interior:
            if slot in consumed:
                _fail(
                    "plan",
                    f"fusion of {'+'.join(names)} internalized slot {slot}, "
                    f"which the live program still consumes",
                )

    # -- backward program.
    n_backward = 0
    if plan._backward is not None:
        seed = plan._seed_slot
        where = "plan"
        if seed is None or seed not in defined:
            _fail(where, f"backward seed slot {seed} is never defined")
        if plan._seed_grad.shape != meta.slot_shapes[seed]:
            _fail(
                where,
                f"seed gradient shape {plan._seed_grad.shape} != seed value "
                f"shape {meta.slot_shapes[seed]} (bad grad shape)",
            )
        if plan._seed_buffer is not None and (
            plan._seed_buffer.shape != meta.slot_shapes[seed]
        ):
            _fail(where, "seed accumulation buffer shape mismatch (bad grad shape)")

        # Function instances are pinned by plan._forward while we verify,
        # so their id()s cannot be recycled mid-walk.
        forward_of = {
            id(instr.fn): (i, instr)  # lint: allow-id-keyed-dict
            for i, instr in enumerate(plan._forward)
        }
        grad_defined: Set[int] = {seed}
        previous_index = len(plan._forward)
        for j, binstr in enumerate(plan._backward):
            fn = getattr(binstr.call, "__self__", None)
            entry = forward_of.get(id(fn))  # lint: allow-id-keyed-dict
            if entry is None:
                _fail(f"backward[{j}]", "no matching forward instruction")
            i, fwd = entry
            # As in the forward walk, instruction names are formatted
            # only on failing branches.
            if i >= previous_index:
                _fail(
                    f"backward[{j}] {_op_name(fwd)}",
                    "backward instructions are not in reverse-topological order",
                )
            previous_index = i
            if binstr.out_slot != fwd.out_slot:
                _fail(
                    f"backward[{j}] {_op_name(fwd)}",
                    f"consumes gradient of slot {binstr.out_slot} but its "
                    f"forward produced slot {fwd.out_slot}",
                )
            if binstr.out_slot not in grad_defined:
                _fail(
                    f"backward[{j}] {_op_name(fwd)}",
                    f"gradient of slot {binstr.out_slot} is consumed before "
                    f"any contribution reaches it",
                )
            for grad_index, slot, buffer in binstr.targets:
                if not 0 <= grad_index < len(fwd.tensor_slots):
                    _fail(
                        f"backward[{j}] {_op_name(fwd)}",
                        f"gradient index {grad_index} out of range",
                    )
                if slot != fwd.tensor_slots[grad_index]:
                    _fail(
                        f"backward[{j}] {_op_name(fwd)}",
                        f"gradient {grad_index} targets slot {slot} but the "
                        f"forward operand lives in slot {fwd.tensor_slots[grad_index]}",
                    )
                if buffer is not None:
                    if buffer.shape != meta.slot_shapes[slot]:
                        _fail(
                            f"backward[{j}] {_op_name(fwd)}",
                            f"gradient buffer for slot {slot} has shape "
                            f"{buffer.shape} but the forward value is "
                            f"{meta.slot_shapes[slot]} (bad grad shape)",
                        )
                    if buffer.dtype != np.float64:
                        _fail(
                            f"backward[{j}] {_op_name(fwd)}",
                            f"gradient buffer for slot {slot} is {buffer.dtype}, "
                            f"expected float64",
                        )
                grad_defined.add(slot)
            n_backward += 1

        for slot, param in plan._param_grad_slots:
            if slot not in param_slots:
                _fail("plan", f"parameter gradient slot {slot} is not a guarded parameter")
            if slot not in grad_defined:
                _fail("plan", f"parameter gradient slot {slot} never receives a gradient")
        for slot in plan._input_grad_slots:
            if slot is not None and slot not in input_slots:
                _fail("plan", f"input gradient slot {slot} is not a guarded input")

    # -- arena and donation audit: re-derive liveness independently and
    # prove every write target the memory planner chose is legal.
    donor_instrs = [
        (i, instr)
        for i, instr in enumerate(plan._forward)
        if getattr(instr, "donor_slot", None) is not None
    ]
    buffered_instrs = [
        (i, instr)
        for i, instr in enumerate(plan._forward)
        if getattr(instr, "out_buffer", None) is not None
    ]
    n_donated = len(donor_instrs)
    if donor_instrs or buffered_instrs:
        from .liveness import _liveness_core, constant_bounds, storage_bounds

        _, last_use, members, donations = _liveness_core(plan)
        legal = {(i, donor) for i, donor, _ in donations}
        class_last = list(last_use)
        storage = list(range(len(last_use)))  # slot -> its alias class's root
        for root, cls in members.items():
            if len(cls) < 2:
                continue
            t = max(last_use[m] for m in cls)
            for m in cls:
                class_last[m] = max(class_last[m], t)
                storage[m] = root

        for i, instr in donor_instrs:
            where = f"forward[{i}] {_op_name(instr)}"
            fn = instr.fn
            if not (getattr(fn, "supports_out", False) and getattr(fn, "out_alias_safe", False)):
                _fail(
                    where,
                    f"illegal donation: op does not support alias-safe "
                    f"out= writes but donates slot {instr.donor_slot}",
                )
            if instr.out_buffer is not None:
                _fail(where, "instruction both donates and holds an arena buffer")
            if (i, instr.donor_slot) not in legal:
                _fail(
                    where,
                    f"slot {instr.donor_slot} -> slot {instr.out_slot} is "
                    f"not a legal donation pair (donor still live or not "
                    f"plan-owned)",
                )
        const_slots, const_starts, const_ends = constant_bounds(plan)
        buffer_rows = []
        bounds_of: Dict[int, tuple] = {}  # lint: allow-id-keyed-dict
        for i, instr in buffered_instrs:
            where = f"forward[{i}] {_op_name(instr)}"
            if not getattr(instr.fn, "supports_out", False):
                _fail(where, "holds an arena buffer but does not support out=")
            buf = instr.out_buffer
            out = instr.out_slot
            if buf.shape != meta.slot_shapes[out] or buf.dtype != meta.slot_dtypes[out]:
                _fail(
                    where,
                    f"arena buffer is {buf.shape}/{buf.dtype} but slot {out} "
                    f"recorded {meta.slot_shapes[out]}/{meta.slot_dtypes[out]}",
                )
            bounds = storage_bounds(buf)
            bounds_of[id(buf)] = bounds  # lint: allow-id-keyed-dict
            buffer_rows.append((where, bounds))
        if buffer_rows and const_slots:
            # Bounds check, not the exact solver: arena buffers are
            # whole allocations, so range overlap == true aliasing.
            # One vectorized buffers-x-constants sweep.
            b = np.asarray([bounds for _, bounds in buffer_rows], dtype=np.int64)
            overlap = (const_starts < b[:, 1:2]) & (b[:, 0:1] < const_ends)
            if overlap.any():
                row, col = np.argwhere(overlap)[0]
                _fail(
                    buffer_rows[row][0],
                    f"arena buffer aliases constant slot {const_slots[col]}",
                )

        # Storage occupancy: buffers pinned by plan._forward while we
        # verify, so their id()s cannot be recycled mid-walk.  A buffer
        # may host several slots over the program, but their storage
        # lifetimes must be disjoint — except the in-place handoff of a
        # donation, where the new occupant starts exactly where the
        # donor's lifetime ends.  Buffers are held per alias class, so a
        # donation through a view of a buffer's occupant is audited too.
        occupants: Dict[int, List[tuple]] = {}  # lint: allow-id-keyed-dict
        holder: Dict[int, int] = {}  # alias root -> id(buffer) backing it
        buffer_of: Dict[int, np.ndarray] = {}  # lint: allow-id-keyed-dict
        for i, instr in enumerate(plan._forward):
            out = instr.out_slot
            donor = getattr(instr, "donor_slot", None)
            if donor is not None:
                buf_id = holder.get(storage[donor])
                if buf_id is None:
                    continue  # donor storage is dynamic; nothing static to audit
                via = storage[donor]
            elif instr.out_buffer is not None:
                buf_id = id(instr.out_buffer)  # lint: allow-id-keyed-dict
                buffer_of[buf_id] = instr.out_buffer
                via = None
            else:
                continue
            occupants.setdefault(buf_id, []).append((i, class_last[out], out, via))
            holder[storage[out]] = buf_id
        for entries in occupants.values():
            entries.sort()
            for (p_def, p_end, p_slot, _), (c_def, c_end, c_slot, c_via) in zip(
                entries, entries[1:]
            ):
                handoff = c_via == storage[p_slot] and p_end <= c_def
                if p_end >= c_def and not handoff:
                    _fail(
                        "plan",
                        f"arena buffer reused for slot {c_slot} while slot "
                        f"{p_slot} is still live (lifetimes "
                        f"[{p_def}, {p_end}] vs [{c_def}, {c_end}])",
                    )

        # Arena buffers are views packed into one slab: any two storages
        # whose byte ranges overlap must have disjoint occupancy spans
        # (a span covers every slot the storage hosts, donations
        # included).
        rows = []
        for buf_id, entries in occupants.items():
            buf = buffer_of.get(buf_id)
            if buf is None:
                continue
            # Bounds already computed in the buffer-row sweep above;
            # buffers are pinned by plan._forward so the id is stable.
            lo, hi = bounds_of.get(buf_id) or storage_bounds(buf)
            rows.append(
                (
                    lo,
                    hi,
                    min(e[0] for e in entries),
                    max(e[1] for e in entries),
                    entries[0][2],
                )
            )
        if len(rows) > 1:
            b0, b1, t0, t1, slots = (np.asarray(col) for col in zip(*rows))
            bytes_overlap = (b0[:, None] < b1[None, :]) & (b0[None, :] < b1[:, None])
            time_overlap = (t0[:, None] <= t1[None, :]) & (t0[None, :] <= t1[:, None])
            bad = bytes_overlap & time_overlap
            np.fill_diagonal(bad, False)
            if bad.any():
                a, c = np.argwhere(bad)[0]
                _fail(
                    "plan",
                    f"arena storage for slot {slots[a]} overlaps storage "
                    f"for slot {slots[c]} while both are live",
                )

    return {
        "forward_ops": len(plan._forward),
        "backward_ops": n_backward,
        "specs_checked": specs_checked,
        "slots": n_slots,
        "donated_instrs": n_donated,
        "arena_buffers": len(buffered_instrs),
    }
