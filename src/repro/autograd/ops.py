"""Structural and graph-specific autograd operations.

MACE's message passing needs a handful of ops beyond elementwise algebra:
gathering per-atom features onto edges, scatter-summing edge messages back
onto atoms, pooling per-atom energies per graph, and concatenation.  These
are the NumPy analogues of ``torch.index_select`` / ``scatter_add`` /
``segment_sum``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .engine import Function, Tensor, _unbroadcast, as_tensor

__all__ = [
    "gather_rows",
    "segment_sum",
    "concatenate",
    "stack",
    "where",
    "clip",
]


def _scatter_add_rows(
    fn: Function,
    shape,
    index: np.ndarray,
    values: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row scatter-add with a per-instance plan for replayed Functions.

    Eager execution creates a fresh ``Function`` per call, so the first
    call takes the plain ``np.add.at`` path and merely remembers the
    index array.  A *replayed* instance (see :mod:`repro.runtime`) is
    called again and again; from the second call on it scatters through
    a stable-sort + ``reduceat`` plan, which is severalfold faster on
    wide rows.  The plan is memoized on the index *object*: folded
    constants and MD edge lists repeat by identity and sort once, while
    training plans rebind a new batch's index every replay and pay one
    argsort per call (still far below ``np.add.at``).  The stable sort
    preserves the per-segment contribution order, so results match the
    ``add.at`` path to summation-reassociation error (~1e-15), within
    the runtime's 1e-10 equivalence contract.
    """
    state = fn.__dict__.get("_scatter_plan")
    if out is None:
        out = np.zeros(shape, dtype=np.float64)
    else:
        out.fill(0.0)
    if state is None:
        fn._scatter_plan = (index, None)
        np.add.at(out, index, values)
        return out
    plan = state[1]
    if plan is None or state[0] is not index:
        order = np.argsort(index, kind="stable")
        sorted_ids = index[order]
        if sorted_ids.size:
            starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
            segments = sorted_ids[starts]
        else:
            starts = segments = sorted_ids
        plan = (order, segments, starts)
        fn._scatter_plan = (index, plan)
    order, segments, starts = plan
    if starts.size:
        out[segments] = np.add.reduceat(values[order], starts, axis=0)
    return out


class GatherRows(Function):
    """``out[e] = x[index[e]]`` along axis 0 (edge gather)."""

    supports_out = True  # gather: out may not alias the source rows

    def forward(self, x, index, out=None):
        self.saved = (x.shape, index)
        if out is not None:
            # mode="clip" keeps take on its unbuffered fast path (the
            # default "raise" is ~3x slower with out=).  Bounds were
            # checked by the eager capture pass; an out-of-range index in
            # a replayed input would trip the fancy-index path at capture
            # time, never this one.
            return np.take(x, index, axis=0, out=out, mode="clip")
        return x[index]

    def backward(self, grad):
        shape, index = self.saved
        return (_scatter_add_rows(self, shape, index, grad), None)


def gather_rows(x: Tensor, index) -> Tensor:
    """Differentiable row gather: ``out[i] = x[index[i]]``.

    ``index`` is normally a raw integer array (a structural constant of
    the graph, burned into compiled plans).  It may also be an integer
    :class:`Tensor` (``requires_grad=False``), in which case a compiled
    plan that lists it among its inputs rebinds the gather pattern per
    replay — loss, energy and force plans all bind their batch's indices
    this way, so one plan serves every batch of a shape bucket.
    """
    if not isinstance(index, Tensor):
        index = np.asarray(index, dtype=np.int64)
    return GatherRows.apply(x, index)


class SegmentSum(Function):
    """``out[s] = sum_{i : seg[i] == s} x[i]`` (message aggregation)."""

    supports_out = True  # scatter: out may not alias the messages

    def forward(self, x, segment_ids, num_segments, out=None):
        self.saved = (segment_ids,)
        return _scatter_add_rows(
            self, (num_segments,) + x.shape[1:], segment_ids, x, out=out
        )

    def backward(self, grad):
        (segment_ids,) = self.saved
        return (grad[segment_ids], None, None)


def segment_sum(x: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Differentiable scatter-add along axis 0.

    The aggregation operation of equation (1): pooling messages from all
    neighbors ``j`` onto the receiving atom ``i`` (and, reused, pooling
    per-atom energies per graph).  ``segment_ids`` may be an integer
    :class:`Tensor` to make the scatter pattern a replayable plan input
    (see :func:`gather_rows`).
    """
    if not isinstance(segment_ids, Tensor):
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
    return SegmentSum.apply(x, segment_ids, int(num_segments))


class Concatenate(Function):
    supports_out = True  # copies into out; may not alias an operand

    def forward(self, *arrays, axis=0, out=None):
        self.saved = (axis, [a.shape[axis] for a in arrays])
        if out is not None:
            return np.concatenate(arrays, axis=axis, out=out)
        return np.concatenate(arrays, axis=axis)

    def backward(self, grad):
        axis, sizes = self.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=axis))


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation."""
    return Concatenate.apply(*[as_tensor(t) for t in tensors], axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    expanded = []
    for t in tensors:
        t = as_tensor(t)
        shape = list(t.shape)
        shape.insert(axis if axis >= 0 else len(shape) + axis + 1, 1)
        expanded.append(t.reshape(tuple(shape)))
    return concatenate(expanded, axis=axis)


class Where(Function):
    def forward(self, a, b, cond):
        self.saved = (cond, a.shape, b.shape)
        return np.where(cond, a, b)

    def backward(self, grad):
        cond, shape_a, shape_b = self.saved
        # Operands may have been broadcast against each other / the
        # condition; reduce each gradient back to its operand's shape.
        ga = _unbroadcast(np.where(cond, grad, 0.0), shape_a)
        gb = _unbroadcast(np.where(cond, 0.0, grad), shape_b)
        return (ga, gb)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection (gradient flows to the selected branch)."""
    return Where.apply(as_tensor(a), as_tensor(b), cond=np.asarray(cond, dtype=bool))


class Clip(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, lo, hi, out=None):
        self.saved = (a, lo, hi)
        if out is not None:
            return np.clip(a, lo, hi, out=out)
        return np.clip(a, lo, hi)

    def backward(self, grad):
        a, lo, hi = self.saved
        mask = np.ones_like(a)
        if lo is not None:
            mask = mask * (a >= lo)
        if hi is not None:
            mask = mask * (a <= hi)
        return (grad * mask, None, None)


def clip(x: Tensor, lo: Optional[float], hi: Optional[float]) -> Tensor:
    """Differentiable clamp (zero gradient outside the active range)."""
    return Clip.apply(x, lo, hi)
