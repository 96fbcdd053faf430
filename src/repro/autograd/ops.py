"""Structural and graph-specific autograd operations.

MACE's message passing needs a handful of ops beyond elementwise algebra:
gathering per-atom features onto edges, scatter-summing edge messages back
onto atoms, pooling per-atom energies per graph, and concatenation.  These
are the NumPy analogues of ``torch.index_select`` / ``scatter_add`` /
``segment_sum``.

Every row scatter of the model — receiver aggregation, per-graph pooling,
the gather backward, and the symmetric contraction's level and species
reductions — is one sparse product through :func:`scatter_matrix`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_array

from .engine import Function, Tensor, _unbroadcast, as_tensor

__all__ = [
    "gather_rows",
    "segment_sum",
    "scatter_matrix",
    "scatter_rows",
    "concatenate",
    "stack",
    "where",
    "clip",
]


def scatter_matrix(index: np.ndarray, n_rows: int) -> csr_array:
    """The ``(n_rows, len(index))`` 0/1 CSR matrix with ``S[index[i], i] = 1``.

    ``S @ values`` is the row scatter-add ``out[index[i]] += values[i]``,
    the one segment-sum primitive.  Column indices are a stable argsort
    of ``index`` and row pointers a cumulative ``bincount``, so every row
    sums its entries in index order, starting from zero — the order
    ``np.add.at`` adds in, which the product therefore matches bitwise.
    Rows no entry maps to are empty and sum to ``0.0``.  Building it
    costs one sort of ``index``; callers whose index is fixed build it
    once and keep it.
    """
    index = np.asarray(index)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=n_rows), out=indptr[1:])
    order = np.argsort(index, kind="stable")
    return csr_array((np.ones(index.size), order, indptr), shape=(n_rows, index.size))


def scatter_rows(
    values: np.ndarray,
    index: np.ndarray,
    n_rows: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out[s] = sum_{i : index[i] == s} values[i]`` along axis 0.

    The trailing axes of ``values`` are flattened into the columns of one
    :func:`scatter_matrix` product; the result has shape
    ``(n_rows,) + values.shape[1:]`` and is written into ``out`` when given.
    """
    trailing = values.shape[1:]
    sums = scatter_matrix(index, n_rows) @ values.reshape(
        values.shape[0], math.prod(trailing)
    )
    if out is None:
        return sums.reshape((n_rows,) + trailing)
    out[...] = sums.reshape(out.shape)
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
        return (scatter_rows(grad, index, shape[0]), None)


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
        return scatter_rows(x, segment_ids, num_segments, out=out)

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
