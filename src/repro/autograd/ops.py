"""Structural and graph-specific autograd operations.

MACE's message passing needs a handful of ops beyond elementwise algebra:
gathering per-atom features onto edges, scatter-summing edge messages back
onto atoms, pooling per-atom energies per graph, and concatenation.  These
are the NumPy analogues of ``torch.index_select`` / ``scatter_add`` /
``segment_sum``.

Every row scatter of the model — receiver aggregation, per-graph pooling,
the gather backward, and the symmetric contraction's species reduction —
is one sparse product, :func:`scatter_rows`, over a :class:`RowIndex`: an
integer index bound with its CSR structure (the stable order of its
entries and each row's extent in it).  :func:`row_index` is the one place
an order is made, by a :func:`scatter_matrix` sort, or checked in O(n)
when the caller derived it.  Structure is a property of the graph, not of
the op: a batch binds its indices once
(:class:`repro.graphs.EdgeTopology`), their arrays are replay inputs of
its compiled plans, and a replay only wraps them, without a sort.  A raw
integer array handed to an op is bound where it is passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np
from scipy.sparse import csr_array

from .engine import Function, Tensor, _unbroadcast, as_tensor, is_grad_enabled

__all__ = [
    "RowIndex",
    "row_index",
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
    once and keep it (:func:`row_index`).
    """
    index = np.asarray(index)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=n_rows), out=indptr[1:])
    order = np.argsort(index, kind="stable")
    return csr_array((np.ones(index.size), order, indptr), shape=(n_rows, index.size))


@dataclass(frozen=True, eq=False)
class RowIndex:
    """An integer row index bound with its CSR scatter structure.

    Entry ``i`` maps to row ``index[i]`` of ``n_rows``; ``order`` is the
    stable argsort of ``index`` and ``indptr`` ``(n_rows + 1,)`` each
    row's extent in it — the column indices and row pointers of
    :func:`scatter_matrix`.  :func:`row_index` makes them, read-only.
    The fields are integer :class:`Tensor` s where a compiled plan lists
    them among its inputs and rebinds them per replay.
    """

    index: Any
    order: Any
    indptr: Any

    @property
    def n_rows(self) -> int:
        return self.indptr.shape[0] - 1

    def arrays(self) -> tuple:
        return (self.index, self.order, self.indptr)

    def matrix(self) -> csr_array:
        """The :func:`scatter_matrix` of ``index``, wrapped around the
        bound arrays without a sort."""
        n = self.order.shape[0]
        return csr_array((np.ones(n), self.order, self.indptr), shape=(self.n_rows, n))


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()  # the caller's array keeps its own flags
    view.flags.writeable = False
    return view


def row_index(index, n_rows: int, order: Optional[np.ndarray] = None) -> RowIndex:
    """Bind ``index`` (integers in ``[0, n_rows)``) to its CSR structure.

    Without ``order`` the structure comes from one :func:`scatter_matrix`
    sort.  A caller that derived the stable order another way — a stable
    filter of a sorted order stays sorted — passes it, and it is checked
    in O(n) to *be* the stable argsort of ``index`` (a permutation whose
    keys never decrease and whose ties ascend), which is unique, so both
    paths bind the same arrays; a wrong order raises ``ValueError``.
    """
    index = np.asarray(index)
    if order is None:
        m = scatter_matrix(index, n_rows)
        order, indptr = m.indices, m.indptr
    else:
        order = np.asarray(order)
        if not _is_stable_argsort(index, order):
            raise ValueError("order is not the stable argsort of the index")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(index, minlength=n_rows), out=indptr[1:])
    # A cached batch keeps its structure for as long as the entry lives:
    # int32 halves it, and the product sums the same rows in the same order.
    small = np.int32 if max(index.size, n_rows) < 2**31 else np.int64
    return RowIndex(
        _read_only(index),
        _read_only(order.astype(small)),
        _read_only(indptr.astype(small)),
    )


def _is_stable_argsort(index: np.ndarray, order: np.ndarray) -> bool:
    """Whether ``order`` is in range, orders ``index`` ascending and
    breaks ties by position — which also rules out a repeated entry, so
    it is the one stable argsort."""
    n = index.size
    if order.shape != index.shape or (n and not 0 <= order.min() <= order.max() < n):
        return False
    rise = np.diff(index[order])
    return bool(((rise > 0) | ((rise == 0) & (np.diff(order) > 0))).all())


def _bound(index, n_rows: int) -> RowIndex:
    """``index`` as a :class:`RowIndex`: itself, or a raw array bound here.

    An integer :class:`Tensor` that is not part of a :class:`RowIndex`
    is refused: its structure would be sorted now and folded into a
    plan that rebinds the index itself.
    """
    if isinstance(index, RowIndex):
        return index
    if isinstance(index, Tensor):
        raise TypeError("bind a Tensor index with its structure: pass a RowIndex")
    return row_index(np.asarray(index, dtype=np.int64), n_rows)


def bound_tensors(index, n_rows: int) -> tuple:
    """:func:`_bound`'s arrays as Tensors, so a Function taking them keeps
    its backward's gradients aligned with its tensor inputs."""
    return tuple(a if isinstance(a, Tensor) else Tensor(a) for a in _bound(index, n_rows).arrays())


def scatter_rows(
    values: np.ndarray,
    index,
    n_rows: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out[s] = sum_{i : index[i] == s} values[i]`` along axis 0.

    ``index`` is a :class:`RowIndex`, or a raw integer array over
    ``n_rows`` bound here.  The trailing axes of ``values`` are flattened
    into the columns of one product with its :meth:`RowIndex.matrix`;
    the result has shape ``(n_rows,) + values.shape[1:]`` and is written
    into ``out`` when given.
    """
    rows = _bound(index, n_rows)
    trailing = values.shape[1:]
    sums = rows.matrix() @ values.reshape(values.shape[0], math.prod(trailing))
    if out is None:
        return sums.reshape((rows.n_rows,) + trailing)
    out[...] = sums.reshape(out.shape)
    return out


class GatherRows(Function):
    """``out[e] = x[index[e]]`` along axis 0 (edge gather); the backward
    scatters through the bound ``order`` / ``indptr`` of a :class:`RowIndex`."""

    supports_out = True  # gather: out may not alias the source rows

    def forward(self, x, index, order=None, indptr=None, out=None):
        self.saved = (index, order, indptr)
        if out is not None:
            # mode="clip" keeps take on its unbuffered fast path (the
            # default "raise" is ~3x slower with out=).  Bounds were
            # checked by the eager capture pass; an out-of-range index in
            # a replayed input would trip the fancy-index path at capture
            # time, never this one.
            return np.take(x, index, axis=0, out=out, mode="clip")
        return x[index]

    def backward(self, grad):
        return (scatter_rows(grad, RowIndex(*self.saved)), None)


def gather_rows(x: Tensor, index) -> Tensor:
    """Differentiable row gather: ``out[i] = x[index[i]]``.

    ``index`` is a :class:`RowIndex` — whose fields a compiled plan
    listing them among its inputs rebinds per replay, as loss, energy and
    force plans do for their batch's :class:`~repro.graphs.EdgeTopology`,
    so one plan serves every batch of a shape bucket — or a raw integer
    array, a structural constant of the recorded graph.  A raw array is
    bound to its structure here only when a gradient will flow back
    through the gather.
    """
    if isinstance(index, RowIndex) or (
        is_grad_enabled() and isinstance(x, Tensor) and x.requires_grad
    ):
        return GatherRows.apply(x, *_bound(index, x.shape[0]).arrays())
    if not isinstance(index, Tensor):
        index = np.asarray(index, dtype=np.int64)
    return GatherRows.apply(x, index)  # forward only: no structure to bind


class SegmentSum(Function):
    """``out[s] = sum_{i : seg[i] == s} x[i]`` (message aggregation)."""

    supports_out = True  # scatter: out may not alias the messages

    def forward(self, x, index, order, indptr, out=None):
        self.saved = (index,)
        return scatter_rows(x, RowIndex(index, order, indptr), out=out)

    def backward(self, grad):
        (index,) = self.saved
        return (grad[index], None, None, None)


def segment_sum(x: Tensor, segment_ids, num_segments: Optional[int] = None) -> Tensor:
    """Differentiable scatter-add along axis 0.

    The aggregation operation of equation (1): pooling messages from all
    neighbors ``j`` onto the receiving atom ``i`` (and, reused, pooling
    per-atom energies per graph).  ``segment_ids`` is a
    :class:`RowIndex`, whose ``n_rows`` is the segment count (see
    :func:`gather_rows`), or a raw integer array with ``num_segments``.
    """
    return SegmentSum.apply(x, *_bound(segment_ids, num_segments).arrays())


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
