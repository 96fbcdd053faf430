"""Per-op shape/dtype inference rules for the plan verifier.

Every :class:`~repro.autograd.engine.Function` used in the repository has
an entry in the registry below: a pure rule that maps the *abstract*
positional arguments of one recorded instruction (tensor positions
replaced by :class:`ArraySpec`, non-tensor positions kept as the real
recorded objects — index arrays, coupling tables, einsum specs) to the
:class:`ArraySpec` of the output.  Nothing is executed on real data; the
rules re-derive each output's shape and dtype analytically (or, for
``GetItem``, by indexing a zero-strided dummy) so the verifier in
:mod:`repro.analysis.verifier` can cross-check them against the buffers
a :class:`~repro.runtime.plan.CompiledPlan` actually recorded.

Third-party ops can participate two ways: set ``infer_spec`` on the
Function subclass (see :class:`repro.autograd.engine.Function`) or call
:func:`register_spec` with the subclass and a rule.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Type

import numpy as np

from math import prod

from ..autograd import engine as _engine
from ..autograd import functional as _functional
from ..autograd import ops as _ops
from ..kernels.channelwise_tp import _ChannelwiseTPBaseline, _ChannelwiseTPOptimized
from ..kernels.symmetric_contraction import (
    _SymContractionBaseline,
    _SymContractionOptimized,
)
from ..mace.geometry import _EdgeNorm, _SphericalHarmonicsOp, _WithinCutoff
from ..mace.radial import _BesselBasis
from ..nn.layers import _ChannelMix

__all__ = ["ArraySpec", "SpecError", "register_spec", "infer_output_spec", "spec_of"]

_F64 = np.dtype(np.float64)


class SpecError(ValueError):
    """An inference rule rejected its abstract arguments."""


class ArraySpec:
    """Abstract value: the shape and dtype of an array, nothing else."""

    __slots__ = ("shape", "dtype")

    def __init__(self, shape, dtype) -> None:
        # Plain tuples and np.dtype instances pass through untouched;
        # anything else (lists, np.int64 dims) is normalized.
        self.shape: Tuple[int, ...] = (
            shape if type(shape) is tuple else tuple(int(s) for s in shape)
        )
        self.dtype = dtype if type(dtype) is np.dtype else np.dtype(dtype)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ArraySpec)
            and self.shape == other.shape
            and self.dtype == other.dtype
        )

    def __repr__(self) -> str:
        return f"ArraySpec(shape={self.shape}, dtype={self.dtype})"


def spec_of(array: np.ndarray) -> ArraySpec:
    """The :class:`ArraySpec` of a concrete array."""
    array = np.asarray(array)
    return ArraySpec(array.shape, array.dtype)


_REGISTRY: Dict[Type, Callable] = {}


def register_spec(fn_cls: Type, rule: Callable) -> None:
    """Register ``rule(args, kwargs) -> ArraySpec`` for a Function class."""
    _REGISTRY[fn_cls] = rule


def infer_output_spec(fn, args, kwargs) -> ArraySpec:
    """Infer the output spec of one recorded instruction.

    ``fn`` may be a Function instance or class; ``args`` is the abstract
    positional list.  Raises :class:`SpecError` when no rule is known or
    the rule rejects the arguments.
    """
    cls = fn if isinstance(fn, type) else type(fn)
    # Instance hook first: plan-private Functions (e.g. the fused-chain
    # wrapper in repro.runtime.plan) carry a bound ``infer_spec`` that
    # re-derives the spec per instance; ordinary Functions inherit
    # ``infer_spec = None`` from the base class and fall through.
    rule = getattr(fn, "infer_spec", None) or _REGISTRY.get(cls)
    if rule is None:
        raise SpecError(f"no shape/dtype rule registered for {cls.__name__}")
    out = rule(args, kwargs)
    if not isinstance(out, ArraySpec):
        raise SpecError(f"rule for {cls.__name__} returned {type(out).__name__}")
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _float_like(dtype) -> np.dtype:
    """Output dtype of a float-valued ufunc applied to ``dtype``."""
    dtype = np.dtype(dtype)
    return dtype if dtype.kind == "f" else _F64


# -- elementwise and broadcasting --------------------------------------------------


def _broadcast_binary(args, kwargs) -> ArraySpec:
    a, b = args
    # Equal shapes/dtypes dominate recorded programs; skip the generic
    # (and surprisingly costly) NumPy promotion machinery for them.
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)
    if a.shape == b.shape:
        return ArraySpec(a.shape, dtype)
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise SpecError(f"operands do not broadcast: {a.shape} vs {b.shape}") from exc
    return ArraySpec(shape, dtype)


def _passthrough(args, kwargs) -> ArraySpec:
    (a,) = args
    return ArraySpec(a.shape, a.dtype)


def _float_unary(args, kwargs) -> ArraySpec:
    a = args[0]
    return ArraySpec(a.shape, _float_like(a.dtype))


def _pow(args, kwargs) -> ArraySpec:
    (a,) = args
    return ArraySpec(a.shape, np.result_type(a.dtype, float(kwargs["exponent"])))


def _clip(args, kwargs) -> ArraySpec:
    a, lo, hi = args
    dtype = a.dtype
    for bound in (lo, hi):
        if bound is not None:
            dtype = np.result_type(dtype, bound)
    return ArraySpec(a.shape, dtype)


def _where(args, kwargs) -> ArraySpec:
    a, b = args
    cond = np.asarray(kwargs["cond"])
    try:
        shape = np.broadcast_shapes(cond.shape, a.shape, b.shape)
    except ValueError as exc:
        raise SpecError(
            f"where operands do not broadcast: cond {cond.shape}, "
            f"{a.shape}, {b.shape}"
        ) from exc
    return ArraySpec(shape, np.result_type(a.dtype, b.dtype))


# -- linear algebra ----------------------------------------------------------------


def _matmul(args, kwargs) -> ArraySpec:
    a, b = args
    _require(a.ndim >= 1 and b.ndim >= 1, "matmul operands must be at least 1-D")
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)
    if a.ndim == 1 and b.ndim == 1:
        _require(a.shape[0] == b.shape[0], f"inner-product mismatch {a.shape}/{b.shape}")
        return ArraySpec((), dtype)
    if b.ndim == 1:
        _require(a.shape[-1] == b.shape[0], f"matmul mismatch {a.shape} @ {b.shape}")
        return ArraySpec(a.shape[:-1], dtype)
    if a.ndim == 1:
        _require(a.shape[0] == b.shape[-2], f"matmul mismatch {a.shape} @ {b.shape}")
        return ArraySpec(b.shape[:-2] + b.shape[-1:], dtype)
    _require(a.shape[-1] == b.shape[-2], f"matmul mismatch {a.shape} @ {b.shape}")
    if a.shape[:-2] == b.shape[:-2]:
        return ArraySpec(a.shape[:-1] + b.shape[-1:], dtype)
    try:
        batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as exc:
        raise SpecError(
            f"matmul batch dims do not broadcast: {a.shape} @ {b.shape}"
        ) from exc
    return ArraySpec(batch + (a.shape[-2], b.shape[-1]), dtype)


# -- shaping -----------------------------------------------------------------------


def _getitem(args, kwargs) -> ArraySpec:
    (a,) = args
    # Index a zero-strided dummy: exact NumPy indexing semantics (shape
    # and dtype, including advanced/bool indexing) at the cost of one
    # output-sized allocation and no input-sized one.
    dummy = np.lib.stride_tricks.as_strided(
        np.zeros((), dtype=a.dtype), shape=a.shape, strides=(0,) * a.ndim
    )
    try:
        out = dummy[kwargs["key"]]
    except (IndexError, TypeError) as exc:
        raise SpecError(f"index invalid for shape {a.shape}: {exc}") from exc
    return ArraySpec(out.shape, out.dtype)


def _reshape(args, kwargs) -> ArraySpec:
    (a,) = args
    shape = tuple(int(s) for s in kwargs["shape"])
    size = prod(a.shape)
    negatives = [i for i, s in enumerate(shape) if s < 0]
    if negatives:
        _require(len(negatives) == 1, f"multiple -1 dims in reshape {shape}")
        known = prod(s for s in shape if s >= 0)
        _require(known > 0 and size % known == 0, f"cannot reshape {a.shape} to {shape}")
        shape = tuple(size // known if s < 0 else s for s in shape)
    _require(
        prod(shape) == size,
        f"cannot reshape {a.shape} (size {size}) to {shape}",
    )
    return ArraySpec(shape, a.dtype)


def _transpose(args, kwargs) -> ArraySpec:
    (a,) = args
    axes = kwargs["axes"]
    if axes is None:
        return ArraySpec(a.shape[::-1], a.dtype)
    axes = tuple(int(ax) % a.ndim for ax in axes)
    _require(sorted(axes) == list(range(a.ndim)), f"{axes} is not a permutation")
    return ArraySpec(tuple(a.shape[ax] for ax in axes), a.dtype)


def _concatenate(args, kwargs) -> ArraySpec:
    _require(len(args) > 0, "concatenate needs at least one operand")
    axis = int(kwargs.get("axis", 0)) % args[0].ndim
    first = args[0]
    total = 0
    for op in args:
        _require(op.ndim == first.ndim, "concatenate rank mismatch")
        for d in range(first.ndim):
            if d != axis:
                _require(
                    op.shape[d] == first.shape[d],
                    f"concatenate dim {d} mismatch: {op.shape} vs {first.shape}",
                )
        total += op.shape[axis]
    shape = first.shape[:axis] + (total,) + first.shape[axis + 1 :]
    return ArraySpec(shape, np.result_type(*[op.dtype for op in args]))


# -- reductions --------------------------------------------------------------------


def _reduced_shape(shape, axis, keepdims) -> Tuple[int, ...]:
    if axis is None:
        return (1,) * len(shape) if keepdims else ()
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = {int(ax) % len(shape) for ax in axes}
    if keepdims:
        return tuple(1 if d in axes else s for d, s in enumerate(shape))
    return tuple(s for d, s in enumerate(shape) if d not in axes)


def _sum(args, kwargs) -> ArraySpec:
    (a,) = args
    # np.sum promotes small integers to the platform default; probing a
    # one-element dummy reproduces the exact promotion rule.
    dtype = np.empty(1, dtype=a.dtype).sum().dtype
    return ArraySpec(_reduced_shape(a.shape, kwargs["axis"], kwargs["keepdims"]), dtype)


def _mean(args, kwargs) -> ArraySpec:
    (a,) = args
    dtype = np.empty(1, dtype=a.dtype).mean().dtype
    return ArraySpec(_reduced_shape(a.shape, kwargs["axis"], kwargs["keepdims"]), dtype)


# -- graph ops ---------------------------------------------------------------------


def _index_spec(index, what: str) -> ArraySpec:
    """Spec of an index operand: a recorded array or an abstract tensor.

    Index operands (edge lists, graph membership, species rows) are
    either burned into the instruction as arrays or rebound per replay
    as integer plan inputs, in which case they arrive abstract already.
    """
    if not isinstance(index, ArraySpec):
        index = spec_of(np.asarray(index))
    _require(index.dtype.kind in "iu", f"{what} must be integral, got {index.dtype}")
    return index


def _row_index_spec(index, order, indptr, what: str) -> ArraySpec:
    """Spec of a bound row index's arrays (see ``repro.autograd.ops.RowIndex``):
    integral, one order entry per index entry, a 1-D ``indptr``."""
    index = _index_spec(index, what)
    order = _index_spec(order, f"{what} order")
    indptr = _index_spec(indptr, f"{what} indptr")
    _require(
        order.shape == index.shape and indptr.ndim == 1 and indptr.shape[0] >= 1,
        f"{what} order {order.shape} / indptr {indptr.shape} "
        f"do not fit index {index.shape}",
    )
    return index


def _gather_rows(args, kwargs) -> ArraySpec:
    x, index, *structure = args  # structure: the bound (order, indptr), if any
    _require(x.ndim >= 1, "gather_rows needs at least 1-D input")
    if structure:
        index = _row_index_spec(index, *structure, "gather index")
        _require(
            structure[1].shape[0] == x.shape[0] + 1,
            f"gather structure has {structure[1].shape[0] - 1} rows, x has {x.shape[0]}",
        )
    index = _index_spec(index, "gather index")
    return ArraySpec(index.shape + x.shape[1:], x.dtype)


def _segment_sum(args, kwargs) -> ArraySpec:
    x, segment_ids, order, indptr = args
    segment_ids = _row_index_spec(segment_ids, order, indptr, "segment ids")
    _require(x.ndim >= 1, "segment_sum needs at least 1-D input")
    _require(
        segment_ids.shape == x.shape[:1],
        f"segment ids {segment_ids.shape} must match rows {x.shape[:1]}",
    )
    return ArraySpec((indptr.shape[0] - 1,) + x.shape[1:], _F64)


# -- equivariant kernels and model ops ---------------------------------------------


def _sh_dim(lmax: int) -> int:
    return (int(lmax) + 1) ** 2


def _channel_mix(args, kwargs) -> ArraySpec:
    x, weights = args[0], args[1:]
    lmax = int(kwargs["lmax"])
    _require(x.ndim >= 2, f"channel mix needs (..., K, m) input, got {x.shape}")
    _require(
        x.shape[-1] == _sh_dim(lmax),
        f"channel mix last dim {x.shape[-1]} != (lmax+1)^2 = {_sh_dim(lmax)}",
    )
    _require(len(weights) == lmax + 1, f"need {lmax + 1} weights, got {len(weights)}")
    k_in, k_out = x.shape[-2], weights[0].shape[1]
    for w in weights:
        _require(
            w.ndim == 2 and w.shape == (k_in, k_out),
            f"weight must be ({k_in}, {k_out}), got {w.shape}",
        )
    return ArraySpec(x.shape[:-2] + (k_out, x.shape[-1]), _F64)


def _edge_norm(args, kwargs) -> ArraySpec:
    (vec,) = args
    _require(vec.ndim == 2 and vec.shape[1] == 3, f"edge vectors must be (E, 3), got {vec.shape}")
    return ArraySpec(vec.shape[:1], _float_like(vec.dtype))


def _spherical_harmonics(args, kwargs) -> ArraySpec:
    (vec,) = args
    _require(vec.ndim == 2 and vec.shape[1] == 3, f"edge vectors must be (E, 3), got {vec.shape}")
    return ArraySpec((vec.shape[0], _sh_dim(kwargs["lmax"])), _F64)


def _bessel_basis(args, kwargs) -> ArraySpec:
    (r,) = args
    _require(r.ndim == 1, f"radial input must be (E,), got {r.shape}")
    return ArraySpec((r.shape[0], int(kwargs["n_basis"])), _F64)


def _channelwise_tp(args, kwargs) -> ArraySpec:
    """Baseline: ``(Y, h, R, table)`` at edge extent.  Optimized: ``h``
    read by the bound ``send`` (arguments 2-4), ``R`` (5) by position, one
    row per edge or one per pair."""
    if len(args) == 4:
        y, h, r, table = args
        _require(y.shape[0] == h.shape[0] == r.shape[0], "edge dimension mismatch")
    else:
        y, h, r, table = args[0], args[1], args[5], args[6]
        edges = _gather_rows([h, *args[2:5]], kwargs)  # h[send]
        _require(edges.shape[0] == y.shape[0], "edge dimension mismatch")
        _require(
            r.shape[0] in (y.shape[0], y.shape[0] / 2), "R must have a row per edge or pair"
        )
    _require(
        y.ndim == 2 and y.shape[1] == _sh_dim(table.l1max),
        f"Y must be (E, {_sh_dim(table.l1max)}), got {y.shape}",
    )
    _require(
        h.ndim == 3 and h.shape[2] == _sh_dim(table.l2max),
        f"h must have {_sh_dim(table.l2max)} components, got {h.shape}",
    )
    _require(
        r.ndim == 3 and r.shape[2] == table.num_paths,
        f"R must have {table.num_paths} paths, got {r.shape}",
    )
    _require(h.shape[1] == r.shape[1], "channel dimension mismatch")
    return ArraySpec((y.shape[0], h.shape[1], _sh_dim(table.l3max)), _F64)


def _sym_contraction(args, kwargs) -> ArraySpec:
    a, weights = args[0], args[4:]
    spec = kwargs["spec"]
    species = _row_index_spec(*args[1:4], "species")
    _require(
        all(w.shape[0] == args[3].shape[0] - 1 for w in weights),
        "species structure rows must match the weights' species rows",
    )
    _require(
        a.ndim == 3 and a.shape[2] == _sh_dim(spec.lmax),
        f"A must be (N, K, {_sh_dim(spec.lmax)}), got {a.shape}",
    )
    _require(species.shape == a.shape[:1], "species must have one entry per atom")
    _require(
        len(weights) == len(spec.blocks),
        f"expected {len(spec.blocks)} weight tensors, got {len(weights)}",
    )
    for w, block in zip(weights, spec.blocks):
        _require(
            w.ndim == 3 and w.shape[1] == a.shape[1] and w.shape[2] == block.n_paths,
            f"weight for (nu={block.nu}, L={block.L}) must be "
            f"(S, {a.shape[1]}, {block.n_paths}), got {w.shape}",
        )
    return ArraySpec((a.shape[0], a.shape[1], spec.out_dim), _F64)


# -- registry ----------------------------------------------------------------------

for _cls in (_engine.Add, _engine.Sub, _engine.Mul, _engine.Div):
    register_spec(_cls, _broadcast_binary)
register_spec(_engine.Neg, _passthrough)
register_spec(_engine.Pow, _pow)
register_spec(_engine.MatMul, _matmul)
register_spec(_engine.GetItem, _getitem)
register_spec(_engine.Reshape, _reshape)
register_spec(_engine.Transpose, _transpose)
register_spec(_engine.Sum, _sum)
register_spec(_engine.Mean, _mean)
for _cls in (_engine.Exp, _engine.Log, _engine.Sqrt, _engine.Tanh):
    register_spec(_cls, _float_unary)
for _cls in (_functional.SiLU, _functional.ReLU, _functional.Sigmoid, _functional.Softplus):
    register_spec(_cls, _float_unary)
register_spec(_ops.GatherRows, _gather_rows)
register_spec(_ops.SegmentSum, _segment_sum)
register_spec(_ops.Concatenate, _concatenate)
register_spec(_ops.Where, _where)
register_spec(_ops.Clip, _clip)
register_spec(_ChannelMix, _channel_mix)
register_spec(_EdgeNorm, _edge_norm)
register_spec(_WithinCutoff, _float_unary)
register_spec(_SphericalHarmonicsOp, _spherical_harmonics)
register_spec(_BesselBasis, _bessel_basis)
register_spec(_ChannelwiseTPBaseline, _channelwise_tp)
register_spec(_ChannelwiseTPOptimized, _channelwise_tp)
register_spec(_SymContractionBaseline, _sym_contraction)
register_spec(_SymContractionOptimized, _sym_contraction)
