"""A reverse-mode automatic differentiation engine over NumPy arrays.

This is the repository's substitute for PyTorch's autograd: a minimal but
complete tape-based engine.  Every differentiable operation is a
:class:`Function` with an explicit backward rule; :class:`Tensor` wraps a
NumPy array plus its position in the tape.  The MACE model, its optimized
kernels (which register *custom* backward passes, exactly as the paper's
CUDA kernels must) and the training loop are all built on it.

Design notes
------------
* Broadcasting follows NumPy; backward un-broadcasts by summing over the
  broadcast axes.
* The tape is built eagerly; ``backward()`` runs a topological sort and
  accumulates ``grad`` on the leaves that require it.  Interior
  gradients live only in the sweep and are dropped after their one use.
* ``no_grad()`` suspends taping for label generation / evaluation.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "Function", "no_grad", "is_grad_enabled", "as_tensor"]

# Monotonic tensor serial numbers.  Every Tensor gets the next value at
# construction; unlike ``id()`` a serial is never recycled, so serials
# are safe dictionary keys for bookkeeping that outlives the tensors
# (eager backward below, slot assignment in repro.runtime.plan).
# ``itertools.count`` increments under the GIL, so serials stay unique
# across threads.
_SERIALS = itertools.count()


class _EngineState(threading.local):
    """Per-thread grad mode and active tape recorder.

    Thread-local rather than module-global so the thread-pool executor
    (:mod:`repro.parallel`) can run independent forward/backward passes
    concurrently: one worker's ``no_grad()`` or plan capture must never
    leak into another's training step.  ``threading.local`` runs
    ``__init__`` once per thread on first touch, giving every thread the
    default state.
    """

    def __init__(self) -> None:
        self.grad_enabled = [True]
        self.recorder = None


_STATE = _EngineState()


def _set_recorder(recorder):
    """Install (or clear, with ``None``) the active tape recorder.

    Returns the previously installed recorder so callers can restore it;
    used only by :mod:`repro.runtime`.  The recorder slot is per-thread.
    """
    previous = _STATE.recorder
    _STATE.recorder = recorder
    return previous


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape construction (this thread only)."""
    _STATE.grad_enabled.append(False)
    try:
        yield
    finally:
        _STATE.grad_enabled.pop()


def is_grad_enabled() -> bool:
    """Whether operations currently record to the tape."""
    return _STATE.grad_enabled[-1]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Function:
    """Base class of differentiable operations.

    Subclasses implement :meth:`forward` (returning a raw ndarray) and
    :meth:`backward` (returning one gradient per input, or ``None`` for
    non-differentiable inputs).  ``self.saved`` may hold anything forward
    wants to reuse.

    ``grad_mask`` is an optional per-tensor-input needed-gradient mask
    (aligned with the backward return tuple).  The eager engine never
    sets it — every instance computes all gradients, as before.  A
    compiled plan (:mod:`repro.runtime`) sets it on its private replayed
    instances so expensive backward rules can skip gradients nobody
    consumes (constant-folded operands, pruned parameter branches);
    honoring the mask is optional and purely an optimization, since the
    caller drops unrequested gradients either way.

    ``infer_spec`` is an optional static shape/dtype rule consumed by the
    plan verifier (:mod:`repro.analysis`): a callable taking
    ``(abstract_args, kwargs)`` — the positional argument list with
    tensor positions replaced by ``repro.analysis.specs.ArraySpec`` —
    and returning the output ``ArraySpec``.  Ops defined inside the
    repository are covered by the registry in
    :mod:`repro.analysis.specs`; third-party Functions can either set
    this attribute or call ``repro.analysis.register_spec``.

    ``supports_out`` declares the opt-in write-into protocol: a subclass
    setting it ``True`` accepts an ``out=`` keyword in :meth:`forward`
    and, when a buffer is passed, writes the result into it and returns
    that same buffer.  The contract is strict so the arena planner in
    :mod:`repro.runtime.plan` can preassign buffers:

    * ``out`` always has exactly the shape/dtype of the eager result;
    * with ``out=None`` (the eager path — :meth:`apply` never passes a
      buffer) behavior is bit-identical to before the migration;
    * forward must not retain any reference to ``out`` beyond the
      returned value and ``self.saved`` (enforced by the
      ``supports-out-retains-buffer`` lint rule) — the planner may hand
      the same buffer to other instructions once this value dies.

    ``out_alias_safe`` additionally declares that ``out`` may alias one
    of the operand arrays (true for straight NumPy ufunc elementwise
    ops, which read each element before writing it; never true for
    GEMMs, gathers, reductions or the fused kernels).  Only
    ``out_alias_safe`` ops are eligible for operand-buffer *donation*;
    everything else still gets an arena buffer that is guaranteed
    disjoint from its live operands.
    """

    grad_mask: Optional[Tuple[bool, ...]] = None
    infer_spec: Optional[Callable] = None
    supports_out: bool = False
    out_alias_safe: bool = False

    def __init__(self) -> None:
        self.inputs: Tuple["Tensor", ...] = ()
        self.saved: tuple = ()

    def forward(self, *args, **kwargs) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError  # pragma: no cover

    @classmethod
    def apply(cls, *args, **kwargs) -> "Tensor":
        """Run forward, wiring the result into the tape when enabled."""
        fn = cls()
        tensors = tuple(a for a in args if isinstance(a, Tensor))
        fn.inputs = tensors
        raw = tuple(a.data if isinstance(a, Tensor) else a for a in args)
        out_data = fn.forward(*raw, **kwargs)
        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        out = Tensor(out_data, requires_grad=requires)
        if requires:
            out._ctx = fn
        recorder = _STATE.recorder
        if recorder is not None:
            recorder.record(fn, args, kwargs, out)
        return out


TensorLike = Union["Tensor", np.ndarray, float, int]


class Tensor:
    """A NumPy array with gradient bookkeeping.

    Parameters
    ----------
    data:
        Array (or scalar) payload; copied only if conversion requires it.
    requires_grad:
        Whether gradients should accumulate in ``.grad`` on backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_ctx", "_serial")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64 if np.asarray(data).dtype.kind == "f" else None)
        if self.data.dtype.kind not in "fiu":
            raise TypeError(f"unsupported dtype {self.data.dtype}")
        if self.data.dtype.kind in "iu" and requires_grad:
            raise TypeError("integer tensors cannot require grad")
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._ctx: Optional[Function] = None
        self._serial: int = next(_SERIALS)

    # -- basic introspection ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def serial(self) -> int:
        """Monotonic creation serial — a never-recycled identity key."""
        return self._serial

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- pickling ----------------------------------------------------------------
    #
    # Serial numbers are *process-local* identity: restoring a pickled
    # serial into another process (or even the same one) could collide
    # with a live tensor's serial and miscompile any plan captured over
    # both.  An unpickled tensor is therefore a fresh leaf: new serial,
    # no tape context.  The tape itself never crosses pickle — compiled
    # plans strip ``fn.inputs`` at build time, and ad-hoc tensors lose
    # their history (``.data``/``.grad`` survive, ``backward()`` does
    # not), which is exactly the cross-process contract the parallel
    # workers need.

    def __getstate__(self):
        return (self.data, self.grad, self.requires_grad)

    def __setstate__(self, state) -> None:
        self.data, self.grad, self.requires_grad = state
        self._ctx = None
        self._serial = next(_SERIALS)

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad})"

    # -- backward ----------------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode sweep accumulating ``.grad`` on requiring leaves.

        Interior (non-leaf) tensors never receive ``.grad``: their
        gradients are held by the sweep only until the node's backward
        has read them, so peak memory follows the live gradient frontier
        instead of the whole tape.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without gradient needs a scalar output")
            grad = np.ones_like(self.data, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            raise ValueError(f"gradient shape {grad.shape} != output shape {self.shape}")

        # Iterative post-order DFS: deep op chains (thousands of nodes)
        # must not hit Python's recursion limit.  Bookkeeping is keyed on
        # tensor serial numbers, not id(): serials are never recycled, so
        # the dictionaries stay collision-free even if the allocator
        # reuses a freed tensor's address mid-sweep.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node._ctx is None:
                continue
            if expanded:
                topo.append(node)
                continue
            if node._serial in visited:
                continue
            visited.add(node._serial)
            stack.append((node, True))
            for parent in node._ctx.inputs:
                stack.append((parent, False))

        grads: dict = {self._serial: grad}
        for node in reversed(topo):
            g = grads.pop(node._serial, None)
            if g is None:
                continue
            ctx = node._ctx
            in_grads = ctx.backward(g)
            for parent, ig in zip(ctx.inputs, in_grads):
                if ig is None or not (parent.requires_grad or parent._ctx is not None):
                    continue
                ig = np.asarray(ig, dtype=np.float64)
                if parent._ctx is None:
                    if parent.grad is None:
                        parent.grad = np.zeros(parent.shape, dtype=np.float64)
                    parent.grad += ig
                else:
                    key = parent._serial
                    if key in grads:
                        grads[key] = grads[key] + ig
                    else:
                        grads[key] = ig
        if self.requires_grad and self._ctx is None:
            if self.grad is None:
                self.grad = np.zeros(self.shape, dtype=np.float64)
            self.grad += grad

    # -- operators ---------------------------------------------------------------

    def __add__(self, other: TensorLike) -> "Tensor":
        return Add.apply(self, as_tensor(other))

    def __radd__(self, other: TensorLike) -> "Tensor":
        return Add.apply(as_tensor(other), self)

    def __sub__(self, other: TensorLike) -> "Tensor":
        return Sub.apply(self, as_tensor(other))

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return Sub.apply(as_tensor(other), self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        return Mul.apply(self, as_tensor(other))

    def __rmul__(self, other: TensorLike) -> "Tensor":
        return Mul.apply(as_tensor(other), self)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        return Div.apply(self, as_tensor(other))

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return Div.apply(as_tensor(other), self)

    def __neg__(self) -> "Tensor":
        return Neg.apply(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return Pow.apply(self, exponent=float(exponent))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return MatMul.apply(self, as_tensor(other))

    def __getitem__(self, key) -> "Tensor":
        return GetItem.apply(self, key=key)

    # -- shaping -----------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        return Transpose.apply(self, axes=axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Sum.apply(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Mean.apply(self, axis=axis, keepdims=keepdims)

    # -- elementwise --------------------------------------------------------------

    def exp(self) -> "Tensor":
        return Exp.apply(self)

    def log(self) -> "Tensor":
        return Log.apply(self)

    def sqrt(self) -> "Tensor":
        return Sqrt.apply(self)

    def tanh(self) -> "Tensor":
        return Tanh.apply(self)


def as_tensor(x: TensorLike) -> Tensor:
    """Coerce scalars/arrays to (non-grad) tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


# -- primitive Functions -----------------------------------------------------------


class Add(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, b, out=None):
        self.saved = (np.shape(a), np.shape(b))
        return np.add(a, b, out=out) if out is not None else a + b

    def backward(self, grad):
        sa, sb = self.saved
        na, nb = self.grad_mask or (True, True)
        return (
            _unbroadcast(grad, sa) if na else None,
            _unbroadcast(grad, sb) if nb else None,
        )


class Sub(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, b, out=None):
        self.saved = (np.shape(a), np.shape(b))
        return np.subtract(a, b, out=out) if out is not None else a - b

    def backward(self, grad):
        sa, sb = self.saved
        na, nb = self.grad_mask or (True, True)
        return (
            _unbroadcast(grad, sa) if na else None,
            _unbroadcast(-grad, sb) if nb else None,
        )


class Mul(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, b, out=None):
        self.saved = (a, b)
        return np.multiply(a, b, out=out) if out is not None else a * b

    def backward(self, grad):
        a, b = self.saved
        na, nb = self.grad_mask or (True, True)
        return (
            _unbroadcast(grad * b, a.shape) if na else None,
            _unbroadcast(grad * a, b.shape) if nb else None,
        )


class Div(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, b, out=None):
        self.saved = (a, b)
        return np.divide(a, b, out=out) if out is not None else a / b

    def backward(self, grad):
        a, b = self.saved
        na, nb = self.grad_mask or (True, True)
        ga = _unbroadcast(grad / b, a.shape) if na else None
        gb = _unbroadcast(-grad * a / (b * b), b.shape) if nb else None
        return ga, gb


class Neg(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, out=None):
        return np.negative(a, out=out) if out is not None else -a

    def backward(self, grad):
        return (-grad,)


class Pow(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, exponent: float, out=None):
        self.saved = (a, exponent)
        return np.power(a, exponent, out=out) if out is not None else a ** exponent

    def backward(self, grad):
        a, p = self.saved
        return (grad * p * a ** (p - 1.0),)


class MatMul(Function):
    supports_out = True  # GEMM output must stay disjoint from operands

    def forward(self, a, b, out=None):
        self.saved = (a, b)
        return np.matmul(a, b, out=out) if out is not None else a @ b

    def backward(self, grad):
        a, b = self.saved
        need_a, need_b = self.grad_mask or (True, True)
        if a.ndim == 1 and b.ndim == 1:  # inner product
            return grad * b, grad * a
        if b.ndim == 1:  # (..., n, k) @ (k,) -> (..., n)
            ga = _unbroadcast(grad[..., None] * b, a.shape) if need_a else None
            gb = np.einsum("...n,...nk->k", grad, a) if need_b else None
            return ga, gb
        if a.ndim == 1:  # (k,) @ (k, m) -> (m,)
            ga = b @ grad
            gb = np.outer(a, grad)
            return ga, _unbroadcast(gb, b.shape)
        ga = (
            _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape) if need_a else None
        )
        gb = (
            _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape) if need_b else None
        )
        return ga, gb


def _is_basic_index(key) -> bool:
    """Whether ``key`` is pure basic indexing (ints/slices/None/...)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        isinstance(k, (int, slice)) or k is None or k is Ellipsis for k in parts
    )


class GetItem(Function):
    def forward(self, a, key):
        self.saved = (a.shape, key)
        return a[key]

    def backward(self, grad):
        shape, key = self.saved
        out = np.zeros(shape, dtype=np.float64)
        if _is_basic_index(key):
            # Basic indexing never selects an element twice, so the
            # scatter-add is a plain (much cheaper) assignment.
            out[key] = grad
        else:
            np.add.at(out, key, grad)
        return (out,)


class Reshape(Function):
    def forward(self, a, shape):
        self.saved = (a.shape,)
        return a.reshape(shape)

    def backward(self, grad):
        (shape,) = self.saved
        return (grad.reshape(shape),)


class Transpose(Function):
    def forward(self, a, axes):
        self.saved = (axes,)
        return np.transpose(a, axes)

    def backward(self, grad):
        (axes,) = self.saved
        if axes is None:
            return (np.transpose(grad),)
        # Negative axes are valid forward arguments but break argsort's
        # inverse (argsort((-1, 0, 1)) != inverse permutation); normalize
        # mod ndim before inverting.
        axes = tuple(int(a) % grad.ndim for a in axes)
        inv = np.argsort(axes)
        return (np.transpose(grad, inv),)


class Sum(Function):
    supports_out = True  # reduction: out may not alias the operand

    def forward(self, a, axis, keepdims, out=None):
        self.saved = (a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims, out=out)

    def backward(self, grad):
        shape, axis, keepdims = self.saved
        if axis is None:
            return (np.broadcast_to(grad, shape).astype(np.float64),)
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % len(shape) for a in axes)
            for a in sorted(axes):
                grad = np.expand_dims(grad, a)
        return (np.broadcast_to(grad, shape).astype(np.float64),)


class Mean(Function):
    supports_out = True  # reduction: out may not alias the operand

    def forward(self, a, axis, keepdims, out=None):
        self.saved = (a.shape, axis, keepdims)
        return a.mean(axis=axis, keepdims=keepdims, out=out)

    def backward(self, grad):
        shape, axis, keepdims = self.saved
        if axis is None:
            count = int(np.prod(shape))
            return (np.broadcast_to(grad / count, shape).astype(np.float64),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        count = int(np.prod([shape[a] for a in axes]))
        if not keepdims:
            for a in sorted(axes):
                grad = np.expand_dims(grad, a)
        return (np.broadcast_to(grad / count, shape).astype(np.float64),)


class Exp(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, out=None):
        out = np.exp(a, out=out) if out is not None else np.exp(a)
        self.saved = (out,)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * out,)


class Log(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, out=None):
        self.saved = (a,)
        return np.log(a, out=out) if out is not None else np.log(a)

    def backward(self, grad):
        (a,) = self.saved
        return (grad / a,)


class Sqrt(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, out=None):
        out = np.sqrt(a, out=out) if out is not None else np.sqrt(a)
        self.saved = (out,)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad / (2.0 * out),)


class Tanh(Function):
    supports_out = True
    out_alias_safe = True

    def forward(self, a, out=None):
        out = np.tanh(a, out=out) if out is not None else np.tanh(a)
        self.saved = (out,)
        return out

    def backward(self, grad):
        (out,) = self.saved
        return (grad * (1.0 - out * out),)
