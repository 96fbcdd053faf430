"""Reverse-mode autograd over NumPy — the repository's PyTorch substitute."""

from .engine import Function, Tensor, as_tensor, is_grad_enabled, no_grad
from .ops import (
    clip,
    concatenate,
    gather_rows,
    segment_sum,
    stack,
    where,
)
from .functional import (
    l2_norm,
    mse,
    relu,
    sigmoid,
    silu,
    softplus,
    weighted_mse,
)
from .gradcheck import check_gradients, numerical_gradient

__all__ = [
    "Tensor",
    "Function",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "gather_rows",
    "segment_sum",
    "concatenate",
    "stack",
    "where",
    "clip",
    "silu",
    "relu",
    "sigmoid",
    "softplus",
    "mse",
    "weighted_mse",
    "l2_norm",
    "check_gradients",
    "numerical_gradient",
]
