"""Dense and equivariant linear layers plus the MLP used by MACE readouts."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..autograd import Tensor, silu
from ..autograd.engine import Function
from ..equivariant.spherical_harmonics import sh_block_slice, sh_dim
from .module import Module, Parameter

__all__ = ["Linear", "EquivariantLinear", "MLP", "Embedding"]


def _kaiming(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    scale = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-scale, scale, size=shape)


class Linear(Module):
    """Affine map ``y = x W + b`` on the last axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming(rng, in_features, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class _ChannelMix(Function):
    """``out[..., k', l, m] = sum_k x[..., k, l, m] W_l[k, k']`` per degree.

    One weight matrix per degree block keeps the map equivariant (it never
    mixes different ``m`` components).  Implemented as a single fused op so
    the tape stays shallow for large models.
    """

    @staticmethod
    def _mix(block: np.ndarray, weight: np.ndarray) -> np.ndarray:
        # (..., K, d) x (K, J) -> (..., J, d) as one BLAS matmul on the
        # transposed layout (bitwise-equal to the einsum formulation,
        # several times faster at both small and saturated sizes).
        return np.swapaxes(np.swapaxes(block, -2, -1) @ weight, -2, -1)

    supports_out = True  # per-degree GEMMs: out may not alias x

    def forward(self, x, *weights, lmax: int, out=None):
        self.saved = (x, weights, lmax)
        # x has layout (..., K_in, (lmax+1)^2); each degree block is x[..., :, sl].
        k_out = weights[0].shape[1]
        if out is None:
            out = np.empty(x.shape[:-2] + (k_out, x.shape[-1]), dtype=np.float64)
        for l in range(lmax + 1):
            sl = sh_block_slice(l)
            out[..., sl] = self._mix(x[..., sl], weights[l])
        return out

    def backward(self, grad):
        x, weights, lmax = self.saved
        mask = self.grad_mask or (True,) * (lmax + 2)
        gx = np.empty_like(x) if mask[0] else None
        gws = []
        for l in range(lmax + 1):
            sl = sh_block_slice(l)
            g = grad[..., sl]
            if mask[0]:
                gx[..., sl] = self._mix(g, weights[l].T)
            if not mask[1 + l]:
                gws.append(None)
                continue
            xb = x[..., sl]
            # sum over batch and m: gw[k, j] = sum x[..., k, m] g[..., j, m]
            gw = np.tensordot(
                xb.reshape(-1, *xb.shape[-2:]),
                g.reshape(-1, *g.shape[-2:]),
                axes=([0, 2], [0, 2]),
            )
            gws.append(gw)
        return (gx, *gws)


class EquivariantLinear(Module):
    """Channel-mixing linear layer on features of layout ``(..., K, (lmax+1)^2)``.

    Applies an independent ``K_in x K_out`` weight per spherical-harmonic
    degree, which commutes with rotations (tested against Wigner-D).  This
    is the "linear combination between terms k of the same order" step of
    MACE's interaction and update blocks.
    """

    def __init__(
        self,
        channels_in: int,
        channels_out: int,
        lmax: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.channels_in = channels_in
        self.channels_out = channels_out
        self.lmax = lmax
        for l in range(lmax + 1):
            setattr(
                self,
                f"weight_l{l}",
                Parameter(_kaiming(rng, channels_in, (channels_in, channels_out))),
            )

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != sh_dim(self.lmax):
            raise ValueError(
                f"expected last dim {sh_dim(self.lmax)}, got {x.shape[-1]}"
            )
        weights = [getattr(self, f"weight_l{l}") for l in range(self.lmax + 1)]
        return _ChannelMix.apply(x, *weights, lmax=self.lmax)


class MLP(Module):
    """SiLU multilayer perceptron (radial networks and the final readout)."""

    def __init__(
        self,
        sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng()
        self.n_layers = len(sizes) - 1
        for i in range(self.n_layers):
            setattr(self, f"layer{i}", Linear(sizes[i], sizes[i + 1], bias=bias, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        for i in range(self.n_layers):
            x = getattr(self, f"layer{i}")(x)
            if i < self.n_layers - 1:
                x = silu(x)
        return x


class Embedding(Module):
    """Lookup table mapping integer ids (atomic species) to vectors."""

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.standard_normal((num_embeddings, dim)) / math.sqrt(dim))

    def forward(self, ids) -> Tensor:
        """Rows of the table for ``ids`` — an integer array, or a bound
        :class:`~repro.autograd.ops.RowIndex` whose fields a compiled
        plan may rebind per replay (see :func:`repro.autograd.gather_rows`)."""
        from ..autograd.ops import RowIndex, gather_rows

        values = ids.index if isinstance(ids, RowIndex) else ids
        values = np.asarray(values.data if isinstance(values, Tensor) else values)
        if values.min(initial=0) < 0 or (values.size and values.max() >= self.num_embeddings):
            raise IndexError("embedding id out of range")
        return gather_rows(self.weight, ids)
