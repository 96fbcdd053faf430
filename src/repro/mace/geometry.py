"""Differentiable geometric featurization: edge vectors, lengths, harmonics.

These ops bridge atom positions (autograd tensors) to the equivariant
features MACE consumes, keeping the energy differentiable with respect to
positions so forces ``F = -dE/dr`` are available at inference.

The spherical-harmonics backward uses the closed-form polynomial gradients
(:func:`~repro.equivariant.spherical_harmonics.spherical_harmonics_backward`),
matching the analytic path the CUDA implementation takes: ``Y_l^m`` is
differentiated through its pole-safe ``Q_l^m(z) (C_m, S_m)(x, y)``
factorization, so forces cost one extra recursion pass instead of the six
finite-difference forward evaluations an FD Jacobian would need.
"""

from __future__ import annotations

import numpy as np

from ..autograd.engine import Function, Tensor
from ..autograd.ops import gather_rows
from ..equivariant.spherical_harmonics import (
    sh_dim,
    spherical_harmonics,
    spherical_harmonics_backward,
)

__all__ = [
    "edge_vectors",
    "edge_lengths",
    "edge_spherical_harmonics",
    "within_cutoff",
]


def edge_vectors(positions: Tensor, edge_index, edge_shift) -> Tensor:
    """Displacement vectors ``r_ji = pos[j] + shift - pos[i]`` per edge.

    ``edge_index`` is a ``(2, n_edges)`` integer array or a
    ``(send, recv)`` pair, whose components may be bound
    :class:`~repro.autograd.ops.RowIndex` es and ``edge_shift`` a float
    :class:`Tensor`, in which case a compiled plan listing their arrays
    among its inputs rebinds the edge set per replay — the force plans
    do, so one plan serves every edge set of a shape bucket (see
    :meth:`repro.mace.MACE.energy_and_forces`).  A ghost self-edge
    of :func:`repro.graphs.collate` (``send == recv``, zero shift)
    has the exact zero vector ``p - p + 0``.
    """
    send, recv = edge_index
    pj = gather_rows(positions, send)
    pi = gather_rows(positions, recv)
    shift = edge_shift if isinstance(edge_shift, Tensor) else Tensor(edge_shift)
    return pj - pi + shift


class _EdgeNorm(Function):
    """Euclidean norm per row, with the analytic gradient ``v / |v|``."""

    supports_out = True  # (E, 3) -> (E,): out never aliases vec

    def forward(self, vec, out=None):
        # sqrt(sum(v * v)) is bitwise np.linalg.norm(vec, axis=1).
        r = np.sqrt(np.sum(vec * vec, axis=1), out=out)
        self.saved = (vec, r)
        return r

    def backward(self, grad):
        vec, r = self.saved
        safe = np.where(r > 0.0, r, 1.0)
        return (grad[:, None] * vec / safe[:, None],)


def edge_lengths(vec: Tensor) -> Tensor:
    """``(E,)`` interatomic distances from edge vectors."""
    return _EdgeNorm.apply(vec)


class _SphericalHarmonicsOp(Function):
    """Real spherical harmonics of (normalized) edge vectors.

    Backward: exact closed-form gradient via the pole-safe polynomial
    factorization (see
    :func:`~repro.equivariant.spherical_harmonics.spherical_harmonics_backward`).
    ``normalization='component'`` matches MACE/e3nn.
    """

    supports_out = True  # (E, 3) -> (E, sh_dim): shapes can never alias

    def forward(self, vec, lmax: int, out=None):
        self.saved = (vec, lmax)
        return spherical_harmonics(lmax, vec, normalization="component", out=out)

    def backward(self, grad):
        vec, lmax = self.saved
        gvec = spherical_harmonics_backward(lmax, vec, grad, normalization="component")
        return (gvec,)


def edge_spherical_harmonics(vec: Tensor, lmax: int) -> Tensor:
    """``(E, (lmax+1)^2)`` component-normalized real spherical harmonics."""
    return _SphericalHarmonicsOp.apply(vec, lmax=lmax)


class _WithinCutoff(Function):
    """Indicator ``1.0 where r > 0 else 0.0`` per edge.

    Every real edge of a batch lies within the cutoff by construction
    (neighbor lists are exact), so the only edges this zeroes are the
    zero-length ghost self-edges of :func:`repro.graphs.collate`.
    :meth:`repro.mace.MACE.forward` and the force plans multiply the
    edge harmonics by it, and the channelwise TP is linear in the
    harmonics, so a ghost edge contributes exactly ``0.0`` to energies
    and forces.  The indicator is piecewise constant in ``r``: its
    derivative is zero almost everywhere, so backward propagates no
    gradient.
    """

    supports_out = True  # (E,) -> (E,): elementwise, out never aliases r

    def forward(self, r, out=None):
        if out is None:
            out = np.empty(r.shape, dtype=r.dtype)
        np.greater(r, 0.0, out=out)
        return out

    def backward(self, grad):
        return (None,)


def within_cutoff(r: Tensor) -> Tensor:
    """``(E,)`` float indicator of the edges of non-zero length: the real
    edges of a padded batch, as opposed to its ghosts."""
    return _WithinCutoff.apply(r)
