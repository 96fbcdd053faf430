"""Radial featurization: Bessel basis with a polynomial cutoff envelope.

MACE encodes each interatomic distance in 8 Bessel radial basis functions
(§5.2) multiplied by a smooth polynomial envelope that vanishes (with two
zero derivatives) at the cutoff, then feeds them through an MLP to produce
the per-edge, per-path weights ``R^(t)_{ji,k l1 l2 l3}`` of Algorithm 2.
"""

from __future__ import annotations

import math
import numpy as np

from ..autograd.engine import Function, Tensor
from ..nn import MLP, Module

__all__ = ["bessel_basis", "polynomial_cutoff", "RadialNetwork"]


def polynomial_cutoff(r: np.ndarray, cutoff: float) -> np.ndarray:
    """C2-smooth envelope: 1 at r=0, 0 at r=cutoff (quintic polynomial)."""
    x = np.clip(r / cutoff, 0.0, 1.0)
    return 1.0 - 10.0 * x**3 + 15.0 * x**4 - 6.0 * x**5


def _polynomial_cutoff_grad(r: np.ndarray, cutoff: float) -> np.ndarray:
    x = np.clip(r / cutoff, 0.0, 1.0)
    return (-30.0 * x**2 + 60.0 * x**3 - 30.0 * x**4) / cutoff


class _BesselBasis(Function):
    """``b_n(r) = sqrt(2/rc) sin(n pi r / rc) / r * envelope(r)``.

    Analytic backward with the r -> 0 limit handled (sin(ar)/r -> a).
    """

    supports_out = True  # (E,) -> (E, n_basis): out never aliases r

    def forward(self, r, n_basis: int, cutoff: float, out=None):
        self.saved = (r, n_basis, cutoff)
        return _bessel_forward(r, n_basis, cutoff, out=out)

    def backward(self, grad):
        r, n_basis, cutoff = self.saved
        n = np.arange(1, n_basis + 1)[None, :]
        a = n * math.pi / cutoff
        pref = math.sqrt(2.0 / cutoff)
        rr = r[:, None]
        safe = np.where(rr > 1e-9, rr, 1.0)
        sin_term = np.where(rr > 1e-9, np.sin(a * rr) / safe, a)
        dsin_term = np.where(
            rr > 1e-9,
            (a * np.cos(a * rr) * safe - np.sin(a * rr)) / (safe * safe),
            0.0,
        )
        env = polynomial_cutoff(r, cutoff)[:, None]
        denv = _polynomial_cutoff_grad(r, cutoff)[:, None]
        db = pref * (dsin_term * env + sin_term * denv)
        return (np.einsum("en,en->e", grad, db),)


def _bessel_forward(
    r: np.ndarray, n_basis: int, cutoff: float, out: np.ndarray = None
) -> np.ndarray:
    n = np.arange(1, n_basis + 1)[None, :]
    a = n * math.pi / cutoff
    rr = r[:, None]
    safe = np.where(rr > 1e-9, rr, 1.0)
    sin_term = np.where(rr > 1e-9, np.sin(a * rr) / safe, a)
    env = polynomial_cutoff(r, cutoff)[:, None]
    out = np.multiply(sin_term, env, out=out)
    out *= math.sqrt(2.0 / cutoff)
    return out


def bessel_basis(r: Tensor, n_basis: int, cutoff: float) -> Tensor:
    """``(E, n_basis)`` differentiable Bessel radial features."""
    return _BesselBasis.apply(r, n_basis=n_basis, cutoff=cutoff)


class RadialNetwork(Module):
    """Pair-row Bessel basis -> MLP -> per-pair path weights
    ``(E/2, K, n_paths)``.

    Both directions of an undirected pair have bitwise-equal lengths, so
    the MLP runs once per pair, on the ``(E/2, n_basis)`` basis rows of
    :meth:`repro.mace.MACE.featurize`, and the channelwise TP reads row
    ``p`` for both edges ``2p`` and ``2p + 1``, summing both gradients
    onto it.  The
    output is reshaped to one weight per (channel, tensor-product path),
    i.e. the precomputed ``R^(t)`` of Algorithm 2.
    """

    def __init__(
        self,
        n_basis: int,
        hidden: tuple,
        channels: int,
        n_paths: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.n_paths = n_paths
        self.mlp = MLP([n_basis, *hidden, channels * n_paths], rng=rng)

    def forward(self, basis: Tensor) -> Tensor:
        """Per-pair path weights from the ``bessel_basis`` of the pair lengths."""
        flat = self.mlp(basis)  # (E/2, K * n_paths)
        return flat.reshape((flat.shape[0], self.channels, self.n_paths))
