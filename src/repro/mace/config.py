"""MACE model hyperparameter configuration.

Defaults mirror the paper's §5.2 settings where computationally feasible in
pure NumPy, with the channel count scaled down (the paper uses 128; the
default here is 16 — width only rescales compute, not the structure of the
kernels or the equivariance properties).  Every value is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

__all__ = ["MACEConfig"]


@dataclass(frozen=True)
class MACEConfig:
    """Hyperparameters of the MACE model.

    Attributes
    ----------
    num_channels:
        Channel multiplicity ``K`` (paper: 128 for ``128x0e + 128x1o``).
    lmax_sh:
        Highest spherical-harmonic degree of the edge attributes (paper: 3).
    l_hidden:
        Highest degree of the node features passed *between* interaction
        layers (paper: 1, i.e. ``0e + 1o``).  The first layer reads only
        the scalar species embedding and the last writes only the
        invariants the readout uses, so with one layer ``l_hidden`` is
        unused.
    l_atomic_basis:
        Truncation of the atomic basis ``A`` built by the channelwise TP
        (paper: max L = 2).
    correlation:
        Correlation order ``nu`` of the symmetric contraction (paper: 2 per
        layer; two layers then yield the body order 4 messages quoted in
        §5.2).
    n_layers:
        Number of interaction layers (paper: 2).
    n_radial_basis:
        Bessel basis size (paper: 8).
    radial_mlp_hidden:
        Hidden widths of the radial MLP.
    readout_mlp_hidden:
        Hidden width of the final MLP readout.
    cutoff:
        Radial cutoff in Angstrom (paper: 4.5).
    avg_num_neighbors:
        Normalization constant for neighbor pooling (keeps activations O(1)
        across systems of different density).
    kernel_variant:
        ``"baseline"`` (e3nn-style chains) or ``"optimized"`` (fused +
        CG-sparse kernels) — the toggle the ablation study flips.
    species:
        Atomic numbers the model supports (embedding rows).
    """

    num_channels: int = 16
    lmax_sh: int = 3
    l_hidden: int = 1
    l_atomic_basis: int = 2
    correlation: int = 2
    n_layers: int = 2
    n_radial_basis: int = 8
    radial_mlp_hidden: Tuple[int, ...] = (32, 32)
    readout_mlp_hidden: int = 16
    cutoff: float = 4.5
    avg_num_neighbors: float = 25.0
    kernel_variant: str = "optimized"
    species: Tuple[int, ...] = field(
        default_factory=lambda: (1, 8, 13, 14, 16, 17, 22, 23, 24, 25, 26, 27, 28, 29, 30, 34, 42, 52, 74)
    )

    def __post_init__(self) -> None:
        if self.kernel_variant not in ("baseline", "optimized"):
            raise ValueError(f"unknown kernel variant {self.kernel_variant!r}")
        if self.correlation < 1:
            raise ValueError("correlation order must be >= 1")
        if self.l_hidden > self.l_atomic_basis:
            raise ValueError("l_hidden cannot exceed l_atomic_basis")
        if self.n_layers < 1:
            raise ValueError("need at least one interaction layer")

    @property
    def n_species(self) -> int:
        return len(self.species)

    def with_variant(self, variant: str) -> "MACEConfig":
        """A copy with the kernel variant switched (ablation convenience)."""
        from dataclasses import replace

        return replace(self, kernel_variant=variant)
