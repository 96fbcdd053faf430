"""Per-mini-batch MACE workload model (FLOPs / bytes / kernel launches).

Derives analytical execution profiles of one training step (forward +
backward) of MACE on a batch with ``tokens`` atoms and ``edges`` edges, for
both kernel variants.  The formulas mirror the instrumented NumPy kernels
in :mod:`repro.kernels` — same dense-vs-sparse multiply counts, same
launch structure — scaled to the paper's production configuration (128
channels).  Everything is vectorized over batch arrays so a 2.65 M-sample
epoch profile evaluates in milliseconds.

Sub-saturation behaviour: below the device's saturation token count the
GPU is latency-bound, so execution time flattens (the §5.5 effect that
sets the *lower* bound on useful bin capacity).  This is modeled by
evaluating the roofline at ``max(tokens, saturation)`` effective tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..equivariant.spherical_harmonics import sh_dim
from ..kernels.channelwise_tp import channelwise_tp_table
from ..kernels.symmetric_contraction import sym_contraction_spec
from .gpu import GPUSpec, KernelWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mace -> kernels)
    from ..mace.config import MACEConfig

__all__ = ["MACEWorkloadModel", "PAPER_MODEL"]

_BACKWARD_FACTOR = 2.0  # backward pass ~2x the forward FLOPs/bytes

# Host-side batch-construction constants (seconds), calibrated on the
# NumPy reference pipeline (``graphs.collate_s`` of ``python -m
# bench.run`` is the measured twin): a
# collate is a handful of array concatenations (per-token and per-edge
# copies plus fixed allocation overhead), a CollateCache hit is a
# dictionary lookup with LRU bookkeeping.
_HOST_COLLATE_BASE = 3.0e-5
_HOST_COLLATE_PER_TOKEN = 8.0e-9
_HOST_COLLATE_PER_EDGE = 4.0e-9
_HOST_CACHE_HIT = 2.0e-6


@dataclass(frozen=True)
class MACEWorkloadModel:
    """Analytical cost model of a MACE training step.

    Parameters mirror :class:`repro.mace.MACEConfig` at production scale.

    Attributes
    ----------
    channels:
        Channel count ``K`` (paper: 128).
    lmax_sh, l_hidden, l_atomic_basis, correlation, n_layers:
        Equivariance structure (paper §5.2 values).
    n_radial_basis, radial_hidden:
        Radial MLP dimensions.
    dtype_bytes:
        4 for Float32 training (§5.2), 8 for the Float64 study (Fig. 11).
    baseline_dense_efficiency:
        Fraction of the *fully* dense CG multiply count the unfused
        implementation actually executes: e3nn's segment kernels already
        skip all-zero (l1,l2,l3) blocks, so charging the full dense count
        would overstate Observation 2.  0.47 reproduces the paper's
        measured ~1.7x kernel-only speedup.

    Defaults correspond to the paper's production run: 128 channels,
    spherical harmonics to l=3, max L=2, message body order 4 (nu=3).
    Every layer is charged at ``l_hidden`` on both sides, although
    :class:`repro.mace.MACE` runs its first layer on scalar inputs and
    its last on invariant outputs; the simulated figures and the serving
    virtual schedule thus stay those of the uniform-degree model.
    """

    channels: int = 128
    lmax_sh: int = 3
    l_hidden: int = 2
    l_atomic_basis: int = 3
    correlation: int = 3
    n_layers: int = 2
    n_radial_basis: int = 8
    radial_hidden: int = 64
    dtype_bytes: int = 4
    baseline_dense_efficiency: float = 0.47

    @classmethod
    def from_config(cls, cfg: "MACEConfig", dtype_bytes: int = 8) -> "MACEWorkloadModel":
        """Cost model matching a concrete :class:`repro.mace.MACEConfig`.

        This is how the serving layer (:mod:`repro.serving`) keeps its
        replica timing honest: the analytical roofline is evaluated with
        the *served* model's channel count and equivariance structure, not
        the paper's production configuration.  ``dtype_bytes`` defaults to
        8 because the NumPy reference implementation runs Float64.
        """
        return cls(
            channels=cfg.num_channels,
            lmax_sh=cfg.lmax_sh,
            l_hidden=cfg.l_hidden,
            l_atomic_basis=cfg.l_atomic_basis,
            correlation=cfg.correlation,
            n_layers=cfg.n_layers,
            n_radial_basis=cfg.n_radial_basis,
            radial_hidden=cfg.radial_mlp_hidden[0] if cfg.radial_mlp_hidden else 64,
            dtype_bytes=dtype_bytes,
        )

    # -- table-derived structural constants --------------------------------------

    def _tables(self):
        tp = channelwise_tp_table(self.lmax_sh, self.l_hidden, self.l_atomic_basis)
        sc = sym_contraction_spec(self.l_atomic_basis, self.correlation, self.l_hidden)
        return tp, sc

    def n_parameters(self) -> int:
        """Approximate trainable parameter count (for gradient allreduce)."""
        tp, sc = self._tables()
        K, H = self.channels, self.radial_hidden
        per_layer = (
            self.n_radial_basis * H
            + H * H
            + H * K * tp.num_paths  # radial MLP
            + K * K * (self.l_atomic_basis + 1)  # linear_A
            + 2 * K * K * (self.l_hidden + 1)  # msg + skip linears
            + sum(90 * K * b.n_paths for b in sc.blocks)  # ~90 species rows
        )
        return self.n_layers * per_layer + K * 16 + 90 * K

    def gradient_bytes(self) -> float:
        """Bytes exchanged per allreduce (fp32 gradients)."""
        return 4.0 * self.n_parameters()

    # -- workload assembly ---------------------------------------------------------

    def step_workload(
        self,
        tokens: np.ndarray,
        edges: np.ndarray,
        variant: str,
        include_backward: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (launches, flops, bytes) of one step per batch.

        Parameters
        ----------
        tokens, edges:
            Arrays of per-batch atom and edge counts.
        variant:
            ``"baseline"`` or ``"optimized"``.
        include_backward:
            ``True`` (default) profiles a training step (forward +
            backward); ``False`` profiles inference (forward only — the
            serving regime, where no tape is built).

        Returns
        -------
        Three arrays aligned with the inputs.  ``launches`` is constant per
        batch (kernel count does not depend on batch size).
        """
        if variant not in ("baseline", "optimized"):
            raise ValueError(f"unknown variant {variant!r}")
        n = np.asarray(tokens, dtype=np.float64)
        e = np.asarray(edges, dtype=np.float64)
        tp, sc = self._tables()
        K = self.channels
        b = float(self.dtype_bytes)
        dim_sh = sh_dim(self.lmax_sh)
        dim_h = sh_dim(self.l_hidden)
        dim_A = sh_dim(self.l_atomic_basis)
        H = self.radial_hidden

        flops = np.zeros_like(n)
        bytes_ = np.zeros_like(n)
        launches = 0.0

        # Shared per layer: radial MLP, gather, scatter, equivariant linears.
        radial_flops = 2.0 * (
            self.n_radial_basis * H + H * H + H * K * tp.num_paths
        )
        per_layer_edge_flops = radial_flops + 60.0 * dim_sh  # + spherical harmonics
        per_layer_edge_bytes = b * (K * dim_h + K * tp.num_paths + dim_sh + 2 * K * dim_A)
        per_layer_atom_flops = (
            2.0 * K * K * dim_A  # linear_A
            + 4.0 * K * K * dim_h  # msg + skip linears
            + 2.0 * K * 16  # readout
        )
        per_layer_atom_bytes = b * (4 * K * dim_A + 6 * K * dim_h)
        shared_launches = 12 + (self.l_atomic_basis + 1) + 2 * (self.l_hidden + 1)

        flops += self.n_layers * (e * per_layer_edge_flops + n * per_layer_atom_flops)
        bytes_ += self.n_layers * (e * per_layer_edge_bytes + n * per_layer_atom_bytes)
        launches += self.n_layers * shared_launches

        if variant == "baseline":
            # Dense per-segment chains; intermediates round-trip to HBM.
            eff = self.baseline_dense_efficiency
            tp_inter = sum(
                (2 * l1 + 1) * (2 * l2 + 1) for l1, l2, _ in tp.paths
            )
            flops += self.n_layers * e * (2.0 * K * tp.dense_mults() * eff)
            bytes_ += self.n_layers * e * (2.0 * b * K * tp_inter)
            launches += self.n_layers * 3 * tp.num_paths
            sc_paths = sum(b_.n_paths for b_ in sc.blocks)
            flops += self.n_layers * n * (2.0 * K * sc.dense_mults() * eff)
            bytes_ += self.n_layers * n * (2.0 * b * K * sc.dense_mults() * eff / 4.0)
            launches += self.n_layers * 3 * sc_paths
        else:
            # Fused sparse kernels: only non-zero CG entries, single pass.
            flops += self.n_layers * e * (4.0 * K * tp.nnz)
            launches += self.n_layers * 1
            flops += self.n_layers * n * float(
                sum((b_.nu + 2) * K * b_.nnz for b_ in sc.blocks)
            )
            launches += self.n_layers * len(sc.blocks)

        if include_backward:
            flops *= 1.0 + _BACKWARD_FACTOR
            bytes_ *= 1.0 + _BACKWARD_FACTOR
            launches *= 2.0  # backward launches mirror forward
        return (
            np.full_like(n, launches),
            flops,
            bytes_,
        )

    def step_times(
        self,
        gpu: GPUSpec,
        tokens: np.ndarray,
        edges: np.ndarray,
        variant: str,
    ) -> np.ndarray:
        """Vectorized step execution time (seconds) per batch.

        Applies the sub-saturation flattening: work below the device's
        saturation token count runs at the saturation-point time.
        """
        return self._device_times(gpu, tokens, edges, variant, include_backward=True)

    def inference_times(
        self,
        gpu: GPUSpec,
        tokens: np.ndarray,
        edges: np.ndarray,
        variant: str = "optimized",
    ) -> np.ndarray:
        """Vectorized *forward-only* execution time (seconds) per batch.

        The serving path (:mod:`repro.serving`) times replica micro-batches
        with this: same roofline and sub-saturation flattening as
        :meth:`step_times`, minus the backward pass that only training
        pays for.
        """
        return self._device_times(gpu, tokens, edges, variant, include_backward=False)

    def _device_times(
        self,
        gpu: GPUSpec,
        tokens: np.ndarray,
        edges: np.ndarray,
        variant: str,
        include_backward: bool,
    ) -> np.ndarray:
        n = np.maximum(np.asarray(tokens, dtype=np.float64), 1.0)
        e = np.asarray(edges, dtype=np.float64)
        launches, flops, bytes_ = self.step_workload(
            n, e, variant, include_backward=include_backward
        )
        sat = (
            gpu.saturation_tokens_fp64
            if self.dtype_bytes == 8
            else gpu.saturation_tokens_fp32
        )
        pen = gpu.fp64_penalty if self.dtype_bytes == 8 else 1.0
        compute = flops * pen / gpu.sustained_flops
        memory = bytes_ / gpu.sustained_bandwidth
        return launches * gpu.launch_overhead + _roofline(compute, memory, n, sat)

    def host_collate_seconds(
        self,
        tokens: np.ndarray,
        edges: np.ndarray,
        cache_hit_rate: float = 0.0,
    ) -> np.ndarray:
        """Vectorized host-side batch-construction time (seconds) per batch.

        Models the CPU cost of assembling one block-diagonal mini-batch
        (the :func:`repro.graphs.batch.collate` path): per-token and
        per-edge array copies plus fixed overhead.  ``cache_hit_rate`` is
        the expected :class:`repro.graphs.CollateCache` hit fraction over
        the epoch; hits cost only the lookup.  The balanced sampler's
        deterministic plans make the hit rate 1.0 for every epoch past
        the first when shuffling is off.
        """
        if not 0.0 <= cache_hit_rate <= 1.0:
            raise ValueError("cache_hit_rate must be in [0, 1]")
        n = np.asarray(tokens, dtype=np.float64)
        e = np.asarray(edges, dtype=np.float64)
        miss = (
            _HOST_COLLATE_BASE
            + n * _HOST_COLLATE_PER_TOKEN
            + e * _HOST_COLLATE_PER_EDGE
        )
        return (1.0 - cache_hit_rate) * miss + cache_hit_rate * _HOST_CACHE_HIT

    def memory_per_batch(self, tokens: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Approximate activation memory (bytes) of one batch.

        Used for the §5.5 upper bound: the memory ceiling caps bin capacity
        around ~4000 tokens (fp32) / ~2000 (fp64).
        """
        n = np.asarray(tokens, dtype=np.float64)
        e = np.asarray(edges, dtype=np.float64)
        b = float(self.dtype_bytes)
        tp, sc = self._tables()
        K = self.channels
        per_token = b * K * (
            sh_dim(self.l_atomic_basis) * 6 + sh_dim(self.l_hidden) * 8
        ) * self.n_layers
        per_edge = b * K * (tp.num_paths + sh_dim(self.l_atomic_basis)) * self.n_layers
        # Autograd tape retains activations: multiply by a retention factor.
        return 20.0 * (n * per_token + e * per_edge)


def _roofline(compute: np.ndarray, memory: np.ndarray, tokens: np.ndarray, sat: float) -> np.ndarray:
    """max(compute, memory) with sub-saturation flattening."""
    base = np.maximum(compute, memory)
    return base * np.maximum(tokens, float(sat)) / tokens


PAPER_MODEL = MACEWorkloadModel()
