"""Algorithm 2: the channelwise tensor product building the atomic basis A.

For every edge ``ji`` the kernel combines the edge's spherical harmonics
``Y_{ji,l1 m1}``, the sender's features ``h_{j,k l2 m2}`` and per-edge
radial weights ``R_{ji,k (l1 l2 l3)}`` through Clebsch-Gordan coefficients:

    A_{ji, k l3 m3} = sum_{l1 m1 l2 m2} C^{l3 m3}_{l1 m1, l2 m2}
                      R_{ji, k l1 l2 l3} Y_{ji, l1 m1} h_{j, k l2 m2}

Two implementations share one precomputed path table:

* :func:`channelwise_tp_baseline` — emulates e3nn's structure: one chain of
  small dense kernels per ``(l1, l2, l3)`` segment, materializing the outer
  product ``Y (x) h`` in "global memory" each time (Observation 3);
* :func:`channelwise_tp_optimized` — a single fused pass over the non-zero
  CG entries only (§4.2: kernel fusion + CG sparsity + one output write).

The optimized variant is a *segment reduction* over the non-zero CG
entries, grouped by their distinct ``(i2, path)`` pairs, with sparse
reduction matrices built once in :func:`channelwise_tp_table` (cached per
degree cap).  It reads node features ``h`` by ``send`` and radial weights
``R`` by position — one row per edge, or one per undirected pair, which
edges ``2p`` and ``2p + 1`` share (the layout of
:meth:`repro.mace.MACE.featurize`) — takes ``h_p = h[:, :, pair_i2]``
once at node extent and runs **three stages per edge tile** of
``_TILE_EDGES`` edges:

1. ``M_t = Y_t @ reduce_y`` — one GEMM folds the CG values and reduces the
   tile's harmonics onto a per-edge operator ``(T, n_pairs, d3)``;
2. ``hr_t = h_p[send_t] * R_t[:, :, pair_path]`` — one row take of ``h_p``,
   one column gather of the tile's contiguous ``R`` rows (each pair row
   broadcast to its two edges) and one in-place multiply form the pair
   features;
3. ``out_t = hr_t @ M_t`` — one batched matmul writes every output
   component of the tile straight into its rows of the result.

The tile's intermediates live in one scratch set allocated per call and
reused by every tile, so no ``(E, K, ·)`` operand is ever materialised —
the NumPy stand-in for the paper's fused kernel keeping its
intermediates out of slow memory.  Backward recomputes each tile's
operator and gathers from the saved operands and runs the same stages
transposed: precomputed one-hot GEMMs write the gradients into edge
rows; ``gh`` is summed onto nodes by the bound CSR rows of ``send`` and
``gR``'s two edge rows of each pair are added inside the tile.  No
per-component Python loop and no ``np.add.at`` anywhere.

Both are differentiable (custom backward passes, validated by gradcheck)
and numerically identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..autograd.engine import Function, Tensor
from ..autograd.ops import RowIndex, bound_tensors, scatter_rows
from ..equivariant.clebsch_gordan import cg_selection_ok, cg_sparse, clebsch_gordan
from ..equivariant.spherical_harmonics import sh_block_slice, sh_dim
from .counters import record_kernel

__all__ = [
    "ChannelwiseTPTable",
    "channelwise_tp_table",
    "channelwise_tp_baseline",
    "channelwise_tp_optimized",
]

_F8 = 8.0  # bytes per float64 element

# Edges per tile of the optimized kernel; even, so a tile holds whole
# pairs.  One tile's scratch buffer is T * K * n_pairs floats (~170 KB
# at K=16, lmax (2, 1, 2)), so the whole set stays cache-resident while
# every tile reuses it.
_TILE_EDGES = 64


@dataclass(frozen=True)
class ChannelwiseTPTable:
    """Precomputed ("compile-time") structure of the channelwise TP.

    Attributes
    ----------
    l1max, l2max, l3max:
        Degree caps of Y, h and the output A.
    paths:
        Valid ``(l1, l2, l3)`` triples in deterministic order; the radial
        weights R carry one channel slice per path.
    i1, i2, i3:
        Flattened SH indices of every non-zero CG entry (into Y, h, A).
    path_idx:
        Path each entry belongs to (selects the R slice).
    values:
        The CG coefficients.
    out_groups:
        ``(i3_value, start, stop)`` runs over the entry arrays, which are
        sorted by ``i3`` so each output component is one contiguous block.
    pair_i2, pair_path:
        Column/slice indices of the distinct ``(i2, path)`` pairs the
        entries touch; the fused kernel builds one feature column
        ``h[:, :, i2] * R[:, :, path]`` per pair.
    reduce_y:
        ``((l1max+1)^2, n_pairs * (l3max+1)^2)`` sparse reduction matrix:
        ``Y @ reduce_y`` folds the CG values and accumulates every entry's
        ``c * Y[:, i1]`` onto its ``(pair, i3)`` slot in one GEMM.
    scatter_h, scatter_path:
        ``(n_pairs, d)`` one-hot scatter matrices onto the ``h`` columns
        and the radial-weight slices; the backward replaces index scatters
        (``np.add.at``) with GEMMs against them.
    """

    l1max: int
    l2max: int
    l3max: int
    paths: Tuple[Tuple[int, int, int], ...]
    i1: np.ndarray
    i2: np.ndarray
    i3: np.ndarray
    path_idx: np.ndarray
    values: np.ndarray
    out_groups: Tuple[Tuple[int, int, int], ...]
    pair_i2: np.ndarray
    pair_path: np.ndarray
    reduce_y: np.ndarray
    scatter_h: np.ndarray
    scatter_path: np.ndarray

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def n_pairs(self) -> int:
        """Distinct ``(i2, path)`` pairs among the non-zero entries."""
        return int(self.pair_i2.size)

    def dense_mults(self) -> int:
        """Multiply count of the dense per-segment approach (per edge-channel)."""
        return sum(
            (2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) for l1, l2, l3 in self.paths
        )


@lru_cache(maxsize=None)
def channelwise_tp_table(l1max: int, l2max: int, l3max: int) -> ChannelwiseTPTable:
    """Build (and cache) the path/entry table for given degree caps."""
    paths: List[Tuple[int, int, int]] = []
    i1_all, i2_all, i3_all, pid_all, val_all = [], [], [], [], []
    for l1 in range(l1max + 1):
        for l2 in range(l2max + 1):
            for l3 in range(l3max + 1):
                if not cg_selection_ok(l1, l2, l3):
                    continue
                p = len(paths)
                paths.append((l1, l2, l3))
                sp = cg_sparse(l1, l2, l3)
                i1_all.append(sp.m1 + l1 * l1)
                i2_all.append(sp.m2 + l2 * l2)
                i3_all.append(sp.m3 + l3 * l3)
                pid_all.append(np.full(sp.nnz, p, dtype=np.int64))
                val_all.append(sp.values)
    i1 = np.concatenate(i1_all)
    i2 = np.concatenate(i2_all)
    i3 = np.concatenate(i3_all)
    pid = np.concatenate(pid_all)
    vals = np.concatenate(val_all)
    order = np.argsort(i3, kind="stable")
    i1, i2, i3, pid, vals = i1[order], i2[order], i3[order], pid[order], vals[order]
    groups: List[Tuple[int, int, int]] = []
    start = 0
    for k in range(1, i3.size + 1):
        if k == i3.size or i3[k] != i3[start]:
            groups.append((int(i3[start]), start, k))
            start = k
    # Pair-level reduction structure: group entries by their unique
    # (i2, path) pair so the fused kernel touches each pair column once.
    n_paths = len(paths)
    d3 = sh_dim(l3max)
    pair_codes, entry_pair = np.unique(i2 * n_paths + pid, return_inverse=True)
    pair_i2 = (pair_codes // n_paths).astype(np.int64)
    pair_path = (pair_codes % n_paths).astype(np.int64)
    n_pairs = pair_codes.size
    reduce_y = np.zeros((sh_dim(l1max), n_pairs * d3))
    # One-time table construction over the tiny CG entry list, not a
    # per-edge hot path.
    np.add.at(reduce_y, (i1, entry_pair * d3 + i3), vals)  # lint: allow-hot-loop-scatter
    rows = np.arange(n_pairs)
    scatter_h = np.zeros((n_pairs, sh_dim(l2max)))
    scatter_h[rows, pair_i2] = 1.0
    scatter_path = np.zeros((n_pairs, n_paths))
    scatter_path[rows, pair_path] = 1.0
    return ChannelwiseTPTable(
        l1max,
        l2max,
        l3max,
        tuple(paths),
        np.ascontiguousarray(i1),
        np.ascontiguousarray(i2),
        np.ascontiguousarray(i3),
        np.ascontiguousarray(pid),
        np.ascontiguousarray(vals),
        tuple(groups),
        pair_i2,
        pair_path,
        reduce_y,
        scatter_h,
        scatter_path,
    )


def _check_shapes(Y, h, R, table: ChannelwiseTPTable, send=None) -> None:
    """``send``: ``(index, indptr)`` over ``h``'s rows, given by the fused
    kernel only, whose ``R`` may also have one row per pair."""
    if Y.ndim != 2 or Y.shape[1] != sh_dim(table.l1max):
        raise ValueError(f"Y must be (E, {sh_dim(table.l1max)}), got {Y.shape}")
    if h.ndim != 3 or h.shape[2] != sh_dim(table.l2max):
        raise ValueError(f"h must be (rows, K, {sh_dim(table.l2max)}), got {h.shape}")
    if R.ndim != 3 or R.shape[2] != table.num_paths:
        raise ValueError(f"R must be (rows, K, {table.num_paths}), got {R.shape}")
    E = Y.shape[0]
    index, indptr = send or (h, None)
    if index.shape[0] != E or (indptr is not None and indptr.shape != (h.shape[0] + 1,)):
        raise ValueError("edge dimension mismatch between Y and h's rows")
    if R.shape[0] != E and not (send and E % 2 == 0 and 2 * R.shape[0] == E):
        raise ValueError(f"R must have one row per edge or per pair of {E} edges")
    if h.shape[1] != R.shape[1]:
        raise ValueError("channel dimension mismatch between h and R")


class _ChannelwiseTPBaseline(Function):
    """Per-segment chain of dense kernels (the e3nn-style reference)."""

    def forward(self, Y, h, R, table: ChannelwiseTPTable):
        _check_shapes(Y, h, R, table)
        self.saved = (Y, h, R, table)
        E, K = h.shape[0], h.shape[1]
        out = np.zeros((E, K, sh_dim(table.l3max)), dtype=np.float64)
        for p, (l1, l2, l3) in enumerate(table.paths):
            s1, s2, s3 = sh_block_slice(l1), sh_block_slice(l2), sh_block_slice(l3)
            C = clebsch_gordan(l1, l2, l3)
            d1, d2, d3 = 2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1
            # Kernel 1: materialize the outer product uv in global memory.
            uv = Y[:, None, s1, None] * h[:, :, None, s2]
            record_kernel(
                "tp_outer",
                1,
                E * K * d1 * d2,
                _F8 * (E * d1 + E * K * d2 + E * K * d1 * d2),
            )
            # Kernel 2: dense contraction with the full (mostly zero) CG block.
            t = np.einsum("ekmn,mno->eko", uv, C, optimize=True)
            record_kernel(
                "tp_contract",
                1,
                2.0 * E * K * d1 * d2 * d3,
                _F8 * (E * K * d1 * d2 + d1 * d2 * d3 + E * K * d3),
            )
            # Kernel 3: scale by the radial weight and accumulate.
            out[:, :, s3] += R[:, :, p, None] * t
            record_kernel(
                "tp_scale_accum",
                1,
                2.0 * E * K * d3,
                _F8 * (E * K + 2 * E * K * d3),
            )
        return out

    def backward(self, grad):
        Y, h, R, table = self.saved
        E, K = h.shape[0], h.shape[1]
        need_y, need_h, need_r = self.grad_mask or (True, True, True)
        gY = np.zeros_like(Y) if need_y else None
        gh = np.zeros_like(h) if need_h else None
        gR = np.zeros_like(R) if need_r else None
        for p, (l1, l2, l3) in enumerate(table.paths):
            s1, s2, s3 = sh_block_slice(l1), sh_block_slice(l2), sh_block_slice(l3)
            C = clebsch_gordan(l1, l2, l3)
            g3 = grad[:, :, s3]
            if need_y or need_h:
                rg = R[:, :, p, None] * g3  # (E, K, d3)
            if need_y:
                gY[:, s1] += np.einsum(
                    "eko,mno,ekn->em", rg, C, h[:, :, s2], optimize=True
                )
            if need_h:
                gh[:, :, s2] += np.einsum(
                    "eko,mno,em->ekn", rg, C, Y[:, s1], optimize=True
                )
            if need_r:
                gR[:, :, p] = np.einsum(
                    "eko,mno,em,ekn->ek", g3, C, Y[:, s1], h[:, :, s2], optimize=True
                )
        return gY, gh, gR, None


class _ChannelwiseTPOptimized(Function):
    """Single fused pass over non-zero CG entries (§4.2), tiled over edges.

    Three stages per edge tile (module docstring): operator ``M_t``, pair
    features ``hr_t``, and ``hr_t @ M_t`` written straight into the tile's
    rows of the result — the planner's ``out=`` buffer when one is given.
    One set of tile buffers is allocated per call and shared by every
    tile.  ``saved`` holds only the operands: backward recomputes each
    tile's operator and gathers, then runs the stages transposed — a
    batched matmul each for the pair and operator gradients, one GEMM each
    writing the tile's edge rows of ``gY``/``gh``/``gR``; ``gh`` is summed
    onto nodes through ``send`` and a pair's two ``gR`` rows are added in
    the tile, lower edge first.  ``send`` arrives as its bound ``index,
    order, indptr`` Tensors, so ``grad_mask`` (which skips the GEMMs and
    gathers of unneeded gradients) has ``Y``, ``h``, ``R`` at 0, 1, 5.
    """

    supports_out = True  # batched GEMM: out may not alias the operands

    def forward(self, Y, h, send, s_order, s_ptr, R, table, out=None):
        _check_shapes(Y, h, R, table, (send, s_ptr))
        E, K = Y.shape[0], h.shape[1]
        P, d3 = table.n_pairs, sh_dim(table.l3max)
        if out is None:
            out = np.empty((E, K, d3))
        T = min(_TILE_EDGES, E)
        step = 1 if R.shape[0] == E else 2  # edges per R row: 2 for pair rows
        h_p = np.take(h, table.pair_i2, axis=2)  # (N, K, P), once per call
        M, hr, Rp = np.empty((T, P * d3)), np.empty((T, K, P)), np.empty((T // step, K, P))
        for s in range(0, E, _TILE_EDGES):
            e = min(s + _TILE_EDGES, E)
            n = e - s
            M_t = np.matmul(Y[s:e], table.reduce_y, out=M[:n]).reshape(n, P, d3)
            hr_t = _take(h_p, send[s:e], 0, hr[:n])
            R_t = _take(R[s // step : e // step], table.pair_path, 2, Rp[: n // step])
            np.matmul(_times_rows(hr_t, R_t, hr_t), M_t, out=out[s:e])
        self.saved = (Y, h, RowIndex(send, s_order, s_ptr), R, table)
        record_kernel(
            "tp_fused",
            1,
            4.0 * E * K * table.nnz,
            _F8
            * (
                E * sh_dim(table.l1max)
                + E * K * sh_dim(table.l2max)
                + E * K * table.num_paths
                + E * K * d3
            ),
        )
        return out

    def backward(self, grad):
        Y, h, send, R, table = self.saved
        E, (K, d2), n_paths = Y.shape[0], h.shape[1:], R.shape[2]
        P, d3 = table.n_pairs, sh_dim(table.l3max)
        mask = self.grad_mask
        need_y, need_h, need_r = (True,) * 3 if mask is None else (mask[0], mask[1], mask[5])
        gY = np.empty(Y.shape) if need_y else None
        gh = np.empty((E, K, d2)) if need_h else None  # edge rows until the scatter
        gR = np.empty(R.shape) if need_r else None
        if need_y or need_r:
            h_p = np.take(h, table.pair_i2, axis=2)
        T, step = min(_TILE_EDGES, E), 1 if R.shape[0] == E else 2
        M = np.empty((T, P * d3))  # the tile's operator, then its gradient
        hp, g_hr, prod = (np.empty((T, K, P)) for _ in range(3))
        Rp, gR_edges = np.empty((T // step, K, P)), np.empty((T, K, n_paths))
        for s in range(0, E, _TILE_EDGES):
            e = min(s + _TILE_EDGES, E)
            n, g = e - s, grad[s:e]
            if need_y or need_r:
                hp_t = _take(h_p, send.index[s:e], 0, hp[:n])
            if need_y or need_h:
                Rp_t = _take(R[s // step : e // step], table.pair_path, 2, Rp[: n // step])
            if need_h or need_r:
                # d(hr_t): batched matmul against the tile's operator.
                M_t = np.matmul(Y[s:e], table.reduce_y, out=M[:n]).reshape(n, P, d3)
                g_hr_t = np.matmul(g, M_t.transpose(0, 2, 1), out=g_hr[:n])
                if need_h:
                    np.matmul(
                        _times_rows(g_hr_t, Rp_t, prod[:n]).reshape(n * K, P),
                        table.scatter_h,
                        out=gh[s:e].reshape(n * K, d2),
                    )
                if need_r:
                    g_r = gR[s:e] if step == 1 else gR_edges[:n]
                    np.matmul(
                        np.multiply(g_hr_t, hp_t, out=prod[:n]).reshape(n * K, P),
                        table.scatter_path,
                        out=g_r.reshape(n * K, n_paths),
                    )
                    if step == 2:
                        np.add(g_r[0::2], g_r[1::2], out=gR[s // 2 : e // 2])
            if need_y:
                # d(M_t) reduces over channels, then the transposed Y reduction.
                hr_t = _times_rows(hp_t, Rp_t, prod[:n])
                gM_t = np.matmul(hr_t.transpose(0, 2, 1), g, out=M[:n].reshape(n, P, d3))
                np.matmul(gM_t.reshape(n, P * d3), table.reduce_y.T, out=gY[s:e])
        gh = None if gh is None else scatter_rows(gh, send)
        return gY, gh, None, None, None, gR, None


def _times_rows(x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x * rows`` into ``out``, each row of ``rows`` scaling its
    ``len(x) // len(rows)`` consecutive rows of ``x``."""
    shape = (rows.shape[0], -1) + x.shape[1:]
    np.multiply(x.reshape(shape), rows[:, None], out=out.reshape(shape))
    return out


def _take(x: np.ndarray, index: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``x`` taken along ``axis`` into the tile buffer ``out``.

    ``mode="clip"`` keeps ``np.take`` on its unbuffered fast path (see
    ``GatherRows``); pair columns come from the table, and row indices
    are bound over their operand's rows (``_check_shapes``).
    """
    return np.take(x, index, axis=axis, out=out, mode="clip")


def channelwise_tp_baseline(Y: Tensor, h: Tensor, R: Tensor, table: ChannelwiseTPTable) -> Tensor:
    """Algorithm 2 with the original per-segment dense-kernel structure.

    Parameters
    ----------
    Y:
        ``(E, (l1max+1)^2)`` edge spherical harmonics.
    h:
        ``(E, K, (l2max+1)^2)`` sender features gathered onto edges.
    R:
        ``(E, K, num_paths)`` radial weights, one slice per (l1, l2, l3).
    table:
        From :func:`channelwise_tp_table`.

    Returns
    -------
    ``(E, K, (l3max+1)^2)`` per-edge atomic-basis contributions.
    """
    return _ChannelwiseTPBaseline.apply(Y, h, R, table)


def channelwise_tp_optimized(
    Y: Tensor, h: Tensor, R: Tensor, table: ChannelwiseTPTable, send=None
) -> Tensor:
    """Algorithm 2 with the paper's optimizations (fusion + CG sparsity).

    Reads ``h`` ``(N, K, (l2max+1)^2)`` node features by ``send``, a
    :class:`~repro.autograd.ops.RowIndex` (whose fields a compiled plan
    rebinds per replay) or a raw integer array; an omitted ``send`` is
    the identity over the edges.  ``R`` is read by position: ``(E, K,
    num_paths)`` is one row per edge, and ``(E/2, K, num_paths)`` one row
    per undirected pair, which edges ``2p`` and ``2p + 1`` share.
    Numerically identical to :func:`channelwise_tp_baseline` on
    ``h[send]`` and ``R`` repeated per edge, and bitwise equal, gradients
    included, to this kernel on those gathered operands.
    """
    E = Y.shape[0]
    rows = bound_tensors(*((np.arange(E), E) if send is None else (send, h.shape[0])))
    return _ChannelwiseTPOptimized.apply(Y, h, *rows, R, table)
