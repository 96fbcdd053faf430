"""Algorithm 3: symmetric tensor contraction building higher body-order features.

On every atom ``i`` the product block contracts ``nu`` copies of the atomic
basis ``A_{i,klm}`` with generalized Clebsch-Gordan coefficients and
species-dependent weights:

    m_{i,kLM} = sum_nu sum_eta W^{(nu)}_{z_i, k, eta}
                sum_{lm in eta} C^{LM}_{eta, lm}  prod_{xi=1..nu} A_{i, k l_xi m_xi}

This is the paper's headline kernel (Listing 1).  Again two implementations
share precomputed tables:

* :func:`symmetric_contraction_baseline` — one chain of dense kernels per
  coupling pattern ``eta``, materializing every intermediate;
* :func:`symmetric_contraction_optimized` — a single fused sweep over the
  non-zero generalized-CG entries of each ``(nu, L)`` pair, vectorized over
  atoms, channels and entries (the NumPy analogue of one CUDA block per
  atom with warps over coupling patterns).

The optimized variant evaluates each distinct factor tuple once through a
shared-prefix product chain and reduces tuple products onto
``(pattern, M)`` slots with one GEMM per block.  Every gradient scatter
of its backward is the repository's one segment-sum primitive, a sparse
product with a :func:`~repro.autograd.ops.scatter_matrix`: each level of
the prefix chain holds two such matrices, built once per spec in
:func:`_build_forest`, and per-atom weight gradients reduce onto species
rows through the matrix of the species' bound
:class:`~repro.autograd.ops.RowIndex`, wrapped once per backward and
shared by all blocks.
Backward re-gathers operands from forward's saved level products with
contiguous row copies (the transposed layout makes every gather a
memcpy, every scatter a row-block reduction).

Weights are passed as a list with one ``(n_species, K, n_paths)`` tensor per
``(nu, L)`` in the order produced by :func:`weight_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_array

from ..autograd.engine import Function, Tensor
from ..autograd.ops import RowIndex, bound_tensors, scatter_matrix, scatter_rows
from ..equivariant.coupling import CouplingTable, coupling_table
from ..equivariant.spherical_harmonics import sh_dim
from .counters import record_kernel

__all__ = [
    "SymContractionSpec",
    "sym_contraction_spec",
    "weight_layout",
    "symmetric_contraction_baseline",
    "symmetric_contraction_optimized",
]

_F8 = 8.0


# Below this operand size the weight/block contraction runs as a
# broadcast multiply + axis sum instead of np.einsum: the einsum wrapper
# dispatch dominates sub-saturation shapes (serving micro-batches, small
# MD cells), while large shapes keep einsum's blocked reduction.
_SMALL_CONTRACT_MAX = 1 << 17


@dataclass(frozen=True)
class _Level:
    """One depth of the prefix-product chain of the fused kernel.

    Depth-``d`` products are built by multiplying a depth-``(d-1)`` product
    (``prev_map``) with one more feature column (``new_col``).  The two
    :func:`~repro.autograd.ops.scatter_matrix` products scatter gradients
    back down the chain: the layout is structure-major, so a gradient
    scatter sums source *rows* onto destination rows.
    """

    prev_map: np.ndarray  # (n_d,) index into the previous level's products
    new_col: np.ndarray  # (n_d,) flattened feature column of the new factor
    new_scatter: csr_array  # (dim, n_d): scatter onto feature columns
    prev_scatter: csr_array  # (n_prev, n_d): scatter onto previous products


@dataclass(frozen=True)
class _PrefixForest:
    """Global prefix-product forest shared by every block of one ``nu``.

    The distinct (canonicalized) factor tuples of *all* ``(nu, L)`` blocks
    with the same ``nu`` are pooled into one sorted tuple set; the
    ``levels`` chain then builds each pooled tuple product exactly once
    per forward pass, and every block of that ``nu`` reduces the shared
    products through its own coefficient matrix ``V``.  Blocks of the
    same ``nu`` overlap heavily in tuples (they differ only in the output
    degree ``L`` their coefficients couple to), so pooling removes the
    duplicate chain work the per-block plans used to repeat — and in
    backward the whole forest is walked down once, on the *sum* of the
    per-block tuple gradients.
    """

    nu: int
    levels: Tuple["_Level", ...]  # prefix-product chain (depths 2..nu)
    tuple_cols: np.ndarray  # (n_tup,) A-columns of the depth-1 prefixes
    n_tuples: int  # pooled distinct tuples across the nu's blocks


@dataclass(frozen=True)
class _BlockTable:
    """Entry table of one ``(nu, L)`` pair, pre-packed for the fused kernel.

    Beyond the raw COO entry arrays, the shared-prefix evaluation plan is
    precomputed (the software analogue of the shared-memory staging +
    warp-level reduction in Listing 1): the ``forest`` chain — shared by
    all blocks of the same ``nu`` — builds each distinct factor-tuple
    product exactly once, ``V`` reduces the forest's tuple products onto
    this block's ``(pattern, M)`` slots with one GEMM, and each level's
    scatter matrices route gradients back down the chain as segment sums.
    """

    nu: int
    L: int
    n_paths: int
    factor_idx: np.ndarray  # (nnz, nu) flattened SH indices
    M_idx: np.ndarray  # (nnz,)
    path_idx: np.ndarray  # (nnz,)
    values: np.ndarray  # (nnz,)
    forest: _PrefixForest  # shared prefix chain of this block's nu
    V: np.ndarray  # (n_tup, n_paths * (2L+1)) coefficient reduction matrix

    @property
    def levels(self) -> Tuple["_Level", ...]:
        return self.forest.levels

    @property
    def tuple_cols(self) -> np.ndarray:
        return self.forest.tuple_cols

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def n_tuples(self) -> int:
        """Distinct factor tuples of the shared forest (reuse count)."""
        return int(self.V.shape[0])


@dataclass(frozen=True)
class SymContractionSpec:
    """All ``(nu, L)`` block tables of a product block, plus layout info."""

    lmax: int
    nu_max: int
    L_max: int
    blocks: Tuple[_BlockTable, ...]
    forests: Tuple[_PrefixForest, ...]

    @property
    def out_dim(self) -> int:
        return sh_dim(self.L_max)

    def num_paths(self) -> Dict[Tuple[int, int], int]:
        return {(b.nu, b.L): b.n_paths for b in self.blocks}

    def total_nnz(self) -> int:
        return sum(b.nnz for b in self.blocks)

    def dense_mults(self) -> int:
        """Per atom-channel multiply count of the dense per-pattern approach."""
        table = coupling_table(self.lmax, self.nu_max, self.L_max)
        total = 0
        for (nu, L), paths in table.paths.items():
            for p in paths:
                dense = 1
                for l in p.ls:
                    dense *= 2 * l + 1
                total += dense * (2 * L + 1) * (p.nu + 1)
        return total


def _build_forest(nu: int, tuples: np.ndarray, dim: int) -> _PrefixForest:
    """Prefix-product chain over one ``nu``'s pooled (sorted) tuple set.

    Distinct factor tuples are evaluated once (many generalized-CG entries
    share the same product of features, differing only in coefficient,
    output component, pattern or target degree ``L``), built up through a
    chain of unique prefix products.

    This mirrors the CUDA kernel's strategy (Listing 1): stage reusable
    partial products in fast memory, then reduce with warp-level
    primitives.
    """
    levels = []
    # Depth-1 "products" are raw feature columns.
    prev_uniq = np.unique(tuples[:, :1], axis=0)
    prev_lookup = {tuple(row): i for i, row in enumerate(prev_uniq)}
    for d in range(2, nu + 1):
        uniq = np.unique(tuples[:, :d], axis=0)
        if d == 2:
            prev_map = uniq[:, 0].astype(np.int64)
            n_prev = dim
        else:
            prev_map = np.array(
                [prev_lookup[tuple(row[: d - 1])] for row in uniq], dtype=np.int64
            )
            n_prev = len(prev_lookup)
        new_col = uniq[:, d - 1].astype(np.int64)
        levels.append(
            _Level(
                prev_map,
                new_col,
                scatter_matrix(new_col, dim),
                scatter_matrix(prev_map, n_prev),
            )
        )
        prev_lookup = {tuple(row): i for i, row in enumerate(uniq)}
    # After the last level, products are ordered like `tuples` rows; the
    # per-block V matrices map into them.  tuple_cols drives the nu == 1
    # direct gather (and records the depth-1 columns for the benchmarks).
    tuple_cols = tuples[:, 0].astype(np.int64)
    return _PrefixForest(nu, tuple(levels), tuple_cols, int(tuples.shape[0]))


@lru_cache(maxsize=None)
def sym_contraction_spec(lmax: int, nu_max: int, L_max: int) -> SymContractionSpec:
    """Build (and cache) the fused entry tables from the coupling table.

    Blocks of the same correlation order ``nu`` pool their factor tuples
    into one global :class:`_PrefixForest` (the products differ only in
    which coefficients consume them), so the fused kernel runs each
    ``nu``'s prefix chain once per forward instead of once per ``L``.
    """
    table = coupling_table(lmax, nu_max, L_max)
    dim = sh_dim(lmax)
    blocks: List[_BlockTable] = []
    forests: List[_PrefixForest] = []
    for nu in range(1, nu_max + 1):
        entries = []
        for L in range(L_max + 1):
            ent = table.entries[(nu, L)]
            if ent["values"].size == 0:
                continue
            entries.append((L, ent, table.num_paths(nu, L)))
        if not entries:
            continue
        # The factor product is invariant under permutation of the factors —
        # this *is* a symmetric tensor contraction — so tuples are
        # canonicalized (sorted) first, collapsing permuted duplicates into
        # one shared product whose coefficients simply sum inside V; then
        # the canonical tuples of every L of this nu are pooled.
        sorted_idx = [np.sort(ent["factor_idx"], axis=1) for (_, ent, _) in entries]
        tuples, tup_map = np.unique(
            np.vstack(sorted_idx), axis=0, return_inverse=True
        )
        forest = _build_forest(nu, tuples, dim)
        forests.append(forest)
        offset = 0
        for (L, ent, n_paths), fidx in zip(entries, sorted_idx):
            block_map = tup_map[offset : offset + fidx.shape[0]]
            offset += fidx.shape[0]
            V = np.zeros((forest.n_tuples, n_paths * (2 * L + 1)))
            # One-time coupling-table construction (cached per
            # (lmax, nu_max, L_max)), sized by CG nonzeros — not a
            # per-atom hot path.
            np.add.at(V, (block_map, ent["path_idx"] * (2 * L + 1) + ent["M_idx"]), ent["values"])  # lint: allow-hot-loop-scatter
            blocks.append(
                _BlockTable(
                    nu,
                    L,
                    n_paths,
                    ent["factor_idx"],
                    ent["M_idx"],
                    ent["path_idx"],
                    ent["values"],
                    forest,
                    np.ascontiguousarray(V),
                )
            )
    return SymContractionSpec(lmax, nu_max, L_max, tuple(blocks), tuple(forests))


def weight_layout(spec: SymContractionSpec) -> List[Tuple[int, int, int]]:
    """``(nu, L, n_paths)`` of every weight tensor, in argument order."""
    return [(b.nu, b.L, b.n_paths) for b in spec.blocks]


def _check_inputs(A: np.ndarray, species: np.ndarray, weights, spec: SymContractionSpec) -> None:
    if A.ndim != 3 or A.shape[2] != sh_dim(spec.lmax):
        raise ValueError(f"A must be (N, K, {sh_dim(spec.lmax)}), got {A.shape}")
    if species.shape != (A.shape[0],):
        raise ValueError("species must have one entry per atom")
    if len(weights) != len(spec.blocks):
        raise ValueError(
            f"expected {len(spec.blocks)} weight tensors, got {len(weights)}"
        )
    for w, b in zip(weights, spec.blocks):
        if w.ndim != 3 or w.shape[1] != A.shape[1] or w.shape[2] != b.n_paths:
            raise ValueError(
                f"weight for (nu={b.nu}, L={b.L}) must be (S, {A.shape[1]}, "
                f"{b.n_paths}), got {w.shape}"
            )


class _SymContractionBaseline(Function):
    """Dense per-pattern chain (emulates the original e3nn implementation)."""

    def forward(self, A, species, order, indptr, *weights, spec: SymContractionSpec):
        _check_inputs(A, species, weights, spec)
        self.saved = (A, RowIndex(species, order, indptr), weights, spec)
        N, K = A.shape[0], A.shape[1]
        out = np.zeros((N, K, spec.out_dim), dtype=np.float64)
        table = coupling_table(spec.lmax, spec.nu_max, spec.L_max)
        for w, block in zip(weights, spec.blocks):
            paths = table.paths[(block.nu, block.L)]
            wsel = w[species]  # (N, K, n_paths)
            base = block.L * block.L
            for p_id, path in enumerate(paths):
                dense = _dense_path_tensor(path)
                ops = [A[:, :, path.ls[f] ** 2 : (path.ls[f] + 1) ** 2] for f in range(path.nu)]
                # Kernel chain: outer products materialized one by one
                # (each einsum emulates one small kernel writing its result
                # to global memory).
                prod = ops[0]  # (N, K, d1)
                for f in range(1, path.nu):
                    prod = np.einsum("nk...,nkd->nk...d", prod, ops[f])
                    record_kernel(
                        "sc_outer",
                        1,
                        float(prod.size),
                        _F8 * float(2 * prod.size),
                    )
                # Kernel: contract with the dense generalized CG tensor.
                axes_in = list(range(2, 2 + path.nu))
                t = np.tensordot(prod, dense, axes=(axes_in, list(range(path.nu))))
                record_kernel(
                    "sc_contract",
                    1,
                    2.0 * N * K * dense.size,
                    _F8 * (prod.size + dense.size + t.size),
                )
                # Kernel: weight and accumulate.
                out[:, :, base : base + 2 * block.L + 1] += wsel[:, :, p_id, None] * t
                record_kernel(
                    "sc_weight_accum",
                    1,
                    2.0 * N * K * (2 * block.L + 1),
                    _F8 * (N * K + 2 * N * K * (2 * block.L + 1)),
                )
        return out

    def backward(self, grad):
        A, rows, weights, spec = self.saved
        gA = np.zeros_like(A)
        gws = [np.zeros_like(w) for w in weights]
        table = coupling_table(spec.lmax, spec.nu_max, spec.L_max)
        for w_i, (w, block) in enumerate(zip(weights, spec.blocks)):
            paths = table.paths[(block.nu, block.L)]
            wsel = w[rows.index]
            base = block.L * block.L
            gL = grad[:, :, base : base + 2 * block.L + 1]  # (N, K, 2L+1)
            for p_id, path in enumerate(paths):
                dense = _dense_path_tensor(path)
                ops = [A[:, :, l * l : (l + 1) * (l + 1)] for l in path.ls]
                # d(out)/d(w): the full contraction without the weight.
                letters = "abcdef"[: path.nu]
                spec_fwd = ",".join(f"nk{c}" for c in letters) + f",{letters}M->nkM"
                t = np.einsum(spec_fwd, *ops, dense, optimize=True)
                gws[w_i][:, :, p_id] = scatter_rows(
                    np.einsum("nkM,nkM->nk", gL, t), rows
                )
                # d(out)/d(A): product rule over factor positions.
                wg = wsel[:, :, p_id, None] * gL  # (N, K, 2L+1)
                for f in range(path.nu):
                    others = [ops[g] for g in range(path.nu) if g != f]
                    o_letters = [letters[g] for g in range(path.nu) if g != f]
                    parts = ["nkM"] + [f"nk{c}" for c in o_letters] + [f"{letters}M"]
                    spec_b = ",".join(parts) + f"->nk{letters[f]}"
                    gA_f = np.einsum(spec_b, wg, *others, dense, optimize=True)
                    l = path.ls[f]
                    gA[:, :, l * l : (l + 1) * (l + 1)] += gA_f
        return (gA, None, None, None, *gws)


_DENSE_CACHE: Dict[tuple, np.ndarray] = {}


def _dense_path_tensor(path) -> np.ndarray:
    """Dense generalized-CG tensor of one coupling pattern (cached)."""
    key = (path.ls, path.intermediates, path.L)
    cached = _DENSE_CACHE.get(key)
    if cached is not None:
        return cached
    dims = tuple(2 * l + 1 for l in path.ls) + (2 * path.L + 1,)
    dense = np.zeros(dims, dtype=np.float64)
    local = tuple(
        path.indices[:, f] - np.array([l * l for l in path.ls])[f]
        for f in range(path.nu)
    ) + (path.indices[:, path.nu],)
    dense[local] = path.values
    _DENSE_CACHE[key] = dense
    return dense


class _SymContractionOptimized(Function):
    """Fused sparse sweep (the paper's Listing 1, vectorized in NumPy).

    Runs in structure-major (transposed) layout: arrays are
    ``(structure, N*K)`` so chain gathers are contiguous row copies and
    gradient scatters are sparse products with the scatter matrices
    precomputed per spec (see the module docstring).
    """

    supports_out = True  # (N, K, out_dim) accumulator: out may not alias A

    def forward(
        self, A, species, order, indptr, *weights, spec: SymContractionSpec, out=None
    ):
        _check_inputs(A, species, weights, spec)
        N, K = A.shape[0], A.shape[1]
        NK = N * K
        # Structure-major (transposed) layout: the structural axis leads,
        # so every chain gather is a contiguous row copy and every scatter
        # a row-segment reduction — the NumPy analogue of Listing 1's
        # one-block-per-atom layout with warps over coupling structure.
        A2T = np.ascontiguousarray(A.reshape(NK, A.shape[2]).T)  # (dim, NK)
        if out is None:
            out = np.zeros((N, K, spec.out_dim), dtype=np.float64)
        else:
            out.fill(0.0)
        # Shared-prefix product forest: each distinct factor tuple of a
        # correlation order nu is evaluated exactly once — across *all*
        # (nu, L) blocks (Listing 1's shared-memory reuse, pooled over L).
        # The level products are kept for backward, which re-gathers
        # operands with cheap contiguous row copies (saving both gathered
        # operands instead would double the pinned memory).
        forest_products = {}
        for forest in spec.forests:
            products = []
            prev = A2T
            for level in forest.levels:
                prev = prev[level.prev_map] * A2T[level.new_col]
                products.append(prev)
            prodT = prev if forest.levels else A2T[forest.tuple_cols]
            forest_products[forest.nu] = (products, prodT)
        saved_G = []
        for w, block in zip(weights, spec.blocks):
            P, M = block.n_paths, 2 * block.L + 1
            prodT = forest_products[block.nu][1]
            # One GEMM folds coefficients and reduces tuples -> (eta, M).
            G_T = (block.V.T @ prodT).reshape(P, M, NK)
            wselT = np.ascontiguousarray(w[species].reshape(NK, P).T)
            if G_T.size <= _SMALL_CONTRACT_MAX:
                # Sub-saturation shapes: a broadcast multiply + axis sum
                # beats the einsum dispatch severalfold (same contraction,
                # reassociated summation).
                blk = (wselT[:, None, :] * G_T).sum(axis=0)
            else:
                blk = np.einsum("pn,pmn->mn", wselT, G_T, optimize=True)
            base = block.L * block.L
            out[:, :, base : base + M] += blk.reshape(M, N, K).transpose(1, 2, 0)
            saved_G.append((G_T, wselT))
            record_kernel(
                "sc_fused",
                1,
                float((block.nu + 2) * N * K * block.nnz),
                _F8
                * (
                    N * K * sh_dim(spec.lmax)
                    + N * K * block.n_paths
                    + N * K * (2 * block.L + 1)
                ),
            )
        rows = RowIndex(species, order, indptr)
        self.saved = (A, rows, weights, spec, A2T, forest_products, saved_G)
        return out

    def backward(self, grad):
        A, rows, weights, spec, A2T, forest_products, saved_G = self.saved
        N, K = A.shape[0], A.shape[1]
        NK = N * K
        # Mask layout follows the tensor inputs: A, the species' index,
        # order and indptr, then weights.
        mask = self.grad_mask or (True,) * (4 + len(weights))
        need_a, need_w = mask[0], mask[4:]
        gA2T = np.zeros_like(A2T)
        gws = [
            np.zeros_like(wt) if need_w[i] else None
            for i, wt in enumerate(weights)
        ]
        # One atoms -> species-rows scatter matrix shared by every block's
        # per-atom weight gradient.
        if any(need_w):
            sp_scatter = rows.matrix()
        g_forest = {forest.nu: None for forest in spec.forests}
        for w_i, (w, block) in enumerate(zip(weights, spec.blocks)):
            P, M = block.n_paths, 2 * block.L + 1
            G_T, wselT = saved_G[w_i]
            base = block.L * block.L
            g_blockT = np.ascontiguousarray(
                grad[:, :, base : base + M].reshape(NK, M).T
            )  # (M, NK)
            if need_w[w_i]:
                # dW: small contraction, then segment-reduce atoms ->
                # species rows.
                if G_T.size <= _SMALL_CONTRACT_MAX:
                    gw2 = (g_blockT[None, :, :] * G_T).sum(axis=1).T
                else:
                    gw2 = np.einsum("mn,pmn->np", g_blockT, G_T, optimize=True)
                gws[w_i][:] = (
                    sp_scatter @ gw2.reshape(N, K * P)
                ).reshape(w.shape)
            if not need_a:
                continue
            # d(prodT): expand (eta, M) grads through the V GEMM, reusing
            # the species-gathered weights saved by forward; blocks of the
            # same nu accumulate onto one shared tuple gradient.
            gG_T = (wselT[:, None, :] * g_blockT[None, :, :]).reshape(P * M, NK)
            contrib = block.V @ gG_T  # (n_tuples, NK)
            prior = g_forest[block.nu]
            g_forest[block.nu] = contrib if prior is None else prior + contrib
        if need_a:
            # Walk each nu's prefix chain backwards ONCE on the summed
            # tuple gradients (product rule per level); operand re-gathers
            # are contiguous row copies off the saved products, and each
            # scatter is a product with one of the level's scatter matrices.
            for forest in spec.forests:
                g_cur = g_forest[forest.nu]
                if g_cur is None:
                    continue
                products = forest_products[forest.nu][0]
                for d in range(len(forest.levels) - 1, -1, -1):
                    level = forest.levels[d]
                    prev = A2T if d == 0 else products[d - 1]
                    gA2T += level.new_scatter @ (g_cur * prev[level.prev_map])
                    g_cur = level.prev_scatter @ (g_cur * A2T[level.new_col])
                if forest.levels:
                    gA2T += g_cur  # depth-1 grads land on raw feature rows
                else:
                    # nu == 1: products were direct gathers of the (unique,
                    # sorted) tuple rows.
                    gA2T[forest.tuple_cols] += g_cur
        return (gA2T.T.reshape(A.shape) if need_a else None, None, None, None, *gws)


def symmetric_contraction_baseline(
    A: Tensor,
    species,
    weights: Sequence[Tensor],
    spec: SymContractionSpec,
) -> Tensor:
    """Algorithm 3 with the original dense per-pattern kernel chain.

    Parameters
    ----------
    A:
        ``(N, K, (lmax+1)^2)`` atomic-basis features.
    species:
        ``(N,)`` species *indices* (rows of the weight tensors): an
        integer array, or a :class:`~repro.autograd.ops.RowIndex` over
        the species rows — the batch's
        :class:`~repro.graphs.EdgeTopology` binds one, whose fields a
        compiled plan rebinds per replay (see
        :func:`repro.autograd.gather_rows`).
    weights:
        One ``(n_species, K, n_paths)`` tensor per ``(nu, L)`` block, in
        :func:`weight_layout` order.
    spec:
        From :func:`sym_contraction_spec`.

    Returns
    -------
    ``(N, K, (L_max+1)^2)`` higher body-order messages.
    """
    return _SymContractionBaseline.apply(
        A, *bound_tensors(species, weights[0].shape[0]), *weights, spec=spec
    )


def symmetric_contraction_optimized(
    A: Tensor,
    species,
    weights: Sequence[Tensor],
    spec: SymContractionSpec,
) -> Tensor:
    """Algorithm 3 with the paper's fused sparse kernel (Listing 1).

    Numerically identical to :func:`symmetric_contraction_baseline`.
    """
    return _SymContractionOptimized.apply(
        A, *bound_tensors(species, weights[0].shape[0]), *weights, spec=spec
    )
