"""Tests for the paper's two hot kernels (Algorithms 2 and 3).

The central claims verified here:

* baseline and optimized implementations are numerically identical;
* both have correct gradients (finite-difference checked);
* both are equivariant (outputs rotate with Wigner-D);
* the optimized variant launches far fewer kernels, executes fewer FLOPs
  and moves fewer bytes (Observations 2-3 / §4.2).
"""

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.autograd.ops import RowIndex, row_index, scatter_rows
from repro.equivariant import random_rotation, wigner_D
from repro.equivariant.spherical_harmonics import sh_block_slice, sh_dim
from repro.kernels import (
    channelwise_tp_baseline,
    channelwise_tp_optimized,
    channelwise_tp_table,
    counting,
    sym_contraction_spec,
    symmetric_contraction_baseline,
    symmetric_contraction_optimized,
    weight_layout,
)
from repro.kernels.channelwise_tp import (
    _TILE_EDGES as TILE,
    _ChannelwiseTPBaseline,
    _ChannelwiseTPOptimized,
)

TP_TABLE = channelwise_tp_table(2, 1, 2)
GRAD_MASKS = pytest.mark.parametrize(
    "mask",
    [(True, True, True), (False, True, True), (True, False, True), (True, True, False)],
    ids=["all", "no-Y", "no-h", "no-R"],
)
SC_SPEC = sym_contraction_spec(2, 3, 1)


def _tp_inputs(rng, E=6, K=3):
    Y = Tensor(rng.standard_normal((E, sh_dim(2))))
    h = Tensor(rng.standard_normal((E, K, sh_dim(1))))
    R = Tensor(rng.standard_normal((E, K, TP_TABLE.num_paths)))
    return Y, h, R


def _sc_inputs(rng, N=5, K=2, S=3):
    A = Tensor(rng.standard_normal((N, K, sh_dim(2))))
    species = rng.integers(0, S, N)
    weights = [
        Tensor(rng.standard_normal((S, K, n_paths)) * 0.3)
        for (_, _, n_paths) in weight_layout(SC_SPEC)
    ]
    return A, species, weights


class TestChannelwiseTPTable:
    def test_paths_satisfy_triangle_rule(self):
        for l1, l2, l3 in TP_TABLE.paths:
            assert abs(l1 - l2) <= l3 <= l1 + l2

    def test_entries_sorted_by_output(self):
        assert np.all(np.diff(TP_TABLE.i3) >= 0)

    def test_nnz_below_dense(self):
        assert TP_TABLE.nnz < TP_TABLE.dense_mults()

    def test_out_groups_cover_all_entries(self):
        covered = sum(hi - lo for _, lo, hi in TP_TABLE.out_groups)
        assert covered == TP_TABLE.nnz

    def test_cached(self):
        assert channelwise_tp_table(2, 1, 2) is TP_TABLE


class TestChannelwiseTP:
    def test_baseline_optimized_identical(self, rng):
        Y, h, R = _tp_inputs(rng)
        out_b = channelwise_tp_baseline(Y, h, R, TP_TABLE)
        out_o = channelwise_tp_optimized(Y, h, R, TP_TABLE)
        np.testing.assert_allclose(out_b.numpy(), out_o.numpy(), atol=1e-12)

    def test_output_shape(self, rng):
        Y, h, R = _tp_inputs(rng, E=4, K=2)
        out = channelwise_tp_optimized(Y, h, R, TP_TABLE)
        assert out.shape == (4, 2, sh_dim(2))

    @pytest.mark.parametrize("fn", [channelwise_tp_baseline, channelwise_tp_optimized])
    def test_gradients(self, fn, rng):
        Y, h, R = _tp_inputs(rng, E=3, K=2)
        check_gradients(lambda Y, h, R: (fn(Y, h, R, TP_TABLE) ** 2.0).sum(), [Y, h, R])

    @pytest.mark.parametrize("fn", [channelwise_tp_baseline, channelwise_tp_optimized])
    def test_equivariance(self, fn, rng):
        """Rotating Y and h blocks rotates the output blocks."""
        Y, h, R = _tp_inputs(rng)
        R3 = random_rotation(rng)

        def rotate(x, lmax):
            out = x.numpy().copy()
            for l in range(lmax + 1):
                sl = sh_block_slice(l)
                out[..., sl] = x.numpy()[..., sl] @ wigner_D(l, R3).T
            return Tensor(out)

        out = fn(Y, h, R, TP_TABLE).numpy()
        out_rot = fn(rotate(Y, 2), rotate(h, 1), R, TP_TABLE).numpy()
        for l in range(3):
            sl = sh_block_slice(l)
            np.testing.assert_allclose(
                out_rot[..., sl], out[..., sl] @ wigner_D(l, R3).T, atol=1e-10
            )

    def test_linearity_in_radial_weights(self, rng):
        Y, h, R = _tp_inputs(rng)
        out1 = channelwise_tp_optimized(Y, h, R, TP_TABLE).numpy()
        out2 = channelwise_tp_optimized(Y, h, Tensor(2.0 * R.numpy()), TP_TABLE).numpy()
        np.testing.assert_allclose(out2, 2.0 * out1, atol=1e-12)

    def test_kernel_launch_reduction(self, rng):
        """Observation 3: the fused kernel replaces the per-segment chain."""
        Y, h, R = _tp_inputs(rng)
        with counting() as kb:
            channelwise_tp_baseline(Y, h, R, TP_TABLE)
        with counting() as ko:
            channelwise_tp_optimized(Y, h, R, TP_TABLE)
        assert ko.launches == 1
        assert kb.launches == 3 * TP_TABLE.num_paths
        assert ko.flops < kb.flops
        assert ko.bytes < kb.bytes

    def test_shape_validation(self, rng):
        Y, h, R = _tp_inputs(rng)
        with pytest.raises(ValueError):
            channelwise_tp_optimized(Tensor(np.zeros((6, 4))), h, R, TP_TABLE)
        with pytest.raises(ValueError):
            channelwise_tp_optimized(Y, Tensor(np.zeros((6, 3, 9))), R, TP_TABLE)
        with pytest.raises(ValueError):
            channelwise_tp_optimized(Y, h, Tensor(np.zeros((6, 3, 1))), TP_TABLE)


def _edge_rows(rng, E, N):
    """Bound ``send`` (random senders over ``N`` atoms) for ``E`` edges,
    and the row count of their radial weights: one per pair (edges
    ``2p`` and ``2p + 1``) when ``E`` is even, else one per edge."""
    return row_index(rng.integers(0, N, E), N), E // 2 if E % 2 == 0 else E


def _run_tp(fn_cls, Y, h, R, table, send, g, mask, out=None):
    """One forward and masked backward of a TP Function through the row
    contract: the optimized kernel reads ``h`` rows by ``send`` and ``R``
    rows by position itself; the baseline runs on ``h[send]`` and ``R``
    repeated per edge, and its edge gradients are summed onto node rows
    as ``GatherRows.backward`` does and onto pair rows.  Returns the
    Function, its output and ``(gY, gh, gR)``."""
    fn = fn_cls()
    if fn_cls is _ChannelwiseTPOptimized:
        result = fn.forward(Y, h, *send.arrays(), R, table, out=out)
        fn.grad_mask = (mask[0], mask[1], False, False, False, mask[2], False)
        grads = fn.backward(g)
        return fn, result, (grads[0], grads[1], grads[5])
    pairs = R.shape[0] != Y.shape[0]
    result = fn.forward(Y, h[send.index], np.repeat(R, 2, axis=0) if pairs else R, table)
    fn.grad_mask = mask
    gY, gh, gR, _ = fn.backward(g)
    return fn, result, (
        gY,
        None if gh is None else scatter_rows(gh, send),
        gR if gR is None or not pairs else gR[0::2] + gR[1::2],
    )


class TestEdgeTiles:
    """The optimized TP runs one loop over tiles of ``_TILE_EDGES`` edges,
    reading node rows by ``send`` and radial rows by position; every tile
    boundary, each ``grad_mask`` and the planner's ``out=`` buffer must
    reproduce the baseline on the gathered rows."""

    @pytest.mark.parametrize("use_out", [False, True], ids=["fresh", "out"])
    @GRAD_MASKS
    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("E", [0, 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
    def test_matches_baseline(self, E, K, mask, use_out, rng):
        N = 7
        send, n_rows = _edge_rows(rng, E, N)
        Y = rng.standard_normal((E, sh_dim(2)))
        h = rng.standard_normal((N, K, sh_dim(1)))
        R = rng.standard_normal((n_rows, K, TP_TABLE.num_paths))
        g = rng.standard_normal((E, K, sh_dim(2)))
        args = (Y, h, R, TP_TABLE, send, g, mask)
        _, ref_out, ref_grads = _run_tp(_ChannelwiseTPBaseline, *args)

        buf = np.full(ref_out.shape, np.nan)
        fn, out, grads = _run_tp(_ChannelwiseTPOptimized, *args, out=buf if use_out else None)
        assert (out is buf) == use_out
        # Nothing pair-shaped outlives forward: saved holds the operands.
        saved = [a for a in fn.saved if isinstance(a, np.ndarray)]
        saved += [a for r in fn.saved if isinstance(r, RowIndex) for a in r.arrays()]
        assert len(saved) == 3 + 3
        operands = (Y, h, R, *send.arrays())
        assert all(any(a is x for x in operands) for a in saved)

        np.testing.assert_allclose(out, ref_out, atol=1e-10)
        for need, ga, gb in zip(mask, grads, ref_grads):
            if need:
                np.testing.assert_allclose(ga, gb, atol=1e-10)
            else:
                assert ga is None

    @pytest.mark.parametrize(
        "fn_cls",
        [_ChannelwiseTPBaseline, _ChannelwiseTPOptimized],
        ids=["baseline", "optimized"],
    )
    @GRAD_MASKS
    @pytest.mark.parametrize("E", [0, 1, TILE - 1, TILE, TILE + 1])
    def test_scalar_input_matches_zero_padded(self, E, mask, fn_cls, rng):
        """A layer reading scalars runs ``table(2, 0, 2)`` on ``h[..., :1]``:
        bitwise what ``table(2, 1, 2)`` gives on the zero-padded ``h``,
        whatever the radial weights of its dead paths hold, and those
        paths' ``gR`` is exactly 0."""
        K, N = 3, 5
        scalar = channelwise_tp_table(2, 0, 2)
        live = [TP_TABLE.paths.index(p) for p in scalar.paths]
        dead = [p for p in range(TP_TABLE.num_paths) if p not in live]
        send, n_rows = _edge_rows(rng, E, N)
        Y = rng.standard_normal((E, sh_dim(2)))
        h0 = rng.standard_normal((N, K, 1))
        h = np.concatenate([h0, np.zeros((N, K, sh_dim(1) - 1))], axis=2)
        R = rng.standard_normal((n_rows, K, TP_TABLE.num_paths))
        g = rng.standard_normal((E, K, sh_dim(2)))
        results = [
            _run_tp(fn_cls, Y, h_in, R_in, table, send, g, mask)[1:]
            for table, h_in, R_in in ((TP_TABLE, h, R), (scalar, h0, R[:, :, live]))
        ]
        (out_full, (gY_full, gh_full, gR_full)), (out, (gY, gh, gR)) = results
        np.testing.assert_array_equal(out, out_full)
        for need, small, full in (
            (mask[0], gY, gY_full),
            (mask[1], gh, None if gh_full is None else gh_full[:, :, :1]),
            (mask[2], gR, None if gR_full is None else gR_full[:, :, live]),
        ):
            if need:
                np.testing.assert_array_equal(small, full)
            else:
                assert small is None and full is None
        if mask[2]:
            assert not np.any(gR_full[:, :, dead])

    def test_scratch_stays_tile_sized(self):
        """One eager forward+backward at the MD shape (204 atoms, E/2
        pairs), through the row contract, holds less than one
        ``(E, K, n_pairs)`` array beyond its output and three gradients."""
        E, K, N = 9792, 16, 204
        rng = np.random.default_rng(0)
        send, n_rows = _edge_rows(rng, E, N)
        Y = Tensor(rng.standard_normal((E, sh_dim(2))), requires_grad=True)
        h = Tensor(rng.standard_normal((N, K, sh_dim(1))), requires_grad=True)
        R = Tensor(
            rng.standard_normal((n_rows, K, TP_TABLE.num_paths)), requires_grad=True
        )
        g = np.ones((E, K, sh_dim(2)))
        tracemalloc.start()
        try:
            out = channelwise_tp_optimized(Y, h, R, TP_TABLE, send=send)
            out.backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = out.numpy().nbytes + sum(t.grad.nbytes for t in (Y, h, R))
        pair_array = E * K * TP_TABLE.n_pairs * np.dtype(np.float64).itemsize
        assert peak - kept < pair_array


class TestSymContractionSpec:
    def test_weight_layout_order(self):
        layout = weight_layout(SC_SPEC)
        assert layout == sorted(layout, key=lambda t: (t[0], t[1]))

    def test_total_nnz(self):
        assert SC_SPEC.total_nnz() == sum(b.nnz for b in SC_SPEC.blocks)

    def test_sparse_below_dense(self):
        assert SC_SPEC.total_nnz() < SC_SPEC.dense_mults()

    def test_cached(self):
        assert sym_contraction_spec(2, 3, 1) is SC_SPEC


class TestSymmetricContraction:
    def test_baseline_optimized_identical(self, rng):
        A, species, weights = _sc_inputs(rng)
        out_b = symmetric_contraction_baseline(A, species, weights, SC_SPEC)
        out_o = symmetric_contraction_optimized(A, species, weights, SC_SPEC)
        np.testing.assert_allclose(out_b.numpy(), out_o.numpy(), atol=1e-12)

    def test_output_shape(self, rng):
        A, species, weights = _sc_inputs(rng, N=4, K=3)
        out = symmetric_contraction_optimized(A, species, weights, SC_SPEC)
        assert out.shape == (4, 3, sh_dim(1))

    @pytest.mark.parametrize(
        "fn", [symmetric_contraction_baseline, symmetric_contraction_optimized]
    )
    def test_gradients(self, fn, rng):
        A, species, weights = _sc_inputs(rng, N=3, K=2, S=2)
        check_gradients(
            lambda A, *ws: (fn(A, species, ws, SC_SPEC) ** 2.0).sum(),
            [A, *weights],
            atol=2e-5,
        )

    @pytest.mark.parametrize(
        "fn", [symmetric_contraction_baseline, symmetric_contraction_optimized]
    )
    def test_equivariance(self, fn, rng):
        A, species, weights = _sc_inputs(rng)
        R3 = random_rotation(rng)
        A_rot = A.numpy().copy()
        for l in range(3):
            sl = sh_block_slice(l)
            A_rot[..., sl] = A.numpy()[..., sl] @ wigner_D(l, R3).T
        out = fn(A, species, weights, SC_SPEC).numpy()
        out_rot = fn(Tensor(A_rot), species, weights, SC_SPEC).numpy()
        for l in range(2):
            sl = sh_block_slice(l)
            np.testing.assert_allclose(
                out_rot[..., sl], out[..., sl] @ wigner_D(l, R3).T, atol=1e-10
            )

    def test_species_weights_select_rows(self, rng):
        """Changing an unused species' weights cannot change the output."""
        A, species, weights = _sc_inputs(rng, S=3)
        species = np.zeros_like(species)  # only species 0 present
        out1 = symmetric_contraction_optimized(A, species, weights, SC_SPEC).numpy()
        for w in weights:
            w.data[2] += 100.0  # species 2 unused
        out2 = symmetric_contraction_optimized(A, species, weights, SC_SPEC).numpy()
        np.testing.assert_allclose(out1, out2)

    def test_kernel_launch_reduction(self, rng):
        A, species, weights = _sc_inputs(rng)
        with counting() as kb:
            symmetric_contraction_baseline(A, species, weights, SC_SPEC)
        with counting() as ko:
            symmetric_contraction_optimized(A, species, weights, SC_SPEC)
        assert ko.launches == len(SC_SPEC.blocks)
        assert kb.launches > 10 * ko.launches
        assert ko.flops < kb.flops

    def test_homogeneity_in_A(self, rng):
        """Scaling A scales each nu-block by lambda^nu (polynomial structure)."""
        A, species, weights = _sc_inputs(rng)
        # Keep only nu=2 weights to isolate the quadratic part.
        for w, (nu, L, _) in zip(weights, weight_layout(SC_SPEC)):
            if nu != 2:
                w.data[:] = 0.0
        out1 = symmetric_contraction_optimized(A, species, weights, SC_SPEC).numpy()
        out2 = symmetric_contraction_optimized(
            Tensor(3.0 * A.numpy()), species, weights, SC_SPEC
        ).numpy()
        np.testing.assert_allclose(out2, 9.0 * out1, atol=1e-10)

    @pytest.mark.parametrize(
        "fn", [symmetric_contraction_baseline, symmetric_contraction_optimized]
    )
    def test_invariant_spec_is_the_L0_slice(self, fn, rng):
        """A last layer makes only invariants with ``spec(2, 3, 0)``: bitwise
        the ``L = 0`` slice of ``spec(2, 3, 1)`` given that spec's ``L = 0``
        weights, on the output and on ``gA`` and ``gW``."""
        invariant = sym_contraction_spec(2, 3, 0)
        keep = [i for i, (_, L, _) in enumerate(weight_layout(SC_SPEC)) if L == 0]
        assert weight_layout(invariant) == [weight_layout(SC_SPEC)[i] for i in keep]
        A, species, weights = _sc_inputs(rng, N=7, K=3)
        A.requires_grad = True
        for w in weights:
            w.requires_grad = True
        g = rng.standard_normal((7, 3, 1))
        results = []
        for spec, ws, g_out in (
            (SC_SPEC, weights, np.concatenate([g, np.zeros((7, 3, 3))], axis=2)),
            (invariant, [weights[i] for i in keep], g),
        ):
            for t in (A, *weights):
                t.zero_grad()
            out = fn(A, species, ws, spec)
            out.backward(g_out)
            results.append((out.numpy()[:, :, :1], A.grad.copy(), [w.grad.copy() for w in ws]))
        (out_full, gA_full, gW_full), (out, gA, gW) = results
        np.testing.assert_array_equal(out, out_full)
        np.testing.assert_array_equal(gA, gA_full)
        for i, gw in zip(keep, gW):
            np.testing.assert_array_equal(gw, gW_full[i])

    def test_input_validation(self, rng):
        A, species, weights = _sc_inputs(rng)
        with pytest.raises(ValueError):
            symmetric_contraction_optimized(
                Tensor(np.zeros((5, 2, 4))), species, weights, SC_SPEC
            )
        with pytest.raises(ValueError):
            symmetric_contraction_optimized(A, species[:-1], weights, SC_SPEC)
        with pytest.raises(ValueError):
            symmetric_contraction_optimized(A, species, weights[:-1], SC_SPEC)


class TestRandomizedEquivalence:
    """Baseline vs optimized on randomized shapes, incl. degenerate caps."""

    @pytest.mark.parametrize(
        "l1max,l2max,l3max",
        [(0, 0, 0), (1, 0, 1), (0, 1, 1), (3, 1, 2), (2, 2, 2)],
    )
    def test_channelwise_tp_shapes(self, l1max, l2max, l3max, rng):
        table = channelwise_tp_table(l1max, l2max, l3max)
        E, K = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        Y = Tensor(rng.standard_normal((E, sh_dim(l1max))), requires_grad=True)
        h = Tensor(rng.standard_normal((E, K, sh_dim(l2max))), requires_grad=True)
        R = Tensor(rng.standard_normal((E, K, table.num_paths)), requires_grad=True)
        g = rng.standard_normal((E, K, sh_dim(l3max)))
        grads = {}
        for name, fn in (
            ("base", channelwise_tp_baseline),
            ("opt", channelwise_tp_optimized),
        ):
            for t in (Y, h, R):
                t.zero_grad()
            out = fn(Y, h, R, table)
            out.backward(g)
            grads[name] = (out.numpy(), [t.grad.copy() for t in (Y, h, R)])
        np.testing.assert_allclose(grads["base"][0], grads["opt"][0], atol=1e-10)
        for ga, gb in zip(grads["base"][1], grads["opt"][1]):
            np.testing.assert_allclose(ga, gb, atol=1e-10)

    @pytest.mark.parametrize(
        "lmax,nu_max,L_max",
        [(0, 1, 0), (1, 1, 1), (2, 1, 1), (1, 3, 1), (2, 3, 1)],
    )
    def test_symmetric_contraction_shapes(self, lmax, nu_max, L_max, rng):
        spec = sym_contraction_spec(lmax, nu_max, L_max)
        N, K, S = int(rng.integers(1, 7)), int(rng.integers(1, 4)), 3
        A = Tensor(rng.standard_normal((N, K, sh_dim(lmax))), requires_grad=True)
        species = rng.integers(0, S, N)
        weights = [
            Tensor(rng.standard_normal((S, K, p)) * 0.3, requires_grad=True)
            for (_, _, p) in weight_layout(spec)
        ]
        g = rng.standard_normal((N, K, spec.out_dim))
        grads = {}
        for name, fn in (
            ("base", symmetric_contraction_baseline),
            ("opt", symmetric_contraction_optimized),
        ):
            for t in (A, *weights):
                t.zero_grad()
            out = fn(A, species, weights, spec)
            out.backward(g)
            grads[name] = (out.numpy(), [t.grad.copy() for t in (A, *weights)])
        np.testing.assert_allclose(grads["base"][0], grads["opt"][0], atol=1e-10)
        for ga, gb in zip(grads["base"][1], grads["opt"][1]):
            np.testing.assert_allclose(ga, gb, atol=1e-10)

    def test_gradcheck_degenerate_caps(self, rng):
        """Gradcheck the vectorized kernels at the lmax=0 / nu=1 edge."""
        table = channelwise_tp_table(0, 0, 0)
        Y = Tensor(rng.standard_normal((2, 1)), requires_grad=True)
        h = Tensor(rng.standard_normal((2, 2, 1)), requires_grad=True)
        R = Tensor(rng.standard_normal((2, 2, table.num_paths)), requires_grad=True)
        check_gradients(
            lambda Y, h, R: (channelwise_tp_optimized(Y, h, R, table) ** 2.0).sum(),
            [Y, h, R],
        )
        spec = sym_contraction_spec(1, 1, 1)
        A = Tensor(rng.standard_normal((3, 2, sh_dim(1))), requires_grad=True)
        species = rng.integers(0, 2, 3)
        weights = [
            Tensor(rng.standard_normal((2, 2, p)) * 0.3, requires_grad=True)
            for (_, _, p) in weight_layout(spec)
        ]
        check_gradients(
            lambda A, *ws: (
                symmetric_contraction_optimized(A, species, ws, spec) ** 2.0
            ).sum(),
            [A, *weights],
            atol=2e-5,
        )


class TestSegmentPlan:
    """The kernels' precomputed scatter matrices and reduction tables."""

    @pytest.mark.parametrize("config", [(2, 3, 1), (2, 2, 2), (1, 3, 1)])
    def test_level_scatters_match_select_gemm(self, rng, config):
        """Each prefix-chain level's CSR scatters equal the dense 0/1
        selection GEMM the kernel used to run, to 1e-12."""
        spec = sym_contraction_spec(*config)
        dim = sh_dim(config[0])
        levels = [level for forest in spec.forests for level in forest.levels]
        assert levels
        for level in levels:
            assert level.new_scatter.shape == (dim, level.new_col.size)
            for rows, S in (
                (level.new_col, level.new_scatter),
                (level.prev_map, level.prev_scatter),
            ):
                select = np.zeros(S.shape)
                select[rows, np.arange(rows.size)] = 1.0
                src = rng.standard_normal((rows.size, 208))
                np.testing.assert_allclose(S @ src, select @ src, rtol=0, atol=1e-12)

    def test_tp_pair_reduction_consistent_with_entries(self):
        """reduce_y folds exactly the table's non-zero CG entries."""
        rebuilt = np.zeros_like(TP_TABLE.reduce_y)
        d3 = sh_dim(TP_TABLE.l3max)
        n_paths = TP_TABLE.num_paths
        pair_codes = TP_TABLE.pair_i2 * n_paths + TP_TABLE.pair_path
        lookup = {int(c): i for i, c in enumerate(pair_codes)}
        for i1, i2, i3, pid, val in zip(
            TP_TABLE.i1, TP_TABLE.i2, TP_TABLE.i3, TP_TABLE.path_idx, TP_TABLE.values
        ):
            pair = lookup[int(i2) * n_paths + int(pid)]
            rebuilt[i1, pair * d3 + i3] += val
        np.testing.assert_allclose(rebuilt, TP_TABLE.reduce_y, atol=1e-14)


class TestCounters:
    def test_nested_counting(self, rng):
        from repro.kernels import record_kernel

        with counting() as outer:
            record_kernel("a", 1, 10.0, 20.0)
            with counting() as inner:
                record_kernel("b", 2, 5.0, 5.0)
            assert inner.launches == 2
        assert outer.launches == 1  # inner events don't leak out

    def test_by_name_breakdown(self):
        from repro.kernels import record_kernel

        with counting() as kc:
            record_kernel("x", 1, 1.0, 2.0)
            record_kernel("x", 1, 1.0, 2.0)
        assert kc.by_name["x"]["launches"] == 2

    def test_no_counter_is_noop(self):
        from repro.kernels import record_kernel

        record_kernel("orphan", 1, 1.0, 1.0)  # must not raise

    def test_reset(self):
        from repro.kernels import KernelCounter

        kc = KernelCounter()
        kc.record("k", 1, 2.0, 3.0)
        kc.reset()
        assert kc.launches == 0 and not kc.by_name
