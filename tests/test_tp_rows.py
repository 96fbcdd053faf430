"""The channelwise TP reads node rows and pair rows itself.

The optimized kernel takes node features ``h`` ``(N, K, ·)`` with the
bound row index ``send``, and radial weights ``R`` by position: one row
per edge, or ``(E/2, K, ·)``, one row per undirected pair, which edges
``2p`` and ``2p + 1`` share.  No ``(E, K, ·)`` copy of either is made
before it.  These tests hold the row contract to the gather-then-TP
composition it replaces, bit for bit, under every gradient mask, at
every tile boundary and with ghost edges; gradcheck it through the
rows; check the call form ``channelwise_tp_optimized(Y, h, R, table)``
with no index; and count what the model's compiled plans lost: two
``GatherRows`` per interaction layer.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, check_gradients
from repro.autograd.ops import row_index, scatter_rows
from repro.data import attach_labels, build_training_set
from repro.equivariant.spherical_harmonics import sh_dim
from repro.graphs import collate
from repro.kernels import channelwise_tp_baseline, channelwise_tp_optimized, channelwise_tp_table
from repro.kernels.channelwise_tp import _TILE_EDGES as TILE, _ChannelwiseTPOptimized
from repro.mace import MACE, MACEConfig
from repro.runtime import PlanCache
from repro.training import Trainer

TABLES = (channelwise_tp_table(2, 1, 2), channelwise_tp_table(2, 0, 2))
MASKS = ((True, True, True), (False, True, True), (True, False, True), (True, True, False))


def _ghosted_send(rng, E, n_real_atoms, ghost_edges):
    """``send`` for ``E`` edges over ``n_real_atoms`` real atoms plus one
    ghost atom.  The last ``ghost_edges`` (even) edges are the ghost
    atom's self-edges, as :func:`repro.graphs.collate` lays them out; the
    real edges are sent only by the first ``n_real_atoms - 2`` atoms, so
    the last two real atoms have no outgoing edge."""
    n_real = E - ghost_edges
    ghost = n_real_atoms
    send = np.concatenate(
        [rng.integers(0, n_real_atoms - 2, n_real), np.full(ghost_edges, ghost)]
    )
    return row_index(send, n_real_atoms + 1)


def _forward_backward(Y, h, send, R, table, g, mask):
    """The optimized Function's output and ``(gY, gh, gR)`` under ``mask``."""
    fn = _ChannelwiseTPOptimized()
    out = fn.forward(Y, h, *send.arrays(), R, table)
    fn.grad_mask = (mask[0], mask[1], False, False, False, mask[2], False)
    grads = fn.backward(g)
    assert all(grads[i] is None for i in (2, 3, 4, 6))
    return out, (grads[0], grads[1], grads[5])


def _gathered(Y, h, send, R, table, g, mask):
    """The reference: the optimized Function on ``h[send]`` and ``R`` at
    edge extent (identity rows), its edge gradients summed onto node
    rows as ``GatherRows.backward`` sums them and, for pair-extent ``R``,
    onto pair rows lower edge first, as a pair index's CSR sum did."""
    E = Y.shape[0]
    pairs = R.shape[0] != E
    edges = row_index(np.arange(E), E)
    R_edges = np.repeat(R, 2, axis=0) if pairs else R
    out, (gY, gh, gR) = _forward_backward(Y, h[send.index], edges, R_edges, table, g, mask)
    if gR is not None and pairs:
        gR = gR[0::2] + gR[1::2]
    return out, (gY, None if gh is None else scatter_rows(gh, send), gR)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    E=st.sampled_from([0, 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1]),
    K=st.integers(1, 3),
    ghost_pairs=st.integers(0, 3),
    table=st.sampled_from(TABLES),
    mask=st.sampled_from(MASKS),
)
def test_row_contract_is_bitwise_the_gather_then_tp(seed, E, K, ghost_pairs, table, mask):
    """Reading ``h`` rows through ``send`` and ``R`` rows by position gives
    bitwise the output and gradients of gathering ``h[send]`` and
    repeating ``R`` per edge first, with the edge gradients summed onto
    rows.  Each example runs pair-extent ``R`` on an even ``E`` (edge
    extent on an odd one), then edge-extent ``R`` on ``E`` rounded down
    to even.  Atoms that send no edge get exactly-zero ``gh`` rows."""
    rng = np.random.default_rng(seed)
    for E, n_rows in ((E, E // 2 if E % 2 == 0 else E), (E - E % 2, E - E % 2)):
        ghost_edges = min(2 * ghost_pairs, E)
        n_real_atoms = 6
        send = _ghosted_send(rng, E, n_real_atoms, ghost_edges)
        Y = rng.standard_normal((E, sh_dim(table.l1max)))
        Y[E - ghost_edges :] = 0.0  # ghost edges' harmonics, as featurize leaves them
        h = rng.standard_normal((n_real_atoms + 1, K, sh_dim(table.l2max)))
        R = rng.standard_normal((n_rows, K, table.num_paths))
        g = rng.standard_normal((E, K, sh_dim(table.l3max)))

        out, grads = _forward_backward(Y, h, send, R, table, g, mask)
        ref_out, ref = _gathered(Y, h, send, R, table, g, mask)
        np.testing.assert_array_equal(out, ref_out)
        for need, got, want in zip(mask, grads, ref):
            if need:
                np.testing.assert_array_equal(got, want)
            else:
                assert got is None and want is None
        if mask[1]:
            silent = np.setdiff1d(np.arange(h.shape[0]), send.index)
            assert {n_real_atoms - 2, n_real_atoms - 1} <= set(silent.tolist())
            assert not np.any(grads[1][silent])


def test_gradcheck_through_send_and_pair(rng):
    """Finite differences through the row reads: ``gh`` sums every edge
    that reads a node row, including a row read by no edge, and ``gR``
    each pair's two edges."""
    table = TABLES[0]
    N, E, K = 4, 8, 2
    send = row_index(np.array([0, 2, 2, 1, 0, 2, 1, 1]), N)  # atom 3 sends nothing
    Y = Tensor(rng.standard_normal((E, sh_dim(2))))
    h = Tensor(rng.standard_normal((N, K, sh_dim(1))))
    R = Tensor(rng.standard_normal((E // 2, K, table.num_paths)))
    check_gradients(
        lambda Y, h, R: (channelwise_tp_optimized(Y, h, R, table, send=send) ** 2.0).sum(),
        [Y, h, R],
    )


def test_raw_indices_are_bound_where_passed(rng):
    """A raw integer ``send`` binds like a ``RowIndex``; an index whose
    rows do not fit ``h``, or an ``R`` with neither a row per edge nor
    one per pair, is refused."""
    table = TABLES[0]
    send = np.array([0, 2, 1, 1])
    Y = Tensor(rng.standard_normal((4, sh_dim(2))))
    h = Tensor(rng.standard_normal((3, 2, sh_dim(1))))
    R = Tensor(rng.standard_normal((2, 2, table.num_paths)))
    raw = channelwise_tp_optimized(Y, h, R, table, send=send)
    bound = channelwise_tp_optimized(Y, h, R, table, send=row_index(send, 3))
    np.testing.assert_array_equal(raw.numpy(), bound.numpy())
    with pytest.raises(ValueError, match="edge dimension mismatch between Y and h's rows"):
        channelwise_tp_optimized(Y, h, R, table, send=row_index(send, 5))
    with pytest.raises(ValueError, match="edge dimension mismatch between Y and h's rows"):
        channelwise_tp_optimized(Y, h, R, table)  # identity rows need edge extent
    with pytest.raises(ValueError, match="one row per edge or per pair of 4 edges"):
        channelwise_tp_optimized(Y, h, R[:1], table, send=send)


class TestCallFormWithoutIndices:
    """``channelwise_tp_optimized(Y, h, R, table)`` with ``h`` and ``R`` at
    edge extent and no index (the kernel microbenchmark's call), and with
    pair-extent ``R`` and a model's bound ``send``: forward and gradients
    agree with :func:`channelwise_tp_baseline` on ``h[send]`` and ``R``
    repeated per edge to 1e-12 (the baseline sums dense CG blocks in
    another order), and equal bit for bit the fused kernel on those
    gathered operands."""

    @staticmethod
    def _run(fn, Y, h, R, g, **rows):
        tensors = [Tensor(a, requires_grad=True) for a in (Y, h, R)]
        out = fn(*tensors, TABLES[0], **rows)
        out.backward(g)
        return [out.numpy()] + [t.grad for t in tensors]

    def _check(self, got, gathered, baseline):
        for a, b, c in zip(got, gathered, baseline):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(a, c, rtol=0.0, atol=1e-12)

    def test_edge_extent_with_no_index(self, rng):
        E, K, table = 2 * TILE + 6, 3, TABLES[0]
        Y = rng.standard_normal((E, sh_dim(2)))
        h = rng.standard_normal((E, K, sh_dim(1)))
        R = rng.standard_normal((E, K, table.num_paths))
        g = rng.standard_normal((E, K, sh_dim(2)))
        got = self._run(channelwise_tp_optimized, Y, h, R, g)
        identity = row_index(np.arange(E), E)
        gathered = self._run(channelwise_tp_optimized, Y, h, R, g, send=identity)
        self._check(got, gathered, self._run(channelwise_tp_baseline, Y, h, R, g))

    def test_pair_extent_with_a_models_send(self):
        graphs = attach_labels(build_training_set(4, seed=11, max_atoms=40))
        model = MACE(MACEConfig(num_channels=3, lmax_sh=2, l_atomic_basis=2), seed=0)
        batch = collate(graphs)
        send = model.topology(batch).send
        E, K, table = batch.n_edges, 3, TABLES[0]
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((E, sh_dim(2)))
        h = rng.standard_normal((batch.n_atoms, K, sh_dim(1)))
        R = rng.standard_normal((E // 2, K, table.num_paths))
        g = rng.standard_normal((E, K, sh_dim(2)))
        out, gY, gh, gR = self._run(channelwise_tp_optimized, Y, h, R, g, send=send)
        R_edges = np.repeat(R, 2, axis=0)
        gathered = self._run(channelwise_tp_optimized, Y, h[send.index], R_edges, g)
        baseline = self._run(channelwise_tp_baseline, Y, h[send.index], R_edges, g)
        for grads in (gathered, baseline):
            grads[2] = scatter_rows(grads[2], send)
            grads[3] = grads[3][0::2] + grads[3][1::2]
        self._check([out, gY, gh, gR], gathered, baseline)


class TestPlansLoseTwoGathersPerLayer:
    """Loss, energy and force plans keep their keys and counts; each
    interaction layer is two forward instructions shorter than when the
    layer gathered ``h[send]`` and ``R[pair]`` itself (22 then, 20 now),
    and no ``GatherRows`` is left per layer.  The topology's arrays are
    the 12 leading plan inputs of each plan (18 while it carried the
    pair indices)."""

    # The embedding and the species energies; a force plan also gathers
    # positions by senders and receivers (lengths by even edge are a slice).
    GATHERS = {"loss": 2, "energy": 2, "forces": 4}
    # Inputs besides the topology: harmonics and basis, then counts,
    # targets and weights (loss); positions and shifts (forces).
    INPUTS = {"loss": 12 + 5, "energy": 12 + 2, "forces": 2 + 12}
    PER_LAYER = 20

    @staticmethod
    def _plans(n_layers):
        cfg = MACEConfig(
            num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2, n_layers=n_layers
        )
        labeled = attach_labels(build_training_set(8, seed=11, max_atoms=40))
        trainer = Trainer(MACE(cfg, seed=0), labeled)
        trainer.train_step(range(8))
        model, cache = MACE(cfg, seed=0), PlanCache()
        batch = collate(labeled[:4])
        model.predict_energy(batch, compiled=cache)
        model.energy_and_forces(batch, compiled=cache)
        stores = list(trainer.plan_cache._store.items()) + list(cache._store.items())
        keys = [key for (key, _), _ in stores]  # the caller's key, then input specs
        assert [key[0] for key in keys] == ["loss", "energy", "forces"]
        assert keys[1][1:] == (model, batch.n_graphs) == keys[2][1:]
        for key, (_, plan) in zip(keys, stores):
            assert len(plan._input_specs) == TestPlansLoseTwoGathersPerLayer.INPUTS[key[0]]
        return {
            key[0]: collections.Counter(type(i.fn).__name__ for i in plan._forward)
            for key, (_, plan) in zip(keys, stores)
        }

    def test_instruction_counts(self):
        two, three = self._plans(2), self._plans(3)
        for kind, gathers in self.GATHERS.items():
            assert two[kind]["GatherRows"] == three[kind]["GatherRows"] == gathers
            assert two[kind]["_ChannelwiseTPOptimized"] == 2
            assert three[kind]["_ChannelwiseTPOptimized"] == 3
            per_layer = sum(three[kind].values()) - sum(two[kind].values())
            assert per_layer == self.PER_LAYER, kind
