"""The channelwise TP reads node rows and pair rows itself.

The optimized kernel takes node features ``h`` ``(N, K, ·)`` and pair
radial weights ``R`` ``(E/2, K, ·)`` with the bound row indices ``send``
and ``pair``; no ``(E, K, ·)`` copy of either is made before it.  These
tests hold the row contract to the gather-then-TP composition it
replaces, bit for bit, under every gradient mask, at every tile
boundary and with ghost edges; gradcheck it through the indices; and
count what the model's compiled plans lost: two ``GatherRows`` per
interaction layer.
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
from repro.kernels import channelwise_tp_optimized, channelwise_tp_table
from repro.kernels.channelwise_tp import _TILE_EDGES as TILE, _ChannelwiseTPOptimized
from repro.mace import MACE, MACEConfig
from repro.runtime import PlanCache
from repro.training import Trainer

TABLES = (channelwise_tp_table(2, 1, 2), channelwise_tp_table(2, 0, 2))
MASKS = ((True, True, True), (False, True, True), (True, False, True), (True, True, False))


def _ghosted_rows(rng, E, n_real_atoms, ghost_edges):
    """``send`` and ``pair`` for ``E`` edges over ``n_real_atoms`` real
    atoms plus one ghost atom.  The last ``ghost_edges`` (even) edges are
    the ghost atom's self-edges and pair by position, as
    :func:`repro.graphs.collate` lays them out; the real edges are sent
    only by the first ``n_real_atoms - 2`` atoms, so the last two real
    atoms have no outgoing edge."""
    n_real = E - ghost_edges
    ghost = n_real_atoms
    send = np.concatenate(
        [rng.integers(0, n_real_atoms - 2, n_real), np.full(ghost_edges, ghost)]
    )
    n_pairs = (E + 1) // 2
    real_pairs = (n_real + 1) // 2
    pair = np.concatenate(
        [
            rng.permutation(np.repeat(np.arange(real_pairs), 2))[:n_real],
            real_pairs + np.arange(ghost_edges) // 2,
        ]
    )
    return row_index(send, n_real_atoms + 1), row_index(pair, n_pairs)


def _forward_backward(Y, h, send, R, pair, table, g, mask):
    """The optimized Function's output and ``(gY, gh, gR)`` under ``mask``."""
    fn = _ChannelwiseTPOptimized()
    out = fn.forward(Y, h, *send.arrays(), R, *pair.arrays(), table)
    fn.grad_mask = (mask[0], mask[1], False, False, False, mask[2], False, False, False)
    grads = fn.backward(g)
    assert all(grads[i] is None for i in (2, 3, 4, 6, 7, 8, 9))
    return out, (grads[0], grads[1], grads[5])


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
    """Reading rows through ``send`` / ``pair`` gives bitwise the output
    and gradients of gathering ``h[send]`` / ``R[pair]`` first and running
    the kernel on edge-extent operands (identity rows), with the edge
    gradients summed onto rows as ``GatherRows.backward`` sums them.
    Atoms that send no edge get exactly-zero ``gh`` rows."""
    rng = np.random.default_rng(seed)
    ghost_edges = min(2 * ghost_pairs, E - E % 2)
    n_real_atoms = 6
    send, pair = _ghosted_rows(rng, E, n_real_atoms, ghost_edges)
    Y = rng.standard_normal((E, sh_dim(table.l1max)))
    Y[E - ghost_edges :] = 0.0  # ghost edges' harmonics, as featurize leaves them
    h = rng.standard_normal((n_real_atoms + 1, K, sh_dim(table.l2max)))
    R = rng.standard_normal((pair.n_rows, K, table.num_paths))
    g = rng.standard_normal((E, K, sh_dim(table.l3max)))

    out, grads = _forward_backward(Y, h, send, R, pair, table, g, mask)
    edges = row_index(np.arange(E), E)
    ref_out, (gY, gh_edges, gR_edges) = _forward_backward(
        Y, h[send.index], edges, R[pair.index], edges, table, g, mask
    )
    ref = (
        gY,
        None if gh_edges is None else scatter_rows(gh_edges, send),
        None if gR_edges is None else scatter_rows(gR_edges, pair),
    )
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
    """Finite differences through the row reads: ``gh`` and ``gR`` sum
    every edge that reads a row, including a row read by no edge."""
    table = TABLES[0]
    N, E, K = 4, 7, 2
    send = row_index(np.array([0, 2, 2, 1, 0, 2, 1]), N)  # atom 3 sends nothing
    pair = row_index(np.array([0, 1, 1, 0, 2, 3, 3]), 4)  # pair 2 has one edge
    Y = Tensor(rng.standard_normal((E, sh_dim(2))))
    h = Tensor(rng.standard_normal((N, K, sh_dim(1))))
    R = Tensor(rng.standard_normal((pair.n_rows, K, table.num_paths)))
    check_gradients(
        lambda Y, h, R: (
            channelwise_tp_optimized(Y, h, R, table, send=send, pair=pair) ** 2.0
        ).sum(),
        [Y, h, R],
    )


def test_raw_indices_are_bound_where_passed(rng):
    """Raw integer arrays bind like a ``RowIndex``; an index whose rows do
    not fit its operand is refused."""
    table = TABLES[0]
    send, pair = np.array([0, 2, 1, 1]), np.array([1, 0, 0, 1])
    Y = Tensor(rng.standard_normal((4, sh_dim(2))))
    h = Tensor(rng.standard_normal((3, 2, sh_dim(1))))
    R = Tensor(rng.standard_normal((2, 2, table.num_paths)))
    raw = channelwise_tp_optimized(Y, h, R, table, send=send, pair=pair)
    bound = channelwise_tp_optimized(
        Y, h, R, table, send=row_index(send, 3), pair=row_index(pair, 2)
    )
    np.testing.assert_array_equal(raw.numpy(), bound.numpy())
    with pytest.raises(ValueError, match="edge dimension mismatch between Y and h's rows"):
        channelwise_tp_optimized(
            Y, h, R, table, send=row_index(send, 5), pair=row_index(pair, 2)
        )
    with pytest.raises(ValueError, match="edge dimension mismatch between Y and h's rows"):
        channelwise_tp_optimized(Y, h, R, table)  # identity rows need edge extent


class TestPlansLoseTwoGathersPerLayer:
    """Loss, energy and force plans keep their keys and counts; each
    interaction layer is two forward instructions shorter than when the
    layer gathered ``h[send]`` and ``R[pair]`` itself (22 then, 20 now),
    and no ``GatherRows`` is left per layer."""

    # The embedding and the species energies; a force plan also gathers
    # positions by senders and receivers, and lengths by canonical edge.
    GATHERS = {"loss": 2, "energy": 2, "forces": 5}
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
