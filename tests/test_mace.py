"""Tests for the MACE model: radial basis, geometry ops, symmetries, forces."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients
from repro.equivariant import random_rotation
from repro.graphs import MolecularGraph, build_neighbor_list, collate
from repro.mace import (
    MACE,
    MACEConfig,
    bessel_basis,
    edge_lengths,
    edge_spherical_harmonics,
    edge_vectors,
    polynomial_cutoff,
)

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)
# The repo benchmark's training and MD models.
BENCH_CFG = MACEConfig(num_channels=8, lmax_sh=2, l_atomic_basis=2, correlation=2)
BENCH_MD_CFG = replace(BENCH_CFG, num_channels=16, correlation=3)


@pytest.fixture(scope="module")
def water_batch():
    g = MolecularGraph(
        np.array(
            [
                [0.0, 0.0, 0.0],
                [0.96, 0.0, 0.0],
                [-0.24, 0.93, 0.0],
                [3.0, 0.0, 0.0],
                [3.96, 0.0, 0.0],
                [2.76, 0.93, 0.0],
            ]
        ),
        np.array([8, 1, 1, 8, 1, 1]),
    )
    build_neighbor_list(g, cutoff=4.5)
    return collate([g])


class TestRadial:
    def test_cutoff_envelope_limits(self):
        r = np.array([0.0, 4.5, 10.0])
        env = polynomial_cutoff(r, 4.5)
        np.testing.assert_allclose(env, [1.0, 0.0, 0.0], atol=1e-12)

    def test_cutoff_monotone(self):
        r = np.linspace(0, 4.5, 100)
        env = polynomial_cutoff(r, 4.5)
        assert np.all(np.diff(env) <= 1e-12)

    def test_bessel_shape(self, rng):
        r = Tensor(rng.uniform(0.5, 4.0, 10))
        out = bessel_basis(r, 8, 4.5)
        assert out.shape == (10, 8)

    def test_bessel_vanishes_at_cutoff(self):
        out = bessel_basis(Tensor(np.array([4.5])), 8, 4.5)
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-12)

    def test_bessel_finite_at_origin(self):
        out = bessel_basis(Tensor(np.array([1e-12])), 8, 4.5)
        assert np.isfinite(out.numpy()).all()

    def test_bessel_gradient(self, rng):
        r = Tensor(rng.uniform(0.5, 4.0, 5))
        check_gradients(lambda r: (bessel_basis(r, 4, 4.5) ** 2.0).sum(), [r])


class TestGeometryOps:
    def test_edge_vectors_values(self):
        pos = Tensor(np.array([[0.0, 0, 0], [1.0, 2.0, 3.0]]))
        ei = np.array([[0, 1], [1, 0]])
        shift = np.zeros((2, 3))
        vec = edge_vectors(pos, ei, shift)
        np.testing.assert_allclose(vec.numpy()[0], [-1.0, -2.0, -3.0])

    def test_edge_vectors_with_shift(self):
        pos = Tensor(np.zeros((2, 3)))
        ei = np.array([[0], [1]])
        shift = np.array([[10.0, 0.0, 0.0]])
        vec = edge_vectors(pos, ei, shift)
        np.testing.assert_allclose(vec.numpy()[0], [10.0, 0.0, 0.0])

    def test_edge_lengths_gradient(self, rng):
        vec = Tensor(rng.standard_normal((4, 3)))
        check_gradients(lambda v: edge_lengths(v).sum(), [vec])

    def test_sh_gradient_fd_backward(self, rng):
        """The FD-Jacobian backward agrees with an outer finite difference."""
        vec = Tensor(rng.standard_normal((3, 3)))
        check_gradients(
            lambda v: (edge_spherical_harmonics(v, 2) ** 2.0).sum(),
            [vec],
            atol=1e-4,
            rtol=1e-3,
        )

    def test_position_to_energy_chain(self, rng):
        """Gradient flows positions -> vectors -> lengths -> scalar."""
        pos = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        ei = np.array([[0, 1, 2], [1, 2, 0]])
        vec = edge_vectors(pos, ei, np.zeros((3, 3)))
        total = edge_lengths(vec).sum()
        total.backward()
        assert pos.grad is not None and np.abs(pos.grad).sum() > 0


class TestMACEConfig:
    def test_defaults_valid(self):
        MACEConfig()

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            MACEConfig(kernel_variant="cuda")

    def test_bad_correlation(self):
        with pytest.raises(ValueError):
            MACEConfig(correlation=0)

    def test_l_hidden_exceeds_basis(self):
        with pytest.raises(ValueError):
            MACEConfig(l_hidden=3, l_atomic_basis=2)

    def test_with_variant(self):
        cfg = MACEConfig().with_variant("baseline")
        assert cfg.kernel_variant == "baseline"


class TestMACEModel:
    def test_energy_shape(self, water_batch):
        model = MACE(CFG, seed=0)
        e = model.predict_energy(water_batch)
        assert e.shape == (1,)

    def test_variants_identical(self, water_batch):
        """Same seed, different kernels: identical energies (Figure 9's basis)."""
        e_opt = MACE(CFG, seed=1).predict_energy(water_batch)
        e_base = MACE(CFG.with_variant("baseline"), seed=1).predict_energy(water_batch)
        np.testing.assert_allclose(e_opt, e_base, atol=1e-12)

    def test_rotation_invariance(self, small_graphs, rng):
        model = MACE(CFG, seed=0)
        batch = collate(small_graphs[:2])
        e0 = model.predict_energy(batch)
        R = random_rotation(rng)
        rotated = [g.rotated(R) for g in small_graphs[:2]]
        for g in rotated:
            build_neighbor_list(g)
        e1 = model.predict_energy(collate(rotated))
        np.testing.assert_allclose(e0, e1, atol=1e-9)

    def test_translation_invariance(self, small_graphs):
        model = MACE(CFG, seed=0)
        batch = collate(small_graphs[:2])
        e0 = model.predict_energy(batch)
        moved = [g.translated(np.array([5.0, -3.0, 1.0])) for g in small_graphs[:2]]
        for g in moved:
            build_neighbor_list(g)
        e1 = model.predict_energy(collate(moved))
        np.testing.assert_allclose(e0, e1, atol=1e-9)

    def test_permutation_invariance(self, small_graphs, rng):
        model = MACE(CFG, seed=0)
        g = small_graphs[0]
        e0 = model.predict_energy(collate([g]))
        perm = rng.permutation(g.n_atoms)
        gp = g.permuted(perm)
        build_neighbor_list(gp)
        e1 = model.predict_energy(collate([gp]))
        np.testing.assert_allclose(e0, e1, atol=1e-9)

    def test_batching_consistency(self, small_graphs):
        """Energies of a batch equal energies of singleton batches."""
        model = MACE(CFG, seed=0)
        together = model.predict_energy(collate(small_graphs[:3]))
        separate = np.array(
            [model.predict_energy(collate([g]))[0] for g in small_graphs[:3]]
        )
        np.testing.assert_allclose(together, separate, atol=1e-9)

    def test_forces_match_finite_differences(self, water_batch):
        model = MACE(CFG, seed=0)
        f = model.forces(water_batch)
        assert f.shape == (6, 3)
        # Central difference on one coordinate.
        eps = 1e-5
        pos = water_batch.real().positions.copy()

        def energy(p):
            g = MolecularGraph(p, water_batch.real().species.copy())
            build_neighbor_list(g, cutoff=4.5)
            return model.predict_energy(collate([g]))[0]

        p_plus = pos.copy()
        p_plus[2, 1] += eps
        p_minus = pos.copy()
        p_minus[2, 1] -= eps
        fd = -(energy(p_plus) - energy(p_minus)) / (2 * eps)
        assert f[2, 1] == pytest.approx(fd, abs=1e-5)

    def test_forces_sum_to_zero(self, water_batch):
        """Newton's third law: no net force on an isolated system."""
        model = MACE(CFG, seed=0)
        f = model.forces(water_batch)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-8)

    def test_unknown_species_raises(self):
        model = MACE(CFG, seed=0)
        g = MolecularGraph(np.zeros((1, 3)), np.array([99]))
        g.edge_index = np.zeros((2, 0), dtype=np.int64)
        g.edge_shift = np.zeros((0, 3))
        with pytest.raises(KeyError, match="species 99 not in model config"):
            model.predict_energy(collate([g]))
        for unknown in (-1, 0, 2, 10**6):  # below, between and beyond the table
            with pytest.raises(KeyError, match=f"species {unknown} "):
                model.species_indices(np.array([1, unknown, 8]))

    def test_species_indices_match_config_order(self, rng):
        model = MACE(CFG, seed=0)
        species = np.array(CFG.species)
        z = rng.choice(species, 200)
        rows = model.species_indices(z)
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(species[rows], z)
        np.testing.assert_array_equal(model.species_indices(list(z)), rows)
        assert model.species_indices(np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_parameter_count_reasonable(self):
        model = MACE(CFG, seed=0)
        n = model.num_parameters()
        assert 1000 < n < 100000

    @pytest.mark.parametrize(
        "cfg",
        [BENCH_CFG, BENCH_MD_CFG, replace(BENCH_CFG, n_layers=1), replace(BENCH_CFG, n_layers=3)],
        ids=["bench", "bench-md", "1-layer", "3-layer"],
    )
    def test_every_parameter_is_live(self, cfg, small_graphs):
        """One energy backward reaches every parameter array and every
        radial output column: the first layer reads only scalars and the
        last makes only the invariants the readout uses, so no weight
        multiplies structural zeros or feeds a discarded degree."""
        model = MACE(cfg, seed=0)
        model.forward(collate(small_graphs[:3])).sum().backward()
        dead = [name for name, p in model.named_parameters() if not np.any(p.grad)]
        assert dead == []
        for t in range(cfg.n_layers):
            mlp = getattr(model, f"layer{t}").radial.mlp
            grad = getattr(mlp, f"layer{mlp.n_layers - 1}").weight.grad
            assert np.all(np.any(grad, axis=0)), f"layer{t}"

    def test_layers_run_at_the_degrees_they_read_and_write(self):
        """Layer 0's TP takes scalar senders (3 paths, 9 CG entries), the
        last layer's product makes only ``L = 0``, a middle layer runs at
        ``l_hidden`` on both sides."""
        model = MACE(replace(BENCH_CFG, n_layers=3), seed=0)
        first, middle, last = model.layer0, model.layer1, model.layer2
        assert (first.tp_table.l2max, first.tp_table.num_paths, first.tp_table.nnz) == (0, 3, 9)
        assert first.radial.mlp.layer2.weight.shape[1] == 8 * 3
        assert middle.tp_table.l2max == 1 and middle.sc_spec.L_max == 1
        assert last.sc_spec.L_max == 0 and last.linear_msg.lmax == 0
        assert [layer.linear_skip.lmax for layer in (first, middle, last)] == [0, 1, 0]

    def test_state_dict_roundtrip_changes_nothing(self, water_batch):
        model = MACE(CFG, seed=0)
        e0 = model.predict_energy(water_batch)
        model.load_state_dict(model.state_dict())
        np.testing.assert_array_equal(model.predict_energy(water_batch), e0)

    def test_training_reduces_loss_single_graph(self, small_graphs):
        """A few Adam steps on one graph must reduce the energy error."""
        from repro.training import Trainer

        model = MACE(CFG, seed=0)
        trainer = Trainer(model, small_graphs[:2], lr=0.01)
        losses = [trainer.train_step([0, 1]) for _ in range(10)]
        assert losses[-1] < losses[0]
