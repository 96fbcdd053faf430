"""Tests for padded MD: candidate batches through ``pad_to_bucket``, plan
hits across edge refilters and Verlet rebuilds."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import generate_structure
from repro.graphs import MolecularGraph, build_neighbor_list, collate
from repro.mace import MACE, MACEConfig
from repro.mace.geometry import within_cutoff
from repro.md import MACECalculator

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)
CUTOFF = 3.0


def triangle(d: float) -> MolecularGraph:
    """O-H-H triangle whose 0-1 distance ``d`` straddles ``CUTOFF``."""
    g = MolecularGraph(
        np.array([[0.0, 0.0, 0.0], [d, 0.0, 0.0], [0.0, 2.9, 0.0]]),
        np.array([8, 1, 1]),
    )
    return g


def exact(model, g: MolecularGraph, cutoff: float = CUTOFF):
    """Eager energy and forces of ``g`` on its exact within-``cutoff`` edges."""
    energies, forces = model.energy_and_forces(
        collate([build_neighbor_list(g, cutoff=cutoff)])
    )
    return energies[0], forces


class TestWithinCutoff:
    def test_indicator_values(self):
        r = Tensor(np.array([0.0, 0.5, 2.0, 2.5, 2.5000001, 9.0]))
        m = within_cutoff(r, 2.5)
        np.testing.assert_array_equal(m.data, [0.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_zero_gradient(self):
        r = Tensor(np.array([1.0, 3.0]), requires_grad=True)
        within_cutoff(r, 2.0).sum().backward()
        # Piecewise-constant indicator: no gradient flows to r.
        assert r.grad is None or not np.any(r.grad)

    def test_gradcheck_through_composite(self):
        from repro.autograd.gradcheck import check_gradients

        # Away from the threshold the indicator is locally constant, so
        # d/dr [within_cutoff(r) * r] is exactly the mask itself —
        # matching the finite-difference gradient.
        r = Tensor(np.array([0.7, 1.9, 2.4, 3.1]))
        check_gradients(lambda t: (within_cutoff(t, 2.0) * t).sum(), [r])


class TestPaddedCalculator:
    def test_matches_exact_across_cutoff_crossing(self):
        """Padded (masked-superset) results equal the exact-edge results
        even while an edge oscillates across the cutoff."""
        model = MACE(CFG, seed=0)
        padded = MACECalculator(model, cutoff=CUTOFF)
        edge_counts = set()
        for d in (2.90, 2.95, 3.02, 2.97, 3.04, 2.92):
            ea, fa = exact(model, triangle(d))
            g = triangle(d)
            eb, fb = padded.energy_and_forces(g)
            edge_counts.add(g.n_edges)
            assert eb == pytest.approx(ea, abs=1e-12)
            np.testing.assert_allclose(fb, fa, atol=1e-12)
        assert len(edge_counts) > 1  # the exact edge set really changed

    def test_plan_hits_survive_refilter(self):
        """One capture serves every step between rebuilds, even when the
        exact edge set changes."""
        model = MACE(CFG, seed=0)
        padded = MACECalculator(model, cutoff=CUTOFF)
        edge_counts = set()
        for d in (2.90, 3.02, 2.97, 3.04, 2.92):
            g = triangle(d)
            padded.energy_and_forces(g)
            edge_counts.add(g.n_edges)
        assert len(edge_counts) > 1
        assert padded.neighbor_cache.rebuilds == 1
        assert padded.plan_cache.misses == 1
        assert padded.plan_cache.hits == 4
        assert padded.plan_cache.verified == 1  # padded plans verify clean

    def test_unpadded_graph_unaffected(self):
        """The caller's graph keeps its exact edges (padding is internal)."""
        g = triangle(2.9)
        calc = MACECalculator(MACE(CFG, seed=0), cutoff=CUTOFF)
        calc.energy_and_forces(g)
        send, recv = g.edge_index
        r = np.linalg.norm(g.positions[send] - g.positions[recv], axis=1)
        assert np.all(r <= CUTOFF)

    def test_eager_padded_matches_exact(self, rng):
        """Masking is exact independently of plan compilation."""
        g = generate_structure("Water clusters", rng, n_atoms=9)
        model = MACE(CFG, seed=0)
        g2 = MolecularGraph(g.positions.copy(), g.species.copy())
        e0, f0 = exact(model, g, cutoff=4.5)
        e1, f1 = MACECalculator(model, cutoff=4.5, compiled=None).energy_and_forces(g2)
        assert e1 == pytest.approx(e0, abs=1e-12)
        np.testing.assert_allclose(f1, f0, atol=1e-12)

    def test_rebuild_into_same_bucket_rehits_plan(self):
        """A Verlet rebuild whose candidate set stays inside the same
        shape bucket re-hits the compiled plan: the candidate edges are
        replay *inputs*, not plan constants, so no recapture."""
        model = MACE(CFG, seed=0)
        calc = MACECalculator(model, cutoff=CUTOFF)
        for d in (2.90, 2.85, 2.50, 2.45):  # 2.85 -> 2.50 drifts > skin/2
            e, f = calc.energy_and_forces(triangle(d))
            e0, f0 = exact(model, triangle(d))
            assert e == pytest.approx(e0, abs=1e-12)
            np.testing.assert_allclose(f, f0, atol=1e-12)
        assert calc.neighbor_cache.rebuilds >= 2  # the rebuild happened
        assert calc.plan_cache.misses == 1  # one capture for the run
        assert calc.plan_cache.hits == 3  # every later step replayed


class TestMaskedBatchesThroughEnergyPlans:
    def test_candidate_batch_is_never_served_unmasked(self, rng):
        """``predict_energy`` through a bucket plan masks a candidate
        batch exactly as the eager ``forward`` does: ``pad_to_bucket``
        carries ``masked_cutoff`` and ``featurize`` zeroes the harmonics
        of real edges beyond it and of zero-length ghost edges."""
        from repro.autograd.engine import no_grad
        from repro.runtime import PlanCache

        g = generate_structure("Water clusters", rng, n_atoms=18)
        model = MACE(CFG, seed=0)  # model cutoff 4.5: the mask radius is the batch's
        calc = MACECalculator(model, cutoff=CUTOFF)
        batch = calc._candidate_batch(g)  # Verlet candidates + ghosts
        assert batch.masked_cutoff == CUTOFF
        n_candidates = calc.neighbor_cache.candidate_edges()[0].shape[1]
        assert batch.n_edges > n_candidates > g.n_edges  # skin-shell and ghost edges
        with no_grad():
            masked = model.forward(batch).numpy()
        cache = PlanCache()
        captured = model.predict_energy(batch, compiled=cache)
        replayed = model.predict_energy(batch, compiled=cache)
        assert cache.stats()["hits"] == 1
        np.testing.assert_allclose(captured, masked, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(replayed, masked, rtol=0.0, atol=1e-12)
        batch.masked_cutoff = None  # the same edges unmasked answer differently
        assert abs(model.predict_energy(batch)[0] - masked[0]) > 1e-6
