"""Tests for padded MD: each step's exact edge set in a bucket-shaped ``collate``,
plan hits across edge refilters and Verlet rebuilds."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data import generate_structure
from repro.graphs import MolecularGraph, bucket_size, build_neighbor_list, collate
from repro.mace import MACE, MACEConfig
from repro.mace.geometry import within_cutoff
from repro.md import MACECalculator, VelocityVerlet

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


def water18() -> MolecularGraph:
    """An open 18-atom cluster whose edges at ``CUTOFF`` (84, bucket 88)
    and at ``CUTOFF`` plus the default skin (114, bucket 120) land in
    different buckets."""
    return generate_structure("Water clusters", np.random.default_rng(0), n_atoms=18)


class TestWithinCutoff:
    """The ghost mask: zero-length edges off, every real edge on."""

    def test_indicator_values(self):
        r = Tensor(np.array([0.0, 1e-300, 0.5, 2.5, 9.0, 0.0]))
        np.testing.assert_array_equal(
            within_cutoff(r).data, [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
        )

    def test_zero_gradient(self):
        r = Tensor(np.array([0.0, 1.0, 3.0]), requires_grad=True)
        within_cutoff(r).sum().backward()
        # Piecewise-constant indicator: no gradient flows to r.
        assert r.grad is None or not np.any(r.grad)

    def test_gradcheck_through_composite(self):
        from repro.autograd.gradcheck import check_gradients

        # Away from r = 0 the indicator is locally constant, so
        # d/dr [within_cutoff(r) * r] is exactly the mask itself —
        # matching the finite-difference gradient.
        r = Tensor(np.array([0.7, 1.9, 2.4, 3.1]))
        check_gradients(lambda t: (within_cutoff(t) * t).sum(), [r])


class TestPaddedCalculator:
    """The calculator evaluates the bucket-padded exact edge set."""

    def test_matches_exact_across_cutoff_crossing(self):
        """Padded results equal the exact-edge results even while an edge
        oscillates across the cutoff."""
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
        """One capture serves every step whose exact edge set stays in
        its bucket: the 2- and 4-edge sets here both pad to 8."""
        model = MACE(CFG, seed=0)
        padded = MACECalculator(model, cutoff=CUTOFF)
        edge_counts = set()
        for d in (2.90, 3.02, 2.97, 3.04, 2.92):
            g = triangle(d)
            padded.energy_and_forces(g)
            edge_counts.add(g.n_edges)
            assert padded.edge_capacity == 8
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
        """Padding is exact independently of plan compilation."""
        g = generate_structure("Water clusters", rng, n_atoms=9)
        model = MACE(CFG, seed=0)
        g2 = MolecularGraph(g.positions.copy(), g.species.copy())
        e0, f0 = exact(model, g, cutoff=4.5)
        e1, f1 = MACECalculator(model, cutoff=4.5, compiled=None).energy_and_forces(g2)
        assert e1 == pytest.approx(e0, abs=1e-12)
        np.testing.assert_allclose(f1, f0, atol=1e-12)

    def test_rebuild_into_same_bucket_rehits_plan(self):
        """A Verlet rebuild whose exact edges stay inside the same shape
        bucket re-hits the compiled plan: the edges are replay *inputs*,
        not plan constants, so no recapture."""
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

    def test_evaluates_the_exact_edges_only(self, monkeypatch):
        """The evaluated batch pads the exact edge set, not the Verlet
        candidates: its edge extent is the exact set's bucket and no
        real edge is longer than the cutoff."""
        model = MACE(CFG, seed=0)
        calc = MACECalculator(model, cutoff=CUTOFF)
        seen = []
        evaluate = model.energy_and_forces
        monkeypatch.setattr(
            model,
            "energy_and_forces",
            lambda batch, **kw: seen.append(batch) or evaluate(batch, **kw),
        )
        g = water18()
        calc.energy_and_forces(g)
        (batch,) = seen
        assert calc.edge_capacity == batch.n_edges == bucket_size(g.n_edges)
        n_real = batch.n_edges - batch.ghost_edges
        assert n_real == g.n_edges
        r = np.linalg.norm(batch.displacement_vectors()[:n_real], axis=1)
        assert np.all((0.0 < r) & (r <= CUTOFF))

    def test_skin_sets_rebuild_cadence_only(self):
        """Two compiled calculators that differ only in skin drive the
        same 10-step trajectory bitwise: same energies, forces and edge
        extent at every step, only the rebuild counts differ."""
        runs = []
        for skin in (0.3, 1.2):
            calc = MACECalculator(MACE(CFG, seed=0), cutoff=CUTOFF, skin=skin)
            md = VelocityVerlet(calc, water18(), timestep_fs=1.0, seed=4)
            md.initialize_velocities(1500.0)
            steps = []
            for _ in range(10):
                state = md.step()
                steps.append(
                    (state.potential_energy, state.forces.copy(), calc.edge_capacity)
                )
            runs.append((steps, calc.neighbor_cache.rebuilds))
        (fine, fine_rebuilds), (coarse, coarse_rebuilds) = runs
        for (e_a, f_a, cap_a), (e_b, f_b, cap_b) in zip(fine, coarse):
            assert e_a == e_b
            np.testing.assert_array_equal(f_a, f_b)
            assert cap_a == cap_b
        assert fine_rebuilds > coarse_rebuilds
