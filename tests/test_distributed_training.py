"""Tests for the timed distributed-training run and Wigner-3j symbols."""

import numpy as np
import pytest

from repro.data import attach_labels, build_training_set
from repro.distribution import BalancedDistributedSampler, FixedCountDistributedSampler
from repro.equivariant.clebsch_gordan import wigner_3j
from repro.mace import MACE, MACEConfig
from repro.parallel import make_executor
from repro.training import DistributedTrainingRun, Trainer

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)


@pytest.fixture(scope="module")
def labeled():
    return attach_labels(build_training_set(8, seed=31, max_atoms=40))


def _run(labeled, sampler_cls, world, seed=0, variant="optimized", **kw):
    sizes = [g.n_atoms for g in labeled]
    if sampler_cls is BalancedDistributedSampler:
        sampler = sampler_cls(sizes, 96, num_replicas=world, seed=seed)
    else:
        sampler = sampler_cls(sizes, 2, num_replicas=world, seed=seed)
    model = MACE(CFG, seed=seed)
    trainer = Trainer(model, labeled, lr=0.01)
    return DistributedTrainingRun(
        trainer, sampler, world, make_executor("serial", 1), variant=variant, **kw
    )


class TestDistributedTrainingRun:
    def test_losses_and_times_recorded(self, labeled):
        report = _run(labeled, BalancedDistributedSampler, 2).run(3)
        assert len(report.epoch_losses) == 3
        assert len(report.epoch_minutes) == 3
        assert all(t > 0 for t in report.epoch_minutes)
        assert report.total_minutes == pytest.approx(sum(report.epoch_minutes))

    def test_loss_decreases(self, labeled):
        report = _run(labeled, BalancedDistributedSampler, 2).run(6)
        assert report.final_loss < report.epoch_losses[0]

    def test_world_size_mismatch_raises(self, labeled):
        sizes = [g.n_atoms for g in labeled]
        sampler = BalancedDistributedSampler(sizes, 96, num_replicas=2)
        model = MACE(CFG, seed=0)
        trainer = Trainer(model, labeled)
        run = DistributedTrainingRun(trainer, sampler, 4, make_executor("serial", 1))
        with pytest.raises(ValueError):
            run.run(1)

    def test_invalid_world_size(self, labeled):
        trainer = Trainer(MACE(CFG, seed=0), labeled)
        sampler = BalancedDistributedSampler([g.n_atoms for g in labeled], 96, 1)
        with pytest.raises(ValueError):
            DistributedTrainingRun(trainer, sampler, 0, make_executor("serial", 1))

    def test_variant_changes_time_not_loss(self, labeled):
        """The paper's central consistency claim at system level: kernel
        variant affects simulated time, never the numerics."""
        r_opt = _run(labeled, BalancedDistributedSampler, 2, variant="optimized").run(2)
        r_base = _run(labeled, BalancedDistributedSampler, 2, variant="baseline").run(2)
        np.testing.assert_allclose(r_opt.epoch_losses, r_base.epoch_losses, atol=1e-12)
        assert r_base.total_minutes > r_opt.total_minutes

    def test_balanced_faster_than_fixed_for_same_data(self, labeled):
        r_bal = _run(labeled, BalancedDistributedSampler, 2).run(2)
        r_fix = _run(labeled, FixedCountDistributedSampler, 2).run(2)
        # With only 8 tiny graphs the contrast is mild but directional.
        assert r_bal.total_minutes <= r_fix.total_minutes * 1.5

    def test_loss_at_time_monotone_clock(self, labeled):
        report = _run(labeled, BalancedDistributedSampler, 2).run(3)
        times = [t for t, _ in report.loss_at_time()]
        assert times == sorted(times)

    def test_empty_report_final_loss_raises(self):
        from repro.training import DistributedRunReport

        with pytest.raises(ValueError):
            DistributedRunReport(1, "optimized").final_loss


class TestWigner3j:
    def test_selection_rule(self):
        assert not wigner_3j(1, 1, 3).any()

    def test_cyclic_symmetry(self):
        w = wigner_3j(1, 2, 2)
        w_cyc = wigner_3j(2, 1, 2)  # (j2 j3 j1) rotated: check via transpose
        np.testing.assert_allclose(
            np.transpose(wigner_3j(1, 1, 2), (2, 0, 1)), wigner_3j(2, 1, 1), atol=1e-12
        )

    def test_transposition_phase(self):
        """Swapping two columns multiplies by (-1)^(j1+j2+j3)."""
        w = wigner_3j(1, 2, 3)
        w_swap = wigner_3j(2, 1, 3)
        np.testing.assert_allclose(
            np.transpose(w, (1, 0, 2)), (-1.0) ** (1 + 2 + 3) * w_swap, atol=1e-12
        )

    def test_orthogonality(self):
        """(2j3+1) sum_{m1 m2} w^2 summed over (j3, m3) = 1 per (m1, m2)."""
        total = np.zeros((3, 3))
        for j3 in range(0, 3):
            w = wigner_3j(1, 1, j3)
            total += (2 * j3 + 1) * np.einsum("abc->ab", w**2)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_known_value(self):
        """(1 1 0; 0 0 0) = -1/sqrt(3)."""
        w = wigner_3j(1, 1, 0)
        assert w[1, 1, 0] == pytest.approx(-1.0 / np.sqrt(3.0))

    def test_immutable(self):
        w = wigner_3j(1, 1, 2)
        with pytest.raises(ValueError):
            w[0, 0, 0] = 1.0
