"""Tests for the extension features: randomized balanced sampling (§7
future work), heterogeneity/failure injection, serialization, and the CLI."""

import numpy as np
import pytest

from repro.cluster import simulate_epoch
from repro.data import attach_labels, build_spec, build_training_set
from repro.distribution import (
    RandomizedBalancedSampler,
    create_balanced_batches,
    evaluate_bins,
    sharded_balanced_batches,
)
from repro.graphs import collate
from repro.mace import MACE, MACEConfig
from repro.serialization import load_model, save_model

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)


class TestShardedBalancedBatches:
    @pytest.fixture(scope="class")
    def sizes(self):
        return build_spec(0.005, seed=0).n_atoms

    def test_covers_every_sample(self, sizes, rng):
        bins = sharded_balanced_batches(sizes, 3072, 4, shard_size=2000, rng=rng)
        assigned = sorted(bins.items.tolist())
        assert assigned == list(range(sizes.size))

    def test_capacity_respected(self, sizes, rng):
        bins = sharded_balanced_batches(sizes, 3072, 4, shard_size=2000, rng=rng)
        assert bins.used.max() <= 3072

    def test_multiple_of_gpus(self, sizes, rng):
        bins = sharded_balanced_batches(sizes, 3072, 8, shard_size=2000, rng=rng)
        assert len(bins) % 8 == 0

    def test_bad_shard_size(self, sizes):
        with pytest.raises(ValueError):
            sharded_balanced_batches(sizes, 3072, 4, shard_size=0)

    def test_balance_degrades_gracefully(self, sizes, rng):
        """Sharding costs some balance but stays far better than random."""
        full = evaluate_bins(create_balanced_batches(sizes, 3072, 8), sizes)
        shard = evaluate_bins(
            sharded_balanced_batches(sizes, 3072, 8, shard_size=2000, rng=rng), sizes
        )
        assert shard.straggler_ratio < 1.2
        assert shard.straggler_ratio >= full.straggler_ratio - 1e-9

    def test_randomness_restored(self, sizes):
        """§7: epoch plans actually change (unlike the deterministic packer)."""
        sampler = RandomizedBalancedSampler(sizes, 3072, 4, shard_size=1500, seed=0)
        assert sampler.assignment_entropy(n_epochs=3) > 0.9

    def test_rank_batches_disjoint(self, sizes):
        sampler = RandomizedBalancedSampler(sizes, 3072, 4, shard_size=1500, seed=0)
        sets = [
            {i for b, _ in sampler.plan_rank_bins(0, r) for i in b} for r in range(4)
        ]
        assert sum(len(s) for s in sets) == sizes.size
        for a in range(4):
            for b in range(a + 1, 4):
                assert not sets[a] & sets[b]

    def test_rank_out_of_range(self, sizes):
        sampler = RandomizedBalancedSampler(sizes, 3072, 4)
        with pytest.raises(ValueError):
            sampler.plan_rank_bins(0, 4)


class TestHeterogeneityInjection:
    def _uniform(self, n=64, tokens=3072.0):
        t = np.full(n, tokens)
        return t, t * 25.0

    def test_slow_rank_paces_epoch(self):
        t, e = self._uniform()
        nominal = simulate_epoch(t, e, 8).epoch_time
        speed = np.ones(8)
        speed[0] = 0.5
        degraded = simulate_epoch(t, e, 8, rank_speed=speed).epoch_time
        assert degraded == pytest.approx(2.0 * nominal, rel=0.05)

    def test_fast_rank_does_not_help(self):
        """One overclocked GPU cannot speed up synchronous training."""
        t, e = self._uniform()
        nominal = simulate_epoch(t, e, 8).epoch_time
        speed = np.ones(8)
        speed[0] = 2.0
        boosted = simulate_epoch(t, e, 8, rank_speed=speed).epoch_time
        assert boosted == pytest.approx(nominal, rel=0.02)

    def test_invalid_rank_speed(self):
        t, e = self._uniform()
        with pytest.raises(ValueError):
            simulate_epoch(t, e, 8, rank_speed=np.ones(4))
        with pytest.raises(ValueError):
            simulate_epoch(t, e, 8, rank_speed=np.zeros(8))

    def test_jitter_increases_epoch_time(self):
        """Random per-batch noise can only hurt the synchronous max."""
        t, e = self._uniform()
        nominal = simulate_epoch(t, e, 8).epoch_time
        noisy = simulate_epoch(t, e, 8, jitter=0.3, jitter_seed=1).epoch_time
        assert noisy > nominal

    def test_jitter_deterministic_per_seed(self):
        t, e = self._uniform()
        a = simulate_epoch(t, e, 8, jitter=0.2, jitter_seed=7).epoch_time
        b = simulate_epoch(t, e, 8, jitter=0.2, jitter_seed=7).epoch_time
        assert a == b

    def test_balanced_more_jitter_sensitive_than_imbalanced_is_worse(self):
        """Even with jitter, balanced bins beat fixed-count batching."""
        rng = np.random.default_rng(0)
        sizes = np.concatenate([rng.integers(1, 60, 3000), np.full(100, 768)])
        bt = create_balanced_batches(sizes, 3072, 8).used.astype(float)
        perm = rng.permutation(sizes.size)
        nb = sizes.size // 7
        ft = sizes[perm][: nb * 7].reshape(nb, 7).sum(1).astype(float)
        t_bal = simulate_epoch(bt, bt * 25, 8, jitter=0.2).epoch_time
        t_fix = simulate_epoch(ft, ft * 25, 8, jitter=0.2).epoch_time
        assert t_bal < t_fix


class TestSerialization:
    def test_roundtrip_preserves_predictions(self, tmp_path, small_graphs):
        model = MACE(CFG, seed=4)
        batch = collate(small_graphs[:2])
        e0 = model.predict_energy(batch)
        path = save_model(model, tmp_path / "model")
        assert path.suffix == ".npz"
        restored = load_model(path)
        np.testing.assert_array_equal(restored.predict_energy(batch), e0)

    def test_roundtrip_preserves_config(self, tmp_path):
        cfg = MACEConfig(
            num_channels=6, lmax_sh=2, l_atomic_basis=2, correlation=2,
            kernel_variant="baseline",
        )
        model = MACE(cfg, seed=1)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        assert restored.cfg == cfg

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.ones(3))
        with pytest.raises(ValueError):
            load_model(path)


class TestCLI:
    def test_pack_command(self, capsys):
        from repro.cli import main

        assert main(["pack", "--scale", "0.002", "--gpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "packed" in out and "straggler" in out

    @pytest.mark.parametrize("plan", ["train", "forces", "energy"])
    def test_plan_report_optimized(self, plan, capsys):
        from repro.cli import main

        code = main(
            [
                "plan-report", "--plan", plan, "--optimized",
                "--samples", "2", "--max-atoms", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("plan — verified:") == 1
        assert "post-optimization" in out
        assert "fused chains" in out
        if plan == "train":
            # A fully planned training-step plan leaves no legal donation
            # unconsumed and allocates nothing per replay.
            assert "(0 left undonated)" in out
            assert "0 fresh-allocating instructions, 0 bytes" in out

    def test_simulate_command(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--scale", "0.002", "--gpus", "8"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_train_command_with_checkpoint(self, capsys, tmp_path):
        from repro.cli import main

        ckpt = str(tmp_path / "model.npz")
        code = main(
            ["train", "--samples", "4", "--epochs", "1", "--channels", "4",
             "--output", ckpt]
        )
        assert code == 0
        assert load_model(ckpt) is not None

    def test_experiments_subset(self, capsys):
        from repro.cli import main

        assert main(["experiments", "figure11"]) == 0
        assert "saturation" in capsys.readouterr().out

    def test_experiments_unknown_name(self, capsys):
        from repro.cli import main

        assert main(["experiments", "figure99"]) == 2

    def test_serve_bench_command(self, capsys):
        from repro.cli import main

        code = main(
            ["serve-bench", "--requests", "60", "--pool", "8", "--rate", "800",
             "--replicas", "2", "--process", "poisson"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost-aware" in out and "round-robin" in out
        assert "p99" in out and "imbalance" in out

    def test_validate_cost_model_command(self, capsys):
        from repro.cli import main

        code = main(
            ["validate-cost-model", "--backend", "serial", "--workers", "1",
             "--requests", "12", "--pool", "4", "--channels", "4"]
        )
        assert code == 0
        assert "calibration" in capsys.readouterr().out

    def test_serve_bench_help_mentions_cost_model(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", "--help"])
        assert exc.value.code == 0
        assert "cost model" in capsys.readouterr().out
