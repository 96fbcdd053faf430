"""Checkpoint round-trip guarantees: dtypes, versions, atomicity, hot swap."""

import os

import numpy as np
import pytest

from repro import serialization
from repro.graphs.batch import collate
from repro.mace import MACE, MACEConfig
from repro.serialization import load_model, save_model
from repro.serving import InferenceEngine, ModelRegistry, build_request_pool

CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)


class TestRoundTrip:
    def test_dtypes_and_values_preserved(self, tmp_path):
        model = MACE(CFG, seed=0)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        src, dst = model.state_dict(), restored.state_dict()
        assert sorted(src) == sorted(dst)
        for name in src:
            assert src[name].dtype == dst[name].dtype, name
            assert src[name].shape == dst[name].shape, name
            assert np.array_equal(src[name], dst[name]), name

    def test_config_round_trips(self, tmp_path):
        cfg = MACEConfig(
            num_channels=6, lmax_sh=2, l_atomic_basis=2, correlation=2, cutoff=3.7
        )
        restored = load_model(save_model(MACE(cfg, seed=2), tmp_path / "m"))
        assert restored.cfg == cfg

    def test_version_mismatch_raises(self, tmp_path):
        path = save_model(MACE(CFG, seed=0), tmp_path / "m.npz")
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload[serialization._VERSION_KEY] = np.array([99])
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="unsupported checkpoint version 99"):
            load_model(path)

    def test_version_1_archive_refused_before_its_state_is_read(self, tmp_path):
        """Version 1 stored the last layer's ``L = 1`` weights, which the
        current layout lacks: the version check refuses it with a
        ``ValueError`` instead of ``load_state_dict`` raising ``KeyError``."""
        assert serialization._VERSION == 2
        path = save_model(MACE(CFG, seed=0), tmp_path / "m.npz")
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["layer1.linear_msg.weight_l1"] = np.zeros((4, 4))
        payload[serialization._VERSION_KEY] = np.array([1])
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="^unsupported checkpoint version 1$"):
            load_model(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez_compressed(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not a repro MACE checkpoint"):
            load_model(path)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        save_model(MACE(CFG, seed=0), tmp_path / "m.npz")
        assert os.listdir(tmp_path) == ["m.npz"]

    def test_crash_mid_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        model_a = MACE(CFG, seed=0)
        path = save_model(model_a, tmp_path / "m.npz")

        def explode(*args, **kwargs):
            raise OSError("disk detached")

        # A crash anywhere before the final rename must leave the original
        # checkpoint intact and no temp litter.
        monkeypatch.setattr(serialization.os, "replace", explode)
        with pytest.raises(OSError, match="disk detached"):
            save_model(MACE(CFG, seed=1), path)
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["m.npz"]
        restored = load_model(path)
        for name, p in model_a.state_dict().items():
            assert np.array_equal(p, restored.state_dict()[name])


class TestRegistryHotSwap:
    def test_hot_swap_reload_is_bit_identical(self, tmp_path):
        model = MACE(CFG, seed=0)
        pool = build_request_pool(6, seed=3, max_atoms=40)
        engine = InferenceEngine(model, pool, n_replicas=2, max_batch_tokens=128)
        before = engine.predict(pool)

        registry = ModelRegistry(tmp_path)
        registry.publish(model, "prod")
        deployed = engine.deploy(registry, "prod")
        assert deployed == 1
        assert engine.model is not model  # really swapped to the loaded copy
        after = engine.predict(pool)
        assert np.array_equal(before, after)  # bit-identical, not approx

    def test_swap_requires_matching_species(self, tmp_path):
        model = MACE(CFG, seed=0)
        pool = build_request_pool(4, seed=3, max_atoms=40)
        engine = InferenceEngine(model, pool, n_replicas=1, max_batch_tokens=128)
        other = MACE(
            MACEConfig(
                num_channels=4,
                lmax_sh=2,
                l_atomic_basis=2,
                correlation=2,
                species=(1, 8),
            ),
            seed=0,
        )
        with pytest.raises(ValueError, match="species"):
            engine.swap_model(other)
