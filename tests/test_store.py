"""Tests for the sharded on-disk dataset and the streaming loader.

The contracts under test (this PR's tentpole):

- pack -> read round trip preserves every structure field, dtype and
  label bit-for-bit, across shard boundaries and optional fields
  (forces, cells, missing edges, missing labels);
- corruption is loud: a truncated shard file fails at open, a payload
  rewritten after packing fails the quick checksum at first map, and
  ``verify()`` catches full-payload and statistics drift;
- the mmap lifecycle is bounded: at most ``resident_shards`` maps stay
  resident no matter how many shards an epoch walks, and planning from
  the size index opens none at all;
- the streaming loader fetches on a forked worker, re-raises fetch
  errors at the failing step, and resumes from ``next_step``; a killed
  worker is refetched, and no process, fd or shm segment outlives it;
- a streamed ``Trainer`` reproduces the in-memory trainer's losses
  byte-for-byte.
"""

import json
import os
import pickle
import signal

import numpy as np
import pytest

from repro.data import (
    DatasetStatistics,
    ReferencePotential,
    ShardedDataset,
    ShardedDatasetError,
    ShardTruncatedError,
    StaleIndexError,
    StoreVersionError,
    StreamingLoader,
    attach_labels,
    build_training_set,
    load_size_index,
    pack_graphs,
    per_atom_energy_statistics,
)
from repro.distribution import BalancedDistributedSampler
from repro.graphs import MolecularGraph, build_neighbor_list
from repro.mace import MACE, MACEConfig
from repro.training import Trainer

CUTOFF = 4.5


@pytest.fixture(scope="module")
def corpus():
    graphs = build_training_set(12, seed=7, cutoff=CUTOFF, max_atoms=40)
    attach_labels(graphs, ReferencePotential(cutoff=CUTOFF), batch=True)
    return graphs


@pytest.fixture()
def packed(corpus, tmp_path):
    # shard_size=4 over 12 structures -> 3 shards.
    return pack_graphs(corpus, tmp_path / "ds", shard_size=4, cutoff=CUTOFF)


class TestRoundTrip:
    def test_fields_and_dtypes_survive(self, corpus, packed):
        assert len(packed) == len(corpus)
        assert packed.n_shards == 3
        for orig, got in zip(corpus, packed):
            np.testing.assert_array_equal(orig.positions, got.positions)
            np.testing.assert_array_equal(orig.species, got.species)
            np.testing.assert_array_equal(orig.edge_index, got.edge_index)
            np.testing.assert_array_equal(orig.edge_shift, got.edge_shift)
            assert got.positions.dtype == orig.positions.dtype
            assert got.edge_index.dtype == orig.edge_index.dtype
            assert got.energy == orig.energy  # bitwise
            assert got.system == orig.system
            assert got.pbc == orig.pbc
            if orig.cell is None:
                assert got.cell is None
            else:
                np.testing.assert_array_equal(orig.cell, got.cell)

    def test_optional_fields(self, tmp_path):
        rng = np.random.default_rng(0)
        with_forces = MolecularGraph(
            rng.uniform(0, 4, (5, 3)), np.full(5, 8), energy=-1.0,
            forces=rng.normal(size=(5, 3)),
        )
        unlabeled = MolecularGraph(rng.uniform(0, 4, (3, 3)), np.full(3, 1))
        for g in (with_forces, unlabeled):
            build_neighbor_list(g, cutoff=3.0)
        no_edges = MolecularGraph(rng.uniform(0, 4, (4, 3)), np.full(4, 6))
        ds = pack_graphs(
            [with_forces, unlabeled, no_edges], tmp_path / "opt", shard_size=2
        )
        assert not ds.edges_built  # one structure lacks a neighbor list
        got = ds[0]
        np.testing.assert_array_equal(got.forces, with_forces.forces)
        assert ds[1].energy is None and ds[1].forces is None
        assert ds[2].edge_index is None and ds[2].edge_shift is None
        # The labeled flag and NaN sentinel agree.
        assert np.isnan(ds.size_index.energy[1])
        assert ds.size_index.energy[0] == -1.0

    def test_pickle_reopens(self, packed):
        clone = pickle.loads(pickle.dumps(packed))
        assert len(clone) == len(packed)
        np.testing.assert_array_equal(clone[5].positions, packed[5].positions)
        assert clone.resident_shards == packed.resident_shards

    def test_welford_matches_direct_statistics(self, packed):
        idx = packed.size_index
        mean, std, n = per_atom_energy_statistics(idx.energy, idx.n_atoms)
        stats = packed.statistics
        assert stats.n_labeled == n == len(packed)
        assert stats.energy_mean_per_atom == pytest.approx(mean, rel=1e-12)
        assert stats.energy_std_per_atom == pytest.approx(std, rel=1e-12)
        assert packed.verify()["structures"] == len(packed)

    def test_statistics_dict_round_trip(self, packed):
        d = packed.statistics.to_dict()
        assert DatasetStatistics.from_dict(d) == packed.statistics


class TestIntegrity:
    def test_truncated_shard_detected_at_open(self, packed):
        path = packed.path
        shard = next(path.glob("shard_*.bin"))
        shard.write_bytes(shard.read_bytes()[:-64])
        with pytest.raises(ShardTruncatedError, match="bytes"):
            ShardedDataset(path)

    def test_rewritten_payload_fails_quick_checksum(self, packed):
        # Flip one energy byte keeping the file size: the size index no
        # longer matches the payload -> StaleIndexError at first map.
        path = packed.path
        rec = packed._shards[0]
        spec = rec["fields"]["energy"]
        raw = bytearray((path / rec["file"]).read_bytes())
        raw[spec["offset"]] ^= 0xFF
        (path / rec["file"]).write_bytes(bytes(raw))
        ds = ShardedDataset(path)
        with pytest.raises(StaleIndexError, match="does not match the index"):
            ds.load(0)

    def test_verify_catches_full_payload_drift(self, packed):
        # Corrupt a positions byte: quick checksum (energy/offsets) still
        # passes, the deep check must not.
        path = packed.path
        rec = packed._shards[1]
        spec = rec["fields"]["positions"]
        raw = bytearray((path / rec["file"]).read_bytes())
        raw[spec["offset"] + 3] ^= 0xFF
        (path / rec["file"]).write_bytes(bytes(raw))
        ds = ShardedDataset(path)
        with pytest.raises(StaleIndexError, match="checksum"):
            ds.verify()

    @pytest.mark.parametrize("version", [1, 3])
    def test_another_store_version_is_refused_at_open(self, packed, version):
        """Version 1 stores kept edges in neighbor-list order, not the pair
        layout; no reader opens a version other than its own."""
        index = packed.path / "index.json"
        meta = json.loads(index.read_text())
        assert meta["version"] == 2
        meta["version"] = version
        index.write_text(json.dumps(meta))
        with pytest.raises(StoreVersionError, match=f"store version {version}, .* version 2"):
            ShardedDataset(packed.path)
        with pytest.raises(ShardedDatasetError):
            load_size_index(packed.path)

    def test_edges_out_of_the_pair_layout_are_not_packed(self, corpus, tmp_path):
        g = build_neighbor_list(MolecularGraph(corpus[0].positions, corpus[0].species))
        g.edge_index, g.edge_shift = g.edge_index[:, 1:-1], g.edge_shift[1:-1]  # misaligned
        with pytest.raises(ValueError, match="two directions of one pair"):
            pack_graphs([g], tmp_path / "bad", cutoff=CUTOFF)

    def test_missing_index_is_not_a_dataset(self, tmp_path):
        with pytest.raises(ShardedDatasetError, match="not a sharded dataset"):
            ShardedDataset(tmp_path)


class TestMmapLifecycle:
    def test_resident_budget_holds_across_epochs(self, packed):
        ds = ShardedDataset(packed.path, resident_shards=1)
        for _ in range(3):  # 3 epochs over all 3 shards
            for i in range(len(ds)):
                ds.load(i)
            assert ds.open_maps <= 1
        assert ds.maps_opened >= 9  # thrash counted, not hidden
        ds.close()
        assert ds.open_maps == 0

    def test_planning_is_payload_free(self, packed):
        ds = ShardedDataset(packed.path, resident_shards=2)
        sampler = ds.sampler(96, num_replicas=2, seed=3)
        for epoch in range(2):
            sampler.all_rank_bins(epoch)
            sampler.plan_rank_shards(epoch, 0)
        assert ds.payload_reads == 0
        assert ds.maps_opened == 0

    def test_index_loads_without_payload_files(self, packed, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("index.json", "sizes.npz"):
            (bare / name).write_bytes((packed.path / name).read_bytes())
        index = load_size_index(bare)
        assert index.n_samples == len(packed)
        np.testing.assert_array_equal(index.shard_id, packed.size_index.shard_id)
        # ...and the whole epoch plan comes out of that index alone.
        sampler = BalancedDistributedSampler(
            index.n_atoms, 96, num_replicas=2, seed=1, shard_ids=index.shard_id
        )
        assert sum(len(rank) for rank in sampler.all_rank_bins(0)) > 0
        assert len(sampler.plan_rank_shards(0, 0)) > 0


class TestStreamingLoader:
    def test_drains_in_order_with_stats(self):
        plan = [(i,) for i in range(8)]
        loader = StreamingLoader(plan, lambda i: i * i, depth=2)
        assert loader.run() == [i * i for i in range(8)]
        assert loader.stats.batches == 8

    def test_fetch_error_resumes_from_failed_step(self):
        plan = [(i,) for i in range(6)]
        boom = {3}

        def fetch(i):
            if i in boom:
                raise OSError(f"shard hosting step {i} vanished")
            return i

        loader = StreamingLoader(plan, fetch, depth=2)
        got = []
        with pytest.raises(OSError, match="vanished"):
            for _, item in loader:
                got.append(item)
        assert got == [0, 1, 2]
        assert loader.next_step == 3  # the failed step is retried, not skipped
        boom.clear()
        resumed = StreamingLoader(plan, fetch, depth=2, start=loader.next_step)
        assert resumed.run() == [3, 4, 5]

    def test_close_mid_stream_joins_producer(self):
        plan = [(i,) for i in range(100)]
        before = _children()  # e.g. multiprocessing's resource tracker
        loader = StreamingLoader(plan, lambda i: i, depth=2)
        for step, _ in loader:
            if step == 5:
                break
        loader.close()
        assert loader._proc is None and _children() == before
        with pytest.raises(RuntimeError, match="closed"):
            list(loader)


def _children():
    """PIDs of this process's live or unreaped child processes."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:  # exited while listing
                continue
            if int(fields[1]) == me:
                found.append(int(entry))
    return found


def _process_resources(dataset):
    """What a fetch worker could leak: child processes, open fds (but the
    dataset's resident shard maps) and shared-memory segments."""
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own fd, closed by now
            continue
        if not target.startswith(str(dataset.path)):
            fds.append((fd, target))
    return _children(), sorted(fds), sorted(os.listdir("/dev/shm"))


class TestFetchWorker:
    """Fault and lifecycle cases of a streamed epoch's fetch worker, each
    held to the serial trainer's losses bit for bit."""

    CFG = MACEConfig(num_channels=2, lmax_sh=1, l_atomic_basis=1, correlation=2)
    CAPACITY = 48  # ~7 bins over the 12 structures: the worker is mid-epoch

    def _pair(self, corpus, packed):
        serial = Trainer(MACE(self.CFG, seed=0), list(corpus))
        streamed = Trainer(MACE(self.CFG, seed=0), dataset=packed)
        bins = packed.sampler(self.CAPACITY, shuffle=False).plan_rank_bins(0, 0)
        assert len(bins) >= 5
        return serial, streamed, bins

    def test_sigkill_mid_epoch_is_refetched_bitwise(self, corpus, packed, tmp_path):
        serial, streamed, bins = self._pair(corpus, packed)
        marker, prepare, before = tmp_path / "killed", streamed._prepare, _children()

        def prepare_once_killed(indices, capacity):
            (tmp_path / f"worker-{os.getpid()}").touch()
            if list(indices) == list(bins[3][0]) and not marker.exists():
                marker.touch()  # the refetching worker sees it and goes on
                os.kill(os.getpid(), signal.SIGKILL)
            return prepare(indices, capacity)

        streamed._prepare = prepare_once_killed
        for epoch in range(2):  # every bin is cached for the second: no fork
            assert streamed.train_epoch_bins(bins) == serial.train_epoch_bins(bins)
        # The driver fetches the first step while its worker starts.
        workers = {p.name for p in tmp_path.glob("worker-*")} - {f"worker-{os.getpid()}"}
        assert marker.exists() and len(workers) == 2  # the killed one, its refetcher
        assert streamed.collate_cache.stats() == serial.collate_cache.stats()
        assert _children() == before

    def test_fetch_error_surfaces_at_its_step_and_resumes_bitwise(self, corpus, packed):
        serial, streamed, bins = self._pair(corpus, packed)
        expected = serial.train_epoch_bins(bins)
        streamed.retain_bins(bins)

        def prepare_failing(indices, capacity):
            if list(indices) == list(bins[4][0]):
                raise OSError("shard vanished")
            return streamed._prepare(indices, capacity)

        loader = StreamingLoader(bins, prepare_failing)
        losses = []
        with pytest.raises(OSError, match="vanished"):
            for _, item in loader:
                losses.append(streamed.train_batch(streamed._resolve(item)))
        assert loader.next_step == len(losses) == 4
        resumed = StreamingLoader(bins, streamed._prepare, start=loader.next_step)
        losses += [streamed.train_batch(streamed._resolve(item)) for _, item in resumed]
        assert losses == expected

    def test_nothing_outlives_an_epoch_an_error_or_a_kill(self, corpus, packed, tmp_path):
        _, streamed, bins = self._pair(corpus, packed)
        before = _process_resources(packed)
        streamed.train_epoch_bins(bins)
        assert _process_resources(packed) == before
        prepare = streamed._prepare

        def prepare_failing(indices, capacity):
            if list(indices) == list(bins[2][0]):
                raise ValueError("bad bin")
            return prepare(indices, capacity)

        streamed._prepare = prepare_failing
        streamed.collate_cache.clear()  # each epoch forks: no bin is cached
        with pytest.raises(ValueError, match="bad bin"):
            streamed.train_epoch_bins(bins)
        assert _process_resources(packed) == before

        driver = os.getpid()

        def prepare_killed(indices, capacity):
            if os.getpid() != driver:  # the driver fetches each first step
                os.kill(os.getpid(), signal.SIGKILL)
            return prepare(indices, capacity)

        streamed._prepare = prepare_killed
        streamed.collate_cache.clear()
        with pytest.raises(RuntimeError, match="died twice"):
            streamed.train_epoch_bins(bins)
        assert _process_resources(packed) == before

    def test_one_core_fetches_inline_bitwise(self, corpus, packed, monkeypatch):
        from repro.data import stream

        serial, streamed, bins = self._pair(corpus, packed)
        monkeypatch.setattr(stream, "available_cores", lambda: 1)
        monkeypatch.setattr(StreamingLoader, "_fork", lambda self, start: pytest.fail("forked"))
        for epoch in range(2):
            assert streamed.train_epoch_bins(bins) == serial.train_epoch_bins(bins)
        # Inline, every fetch is a stall; the cached second epoch is not streamed.
        assert streamed.stream_stats.stalls == streamed.stream_stats.batches == len(bins)
        assert streamed.collate_cache.stats() == serial.collate_cache.stats()


class TestStreamedTrainer:
    CFG = MACEConfig(num_channels=2, lmax_sh=1, l_atomic_basis=1, correlation=2)

    def test_losses_bitwise_equal_in_memory(self, corpus, packed):
        mem = Trainer(MACE(self.CFG, seed=0), list(corpus))
        streamed = Trainer(MACE(self.CFG, seed=0), dataset=packed)
        assert streamed.scaler == mem.scaler
        sampler = packed.sampler(96, shuffle=False)
        for epoch in range(2):
            bins = sampler.plan_rank_bins(epoch, 0)
            assert mem.train_epoch_bins(bins) == streamed.train_epoch_bins(bins)
        assert streamed.stream_stats.batches > 0
        assert packed.open_maps <= packed.resident_shards

    def test_plan_cache_stops_missing_after_warm_epoch(self, packed):
        """Streamed batch shapes are plan-stable: a repeating epoch plan
        captures during its first epoch and only replays afterwards."""
        streamed = Trainer(MACE(self.CFG, seed=0), dataset=packed)
        sampler = packed.sampler(96, shuffle=False)
        streamed.train_epoch_bins(sampler.plan_rank_bins(0, 0))
        warm_misses = streamed.plan_cache.misses
        assert warm_misses > 0
        for epoch in (1, 2):
            streamed.train_epoch_bins(sampler.plan_rank_bins(epoch, 0))
        assert streamed.plan_cache.misses == warm_misses

    def test_unlabeled_dataset_rejected(self, tmp_path):
        g = MolecularGraph(np.zeros((2, 3)), np.array([1, 1]))
        g.positions[1, 0] = 1.0
        build_neighbor_list(g, cutoff=2.0)
        ds = pack_graphs([g], tmp_path / "unlabeled")
        with pytest.raises(ValueError, match="no energy label"):
            Trainer(MACE(self.CFG, seed=0), dataset=ds)

    def test_edgeless_dataset_rejected(self, corpus, tmp_path):
        bare = MolecularGraph(np.zeros((2, 3)), np.array([1, 1]), energy=-1.0)
        bare.positions[1, 0] = 1.0
        ds = pack_graphs([bare], tmp_path / "edgeless")
        with pytest.raises(ValueError, match="without neighbor lists"):
            Trainer(MACE(self.CFG, seed=0), dataset=ds)
