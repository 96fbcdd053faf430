"""Row indices bound once per batch: :class:`repro.graphs.EdgeTopology`.

Every index a model gathers or scatters by is sorted where a batch's
topology is built — once per cache entry, once per Verlet rebuild in MD
— and never in a replay; pairs need no index and no sort at all.  These
tests count the sorts, check that the MD path's O(E) mask derivation
binds exactly the arrays a from-scratch build does, and that stale
derivation inputs raise instead of computing.
"""

import collections

import numpy as np
import pytest

import repro.autograd.ops as ops
from repro.autograd.ops import row_index
from repro.data import attach_labels, build_training_set
from repro.graphs import (
    CollateCache,
    MolecularGraph,
    NeighborListCache,
    build_neighbor_list,
    collate,
    edge_topology,
)
from repro.graphs.batch import masked_edges
from repro.mace import MACE, MACEConfig
from repro.md import MACECalculator, ReferenceCalculator
from repro.runtime import PlanCache
from repro.training import Trainer

CUTOFF = 3.0
CFG = MACEConfig(
    num_channels=4,
    lmax_sh=2,
    l_atomic_basis=2,
    correlation=2,
    cutoff=CUTOFF,
    species=(1, 6, 8),
)
DATA_CFG = MACEConfig(num_channels=4, lmax_sh=2, l_atomic_basis=2, correlation=2)


@pytest.fixture
def sorts(monkeypatch):
    """Counts of ``scatter_matrix`` builds and of ``np.lexsort`` calls."""
    counts = collections.Counter()
    build, lexsort = ops.scatter_matrix, np.lexsort

    def counted_build(index, n_rows):
        counts["builds"] += 1
        return build(index, n_rows)

    def counted_lexsort(*args, **kwargs):
        counts["lexsorts"] += 1
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(ops, "scatter_matrix", counted_build)
    monkeypatch.setattr(np, "lexsort", counted_lexsort)
    return counts


def periodic_graph(rng, n_atoms: int) -> MolecularGraph:
    box = 1.6 * n_atoms ** (1.0 / 3.0)
    return MolecularGraph(
        rng.uniform(0.0, box, (n_atoms, 3)),
        rng.choice(CFG.species, n_atoms),
        cell=np.eye(3) * box,
        pbc=True,
    )


def assert_same_topology(got, want):
    for a, b in zip(got.arrays(), want.arrays()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_warm_replays_sort_no_index(sorts):
    """A warm loss, energy and force replay on cached batches builds no
    scatter structure: the topology was bound when the entry was."""
    labeled = attach_labels(build_training_set(8, seed=11, max_atoms=40))
    trainer = Trainer(MACE(DATA_CFG, seed=0), labeled)
    model, cache, batches = MACE(DATA_CFG, seed=0), PlanCache(), CollateCache()
    batch = batches.get(labeled, range(4))

    def warm_round():
        trainer.train_step(range(8))
        model.predict_energy(batches.get(labeled, range(4)), compiled=cache)
        model.energy_and_forces(batches.get(labeled, range(4)), compiled=cache)

    warm_round()  # capture: binds each batch's topology once
    assert 0 < sorts["builds"] <= 2 * 6
    sorts.clear()
    warm_round()
    assert sorts == {} and batch.features is not None
    assert trainer.plan_cache.hits == 1 and cache.stats()["hits"] == 2


def test_md_sorts_only_at_verlet_rebuilds(sorts):
    """Each rebuild binds each index at most once and pairs nothing (no
    lexsort); every other step derives its topology by mask."""
    rng = np.random.default_rng(2)
    graph = periodic_graph(rng, 24)
    calculator = MACECalculator(MACE(CFG, seed=0), cutoff=CUTOFF, skin=0.4)
    neighbors = calculator.neighbor_cache
    for step in range(16):
        graph.positions += rng.normal(0.0, 0.05, graph.positions.shape)
        rebuilds = neighbors.rebuilds
        sorts.clear()
        calculator.energy_and_forces(graph)
        if neighbors.rebuilds > rebuilds:
            assert sorts["lexsorts"] == 0
            # send, recv, and the species and graph rows the first time
            assert sorts["builds"] <= 4
        else:
            assert sorts == {}, step
    assert 1 < neighbors.rebuilds < 16


def test_reference_probes_pay_for_no_topology(sorts):
    rng = np.random.default_rng(3)
    graph = build_neighbor_list(periodic_graph(rng, 6), cutoff=CUTOFF)
    ReferenceCalculator().energy_and_forces(graph)
    assert sorts == {}


def test_masked_topology_equals_a_fresh_build():
    """Across random displacements that cross rebuilds, the mask-derived
    topology is the from-scratch ``scatter_matrix`` one, array for array;
    stale candidate rows or a stale mask raise instead of computing."""
    rng = np.random.default_rng(7)
    graph = periodic_graph(rng, 20)
    neighbors = NeighborListCache(CUTOFF, skin=0.3)
    model = MACE(CFG, seed=0)
    windows = []
    for _ in range(24):
        graph.positions += rng.normal(0.0, 0.04, graph.positions.shape)
        if neighbors.update(graph):
            windows.append(None)
        batch = collate([graph])
        species = model.species_indices(batch.species)
        derived = neighbors.topology(batch, species, CFG.n_species)
        assert_same_topology(derived, edge_topology(batch, species, CFG.n_species))
        windows[-1] = (neighbors._within, neighbors._cand_rows)
    assert len(windows) > 2
    send, recv = neighbors._cand_rows
    within = neighbors._within
    # The rows and the mask of an earlier window.
    with pytest.raises(ValueError, match="candidates kept"):
        masked_edges(batch, within, *windows[0][1])
    with pytest.raises(ValueError, match="candidates kept"):
        masked_edges(batch, windows[0][0], send, recv)
    # A sender order that is not the stable one.
    with pytest.raises(ValueError, match="stable argsort"):
        row_index(send.index, send.n_rows, send.order[::-1])
