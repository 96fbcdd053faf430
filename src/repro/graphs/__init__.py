"""Molecular graph substrate: data structures, neighbor lists, batching."""

from .molecular_graph import ATOMIC_NUMBERS, SPECIES_LIST, MolecularGraph
from .neighborlist import (
    DEFAULT_CUTOFF,
    brute_force_neighbor_list,
    build_neighbor_list,
    cell_list_neighbor_list,
)
from .batch import EdgeTopology, GraphBatch, bucket_size, collate, edge_topology
from .pipeline import DEFAULT_SKIN, CollateCache, NeighborListCache

__all__ = [
    "MolecularGraph",
    "ATOMIC_NUMBERS",
    "SPECIES_LIST",
    "GraphBatch",
    "collate",
    "bucket_size",
    "EdgeTopology",
    "edge_topology",
    "build_neighbor_list",
    "brute_force_neighbor_list",
    "cell_list_neighbor_list",
    "DEFAULT_CUTOFF",
    "NeighborListCache",
    "CollateCache",
    "DEFAULT_SKIN",
]
