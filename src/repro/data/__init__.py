"""Synthetic chemistry datasets reproducing the paper's Table 3 composition."""

from .systems import SYSTEM_NAMES, SYSTEMS, SystemSpec, generate_structure, sample_sizes
from .composite import SPLIT_SIZES, DatasetSpec, build_spec, build_training_set
from .labels import ReferencePotential, attach_labels
from .statistics import (
    SystemHistogram,
    Table3Row,
    figure5_statistics,
    measured_mean_degrees,
    per_atom_energy_statistics,
    table3,
)
from .store import (
    DatasetStatistics,
    ShardedDataset,
    ShardedDatasetError,
    ShardTruncatedError,
    ShardWriter,
    SizeIndex,
    StaleIndexError,
    StoreVersionError,
    load_size_index,
    pack_graphs,
    pack_training_set,
)
from .stream import StreamingLoader, StreamStats

__all__ = [
    "SYSTEMS",
    "SYSTEM_NAMES",
    "SystemSpec",
    "generate_structure",
    "sample_sizes",
    "DatasetSpec",
    "build_spec",
    "build_training_set",
    "SPLIT_SIZES",
    "ReferencePotential",
    "attach_labels",
    "Table3Row",
    "table3",
    "SystemHistogram",
    "figure5_statistics",
    "measured_mean_degrees",
    "per_atom_energy_statistics",
    "DatasetStatistics",
    "ShardWriter",
    "ShardedDataset",
    "ShardedDatasetError",
    "ShardTruncatedError",
    "StaleIndexError",
    "StoreVersionError",
    "SizeIndex",
    "load_size_index",
    "pack_graphs",
    "pack_training_set",
    "StreamingLoader",
    "StreamStats",
]
