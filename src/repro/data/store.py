"""Sharded on-disk dataset store for out-of-core training.

The paper's scaling studies cover ~2.65 M structures; holding them (plus
neighbor lists) in memory is not an option on one node.  This module
stores a dataset as fixed-size *shards* of flat binary arrays plus a
compact per-structure **size index**, so the two halves of training can
touch exactly the bytes they need:

* **Epoch planning** (the Algorithm 1 binpack/LPT balancer) reads only
  the size index — ``n_atoms``, ``n_edges``, ``system_id``, ``energy``,
  ``shard_id`` per structure — a few dozen bytes per structure,
  independent of payload size.  ``load_size_index`` opens it without
  touching (or even requiring) the shard payload files.
* **Step execution** memory-maps shards on demand and materializes
  structures as zero-copy views into the mapped pages, with an LRU
  resident budget (``resident_shards``) bounding how many shards are
  mapped at once.

Shard layout: every field is a flat array at a 64-byte-aligned offset in
one ``shard_NNNNN.bin`` file; per-structure slices come from the
``atom_offsets`` / ``edge_offsets`` prefix-sum tables.  The ``index.json``
metadata and the ``sizes.npz`` size index are written atomically
(temp file + ``os.replace``), and each shard carries two checksums: a
cheap one over labels + offset tables verified on every first map (stale
index detection) and a full-payload one verified by :meth:`ShardedDataset.verify`.

Incremental (Welford) statistics are accumulated while packing, so the
per-atom energy mean/std of an arbitrarily large dataset is available
from the index alone; :func:`repro.data.statistics.per_atom_energy_statistics`
recomputes the same numbers directly as a cross-check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..graphs.batch import check_pairs
from ..graphs.molecular_graph import MolecularGraph
from ..graphs.neighborlist import DEFAULT_CUTOFF, build_neighbor_list
from .composite import DatasetSpec, build_training_set
from .labels import ReferencePotential, attach_labels

__all__ = [
    "DatasetStatistics",
    "ShardWriter",
    "ShardedDataset",
    "ShardedDatasetError",
    "ShardTruncatedError",
    "SizeIndex",
    "StaleIndexError",
    "StoreVersionError",
    "load_size_index",
    "pack_graphs",
    "pack_training_set",
]

_FORMAT = "repro-sharded-dataset"
# 2: every structure's edges are in the pair layout of
# repro.mace.MACE.featurize (edges 2p and 2p + 1 are one pair).
_VERSION = 2
_ALIGN = 64  # field alignment inside a shard, matches the shm slab
_INDEX_FILE = "index.json"
_SIZES_FILE = "sizes.npz"


class ShardedDatasetError(RuntimeError):
    """Base error for store problems (missing/corrupt dataset directories)."""


class ShardTruncatedError(ShardedDatasetError):
    """A shard payload file is missing bytes the index says it has."""


class StaleIndexError(ShardedDatasetError):
    """The index does not describe the shard bytes on disk."""


class StoreVersionError(ShardedDatasetError):
    """The dataset was packed by another store version; repack it."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _digest(chunks: Iterable[bytes]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _quick_digest(energy, atom_offsets, edge_offsets) -> str:
    """Cheap per-shard integrity digest: labels + both offset tables.

    Verified on every first map of a shard — catches an index paired
    with rewritten/relabeled payloads without reading the large
    position/edge fields.
    """
    return _digest(
        np.ascontiguousarray(a).tobytes()
        for a in (energy, atom_offsets, edge_offsets)
    )


# -- statistics ----------------------------------------------------------------


@dataclass
class DatasetStatistics:
    """Incrementally maintained dataset statistics (Welford update).

    ``energy_mean_per_atom`` / ``energy_std_per_atom`` are over labeled
    structures' per-atom energies — the quantities
    :class:`repro.training.EnergyScaler` standardizes with — accumulated
    one structure at a time so packing never needs a second pass.
    """

    n_structures: int = 0
    n_labeled: int = 0
    total_atoms: int = 0
    total_edges: int = 0
    energy_mean_per_atom: float = 0.0
    energy_m2_per_atom: float = 0.0

    @property
    def energy_std_per_atom(self) -> float:
        """Population std (ddof=0), matching ``np.std`` in EnergyScaler.fit."""
        if self.n_labeled == 0:
            return 0.0
        return math.sqrt(self.energy_m2_per_atom / self.n_labeled)

    def update(self, n_atoms: int, n_edges: int, energy: Optional[float]) -> None:
        self.n_structures += 1
        self.total_atoms += int(n_atoms)
        self.total_edges += int(n_edges)
        if energy is None or not math.isfinite(energy):
            return
        self.n_labeled += 1
        x = energy / n_atoms
        delta = x - self.energy_mean_per_atom
        self.energy_mean_per_atom += delta / self.n_labeled
        self.energy_m2_per_atom += delta * (x - self.energy_mean_per_atom)

    def to_dict(self) -> Dict[str, float]:
        return {
            "n_structures": self.n_structures,
            "n_labeled": self.n_labeled,
            "total_atoms": self.total_atoms,
            "total_edges": self.total_edges,
            "energy_mean_per_atom": self.energy_mean_per_atom,
            "energy_m2_per_atom": self.energy_m2_per_atom,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "DatasetStatistics":
        return cls(
            n_structures=int(d["n_structures"]),
            n_labeled=int(d["n_labeled"]),
            total_atoms=int(d["total_atoms"]),
            total_edges=int(d["total_edges"]),
            energy_mean_per_atom=float(d["energy_mean_per_atom"]),
            energy_m2_per_atom=float(d["energy_m2_per_atom"]),
        )


# -- size index ----------------------------------------------------------------


@dataclass
class SizeIndex:
    """Per-structure size/label metadata, loadable without any payload.

    ``energy`` is part of the index deliberately: it lets
    :meth:`repro.training.EnergyScaler` fit — and planning-time label
    validation run — from the index alone, keeping the streamed trainer's
    setup payload-free *and* byte-identical to the in-memory one.
    Unlabeled structures carry ``NaN``.
    """

    n_atoms: np.ndarray
    n_edges: np.ndarray
    system_id: np.ndarray
    energy: np.ndarray
    shard_id: np.ndarray
    local_id: np.ndarray
    system_names: List[str] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return int(self.n_atoms.size)

    @property
    def total_tokens(self) -> int:
        return int(self.n_atoms.sum())

    @property
    def total_edges(self) -> int:
        return int(self.n_edges.sum())

    def spec(self) -> DatasetSpec:
        """Bridge into the simulation stack's size-level dataset view."""
        return DatasetSpec(
            self.n_atoms.copy(),
            self.n_edges.copy(),
            self.system_id.copy(),
            list(self.system_names),
        )

    def system_counts(self) -> Dict[str, int]:
        counts = np.bincount(self.system_id, minlength=len(self.system_names))
        return {name: int(c) for name, c in zip(self.system_names, counts)}


def _read_meta(path: Path) -> dict:
    index_path = path / _INDEX_FILE
    if not index_path.is_file():
        raise ShardedDatasetError(
            f"{path} is not a sharded dataset (no {_INDEX_FILE})"
        )
    with open(index_path, "r", encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("format") != _FORMAT:
        raise ShardedDatasetError(
            f"{index_path}: unknown format {meta.get('format')!r}"
        )
    if meta.get("version") != _VERSION:
        raise StoreVersionError(
            f"{index_path}: store version {meta.get('version')}, this reader "
            f"reads version {_VERSION}; repack the dataset"
        )
    return meta


def load_size_index(path, meta: Optional[dict] = None) -> SizeIndex:
    """Load only the size index of a packed dataset.

    Reads ``index.json`` + ``sizes.npz``; the shard payload files are
    neither opened nor required to exist — this is the planning-side
    entry point (epoch planning cost must scale with the index, not
    payload bytes).
    """
    path = Path(path)
    if meta is None:
        meta = _read_meta(path)
    sizes_path = path / _SIZES_FILE
    if not sizes_path.is_file():
        raise ShardedDatasetError(f"{path}: missing {_SIZES_FILE}")
    with np.load(sizes_path) as z:
        return SizeIndex(
            n_atoms=z["n_atoms"],
            n_edges=z["n_edges"],
            system_id=z["system_id"],
            energy=z["energy"],
            shard_id=z["shard_id"],
            local_id=z["local_id"],
            system_names=list(meta["system_names"]),
        )


# -- writer --------------------------------------------------------------------


class ShardWriter:
    """Pack structures into fixed-size shards of flat, offset-indexed arrays.

    Structures are buffered and flushed ``shard_size`` at a time, so
    memory stays bounded by one shard regardless of dataset size.  Use as
    a context manager (or call :meth:`close`) — the index files are only
    written on a clean close, so a crash mid-pack leaves an openable
    previous index (if any) rather than a half-written one.
    """

    def __init__(
        self,
        path,
        shard_size: int = 256,
        cutoff: Optional[float] = None,
    ) -> None:
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.shard_size = int(shard_size)
        self.cutoff = cutoff
        self.statistics = DatasetStatistics()
        self._buffer: List[MolecularGraph] = []
        self._shards: List[dict] = []
        self._system_ids: Dict[str, int] = {}
        self._rows: Dict[str, List] = {
            k: [] for k in ("n_atoms", "n_edges", "system_id", "energy",
                            "shard_id", "local_id")
        }
        self._edges_built = True
        self._labeled = True
        self._closed = False

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    @property
    def n_structures(self) -> int:
        return len(self._rows["n_atoms"])

    def add(self, graph: MolecularGraph) -> None:
        """Append one structure (buffered; flushed per ``shard_size``).
        Its edges, if built, must be in the pair layout
        (:func:`~repro.graphs.batch.check_pairs` raises ``ValueError``)."""
        if self._closed:
            raise ShardedDatasetError("writer is closed")
        if graph.has_edges:
            check_pairs(graph.edge_index, graph.edge_shift)
        sys_id = self._system_ids.setdefault(graph.system, len(self._system_ids))
        energy = graph.energy
        labeled = energy is not None and math.isfinite(energy)
        self._edges_built &= graph.has_edges
        self._labeled &= labeled
        self._rows["n_atoms"].append(graph.n_atoms)
        self._rows["n_edges"].append(graph.n_edges)
        self._rows["system_id"].append(sys_id)
        self._rows["energy"].append(float(energy) if labeled else math.nan)
        self._rows["shard_id"].append(len(self._shards))
        self._rows["local_id"].append(len(self._buffer))
        self.statistics.update(graph.n_atoms, graph.n_edges, energy)
        self._buffer.append(graph)
        if len(self._buffer) >= self.shard_size:
            self._flush()

    def add_all(self, graphs: Iterable[MolecularGraph]) -> None:
        for g in graphs:
            self.add(g)

    def _flush(self) -> None:
        graphs = self._buffer
        if not graphs:
            return
        sid = len(self._shards)
        n = len(graphs)
        n_atoms = np.array([g.n_atoms for g in graphs], dtype=np.int64)
        n_edges = np.array([g.n_edges for g in graphs], dtype=np.int64)
        atom_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_atoms, out=atom_offsets[1:])
        edge_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_edges, out=edge_offsets[1:])
        empty_edges = np.zeros((2, 0), dtype=np.int64)
        fields: "OrderedDict[str, np.ndarray]" = OrderedDict()
        fields["atom_offsets"] = atom_offsets
        fields["edge_offsets"] = edge_offsets
        fields["positions"] = np.concatenate([g.positions for g in graphs])
        fields["species"] = np.concatenate([g.species for g in graphs])
        fields["edge_index"] = np.concatenate(
            [
                g.edge_index if g.edge_index is not None else empty_edges
                for g in graphs
            ],
            axis=1,
        )
        fields["edge_shift"] = np.concatenate(
            [
                g.edge_shift
                if g.edge_shift is not None
                else np.zeros((g.n_edges, 3))
                for g in graphs
            ]
        )
        fields["cells"] = np.stack(
            [g.cell if g.cell is not None else np.zeros((3, 3)) for g in graphs]
        )
        fields["has_cell"] = np.array([g.cell is not None for g in graphs])
        fields["pbc"] = np.array([g.pbc for g in graphs])
        fields["has_edges"] = np.array([g.has_edges for g in graphs])
        fields["energy"] = np.array(
            self._rows["energy"][-n:], dtype=np.float64
        )
        if any(g.forces is not None for g in graphs):
            fields["has_forces"] = np.array(
                [g.forces is not None for g in graphs]
            )
            fields["forces"] = np.concatenate(
                [
                    g.forces
                    if g.forces is not None
                    else np.full((g.n_atoms, 3), np.nan)
                    for g in graphs
                ]
            )
        layout: Dict[str, dict] = {}
        offset = 0
        for name, arr in fields.items():
            arr = np.ascontiguousarray(arr)
            fields[name] = arr
            offset = _align(offset)
            layout[name] = {
                "offset": offset,
                "nbytes": int(arr.nbytes),
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
            }
            offset += arr.nbytes
        payload = bytearray(offset)
        for name, arr in fields.items():
            o = layout[name]["offset"]
            payload[o : o + arr.nbytes] = arr.tobytes()
        filename = f"shard_{sid:05d}.bin"
        tmp = self.path / (filename + ".tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, self.path / filename)
        self._shards.append(
            {
                "file": filename,
                "nbytes": len(payload),
                "n_structures": n,
                "fields": layout,
                "checksum": _digest([bytes(payload)]),
                "quick_checksum": _quick_digest(
                    fields["energy"], atom_offsets, edge_offsets
                ),
            }
        )
        self._buffer = []

    def close(self) -> Path:
        """Flush the tail shard and atomically publish the index files."""
        if self._closed:
            return self.path
        self._flush()
        rows = self._rows
        sizes = {
            "n_atoms": np.asarray(rows["n_atoms"], dtype=np.int64),
            "n_edges": np.asarray(rows["n_edges"], dtype=np.int64),
            "system_id": np.asarray(rows["system_id"], dtype=np.int64),
            "energy": np.asarray(rows["energy"], dtype=np.float64),
            "shard_id": np.asarray(rows["shard_id"], dtype=np.int64),
            "local_id": np.asarray(rows["local_id"], dtype=np.int64),
        }
        tmp = self.path / (_SIZES_FILE + ".tmp")
        with open(tmp, "wb") as f:
            np.savez(f, **sizes)
        os.replace(tmp, self.path / _SIZES_FILE)
        system_names = [
            name
            for name, _ in sorted(self._system_ids.items(), key=lambda kv: kv[1])
        ]
        meta = {
            "format": _FORMAT,
            "version": _VERSION,
            "cutoff": self.cutoff,
            "shard_size": self.shard_size,
            "n_structures": self.n_structures,
            "system_names": system_names,
            "edges_built": bool(self._edges_built and self.n_structures > 0),
            "labeled": bool(self._labeled and self.n_structures > 0),
            "statistics": self.statistics.to_dict(),
            "shards": self._shards,
        }
        tmp = self.path / (_INDEX_FILE + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=1)
        os.replace(tmp, self.path / _INDEX_FILE)
        self._closed = True
        return self.path


# -- reader --------------------------------------------------------------------


def _reopen(path: str, resident_shards: int) -> "ShardedDataset":
    """Pickle constructor: workers reopen the dataset from its path."""
    return ShardedDataset(path, resident_shards=resident_shards)


class ShardedDataset:
    """Memory-mapped reader over a packed dataset directory.

    Implements the sequence protocol over :class:`MolecularGraph`, so it
    drops in wherever a graph list is accepted (``Trainer``,
    ``CollateCache.get``).  Structures are
    zero-copy views into at most ``resident_shards`` memory-mapped shard
    files (LRU; evicting a shard drops the map reference — the pages are
    released once no outstanding view uses them, so escaped views stay
    valid).

    Integrity: shard file sizes are checked against the index at open
    (:class:`ShardTruncatedError`), and each shard's label/offset digest
    is checked on first map (:class:`StaleIndexError`); :meth:`verify`
    additionally checks the full payload checksums and cross-checks the
    pack-time Welford statistics against a direct recomputation.

    Counters: ``payload_reads`` counts structure materializations and
    ``maps_opened`` counts shard maps — both stay at 0 under pure epoch
    planning (``tests/test_store.py::test_planning_is_payload_free``).
    """

    def __init__(self, path, resident_shards: int = 4) -> None:
        self.path = Path(path)
        meta = _read_meta(self.path)
        self._meta = meta
        self.size_index = load_size_index(self.path, meta)
        self.statistics = DatasetStatistics.from_dict(meta["statistics"])
        self.system_names = list(meta["system_names"])
        self.edges_built = bool(meta["edges_built"])
        self.labeled = bool(meta["labeled"])
        self.cutoff = meta.get("cutoff")
        self.resident_shards = max(1, int(resident_shards))
        self._shards = meta["shards"]
        if self.size_index.n_samples != int(meta["n_structures"]):
            raise StaleIndexError(
                f"{self.path}: size index has {self.size_index.n_samples} "
                f"structures, index.json says {meta['n_structures']}"
            )
        for rec in self._shards:
            p = self.path / rec["file"]
            if not p.is_file():
                raise ShardTruncatedError(f"{self.path}: missing shard {rec['file']}")
            actual = os.path.getsize(p)
            if actual != rec["nbytes"]:
                raise ShardTruncatedError(
                    f"{p}: expected {rec['nbytes']} bytes, found {actual} "
                    "(shard truncated or rewritten after packing)"
                )
        self._maps: "OrderedDict[int, Dict[str, np.ndarray]]" = OrderedDict()
        self._verified: set = set()
        self.payload_reads = 0
        self.maps_opened = 0

    # -- sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return self.size_index.n_samples

    def __getitem__(self, i: int) -> MolecularGraph:
        return self.load(i)

    def __iter__(self) -> Iterator[MolecularGraph]:
        for i in range(len(self)):
            yield self.load(i)

    def __reduce__(self):
        return (_reopen, (str(self.path), self.resident_shards))

    # -- mapping ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def open_maps(self) -> int:
        """Number of currently resident shard maps (≤ ``resident_shards``)."""
        return len(self._maps)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all shards."""
        return int(sum(rec["nbytes"] for rec in self._shards))

    def _fields(self, sid: int) -> Dict[str, np.ndarray]:
        views = self._maps.get(sid)
        if views is not None:
            self._maps.move_to_end(sid)
            return views
        rec = self._shards[sid]
        mm = np.memmap(self.path / rec["file"], dtype=np.uint8, mode="r")
        self.maps_opened += 1
        if mm.size != rec["nbytes"]:
            raise ShardTruncatedError(
                f"{rec['file']}: mapped {mm.size} bytes, index says {rec['nbytes']}"
            )
        views = {}
        for name, spec in rec["fields"].items():
            o, nb = spec["offset"], spec["nbytes"]
            views[name] = (
                mm[o : o + nb].view(np.dtype(spec["dtype"])).reshape(spec["shape"])
            )
        if sid not in self._verified:
            quick = _quick_digest(
                views["energy"], views["atom_offsets"], views["edge_offsets"]
            )
            if quick != rec["quick_checksum"]:
                raise StaleIndexError(
                    f"{rec['file']}: shard content does not match the index "
                    "(payload rewritten after packing? re-pack or rebuild "
                    "the index)"
                )
            self._verified.add(sid)
        self._maps[sid] = views
        while len(self._maps) > self.resident_shards:
            self._maps.popitem(last=False)
        return views

    def load(self, i: int) -> MolecularGraph:
        """Materialize structure ``i`` as views into its mapped shard."""
        idx = self.size_index
        i = int(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"structure {i} out of range")
        f = self._fields(int(idx.shard_id[i]))
        self.payload_reads += 1
        lid = int(idx.local_id[i])
        a0, a1 = (int(v) for v in f["atom_offsets"][lid : lid + 2])
        e0, e1 = (int(v) for v in f["edge_offsets"][lid : lid + 2])
        energy = float(f["energy"][lid])
        forces = None
        if "forces" in f and bool(f["has_forces"][lid]):
            forces = f["forces"][a0:a1]
        has_edges = bool(f["has_edges"][lid])
        return MolecularGraph(
            positions=f["positions"][a0:a1],
            species=f["species"][a0:a1],
            cell=f["cells"][lid] if bool(f["has_cell"][lid]) else None,
            pbc=bool(f["pbc"][lid]),
            energy=None if math.isnan(energy) else energy,
            forces=forces,
            edge_index=f["edge_index"][:, e0:e1] if has_edges else None,
            edge_shift=f["edge_shift"][e0:e1] if has_edges else None,
            system=self.system_names[int(idx.system_id[i])],
        )

    def close(self) -> None:
        """Drop all shard maps (outstanding graph views keep pages alive)."""
        self._maps.clear()

    # -- integrity / statistics ------------------------------------------------

    def verify(self) -> Dict[str, float]:
        """Deep check: full payload checksums + statistics cross-check.

        Reads every shard once.  The pack-time Welford statistics are
        compared against :func:`repro.data.statistics.per_atom_energy_statistics`
        computed directly from the size index, and the index's per-shard
        structure counts against the offset tables.  Raises
        :class:`StaleIndexError` on any mismatch; returns a summary dict.
        """
        from .statistics import per_atom_energy_statistics

        idx = self.size_index
        for sid, rec in enumerate(self._shards):
            with open(self.path / rec["file"], "rb") as fh:
                full = _digest(iter(lambda: fh.read(1 << 20), b""))
            if full != rec["checksum"]:
                raise StaleIndexError(f"{rec['file']}: payload checksum mismatch")
            f = self._fields(sid)
            in_shard = idx.shard_id == sid
            atoms = np.diff(f["atom_offsets"])
            edges = np.diff(f["edge_offsets"])
            if not (
                np.array_equal(atoms, idx.n_atoms[in_shard])
                and np.array_equal(edges, idx.n_edges[in_shard])
                and np.array_equal(f["energy"], idx.energy[in_shard], equal_nan=True)
            ):
                raise StaleIndexError(
                    f"{rec['file']}: size index disagrees with shard offsets"
                )
        mean, std, n_labeled = per_atom_energy_statistics(idx.energy, idx.n_atoms)
        stats = self.statistics
        if n_labeled != stats.n_labeled or (
            n_labeled
            and not (
                math.isclose(mean, stats.energy_mean_per_atom, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(std, stats.energy_std_per_atom, rel_tol=1e-9, abs_tol=1e-12)
            )
        ):
            raise StaleIndexError(
                "pack-time Welford statistics disagree with direct recomputation"
            )
        if stats.total_atoms != idx.total_tokens or stats.total_edges != idx.total_edges:
            raise StaleIndexError("pack-time totals disagree with the size index")
        return {
            "shards": self.n_shards,
            "structures": len(self),
            "energy_mean_per_atom": mean,
            "energy_std_per_atom": std,
        }

    # -- planning --------------------------------------------------------------

    def sampler(
        self,
        capacity: int,
        num_replicas: int = 1,
        shuffle: bool = True,
        seed: int = 0,
        size_metric=None,
    ):
        """A shard-aware :class:`BalancedDistributedSampler` over the index.

        Built entirely from the size index (no payload reads); the
        sampler's ``shard_ids`` let it order each rank's bins by dominant
        shard so a streaming epoch walks shards mostly sequentially.
        """
        from ..distribution.sampler import BalancedDistributedSampler

        return BalancedDistributedSampler(
            self.size_index.n_atoms,
            capacity,
            num_replicas,
            shuffle=shuffle,
            seed=seed,
            size_metric=size_metric,
            shard_ids=self.size_index.shard_id,
        )


# -- pack helpers --------------------------------------------------------------


def pack_graphs(
    graphs: Iterable[MolecularGraph],
    path,
    shard_size: int = 256,
    cutoff: Optional[float] = None,
    resident_shards: int = 4,
) -> ShardedDataset:
    """Pack an iterable of structures into a sharded dataset directory."""
    with ShardWriter(path, shard_size=shard_size, cutoff=cutoff) as w:
        w.add_all(graphs)
    return ShardedDataset(path, resident_shards=resident_shards)


def pack_training_set(
    path,
    n_samples: int,
    systems: Optional[Sequence[str]] = None,
    seed: int = 0,
    cutoff: float = DEFAULT_CUTOFF,
    max_atoms: int = 100,
    shard_size: int = 256,
    label: bool = True,
    potential: Optional[ReferencePotential] = None,
    resident_shards: int = 4,
) -> ShardedDataset:
    """Generate, label (batched) and pack a runnable training set.

    The coordinate-level twin of :func:`build_training_set` that lands on
    disk: structures get neighbor lists at ``cutoff``, labels are
    attached through the vectorized batch path of
    :func:`repro.data.labels.attach_labels`, and everything is packed
    through :class:`ShardWriter` (Welford statistics ride along).
    """
    graphs = build_training_set(
        n_samples, systems=systems, seed=seed, cutoff=cutoff, max_atoms=max_atoms
    )
    if label:
        attach_labels(graphs, potential or ReferencePotential(cutoff=cutoff), batch=True)
    return pack_graphs(
        graphs,
        path,
        shard_size=shard_size,
        cutoff=cutoff,
        resident_shards=resident_shards,
    )
