"""Model checkpointing: save/load MACE models as ``.npz`` archives.

Stores the full parameter state plus the hyperparameter configuration so a
checkpoint is self-describing — ``load_model(path)`` reconstructs the model
without the caller knowing its architecture.

Writes are *atomic*: the archive is assembled in a temporary file in the
destination directory and moved into place with :func:`os.replace`, so a
crash mid-save can never leave a truncated checkpoint at the target path —
a reader (in particular the :class:`repro.serving.ModelRegistry`, which
loads checkpoints while traffic is being served) sees either the complete
old file or the complete new one.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Union

import numpy as np

from .mace.config import MACEConfig
from .mace.model import MACE

__all__ = ["save_model", "load_model"]

_CONFIG_KEY = "__mace_config_json__"
_VERSION_KEY = "__repro_checkpoint_version__"
# 2: the first layer reads scalars and the last writes invariants only,
# which changed parameter shapes; version-1 archives do not load.
_VERSION = 2


def save_model(model: MACE, path: Union[str, Path]) -> Path:
    """Write parameters + config to a compressed ``.npz`` checkpoint.

    The write is atomic: either the complete checkpoint lands at ``path``
    or ``path`` is left untouched (see the module docstring).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    cfg = asdict(model.cfg)
    cfg["species"] = list(cfg["species"])
    cfg["radial_mlp_hidden"] = list(cfg["radial_mlp_hidden"])
    payload = {name: p for name, p in model.state_dict().items()}
    payload[_CONFIG_KEY] = np.frombuffer(
        json.dumps(cfg).encode("utf-8"), dtype=np.uint8
    )
    payload[_VERSION_KEY] = np.array([_VERSION])
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            # savez on an open file handle writes exactly there (no implicit
            # suffix appending, which a temp *path* would suffer).
            np.savez_compressed(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
            # mkstemp creates 0600; give the checkpoint the umask-default
            # mode a direct write would have had.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_model(path: Union[str, Path]) -> MACE:
    """Reconstruct a MACE model from a checkpoint written by
    :func:`save_model` (architecture comes from the stored config)."""
    with np.load(Path(path)) as archive:
        if _CONFIG_KEY not in archive:
            raise ValueError(f"{path} is not a repro MACE checkpoint")
        version = int(archive[_VERSION_KEY][0])
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        cfg_dict = json.loads(bytes(archive[_CONFIG_KEY]).decode("utf-8"))
        cfg_dict["species"] = tuple(cfg_dict["species"])
        cfg_dict["radial_mlp_hidden"] = tuple(cfg_dict["radial_mlp_hidden"])
        cfg = MACEConfig(**cfg_dict)
        model = MACE(cfg, seed=0)
        state = {
            k: archive[k]
            for k in archive.files
            if k not in (_CONFIG_KEY, _VERSION_KEY)
        }
        model.load_state_dict(state)
    return model
