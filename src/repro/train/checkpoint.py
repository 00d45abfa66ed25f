"""Checkpointing: persist and restore model + optimizer state.

Single-file ``.npz`` checkpoints carrying the flattened parameter vector,
the SGD momentum buffers, and a metadata header — enough to resume a
convergence experiment bit-for-bit (modulo the data stream position, which
the caller seeds).

Robustness: the header embeds a CRC-32 of the parameter payload, and
:func:`load_checkpoint` converts every way a file can be broken (truncated
archive, corrupted member, missing keys, mangled header) into a single
:class:`CheckpointError` with a readable message — never a raw
numpy/zipfile stack trace. :class:`CheckpointManager` keeps a small ring of
known-good checkpoints and restores the newest one that still loads, which
is what the trainer's divergence rollback leans on.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, List, Optional

import numpy as np

from repro.nn.module import Module
from repro.optim.sgd import SGD

_FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, truncated, or corrupt."""


class NoRestorableCheckpointError(CheckpointError):
    """Every retained checkpoint failed to load (or none was ever saved).

    Distinct from a single bad file: callers that walk the ring and reach
    this error have lost *all* rollback targets, which usually means
    restarting from scratch is the only move left. ``failures`` carries
    one ``"<path>: <reason>"`` entry per checkpoint tried, in
    newest-first order (empty when the ring was empty to begin with).
    """

    def __init__(self, failures: List[str]):
        self.failures = list(failures)
        detail = "; ".join(failures) if failures else "no checkpoint saved yet"
        super().__init__(f"no restorable checkpoint ({detail})")


def save_checkpoint(path: str, model: Module, optimizer: SGD,
                    metadata: Dict | None = None) -> None:
    """Write model parameters and optimizer momentum to ``path`` (.npz)."""
    params = model.state_vector()
    arrays: Dict[str, np.ndarray] = {"__params__": params}
    for name, velocity in optimizer._velocity.items():
        arrays[f"velocity::{name}"] = velocity
    header = {
        "version": _FORMAT_VERSION,
        "num_parameters": int(model.num_parameters()),
        "lr": optimizer.lr,
        "momentum": optimizer.momentum,
        "weight_decay": optimizer.weight_decay,
        "checksum": zlib.crc32(np.ascontiguousarray(params).tobytes()) & 0xFFFFFFFF,
        "metadata": metadata or {},
    }
    arrays["__header__"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path: str, model: Module, optimizer: SGD) -> Dict:
    """Restore ``model`` and ``optimizer`` from ``path``; returns metadata.

    Values arrive in the model's dtype, whatever dtype they were saved in.

    Raises:
        CheckpointError: unreadable/truncated file, corrupt payload
            (checksum mismatch), incompatible format version, or parameter
            count mismatch. ``CheckpointError`` subclasses ``ValueError``,
            so existing ``except ValueError`` callers keep working.
    """
    try:
        archive = np.load(path)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is unreadable (truncated or not a "
            f"checkpoint archive): {exc}"
        ) from exc
    with archive:
        try:
            header = json.loads(bytes(archive["__header__"].tobytes()).decode())
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {path!r} has a missing or corrupt header: {exc}"
            ) from exc
        if header.get("version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint version {header.get('version')} != {_FORMAT_VERSION}"
            )
        if header.get("num_parameters") != model.num_parameters():
            raise CheckpointError(
                f"checkpoint has {header.get('num_parameters')} parameters, "
                f"model has {model.num_parameters()}"
            )
        try:
            params = archive["__params__"]
            velocities = {
                key[len("velocity::"):]: archive[key].astype(model.dtype)
                for key in archive.files if key.startswith("velocity::")
            }
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {path!r} payload is corrupt or truncated: {exc}"
            ) from exc
        expected_crc = header.get("checksum")
        if expected_crc is not None:
            actual_crc = zlib.crc32(np.ascontiguousarray(params).tobytes()) & 0xFFFFFFFF
            if actual_crc != expected_crc:
                raise CheckpointError(
                    f"checkpoint {path!r} payload checksum mismatch "
                    f"(expected {expected_crc}, got {actual_crc}) — "
                    f"the file is corrupt"
                )
        model.load_state_vector(params)
        optimizer._velocity.clear()
        optimizer._velocity.update(velocities)
        optimizer.lr = float(header["lr"])
    return header["metadata"]


class CheckpointManager:
    """Rotating ring of known-good checkpoints for divergence rollback.

    ``save`` writes a fresh file and drops the oldest beyond ``keep``;
    ``restore`` walks newest -> oldest and loads the first file that passes
    validation, so a corrupted latest checkpoint falls back to its
    predecessor instead of killing the run.
    """

    def __init__(self, directory: str, keep: int = 2, basename: str = "ckpt"):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.keep = keep
        self.basename = basename
        os.makedirs(directory, exist_ok=True)
        self._saved: List[str] = []  # newest last
        self._counter = 0

    @property
    def paths(self) -> List[str]:
        """Currently retained checkpoint paths, newest last."""
        return list(self._saved)

    def save(self, model: Module, optimizer: SGD,
             metadata: Optional[Dict] = None) -> str:
        """Persist a new checkpoint; returns its path."""
        path = os.path.join(
            self.directory, f"{self.basename}-{self._counter:06d}.npz"
        )
        self._counter += 1
        save_checkpoint(path, model, optimizer, metadata=metadata)
        self._saved.append(path)
        while len(self._saved) > self.keep:
            stale = self._saved.pop(0)
            try:
                os.remove(stale)
            except OSError:
                pass
        return path

    def restore(self, model: Module, optimizer: SGD) -> Dict:
        """Load the newest restorable checkpoint; returns its metadata.

        A checkpoint that fails validation (CRC mismatch, truncation,
        mangled header) is evicted from the ring on the spot: a corrupt
        file can never become readable again, and keeping it would make a
        later rollback re-pay the failed load — or worse, count it toward
        ``keep`` and age out a checkpoint that still works.

        Raises:
            NoRestorableCheckpointError: when no retained checkpoint
                loads; its ``failures`` list the per-file reasons.
        """
        failures = []
        for path in reversed(list(self._saved)):
            try:
                return load_checkpoint(path, model, optimizer)
            except CheckpointError as exc:
                failures.append(f"{path}: {exc}")
                self._saved.remove(path)
        raise NoRestorableCheckpointError(failures)
