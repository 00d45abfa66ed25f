"""Windowed update stores: the shared medium of the gossip mode.

Open-membership training has no process group — peers never talk to each
other directly. Instead every peer publishes its compressed update for
step window ``w`` into a shared store under ``(window, peer_id)``, and
aggregates whatever the store holds for that window when the window
closes. The store is therefore the *entire* communication fabric: it
needs no membership list, tolerates peers appearing and vanishing at any
time, and never interprets the blobs it carries (verification is the
fetcher's job — see :mod:`repro.gossip.scorer`).

Two backends behind one interface:

- :class:`InMemoryStore` — a dict of dicts; the deterministic backend the
  tests, the simulator-coupled runs, and the CI replay checks use.
- :class:`FilesystemStore` — one directory per window, one file per peer,
  written atomically (temp file + ``os.replace``) so a concurrent reader
  can never observe a half-written blob. This is the backend for real
  multi-process runs sharing a disk (or a FUSE-mounted object store).

Both return fetched windows as mappings ordered by peer id, so iteration
order — and everything derived from it — is deterministic.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from abc import ABC, abstractmethod
from typing import Dict, List


class UpdateStore(ABC):
    """Shared windowed blob store: publish/fetch compressed peer updates."""

    @abstractmethod
    def publish(self, window: int, peer_id: str, blob: bytes) -> None:
        """Store ``blob`` as ``peer_id``'s update for ``window``.

        Re-publishing overwrites: the latest write wins, like an object
        store PUT.
        """

    @abstractmethod
    def fetch(self, window: int) -> Dict[str, bytes]:
        """All updates published for ``window``, keyed and ordered by peer id."""

    @abstractmethod
    def windows(self) -> List[int]:
        """Window indices with at least one published update, ascending."""

    @abstractmethod
    def gc(self, keep_from: int) -> int:
        """Drop every window strictly older than ``keep_from``.

        Returns the number of windows removed. Garbage collection bounds
        the store's footprint but also bounds how far back a brand-new
        peer can catch up (see ``docs/fault_tolerance.md``).
        """

    def peers(self, window: int) -> List[str]:
        """Peer ids with an update published for ``window``, sorted."""
        return list(self.fetch(window).keys())


def _check_publish(window: int, peer_id: str, blob: bytes) -> None:
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if not peer_id:
        raise ValueError("peer_id must be non-empty")
    if not isinstance(blob, (bytes, bytearray)):
        raise TypeError(f"blob must be bytes, got {type(blob).__name__}")


class InMemoryStore(UpdateStore):
    """Dict-backed store for single-process runs, tests, and simulation."""

    def __init__(self) -> None:
        self._windows: Dict[int, Dict[str, bytes]] = {}

    def publish(self, window: int, peer_id: str, blob: bytes) -> None:
        _check_publish(window, peer_id, blob)
        self._windows.setdefault(window, {})[peer_id] = bytes(blob)

    def fetch(self, window: int) -> Dict[str, bytes]:
        slot = self._windows.get(window, {})
        return {peer: slot[peer] for peer in sorted(slot)}

    def windows(self) -> List[int]:
        return sorted(self._windows)

    def gc(self, keep_from: int) -> int:
        stale = [window for window in self._windows if window < keep_from]
        for window in stale:
            del self._windows[window]
        return len(stale)


class FilesystemStore(UpdateStore):
    """Directory-backed store for real multi-process runs on shared disk.

    Layout: ``<root>/window-%08d/<peer_id>.bin``. Writes go to a temp
    file in the same directory and are moved into place with
    ``os.replace``, which is atomic on POSIX — a reader either sees the
    whole blob or no file at all. Peer ids are restricted to a safe
    filename alphabet so a hostile id cannot escape the store root.
    """

    # No leading dot: keeps "." / ".." / hidden-file names out entirely.
    _PEER_ID = re.compile(r"^[A-Za-z0-9_-][A-Za-z0-9._-]*$")
    _WINDOW_DIR = re.compile(r"^window-(\d{8})$")

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _window_dir(self, window: int) -> str:
        return os.path.join(self.root, f"window-{window:08d}")

    def _check_peer_id(self, peer_id: str) -> None:
        if not self._PEER_ID.match(peer_id):
            raise ValueError(
                f"peer id {peer_id!r} is not filesystem-safe "
                f"(allowed: letters, digits, '.', '_', '-')"
            )

    def publish(self, window: int, peer_id: str, blob: bytes) -> None:
        _check_publish(window, peer_id, blob)
        self._check_peer_id(peer_id)
        directory = self._window_dir(window)
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_path, os.path.join(directory, f"{peer_id}.bin"))
        except BaseException:
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise

    def fetch(self, window: int) -> Dict[str, bytes]:
        directory = self._window_dir(window)
        if not os.path.isdir(directory):
            return {}
        # Sort the ids, not the file names: "a.bin" sorts after "a-b.bin".
        # Anything else is a temp file mid-write or a foreign dropping.
        peer_ids = sorted(
            name[: -len(".bin")]
            for name in os.listdir(directory) if name.endswith(".bin")
        )
        out: Dict[str, bytes] = {}
        for peer_id in peer_ids:
            with open(os.path.join(directory, f"{peer_id}.bin"), "rb") as handle:
                out[peer_id] = handle.read()
        return out

    def windows(self) -> List[int]:
        found = []
        for name in os.listdir(self.root):
            match = self._WINDOW_DIR.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def gc(self, keep_from: int) -> int:
        removed = 0
        for window in self.windows():
            directory = self._window_dir(window)
            if window < keep_from:
                shutil.rmtree(directory, ignore_errors=True)
                removed += 1
                continue
            # A publisher that crashed between mkstemp and os.replace
            # leaves its ``.tmp`` behind. ``fetch`` already ignores the
            # strays (only ``.bin`` files are real); gc reclaims them so
            # a long run's store footprint stays bounded by live blobs.
            for name in os.listdir(directory):
                if name.endswith(".tmp"):
                    try:
                        os.remove(os.path.join(directory, name))
                    except OSError:
                        pass  # already gone (concurrent gc) — fine
        return removed
