"""Payload validation helpers shared by the fault-tolerance machinery.

Two primitives, both cheap enough to run on every collective payload:

- :func:`is_finite` — whether an array is free of NaN/Inf (the symptom of
  payload corruption or an EF residual blow-up);
- :func:`payload_checksum` — CRC-32 of an array's raw bytes. CRC-32 detects
  every single-bit error, so a bit-flipped payload never passes, which is
  what :class:`~repro.faults.resilient.ResilientProcessGroup` relies on to
  tell a corrupted transfer from a clean one.
"""

from __future__ import annotations

import zlib

import numpy as np


def payload_checksum(array: np.ndarray) -> int:
    """CRC-32 of the array's raw bytes (shape/dtype-independent).

    Used as the lightweight integrity check on collective payloads; any
    single-bit corruption changes the checksum.
    """
    return zlib.crc32(np.ascontiguousarray(array).tobytes()) & 0xFFFFFFFF


def is_finite(array: np.ndarray) -> bool:
    """True when every element of ``array`` is finite (NaN/Inf-free)."""
    array = np.asarray(array)
    if array.dtype.kind not in "fc":
        return True
    return bool(np.isfinite(array).all())
