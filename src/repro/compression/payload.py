"""Self-describing compressed-payload wire format.

The lockstep collectives in :mod:`repro.comm` move naked numpy buffers —
fine inside one trusted process group where every rank agrees on shapes
out of band. The open-membership gossip mode (:mod:`repro.gossip`) has no
such agreement: a payload fetched from the shared store may come from any
peer, any software version, or an adversary, so the bytes themselves must
carry everything needed to decode *and distrust* them:

- a magic/version prefix (reject foreign blobs immediately);
- a JSON header describing every array (key, dtype, shape, byte extent)
  plus caller metadata (peer id, window, update norm, ...);
- a CRC-32 (:func:`~repro.utils.validation.payload_checksum`) over the
  header bytes, one per array, and one over the raw body, so a single
  flipped bit anywhere fails verification before any value is
  interpreted. The header CRC matters as much as the body ones: the
  per-array CRCs hash *raw bytes*, so without it a one-bit header flip
  (say ``<f8`` to ``>f8``) would reinterpret an intact body as garbage
  while every byte-level checksum still matched.

Every way a blob can be broken — truncation, tampered header, CRC
mismatch, absurd sizes — raises one typed :class:`PayloadFormatError`
with a readable message, never a raw ``json``/``numpy`` stack trace.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.utils.validation import payload_checksum

#: Magic prefix: "repro gossip payload", format version 1.
PAYLOAD_MAGIC = b"RGP1"

_LEN = struct.Struct("<I")

#: Upper bound on a declared header size — a corrupted length field must
#: not trick the decoder into a multi-GB allocation.
_MAX_HEADER_BYTES = 16 * 1024 * 1024


class PayloadFormatError(ValueError):
    """A serialized payload is truncated, tampered with, or not ours."""


def pack_payload(
    arrays: Mapping[str, np.ndarray], meta: Mapping | None = None
) -> bytes:
    """Serialize named arrays + metadata into one self-describing blob.

    Array bytes are laid out back to back after the header in sorted key
    order; the header records each array's dtype, shape, extent, and
    CRC-32, plus a CRC over the whole body. ``meta`` must be
    JSON-serializable.
    """
    entries = []
    chunks = []
    offset = 0
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        raw = array.tobytes()
        entries.append({
            "key": key,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": len(raw),
            "crc": payload_checksum(array),
        })
        chunks.append(raw)
        offset += len(raw)
    body = b"".join(chunks)
    header = {
        "arrays": entries,
        "meta": dict(meta) if meta else {},
        "body_crc": _crc_bytes(body),
    }
    header_raw = json.dumps(header, sort_keys=True).encode()
    return (
        PAYLOAD_MAGIC
        + _LEN.pack(len(header_raw))
        + _LEN.pack(_crc_bytes(header_raw))
        + header_raw
        + body
    )


def unpack_payload(blob: bytes) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Decode and *verify* a blob produced by :func:`pack_payload`.

    Returns ``(arrays, meta)``. Arrays are fresh writable copies — a
    store backend may hand out shared buffers.

    Raises:
        PayloadFormatError: wrong magic, truncated blob, unparseable
            header, or any CRC mismatch (body or per-array).
    """
    if len(blob) < len(PAYLOAD_MAGIC) + 2 * _LEN.size:
        raise PayloadFormatError(
            f"payload too short to carry a header ({len(blob)} bytes)"
        )
    if blob[: len(PAYLOAD_MAGIC)] != PAYLOAD_MAGIC:
        raise PayloadFormatError(
            f"bad magic {blob[:len(PAYLOAD_MAGIC)]!r} "
            f"(expected {PAYLOAD_MAGIC!r})"
        )
    (header_len,) = _LEN.unpack_from(blob, len(PAYLOAD_MAGIC))
    (header_crc,) = _LEN.unpack_from(blob, len(PAYLOAD_MAGIC) + _LEN.size)
    if header_len > _MAX_HEADER_BYTES:
        raise PayloadFormatError(
            f"declared header size {header_len} exceeds the "
            f"{_MAX_HEADER_BYTES}-byte limit — corrupt length field"
        )
    header_start = len(PAYLOAD_MAGIC) + 2 * _LEN.size
    body_start = header_start + header_len
    if len(blob) < body_start:
        raise PayloadFormatError(
            f"payload truncated inside the header "
            f"(need {body_start} bytes, have {len(blob)})"
        )
    header_raw = blob[header_start:body_start]
    if _crc_bytes(header_raw) != header_crc:
        raise PayloadFormatError(
            "payload header checksum mismatch — the blob is corrupt"
        )
    try:
        header = json.loads(header_raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PayloadFormatError(f"unparseable payload header: {exc}") from exc
    if not isinstance(header, dict) or "arrays" not in header:
        raise PayloadFormatError("payload header carries no array table")
    body = blob[body_start:]
    if _crc_bytes(body) != header.get("body_crc"):
        raise PayloadFormatError(
            "payload body checksum mismatch — the blob is corrupt"
        )
    arrays: Dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        try:
            key = entry["key"]
            dtype = np.dtype(entry["dtype"])
            shape = tuple(int(dim) for dim in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
            expected_crc = int(entry["crc"])
        except Exception as exc:
            # np.dtype() on a hostile string can raise well beyond
            # TypeError/ValueError (its parser even leaks SyntaxError),
            # and the typed-error contract must hold regardless.
            raise PayloadFormatError(
                f"malformed array table entry {entry!r}: {exc}"
            ) from exc
        raw = body[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise PayloadFormatError(
                f"array {key!r} truncated (declared {nbytes} bytes, "
                f"{len(raw)} present)"
            )
        try:
            array = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:
            raise PayloadFormatError(
                f"array {key!r} does not match its declared "
                f"dtype/shape {dtype}/{shape}: {exc}"
            ) from exc
        if payload_checksum(array) != expected_crc:
            raise PayloadFormatError(
                f"array {key!r} checksum mismatch — the payload is corrupt"
            )
        arrays[key] = array
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise PayloadFormatError(f"payload meta is not a mapping: {meta!r}")
    return arrays, meta


def _crc_bytes(raw: bytes) -> int:
    return payload_checksum(np.frombuffer(raw, dtype=np.uint8))
