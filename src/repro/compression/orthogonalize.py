"""Orthogonalization of the low-rank factors.

The paper uses reduced QR decomposition (``torch.linalg.qr``) for
orthogonalization (§IV-C); we use ``numpy.linalg.qr`` with a modified
Gram-Schmidt fallback for inputs QR cannot handle gracefully (rank-deficient
columns arising from all-zero gradients early in training).
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def _gram_schmidt(matrix: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with re-randomization of degenerate columns
    (in float64; the result in ``matrix``'s float dtype)."""
    out = matrix.astype(np.float64, copy=True)
    rng = np.random.default_rng(0)
    rows, cols = out.shape
    for j in range(cols):
        col = out[:, j]
        for i in range(j):
            col -= (out[:, i] @ col) * out[:, i]
        norm = np.linalg.norm(col)
        if norm < _EPS:
            # Degenerate direction: substitute a random one orthogonal to the
            # previous columns so downstream projections stay well-defined.
            col = rng.normal(size=rows)
            for i in range(j):
                col -= (out[:, i] @ col) * out[:, i]
            norm = np.linalg.norm(col)
            if norm < _EPS:  # rows < cols: no direction left, keep zeros
                out[:, j] = 0.0
                continue
        out[:, j] = col / norm
    return out.astype(np.result_type(matrix, np.float32), copy=False)


def orthogonalize(matrix: np.ndarray) -> np.ndarray:
    """Return a column-orthonormal matrix spanning ``matrix``'s column space.

    Uses reduced QR (the paper's choice); falls back to modified
    Gram-Schmidt when the input is non-finite-free or QR fails to converge.
    The result has the same shape and dtype as the input (rank columns).
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("cannot orthogonalize a matrix with NaN/Inf entries")
    rows, cols = matrix.shape
    if rows >= cols:
        try:
            q, _ = np.linalg.qr(matrix)
            # QR of a rank-deficient matrix can produce zero columns in
            # degenerate cases; verify orthonormality and fall back if needed.
            gram = q.T @ q
            atol = max(1e-8, 10 * np.finfo(q.dtype).resolution)
            if np.allclose(gram, np.eye(cols), atol=atol):
                return q
        except np.linalg.LinAlgError:
            pass
    return _gram_schmidt(matrix)
