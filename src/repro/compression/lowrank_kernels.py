"""The error-feedback projection kernel shared by Power-SGD and ACP-SGD.

Both methods spend their compression time on the same three full-size
operations over an ``n x m`` gradient matrix ``M`` and its residual ``E``::

    W = M + E            # error feedback
    F = W B   or  W^T B  # project onto the carried basis B
    E' = W - F B^T  (or  W - B F^T)

Done densely that is five passes over ``n m`` elements and four full-size
temporaries. Here the residual is a persistent per-tensor buffer updated in
place, and the passes run over **row blocks** of about 512 KiB so that a
block is added to, projected and corrected while it is cache-resident; the
only scratch is one block-sized buffer per :class:`BlockedProjector`. The
gradient is only ever read.

The block height is a pure function of the matrix width
(:func:`block_rows`), never of how the tensors are bucketed or which backend
runs the workers, so the summation order of the left projection — the one
place blocking changes floating-point results — is fixed per tensor shape.

The reconstruction ``P Q^T`` and ``repro.nn.Linear``'s weight gradient
share :func:`blocked_matmul`, the product of a thin inner dimension written
one ~256 KiB row block at a time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

# 65536 float64 = 512 KiB: a residual block plus its scratch fit in L2.
_BLOCK_ELEMENTS = 65536
# 32768 float64 = 256 KiB of product per GEMM call: the fastest of the
# block sizes swept in docs/performance.md "repro.nn kernels".
_PRODUCT_ELEMENTS = 32768


def block_rows(m: int) -> int:
    """Rows per block for matrices with ``m`` columns."""
    return max(1, _BLOCK_ELEMENTS // m)


def blocked_matmul(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``a @ b`` for 2-D operands, computed one row block at a time.

    Meant for a small inner dimension (a batch, a rank), where the product
    is nearly all output: BLAS first zeroes ``C`` and then accumulates into
    it, so a product larger than the cache goes to DRAM three times (zero,
    read, write). A block of about 256 KiB stays cache-resident between
    the two, and each output byte is written to DRAM once.

    The blocks depend only on the shapes, so a product has the same bits in
    ``out`` (an arena slot, say) and in a fresh array — but not always those
    of one unblocked ``a @ b``: BLAS may pick a different kernel for the
    blocks. A trailing one-row block is merged into the one before it,
    since a one-row product goes to a gemv whose bits differ as well.
    """
    n, m = a.shape[0], b.shape[1]
    if out is None:
        out = np.empty((n, m), dtype=np.result_type(a, b))
    rows = max(2, _PRODUCT_ELEMENTS // m)
    lo = 0
    while lo < n:
        hi = n if n - lo <= rows + 1 else lo + rows
        np.matmul(a[lo:hi], b, out=out[lo:hi])
        lo = hi
    return out


def residual_for(
    residuals: Dict[str, np.ndarray], name: str, shape: Tuple[int, int]
) -> np.ndarray:
    """The persistent residual of ``name``, created empty on first use.

    Empty is ``-0.0``, the additive identity for every float: ``-0.0 + g``
    is ``g`` bit for bit (``+0.0 + -0.0`` would flip a sign), so the first
    ``residual += grad`` equals the gradient exactly.
    """
    residual = residuals.get(name)
    if residual is None:
        residual = residuals[name] = np.full(shape, -0.0)
    return residual


class BlockedProjector:
    """Row-blocked ``residual += grad`` / project / correct, in place.

    One instance per compressor state; it owns the block-sized scratch the
    correction ``F_b B^T`` is formed in (grow-only, at most
    ``max(65536, m)`` elements).

    In both methods ``residual=None`` means error feedback is off: the
    gradient is projected directly and nothing is written.
    """

    def __init__(self) -> None:
        self._scratch = np.empty(0)

    def _block_scratch(self, rows: int, m: int) -> np.ndarray:
        """A ``(rows, m)`` view of the scratch, grown if it is too small."""
        if self._scratch.size < rows * m:
            self._scratch = np.empty(rows * m)
        return self._scratch[: rows * m].reshape(rows, m)

    def project_right(
        self,
        grad: np.ndarray,
        residual: Optional[np.ndarray],
        basis: np.ndarray,
        subtract: bool,
    ) -> np.ndarray:
        """``residual += grad``; ``F = residual @ basis``; one pass.

        With ``subtract`` the same pass also applies
        ``residual -= F @ basis.T`` (ACP-SGD odd steps); without it the
        residual is left holding ``M + E`` (Power-SGD's stage 1, whose
        correction waits for the orthogonalized aggregate).

        Args:
            grad: ``(n, m)`` gradient, any float dtype or strides; read only.
            residual: ``(n, m)`` float64 C-contiguous buffer, or ``None``.
            basis: ``(m, r)`` right basis.
        """
        if residual is None:
            return np.asarray(grad, dtype=np.float64) @ basis
        n, m = residual.shape
        factor = np.empty((n, basis.shape[1]))
        rows = min(block_rows(m), n)
        scratch = self._block_scratch(rows, m)
        basis_t = basis.T
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            block = residual[lo:hi]
            block += grad[lo:hi]
            np.matmul(block, basis, out=factor[lo:hi])
            if subtract:
                correction = scratch[: hi - lo]
                np.matmul(factor[lo:hi], basis_t, out=correction)
                block -= correction
        return factor

    def project_left(
        self,
        grad: Optional[np.ndarray],
        residual: Optional[np.ndarray],
        basis: np.ndarray,
    ) -> np.ndarray:
        """``residual += grad``; ``F = residual.T @ basis``; ``residual -= basis @ F.T``.

        Two passes: the left factor is a sum over row blocks, so the
        correction can only start once every block has been projected.
        ``grad=None`` skips the accumulation (Power-SGD's stage 2, where
        the residual already holds ``M + E``).

        Args:
            grad: ``(n, m)`` gradient or ``None``; read only.
            residual: ``(n, m)`` float64 C-contiguous buffer, or ``None``.
            basis: ``(n, r)`` left basis.
        """
        if residual is None:
            return np.asarray(grad, dtype=np.float64).T @ basis
        n, m = residual.shape
        factor = np.zeros((m, basis.shape[1]))
        partial = np.empty_like(factor)
        rows = min(block_rows(m), n)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            block = residual[lo:hi]
            if grad is not None:
                block += grad[lo:hi]
            np.matmul(block.T, basis[lo:hi], out=partial)
            factor += partial
        scratch = self._block_scratch(rows, m)
        factor_t = factor.T
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            correction = scratch[: hi - lo]
            np.matmul(basis[lo:hi], factor_t, out=correction)
            residual[lo:hi] -= correction
        return factor
