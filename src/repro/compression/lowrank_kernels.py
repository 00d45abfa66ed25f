"""The error-feedback projection kernel shared by Power-SGD and ACP-SGD.

Both methods spend their compression time on the same three full-size
operations over an ``n x m`` gradient matrix ``M`` and its residual ``E``::

    W = M + E            # error feedback
    F = W B   or  W^T B  # project onto the carried basis B
    E' = W - F B^T  (or  W - B F^T)

Done densely that is five passes over ``n m`` elements and four full-size
temporaries. Here ``W`` is the rank's accumulator — its arena slot, into
which backward already added ``M`` — and projection and correction run over
**row blocks** of about 512 KiB, each while it is cache-resident, leaving
``E'`` where ``W`` was. The only scratch is one block-sized buffer per
:class:`BlockedProjector`.

The block height is a pure function of the matrix width
(:func:`block_rows`), never of how the tensors are bucketed or which backend
runs the workers, so the summation order of the left projection — the one
place blocking changes floating-point results — is fixed per tensor shape.

The reconstruction ``P Q^T`` and ``repro.nn.Linear``'s weight gradient
share :func:`blocked_matmul`, the product of a thin inner dimension written
one ~256 KiB row block at a time.
"""

from __future__ import annotations

from typing import Optional

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
    a: np.ndarray,
    b: np.ndarray,
    out: Optional[np.ndarray] = None,
    add: bool = False,
) -> np.ndarray:
    """``a @ b`` for 2-D operands, computed one row block at a time.

    Meant for a small inner dimension (a batch, a rank), where the product
    is nearly all output: BLAS first zeroes ``C`` and then accumulates into
    it, so a product larger than the cache goes to DRAM three times (zero,
    read, write). A block of about 256 KiB stays cache-resident between
    the two, and each output byte is written to DRAM once.

    With ``add`` the product is added into ``out`` instead: each block is
    formed in one block of scratch and added to its rows of ``out`` while
    it is still in cache — ``out`` is read and written once, and nothing
    the size of the product is allocated.

    The blocks depend only on the shapes, so a product has the same bits in
    ``out`` (an arena slot, say), in a fresh array and in the scratch — but
    not always those of one unblocked ``a @ b``: BLAS may pick a different
    kernel for the blocks. A trailing one-row block is merged into the one
    before it, since a one-row product goes to a gemv whose bits differ as
    well.
    """
    n, m = a.shape[0], b.shape[1]
    if out is None:
        out = np.empty((n, m), dtype=np.result_type(a, b))
    rows = max(2, _PRODUCT_ELEMENTS // m)
    scratch = np.empty((min(rows + 1, n), m), np.result_type(a, b)) if add else None
    lo = 0
    while lo < n:
        hi = n if n - lo <= rows + 1 else lo + rows
        if add:
            out[lo:hi] += np.matmul(a[lo:hi], b, out=scratch[: hi - lo])
        else:
            np.matmul(a[lo:hi], b, out=out[lo:hi])
        lo = hi
    return out


class BlockedProjector:
    """Row-blocked project / correct of an error-feedback accumulator, in place.

    One instance per compressor state; it owns the block-sized scratch the
    correction ``F_b B^T`` is formed in (grow-only, at most
    ``max(65536, m)`` elements).

    ``work`` is a rank's ``M + E`` (float64, C-contiguous, writable): the
    slot backward added the gradient into. Without error feedback the
    states use one plain product instead.
    """

    def __init__(self) -> None:
        self._scratch = np.empty(0)

    def _block_scratch(self, rows: int, m: int) -> np.ndarray:
        """A ``(rows, m)`` view of the scratch, grown if it is too small."""
        if self._scratch.size < rows * m:
            self._scratch = np.empty(rows * m)
        return self._scratch[: rows * m].reshape(rows, m)

    def project_right(
        self, work: np.ndarray, basis: np.ndarray, subtract: bool
    ) -> np.ndarray:
        """``F = work @ basis`` block by block; one pass.

        With ``subtract`` the same pass also applies ``work -= F @ basis.T``
        (ACP-SGD odd steps); without it ``work`` keeps ``M + E`` (Power-SGD's
        stage 1, whose correction waits for the orthogonalized aggregate).

        Args:
            work: ``(n, m)`` accumulator ``M + E``.
            basis: ``(m, r)`` right basis.
        """
        n, m = work.shape
        factor = np.empty((n, basis.shape[1]))
        rows = min(block_rows(m), n)
        scratch = self._block_scratch(rows, m)
        basis_t = basis.T
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            block = work[lo:hi]
            np.matmul(block, basis, out=factor[lo:hi])
            if subtract:
                correction = scratch[: hi - lo]
                np.matmul(factor[lo:hi], basis_t, out=correction)
                block -= correction
        return factor

    def project_left(self, work: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """``F = work.T @ basis``; ``work -= basis @ F.T``.

        Two passes: the left factor is a sum over row blocks, so the
        correction can only start once every block has been projected.

        Args:
            work: ``(n, m)`` accumulator ``M + E``.
            basis: ``(n, r)`` left basis.
        """
        n, m = work.shape
        factor = np.zeros((m, basis.shape[1]))
        partial = np.empty_like(factor)
        rows = min(block_rows(m), n)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            np.matmul(work[lo:hi].T, basis[lo:hi], out=partial)
            factor += partial
        scratch = self._block_scratch(rows, m)
        factor_t = factor.T
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            correction = scratch[: hi - lo]
            np.matmul(basis[lo:hi], factor_t, out=correction)
            work[lo:hi] -= correction
        return factor
