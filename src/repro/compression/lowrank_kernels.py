"""The error-feedback projection kernel shared by Power-SGD and ACP-SGD.

Both methods spend their compression time on the same three full-size
operations over an ``n x m`` gradient matrix ``M`` and its residual ``E``::

    W = M + E            # error feedback
    F = W B   or  W^T B  # project onto the carried basis B
    E' = W - F B^T  (or  W - B F^T)

Done densely that is five passes over ``n m`` elements and four full-size
temporaries. Here ``W`` is the rank's accumulator — its arena slot, into
which backward already added ``M`` — and projection and correction run over
**row blocks** of about 256 KiB (float32), each while it is cache-resident,
leaving ``E'`` where ``W`` was: one pass for a right projection with its
correction, two for a left one. The only scratch is one block-sized buffer
per :class:`BlockedProjector`.

When the gradient is a thin product ``M = a b`` (a ``Linear`` weight
gradient ``g^T x``, ``K`` batch rows) and the slot holds only ``E``, the
``*_factored`` methods never form ``M``: the factor is ``E B`` plus the
thin ``a (b B)``, and the new residual ``E + a b - F B^T`` is one
rank-``(K + r)`` product ``[a | -F] [b ; B^T]`` added onto ``E``. That is
one pass over ``E`` for a right projection and two for a left one (read,
then update), where adding ``M`` first and projecting costs two and three.

The block height is a pure function of the matrix width
(:func:`block_rows`), never of how the tensors are bucketed or which backend
runs the workers, so the summation order of the left projection — the one
place blocking changes floating-point results — is fixed per tensor shape.

The reconstruction ``P Q^T``, ``repro.nn.Linear``'s weight gradient and the
factored residual update share :func:`blocked_matmul`, the product of a
thin inner dimension written one ~128 KiB (float32) row block at a time.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

# 65536 elements (256 KiB in float32): a residual block plus its scratch
# fit in L2.
_BLOCK_ELEMENTS = 65536
# 32768 elements of product per GEMM call (128 KiB in float32): the fastest
# of the block sizes swept, in float64 and again in float32, in
# docs/performance.md "repro.nn kernels".
_PRODUCT_ELEMENTS = 32768


def block_rows(m: int) -> int:
    """Rows per block for matrices with ``m`` columns."""
    return max(1, _BLOCK_ELEMENTS // m)


def product_blocks(n: int, m: int) -> Iterator[Tuple[int, int]]:
    """Row ranges of :func:`blocked_matmul`'s blocks for an ``n x m`` product."""
    rows = max(2, _PRODUCT_ELEMENTS // m)
    lo = 0
    while lo < n:
        hi = n if n - lo <= rows + 1 else lo + rows
        yield lo, hi
        lo = hi


def _tallest_product_block(n: int, m: int) -> int:
    """Rows of the tallest of those blocks (a merged one-row tail included)."""
    return min(max(2, _PRODUCT_ELEMENTS // m) + 1, n)


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
    read, write). A block of about 128 KiB (float32) stays cache-resident
    between the two, and each output byte is written to DRAM once.

    With ``add`` the product is added into ``out`` instead: each block is
    formed in one block of scratch and added to its rows of ``out`` while
    it is still in cache — ``out`` is read and written once, and nothing
    the size of the product is allocated. ``add`` needs an ``out``.

    The blocks depend only on the shapes, so a product has the same bits in
    ``out`` (an arena slot, say), in a fresh array and in the scratch — but
    not always those of one unblocked ``a @ b``: BLAS may pick a different
    kernel for the blocks. A trailing one-row block is merged into the one
    before it, since a one-row product goes to a gemv whose bits differ as
    well.
    """
    n, m = a.shape[0], b.shape[1]
    if out is None:
        if add:
            raise ValueError("blocked_matmul(add=True) needs out= to add into")
        out = np.empty((n, m), dtype=np.result_type(a, b))
    scratch = (
        np.empty((_tallest_product_block(n, m), m), np.result_type(a, b))
        if add else None
    )
    for lo, hi in product_blocks(n, m):
        if add:
            out[lo:hi] += np.matmul(a[lo:hi], b, out=scratch[: hi - lo])
        else:
            np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def _stacked(
    a: np.ndarray, b: np.ndarray, r: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``[a | ·]`` (``n x (K + r)``) and ``[b ; ·]`` (``(K + r) x m``), the
    last ``r`` columns / rows left for the caller to fill."""
    k = a.shape[1]
    left = np.empty((a.shape[0], k + r), a.dtype)
    left[:, :k] = a
    right = np.empty((k + r, b.shape[1]), b.dtype)
    right[:k] = b
    return left, right


class BlockedProjector:
    """Row-blocked project / correct of an error-feedback accumulator, in place.

    One instance per compressor state; it owns the block-sized scratch the
    correction ``F_b B^T`` is formed in (grow-only, at most
    ``max(65536, 3 m)`` elements).

    ``work`` is a rank's ``M + E`` (C-contiguous, writable): the slot
    backward added the gradient into — or, for the ``*_factored`` methods,
    ``E`` alone with ``M`` handed over as its factors. Without error
    feedback the states use one plain product instead. Scratch, factors
    and the basis are in ``work``'s dtype: one operand of another dtype
    would run a model-sized pass in the wider one.
    """

    def __init__(self) -> None:
        self._scratch = np.empty(0, np.float32)

    def _block_scratch(self, rows: int, m: int, dtype: np.dtype) -> np.ndarray:
        """A ``(rows, m)`` view of the scratch in ``dtype``, grown if it is
        too small."""
        if self._scratch.size < rows * m or self._scratch.dtype != dtype:
            self._scratch = np.empty(rows * m, dtype)
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
        factor = np.empty((n, basis.shape[1]), work.dtype)
        rows = min(block_rows(m), n)
        scratch = self._block_scratch(rows, m, work.dtype)
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
        factor = _add_left_projection(
            work, basis, np.zeros((m, basis.shape[1]), work.dtype)
        )
        rows = min(block_rows(m), n)
        scratch = self._block_scratch(rows, m, work.dtype)
        factor_t = factor.T
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            correction = scratch[: hi - lo]
            np.matmul(basis[lo:hi], factor_t, out=correction)
            work[lo:hi] -= correction
        return factor

    def project_right_factored(
        self, work: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray
    ) -> np.ndarray:
        """``F = (work + a @ b) @ basis``; ``work += [a | -F] @ [b ; basis.T]``.

        One pass, ``a @ b`` never formed: rows are independent, so each of
        :func:`blocked_matmul`'s row blocks of ``work`` is projected
        (``F_b = work_b @ basis`` plus the thin ``a_b @ (b @ basis)``) and
        then updated by its rank-``(K + r)`` product while it is in cache.

        Args:
            work: ``(n, m)`` residual ``E`` (C-contiguous, writable); it
                holds ``E + a b - F basis^T`` afterwards.
            a, b: ``(n, K)`` and ``(K, m)`` factors of the gradient.
            basis: ``(m, r)`` right basis.
        """
        n, m = work.shape
        k, r = a.shape[1], basis.shape[1]
        left, right = _stacked(a, b, r)
        right[k:] = basis.T
        factor = a @ (b @ basis)  # the gradient's share; E's is added per block
        height = _tallest_product_block(n, m)
        scratch = self._block_scratch(height, m, work.dtype)
        part = np.empty((height, r), work.dtype)
        for lo, hi in product_blocks(n, m):
            block = work[lo:hi]
            factor[lo:hi] += np.matmul(block, basis, out=part[: hi - lo])
            np.negative(factor[lo:hi], out=left[lo:hi, k:])
            block += np.matmul(left[lo:hi], right, out=scratch[: hi - lo])
        return factor

    def project_left_factored(
        self, work: np.ndarray, a: np.ndarray, b: np.ndarray, basis: np.ndarray
    ) -> np.ndarray:
        """``F = (work + a @ b).T @ basis``; ``work += [a | -basis] @ [b ; F.T]``.

        Two passes, ``a @ b`` never formed: ``F`` is the thin
        ``b.T @ (a.T @ basis)`` plus a read sweep of ``work.T @ basis`` (a
        sum over row blocks, so the update waits for all of it), then
        :func:`blocked_matmul` adds the rank-``(K + r)`` update onto ``work``.

        Args:
            work: ``(n, m)`` residual ``E``, updated in place.
            a, b: ``(n, K)`` and ``(K, m)`` factors of the gradient.
            basis: ``(n, r)`` left basis.
        """
        k, r = a.shape[1], basis.shape[1]
        factor = _add_left_projection(work, basis, b.T @ (a.T @ basis))
        left, right = _stacked(a, b, r)
        np.negative(basis, out=left[:, k:])
        right[k:] = factor.T
        blocked_matmul(left, right, out=work, add=True)
        return factor


def _add_left_projection(
    work: np.ndarray, basis: np.ndarray, factor: np.ndarray
) -> np.ndarray:
    """``factor += work.T @ basis``, summed over ``block_rows`` row blocks."""
    n, m = work.shape
    partial = np.empty_like(factor)
    rows = min(block_rows(m), n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        np.matmul(work[lo:hi].T, basis[lo:hi], out=partial)
        factor += partial
    return factor
