"""Learnable parameter with gradient storage and ready-hooks."""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.compression.lowrank_kernels import blocked_matmul

# A hook receives the parameter whose gradient just became available.
GradHook = Callable[["Parameter"], None]


class PendingProducts:
    """A factored slot's gradient products ``a @ b``, kept as their factors.

    A ``Linear`` weight gradient is the thin product ``g^T x`` (``n x K``
    by ``K x m``, ``K`` the batch). ACP-SGD with error feedback folds it
    into its residual update without forming it
    (``LowRankState.compress(..., factors=)``); until then the factors wait
    here, in the slot's arena entry, and the slot holds the residual alone.
    The slot's gradient is the sum of the recorded products on top of it.
    """

    #: Factors are recorded only while all of them together are at most
    #: ``1 / MAX_SHARE`` of the product: ``MAX_SHARE K (n + m) <= n m``.
    #: Every rank holds its factors until its compress, and beyond about a
    #: fifth of the product the factored update is no faster than adding
    #: the product (measured in ``docs/performance.md``).
    MAX_SHARE = 16

    def __init__(self, shape: Tuple[int, int]):
        self.shape = shape
        self._pairs: List[Tuple[np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        """How many products are recorded."""
        return len(self._pairs)

    def record(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Keep copies of ``a`` and ``b`` if the factors stay small enough.

        Returns ``False``, recording nothing, when this product would take
        the factors past ``1 / MAX_SHARE`` of the product: the caller then
        adds the recorded products and this one onto the slot instead.
        """
        n, m = self.shape
        k = a.shape[1] + sum(left.shape[1] for left, _ in self._pairs)
        if self.MAX_SHARE * k * (n + m) > n * m:
            return False
        # order="K": the strides the product would have been formed with.
        self._pairs.append((a.copy(order="K"), b.copy(order="K")))
        return True

    def add_onto(self, slot: np.ndarray) -> None:
        """Add the recorded products onto ``slot``, in order, and forget them.

        Each goes through the ``blocked_matmul(add=True)`` it would have
        gone through when it was recorded, so the slot gets the bits it
        would hold had the products never been kept as factors.
        """
        for a, b in self._pairs:
            blocked_matmul(a, b, out=slot, add=True)
        self._pairs.clear()

    def pop(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(a, b)`` with ``a @ b`` the sum of the recorded products (their
        factors side by side), or ``None`` when there is none; forgets them."""
        pairs = self._pairs
        if not pairs:
            return None
        if len(pairs) == 1:
            factors = pairs[0]
        else:
            factors = (
                np.concatenate([a for a, _ in pairs], axis=1),
                np.concatenate([b for _, b in pairs], axis=0),
            )
        pairs.clear()
        return factors

    def arrays(self) -> Iterator[np.ndarray]:
        """Every recorded factor."""
        for pair in self._pairs:
            yield from pair

    def extend(self, other: "PendingProducts") -> None:
        """Record ``other``'s products after this one's (a process worker's,
        shipped back to the parent)."""
        self._pairs.extend(other._pairs)

    def clear(self) -> None:
        """Forget the recorded products."""
        self._pairs.clear()


class RemovableHandle:
    """Handle returned by :meth:`Parameter.register_hook`.

    Mirrors ``torch.utils.hooks.RemovableHandle``: calling :meth:`remove`
    detaches exactly the hook this handle was issued for (idempotently),
    leaving hooks registered by other subsystems in place — which is why
    the bucketed reducer uses handles instead of ``clear_hooks``.
    """

    def __init__(self, hooks: List[GradHook], hook: GradHook):
        self._hooks = hooks
        self._hook = hook

    def remove(self) -> None:
        """Detach the hook; safe to call more than once."""
        try:
            self._hooks.remove(self._hook)
        except ValueError:
            pass


class Parameter:
    """A learnable tensor: value, gradient, and gradient-ready hooks.

    Attributes:
        data: the parameter value, a floating numpy array whose dtype it
            keeps (``repro.nn`` layers build float32; a float64 model is
            one :meth:`~repro.nn.module.Module.astype` away). Gradients
            are stored in the same dtype.
        grad: accumulated gradient for the current step, or ``None`` before
            the first backward touches it.
        name: dotted path assigned by the owning model (e.g.
            ``features.3.weight``); set by ``Module.named_parameters``.

    Gradient storage comes in two modes:

    - **legacy**: ``accumulate_grad`` allocates a fresh array per step (the
      first call copies, later calls add);
    - **arena**: a preallocated zero-copy view into a fused per-worker
      buffer is attached with :meth:`attach_grad_slot`
      (see :class:`repro.perf.arena.GradientArena`); accumulation then
      writes into the fused buffer in place and ``zero_grad`` merely marks
      the slot stale — no per-step allocation at all. Both modes produce
      bit-identical gradient values. A slot attached with ``carry`` is an
      accumulator that is never stale: an error-feedback method keeps the
      rank's residual in it, and every backward adds onto it. One attached
      with a :class:`PendingProducts` entry as well keeps thin products
      there as their factors (:meth:`accumulate_product`); reading
      :attr:`grad` adds them.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data)
        if self.data.dtype.kind != "f":
            raise ValueError(
                f"parameter data must be floating, got {self.data.dtype}"
            )
        self.name = name
        self._grad: Optional[np.ndarray] = None
        self._grad_slot: Optional[np.ndarray] = None
        self._slot_written = False
        self._carry = False
        self._products: Optional[PendingProducts] = None
        self._hooks: List[GradHook] = []

    @property
    def grad(self) -> Optional[np.ndarray]:
        if self._grad_slot is not None:
            if not self._slot_written:
                return None
            self._add_products()
            return self._grad_slot
        return self._grad

    @property
    def has_grad(self) -> bool:
        """``grad is not None``, without adding pending products."""
        if self._grad_slot is not None:
            return self._slot_written
        return self._grad is not None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self.data.size)

    def register_hook(self, hook: GradHook) -> RemovableHandle:
        """Register a callback fired when this parameter's grad is ready.

        This mirrors ``torch.Tensor.register_hook`` as used by the paper's
        ACP-SGD prototype (§IV-C): distributed optimizers use it to launch
        compression/communication as soon as back-propagation produces each
        gradient (wait-free back-propagation). Returns a handle whose
        ``remove()`` detaches just this hook.
        """
        self._hooks.append(hook)
        return RemovableHandle(self._hooks, hook)

    def clear_hooks(self) -> None:
        """Remove all registered hooks."""
        self._hooks.clear()

    def attach_grad_slot(
        self,
        slot: np.ndarray,
        carry: bool = False,
        pending: Optional[PendingProducts] = None,
    ) -> None:
        """Route gradient accumulation into a preallocated buffer view.

        ``slot`` must match the parameter's shape; it is typically a view
        into a worker's fused arena slab. Attaching marks the slot stale
        (as after ``zero_grad``) unless ``carry``: an error-feedback residual
        every backward adds onto. ``pending`` (a carried slot's entry, owned
        by the arena) receives thin products as factors instead
        (:meth:`accumulate_product`). Any legacy gradient is dropped.
        """
        if slot.shape != self.data.shape:
            raise ValueError(
                f"grad slot shape {slot.shape} != parameter shape "
                f"{self.data.shape}"
                + (f" for {self.name!r}" if self.name else "")
            )
        if pending is not None and not carry:
            raise ValueError("pending products need a carried slot")
        self._grad_slot = slot
        self._carry = carry
        self._slot_written = carry
        self._products = pending
        self._grad = None

    def detach_grad_slot(self) -> None:
        """Return to legacy per-step gradient allocation."""
        self._grad_slot = None
        self._products = None
        self._carry = self._slot_written = False

    def _add_products(self) -> None:
        if self._products is not None:
            self._products.add_onto(self._grad_slot)

    def accumulate_product(self, a: np.ndarray, b: np.ndarray) -> None:
        """Add the 2-D product ``a @ b`` into ``self.grad``; fire ready-hooks.

        For a thin inner dimension (``Linear``'s batch): one row block at a
        time (:func:`~repro.compression.lowrank_kernels.blocked_matmul`),
        straight into a stale slot, added block by block onto one that holds
        data (a second backward before ``zero_grad``, a carried residual) —
        never through a product-sized temporary. A slot attached with
        ``pending`` records ``(a, b)`` there instead while the factors stay
        small (:meth:`PendingProducts.record`): ACP-SGD's compressor
        consumes them without ever forming the product. A product too large
        for that adds the recorded ones first, then itself.
        """
        if self._grad_slot is None:
            self.accumulate_grad(blocked_matmul(a, b))
            return
        if self._products is None or not self._products.record(a, b):
            self._add_products()
            blocked_matmul(a, b, out=self._grad_slot, add=self._slot_written)
            self._slot_written = True
        for hook in self._hooks:
            hook(self)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` and fire ready-hooks.

        Layers call this (or :meth:`accumulate_product`) exactly once per
        backward pass per parameter, so the hook-firing point is "this
        parameter's gradient for the step is complete" — the WFBP
        readiness event.
        """
        if grad.shape != self.data.shape:
            raise ValueError(
                f"grad shape {grad.shape} != parameter shape {self.data.shape}"
                + (f" for {self.name!r}" if self.name else "")
            )
        if self._grad_slot is not None:
            # Arena mode: first write overwrites whatever stale data the
            # slot held (np.copyto casts like astype), later writes add in
            # place — bit-identical to the legacy copy-then-add.
            if self._slot_written:
                self._add_products()
                self._grad_slot += grad
            else:
                np.copyto(self._grad_slot, grad)
                self._slot_written = True
        elif self._grad is None:
            # order="C": layer backwards may hand over F-ordered arrays
            # (einsum/tensordot outputs); gradient storage must have one
            # canonical layout so BLAS-backed consumers (Power-SGD/ACP-SGD
            # matmuls) round identically whether the gradient lives here
            # or in a C-contiguous arena slot.
            self._grad = grad.astype(self.data.dtype, order="C", copy=True)
        else:
            self._grad = self._grad + grad
        for hook in self._hooks:
            hook(self)

    def zero_grad(self) -> None:
        """Reset the gradient before the next backward pass.

        In arena mode this is allocation-free: the slot is marked stale and
        the next ``accumulate_grad`` overwrites it (a carried one is kept).
        """
        self._grad = None
        self._slot_written = self._carry

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return f"Parameter({label}, shape={self.data.shape})"
