"""Base class for layers and models."""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class: parameter discovery, train/eval mode, call protocol.

    Subclasses implement ``forward(x)`` (caching whatever backward needs)
    and ``backward(grad_output)`` (returning the gradient w.r.t. the input
    and calling ``Parameter.accumulate_grad`` for each learnable tensor).
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Parameter discovery (by attribute reflection, like torch.nn.Module)
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in attribute order.

        Also stamps each parameter's ``name`` so hooks and fusion buffers
        can report which layer a gradient belongs to.
        """
        for attr, value in vars(self).items():
            if attr == "training":
                continue
            path = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Parameter):
                value.name = path
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(path)
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{idx}")
                    elif isinstance(item, Parameter):
                        item.name = f"{path}.{idx}"
                        yield f"{path}.{idx}", item

    def parameters(self) -> List[Parameter]:
        """All parameters in deterministic (attribute/definition) order."""
        return [param for _, param in self.named_parameters()]

    @property
    def dtype(self) -> np.dtype:
        """The one floating dtype of the parameters: the training path's.

        Gradients, the arena slabs, the optimizer's velocity, compressor
        state and the wire all follow it (float32 unless the model was
        cast). A model whose parameters disagree is rejected.
        """
        dtypes = {param.data.dtype for param in self.parameters()}
        if len(dtypes) != 1:
            raise ValueError(
                f"a model's parameters must share one dtype, got "
                f"{sorted(map(str, dtypes)) or 'no parameters'}"
            )
        return dtypes.pop()

    def astype(self, dtype) -> "Module":
        """Cast every parameter and floating buffer to ``dtype``, in place;
        returns ``self``.

        The one cast from ``repro.nn``'s float32 to another precision (the
        gradient checks and exact references build float64 models this
        way). Cast before anything binds the parameters' gradients.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
        modules = [self]
        while modules:
            module = modules.pop()
            modules.extend(module.submodules())
            for attr, value in list(vars(module).items()):
                if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    setattr(module, attr, value.astype(dtype))
        return self

    def as_input(self, x: np.ndarray) -> np.ndarray:
        """A floating batch in this model's dtype (integer ids pass through).

        The worker pass casts every batch once here, so a float64 data set
        cannot promote a float32 model's activations and gradients.
        """
        if x.dtype.kind != "f":
            return x
        return x.astype(self.dtype, copy=False)

    def num_parameters(self) -> int:
        """Total element count across all parameters."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def submodules(self) -> Iterator["Module"]:
        """Yield direct child modules (including those in lists/tuples)."""
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def train(self) -> "Module":
        """Switch this module and all children to training mode."""
        self.training = True
        for child in self.submodules():
            child.train()
        return self

    def eval(self) -> "Module":
        """Switch this module and all children to inference mode."""
        self.training = False
        for child in self.submodules():
            child.eval()
        return self

    # ------------------------------------------------------------------
    # Forward / backward protocol
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------
    # State (for broadcasting initial weights across workers)
    # ------------------------------------------------------------------
    def state_vector(self) -> np.ndarray:
        """Flatten all parameters into one vector (deterministic order)."""
        params = self.parameters()
        if not params:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate([param.data.reshape(-1) for param in params])

    def load_state_vector(self, vector: np.ndarray) -> None:
        """Inverse of :meth:`state_vector`; values are cast to each
        parameter's dtype."""
        expected = self.num_parameters()
        if vector.size != expected:
            raise ValueError(
                f"state vector has {vector.size} elements, model has {expected}"
            )
        offset = 0
        for param in self.parameters():
            count = param.size
            param.data = vector[offset : offset + count].reshape(param.shape).astype(
                param.data.dtype
            )
            offset += count
