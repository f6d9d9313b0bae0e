"""Define-by-run automatic differentiation on numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations that
produced it.  Calling :meth:`Tensor.backward` on a scalar loss walks the
graph in reverse topological order and accumulates gradients into every
tensor with ``requires_grad=True``.

Design notes:

* Gradients are plain ``ndarray``s (not Tensors): the library never
  needs higher-order derivatives.
* Broadcasting is supported for the arithmetic operators; gradients are
  reduced back to the operand shapes by :func:`_unbroadcast`.
* All tensors are ``float64``, so finite-difference gradient checks are
  meaningful to ~1e-7.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

from repro.nn import fastpath

__all__ = [
    "Tensor",
    "concat",
    "no_grad",
    "is_grad_enabled",
    "stack",
    "linear",
    "masked_softmax",
]

_STATE = fastpath.THREAD_STATE


@contextlib.contextmanager
def no_grad():
    """Disable graph construction on the calling thread within the block
    (inference mode)."""
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def is_grad_enabled() -> bool:
    """True when operations on the calling thread record the autograd graph."""
    return _STATE.grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _may_duplicate(index) -> bool:
    """True when an index expression could address an element twice.

    Slices, integers, ellipses and ``None`` cannot repeat positions;
    array/sequence (fancy) indices can.
    """
    parts = index if isinstance(index, tuple) else (index,)
    return any(
        not (part is None or part is Ellipsis or isinstance(part, (slice, int, np.integer)))
        for part in parts
    )


def _as_array(value) -> np.ndarray:
    dtype = fastpath.default_dtype()
    if isinstance(value, np.ndarray):
        return value.astype(dtype, copy=False)
    return np.asarray(value, dtype=dtype)


class Tensor:
    """An autograd-aware array.

    Args:
        data: array-like payload; stored as ``float64``.
        requires_grad: whether gradients should accumulate into this
            tensor during :meth:`backward`.
        name: optional label used in error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    # Make numpy hand mixed expressions (``ndarray + Tensor``) back to
    # Python so our reflected operators run instead of numpy broadcasting
    # over a Tensor "object scalar".
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _STATE.grad_enabled and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    @staticmethod
    def ensure(value) -> "Tensor":
        """Coerce scalars/arrays to a constant Tensor."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """The value of a single-element tensor as a Python float."""
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A constant tensor sharing this tensor's data."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    # -- autograd engine --------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 and must be supplied for non-scalars.
        """
        if not self.requires_grad and self._backward is None:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad is only valid for scalars")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} does not match tensor {self.data.shape}")

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf with requires_grad: accumulate the result.
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            node._backward_accumulate(node_grad, grads)

    def _backward_accumulate(self, grad: np.ndarray, grads: dict) -> None:
        """Invoke the op's backward and merge parent contributions."""
        contributions = self._backward(grad)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

    def _topological_order(self) -> list["Tensor"]:
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data + other.data

        def backward(grad):
            return (
                _unbroadcast(grad, self.data.shape),
                _unbroadcast(grad, other.data.shape),
            )

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), lambda grad: (-grad,))

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.data.shape),
                _unbroadcast(grad * self.data, other.data.shape),
            )

        return Tensor._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.data.shape),
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape),
            )

        return Tensor._from_op(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._from_op(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return grad * b, grad * a
            if a.ndim == 1:  # (k,) @ (..., k, n)
                grad_a = (grad[..., None, :] * b).sum(axis=-1)
                grad_a = _unbroadcast(grad_a, a.shape)
                grad_b = a[:, None] * grad[..., None, :]
                return grad_a, _unbroadcast(grad_b, b.shape)
            if b.ndim == 1:  # (..., m, k) @ (k,)
                grad_a = grad[..., :, None] * b
                grad_b = (a * grad[..., :, None]).sum(axis=tuple(range(a.ndim - 1)))
                return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)

        return Tensor._from_op(data, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return Tensor.ensure(other) @ self

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad, self.data.shape).copy(),)
            grad_expanded = grad
            if not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    grad_expanded = np.expand_dims(grad_expanded, a)
            return (np.broadcast_to(grad_expanded, self.data.shape).copy(),)

        return Tensor._from_op(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (the flavour LayerNorm uses)."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            grad_expanded = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for a in sorted(a % self.data.ndim for a in axes):
                    grad_expanded = np.expand_dims(grad_expanded, a)
            return (mask * grad_expanded,)

        return Tensor._from_op(data, (self,), backward)

    # -- shape manipulation --------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._from_op(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._from_op(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad):
            return (np.swapaxes(grad, axis1, axis2),)

        return Tensor._from_op(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape

        def backward(grad):
            out = np.zeros(shape, dtype=grad.dtype)
            if fastpath.fused_ops_enabled() and not _may_duplicate(index):
                # Basic (slice/int) indexing touches each element at most
                # once, so an in-place add on the view replaces the much
                # slower buffered ``np.add.at`` bit-for-bit.
                out[index] += grad
            else:
                np.add.at(out, index, grad)
            return (out,)

        return Tensor._from_op(data, (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows of a 2-D tensor: ``out[i...] = self[indices[i...]]``.

        This is the embedding-lookup primitive; ``indices`` may have any
        shape and the result has shape ``indices.shape + (self.shape[1],)``.
        """
        if self.data.ndim != 2:
            raise ValueError("take_rows expects a 2-D tensor (a table of rows)")
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]
        shape = self.data.shape

        def backward(grad):
            out = np.zeros(shape, dtype=grad.dtype)
            np.add.at(out, indices.reshape(-1), grad.reshape(-1, shape[1]))
            return (out,)

        return Tensor._from_op(data, (self,), backward)

    # -- element-wise nonlinearities -----------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._from_op(data, (self,), lambda grad: (grad * data,))

    def log(self) -> "Tensor":
        data = np.log(self.data)
        return Tensor._from_op(data, (self,), lambda grad: (grad / self.data,))

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return Tensor._from_op(data, (self,), lambda grad: (grad * 0.5 / data,))

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        return Tensor._from_op(data, (self,), lambda grad: (grad * (1.0 - data**2),))

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._from_op(data, (self,), lambda grad: (grad * data * (1.0 - data),))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, 0.0)
        return Tensor._from_op(data, (self,), lambda grad: (grad * mask,))

    def gelu(self) -> "Tensor":
        """Gaussian Error Linear Unit (tanh approximation, as in BERT).

        The fused-ops variant performs the same arithmetic in the same
        order but chains it through in-place buffer updates (three
        temporaries instead of eight each way), so values and gradients
        stay bit-identical to the composite implementation.
        """
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        if not fastpath.fused_ops_enabled():
            inner = c * (x + 0.044715 * x**3)
            t = np.tanh(inner)
            data = 0.5 * x * (1.0 + t)

            def backward(grad):
                dinner = c * (1.0 + 3 * 0.044715 * x**2)
                dt = (1.0 - t**2) * dinner
                return (grad * (0.5 * (1.0 + t) + 0.5 * x * dt),)

            return Tensor._from_op(data, (self,), backward)

        # ``x*x*x`` instead of ``x**3``: libm's pow costs ~60ns/element
        # and dominates the whole training step; the explicit product is
        # ~30x faster and differs by at most 1 ulp.  This is the single
        # deliberate arithmetic deviation of the fused path — every
        # other fused op is bit-identical to its composite twin (the
        # golden training tests bound the resulting loss-history drift).
        t = x * x
        np.multiply(t, x, out=t)
        np.multiply(t, 0.044715, out=t)
        np.add(t, x, out=t)
        np.multiply(t, c, out=t)
        np.tanh(t, out=t)
        data = x * 0.5
        shifted = fastpath.scratch(x.shape, x.dtype)
        np.add(t, 1.0, out=shifted)
        np.multiply(data, shifted, out=data)

        def backward(grad):
            dinner = fastpath.scratch(x.shape, grad.dtype)
            np.multiply(x, x, out=dinner)  # x**2 lowers to x*x bitwise
            np.multiply(dinner, 3 * 0.044715, out=dinner)
            np.add(dinner, 1.0, out=dinner)
            np.multiply(dinner, c, out=dinner)
            dt = fastpath.scratch(x.shape, grad.dtype, slot=1)
            np.multiply(t, t, out=dt)
            np.subtract(1.0, dt, out=dt)
            np.multiply(dt, dinner, out=dt)
            out = t + 1.0
            np.multiply(out, 0.5, out=out)
            half_x = dinner
            np.multiply(x, 0.5, out=half_x)
            np.multiply(half_x, dt, out=half_x)
            np.add(out, half_x, out=out)
            np.multiply(out, grad, out=out)
            return (out,)

        return Tensor._from_op(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        return Tensor._from_op(data, (self,), lambda grad: (grad * np.sign(self.data),))

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad):
            dot = (grad * data).sum(axis=axis, keepdims=True)
            return (data * (grad - dot),)

        return Tensor._from_op(data, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is True with ``value`` (constant)."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)

        def backward(grad):
            return (np.where(mask, 0.0, grad),)

        return Tensor._from_op(data, (self,), backward)

    def dropout(self, rate: float, rng: np.random.Generator) -> "Tensor":
        """Inverted dropout: zero entries with probability ``rate``."""
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        if rate == 0.0:
            return self
        keep = 1.0 - rate
        mask = (rng.random(self.data.shape) < keep) / keep
        data = self.data * mask
        return Tensor._from_op(data, (self,), lambda grad: (grad * mask,))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [Tensor.ensure(t) for t in tensors]
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, boundaries, axis=axis))

    return Tensor._from_op(data, tuple(tensors), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused affine map ``x @ weight (+ bias)`` as a single graph node.

    Bit-identical to the composite ``x @ W + b`` chain: the forward adds
    the bias into the matmul output buffer instead of allocating a
    second array, and the backward replays the exact arithmetic the
    autograd engine performed over the two composite nodes (including
    the single-call axis reductions of ``_unbroadcast``), just without
    the intermediate node, closure and gradient-dict traffic.

    ``x`` must have at least 2 dimensions (the composite path still
    covers the exotic 1-D case).
    """
    x = Tensor.ensure(x)
    if x.ndim < 2:
        raise ValueError(f"linear() expects a 2-D+ input, got shape {x.shape}")
    data = x.data @ weight.data
    if bias is not None:
        np.add(data, bias.data, out=data)

    def _grad_w(grad):
        """Weight gradient, batching into a pooled buffer when 3-D+."""
        if x.data.ndim == 2:
            return np.swapaxes(x.data, -1, -2) @ grad
        batched = fastpath.scratch(
            x.data.shape[:-2] + (x.data.shape[-1], grad.shape[-1]), grad.dtype
        )
        np.matmul(np.swapaxes(x.data, -1, -2), grad, out=batched)
        return _unbroadcast(batched, weight.data.shape)

    if bias is None:

        def backward(grad):
            grad_x = grad @ np.swapaxes(weight.data, -1, -2)
            return (grad_x, _grad_w(grad))

        return Tensor._from_op(data, (x, weight), backward)

    def backward(grad):
        # Contribution order matches the composite graph: the bias-add
        # node's backward ran before the matmul node's.
        grad_b = _unbroadcast(grad, bias.data.shape)
        grad_x = grad @ np.swapaxes(weight.data, -1, -2)
        return (grad_x, _grad_w(grad), grad_b)

    return Tensor._from_op(data, (x, weight, bias), backward)


def masked_softmax(x: Tensor, mask: np.ndarray | None = None, axis: int = -1) -> Tensor:
    """Fused (optionally masked) softmax as a single graph node.

    Bit-identical to ``masked_fill(mask, -1e9)`` + ``softmax`` without
    the intermediate autograd node: the mask (True = hide) folds into
    the shifted-exponential buffer in one pass, and the backward zeroes
    hidden positions exactly as the composite ``masked_fill`` backward
    did (this also covers fully-masked rows, which fall back to the
    composite's uniform distribution).
    """
    x = Tensor.ensure(x)
    if mask is None:
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
    else:
        mask = np.asarray(mask, dtype=bool)
        shifted = np.where(mask, x.data.dtype.type(-1e9), x.data)
        np.subtract(shifted, shifted.max(axis=axis, keepdims=True), out=shifted)
    np.exp(shifted, out=shifted)
    denom = shifted.sum(axis=axis, keepdims=True)
    data = shifted
    np.divide(shifted, denom, out=data)

    def backward(grad):
        tmp = grad * data
        dot = tmp.sum(axis=axis, keepdims=True)
        np.subtract(grad, dot, out=tmp)
        np.multiply(data, tmp, out=tmp)
        if mask is not None:
            # The composite masked_fill backward zeroed hidden scores.
            tmp[np.broadcast_to(mask, tmp.shape)] = 0.0
        return (tmp,)

    return Tensor._from_op(data, (x,), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [Tensor.ensure(t) for t in tensors]
    if not tensors:
        raise ValueError("stack needs at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(piece, axis=axis) for piece in pieces)

    return Tensor._from_op(data, tuple(tensors), backward)
