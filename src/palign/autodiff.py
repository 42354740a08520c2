"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

Just enough machinery to differentiate the alignment objective through a
small transformer encoder and the dense-probe heads: elementwise arithmetic,
(batched) matmul, reductions, indexing, concat, and a few nonlinearities.
`softmax`, `layer_norm` and `gelu` are single ops with closed-form backward
rules and numpy forwards equal to their elementwise compositions.
`linear` (x @ w.T + b on a 2-D x) and `softmax_expectation` (softmax(x) @
values, whose probabilities never leave the op) are single ops too, with
forwards equal to their compositions up to round-off. All tensors are float64
so finite-difference checks are meaningful.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "concat", "softmax", "softmax_expectation", "linear", "layer_norm", "gelu"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 array plus the graph edges needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @classmethod
    def _from_op(cls, data, parents, backward) -> "Tensor":
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __float__(self) -> float:
        return float(self.data)

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape) if self.requires_grad else None,
                _unbroadcast(grad, other.shape) if other.requires_grad else None,
            )

        return self._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return self._from_op(-self.data, (self,), lambda grad: (-grad,))

    def __sub__(self, other):
        # a - b is bit-equal to a + (-b), in one node rather than two
        other = self._lift(other)
        out_data = self.data - other.data

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape) if self.requires_grad else None,
                -_unbroadcast(grad, other.shape) if other.requires_grad else None,
            )

        return self._from_op(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape) if self.requires_grad else None,
                _unbroadcast(grad * self.data, other.shape) if other.requires_grad else None,
            )

        return self._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad):
            ga = _unbroadcast(grad / other.data, self.shape) if self.requires_grad else None
            gb = None
            if other.requires_grad:
                gb = _unbroadcast(-grad * self.data / (other.data**2), other.shape)
            return (ga, gb)

        return self._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._from_op(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul requires tensors with ndim >= 2")
        out_data = a @ b

        def backward(grad):
            # a 2-D operand's gradient contracts the other's batch axes in one
            # product, rather than summing a per-batch stack of it
            ga = gb = None
            if self.requires_grad and a.ndim == 2 < b.ndim:
                ga = np.tensordot(grad, b, axes=([*range(b.ndim - 2), -1],) * 2)
            elif self.requires_grad:
                ga = _unbroadcast(grad @ b.swapaxes(-1, -2), self.shape)
            if other.requires_grad and b.ndim == 2 < a.ndim:
                gb = np.tensordot(a, grad, axes=(list(range(a.ndim - 1)),) * 2)
            elif other.requires_grad:
                gb = _unbroadcast(a.swapaxes(-1, -2) @ grad, other.shape)
            return (ga, gb)

        return self._from_op(out_data, (self, other), backward)

    # -- reductions -------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if not keepdims and axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / count

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            return (grad.reshape(old_shape),)

        return self._from_op(out_data, (self,), backward)

    def transpose(self, axes=None):
        out_data = self.data.transpose(axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return self._from_op(out_data, (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        out_data = self.data[key]
        shape = self.shape

        def backward(grad):
            g = np.zeros(shape, dtype=np.float64)
            np.add.at(g, key, grad)
            return (g,)

        return self._from_op(out_data, (self,), backward)

    # -- nonlinearities ------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return self._from_op(out_data, (self,), backward)

    def log(self):
        out_data = np.log(self.data)

        def backward(grad):
            return (grad / self.data,)

        return self._from_op(out_data, (self,), backward)

    def sqrt(self):
        return self**0.5

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data**2),)

        return self._from_op(out_data, (self,), backward)

    def relu(self):
        out_data = np.maximum(self.data, 0.0)

        def backward(grad):
            # subgradient 0 at the kink, so margin-satisfied hinge terms
            # contribute exactly zero
            return (grad * (self.data > 0.0),)

        return self._from_op(out_data, (self,), backward)

    # -- backprop -------------------------------------------------------------

    def backward(self, grad=None):
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, splits, axis=axis))

    return Tensor._from_op(out_data, tensors, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax as one op: y = exp(x - max) / sum, with the
    closed-form backward y * (g - sum(g * y))."""
    e = np.exp(x.data - np.max(x.data, axis=axis, keepdims=True))
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        return (out_data * (grad - (grad * out_data).sum(axis=axis, keepdims=True)),)

    return Tensor._from_op(out_data, (x,), backward)


def softmax_expectation(x: Tensor, values) -> Tensor:
    """softmax(x) @ values along the last axis as one op, the probabilities
    p computed in place and kept inside it; the closed-form backward is
    p * (values - out) * g."""
    values = np.asarray(values, dtype=np.float64)
    probs = x.data - np.max(x.data, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out_data = probs @ values

    def backward(grad):
        g = values - out_data[..., None]
        g *= probs
        g *= grad[..., None]
        return (g,)

    return Tensor._from_op(out_data, (x,), backward)


def linear(x, w, b) -> Tensor:
    """x @ w.T + b for a 2-D x as one op, the bias added in place; the
    backward is G w for x, G.T x for w and the row sum of G for b."""
    x, w, b = (Tensor._lift(t) for t in (x, w, b))
    if x.data.ndim != 2:
        raise ValueError(f"linear needs a 2-D input, got shape {x.shape}")
    out_data = x.data @ w.data.T
    out_data += b.data

    def backward(grad):
        return (
            grad @ w.data if x.requires_grad else None,
            grad.T @ x.data if w.requires_grad else None,
            _unbroadcast(grad, b.shape) if b.requires_grad else None,
        )

    return Tensor._from_op(out_data, (x, w, b), backward)


def layer_norm(x: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean and unit variance (no affine), as
    one op: y = (x - mean) / sqrt(var + eps), with the closed-form backward
    (g - mean(g) - y * mean(g * y)) / sqrt(var + eps)."""
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / n
    std = ((centered * centered).sum(axis=-1, keepdims=True) / n + eps) ** 0.5
    out_data = centered / std

    def backward(grad):
        mean_g = grad.sum(axis=-1, keepdims=True) / n
        mean_gy = (grad * out_data).sum(axis=-1, keepdims=True) / n
        return ((grad - mean_g - out_data * mean_gy) / std,)

    return Tensor._from_op(out_data, (x,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_K = 0.044715


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU as one op: 0.5 x (1 + tanh(c (x + k x^3))),
    with the closed-form backward."""
    xd = x.data
    t = np.tanh(_GELU_C * (xd + _GELU_K * xd * xd * xd))
    out_data = 0.5 * xd * (1.0 + t)

    def backward(grad):
        dt = (1.0 - t * t) * _GELU_C * (1.0 + 3 * _GELU_K * xd * xd)  # d tanh(inner) / dx
        return (grad * (0.5 * (1.0 + t) + 0.5 * xd * dt),)

    return Tensor._from_op(out_data, (x,), backward)
