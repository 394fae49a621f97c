"""Minimal dense-tensor engine with reverse-mode autodiff and Adam.

Tensors wrap numpy arrays (float32 by default, float64 behind the
``precision`` context for gradient checking). Every differentiable op
attaches a closure that propagates gradients to its inputs; ``backward``
walks the recorded graph in reverse topological order, then unlinks it so
reference counting frees it. Inside ``no_grad`` no op records a graph.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


def default_dtype():
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}, use float32 or float64")
    _DEFAULT_DTYPE = dtype.type


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the construction dtype, e.g. precision('float64')."""
    global _DEFAULT_DTYPE
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: every result is a constant leaf."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


class Tensor:
    """A numpy-backed node in a dynamically built computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _children=()):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = _children

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _result(data, children, backward):
        if not _GRAD_ENABLED or not any(c.requires_grad for c in children):
            return Tensor(data)
        out = Tensor(data, requires_grad=True, _children=tuple(children))
        out._backward = backward
        return out

    def _acc(self, g) -> None:
        # accumulate an already shape-matched gradient
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    @staticmethod
    def _unbroadcast(grad, shape):
        """Sum a gradient down to the shape the operand had before broadcasting."""
        while grad.ndim > len(shape):
            grad = grad.sum(axis=0)
        for ax, dim in enumerate(shape):
            if dim == 1 and grad.shape[ax] != 1:
                grad = grad.sum(axis=ax, keepdims=True)
        return grad

    def backward(self) -> None:
        if self.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        self._unlink(run_backward=True)

    def _unlink(self, run_backward: bool = False) -> None:
        """Walk the graph behind self from the output back, running each
        closure if asked, and drop every closure and input link.

        Each closure refers to its own node; with closures and links gone
        no cycle is left for the cyclic GC to find.
        """
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))
        for node in reversed(order):
            if run_backward and node._backward is not None:
                node._backward()
            node._backward = None
            node._prev = ()

    # -- elementwise arithmetic --------------------------------------------

    @staticmethod
    def _wrap(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward():
            g = out.grad
            self._acc(self._unbroadcast(g, self.data.shape))
            other._acc(self._unbroadcast(g, other.data.shape))

        out = self._result(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward():
            g = out.grad
            self._acc(self._unbroadcast(g * other.data, self.data.shape))
            other._acc(self._unbroadcast(g * self.data, other.data.shape))

        out = self._result(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __truediv__(self, other):
        other = self._wrap(other)
        return self * other ** -1.0

    def __rtruediv__(self, other):
        return self._wrap(other) * self ** -1.0

    def __pow__(self, n):
        if not isinstance(n, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** n

        def backward():
            self._acc(out.grad * n * self.data ** (n - 1))

        out = self._result(out_data, (self,), backward)
        return out

    def exp(self):
        out_data = np.exp(self.data)

        def backward():
            self._acc(out.grad * out.data)

        out = self._result(out_data, (self,), backward)
        return out

    def log(self):
        out_data = np.log(self.data)

        def backward():
            self._acc(out.grad / self.data)

        out = self._result(out_data, (self,), backward)
        return out

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward():
            self._acc(out.grad * (1.0 - out.data * out.data))

        out = self._result(out_data, (self,), backward)
        return out

    def sigmoid(self):
        # stable in both tails
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.abs(self.data))),
            np.exp(-np.abs(self.data)) / (1.0 + np.exp(-np.abs(self.data))),
        ).astype(self.data.dtype)

        def backward():
            self._acc(out.grad * out.data * (1.0 - out.data))

        out = self._result(out_data, (self,), backward)
        return out

    # -- reductions and reshaping ------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._acc(np.broadcast_to(g, self.data.shape).astype(self.data.dtype))

        out = self._result(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward():
            self._acc(out.grad.reshape(self.data.shape))

        out = self._result(out_data, (self,), backward)
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inv = np.argsort(axes)

        def backward():
            self._acc(out.grad.transpose(inv))

        out = self._result(out_data, (self,), backward)
        return out

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def backward():
            buf = np.zeros_like(self.data)
            np.add.at(buf, idx, out.grad)
            self._acc(buf)

        out = self._result(out_data, (self,), backward)
        return out

    # -- matrix product ------------------------------------------------------

    def matmul(self, other):
        other = self._wrap(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul requires 2-D operands, got shapes {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
        out_data = a @ b

        def backward():
            g = out.grad
            self._acc(self._unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
            other._acc(self._unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))

        out = self._result(out_data, (self, other), backward)
        return out

    __matmul__ = matmul


def cat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward():
        start = 0
        for t, n in zip(tensors, sizes):
            sl = [slice(None)] * out_data.ndim
            sl[axis] = slice(start, start + n)
            t._acc(out.grad[tuple(sl)])
            start += n

    out = Tensor._result(out_data, tuple(tensors), backward)
    return out


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: ids of shape S give output of shape S+(d,)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding id out of range for table of {table.data.shape[0]} rows")
    out_data = table.data[ids]

    def backward():
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, out.grad)
        table._acc(buf)

    out = Tensor._result(out_data, (table,), backward)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale and shift."""
    d = x.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty last dimension")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return xc * inv * gain + bias


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x.data.max(axis=axis, keepdims=True)  # constant, no grad path
    e = (x - Tensor(shift)).exp()
    return e / e.sum(axis=axis, keepdims=True)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    c = math.sqrt(2.0 / math.pi)
    inner = (x + 0.044715 * (x * x * x)) * c
    return 0.5 * x * (1.0 + inner.tanh())


def dropout(x: Tensor, p: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    if not train or p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(keep)


def softmax_ce(logits: Tensor, target_ids, reduction: str = "mean") -> Tensor:
    """Cross-entropy over the last axis of [n, V] logits; grad is softmax minus one-hot."""
    if logits.ndim != 2:
        raise ValueError(f"softmax_ce expects [n, V] logits, got shape {logits.shape}")
    targets = np.asarray(target_ids, dtype=np.int64).reshape(-1)
    n, v = logits.shape
    if targets.shape[0] != n:
        raise ValueError(f"softmax_ce: {n} rows but {targets.shape[0]} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"softmax_ce target out of range [0, {v})")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_z
    nll = -log_probs[np.arange(n), targets]
    scale = 1.0 / n if reduction == "mean" else 1.0
    out_data = np.asarray(nll.sum() * scale, dtype=logits.data.dtype)

    def backward():
        sm = np.exp(log_probs)
        sm[np.arange(n), targets] -= 1.0
        logits._acc((out.grad * scale) * sm.astype(logits.data.dtype))

    out = Tensor._result(out_data, (logits,), backward)
    return out


def bce_multilabel(probs: Tensor, targets, eps: float = 1e-7) -> Tensor:
    """Summed binary cross-entropy over the label axis; mean over rows if batched.

    Probabilities are clamped to [eps, 1-eps] so exact 0/1 never produce NaN.
    """
    y = np.asarray(targets, dtype=probs.data.dtype)
    if y.shape != probs.shape:
        raise ValueError(f"bce_multilabel: probs {probs.shape} vs targets {y.shape}")
    p = np.clip(probs.data, eps, 1.0 - eps)
    per_elem = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    scale = 1.0 / probs.shape[0] if probs.ndim == 2 else 1.0
    out_data = np.asarray(per_elem.sum() * scale, dtype=probs.data.dtype)

    def backward():
        inside = (probs.data > eps) & (probs.data < 1.0 - eps)
        g = (p - y) / (p * (1.0 - p)) * inside
        probs._acc((out.grad * scale) * g.astype(probs.data.dtype))

    out = Tensor._result(out_data, (probs,), backward)
    return out


def gru_params(d_in: int, d_h: int, rng: np.random.Generator) -> dict:
    """Glorot-initialized parameter dict for gru_cell."""
    def mat(rows, cols):
        bound = math.sqrt(6.0 / (rows + cols))
        return Tensor(rng.uniform(-bound, bound, (rows, cols)).astype(_DEFAULT_DTYPE),
                      requires_grad=True)

    params = {}
    for gate in ("z", "r", "h"):
        params[f"w_{gate}"] = mat(d_in, d_h)
        params[f"u_{gate}"] = mat(d_h, d_h)
        params[f"b_{gate}"] = Tensor(np.zeros(d_h, dtype=_DEFAULT_DTYPE), requires_grad=True)
    return params


def gru_cell(x_t: Tensor, h_prev: Tensor, params: dict) -> Tensor:
    """One GRU step on [B, d_in] input and [B, d_h] state.

    Update gate z keeps the previous state: h' = z*h_prev + (1-z)*h_cand.
    """
    if x_t.ndim != 2 or h_prev.ndim != 2:
        raise ValueError(f"gru_cell expects 2-D x and h, got {x_t.shape} and {h_prev.shape}")
    z = (x_t @ params["w_z"] + h_prev @ params["u_z"] + params["b_z"]).sigmoid()
    r = (x_t @ params["w_r"] + h_prev @ params["u_r"] + params["b_r"]).sigmoid()
    h_cand = (x_t @ params["w_h"] + (r * h_prev) @ params["u_h"] + params["b_h"]).tanh()
    return z * h_prev + (1.0 - z) * h_cand


class Adam:
    """Bias-corrected Adam over a parameter list.

    lr is a plain attribute, so a schedule may change it between steps.
    Parameters whose grad is None are skipped by a step.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update, in place on each param's data."""
        self.t += 1
        t = self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / (1.0 - self.beta1 ** t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** t)
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def fit(params, loss_fn, epochs: int, lr: float, loss_target=None) -> list:
    """Full-batch Adam: one step on loss_fn() per epoch; returns the losses.

    Each epoch's loss is recorded before its step. With a loss_target the
    loop stops, without stepping, at the first loss below it.
    """
    opt = Adam(params, lr=lr)
    losses = []
    for _ in range(epochs):
        loss = loss_fn()
        losses.append(float(loss.data))
        if loss_target is not None and losses[-1] < loss_target:
            loss._unlink()
            break
        opt.zero_grad()
        loss.backward()
        opt.step()
    return losses
