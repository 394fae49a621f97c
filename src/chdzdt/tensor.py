"""Minimal dense-tensor engine with reverse-mode autodiff and Adam.

Tensors wrap numpy arrays (float32 by default, float64 behind the
``precision`` context for gradient checking). Every differentiable op
attaches a closure that propagates gradients to its inputs; ``backward``
walks the recorded graph in reverse topological order, then unlinks it so
reference counting frees it. Inside ``no_grad`` no op records a graph.

The encoder's layers are single nodes with hand-written backward passes:
``linear`` (x @ w + b as 2-D GEMMs over all leading rows), ``layer_norm``,
``softmax`` (with an optional scale and constant additive mask), ``gelu``
and the BiGRU's ``gru_sequence``.

``Adam`` updates its parameters in place through flat moment buffers, a
block of at most ``BLOCK`` floats per pass of its formula; a step
allocates no array.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

from .errors import NumericalError

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True
LN_EPS = 1e-5
BCE_EPS = 1e-7
# floats an Adam step updates per pass of its formula
BLOCK = 2 ** 15


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the construction dtype, e.g. precision('float64')."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}, use float32 or float64")
    old = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype.type
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


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function, stable in both tails: exp(-|a|) never overflows."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


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

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _result(data, children, backward):
        if not _GRAD_ENABLED or not any(c.requires_grad for c in children):
            return Tensor(data)
        out = Tensor(data, requires_grad=True, _children=tuple(children))
        out._backward = backward
        return out

    def _acc(self, g, owned: bool = False) -> None:
        """Accumulate an already shape-matched gradient.

        owned says g is a fresh array nothing else refers to, so a first
        gradient adopts it; a view or an array also handed to another
        operand is copied.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g if owned and g.dtype == self.data.dtype \
                else g.astype(self.data.dtype)
        else:
            self.grad += g

    @staticmethod
    def _unbroadcast(grad, shape):
        """Sum a gradient down to the shape the operand had before
        broadcasting; grad itself when no axis was broadcast."""
        lead = grad.ndim - len(shape)
        axes = tuple(range(lead)) + tuple(
            lead + ax for ax, dim in enumerate(shape)
            if dim == 1 and grad.shape[lead + ax] != 1)
        if not axes:
            return grad
        return grad.sum(axis=axes).reshape(shape)

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
            for t in (self, other):
                u = self._unbroadcast(g, t.data.shape)
                t._acc(u, owned=u is not g)

        out = self._result(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward():
            g = out.grad
            self._acc(self._unbroadcast(g * other.data, self.data.shape), owned=True)
            other._acc(self._unbroadcast(g * self.data, other.data.shape), owned=True)

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
        out_data = self.data / other.data

        def backward():
            g = out.grad
            if self.requires_grad:
                self._acc(self._unbroadcast(g / other.data, self.data.shape), owned=True)
            if other.requires_grad:
                other._acc(self._unbroadcast(-g * out_data / other.data,
                                             other.data.shape), owned=True)

        out = self._result(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, n):
        if not isinstance(n, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** n

        def backward():
            self._acc(out.grad * n * self.data ** (n - 1), owned=True)

        out = self._result(out_data, (self,), backward)
        return out

    def exp(self):
        out_data = np.exp(self.data)

        def backward():
            self._acc(out.grad * out.data, owned=True)

        out = self._result(out_data, (self,), backward)
        return out

    def log(self):
        out_data = np.log(self.data)

        def backward():
            self._acc(out.grad / self.data, owned=True)

        out = self._result(out_data, (self,), backward)
        return out

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward():
            self._acc(out.grad * (1.0 - out.data * out.data), owned=True)

        out = self._result(out_data, (self,), backward)
        return out

    def sigmoid(self):
        out_data = _sigmoid(self.data)

        def backward():
            self._acc(out.grad * out.data * (1.0 - out.data), owned=True)

        out = self._result(out_data, (self,), backward)
        return out

    # -- reductions and reshaping ------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._acc(np.broadcast_to(g, self.data.shape).astype(self.data.dtype), owned=True)

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
            self._acc(buf, owned=True)

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
            self._acc(self._unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape), owned=True)
            other._acc(self._unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape), owned=True)

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
    return table[ids]


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[..., d_in] @ w[d_in, d_out] + b[d_out] as one node.

    Leading axes are flattened into rows, so the forward product and both
    backward products are 2-D GEMMs; the weight gradient is one GEMM over
    every row.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ValueError(f"linear: input {x.shape}, weight {w.shape} and "
                         f"bias {b.shape} do not fit")
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    out_data = (x2 @ w.data + b.data).reshape(x.shape[:-1] + (d_out,))

    def backward():
        g = out.grad.reshape(-1, d_out)
        if w.requires_grad:
            w._acc(x2.T @ g, owned=True)
        if b.requires_grad:
            b._acc(g.sum(axis=0), owned=True)
        if x.requires_grad:
            x._acc((g @ w.data.T).reshape(x.shape), owned=True)

    out = Tensor._result(out_data, (x, w, b), backward)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale and
    shift. One node; the input gradient is the closed form of Ba et al.
    2016: inv * (dy - mean(dy) - xhat * mean(dy * xhat)) with dy = g * gain.
    """
    d = x.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty last dimension")
    # means as sums times 1/d: ndarray.mean costs more Python per call
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / d)
    inv = ((xc * xc).sum(axis=-1, keepdims=True) * (1.0 / d) + LN_EPS) ** -0.5
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward():
        g = out.grad
        if gain.requires_grad:
            gain._acc(Tensor._unbroadcast(g * xhat, gain.shape), owned=True)
        if bias.requires_grad:
            db = Tensor._unbroadcast(g, bias.shape)
            bias._acc(db, owned=db is not g)
        if x.requires_grad:
            dy = g * gain.data
            dx = dy - dy.sum(axis=-1, keepdims=True) * (1.0 / d)
            dy *= xhat
            dx -= xhat * (dy.sum(axis=-1, keepdims=True) * (1.0 / d))
            dx *= inv
            x._acc(dx, owned=True)

    out = Tensor._result(out_data, (x, gain, bias), backward)
    return out


def softmax(x: Tensor, axis: int = -1, *, scale: float = 1.0, add=None) -> Tensor:
    """softmax(x * scale + add) along axis, as one node.

    add is a constant array (no gradient) broadcast onto the scaled input;
    -1e9 on masked columns underflows their weights to exactly 0.
    """
    z = x.data * scale if scale != 1.0 else x.data
    if add is not None:
        z = z + add
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward():
        gs = out.grad * out_data
        dz = gs - out_data * gs.sum(axis=axis, keepdims=True)
        if scale != 1.0:
            dz *= scale
        x._acc(dz, owned=True)

    out = Tensor._result(out_data, (x,), backward)
    return out


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU, 0.5 x (1 + tanh(c (x + 0.044715 x^3))), as
    one node."""
    c = math.sqrt(2.0 / math.pi)
    xd = x.data
    th = np.tanh((xd + 0.044715 * (xd * xd * xd)) * c)
    out_data = 0.5 * xd * (1.0 + th)

    def backward():
        slope = 0.5 * (1.0 + th) + (0.5 * xd) * (1.0 - th * th) \
            * (c * (1.0 + 3.0 * 0.044715 * (xd * xd)))
        x._acc(out.grad * slope, owned=True)

    out = Tensor._result(out_data, (x,), backward)
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    if p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(keep)


def softmax_ce(logits: Tensor, target_ids) -> Tensor:
    """Mean cross-entropy over the rows of [n, V] logits; grad is (softmax
    minus one-hot) / n."""
    if logits.ndim != 2:
        raise ValueError(f"softmax_ce expects [n, V] logits, got shape {logits.shape}")
    targets = np.asarray(target_ids, dtype=np.int64).reshape(-1)
    n, v = logits.shape
    if targets.shape[0] != n:
        raise ValueError(f"softmax_ce: {n} rows but {targets.shape[0]} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise IndexError(f"softmax_ce target out of range [0, {v})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_z
    nll = -log_probs[np.arange(n), targets]
    scale = 1.0 / n
    out_data = np.asarray(nll.sum() * scale, dtype=logits.data.dtype)

    def backward():
        sm = np.exp(log_probs)
        sm[np.arange(n), targets] -= 1.0
        logits._acc((out.grad * scale) * sm.astype(logits.data.dtype), owned=True)

    out = Tensor._result(out_data, (logits,), backward)
    return out


def bce_multilabel(probs: Tensor, targets) -> Tensor:
    """Summed binary cross-entropy over the label axis; mean over rows if batched.

    Probabilities are clamped to [BCE_EPS, 1-BCE_EPS] so exact 0/1 never
    produce NaN.
    """
    y = np.asarray(targets, dtype=probs.data.dtype)
    if y.shape != probs.shape:
        raise ValueError(f"bce_multilabel: probs {probs.shape} vs targets {y.shape}")
    p = np.clip(probs.data, BCE_EPS, 1.0 - BCE_EPS)
    per_elem = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    scale = 1.0 / probs.shape[0] if probs.ndim == 2 else 1.0
    out_data = np.asarray(per_elem.sum() * scale, dtype=probs.data.dtype)

    def backward():
        inside = (probs.data > BCE_EPS) & (probs.data < 1.0 - BCE_EPS)
        g = (p - y) / (p * (1.0 - p)) * inside
        probs._acc((out.grad * scale) * g.astype(probs.data.dtype), owned=True)

    out = Tensor._result(out_data, (probs,), backward)
    return out


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A [rows, cols] Glorot-uniform draw in the default dtype:
    U(-b, b) with b = sqrt(6 / (rows + cols))."""
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, (rows, cols)).astype(_DEFAULT_DTYPE)


def gru_params(d_in: int, d_h: int, rng: np.random.Generator) -> dict:
    """Glorot-initialized parameters for gru_sequence, gates fused z|r|h.

    w is [d_in, 3*d_h], u is [d_h, 3*d_h] and b is [3*d_h]; column block
    k of w and u is drawn as its own Glorot matrix, w before u, gate by gate.
    """
    blocks = [(glorot(rng, d_in, d_h), glorot(rng, d_h, d_h))
              for _ in ("z", "r", "h")]
    return {"w": Tensor(np.concatenate([w for w, _ in blocks], axis=1),
                        requires_grad=True),
            "u": Tensor(np.concatenate([u for _, u in blocks], axis=1),
                        requires_grad=True),
            "b": Tensor(np.zeros(3 * d_h, dtype=_DEFAULT_DTYPE),
                        requires_grad=True)}


def gru_sequence(x: Tensor, mask, params: dict, reverse: bool = False,
                 h0: Tensor | None = None) -> Tensor:
    """A masked GRU layer over [n, L, d_in] input: the [n, L, d_h] states.

    One step: z|r = sigmoid(x_t W_zr + h U_zr + b_zr),
    c = tanh(x_t W_h + (r*h) U_h + b_h), new = z*h + (1-z)*c, and
    h' = new*m + h*(1-m) for the step's mask column m, so padded steps
    keep their state. reverse runs t = L-1 .. 0; h0 (default zeros) is the
    state before the first step. The input projection of all steps is one
    GEMM; the whole layer is one autodiff node whose backward runs BPTT by
    hand and finishes the weight gradients with one GEMM over all n*L rows.
    """
    w, u, b = params["w"], params["u"], params["b"]
    if x.ndim != 3:
        raise ValueError(f"gru_sequence expects [n, L, d] input, got {x.shape}")
    n, length, d_in = x.shape
    d_h = u.shape[0]
    if w.shape != (d_in, 3 * d_h) or u.shape != (d_h, 3 * d_h) or b.shape != (3 * d_h,):
        raise ValueError(f"gru_sequence: params w {w.shape}, u {u.shape}, b {b.shape} "
                         f"do not fit input width {d_in}")
    dtype = x.data.dtype
    m = np.asarray(mask, dtype=dtype)
    if m.shape != (n, length):
        raise ValueError(f"gru_sequence: mask {m.shape} vs input {x.shape}")
    children = (x, w, u, b) if h0 is None else (x, w, u, b, h0)
    record = _GRAD_ENABLED and any(c.requires_grad for c in children)

    u_zr = u.data[:, :2 * d_h]
    u_h = u.data[:, 2 * d_h:]
    gx = (x.data.reshape(n * length, d_in) @ w.data + b.data).reshape(n, length, 3 * d_h)
    h = np.zeros((n, d_h), dtype=dtype) if h0 is None else h0.data
    first = h
    steps = range(length - 1, -1, -1) if reverse else range(length)
    out_data = np.empty((n, length, d_h), dtype=dtype)
    if record:
        zr_seq = np.empty((n, length, 2 * d_h), dtype=dtype)
        c_seq = np.empty((n, length, d_h), dtype=dtype)
    for t in steps:
        zr = _sigmoid(gx[:, t, :2 * d_h] + h @ u_zr)
        z, r = zr[:, :d_h], zr[:, d_h:]
        c = np.tanh(gx[:, t, 2 * d_h:] + (r * h) @ u_h)
        mt = m[:, t, None]
        h = (z * h + (1.0 - z) * c) * mt + h * (1.0 - mt)
        out_data[:, t] = h
        if record:
            zr_seq[:, t] = zr
            c_seq[:, t] = c
    if not record:
        return Tensor(out_data)

    def backward():
        g = out.grad
        # state before each step, in the input's [n, L] layout
        h_prev = np.empty_like(out_data)
        if reverse:
            h_prev[:, :-1] = out_data[:, 1:]
            h_prev[:, -1] = first
        else:
            h_prev[:, 1:] = out_data[:, :-1]
            h_prev[:, 0] = first
        # gradient of each step's pre-activations, z|r|h
        da = np.empty((n, length, 3 * d_h), dtype=dtype)
        dh = np.zeros((n, d_h), dtype=dtype)
        for t in reversed(steps):
            dh = dh + g[:, t]
            mt = m[:, t, None]
            hp = h_prev[:, t]
            z, r = zr_seq[:, t, :d_h], zr_seq[:, t, d_h:]
            c = c_seq[:, t]
            dnew = dh * mt
            dac = dnew * (1.0 - z) * (1.0 - c * c)
            da[:, t, 2 * d_h:] = dac
            drh = dac @ u_h.T
            da[:, t, :d_h] = dnew * (hp - c) * z * (1.0 - z)
            da[:, t, d_h:2 * d_h] = drh * hp * r * (1.0 - r)
            dh = dh * (1.0 - mt) + dnew * z + drh * r + da[:, t, :2 * d_h] @ u_zr.T
        rows = da.reshape(n * length, 3 * d_h)
        if u.requires_grad:
            du = np.empty_like(u.data)
            du[:, :2 * d_h] = h_prev.reshape(-1, d_h).T @ rows[:, :2 * d_h]
            rh = (zr_seq[:, :, d_h:] * h_prev).reshape(-1, d_h)
            du[:, 2 * d_h:] = rh.T @ rows[:, 2 * d_h:]
            u._acc(du, owned=True)
        if w.requires_grad:
            w._acc(x.data.reshape(n * length, d_in).T @ rows, owned=True)
        b._acc(rows.sum(axis=0), owned=True)
        if x.requires_grad:
            x._acc((rows @ w.data.T).reshape(x.shape), owned=True)
        if h0 is not None:
            h0._acc(dh, owned=True)

    out = Tensor._result(out_data, children, backward)
    return out


def gru_cell(x_t: Tensor, h_prev: Tensor, params: dict) -> Tensor:
    """One GRU step on [B, d_in] input and [B, d_h] state: gru_sequence of
    length one. The update gate z keeps the previous state:
    h' = z*h_prev + (1-z)*h_cand.
    """
    if x_t.ndim != 2 or h_prev.ndim != 2:
        raise ValueError(f"gru_cell expects 2-D x and h, got {x_t.shape} and {h_prev.shape}")
    n, d_in = x_t.shape
    out = gru_sequence(x_t.reshape(n, 1, d_in), np.ones((n, 1)), params, h0=h_prev)
    return out.reshape(n, h_prev.shape[1])


class Adam:
    """Bias-corrected Adam over a parameter list of one dtype.

    The moments m and v are two flat buffers in params order. A step walks
    each run of consecutive params that have a grad in blocks of at most
    BLOCK floats: it gathers a block's grad pieces into one scratch row,
    updates that block of m and v, and subtracts each piece of the step
    from its param's data in place, so a step allocates no array and an
    encoder param stays a view of its state's flat buffer. Parameters
    whose grad is None are skipped, and their moments do not move. Every
    param's data must be C-contiguous: its flat view is where the step
    writes.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError("Adam needs params of one dtype, got "
                             + ", ".join(sorted(map(str, dtypes))))
        for i, p in enumerate(self.params):
            if not p.data.flags.c_contiguous:
                raise ValueError(f"Adam: the data of param {i}, shape "
                                 f"{p.data.shape}, is not C-contiguous")
        dtype = dtypes.pop() if dtypes else _DEFAULT_DTYPE
        self._ends = [0, *itertools.accumulate(p.data.size
                                               for p in self.params)]
        total = self._ends[-1]
        self.m = np.zeros(total, dtype)
        self.v = np.zeros(total, dtype)
        # two rows, one block long: the gathered grads, then the formula's
        # temporaries
        self._scratch = np.empty((2, min(BLOCK, total)), dtype)
        self._plans = {}

    def _plan(self, live) -> list:
        """The blocks of one live set (which params have a grad), each
        (m, v, step, g, pieces): views of the block's moments and of the
        two scratch rows, and per param in the block (index, start, stop,
        its piece of step) with start:stop a range of its flat data."""
        ends, blocks = self._ends, []
        for has_grad, run in itertools.groupby(range(len(live)),
                                               key=live.__getitem__):
            run = list(run)
            if not has_grad:
                continue
            stop = ends[run[-1] + 1]
            for lo in range(ends[run[0]], stop, BLOCK):
                hi = min(lo + BLOCK, stop)
                step, g = self._scratch[:, :hi - lo]
                pieces = []
                for k in run:
                    a, b = max(lo, ends[k]), min(hi, ends[k + 1])
                    if a < b:
                        pieces.append((k, a - ends[k], b - ends[k],
                                       step[a - lo:b - lo]))
                blocks.append((self.m[lo:hi], self.v[lo:hi], step, g,
                               pieces))
        return blocks

    def step(self) -> None:
        """One update, in place on each param's data and moments.

        Rounds exactly as m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        p -= lr * (m/c1) / (sqrt(v/c2) + eps) would, element by element;
        the two scratch rows stand in for that formula's temporaries.
        """
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        params = self.params
        live = tuple(p.grad is not None for p in params)
        plan = self._plans.get(live)
        if plan is None:
            plan = self._plans[live] = self._plan(live)
        for m, v, step, g, pieces in plan:
            # g holds the block's grads until m and v have taken them in,
            # then the denominator
            np.concatenate([params[k].grad.reshape(-1)[a:b]
                            for k, a, b, _ in pieces], out=g)
            np.multiply(g, g, out=step)
            step *= 1.0 - self.beta2
            v *= self.beta2
            v += step
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=step)
            denom = g
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, c1, out=step)
            step *= self.lr
            step /= denom
            for k, a, b, piece in pieces:
                data = params[k].data.reshape(-1)[a:b]
                data -= piece

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@np.errstate(over="ignore", invalid="ignore")
def fit(params, loss_fn, epochs: int, lr: float, loss_target=None) -> list:
    """Full-batch Adam: one step on loss_fn() per epoch; returns the losses.

    Each epoch's loss is recorded before its step. With a loss_target the
    loop stops, without stepping, at the first loss below it. A non-finite
    loss is a NumericalError naming its epoch, raised before its step; so
    are non-finite weights after the last step.
    """
    opt = Adam(params, lr=lr)
    losses = []
    for epoch in range(1, epochs + 1):
        loss = loss_fn()
        losses.append(float(loss.data))
        if not math.isfinite(losses[-1]):
            loss._unlink()
            raise NumericalError(f"non-finite loss {losses[-1]} at epoch "
                                 f"{epoch} of {epochs}")
        if loss_target is not None and losses[-1] < loss_target:
            loss._unlink()
            break
        opt.zero_grad()
        loss.backward()
        opt.step()
    if not all(np.isfinite(p.data).all() for p in opt.params):
        raise NumericalError(f"non-finite weights after step {opt.t} of "
                             f"{epochs}")
    return losses
