"""Minimal dense-tensor engine with reverse-mode autodiff and Adam.

Tensors wrap numpy arrays (float32 by default, float64 behind the
``precision`` context for gradient checking). An op states its forward
value and its gradient; ``Tensor._unary`` and ``Tensor._binary`` (which
sums a broadcast gradient back down) make the node, its closure and the
choice to adopt a first gradient, and ``_affine_grads`` accumulates the
gradients of rows @ w + b. ``a - b`` and ``mean`` are one node each.
``backward`` walks the nodes that have inputs in reverse topological
order, then unlinks them so reference counting frees the graph; a leaf
is never pushed. Inside ``no_grad`` no op records a graph. At the sizes
of a compose fit (arrays of a few hundred floats) this bookkeeping, not
the arithmetic, is what a node costs.

The encoder's layers are single nodes with hand-written backward passes:
``linear`` (x @ w + b as 2-D GEMMs over all leading rows), ``layer_norm``,
``softmax`` (with an optional scale and constant additive mask), ``gelu``,
``dropout``, the BiGRU's ``gru_sequence`` and attention in two nodes:
``attention_scores`` (the q and k projections and the per-head q @ kᵀ)
and ``attention_context`` (the weights applied to the heads of v, the
head merge and the output projection).

A model's weights are one ``ParamSet``: a flat data buffer, a flat grad
buffer, and named Tensors that view both. ``Adam`` updates sets in place
through flat moment buffers, a block of at most ``BLOCK`` floats per pass
of its formula, with the block views cut once when it is built; a step
allocates no array. ``fit``, the one training loop, takes an Adam step on
each loss of a lazy iterable.
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
        if _GRAD_ENABLED:
            for c in children:
                if c.requires_grad:
                    out = Tensor(data, requires_grad=True,
                                 _children=tuple(children))
                    out._backward = backward
                    return out
        return Tensor(data)

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

    def _unary(self, out_data, grad) -> "Tensor":
        """The node out_data of the one input self; grad maps the output's
        gradient to self's. grad must return a fresh array, never its
        argument or a view of it: self adopts it as its first gradient."""
        def backward():
            self._acc(grad(out.grad), owned=True)

        out = self._result(out_data, (self,), backward)
        return out

    def _binary(self, other, out_data, grads) -> "Tensor":
        """The node out_data of the inputs self and other, which may have
        broadcast; grads[i] maps the output's gradient to input i's before
        it is summed down to that input's shape. An input requiring no
        gradient costs no product."""
        def backward():
            g = out.grad
            for t, grad in zip((self, other), grads):
                if t.requires_grad:
                    u = self._unbroadcast(grad(g), t.data.shape)
                    t._acc(u, owned=u is not g)

        out = self._result(out_data, (self, other), backward)
        return out

    @staticmethod
    def _unbroadcast(grad, shape):
        """Sum a gradient down to the shape the operand had before
        broadcasting; grad itself when no axis was broadcast."""
        if grad.shape == shape:
            return grad
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
        no cycle is left for the cyclic GC to find. Only nodes with inputs
        are pushed: a leaf holds no closure and no link, and leaving it out
        keeps the closures in the order a walk over every node gives.
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
                if child._prev and id(child) not in visited:
                    stack.append((child, False))
        for node in reversed(order):
            if run_backward and node._backward is not None:
                node._backward()
            node._backward = None
            node._prev = ()

    # -- elementwise arithmetic --------------------------------------------

    def _wrap(self, x) -> "Tensor":
        """x as a Tensor; a Python int or float takes self's dtype, as
        NumPy's weak scalars do, and an array keeps its own."""
        if type(x) in (int, float):
            return Tensor(np.asarray(x, self.data.dtype))
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._wrap(other)
        return self._binary(other, self.data + other.data,
                            (lambda g: g, lambda g: g))

    __radd__ = __add__

    def __mul__(self, other):
        other = self._wrap(other)
        return self._binary(other, self.data * other.data,
                            (lambda g: g * other.data, lambda g: g * self.data))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        """self - other as one node, whose gradients are g and -g.

        It replaced self + (-other), in which -other was a node of its
        own that ran after every node behind self. other's gradient can
        differ from that form's in two cases. When other is also reached
        through self, it takes its -g before those nodes, so the summands
        of its gradient can add in another order. When other was
        broadcast, the node sums -g where that form negated the sum of g,
        so a sum of zero is +0.0 where it was -0.0. No caller in src does
        either: compose's pred - target has a constant target, and its
        1.0 - x has an x that is used once and not broadcast.
        """
        other = self._wrap(other)
        return self._binary(other, self.data - other.data,
                            (lambda g: g, lambda g: -g))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __truediv__(self, other):
        other = self._wrap(other)
        y = self.data / other.data
        return self._binary(other, y, (lambda g: g / other.data,
                                       lambda g: -g * y / other.data))

    def __pow__(self, n):
        if not isinstance(n, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return self._unary(self.data ** n,
                           lambda g: g * n * self.data ** (n - 1))

    def exp(self):
        y = np.exp(self.data)
        return self._unary(y, lambda g: g * y)

    def tanh(self):
        y = np.tanh(self.data)
        return self._unary(y, lambda g: g * (1.0 - y * y))

    def sigmoid(self):
        y = _sigmoid(self.data)
        return self._unary(y, lambda g: g * y * (1.0 - y))

    # -- reductions and indexing -------------------------------------------

    def _spread(self, g, axis):
        """g, the gradient of a sum over axis, filled into a fresh array of
        self's shape."""
        if axis is not None:
            g = np.expand_dims(g, axis)
        out = np.empty(self.data.shape, self.data.dtype)
        out[...] = g
        return out

    def sum(self, axis=None):
        return self._unary(self.data.sum(axis=axis),
                           lambda g: self._spread(g, axis))

    def mean(self, axis=None):
        """The sum over axis times 1/count in the data's dtype, as one
        node."""
        count = self.data.size if axis is None else self.data.shape[axis]
        scale = self.data.dtype.type(1.0 / count)
        return self._unary(self.data.sum(axis=axis) * scale,
                           lambda g: self._spread(g * scale, axis))

    def __getitem__(self, idx):
        def grad(g):
            buf = np.zeros_like(self.data)
            np.add.at(buf, idx, g)
            return buf

        return self._unary(self.data[idx], grad)

    # -- matrix product ------------------------------------------------------

    def matmul(self, other):
        other = self._wrap(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul requires 2-D operands, got shapes {a.shape} and {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
        return self._binary(other, a @ b,
                            (lambda g: g @ np.swapaxes(b, -1, -2),
                             lambda g: np.swapaxes(a, -1, -2) @ g))

    __matmul__ = matmul


def cat(tensors, axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
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
    out_data = x2 @ w.data
    out_data += b.data
    out_data = out_data.reshape(x.shape[:-1] + (d_out,))

    def backward():
        _affine_grads(x, x2, w, b, out.grad.reshape(-1, d_out))

    out = Tensor._result(out_data, (x, w, b), backward)
    return out


def _affine_grads(x, rows, w, b, g):
    """Accumulate the gradients of rows @ w + b, where rows is x's data
    as 2-D rows and g the [rows, d_out] gradient of the result: w's, then
    b's, then x's, each a fresh array."""
    if w.requires_grad:
        w._acc(rows.T @ g, owned=True)
    if b.requires_grad:
        b._acc(g.sum(axis=0), owned=True)
    if x.requires_grad:
        x._acc((g @ w.data.T).reshape(x.shape), owned=True)


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


def softmax(x: Tensor, *, scale: float = 1.0, add=None) -> Tensor:
    """softmax(x * scale + add) along the last axis, as one node.

    add is a constant array (no gradient) broadcast onto the scaled input;
    -1e9 on masked columns underflows their weights to exactly 0.
    """
    z = x.data * scale if scale != 1.0 else x.data
    if add is not None:
        z = z + add
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)

    def grad(g):
        gs = g * y
        dz = gs - y * gs.sum(axis=-1, keepdims=True)
        if scale != 1.0:
            dz *= scale
        return dz

    return x._unary(y, grad)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU, 0.5 x (1 + tanh(c (x + 0.044715 x^3))), as
    one node."""
    c = math.sqrt(2.0 / math.pi)
    xd = x.data
    th = np.tanh((xd + 0.044715 * (xd * xd * xd)) * c)

    def grad(g):
        return g * (0.5 * (1.0 + th) + (0.5 * xd) * (1.0 - th * th)
                    * (c * (1.0 + 3.0 * 0.044715 * (xd * xd))))

    return x._unary(0.5 * xd * (1.0 + th), grad)


def attention_scores(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor,
                     bk: Tensor, n_heads: int) -> Tensor:
    """Per-head q @ kᵀ, [b, h, t, t], of x [b, t, d] as one node, with
    q = linear(x, wq, bq) and k = linear(x, wk, bk) split into n_heads
    heads of d / n_heads columns.

    Unscaled: the softmax after it applies 1/sqrt(d_head). The backward
    accumulates x's gradient from q before k.
    """
    if x.ndim != 3 or n_heads < 1 or x.shape[-1] % n_heads:
        raise ValueError(f"attention_scores: input {x.shape} does not split "
                         f"into {n_heads} heads")
    b, t, d = x.shape
    for w, bias in ((wq, bq), (wk, bk)):
        if w.shape != (d, d) or bias.shape != (d,):
            raise ValueError(f"attention_scores: weight {w.shape} and bias "
                             f"{bias.shape} do not fit width {d}")
    x2 = x.data.reshape(-1, d)

    def heads(w, bias):
        return (x2 @ w.data + bias.data).reshape(b, t, n_heads, -1) \
            .transpose(0, 2, 1, 3)

    qh, kh = heads(wq, bq), heads(wk, bk)
    out_data = qh @ kh.transpose(0, 1, 3, 2)

    def backward():
        g = out.grad
        # per-head products, then back to [b*t, d] rows
        gq = (g @ kh).transpose(0, 2, 1, 3).reshape(-1, d)
        gk = (np.swapaxes(qh, -1, -2) @ g).transpose(0, 3, 1, 2).reshape(-1, d)
        _affine_grads(x, x2, wq, bq, gq)
        _affine_grads(x, x2, wk, bk, gk)

    out = Tensor._result(out_data, (x, wq, bq, wk, bk), backward)
    return out


def attention_context(attn: Tensor, v: Tensor, wo: Tensor, bo: Tensor) -> Tensor:
    """attn [b, h, t, t] applied to the heads of v [b, t, d], heads merged
    and projected by wo, bo: [b, t, d], as one node.

    Its inputs are listed attn before v, so a backward runs the node that
    made v after the nodes behind attn.
    """
    if attn.ndim != 4 or v.ndim != 3:
        raise ValueError(f"attention_context expects [b, h, t, t] weights and "
                         f"[b, t, d] values, got {attn.shape} and {v.shape}")
    b, h, t, _ = attn.shape
    d = v.shape[-1]
    if attn.shape != (b, h, t, t) or v.shape[:2] != (b, t) or d % h \
            or wo.shape != (d, d) or bo.shape != (d,):
        raise ValueError(f"attention_context: weights {attn.shape}, values "
                         f"{v.shape}, wo {wo.shape} and bo {bo.shape} do not fit")
    vh = v.data.reshape(b, t, h, -1).transpose(0, 2, 1, 3)
    ctx = (attn.data @ vh).transpose(0, 2, 1, 3).reshape(-1, d)
    out_data = (ctx @ wo.data + bo.data).reshape(b, t, d)

    def backward():
        g = out.grad.reshape(-1, d)
        if wo.requires_grad:
            wo._acc(ctx.T @ g, owned=True)
        if bo.requires_grad:
            bo._acc(g.sum(axis=0), owned=True)
        # the merged gradient split back into heads: a strided view
        gh = (g @ wo.data.T).reshape(b, t, h, -1).transpose(0, 2, 1, 3)
        if attn.requires_grad:
            attn._acc(gh @ np.swapaxes(vh, -1, -2), owned=True)
        if v.requires_grad:
            v._acc((np.swapaxes(attn.data, -1, -2) @ gh).transpose(0, 2, 1, 3)
                   .reshape(v.shape), owned=True)

    out = Tensor._result(out_data, (attn, v, wo, bo), backward)
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """x times a keep mask drawn from rng, 1/(1-p) with probability 1-p and
    0 otherwise, as one node; x itself when p <= 0 or rng is None."""
    if p <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x._unary(x.data * keep, lambda g: g * keep)


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
    # one [n, V] buffer: the shifted logits, then the log-probabilities,
    # then, in backward, the gradient
    buf = logits.data - logits.data.max(axis=1, keepdims=True)
    buf -= np.log(np.exp(buf).sum(axis=1, keepdims=True))
    nll = -buf[np.arange(n), targets]
    scale = 1.0 / n

    def grad(g):
        np.exp(buf, out=buf)
        buf[np.arange(n), targets] -= 1.0
        return np.multiply(buf, g * scale, out=buf)

    return logits._unary(np.asarray(nll.sum() * scale, dtype=logits.data.dtype),
                         grad)


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

    def grad(g):
        inside = (probs.data > BCE_EPS) & (probs.data < 1.0 - BCE_EPS)
        slope = (p - y) / (p * (1.0 - p)) * inside
        return (g * scale) * slope.astype(probs.data.dtype)

    return probs._unary(np.asarray(per_elem.sum() * scale, dtype=probs.data.dtype),
                        grad)


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A [rows, cols] Glorot-uniform draw in the default dtype:
    U(-b, b) with b = sqrt(6 / (rows + cols))."""
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, (rows, cols)).astype(_DEFAULT_DTYPE)


def gru_params(d_in: int, d_h: int, rng: np.random.Generator) -> dict:
    """Glorot-initialized arrays for gru_sequence, gates fused z|r|h.

    w is [d_in, 3*d_h], u is [d_h, 3*d_h] and b is [3*d_h]; column block
    k of w and u is drawn as its own Glorot matrix, w before u, gate by gate.
    """
    blocks = [(glorot(rng, d_in, d_h), glorot(rng, d_h, d_h))
              for _ in ("z", "r", "h")]
    return {"w": np.concatenate([w for w, _ in blocks], axis=1),
            "u": np.concatenate([u for _, u in blocks], axis=1),
            "b": np.zeros(3 * d_h, dtype=_DEFAULT_DTYPE)}


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
        _affine_grads(x, x.data.reshape(n * length, d_in), w, b, rows)
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
    return gru_sequence(x_t[:, None], np.ones((x_t.shape[0], 1)), params,
                        h0=h_prev)[:, 0]


class ParamSet:
    """One model's weights and their gradients, each in one flat buffer.

    data, a 1-D buffer of exactly the layout's size (copied only when not
    C-contiguous), holds every weight in the order of layout, a (name,
    shape) list; grad matches it. params[name] is a Tensor whose .data and
    .grad are views of the two, so an in-place update writes data and a
    backward pass adds into grad in place (Tensor._acc never rebinds a
    gradient it already holds); zero_grad only zero-fills grad.
    """

    def __init__(self, layout, data):
        sizes = [math.prod(shape) for _, shape in layout]
        data = np.asarray(data)
        if data.ndim != 1 or data.size != sum(sizes):
            raise ValueError(f"the layout needs a 1-D buffer of {sum(sizes)} "
                             f"floats, got {data.size} in shape {data.shape}")
        self.data = np.ascontiguousarray(data)
        self.grad = np.zeros_like(self.data)
        self.params = {}
        starts = itertools.accumulate(sizes, initial=0)
        for (name, shape), lo, size in zip(layout, starts, sizes):
            p = self.params[name] = Tensor(
                self.data[lo:lo + size].reshape(shape), requires_grad=True)
            p.grad = self.grad[lo:lo + size].reshape(shape)

    @classmethod
    def of(cls, arrays: dict) -> "ParamSet":
        """A set holding a copy of each named array, in dict order."""
        dtypes = {a.dtype for a in arrays.values()}
        if len(dtypes) > 1:
            raise ValueError("a parameter set needs one dtype, got "
                             + ", ".join(sorted(map(str, dtypes))))
        return cls([(name, a.shape) for name, a in arrays.items()],
                   np.concatenate([a.ravel() for a in arrays.values()]))

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def check_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())


class Adam:
    """Bias-corrected Adam over parameter sets of one dtype.

    The moments m and v are flat, the sets end to end. The constructor
    cuts each set into blocks of at most BLOCK floats once and keeps each
    block's views of the grad, the moments and the data beside the two
    scratch rows. A step runs its formula over that list, updating the
    moments and data in place: it slices nothing, allocates no array and
    never writes a grad. A weight whose grad stays zero keeps zero moments
    and takes a zero step.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, sets, lr: float = 1e-3):
        self.sets = list(sets)
        self.lr = lr
        self.t = 0
        dtypes = {s.data.dtype for s in self.sets}
        if len(dtypes) > 1:
            raise ValueError("Adam needs sets of one dtype, got "
                             + ", ".join(sorted(map(str, dtypes))))
        dtype = dtypes.pop() if dtypes else _DEFAULT_DTYPE
        total = sum(s.data.size for s in self.sets)
        self.m = np.zeros(total, dtype)
        self.v = np.zeros(total, dtype)
        # two rows, one block long: the step, then the denominator
        scratch = np.empty((2, min(BLOCK, total)), dtype)
        # per block of a set: its grad, m, v and data, and the scratch rows
        self._blocks = []
        start = 0
        for s in self.sets:
            n = s.data.size
            for lo in range(0, n, BLOCK):
                hi = min(lo + BLOCK, n)
                self._blocks.append((
                    s.grad[lo:hi], self.m[start + lo:start + hi],
                    self.v[start + lo:start + hi], s.data[lo:hi],
                    *scratch[:, :hi - lo]))
            start += n

    def step(self) -> None:
        """One update, in place on each set's data and on the moments.

        Rounds exactly as m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        p -= lr * (m/c1) / (sqrt(v/c2) + eps) would, element by element;
        the two scratch rows stand in for that formula's temporaries.
        """
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for g, m, v, p, step, denom in self._blocks:
            np.multiply(g, g, out=step)
            step *= 1.0 - self.beta2
            v *= self.beta2
            v += step
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=step)
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, c1, out=step)
            step *= self.lr
            step /= denom
            p -= step

    def zero_grad(self) -> None:
        for s in self.sets:
            s.zero_grad()


@np.errstate(over="ignore", invalid="ignore")
def fit(sets, losses, lr: float, loss_target=None) -> list:
    """Adam over sets, one step on each loss of the lazy iterable losses,
    so each loss sees the weights the step before left; returns the losses.

    Each loss is recorded before its step. With a loss_target the loop
    stops, without stepping, at the first loss below it. A non-finite loss
    is a NumericalError naming its step, raised before that step; so are
    non-finite weights after the last step.
    """
    opt = Adam(sets, lr=lr)
    values = []
    for loss in losses:
        values.append(float(loss.data))
        if not math.isfinite(values[-1]):
            loss._unlink()
            raise NumericalError(f"non-finite loss {values[-1]} at step "
                                 f"{len(values)}")
        if loss_target is not None and values[-1] < loss_target:
            loss._unlink()
            break
        opt.zero_grad()
        loss.backward()
        opt.step()
    if not all(s.check_finite() for s in opt.sets):
        raise NumericalError(f"non-finite weights after step {opt.t}")
    return values
