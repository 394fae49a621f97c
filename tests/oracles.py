"""Independent reference implementations used only by tests.

Everything here is deliberately naive (python loops, math.fsum, central
finite differences) and shares no code with the package, so agreement
between the two routes is meaningful. The exception is the composite
attention chain, the encoder's former graph of one engine node per op,
kept to check the fused attention nodes against byte for byte.
"""

import json
import math
import operator
import re
import struct
import unicodedata
from collections import Counter

import numpy as np

from chdzdt.errors import ConfigError
from chdzdt.tensor import Tensor, linear, softmax


def finite_diff_max_rel_err(build_loss, params, rng, n_samples=20, h=1e-4):
    """Compare autodiff grads against central finite differences.

    build_loss() must rebuild the scalar loss Tensor from the current
    param data on every call; anything it closes over that is not in
    params (an integer mask, an index array) is held fixed. Gradients left
    on params by an earlier call are cleared first. Relative error uses a
    1e-6 denominator floor so near-zero gradient pairs do not blow up the
    ratio. Returns (max_rel_err, samples) with one (analytic, numeric) pair
    per sample.
    """
    for p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    sizes = [p.data.size for p in params]
    total = sum(sizes)
    flat_choices = rng.choice(total, size=min(n_samples, total), replace=False)

    samples = []
    max_err = 0.0
    for flat in flat_choices:
        pi = 0
        while flat >= sizes[pi]:
            flat -= sizes[pi]
            pi += 1
        p = params[pi]
        idx = np.unravel_index(flat, p.data.shape)
        orig = p.data[idx]
        p.data[idx] = orig + h
        f_plus = float(build_loss().data)
        p.data[idx] = orig - h
        f_minus = float(build_loss().data)
        p.data[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = float(analytic[pi][idx])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        samples.append((a, numeric))
        max_err = max(max_err, err)
    return max_err, samples


def composite_layer_norm(x, gain, bias, eps):
    """The layer norm as the engine once composed it from elementwise ops:
    means as sums times 1/d, and a -0.5 power of the variance."""
    d = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) * (1.0 / d)
    var = (xc * xc).sum(axis=-1, keepdims=True) * (1.0 / d)
    return xc * (var + eps) ** -0.5 * gain + bias


def composite_softmax(x, scale=1.0, add=0.0):
    """Scale, then add, then exp of the max-shifted input times the
    reciprocal of its sum, along the last axis."""
    z = x * scale + add
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e * e.sum(axis=-1, keepdims=True) ** -1.0


def composite_gelu(x):
    """tanh-approximation GELU in the engine's former op order."""
    inner = (x + 0.044715 * (x * x * x)) * math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(inner))


def composite_linear(x, w, b):
    """x @ w + b by one dot product per output entry."""
    out = np.empty(x.shape[:-1] + (w.shape[1],))
    for idx in np.ndindex(*x.shape[:-1]):
        for j in range(w.shape[1]):
            out[idx + (j,)] = math.fsum(x[idx] * w[:, j]) + b[j]
    return out


def formula_softmax_ce(logits, targets, upstream):
    """(loss, logits gradient) of mean cross-entropy by the formulas
    tensor.softmax_ce used before it kept one [n, V] buffer: a fresh array
    for each intermediate and the gradient cast back to the logits' dtype.
    upstream is the gradient that reached the loss."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_z
    nll = -log_probs[np.arange(n), targets]
    scale = 1.0 / n
    loss = np.asarray(nll.sum() * scale, dtype=logits.dtype)
    sm = np.exp(log_probs)
    sm[np.arange(n), targets] -= 1.0
    return loss, (upstream * scale) * sm.astype(logits.dtype)


def brute_gru_states(x, mask, w, u, b, reverse=False):
    """Masked GRU states [n, L, h] with one scalar loop per unit.

    Gate k of the fused [d, 3h] / [h, 3h] / [3h] arrays is column block k,
    in the order z, r, h. A step whose mask is 0 keeps the previous state.
    """
    n, length, d = x.shape
    hd = u.shape[0]

    def sig(a):
        return 1.0 / (1.0 + math.exp(-a))

    out = np.zeros((n, length, hd))
    for i in range(n):
        h = [0.0] * hd
        steps = range(length - 1, -1, -1) if reverse else range(length)
        for t in steps:
            xt = x[i, t]

            def pre(gate, j, state):
                col = gate * hd + j
                return (math.fsum(xt[k] * w[k, col] for k in range(d))
                        + math.fsum(state[k] * u[k, col] for k in range(hd))
                        + b[col])

            z = [sig(pre(0, j, h)) for j in range(hd)]
            r = [sig(pre(1, j, h)) for j in range(hd)]
            rh = [r[k] * h[k] for k in range(hd)]
            cand = [math.tanh(pre(2, j, rh)) for j in range(hd)]
            if mask[i, t]:
                h = [z[j] * h[j] + (1.0 - z[j]) * cand[j] for j in range(hd)]
            out[i, t] = h
    return out


def brute_acs(vectors, clusters):
    """Eq.-style average cosine similarity, plain loops.

    vectors: word -> list of floats; clusters: list of (root, [members]).
    """
    sims = []
    for root, members in clusters:
        r = vectors[root]
        for m in members:
            w = vectors[m]
            dot = math.fsum(a * b for a, b in zip(r, w))
            nr = math.sqrt(math.fsum(a * a for a in r))
            nw = math.sqrt(math.fsum(a * a for a in w))
            sims.append(dot / (nr * nw))
    return math.fsum(sims) / len(sims)


def brute_aed(vectors, clusters):
    dists = []
    d = None
    for root, members in clusters:
        r = vectors[root]
        d = len(r)
        for m in members:
            w = vectors[m]
            dists.append(math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(r, w))))
    return math.fsum(dists) / len(dists) / math.sqrt(d)


def brute_silhouette(points, labels):
    """Mean of (b-a)/max(a,b) with singleton clusters contributing 0."""
    n = len(points)

    def dist(i, j):
        return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(points[i], points[j])))

    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = math.fsum(dist(i, j) for j in own) / len(own)
        b = math.inf
        for lab in set(labels):
            if lab == labels[i]:
                continue
            others = [j for j in range(n) if labels[j] == lab]
            b = min(b, math.fsum(dist(i, j) for j in others) / len(others))
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return math.fsum(scores) / n


def loop_silhouette(points, labels):
    """Silhouette one point at a time over the full [n, n] distance matrix,
    with the scaling and float operations of metrics.silhouette: the points
    times one power of two, a row's own-cluster distances summed over
    (size - 1), each other cluster's mean, and 0 for a singleton or a zero
    denominator."""
    points = np.asarray(points, dtype=np.float64)
    points = np.ldexp(points, -np.frexp(np.abs(points).max(initial=0.0))[1])
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    values = np.zeros(len(points))
    for i in range(len(points)):
        own = labels == labels[i]
        if own.sum() == 1:
            continue
        a = dist[i, own].sum() / (own.sum() - 1)
        b = min(dist[i, labels == other].mean()
                for other in uniq if other != labels[i])
        denom = max(a, b)
        values[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(values.mean())


def loop_kmeans(points, k, seed=0, restarts=10, max_passes=300, tol=1e-6):
    """k-means one restart at a time, with the draws and the distance form
    of metrics.kmeans: a first index per restart and one u per later
    k-means++ seed drawn up front, a seed found by searchsorted, squared
    distances as (|p|² - 2p·c) + |c|² clipped at 0, and per-cluster sums
    added point by point in a Python loop."""
    points = np.asarray(points, dtype=np.float64)
    points = np.ldexp(points, -np.frexp(np.abs(points).max(initial=0.0))[1])
    n = len(points)
    p2 = (points ** 2).sum(1)

    def dists(centers):
        d2 = points @ centers.T
        d2 *= -2.0
        d2 += p2[:, None]
        d2 += (centers ** 2).sum(1)
        return np.maximum(d2, 0.0)

    rng = np.random.default_rng(seed)
    first = rng.integers(n, size=restarts)
    u = rng.random((restarts, k - 1))
    best_inertia, best_labels = math.inf, None
    for r in range(restarts):
        centers = points[[first[r]]]
        d2 = dists(centers)[:, 0]
        for j in range(k - 1):
            cum = np.cumsum(d2)
            if cum[-1] == 0.0:
                idx = int(u[r, j] * n)
            else:
                idx = int(np.searchsorted(cum, u[r, j] * cum[-1], "right"))
            seed_point = points[[min(idx, n - 1)]]
            centers = np.concatenate([centers, seed_point])
            d2 = np.minimum(d2, dists(seed_point)[:, 0])
        prev = math.inf
        for passes in range(max_passes + 1):
            d2 = dists(centers)
            labels = d2.argmin(1)
            near = d2.min(1)
            inertia = near.sum()
            if inertia >= prev * (1 - tol) or passes == max_passes:
                break
            prev = inertia
            sums = np.zeros_like(centers)
            counts = [0] * k
            for i, label in enumerate(labels):
                sums[label] += points[i]
                counts[label] += 1
            farthest = points[near.argmax()]
            centers = np.stack([sums[c] / counts[c] if counts[c] else farthest
                                for c in range(k)])
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def brute_ari(labels_a, labels_b):
    """Adjusted Rand index via O(n^2) pair counting."""
    n = len(labels_a)
    same_both = same_a = same_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = labels_a[i] == labels_a[j]
            sb = labels_b[i] == labels_b[j]
            same_a += sa
            same_b += sb
            same_both += sa and sb
    n_pairs = n * (n - 1) // 2
    expected = same_a * same_b / n_pairs
    maximum = (same_a + same_b) / 2.0
    if maximum == expected:
        return 1.0
    return (same_both - expected) / (maximum - expected)


def brute_kendall(x, y):
    """Eq.-style tau: sign products over all pairs, ties contribute 0."""
    n = len(x)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            sx = (x[i] > x[j]) - (x[i] < x[j])
            sy = (y[i] > y[j]) - (y[i] < y[j])
            s += sx * sy
    return 2.0 * s / (n * (n - 1))


class SetVocab:
    """The character vocabulary as first built: a set of every declared code
    point, then a char -> id dict (`stoi`) and an id -> char list (`itos`),
    with the same validation and the same ConfigError messages."""

    SPECIAL_CHARS = ("\ue000", "\ue001", "\ue002", "\ue003", "\ue004")

    def __init__(self, ranges, extras=()):
        chars = set()
        checked = []
        for interval in ranges:
            try:
                lo, hi = (operator.index(bound) for bound in interval)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"range must be [lo, hi] integers, got {interval!r}") from None
            if lo > hi:
                raise ConfigError(f"malformed range [{lo}, {hi}]")
            if lo < 0 or hi > 0x10FFFF or (lo <= 0xDFFF and hi >= 0xD800):
                raise ConfigError(f"range [{lo}, {hi}] contains invalid code points")
            chars.update(range(lo, hi + 1))
            checked.append((lo, hi))
        for extra in extras:
            if not isinstance(extra, str) or len(extra) != 1:
                raise ConfigError(f"extras must be single characters, got {extra!r}")
            if 0xD800 <= ord(extra) <= 0xDFFF:
                raise ConfigError(f"extra U+{ord(extra):04X} is a surrogate, not a character")
            chars.add(ord(extra))
        for special in self.SPECIAL_CHARS:
            if ord(special) in chars:
                raise ConfigError(
                    f"U+{ord(special):04X} is reserved for a special token")
        self.ranges = tuple(sorted(checked))
        self.extras = tuple(sorted(extras))
        declared = [chr(cp) for cp in sorted(chars)]
        self.stoi = {ch: i for i, ch in enumerate(declared, len(self.SPECIAL_CHARS))}
        self.itos = list(self.SPECIAL_CHARS) + declared

    def char_id(self, ch):
        return self.stoi.get(ch, 3)  # UNK

    def spec(self):
        return {"ranges": [list(r) for r in self.ranges], "extras": list(self.extras)}

    def decode(self, ids):
        """The characters of ids, special tokens dropped; IndexError on an
        id outside the vocabulary."""
        out = []
        for i in ids:
            if not 0 <= i < len(self.itos):
                raise IndexError(i)
            if i >= len(self.SPECIAL_CHARS):
                out.append(self.itos[i])
        return "".join(out)


def brute_combo_counts(word_labels):
    """Label-combination histogram: word -> set of labels in, combo key out."""
    return Counter("+".join(sorted(labs)) for labs in word_labels.values())


def regex_cap_runs(text, k, capped):
    """Every maximal run of one character c, cut to k characters when
    capped(c) holds, found by a backreference regular expression."""
    return re.sub(r"(.)\1*",
                  lambda m: m.group(0)[:k] if capped(m.group(1))
                  else m.group(0),
                  text, flags=re.DOTALL)


def char_loop_cap_runs(text, k, capped):
    """Runs of more than k identical characters c with capped(c) true cut
    to k, counted one character at a time."""
    out = []
    run_char, run_len = None, 0
    for ch in text:
        if ch == run_char:
            run_len += 1
            if run_len > k and capped(ch):
                continue
        else:
            run_char, run_len = ch, 1
        out.append(ch)
    return "".join(out)


def char_loop_space_token(token, is_emoji):
    """Word, punctuation and emoji runs of one whitespace-free token, joined
    by one space: each emoji alone, punctuation (Unicode category P*) and
    the other characters in maximal runs."""
    tokens = []
    current = []
    kind = None

    def flush():
        if current:
            tokens.append("".join(current))
            current.clear()

    for ch in token:
        if is_emoji(ch):
            flush()
            tokens.append(ch)
            kind = None
        else:
            k = "punct" if unicodedata.category(ch).startswith("P") else "word"
            if k != kind:
                flush()
                kind = k
            current.append(ch)
    flush()
    return " ".join(tokens)


def unguarded_alias_loop(text, aliases):
    """Each alias replaced in turn, longest first, by running its regex
    whether or not it occurs: an alias fires only when no letter or digit
    follows it, and a letter-initial one also needs none before it."""
    for src, dst in sorted(aliases.items(), key=lambda kv: -len(kv[0])):
        pat = re.escape(src) + r"(?![^\W_])"
        if src[:1].isalpha():
            pat = r"(?<![^\W_])" + pat
        text = re.sub(pat, dst, text)
    return text


def translate_strip(text, chars):
    """text without any character of chars, by a str.translate table."""
    return text.translate({ord(c): None for c in chars})


def oracle_normalize_text(text, rules, is_emoji):
    """The five normalization stages from the oracles above, swept in the
    pipeline's order until the text is stable (at most 4 sweeps)."""
    for _ in range(4):
        out = unguarded_alias_loop(text, rules.emoji_aliases)
        out = char_loop_cap_runs(out, 2, is_emoji)
        for src, dst in rules.char_unification.items():
            out = out.replace(src, dst)
        out = char_loop_cap_runs(out, rules.elongation_cap, str.isalpha)
        out = char_loop_fix_spacing(out, is_emoji)
        out = translate_strip(out, rules.diacritics)
        if out == text:
            return out
        text = out
    return text


def char_loop_fix_spacing(text, is_emoji):
    """Punctuation runs detached from words, each emoji (is_emoji(c) true)
    on its own, whitespace runs collapsed to one space: one pass over the
    characters of the whole text."""
    tokens = []
    current = []
    kind = None

    def flush():
        if current:
            tokens.append("".join(current))
            current.clear()

    for ch in text:
        if ch.isspace():
            flush()
            kind = None
        elif is_emoji(ch):
            flush()
            tokens.append(ch)
            kind = None
        else:
            k = "punct" if unicodedata.category(ch).startswith("P") else "word"
            if k != kind:
                flush()
                kind = k
            current.append(ch)
    flush()
    return " ".join(tokens)


def per_tensor_checkpoint_bytes(state):
    """A format-1 checkpoint of an encoder state, serialized one tensor at
    a time: magic, version, header length, a JSON header naming each
    tensor's shape and byte offset, then each tensor as float32 LE in
    params order."""
    manifest, blobs, offset = [], [], 0
    for name, p in state.params.items():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(p.data.shape),
                         "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"config": state.config.to_dict(),
                         "charset": state.vocab.spec(),
                         "tensors": manifest}).encode("utf-8")
    return (b"CHDZ" + struct.pack("<I", 1) + struct.pack("<Q", len(header))
            + header + b"".join(blobs))


def per_tensor_adam_step(params, m, v, t, lr, beta1=0.9, beta2=0.999,
                         eps=1e-8):
    """Step t (from 1) of bias-corrected Adam, one tensor at a time: in
    place on each param's data and on its moments m[i] and v[i], arrays of
    the param's shape. A param whose grad is None is skipped."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, mi, vi in zip(params, m, v):
        g = p.grad
        if g is None:
            continue
        step = np.empty_like(p.data)
        denom = np.empty_like(p.data)
        np.multiply(g, g, out=step)
        step *= 1.0 - beta2
        vi *= beta2
        vi += step
        mi *= beta1
        mi += np.multiply(g, 1.0 - beta1, out=step)
        np.divide(vi, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(mi, c1, out=step)
        step *= lr
        step /= denom
        p.data -= step


def _view(x, forward, backward):
    """One engine node seeing x.data through forward (a reshape or a
    transpose), as the engine's former reshape and transpose nodes: its
    backward hands x backward(the output's gradient), a view, which x
    copies on first arrival."""
    def run_backward():
        x._acc(backward(out.grad))

    out = Tensor._result(forward(x.data), (x,), run_backward)
    return out


def reshape(x, *shape):
    return _view(x, lambda a: a.reshape(shape),
                 lambda g: g.reshape(x.data.shape))


def transpose(x, *axes):
    inv = np.argsort(axes)
    return _view(x, lambda a: a.transpose(axes), lambda g: g.transpose(inv))


def composite_attention_scores(x, wq, bq, wk, bk, n_heads):
    """Per-head q @ kᵀ as the encoder once built it: two linear nodes,
    two head reshapes, three transposes and a Tensor.matmul."""
    b, t, d = x.shape

    def heads(z):
        return transpose(reshape(z, b, t, n_heads, d // n_heads), 0, 2, 1, 3)

    return heads(linear(x, wq, bq)) @ transpose(heads(linear(x, wk, bk)),
                                                0, 1, 3, 2)


def composite_attention_context(attn, v, wo, bo):
    """attn @ the heads of v, merged and projected, as the encoder once
    built it: the head reshape and transpose of v, a Tensor.matmul, the
    merging transpose and reshape, and a linear node."""
    b, h, t, _ = attn.shape
    d = v.shape[-1]
    vh = transpose(reshape(v, b, t, h, d // h), 0, 2, 1, 3)
    return linear(reshape(transpose(attn @ vh, 0, 2, 1, 3), b, t, d), wo, bo)


def composite_dropout(x, p, rng):
    """x times a constant keep-mask leaf, drawn as the engine draws it."""
    if p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * keep


def composite_attention(x, w, n_heads, add, p, rng):
    """An encoder block's attention output before its residual, in the
    former 18-node chain: scores, the scaled and masked softmax, dropout,
    the v projection, the context and its dropout. w maps q, k, v, o to
    (weight, bias) Tensors; add is the softmax's constant mask and p the
    dropout rate, drawn from rng."""
    scores = composite_attention_scores(x, *w["q"], *w["k"], n_heads)
    attn = softmax(scores, scale=1.0 / math.sqrt(x.shape[-1] // n_heads),
                   add=add)
    attn = composite_dropout(attn, p, rng)
    v = linear(x, *w["v"])
    return composite_dropout(composite_attention_context(attn, v, *w["o"]),
                             p, rng)


def composite_sub(a, b):
    """a - b as the engine once built it: a + (-b), with -b its own node."""
    return a + (-b)


def composite_rsub(c, a):
    """c - a for a constant c as the engine once built it: Tensor(c) +
    (-a)."""
    return Tensor(c) + (-a)


def composite_mean(a, axis=None):
    """a.mean(axis) as the engine once built it: a sum node times a
    1/count node."""
    count = a.data.size if axis is None else a.data.shape[axis]
    return a.sum(axis=axis) * (1.0 / count)


def full_walk_order(root):
    """The nodes whose closures root.backward() ran when its walk pushed
    every node, leaves included, in the order it ran them. Reads the graph
    and changes nothing."""
    order = []
    visited = set()
    stack = [(root, False)]
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
    return [node for node in reversed(order) if node._backward is not None]
