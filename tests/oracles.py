"""Independent reference implementations used only by tests.

Everything here is deliberately naive (python loops, math.fsum, central
finite differences) and shares no code with the package, so agreement
between the two routes is meaningful.
"""

import json
import math
import re
import struct
import unicodedata
from collections import Counter

import numpy as np


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


def composite_softmax(x, axis=-1, scale=1.0, add=0.0):
    """Scale, then add, then exp of the max-shifted input times the
    reciprocal of its sum."""
    z = x * scale + add
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e * e.sum(axis=axis, keepdims=True) ** -1.0


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
