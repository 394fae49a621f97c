"""Reference computations the checks compare the program against.

Nothing here imports ``chdzdt``: the checkpoint is parsed from its bytes
(magic, version, JSON header, float32 little-endian blobs), the encoder
forward pass is written out in float64 NumPy, and the metrics are computed
from the vectors the program wrote with ``encode``.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"CHDZ"
N_SPECIAL = 5          # PAD, CLS, MASK, UNK, SEP
PAD, CLS, UNK = 0, 1, 3
LN_EPS = 1e-5


class CheckpointError(Exception):
    """The file is not a well-formed checkpoint."""


def param_shapes(cfg: dict) -> list:
    """(name, shape) of every array the documented architecture holds."""
    d, v = cfg["hidden"], cfg["vocab_size"]
    f = cfg["ffn_mult"] * d
    out = [("char_emb", (v, d)), ("pos_emb", (1 + cfg["max_chars"], d))]
    for i in range(cfg["n_blocks"]):
        p = f"block{i}."
        for proj in "qkvo":
            out += [(f"{p}attn_{proj}_w", (d, d)), (f"{p}attn_{proj}_b", (d,))]
        out += [(p + "ln1_g", (d,)), (p + "ln1_b", (d,)),
                (p + "ffn_w1", (d, f)), (p + "ffn_b1", (f,)),
                (p + "ffn_w2", (f, d)), (p + "ffn_b2", (d,)),
                (p + "ln2_g", (d,)), (p + "ln2_b", (d,))]
    out += [("mlm_w", (d, v)), ("mlm_b", (v,)),
            ("label_w", (d, cfg["n_labels"])), ("label_b", (cfg["n_labels"],))]
    return out


def read_checkpoint(path):
    """(config dict, charset dict, {name: float64 array}) from the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    cfg = header["config"]
    body = blob[16 + header_len:]
    want = param_shapes(cfg)
    if [(t["name"], tuple(t["shape"])) for t in header["tensors"]] != want:
        raise CheckpointError(f"{path}: tensor list disagrees with config")
    n_floats = sum(int(np.prod(s)) for _, s in want)
    if len(body) != 4 * n_floats:
        raise CheckpointError(f"{path}: body holds {len(body)} bytes, "
                              f"config needs {4 * n_floats}")
    flat = np.frombuffer(body, dtype="<f4").astype(np.float64)
    params, off = {}, 0
    for name, shape in want:
        size = int(np.prod(shape))
        params[name] = flat[off:off + size].reshape(shape)
        off += size
    return cfg, header["charset"], params


class Encoder:
    """Float64 forward pass over a parsed checkpoint."""

    def __init__(self, path):
        self.cfg, charset, self.p = read_checkpoint(path)
        cps = set()
        for lo, hi in charset["ranges"]:
            cps.update(range(lo, hi + 1))
        cps.update(ord(c) for c in charset.get("extras", ()))
        self.char_id = {chr(c): N_SPECIAL + i
                        for i, c in enumerate(sorted(cps))}

    def ids(self, word: str):
        m = self.cfg["max_chars"]
        chars = list(word.strip())[:m]
        ids = [CLS] + [self.char_id.get(c, UNK) for c in chars]
        mask = np.zeros(1 + m)
        mask[:len(ids)] = 1.0
        return np.array(ids + [PAD] * (1 + m - len(ids))), mask

    @staticmethod
    def _ln(x, g, b):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + LN_EPS) * g + b

    @staticmethod
    def _gelu(x):
        return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                        * (x + 0.044715 * x ** 3)))

    def cls(self, word: str) -> np.ndarray:
        """The CLS row after an eval-mode (no dropout) pass."""
        p, cfg = self.p, self.cfg
        ids, mask = self.ids(word)
        t, d, h = len(ids), cfg["hidden"], cfg["n_heads"]
        dh = d // h
        x = p["char_emb"][ids] + p["pos_emb"]
        bias = np.where(mask == 0, -1e9, 0.0)
        for i in range(cfg["n_blocks"]):
            b = f"block{i}."

            def proj(w, z):
                return z @ p[f"{b}attn_{w}_w"] + p[f"{b}attn_{w}_b"]

            q, k, v = (proj(w, x).reshape(t, h, dh).transpose(1, 0, 2)
                       for w in "qkv")
            s = q @ k.transpose(0, 2, 1) / math.sqrt(dh) + bias
            s = np.exp(s - s.max(-1, keepdims=True))
            a = s / s.sum(-1, keepdims=True)
            ctx = proj("o", (a @ v).transpose(1, 0, 2).reshape(t, d))
            x = self._ln(x + ctx, p[b + "ln1_g"], p[b + "ln1_b"])
            ff = self._gelu(x @ p[b + "ffn_w1"] + p[b + "ffn_b1"])
            ff = ff @ p[b + "ffn_w2"] + p[b + "ffn_b2"]
            x = self._ln(x + ff, p[b + "ln2_g"], p[b + "ln2_b"])
        return x[0]


def read_vectors(path):
    """(words in file order, {word: float64 vector}) of an embeddings TSV."""
    order, table = [], {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#dim "):
            raise ValueError(f"{path}: no '#dim' header")
        for line in fh:
            word, floats = line.rstrip("\n").split("\t")
            order.append(word)
            table[word] = np.array([float(x) for x in floats.split()])
    return order, table


def _cos(a, b) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def morph_scores(vec: dict, clusters) -> dict:
    """ACS: mean member-root cosine over every pair; AED: mean distance
    divided by sqrt(d)."""
    cos, dist = [], []
    for root, members in clusters:
        for m in members:
            cos.append(_cos(vec[m], vec[root]))
            dist.append(float(np.sqrt(((vec[m] - vec[root]) ** 2).sum())))
    dim = len(next(iter(vec.values())))
    return {"acs": sum(cos) / len(cos),
            "aed": sum(dist) / len(dist) / math.sqrt(dim)}


def _avg_ranks(x) -> list:
    order = sorted(range(len(x)), key=lambda i: x[i])
    ranks = [0.0] * len(x)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and x[order[j + 1]] == x[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _pearson(x, y) -> float:
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def _kendall_tau_a(x, y) -> float:
    def sign(v):
        return (v > 0) - (v < 0)

    n, s = len(x), 0
    for i in range(n):
        for j in range(i + 1, n):
            s += sign(x[i] - x[j]) * sign(y[i] - y[j])
    return s / (n * (n - 1) / 2)


def sim_scores(vec: dict, pairs) -> dict:
    """Cosine model scores against human scores: Pearson, Spearman with
    average ranks for ties, and Kendall's tau-a."""
    model = [_cos(vec[a], vec[b]) for a, b, _ in pairs]
    human = [s for _, _, s in pairs]
    return {"pearson": _pearson(model, human),
            "spearman": _pearson(_avg_ranks(model), _avg_ranks(human)),
            "kendall": _kendall_tau_a(model, human)}


def compose_scores(vec: dict, quads, W=None) -> dict:
    """Cosine and scaled distance between the composed and the whole-word
    vector: Add when W is None, else W applied to [p; r; s]."""
    cos, dist = [], []
    for p, r, s, w in quads:
        if W is None:
            pred = vec[p] + vec[r] + vec[s]
        else:
            pred = np.asarray(W) @ np.concatenate([vec[p], vec[r], vec[s]])
        cos.append(_cos(pred, vec[w]))
        dist.append(float(np.sqrt(((pred - vec[w]) ** 2).sum())))
    dim = len(vec[quads[0][3]])
    return {"acs": sum(cos) / len(cos),
            "aed": sum(dist) / len(dist) / math.sqrt(dim)}


def read_lexicon(path) -> dict:
    """{word: {label: count}} of a lexicon TSV, checking labels agree with
    the frequency keys."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word, labels, freqs = line.rstrip("\n").split("\t")
            freq = {}
            for item in freqs.split(","):
                lab, n = item.split(":")
                freq[lab] = int(n)
            if sorted(freq) != labels.split(","):
                raise ValueError(f"{word!r}: labels {labels} vs {freqs}")
            out[word] = freq
    return out
