"""Seeded input generators for the benchmark workloads.

Every generator takes the seed (through a ``numpy.random.Generator``) and
the size profile, writes its files, and returns the ground truth next to
them: what the program must produce from those files. The program sees only
the files. Nothing here imports ``chdzdt``.

Sizes are fixed by the profile, not drawn from the seed, so two seeds give
inputs of the same size and shape and differ only in content.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

LABELS = ("AR", "BER", "DZ", "EN", "FR")
LATIN = "abcdefghijklmnopqrstuvwyz"
FRENCH = LATIN + "éèàçêô"
ARABIC = ("".join(map(chr, range(0x0621, 0x063B)))
          + "".join(map(chr, range(0x0641, 0x064B))))
TIFINAGH = "".join(map(chr, range(0x2D30, 0x2D66)))
# outside every range of the shipped charset, so they tokenize as UNK
GREEK = "".join(map(chr, range(0x03B1, 0x03CA)))
CYRILLIC = "".join(map(chr, range(0x0430, 0x0450)))

TATWEEL = "ـ"
HARAKAT = "".join(map(chr, range(0x064B, 0x0653)))
# lines of a social source that contain one of these are dropped whole
REGION_PATTERNS = ("دابا", "برشا", "كفو")
# textual emoticon -> the emoji the normalizer must turn it into
EMOTICONS = {":)": "🙂", ":-)": "🙂", ":(": "🙁", ":D": "😃", ";)": "😉",
             "<3": "❤"}
EMOJI = ("😂", "👍", "🔥", "😃", "❤")
# attached punctuation -> the tokens spacing must split it into
SUFFIX_PUNCT = {",": [","], ".": ["."], "!": ["!"], "?": ["?"],
                "!!": ["!!"], "?!": ["?!"], "...": ["..."], "…": ["..."],
                "،": ["،"], "؟": ["؟"]}
WRAP_PUNCT = {("(", ")"): ["(", ")"], ("«", "»"): ['"', '"'],
              ("“", "”"): ['"', '"']}
MAX_WORD_LEN = 30


@dataclass(frozen=True)
class Profile:
    """Input sizes of one workload; every stage runs, at these sizes."""

    corpus_lines: int      # lines per corpus file (five files)
    pool: int              # distinct words per language, before sharing
    pretrain_epochs: int
    encode_lines: int
    morph_clusters: int
    morph_members: int
    probe_rows: int
    compose_quads: int
    sim_pairs: int
    tag_per_combo: int     # rows per (Gender, Number) combination
    pos_sentences: int
    pos_len: int
    sa_per_class: int
    tagger_epochs: int
    # times each operation runs per round; a short one runs several times
    # so that its median rests on enough samples
    repeats: tuple = ()


SMALL = dict(corpus_lines=40, pool=24, pretrain_epochs=4, encode_lines=120,
             morph_clusters=5, morph_members=3, probe_rows=40,
             compose_quads=12, sim_pairs=15, tag_per_combo=5,
             pos_sentences=10, pos_len=6, sa_per_class=5, tagger_epochs=2)
SMALL_REPEATS = dict(preprocess=3, encode=2, eval_morph=6, eval_noise=2,
                     eval_probe=3, eval_compose_add=4, eval_compose_mpcnc=3,
                     eval_sim=6, eval_tag=7)


def _profile(sizes: dict, repeats: dict) -> Profile:
    return Profile(**{**SMALL, **sizes},
                   repeats=tuple(sorted({**SMALL_REPEATS, **repeats}.items())))


PROFILES = {
    "corpus-to-encoder": _profile(
        {"corpus_lines": 200, "pool": 110, "pretrain_epochs": 2},
        {"preprocess": 1}),
    "encode-and-score": _profile(
        {"encode_lines": 450, "morph_clusters": 16, "morph_members": 5,
         "probe_rows": 100, "compose_quads": 40, "sim_pairs": 60},
        {"encode": 1, "eval_morph": 1, "eval_noise": 1, "eval_probe": 1,
         "eval_compose_add": 2, "eval_compose_mpcnc": 1, "eval_sim": 2}),
    "bigru-taggers": _profile(
        {"tag_per_combo": 15, "pos_sentences": 25, "pos_len": 8,
         "sa_per_class": 10, "tagger_epochs": 4},
        {"eval_tag": 2}),
}


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class _Words:
    """Unique random words; no character repeats more than twice in a row."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.used: set = set()

    def make(self, alphabet, lo: int = 3, hi: int = 9,
             double: bool = False) -> str:
        while True:
            n = int(self.rng.integers(lo, hi + 1))
            chars = []
            for _ in range(n):
                c = alphabet[int(self.rng.integers(len(alphabet)))]
                while chars and c == chars[-1]:
                    c = alphabet[int(self.rng.integers(len(alphabet)))]
                chars.append(c)
            if double:
                i = int(self.rng.integers(1, n))
                chars.insert(i, chars[i - 1])
                if i + 1 < len(chars) and chars[i + 1] == chars[i]:
                    continue
            word = "".join(chars)
            if word in self.used or any(p in word for p in REGION_PATTERNS):
                continue
            self.used.add(word)
            return word

    def pool(self, alphabet, n: int, lo: int = 3, hi: int = 9) -> list:
        # a third of the words carry a doubled letter for elongation noise
        return [self.make(alphabet, lo, hi, double=(i % 3 == 0))
                for i in range(n)]


def _doubled_at(word: str):
    for i in range(1, len(word)):
        if word[i] == word[i - 1]:
            return i - 1
    return None


def _is_arabic(word: str) -> bool:
    return "؀" <= word[0] <= "ۿ"


def _noisy(word: str, kind: str, rng) -> tuple:
    """(surface form, tokens the normalizer must turn it into)."""
    if kind == "elongate":
        i = _doubled_at(word)
        return word[:i] + word[i] * int(rng.integers(3, 7)) + word[i + 2:], \
            [word]
    if kind == "tatweel":
        i = int(rng.integers(1, len(word)))
        return word[:i] + TATWEEL * int(rng.integers(1, 5)) + word[i:], [word]
    if kind == "diacritics":
        out = []
        for c in word:
            out.append(c)
            if rng.random() < 0.5:
                out.append(HARAKAT[int(rng.integers(len(HARAKAT)))])
        return "".join(out), [word]
    if kind == "emoticon":
        alias = list(EMOTICONS)[int(rng.integers(len(EMOTICONS)))]
        return word + alias, [word, EMOTICONS[alias]]
    if kind == "punct":
        p = list(SUFFIX_PUNCT)[int(rng.integers(len(SUFFIX_PUNCT)))]
        return word + p, [word] + SUFFIX_PUNCT[p]
    if kind == "wrap":
        pair = list(WRAP_PUNCT)[int(rng.integers(len(WRAP_PUNCT)))]
        left, right = WRAP_PUNCT[pair]
        return pair[0] + word + pair[1], [left, word, right]
    raise ValueError(kind)


def _noise_kinds(word: str) -> list:
    kinds = ["emoticon", "punct", "wrap"]
    if _doubled_at(word) is not None:
        kinds.append("elongate")
    if _is_arabic(word):
        kinds += ["tatweel", "diacritics"]
    return kinds


def _special_tokens(rng) -> list:
    """Standalone noise every file carries once: each emoticon, each
    punctuation form, each emoji as a repeated run."""
    items = []
    for alias, emoji in EMOTICONS.items():
        items.append((alias, [emoji]))
    for p, toks in SUFFIX_PUNCT.items():
        items.append((p, list(toks)))
    for emoji in EMOJI:
        n = int(rng.integers(1, 7))
        items.append((emoji * n, [emoji] * min(n, 2)))
    return items


def corpus(rng: np.random.Generator, prof: Profile, out_dir: str) -> dict:
    """Five labelled corpus files plus the exact lexicon they must yield.

    DZ is a social source: its region-filtered lines are dropped whole, and
    its other lines code-switch into words shared with the FR and EN files.
    AR and DZ share Arabic-script words, EN and FR share Latin words, so
    the lexicon holds multi-label entries. Returns the labels map path, the
    expected lexicon {word: {label: count}}, the line count and the number
    of lines the region filter must drop.
    """
    os.makedirs(out_dir, exist_ok=True)
    words = _Words(rng)
    n = prof.pool
    shared_ar_dz = words.pool(ARABIC, max(2, n // 5))
    shared_en_fr = words.pool(LATIN, max(2, n // 8))
    pools = {
        "AR": words.pool(ARABIC, n) + shared_ar_dz,
        "BER": words.pool(TIFINAGH, n),
        "EN": words.pool(LATIN, n) + shared_en_fr,
        "FR": words.pool(FRENCH, n) + shared_en_fr,
    }
    switch = (pools["EN"][:max(2, n // 8)] + pools["FR"][:max(2, n // 8)]
              + shared_en_fr[:1])
    pools["DZ"] = (words.pool(ARABIC, n // 2) + words.pool(LATIN, n // 2)
                   + shared_ar_dz + switch)
    expected: dict = {}
    files = {}
    n_lines = 0
    n_dropped = 0
    for label in LABELS:
        pool = pools[label]
        n_drop = prof.corpus_lines // 10 if label == "DZ" else 0
        # every pool word and every special token appears at least once,
        # so the lexicon's size does not depend on the seed
        cover = [(w, None) for w in rng.permutation(pool).tolist()]
        cover += _special_tokens(rng)
        long_words = [words.make(LATIN, MAX_WORD_LEN + 1, MAX_WORD_LEN + 8)
                      for _ in range(3)]
        cover += [(w, []) for w in long_words]
        cover = [cover[i] for i in rng.permutation(len(cover))]
        lines = []
        counts: dict = {}
        while len(lines) < prof.corpus_lines:
            n_tok = int(rng.integers(5, 12))
            surface = []
            for _ in range(n_tok):
                if cover:
                    item, toks = cover.pop()
                else:
                    item, toks = pool[int(rng.integers(len(pool)))], None
                if toks is None:
                    kinds = _noise_kinds(item)
                    if rng.random() < 0.35:
                        item, toks = _noisy(
                            item, kinds[int(rng.integers(len(kinds)))], rng)
                    else:
                        toks = [item]
                surface.append(item)
                for tok in toks:
                    counts[tok] = counts.get(tok, 0) + 1
            lines.append(" ".join(surface))
        while cover:  # spill what did not fit into one last line
            item, toks = cover.pop()
            toks = [item] if toks is None else toks
            lines[-1] += " " + item
            for tok in toks:
                counts[tok] = counts.get(tok, 0) + 1
        for _ in range(n_drop):
            junk = words.make(ARABIC)
            pat = REGION_PATTERNS[int(rng.integers(len(REGION_PATTERNS)))]
            line = [pool[int(rng.integers(len(pool)))] for _ in range(4)]
            line.insert(int(rng.integers(5)), pat)
            line.append(junk)
            lines.insert(int(rng.integers(len(lines) + 1)), " ".join(line))
        for tok, c in counts.items():
            expected.setdefault(tok, {})[label] = c
        name = f"{label.lower()}.txt"
        _write(os.path.join(out_dir, name), "\n".join(lines) + "\n")
        files[name] = ({"label": label, "kind": "social"} if label == "DZ"
                       else label)
        n_lines += len(lines)
        n_dropped += n_drop
    labels_path = os.path.join(out_dir, "labels.json")
    _write(labels_path, json.dumps(files, ensure_ascii=False))
    return {"dir": out_dir, "labels": labels_path, "lexicon": expected,
            "lines": n_lines, "dropped": n_dropped,
            "words": len(expected)}


def _scripts_alphabet(i: int):
    return (LATIN, ARABIC, TIFINAGH)[i % 3]


def evaluation(rng: np.random.Generator, prof: Profile, out_dir: str) -> dict:
    """Word list for encode and the data files of every eval task.

    Returns paths and ground truth: the words encode must write, in order,
    and how many lines it must skip; the morph clusters, similarity pairs
    and composition quadruples the reference computations need; the split
    sizes the taggers must report.
    """
    os.makedirs(out_dir, exist_ok=True)
    words = _Words(rng)
    n_roots = max(prof.morph_clusters, 6)
    roots = [words.make(_scripts_alphabet(i), 3, 5) for i in range(n_roots)]
    prefixes = {a: [words.make(a, 1, 2) for _ in range(3)]
                for a in (LATIN, ARABIC, TIFINAGH)}
    suffixes = {a: [words.make(a, 2, 3) for _ in range(5)]
                for a in (LATIN, ARABIC, TIFINAGH)}

    clusters = []
    for i in range(prof.morph_clusters):
        sufs = suffixes[_scripts_alphabet(i)]
        members = [roots[i] + sufs[j % len(sufs)]
                   + ("" if j < len(sufs) else sufs[(j + 1) % len(sufs)])
                   for j in range(prof.morph_members)]
        clusters.append((roots[i], members))

    quads = []
    for _ in range(prof.compose_quads):
        i = int(rng.integers(n_roots))
        p = prefixes[_scripts_alphabet(i)][int(rng.integers(3))]
        s = suffixes[_scripts_alphabet(i)][int(rng.integers(5))]
        quads.append((p, roots[i], s, p + roots[i] + s))

    probe = []
    for _ in range(prof.probe_rows):
        i = int(rng.integers(n_roots))
        affixes = []
        word = roots[i]
        if rng.random() < 0.6:
            p = prefixes[_scripts_alphabet(i)][int(rng.integers(3))]
            word, affixes = p + word, affixes + [f"p-{p}"]
        if rng.random() < 0.8:
            s = suffixes[_scripts_alphabet(i)][int(rng.integers(5))]
            word, affixes = word + s, affixes + [f"s-{s}"]
        probe.append((word, affixes))

    vocab = sorted({w for r, ms in clusters for w in [r, *ms]}
                   | {w for q in quads for w in q})
    sim = []
    for _ in range(prof.sim_pairs):
        a, b = rng.choice(len(vocab), size=2, replace=False)
        # half-point scores, so rank ties occur
        sim.append((vocab[a], vocab[b], float(rng.integers(0, 21)) / 2))

    # encode list: every word the references need, then long words, words
    # with characters outside the vocabulary, and fillers
    needed = sorted(set(vocab))
    words.used.update(needed)  # fillers must not repeat a composed word
    n_dup = max(2, prof.encode_lines // 60)
    n_multi = n_dup
    n_unique = prof.encode_lines - n_dup - n_multi
    extra = [words.make(LATIN, 21, 28) for _ in range(3)]
    extra += [words.make(ARABIC, 21, 26) for _ in range(2)]
    extra += [words.make(GREEK, 4, 8) for _ in range(3)]
    extra += [words.make(CYRILLIC, 4, 8) for _ in range(2)]
    extra += [words.make(LATIN, 3, 4) + words.make(GREEK, 2, 3)
              for _ in range(2)]
    unique = needed + extra
    while len(unique) < n_unique:
        unique.append(words.make(_scripts_alphabet(len(unique)), 3, 12))
    unique = [unique[i] for i in rng.permutation(len(unique))]
    lines = [(" " + w + " ") if k % 17 == 0 else w
             for k, w in enumerate(unique)]
    for k in range(n_dup + n_multi):
        pos = int(rng.integers(1, len(lines) + 1))
        if k < n_dup:
            # a copy of a word the program has already seen at this point
            seen = [ln.strip() for ln in lines[:pos] if ln.strip()
                    and len(ln.split()) == 1]
            lines.insert(pos, seen[int(rng.integers(len(seen)))])
        else:
            a, b = rng.choice(len(unique), size=2, replace=False)
            lines.insert(pos, f"{unique[a]} {unique[b]}")
    lines.insert(len(lines) // 2, "")

    # tag rows: Gender x Number, the same count per combination, so the
    # stratified 60/40 split has one exact outcome
    tag_rows = []
    for g in ("F", "M"):
        for num in ("P", "S"):
            for _ in range(prof.tag_per_combo):
                tag_rows.append((words.make(_scripts_alphabet(len(tag_rows)),
                                            4, 9),
                                 f"Gender={g};Number={num}"))
    tag_rows = [tag_rows[i] for i in rng.permutation(len(tag_rows))]

    # PoS sentences: fixed length, every tag in every sentence, so the
    # split's sentence and token counts are exact
    tags = ("ADJ", "ADP", "DET", "NOUN", "PRON", "VERB")
    tag_words = {t: [words.make(_scripts_alphabet(j), 2, 8)
                     for j in range(12)] for t in tags}
    sentences = []
    for _ in range(prof.pos_sentences):
        seq = list(tags) + [tags[int(rng.integers(len(tags)))]
                            for _ in range(prof.pos_len - len(tags))]
        seq = [seq[i] for i in rng.permutation(len(seq))]
        sentences.append([(tag_words[t][int(rng.integers(12))], t)
                          for t in seq])

    polarity = ("negative", "neutral", "positive")
    sa_words = {p: [words.make(_scripts_alphabet(j), 3, 8) for j in range(15)]
                for p in polarity}
    common = [words.make(_scripts_alphabet(j), 2, 6) for j in range(10)]
    # six words a row, so the sequence lengths the taggers see, and with
    # them the work, do not depend on the seed
    sa_rows = []
    for p in polarity:
        for _ in range(prof.sa_per_class):
            text = [(sa_words[p] if rng.random() < 0.6 else common)
                    [int(rng.integers(10))] for _ in range(6)]
            sa_rows.append((p, " ".join(text)))
    sa_rows = [sa_rows[i] for i in rng.permutation(len(sa_rows))]

    paths = {k: os.path.join(out_dir, f) for k, f in (
        ("words", "words.txt"), ("clusters", "clusters.tsv"),
        ("probe", "affixes.tsv"), ("compose", "compose.tsv"),
        ("sim", "sim.tsv"), ("tag", "morph.tsv"), ("pos", "pos.conll"),
        ("sa", "sentiment.tsv"))}
    _write(paths["words"], "\n".join(lines) + "\n")
    _write(paths["clusters"], "".join("\t".join([r, *ms]) + "\n"
                                      for r, ms in clusters))
    _write(paths["probe"], "".join(f"{w}\t{','.join(a)}\n"
                                   for w, a in probe))
    _write(paths["compose"], "".join("\t".join(q) + "\n" for q in quads))
    _write(paths["sim"], "".join(f"{a}\t{b}\t{s}\n" for a, b, s in sim))
    _write(paths["tag"], "".join(f"{w}\t{f}\n" for w, f in tag_rows))
    _write(paths["pos"], "".join("".join(f"{w}\t{t}\n" for w, t in s) + "\n"
                                 for s in sentences))
    _write(paths["sa"], "".join(f"{p}\t{t}\n" for p, t in sa_rows))

    n_tag = len(tag_rows)
    return {
        "paths": paths,
        "encode_words": unique,
        "encode_skipped": n_dup + n_multi,
        "clusters": clusters,
        "sim": sim,
        "quads": quads,
        "probe_rows": len(probe),
        "tag_split": (n_tag * 3 // 5, n_tag * 2 // 5),
        "tag_tagsets": {"Gender": ["F", "M"], "Number": ["P", "S"]},
        "pos_split": (prof.pos_sentences * 3 // 5,
                      prof.pos_sentences * 2 // 5),
        "pos_len": prof.pos_len,
        "pos_tags": len(tags),
        "sa_split": {p: (prof.sa_per_class * 3 // 5,
                         prof.sa_per_class * 2 // 5) for p in polarity},
    }
