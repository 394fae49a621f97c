"""Tracing from outside the program.

Each traced public function is wrapped by rebinding its name in the module
(or class) that looks it up at call time; ``chdzdt.encoder`` imports
``layer_norm``, ``softmax`` and ``gelu`` by name, for example, so those
names are rebound in ``chdzdt.encoder``. Spans (name, start, end, parent)
are kept in memory and written out when the run ends. Nothing in ``src/``
changes, and ``restore`` puts every original back.
"""

from __future__ import annotations

import gzip
from time import perf_counter


def count_graph(roots) -> int:
    """Tensor nodes reachable from roots through their recorded inputs."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._prev)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent index]
        self._stack: list = []
        self._patches: list = []
        self.counts: dict = {}
        self.samples: dict = {}    # name -> list of values

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, owner, attr: str, name: str, pre=None, post=None,
             when=None) -> None:
        """Rebind owner.attr to a span-recording wrapper.

        pre(args) runs before the call, post(args, result) after the span
        closes; when(args) false skips the span for that call.
        """
        orig = vars(owner)[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return orig(*args, **kwargs)
            if pre is not None:
                pre(args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if post is not None:
                post(args, out)
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def _children_time(self) -> list:
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return covered

    def summary(self) -> dict:
        """name -> {calls, total_ms, self_ms}; self time is the span's
        duration minus the part its child spans cover."""
        covered = self._children_time()
        out: dict = {}
        for (name, t0, t1, _), child in zip(self.spans, covered):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (t1 - t0) * 1e3
            row["self_ms"] += (t1 - t0 - child) * 1e3
        return out

    def under(self, idx: int, ancestor: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def epoch_gaps_ms(self, outer: str, step: str) -> list:
        """Intervals between consecutive `step` span ends inside each
        `outer` span: one optimizer epoch each."""
        ends: dict = {}
        for idx, (name, _, t1, _) in enumerate(self.spans):
            if name != step:
                continue
            parent = self.spans[idx][3]
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            if parent >= 0:
                ends.setdefault(parent, []).append(t1)
        gaps = []
        for stamps in ends.values():
            gaps += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        return gaps

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0:.7f}\t{t1:.7f}\t{parent}\n")

