"""In-memory spans and counts recorded around calls into phondist's layers.

A span is (name, start, end, parent) with times from `time.perf_counter`,
which on Linux reads the system-wide monotonic clock, so spans recorded in
different processes of one run share a time base and can be merged. The
layer of a span is the part of its name before the first dot ("align.pair"
belongs to `align`); names without a dot, such as the root spans "setup",
"probe" and "unit:<workload>", belong to the benchmark itself.

Spans are kept in flat arrays while the run lasts and written out once at the
end (`Tracer.export`).
"""

import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Records nested spans and named counts for one process of one run."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str):
        """`fn` with a span named `name` around every call."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextmanager
    def patched(self, targets):
        """Route calls through traced wrappers while the block runs.

        `targets` holds (module, attribute, span name); each attribute is
        restored on exit, so code outside the block runs the original function.
        """
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        if self.enabled:
            for (mod, attr, original), (_, _, name) in zip(saved, targets):
                setattr(mod, attr, self.wrap(original, name))
        try:
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def export(self) -> dict:
        """Columnar, JSON-ready form of everything recorded."""
        return {
            "run_id": self.run_id,
            "names": list(self.names),
            "name_id": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counts": dict(self.counts),
        }


def merge(exports: list[dict]) -> list[tuple[str, float, float, int]]:
    """One span list (name, start, end, parent index) from several exports."""
    spans: list[tuple[str, float, float, int]] = []
    for ex in exports:
        offset = len(spans)
        names = ex["names"]
        for nid, start, end, parent in zip(ex["name_id"], ex["start"], ex["end"], ex["parent"]):
            spans.append((names[nid], start, end, parent + offset if parent >= 0 else -1))
    return spans


def merge_counts(exports: list[dict]) -> dict[str, int]:
    total: dict[str, int] = {}
    for ex in exports:
        for name, n in ex["counts"].items():
            total[name] = total.get(name, 0) + n
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children of one span may in principle overlap, so the covered part is the
    length of the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[int]] = {}
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    result = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][1]):
            c_start = max(spans[c][1], reach)
            c_end = min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def root_of(spans: list[tuple[str, float, float, int]], idx: int) -> int:
    while spans[idx][3] >= 0:
        idx = spans[idx][3]
    return idx


def layer(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "bench"

