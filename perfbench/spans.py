"""In-memory spans around calls into the program's layers.

Kept to the standard library's ``time`` so that a replay child can import
it before it measures ``import repro.cli`` without loading anything the
program would load itself.
"""

import time
from contextlib import contextmanager


class Tracer:
    """Records ``{id, name, start, end, parent, op, **attrs}`` spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None  # the op id every new span carries
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, **attrs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": end, "parent": parent, "op": self.op,
                               **attrs})


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out
