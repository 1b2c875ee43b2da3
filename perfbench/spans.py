"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start, an end, a parent and an operation id (the
scenario, job or command it belongs to).  Spans stay in memory while the
run is measured and are written out as NDJSON when it ends.  A layer's
*self time* is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"id": len(self.spans), "name": name, "op": op, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, op: str | None = None) -> None:
        """Record a finished root span (for intervals timed elsewhere,
        e.g. by another thread)."""
        self.spans.append({"id": len(self.spans), "name": name, "op": op,
                           "parent": None, "start": start, "end": end})

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in self.spans}

    def by_name(self) -> dict[str, list[dict]]:
        out: dict[str, list[dict]] = defaultdict(list)
        for s in self.spans:
            out[s["name"]].append(s)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
