"""In-memory spans recorded around calls into the library.

A span has a name, a kind ("stage" or "probe"), start and end times from
``time.perf_counter`` and the index of its parent span.  Stage spans follow
the pipeline; probe spans re-run one layer's public function to size it and
do not count toward coverage.  Only the ``--trace 1`` replay and probes
record spans; the untraced main phase runs without a tracer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, kind: str = "stage"):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "kind": kind, "start": time.perf_counter(),
               "end": None, "parent": parent}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` recorded at index >= since."""
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name]

    def root_stage_total(self, since: int = 0) -> float:
        """Summed duration of stage spans without a parent, from index since."""
        return sum(s["end"] - s["start"] for s in self.spans[since:]
                   if s["kind"] == "stage" and s["parent"] is None)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, indent=1)
            fh.write("\n")
