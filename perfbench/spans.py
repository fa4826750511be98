"""In-memory span recorder for the benchmark's traced run.

A span is (id, name, start_ns, end_ns, parent id, run id). Spans nest by
the order they open, so a layer called from inside another layer's span is
its child, and a layer's self time is its duration minus what its children
cover. Nothing is written until ``dump`` is called at the end of the run.

Lazy record streams are pulled in fixed-size batches, so the ingest layer
is timed once per batch and never per row, and memory stays bounded.
"""

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from itertools import islice
from time import perf_counter_ns

BATCH = 4096


class NullTracer:
    """The untraced twin: the same calls, no spans, no batching."""

    def span(self, name):
        return nullcontext()

    def pull(self, stream, layer, *, rejects=False):
        return iter(stream) if rejects else stream.records()

    def count(self, name, n):
        pass

    def peak(self, name, n):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.run_id = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [sid, name, perf_counter_ns(), 0, self._open[-1] if self._open else None, self.run_id]
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            rec[3] = perf_counter_ns()
            self._open.pop()

    def pull(self, stream, layer, *, rejects=False):
        """Yield the stream's records (or every item, with ``rejects``),
        timing each batch pull as a ``layer`` span."""
        items = iter(stream) if rejects else stream.records()
        while True:
            with self.span(layer):
                batch = list(islice(items, BATCH))
            if not batch:
                return
            yield from batch

    def count(self, name, n):
        self.counts[self.run_id][name] += n

    def peak(self, name, n):
        counts = self.counts[self.run_id]
        counts[name] = max(counts[name], n)

    def self_times(self, run_id) -> dict[str, float]:
        """Seconds of self time per span name among the spans of one run."""
        covered = Counter()
        for sid, _, start, end, parent, rid in self.spans:
            if rid == run_id and parent is not None:
                covered[parent] += end - start
        out = Counter()
        for sid, name, start, end, _, rid in self.spans:
            if rid == run_id:
                out[name] += (end - start - covered[sid]) / 1e9
        return out

    def duration(self, run_id, name=None) -> float:
        """Seconds covered by the spans called ``name`` in one run, or by
        the run's root spans when no name is given."""
        return sum((end - start) / 1e9 for _, n, start, end, parent, rid in self.spans
                   if rid == run_id and (n == name if name else parent is None))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, rid in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "run": rid}) + "\n")
