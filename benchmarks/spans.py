"""In-memory span recorder for the benchmark's traced runs.

A span is (name, run, parent, start, end).  Spans are opened only by the
benchmark, around its own calls into roadgeom; ``run`` is shared by every
span of one set-up load, pipeline repeat, query or check pass.  Nothing is
written until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from statistics import median


class NoSpans:
    """Stand-in used when tracing is off: every span is a no-op."""

    _null = nullcontext()

    def span(self, name, run=None):
        return self._null


class Spans:
    def __init__(self):
        self.records = []  # [name, run, parent index or None, start, end]
        self._open = []

    @contextmanager
    def span(self, name, run=None):
        parent = self._open[-1] if self._open else None
        if run is None:
            run = self.records[parent][1] if parent is not None else ""
        index = len(self.records)
        self.records.append([name, run, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index][4] = time.perf_counter()

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, _, _, start, end in self.records]
        for _, _, parent, start, end in self.records:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_run_medians(self, groups):
        """Self time summed per name within each run group, then the median
        over the groups where the name occurs.  ``groups`` maps a run id to
        its group (for example every query of a repeat to that repeat)."""
        sums = {}
        for (name, run, _, _, _), own in zip(self.records, self.self_times()):
            key = (name, groups(run))
            sums[key] = sums.get(key, 0.0) + own
        by_name = {}
        for (name, _), total in sums.items():
            by_name.setdefault(name, []).append(total)
        return {name: median(values) for name, values in by_name.items()}

    def total(self, run, names):
        """Summed duration of the spans of one run with one of these names."""
        return sum(end - start for n, r, _, start, end in self.records if r == run and n in names)

    def durations(self, name):
        return [end - start for n, _, _, start, end in self.records if n == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"name": name, "run": run, "parent": parent, "start": start, "end": end}
                    for name, run, parent, start, end in self.records
                ],
                handle,
            )
