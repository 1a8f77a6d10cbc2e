"""In-memory call spans and their self times.

A `Tracer` wraps plain functions so that every call records a span: a
name, a start and end time, and the span that was open when it began
(its parent).  Spans are kept in flat arrays while the traced code runs
and are only summarized, or written out, after it has finished.

The tracer assumes one thread: a span's parent is the innermost span
still open when it starts.
"""

import functools
import math
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []      # indices of the spans still running

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_result=None):
        """Return `fn` wrapped in a span; `on_result` sees each return value."""
        nid = self._intern(name)
        clock = self.clock
        name_ids, parents, starts, ends = (self.name_id, self.parent,
                                           self.start, self.end)
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_times(self):
        """Per span: its duration minus the part its children cover."""
        return self_times(self.parent, self.start, self.end)

    def summary(self):
        """{name: {"calls", "self_s"}} over all recorded spans."""
        own = self.self_times()
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own[i]
        return out

    def dump(self, path):
        """Write one tab-separated line per span: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, nid in enumerate(self.name_id):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[nid]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\n")


def self_times(parent, start, end):
    """Self time of each span given parallel parent/start/end sequences.

    Spans must be listed in order of their start times, as a `Tracer`
    records them.  Each child is clipped to its parent's interval and
    overlapping children are counted once, so the result never goes
    below zero.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [-math.inf] * n      # furthest end of the children seen so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
