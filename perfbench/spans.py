"""In-memory span recorder for the benchmark's traced runs.

A span is opened by the benchmark around one call into a layer's public
function; it records wall time (``time.perf_counter``) and the calling
thread's CPU time (``time.thread_time``), so a layer's number splits
into computing and waiting.  Spans stay in memory and are written out
with the result when the run ends.

Span names are ``<layer>.<operation>``; the part before the first dot is
the layer a span's self time is charged to.  Self time is a span's
duration minus the durations of its direct children (children always
run in the parent's thread, so they never overlap each other).
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from typing import Dict, Iterator, List


class SpanRecorder:
    """Records nested spans from any number of threads."""

    def __init__(self) -> None:
        self.records: List[List[object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: the current repetition (pass) index, stamped on each span so
        #: per-pass medians can be taken; workloads set it
        self.pass_index = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            cpu_end = time.thread_time()
            stack.pop()
            with self._lock:
                self.records.append(
                    [name, span_id, parent, self.pass_index,
                     start, end, cpu_end - cpu]
                )

    def self_times(self) -> Dict[int, Dict[str, List[float]]]:
        """pass index -> span name -> [self wall s, self CPU s, calls]."""
        child_wall: Dict[int, float] = {}
        child_cpu: Dict[int, float] = {}
        for name, span_id, parent, __, start, end, cpu in self.records:
            if parent:
                child_wall[parent] = child_wall.get(parent, 0.0) + end - start
                child_cpu[parent] = child_cpu.get(parent, 0.0) + cpu
        out: Dict[int, Dict[str, List[float]]] = {}
        for name, span_id, __, pass_index, start, end, cpu in self.records:
            row = out.setdefault(pass_index, {}).setdefault(name, [0.0, 0.0, 0])
            row[0] += (end - start) - child_wall.get(span_id, 0.0)
            row[1] += cpu - child_cpu.get(span_id, 0.0)
            row[2] += 1
        return out

    def pass_medians(self, by_layer: bool = True) -> Dict[str, Dict[str, float]]:
        """Layer (or span name) -> median-over-passes self wall and CPU
        seconds.

        A pass in which a layer recorded nothing counts as zero for it,
        so a layer exercised only sometimes is not overstated.
        """
        per_pass = self.self_times()
        layers: Dict[str, Dict[int, List[float]]] = {}
        for pass_index, names in per_pass.items():
            for name, (wall, cpu, __) in names.items():
                layer = name.split(".", 1)[0] if by_layer else name
                row = layers.setdefault(layer, {}).setdefault(
                    pass_index, [0.0, 0.0]
                )
                row[0] += wall
                row[1] += cpu
        passes = sorted(per_pass)
        out: Dict[str, Dict[str, float]] = {}
        for layer, rows in layers.items():
            walls = [rows.get(p, [0.0, 0.0])[0] for p in passes]
            cpus = [rows.get(p, [0.0, 0.0])[1] for p in passes]
            out[layer] = {
                "self_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
            }
        return out

    def name_summary(self) -> Dict[str, Dict[str, float]]:
        """Span name -> totals over the run (for the compare mode)."""
        out: Dict[str, Dict[str, float]] = {}
        for names in self.self_times().values():
            for name, (wall, cpu, calls) in names.items():
                row = out.setdefault(
                    name, {"self_s": 0.0, "cpu_s": 0.0, "calls": 0}
                )
                row["self_s"] += wall
                row["cpu_s"] += cpu
                row["calls"] += calls
        return out

