"""``run.py --compare BASE... --to NEW...``: per-metric and per-layer
deltas between two sets of result files, so a regression can be traced
to a layer without rerunning anything.

Each side may hold several result files (runs with different seeds);
every metric is compared as the median over a side's files, and span
self times as the mean per call over all of a side's calls.

End-to-end metrics are flagged when their median got worse by more than
the bound BENCHMARK.json fixes for them.  The bounds were set for
medians over ten runs, and one run on a noisy host can move 25% on its
own, so the flags make the exit status 1 only when both sides hold at
least ``GATE_FILES`` results; a comparison of fewer files is a report,
not a gate.  Per-layer metrics and per-span self times have no bound;
they are listed with their change so the layer that moved stands out.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence

#: results each side needs before a flagged metric fails the comparison
GATE_FILES = 5


def _load(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def _change(base: float, new: float) -> Optional[float]:
    return (new - base) / abs(base) if base else None


def _fmt_change(change: Optional[float]) -> str:
    return "     n/a" if change is None else f"{change:+8.1%}"


def _medians(results: List[Dict[str, object]], section: str) -> Dict[str, float]:
    """Metric -> median over the results that report it."""
    values: Dict[str, List[float]] = {}
    for result in results:
        for name, value in result.get(section, {}).items():
            if value is not None:
                values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def _per_call(results: List[Dict[str, object]]) -> Dict[str, tuple]:
    """Span name -> (self wall ms, self CPU ms) per call, all results pooled."""
    totals: Dict[str, List[float]] = {}
    for result in results:
        for name, row in result.get("span_totals", {}).items():
            total = totals.setdefault(name, [0.0, 0.0, 0])
            total[0] += row["self_s"]
            total[1] += row["cpu_s"]
            total[2] += row["calls"]
    return {
        name: (1000.0 * wall / calls, 1000.0 * cpu / calls)
        for name, (wall, cpu, calls) in totals.items()
        if calls
    }


def _describe(label: str, paths: Sequence[str], results: List[Dict[str, object]]) -> None:
    workloads = sorted({str(r.get("workload")) for r in results})
    seeds = [r.get("seed") for r in results]
    traces = sorted({r.get("trace") for r in results})
    print(f"{label}: {len(paths)} file(s), workload {', '.join(workloads)}, "
          f"seeds {seeds}, trace {traces}")
    for host in {json.dumps(r.get("host"), sort_keys=True) for r in results}:
        print(f"  host {host}")


def compare_files(
    base_paths: Sequence[str], new_paths: Sequence[str], spec: Dict[str, object]
) -> int:
    base = [_load(path) for path in base_paths]
    new = [_load(path) for path in new_paths]
    _describe("base", base_paths, base)
    _describe("new ", new_paths, new)
    gating = len(base) >= GATE_FILES and len(new) >= GATE_FILES
    if not gating:
        print(f"(fewer than {GATE_FILES} results a side: flags are reported, not enforced)")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    regressions = 0

    print("\nend-to-end (medians)")
    new_e2e = _medians(new, "end_to_end")
    for name, value in sorted(_medians(base, "end_to_end").items()):
        other = new_e2e.get(name)
        if other is None:
            continue
        change = _change(value, other)
        flag = ""
        if name in bounds and change is not None:
            worse = change if bounds[name]["better"] == "lower" else -change
            if worse > bounds[name]["bound"]:
                flag = f"  WORSE than bound {bounds[name]['bound']:.0%}"
                regressions += 1
        print(f"  {name:34s} {value:14.6g} -> {other:14.6g} {_fmt_change(change)}{flag}")

    print("\nper layer (medians)")
    new_layers = _medians(new, "per_layer")
    for name, value in sorted(_medians(base, "per_layer").items()):
        other = new_layers.get(name)
        if other is None or (not value and not other):
            continue
        direction = better.get(name, "lower")
        print(f"  {name:34s} {value:14.6g} -> {other:14.6g} {_fmt_change(_change(value, other))}"
              f"  ({direction} is better)")

    base_spans = _per_call(base)
    new_spans = _per_call(new)
    if base_spans and new_spans:
        print("\nspan self time per call, ms (wall / CPU)")
        for name in sorted(set(base_spans) | set(new_spans)):
            a = base_spans.get(name, (0.0, 0.0))
            b = new_spans.get(name, (0.0, 0.0))
            print(f"  {name:34s} {a[0]:10.4f} / {a[1]:10.4f} -> "
                  f"{b[0]:10.4f} / {b[1]:10.4f} {_fmt_change(_change(a[0], b[0]))}")
    return 1 if regressions and gating else 0
