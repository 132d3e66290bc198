"""Telemetry exporters: human report, JSON, Prometheus text exposition.

One :class:`~repro.telemetry.spans.Telemetry` object renders three ways:

* :func:`render_report` -- the operator view: an indented span tree with
  per-stage wall time, call counts, and throughput, followed by the
  metric catalog.  This is what ``--telemetry report`` prints.
* :func:`render_json` -- the machine view, mirroring the experiments
  runner's ``--json`` convention.
* :func:`render_prometheus` -- the scrape view, in the Prometheus text
  exposition format (``# TYPE`` comments, ``_bucket{le=...}`` histogram
  series, spans as ``repro_span_seconds_total{span="..."}``).

Metric names use dots internally (``whomp.grammar_rules``) and are
sanitized to underscores with a ``repro_`` prefix for Prometheus.
"""

from __future__ import annotations

import json
import re
import sys
from typing import IO, Dict, List, Optional

from repro.telemetry.registry import Counter, Gauge, Histogram
from repro.telemetry.spans import Span, Telemetry

#: Exporter mode names accepted by the CLIs' ``--telemetry`` flag.
MODES = ("report", "json", "prom")


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1e3:8.2f}ms"


def format_rate(rate: float) -> str:
    """A rate with a k/M suffix (950, 1.2k, 3.45M)."""
    if rate >= 1e6:
        return f"{rate / 1e6:.2f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k"
    return f"{rate:.0f}"


def render_report(telemetry: Telemetry) -> str:
    """The human-readable telemetry report."""
    lines: List[str] = ["== telemetry report =="]
    spans = telemetry.spans()
    if spans:
        lines.append("span tree (wall time / calls / throughput):")
        for top in spans:
            for depth, span in top.walk():
                detail = f"{_format_seconds(span.seconds)}  x{span.calls}"
                if span.items:
                    detail += (
                        f"  {span.items} {span.unit}"
                        f"  ({format_rate(span.throughput)} {span.unit}/s)"
                    )
                lines.append(f"  {'  ' * depth}{span.name:<{24 - 2 * depth}} {detail}")
    metrics = list(telemetry.registry)
    if metrics:
        lines.append("metrics:")
        for metric in metrics:
            if isinstance(metric, Histogram):
                lines.append(
                    f"  {metric.name:<32} n={metric.count} sum={metric.sum:g} "
                    f"min={metric.minimum if metric.minimum is not None else '-'} "
                    f"max={metric.maximum if metric.maximum is not None else '-'} "
                    f"mean={metric.mean:g}"
                )
            else:
                value = metric.value
                shown = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"  {metric.name:<32} {shown}")
    if len(lines) == 1:
        lines.append("(no spans or metrics recorded)")
    return "\n".join(lines)


def _span_to_dict(span: Span) -> Dict[str, object]:
    out: Dict[str, object] = {
        "name": span.name,
        "seconds": span.seconds,
        "calls": span.calls,
    }
    if span.items:
        out["items"] = span.items
        out["unit"] = span.unit
        out["throughput"] = span.throughput
    if span.children:
        out["children"] = [_span_to_dict(c) for c in span.children.values()]
    return out


def telemetry_to_dict(telemetry: Telemetry) -> Dict[str, object]:
    """Plain-data form of the span tree and registry."""
    counters: Dict[str, object] = {}
    gauges: Dict[str, object] = {}
    histograms: Dict[str, object] = {}
    for metric in telemetry.registry:
        if isinstance(metric, Counter):
            counters[metric.name] = metric.value
        elif isinstance(metric, Gauge):
            gauges[metric.name] = metric.value
        elif isinstance(metric, Histogram):
            histograms[metric.name] = {
                "count": metric.count,
                "sum": metric.sum,
                "min": metric.minimum,
                "max": metric.maximum,
                "buckets": [
                    {"le": bound if bound != float("inf") else "+Inf",
                     "count": count}
                    for bound, count in metric.cumulative_buckets()
                ],
            }
    return {
        "spans": [_span_to_dict(s) for s in telemetry.spans()],
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def render_json(telemetry: Telemetry, indent: int = 2) -> str:
    return json.dumps(telemetry_to_dict(telemetry), indent=indent)


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    return prefix + _PROM_INVALID.sub("_", name)


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    return f"{value:g}"


def render_prometheus(telemetry: Telemetry) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for metric in telemetry.registry:
        name = _prom_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Histogram):
            for bound, count in metric.cumulative_buckets():
                lines.append(
                    f'{name}_bucket{{le="{_prom_value(bound)}"}} {count}'
                )
            lines.append(f"{name}_sum {_prom_value(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
        else:
            lines.append(f"{name} {_prom_value(metric.value)}")
    spans = [span for top in telemetry.spans() for __, span in top.walk()]
    if spans:
        lines.append("# TYPE repro_span_seconds_total counter")
        for span in spans:
            lines.append(
                f'repro_span_seconds_total{{span="{span.path}"}} '
                f"{_prom_value(span.seconds)}"
            )
        lines.append("# TYPE repro_span_calls_total counter")
        for span in spans:
            lines.append(
                f'repro_span_calls_total{{span="{span.path}"}} {span.calls}'
            )
        lines.append("# TYPE repro_span_items_total counter")
        for span in spans:
            if span.items:
                lines.append(
                    f'repro_span_items_total{{span="{span.path}"}} {span.items}'
                )
    return "\n".join(lines) + ("\n" if lines else "")


def render(telemetry: Telemetry, mode: str) -> str:
    """Render in the named mode (one of :data:`MODES`)."""
    if mode == "report":
        return render_report(telemetry)
    if mode == "json":
        return render_json(telemetry)
    if mode == "prom":
        return render_prometheus(telemetry)
    raise ValueError(f"unknown telemetry mode {mode!r}; choose from {MODES}")


def emit(
    telemetry: Telemetry,
    mode: Optional[str],
    out_path: Optional[str] = None,
    stream: Optional[IO[str]] = None,
) -> None:
    """Render and deliver: to ``out_path`` if given, else to ``stream``
    (default stdout).  A no-op when ``mode`` is None."""
    if mode is None:
        return
    text = render(telemetry, mode)
    if out_path:
        # Atomic like every other artifact write (profiles, checkpoints,
        # JSON results): a crash mid-emit must not leave a torn file a
        # scraper would half-parse.
        from repro.core.fsutil import atomic_write_text

        atomic_write_text(
            out_path, text if text.endswith("\n") else text + "\n"
        )
        target = stream if stream is not None else sys.stdout
        target.write(f"telemetry written to {out_path}\n")
    else:
        target = stream if stream is not None else sys.stdout
        target.write(text if text.endswith("\n") else text + "\n")
