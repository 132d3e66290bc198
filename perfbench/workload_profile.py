"""The two profiling workloads: ``profile-both`` and ``profile-leap``.

``profile-both`` runs what ``repro-profile run <w> --profiler both
--format binary`` runs, in one process: the CLI's own trace collection
and profile writer, which runs WHOMP and LEAP over the trace (each
translates it itself), writes both binary profiles and computes the
sizes it reports.  gzip, mcf and parser are the strided, pointer-chasing
and pool-allocated stand-ins.

``profile-leap`` runs LEAP and then both LEAP post-processors (memory
dependence frequency and stride analysis) over all seven stand-ins.  It
never touches Sequitur, so it is the workload on which a Sequitur change
must show no change.

One *pass* profiles every stand-in of the workload once; a run repeats
passes until the measuring window closes.  A pass's time is the sum of
its stand-ins' profiling times; the output checks run between them, in
a forked child, so neither their time nor their memory is measured.
The gated time is user-mode CPU time (``measure.user_cpu_seconds``): a
typical pass costs the sum over the stand-ins of each one's median.
Wall times, which a shared host moves by 15-45% between minutes, are
kept in the result file.
With tracing off each stand-in goes through the CLI's functions
(``profile-both``) or the profilers' and post-processors' public entry
points (``profile-leap``).  With tracing on, passes alternate: an
untraced pass, then a staged pass that calls each layer's public
function inside its own span (the same stages the profilers' telemetry
path runs), whose outputs must be identical.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import time
import tracemalloc
from typing import Dict, List, Optional

from repro import cli
from repro.compression.lmad import DEFAULT_BUDGET
from repro.compression.sequitur import Ref
from repro.core.cdc import translate_trace
from repro.core.omc import ObjectManager
from repro.core.profile_io import dumps, dumps_bytes, load, save
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.core.tuples import DIMENSIONS, WILD_GROUP
from repro.postprocess import dependence as dependence_module
from repro.postprocess.dependence import analyze_dependences
from repro.postprocess.strides import LeapStrideAnalyzer
from repro.profilers.leap import LeapProfile, LeapProfiler
from repro.profilers.whomp import WhompProfile
from repro.workloads.registry import SPEC_BENCHMARKS, create

import measure
from spans import SpanRecorder

#: workload scale for every stand-in: a pass of profile-both takes a few
#: seconds, so a run holds several passes and reports their median
SCALE = 0.25
#: ``repro-profile run``'s default allocator
ALLOCATOR = "first-fit"

BOTH_STANDINS = ("gzip", "mcf", "parser")
LEAP_STANDINS = SPEC_BENCHMARKS
#: the stand-in checked against its seed-0 pins in every run (keyed by
#: "is this profile-both"): the quickest of each workload's set
PINNED_CHECK = {True: "parser", False: "crafty"}

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


# -- output digests ------------------------------------------------------


def _sha(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def productions_digest(grammar) -> str:
    """sha256 of a Sequitur grammar's ``to_productions()``."""
    return _sha(
        [
            [rule_id, [["R", s.rule_id] if isinstance(s, Ref) else ["T", s]
                       for s in rhs]]
            for rule_id, rhs in sorted(grammar.to_productions().items())
        ]
    )


def leap_digest(profile: LeapProfile) -> str:
    """sha256 of a LEAP profile's serialized entries."""
    return _sha(json.loads(dumps(profile))["entries"])


def dependence_digest(result) -> str:
    return _sha(
        {
            "conflicts": sorted([s, l, n] for (s, l), n in result.conflicts.items()),
            "loads": sorted(result.load_counts.items()),
            "stores": sorted(result.store_counts.items()),
        }
    )


def strides_digest(result) -> str:
    return _sha(
        {
            "histograms": sorted(
                [i, sorted(h.items())] for i, h in result.histograms.items()
            ),
            "exec": sorted(result.exec_counts.items()),
        }
    )


def load_pins() -> Dict[str, object]:
    with open(PINS_PATH) as handle:
        return json.load(handle)


# -- one stand-in, untraced (the public entry points) ----------------------


def _collect(name: str, seed: int, scale: float = SCALE):
    return create(name, scale=scale, seed=seed).trace(allocator=ALLOCATOR)


def both_untraced(name: str, seed: int, out_dir: str, scale: float = SCALE):
    """``repro-profile run <name> --profiler both --format binary``: the
    CLI's own collection and profile-writing functions, with the lines
    it prints discarded.  The profiles it saves are kept for the checks.
    """
    saved = []
    cli_save = cli.save

    def keep(profile, path, fmt="json"):
        saved.append(profile)
        cli_save(profile, path, fmt=fmt)

    cli.save = keep
    try:
        trace = cli._collect_workload_trace(name, scale, seed, ALLOCATOR)
        with contextlib.redirect_stdout(io.StringIO()):
            cli._write_profiles(trace, "both", out_dir, name, fmt="binary")
    finally:
        cli.save = cli_save
    whomp, leap = saved
    return trace, whomp, leap, None, None


def leap_untraced(name: str, seed: int, out_dir: str, scale: float = SCALE):
    trace = _collect(name, seed, scale)
    leap = LeapProfiler().profile(trace)
    dependences = analyze_dependences(leap)
    strides = LeapStrideAnalyzer().analyze(leap)
    return trace, None, leap, dependences, strides


# -- one stand-in, staged under spans ------------------------------------


class StageCounts:
    """Work counts gathered by the staged passes (one pass's worth)."""

    def __init__(self) -> None:
        self.accesses = 0
        self.translations = 0
        self.translated = 0
        self.wild = 0
        self.sequitur_symbols = 0
        self.grammar_symbols = 0
        self.lmad_entries = 0
        self.lmad_captured = 0
        self.lmad_fed = 0
        self.out_bytes = 0


def _translate(spans: SpanRecorder, trace, counts: StageCounts):
    omc = ObjectManager()
    with spans.span("cdc.translate"):
        accesses = list(translate_trace(trace, omc))
    counts.translations += 1
    counts.translated += len(accesses)
    counts.wild += sum(1 for a in accesses if a.group == WILD_GROUP)
    return omc, accesses


def _whomp_staged(spans: SpanRecorder, trace, counts: StageCounts) -> WhompProfile:
    omc, accesses = _translate(spans, trace, counts)
    scc = HorizontalSequiturSCC()
    with spans.span("scc.decompose"):
        streams = scc.decompose(accesses)
    with spans.span("sequitur.compress"):
        for dimension, values in streams.items():
            scc.grammars[dimension].feed_all(values)
    profile = WhompProfile(
        grammars=scc.grammars,
        base_addresses=omc.base_address_table(),
        lifetimes=omc.lifetime_table(),
        group_labels={g.group_id: g.label for g in omc.groups},
        access_count=len(accesses),
    )
    counts.sequitur_symbols += sum(len(v) for v in streams.values())
    counts.grammar_symbols += profile.size()
    return profile


def _leap_staged(spans: SpanRecorder, trace, counts: StageCounts) -> LeapProfile:
    omc, accesses = _translate(spans, trace, counts)
    scc = VerticalLMADSCC()
    with spans.span("scc.decompose"):
        substreams = scc.decompose(accesses)
    with spans.span("lmad.compress"):
        scc.compress_streams(substreams)
        entries = scc.finish()
    profile = LeapProfile(
        entries=entries,
        kinds=scc.kinds,
        exec_counts=scc.exec_counts,
        group_labels={g.group_id: g.label for g in omc.groups},
        access_count=len(accesses),
        budget=DEFAULT_BUDGET,
        lifetimes=omc.lifetime_table(),
    )
    counts.lmad_entries += len(entries)
    counts.lmad_captured += sum(e.captured_symbols for e in entries.values())
    counts.lmad_fed += len(accesses)
    return profile


def _save(spans: SpanRecorder, profile, path: str, counts: StageCounts) -> None:
    with spans.span("profile_io.encode"):
        save(profile, path, fmt="binary")
    counts.out_bytes += os.path.getsize(path)


def both_staged(spans, counts, name, seed, out_dir):
    with spans.span("runtime.collect"):
        trace = _collect(name, seed)
    counts.accesses += trace.access_count
    whomp = _whomp_staged(spans, trace, counts)
    _save(spans, whomp, os.path.join(out_dir, f"{name}.whomp.bin"), counts)
    # the sizes the CLI prints after each save
    with spans.span("cli.report"):
        whomp.size_bytes_varint()
    leap = _leap_staged(spans, trace, counts)
    _save(spans, leap, os.path.join(out_dir, f"{name}.leap.bin"), counts)
    with spans.span("cli.report"):
        leap.size_bytes()
        leap.accesses_captured()
    return trace, whomp, leap, None, None


def leap_staged(spans, counts, name, seed, out_dir):
    with spans.span("runtime.collect"):
        trace = _collect(name, seed)
    counts.accesses += trace.access_count
    leap = _leap_staged(spans, trace, counts)
    with spans.span("postprocess.dependence"):
        dependences = analyze_dependences(leap)
    with spans.span("postprocess.strides"):
        strides = LeapStrideAnalyzer().analyze(leap)
    return trace, None, leap, dependences, strides


# -- output checks ---------------------------------------------------------


class OutputChecker:
    """Checks every stand-in's outputs; one failure message per op."""

    def __init__(self, seed: int, out_dir: str) -> None:
        pins = load_pins()
        self.out_dir = out_dir
        self.pinned = pins["seeds"].get(str(seed)) if pins["scale"] == SCALE else None
        self.reference: Dict[str, str] = {}

    def digests(self, name, whomp, leap, dependences, strides) -> Dict[str, object]:
        out: Dict[str, object] = {"leap": leap_digest(leap)}
        if whomp is not None:
            out["whomp"] = {d: productions_digest(whomp.grammars[d]) for d in DIMENSIONS}
        if dependences is not None:
            out["dependence"] = dependence_digest(dependences)
            out["strides"] = strides_digest(strides)
        return out

    def check(self, name, trace, whomp, leap, dependences, strides) -> Optional[str]:
        """``None`` when correct, else what was wrong.

        The checks run in a forked child: they expand every stream and
        hold the raw trace as tuples, several times what the profilers
        need, and ``peak_rss_mb`` must measure the program, not them.
        """
        first = name not in self.reference
        try:
            key, problem = measure.run_in_child(
                self._examine, name, first, trace, whomp, leap, dependences, strides
            )
        except RuntimeError as exc:
            return f"{name}: output check raised {exc}"
        if first:
            self.reference[name] = key
            return problem
        # later passes must reproduce the first pass bit for bit
        return None if key == self.reference[name] else f"{name}: output changed between passes"

    def _examine(self, name, first, trace, whomp, leap, dependences, strides):
        """(digest of every output, problem or ``None``); the full
        checks only on a stand-in's first pass."""
        digests = self.digests(name, whomp, leap, dependences, strides)
        key = _sha(digests)
        if not first:
            return key, None
        return key, self._first_pass_problem(name, digests, trace, whomp, leap)

    def _first_pass_problem(self, name, digests, trace, whomp, leap) -> Optional[str]:
        if self.pinned is not None:
            for field, value in self.pinned[name].items():
                if field in digests and digests[field] != value:
                    return f"{name}: {field} digest differs from the pinned one"
        if leap.access_count != trace.access_count:
            return f"{name}: LEAP saw {leap.access_count} of {trace.access_count} accesses"
        described = sum(e.total_symbols for e in leap.entries.values())
        if described != trace.access_count or sum(leap.exec_counts.values()) != described:
            return f"{name}: LEAP entries describe {described} accesses"
        if whomp is not None:
            raw = [(a.instruction_id, a.address) for a in trace.accesses()]
            if whomp.reconstruct_accesses() != raw:
                return f"{name}: WHOMP reconstruct_accesses() is not lossless"
            loaded = load(os.path.join(self.out_dir, f"{name}.whomp.bin"))
            for dimension in DIMENSIONS:
                if loaded["streams"][dimension] != whomp.grammars[dimension].expand():
                    return f"{name}: written WHOMP {dimension} stream decodes differently"
            reread = load(os.path.join(self.out_dir, f"{name}.leap.bin"))
            if json.loads(dumps(reread)) != json.loads(dumps(leap)):
                return f"{name}: written LEAP profile decodes differently"
        return None


# -- the workloads ---------------------------------------------------------


def _trace_bytes_per_access(names, seed) -> float:
    """Bytes a recorded trace keeps alive per access (tracemalloc)."""
    total_bytes = 0
    total_accesses = 0
    for name in names:
        gc.collect()
        tracemalloc.start()
        try:
            trace = _collect(name, seed)
            total_bytes += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        total_accesses += trace.access_count
        del trace
    return total_bytes / total_accesses


def _setup_seconds(ctx, names) -> float:
    """A fresh interpreter importing the CLI and building the stand-ins:
    what every ``repro-profile run`` pays before it profiles."""
    code = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.workloads.registry import create\n"
        "for name in sys.argv[1].split(','):\n"
        "    create(name, scale=float(sys.argv[2]), seed=int(sys.argv[3]))\n"
    )
    return measure.time_fresh_interpreter(
        ctx.src_dir, code, [",".join(names), str(SCALE), str(ctx.seed)]
    )


def _warm_up(names, untraced, out_dir) -> None:
    """Import lazily loaded modules and fill first-use caches on tiny
    traces, so the first timed pass is not the odd one out."""
    for name in names:
        untraced(name, 0, out_dir, scale=0.01)


def _pinned_check(name: str, untraced, out_dir: str) -> Optional[str]:
    """Profile one stand-in at the pinned default seed and check it, so
    every run compares some output with its pinned digests, whatever
    seed the run was given."""
    result = untraced(name, 0, out_dir)
    return OutputChecker(0, out_dir).check(name, *result)


def run_profile(ctx, both: bool) -> Dict[str, object]:
    names = BOTH_STANDINS if both else LEAP_STANDINS
    untraced = both_untraced if both else leap_untraced
    staged = both_staged if both else leap_staged
    out_dir = ctx.workdir
    setup_s = _setup_seconds(ctx, names)
    trace_bytes = _trace_bytes_per_access(names, ctx.seed) if ctx.trace else None
    _warm_up(names, untraced, out_dir)
    checker = OutputChecker(ctx.seed, out_dir)
    errors: List[str] = []
    attempted = 1
    problem = _pinned_check(PINNED_CHECK[both], untraced, out_dir)
    failed = 0 if problem is None else 1
    if problem is not None:
        errors.append(f"seed 0 {problem}")
    # stays empty with tracing off
    spans = SpanRecorder()

    counting = {"intersections": 0}
    if ctx.trace:
        original = dependence_module.intersect_lmads

        def counted(*args, **kwargs):
            counting["intersections"] += 1
            return original(*args, **kwargs)

        dependence_module.intersect_lmads = counted

    untraced_passes: List[float] = []
    traced_passes: List[float] = []
    rows: Dict[str, Dict[str, List[float]]] = {n: {"wall_s": [], "cpu_s": []} for n in names}
    counts = StageCounts()
    raw_bytes = 0
    out_bytes = 0
    started = time.perf_counter()
    pass_number = 0
    try:
        while True:
            traced_pass = ctx.trace and pass_number % 2 == 1
            if traced_pass:
                spans.pass_index = len(traced_passes)
                counts = StageCounts()
                counting["intersections"] = 0
            gc.collect()
            pass_seconds = 0.0
            for name in names:
                attempted += 1
                op_start = time.perf_counter()
                cpu_start = measure.user_cpu_seconds()
                try:
                    if traced_pass:
                        with spans.span("bench.standin"):
                            result = staged(spans, counts, name, ctx.seed, out_dir)
                    else:
                        result = untraced(name, ctx.seed, out_dir)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    failed += 1
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - op_start
                cpu = measure.user_cpu_seconds() - cpu_start
                pass_seconds += elapsed
                problem = checker.check(name, *result)
                if problem is not None:
                    failed += 1
                    errors.append(problem)
                if not traced_pass:
                    rows[name]["wall_s"].append(elapsed)
                    rows[name]["cpu_s"].append(cpu)
                if pass_number == 0:
                    raw_bytes += result[0].raw_size_bytes()
                    out_bytes += _written_bytes(name, out_dir, both, result[2])
                    rows[name]["accesses"] = result[0].access_count
                del result
            (traced_passes if traced_pass else untraced_passes).append(pass_seconds)
            pass_number += 1
            window_closed = time.perf_counter() - started >= ctx.seconds
            if window_closed and (not ctx.trace or traced_passes):
                break
    finally:
        if ctx.trace:
            dependence_module.intersect_lmads = original

    if any(not rows[n]["wall_s"] for n in names):
        raise RuntimeError(f"a stand-in never completed: {errors[:3]}")
    # An operation is one pass over the stand-in set; a median over the
    # stand-ins themselves would mix unlike programs.  A typical pass's
    # CPU time is the sum of each stand-in's median, so one slow
    # stand-in in one pass does not move it.
    wall_s = statistics.median(untraced_passes)
    cpu_s = sum(statistics.median(rows[n]["cpu_s"]) for n in names)
    end_to_end = {
        "setup_s": setup_s,
        "user_cpu_ms_per_op": cpu_s * 1000.0,
        "peak_rss_mb": measure.peak_rss_mb(),
        "stored_bytes_per_input_byte": out_bytes / raw_bytes,
    }
    accesses = sum(rows[n]["accesses"] for n in names)
    details = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops_per_s": len(names) * len(untraced_passes) / sum(untraced_passes),
        "passes": len(untraced_passes),
        "profile_bytes_per_access": out_bytes / accesses,
        "standins": {
            name: {
                "accesses": row["accesses"],
                "wall_s": statistics.median(row["wall_s"]),
                "wall_s_samples": row["wall_s"],
                "cpu_s": statistics.median(row["cpu_s"]),
                "cpu_s_samples": row["cpu_s"],
            }
            for name, row in rows.items()
        },
    }
    per_layer: Dict[str, float] = {}
    if ctx.trace:
        per_layer = _profile_layers(spans, counts, counting, trace_bytes)
        per_layer["trace.overhead"] = statistics.median(traced_passes) / wall_s
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "end_to_end": end_to_end,
        "details": details,
        "per_layer": per_layer,
        "spans": spans,
    }


def _written_bytes(name: str, out_dir: str, both: bool, leap: LeapProfile) -> int:
    """Bytes of the binary profiles one stand-in produced.

    profile-leap writes no files; its LEAP profile is encoded here, after
    the timed pass, so the size is comparable with profile-both's.
    """
    if both:
        return sum(
            os.path.getsize(os.path.join(out_dir, f"{name}.{kind}.bin"))
            for kind in ("whomp", "leap")
        )
    return len(dumps_bytes(leap, fmt="binary"))


def _profile_layers(spans, counts: StageCounts, counting, trace_bytes) -> Dict[str, float]:
    layers = spans.pass_medians()
    names = spans.pass_medians(by_layer=False)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    sequitur_s = self_s("sequitur")
    out = {
        "runtime.collect_s": self_s("runtime"),
        "runtime.accesses": counts.accesses,
        "runtime.trace_bytes_per_access": trace_bytes,
        "cdc.translate_s": self_s("cdc"),
        "cdc.translations": counts.translations,
        "cdc.wild_share": counts.wild / counts.translated,
        "scc.decompose_s": self_s("scc"),
        "sequitur.compress_s": sequitur_s,
        "sequitur.symbols_per_s": counts.sequitur_symbols / sequitur_s if sequitur_s else 0.0,
        "sequitur.grammar_symbols": counts.grammar_symbols,
        "lmad.compress_s": self_s("lmad"),
        "lmad.entries": counts.lmad_entries,
        "lmad.captured_share": counts.lmad_captured / counts.lmad_fed,
        "postprocess.dependence_s": names.get("postprocess.dependence", {}).get("self_s", 0.0),
        "postprocess.strides_s": names.get("postprocess.strides", {}).get("self_s", 0.0),
        "omega.intersections": counting["intersections"],
        "profile_io.encode_s": self_s("profile_io"),
        "profile_io.out_bytes": counts.out_bytes,
    }
    for layer, row in layers.items():
        out[f"{layer}.cpu_s"] = row["cpu_s"]
    return out
