"""``store-ingest``: one closed-loop caller driving an in-process
``ProfileStore``.

Every ingested document is distinct, so content-addressed dedup never
short-circuits an ingest and the store grows by one run per ingest.
That makes the manifest and blob layers, and any per-ingest cost that
grows with store size, a large share of the time, which no other
workload does.  The window holds repeated *rounds* of the same seeded
work: each round starts from an empty store and grows it to 910 runs,
so every round sees per-ingest cost grow with store size, and the
metrics -- medians over rounds -- do not depend on how far a fast or
slow run got.  Rounds are short so that a run holds several.  Ingest
is fsync-bound, and fsync latency on a shared disk can swing by 2x
within seconds, and the kernel's CPU time for that disk work by 4x
between minutes, so the gated time is the user-mode CPU time the
operations take; their wall times are kept in the result file.  Every
round's store stays on disk until the run ends: deleting one inside
the window would hand its file-system work to the next round's fsyncs.

Documents are drawn from the seed: small synthetic LEAP profiles (a few
hundred bytes, JSON or binary) and, at a fixed 2% of operations,
variants of a real WHOMP suite document (gzip's profile, ~150 KB of
JSON).  Reads are a fixed 10%, split as ``repro.cluster.loadgen.
DEFAULT_MIX`` splits its reads: ``QueryEngine.find_runs`` by workload,
``QueryEngine.find_entries`` restricted to one run, ``get`` by run
selector, and a structural diff of a same-kind pair.  The 10% and 2%
are choices, not measurements: reads stay a small share so that the
store keeps growing, and the WHOMP variants are 2.2% of ingests so that
the ingest p99 falls on the large document's decode.

Correctness: every ingest must return the document's sha256 and kind,
every read must return what was ingested, and after the window the
store is reopened from disk and every acknowledged ingest is read back
byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import statistics
import time
from typing import Dict, List, Tuple

from repro.cluster.loadgen import DEFAULT_MIX
from repro.compression.lmad import LMAD, LMADProfileEntry, OverflowSummary
from repro.core.events import AccessKind
from repro.core.profile_io import dumps_bytes
from repro.profilers.leap import LeapProfile
from repro.profilers.whomp import WhompProfiler
from repro.store import store as store_module
from repro.store.blobs import sha256_hex
from repro.store.diff import diff_blobs
from repro.store.query import QueryEngine
from repro.store.store import ProfileStore
from repro.workloads.registry import create

import measure
from spans import SpanRecorder

#: share of a round's operations that read, and that ingest a WHOMP variant
READ_SHARE = 0.10
WHOMP_SHARE = 0.02
#: this benchmark's read ops and the loadgen op each stands for
READ_OPS = {"runs": "query-runs", "query": "query-entries", "get": "get", "diff": "diff"}
_LOADGEN_READS = sum(DEFAULT_MIX[k] for k in READ_OPS.values())
#: op mix of a round: (op, share)
MIX = (
    ("small", 1.0 - READ_SHARE - WHOMP_SHARE),
    ("whomp", WHOMP_SHARE),
) + tuple(
    (op, READ_SHARE * DEFAULT_MIX[k] / _LOADGEN_READS) for op, k in READ_OPS.items()
)
#: operations in one round; each round starts from an empty store
ROUND_OPS = 1000
#: a round opens with this many small ingests so reads have targets
LEAD_IN = 10
#: this share of run queries, gets and diffs target WHOMP runs (an exact
#: count per round, so every seed reads the large documents as often)
WHOMP_READ_SHARE = 0.2
WHOMP_READS = ("runs", "get", "diff")

#: the WHOMP suite document: gzip's profile at this scale
WHOMP_STANDIN = "gzip"
WHOMP_SCALE = 0.25


def small_leap_document(rng: random.Random, index: int) -> Tuple[bytes, int, int]:
    """A distinct ~300-byte LEAP profile: (bytes, accesses, entries).

    The index is folded into the time dimension of the first descriptor,
    so no two documents share a digest.
    """
    entries = {}
    exec_counts = {}
    kinds = {}
    total = 0
    for instruction in range(1 + rng.randrange(2)):
        count = 8 + rng.randrange(120)
        lmad = LMAD(
            (0, 8 * rng.randrange(512), index * 1000 + instruction),
            (0, 8 * (1 + rng.randrange(7)), 1 + rng.randrange(3)),
            count,
        )
        entries[(instruction, 1)] = LMADProfileEntry(
            lmads=(lmad,), overflow=OverflowSummary(dims=3), total_symbols=count
        )
        exec_counts[instruction] = count
        kinds[instruction] = AccessKind.LOAD if rng.random() < 0.7 else AccessKind.STORE
        total += count
    profile = LeapProfile(
        entries=entries,
        kinds=kinds,
        exec_counts=exec_counts,
        group_labels={1: "perfbench.block"},
        access_count=total,
    )
    fmt = "binary" if rng.random() < 0.5 else "json"
    return dumps_bytes(profile, fmt=fmt), total, len(entries)


class WhompVariants:
    """Distinct variants of one real WHOMP JSON document.

    Variant ``k`` names one extra object group in ``group_labels``; the
    grammars, and so the decode cost, are the suite document's.
    """

    MARKER = b'"group_labels": {'

    def __init__(self, seed: int) -> None:
        trace = create(WHOMP_STANDIN, scale=WHOMP_SCALE, seed=seed).trace()
        self.base = dumps_bytes(WhompProfiler().profile(trace), fmt="json")
        self.accesses = trace.access_count
        self._at = self.base.index(self.MARKER) + len(self.MARKER)

    def variant(self, k: int) -> bytes:
        label = f'"{900000 + k}": "perfbench variant {k}", '.encode()
        return self.base[: self._at] + label + self.base[self._at:]


class Ack:
    """One acknowledged ingest, enough to read it back."""

    __slots__ = ("run_id", "kind", "accesses", "entries", "source")

    def __init__(self, run_id, kind, accesses, entries, source):
        self.run_id = run_id
        self.kind = kind
        self.accesses = accesses
        self.entries = entries
        #: ("small", document index) or ("whomp", variant index)
        self.source = source


def _timed(spans: SpanRecorder, active: Dict[str, bool], name: str, function):
    def wrapper(*args, **kwargs):
        if not active["on"]:
            return function(*args, **kwargs)
        with spans.span(name):
            return function(*args, **kwargs)

    return wrapper


def _wrap_module(spans: SpanRecorder, active: Dict[str, bool]):
    """Time the store's calls into sniffing and decoding (validation)
    where the store module calls them; returns an undo function."""
    sniff = store_module.sniff_format
    decode = store_module.loads_bytes
    store_module.sniff_format = _timed(spans, active, "store.sniff", sniff)
    store_module.loads_bytes = _timed(spans, active, "profile_io.decode", decode)

    def undo() -> None:
        store_module.sniff_format = sniff
        store_module.loads_bytes = decode

    return undo


def round_schedule(rng: random.Random) -> List[Tuple[str, bool]]:
    """A round's operations as (op, whether it reads a WHOMP run): exact
    counts per kind and per target kind, in seeded order."""
    ops: List[Tuple[str, bool]] = []
    for op, share in MIX:
        count = round(share * ROUND_OPS)
        whomp_reads = round(WHOMP_READ_SHARE * count) if op in WHOMP_READS else 0
        ops += [(op, index < whomp_reads) for index in range(count)]
    rng.shuffle(ops)
    return [("small", False)] * LEAD_IN + ops


class Round:
    """One round: ``ROUND_OPS`` operations against a fresh store, then
    its checks.  Every round of a run does the same work."""

    def __init__(self, ctx, index, schedule, small_docs, whomp, spans, active) -> None:
        self.ctx = ctx
        self.root = os.path.join(ctx.workdir, f"store{index}")
        self.schedule = schedule
        self.small_docs = small_docs
        self.whomp = whomp
        self.spans = spans
        self.active = active
        self.latencies: Dict[str, List[float]] = {op: [] for op, __ in MIX}
        self.traced_small: List[float] = []
        #: user-mode CPU seconds of the untraced operations, by op
        self.cpu: Dict[str, float] = {op: 0.0 for op, __ in MIX}
        self.acks: List[Ack] = []
        self.input_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def run(self) -> None:
        store = ProfileStore(self.root)
        engine = QueryEngine(store)
        if self.ctx.trace:
            store.blobs.put = _timed(self.spans, self.active, "store.blob_put", store.blobs.put)
        # the same picks in every round of a run
        rng = random.Random(self.ctx.seed * 7919 + 3)
        small_acks: List[int] = []
        whomp_acks: List[int] = []
        small_index = whomp_index = 0
        try:
            for op_index, (op, whomp_target) in enumerate(self.schedule):
                # inputs and targets are prepared outside the timed call
                if op == "small":
                    data, accesses, entries = self.small_docs[small_index]
                    source = ("small", small_index)
                    small_index += 1
                elif op == "whomp":
                    data = self.whomp.variant(whomp_index)
                    accesses, entries = self.whomp.accesses, 0
                    source = ("whomp", whomp_index)
                    whomp_index += 1
                else:
                    # until two WHOMP runs exist, a WHOMP read reads small runs
                    whomp_read = whomp_target and len(whomp_acks) >= 2
                    pool = whomp_acks if whomp_read else small_acks
                    first, second = rng.sample(pool, 2)
                    target, other = self.acks[first], self.acks[second]
                    workload = "whomp" if whomp_read else "small"
                    expected_runs = len(pool)
                traced = self.ctx.trace and op_index % 2 == 1
                self.active["on"] = traced
                self.attempted += 1
                span_name = "store.ingest" if op in ("small", "whomp") else f"store.{op}"
                start = time.perf_counter()
                cpu_start = measure.user_cpu_seconds()
                try:
                    with self.spans.span(span_name) if traced else contextlib.nullcontext():
                        if op in ("small", "whomp"):
                            result = store.ingest_bytes(data, op)
                        elif op == "runs":
                            result = engine.find_runs(workload=workload)
                        elif op == "get":
                            result = store.get(target.run_id)
                        elif op == "query":
                            result = engine.find_entries(run=target.run_id)
                        else:
                            result = diff_blobs(
                                store.get_bytes(target.run_id), store.get_bytes(other.run_id)
                            )
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    self.fail(f"{op}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - start
                cpu = measure.user_cpu_seconds() - cpu_start
                if not traced:
                    self.latencies[op].append(elapsed)
                    self.cpu[op] += cpu
                elif op == "small":
                    self.traced_small.append(elapsed)
                # check the answer (untimed)
                if op in ("small", "whomp"):
                    kind = "leap" if op == "small" else "whomp"
                    if result.digest != sha256_hex(data) or result.kind != kind:
                        self.fail(f"{op}: ingest acknowledged the wrong digest or kind")
                        continue
                    self.input_bytes += len(data)
                    (small_acks if op == "small" else whomp_acks).append(len(self.acks))
                    self.acks.append(Ack(result.run_id, kind, accesses, entries, source))
                elif op == "runs":
                    if len(result) != expected_runs or any(
                        row["workload"] != workload for row in result
                    ):
                        self.fail(f"runs {workload}: {len(result)} rows, ingested {expected_runs}")
                elif op == "get":
                    got = result.access_count if target.kind == "leap" else result.get("access_count")
                    if got != target.accesses:
                        self.fail(f"get {target.run_id}: {got} accesses, ingested {target.accesses}")
                elif op == "query":
                    if len(result) != target.entries:
                        self.fail(f"query {target.run_id}: {len(result)} entries, ingested {target.entries}")
                elif result.kind != target.kind:
                    self.fail(f"diff {target.run_id} {other.run_id}: got a {result.kind} diff")
        finally:
            self.active["on"] = False
        self.stored_bytes = store.blobs.stored_bytes() + os.path.getsize(store.manifest_path)
        self.cache_hit_rate = store.cache.hit_rate
        self._read_back()

    def _read_back(self) -> None:
        """Reopen the store from disk; every acknowledged ingest must
        read back byte for byte."""
        reopened = ProfileStore(self.root)
        if len(reopened.runs()) != len(self.acks):
            self.fail(f"reopened store holds {len(reopened.runs())} runs, acknowledged {len(self.acks)}")
        for ack in self.acks:
            self.attempted += 1
            kind, index = ack.source
            expected = self.small_docs[index][0] if kind == "small" else self.whomp.variant(index)
            try:
                if reopened.get_bytes(ack.run_id) != expected:
                    self.fail(f"readback {ack.run_id}: bytes differ from the ingested document")
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.fail(f"readback {ack.run_id}: {type(exc).__name__}: {exc}")

    def ops(self) -> List[float]:
        return [s for values in self.latencies.values() for s in values]

def _growth(rounds: List[List[float]]) -> float:
    """Median small ingest of each round's last tenth over that of its
    first tenth, the tenths of all rounds pooled."""
    first: List[float] = []
    last: List[float] = []
    for small in rounds:
        tenth = max(1, len(small) // 10)
        first += small[:tenth]
        last += small[-tenth:]
    return statistics.median(last) / statistics.median(first)


def run_store(ctx) -> Dict[str, object]:
    schedule = round_schedule(random.Random(ctx.seed))
    doc_rng = random.Random(ctx.seed * 7919 + 1)
    small_docs = [
        small_leap_document(doc_rng, index) for index in range(sum(op == "small" for op, __ in schedule))
    ]
    whomp = WhompVariants(ctx.seed)
    # stays empty with tracing off
    spans = SpanRecorder()
    active = {"on": False}
    undo = _wrap_module(spans, active) if ctx.trace else None

    # warm-up outside the window: first-use imports and caches
    warm = ProfileStore(os.path.join(ctx.workdir, "warm"))
    for index in range(20):
        warm.ingest_bytes(small_docs[index][0], "warm")
    warm.get("r000001")
    shutil.rmtree(warm.root)

    rounds: List[Round] = []
    started = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - started < ctx.seconds:
            spans.pass_index = len(rounds)
            rounds.append(Round(ctx, len(rounds), schedule, small_docs, whomp, spans, active))
            rounds[-1].run()
    finally:
        if undo is not None:
            undo()
    window = time.perf_counter() - started

    setup_s = measure.time_fresh_interpreter(
        ctx.src_dir,
        "import sys\nfrom repro.store.store import ProfileStore\nProfileStore(sys.argv[1])\n",
        [rounds[-1].root],
    )
    pooled = {op: [s for r in rounds for s in r.latencies[op]] for op, __ in MIX}
    ingests = pooled["small"] + pooled["whomp"]
    reads = [s for op in READ_OPS for s in pooled[op]]
    growth = _growth([r.latencies["small"] for r in rounds])
    cache_hit_rate = statistics.median(r.cache_hit_rate for r in rounds)
    # medians over rounds: every round does the same work
    end_to_end = {
        "setup_s": setup_s,
        "user_cpu_ms_per_op": statistics.median(
            sum(r.cpu.values()) / len(r.ops()) for r in rounds
        ) * 1000.0,
        "peak_rss_mb": measure.peak_rss_mb(),
        "stored_bytes_per_input_byte": rounds[0].stored_bytes / rounds[0].input_bytes,
    }
    details = {
        "window_s": window,
        "rounds": len(rounds),
        "round_user_cpu_s": [sum(r.cpu.values()) for r in rounds],
        # per op kind: median over rounds of user CPU ms per operation
        "user_cpu_ms_by_op": {
            op: statistics.median(r.cpu[op] / len(r.latencies[op]) for r in rounds) * 1000.0
            for op, __ in MIX
        },
        "ops_per_s": statistics.median(len(r.ops()) / sum(r.ops()) for r in rounds),
        "op_p50_ms": statistics.median(statistics.median(r.ops()) for r in rounds) * 1000.0,
        "runs_per_round": len(rounds[0].acks),
        "whomp_document_bytes": len(whomp.base),
        "ingest_latency": measure.latency_summary(ingests),
        "small_ingest_latency": measure.latency_summary(pooled["small"]),
        "whomp_ingest_latency": measure.latency_summary(pooled["whomp"]),
        "read_latency": measure.latency_summary(reads),
        "ingest_growth": growth,
        "dedup_share": 0.0,
        "cache_hit_rate": cache_hit_rate,
    }
    per_layer: Dict[str, float] = {}
    if ctx.trace:
        traced_small = [s for r in rounds for s in r.traced_small]
        per_layer = _store_layers(spans)
        per_layer.update(
            {
                "store.ingest_growth": growth,
                "store.dedup_share": 0.0,
                "store.cache_hit_rate": cache_hit_rate,
                "trace.overhead": statistics.median(traced_small)
                / statistics.median(pooled["small"]),
            }
        )
    errors = [e for r in rounds for e in r.errors]
    return {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "errors": errors,
        "end_to_end": end_to_end,
        "details": details,
        "per_layer": per_layer,
        "spans": spans,
    }


def _store_layers(spans: SpanRecorder) -> Dict[str, float]:
    """Mean seconds per traced operation of each store layer."""
    by_id = {record[1]: record for record in spans.records}
    read_spans = tuple(f"store.{op}" for op in READ_OPS)
    self_totals: Dict[str, float] = {}
    cpu_totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    validate = 0.0
    read_total = 0.0
    for name, totals in spans.name_summary().items():
        self_totals[name] = totals["self_s"]
        counts[name] = totals["calls"]
        layer = name.split(".", 1)[0]
        cpu_totals[layer] = cpu_totals.get(layer, 0.0) + totals["cpu_s"]
    for name, __, parent, __, start, end, __ in spans.records:
        if name == "profile_io.decode" and by_id.get(parent, [""])[0] == "store.ingest":
            validate += end - start
        if name in read_spans:
            read_total += end - start
    ingests = counts.get("store.ingest", 0)
    reads = sum(counts.get(n, 0) for n in read_spans)
    ops = ingests + reads

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    out = {
        "store.sniff_s": per(self_totals.get("store.sniff", 0.0), ingests),
        "store.validate_s": per(validate, ingests),
        "store.blob_put_s": per(self_totals.get("store.blob_put", 0.0), ingests),
        "store.manifest_s": per(self_totals.get("store.ingest", 0.0), ingests),
        "store.read_s": per(read_total, reads),
        "profile_io.decode_s": per(
            self_totals.get("profile_io.decode", 0.0), counts.get("profile_io.decode", 0)
        ),
    }
    for layer, total in cpu_totals.items():
        out[f"{layer}.cpu_s"] = per(total, ops)
    return out
