"""The repository's benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload profile-both --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --compare BASE.json... --to NEW.json...

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Every run checks the program's outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result (host facts, per-stand-in
rows, latency summaries with sample counts, every span) is written to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``; ``--compare``
prints the per-metric and per-layer deltas between two sets of such
files (medians over each set).
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("profile-both", "profile-leap", "store-ingest", "serve-mixed")


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it.

    Exits 2 when the checkout holds no program, or when ``repro`` would
    come from anywhere but this checkout (an installed copy must never
    be measured in its place).
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Context:
    """What a workload needs: its inputs' seed, the window, tracing,
    where the sources live and a scratch directory in the checkout."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src_dir = SRC
        self.workdir = workdir


def run_workload(name: str, ctx: Context) -> dict:
    if name in ("profile-both", "profile-leap"):
        from workload_profile import run_profile

        return run_profile(ctx, both=name == "profile-both")
    if name == "store-ingest":
        from workload_store import run_store

        return run_store(ctx)
    from workload_serve import run_serve

    return run_serve(ctx)


def _report(spec: dict, workload: str, ctx: Context, result: dict, elapsed: float) -> dict:
    import measure

    declared = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    error_rate = failed / attempted if attempted else 1.0
    result["per_layer"]["error_rate"] = error_rate
    source = result["per_layer"] if ctx.trace else result["end_to_end"]
    metrics = {}
    for metric in declared:
        value = source.get(metric["name"])
        # a layer the workload does not exercise reads zero
        metrics[metric["name"]] = {
            "value": float(value) if value is not None else 0.0,
            "unit": metric["unit"],
        }
    summary = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    spans = result["spans"]
    full = {
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "elapsed_s": elapsed,
        "host": measure.host_facts(),
        "summary": summary,
        "error_rate": error_rate,
        "errors": result["errors"][:20],
        "end_to_end": result["end_to_end"],
        "details": result["details"],
        "per_layer": result["per_layer"],
        "span_totals": spans.name_summary(),
        # [name, id, parent id, pass, start s, end s, CPU s]
        "spans": spans.records,
    }
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(
        results_dir, f"{workload}-seed{ctx.seed}-trace{int(ctx.trace)}.json"
    )
    with open(path, "w") as handle:
        json.dump(full, handle, indent=1, sort_keys=True, default=float)
    for name, row in metrics.items():
        print(f"{workload:13s} {name:34s} {row['value']:14.6g} {row['unit']}")
    print(f"error_rate {full['error_rate']:.6g} ({failed}/{attempted}); full result: {path}")
    for error in full["errors"]:
        print(f"output check failed: {error}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="BASE",
                        help="result files of the base; needs --to")
    parser.add_argument("--to", nargs="+", metavar="NEW",
                        help="result files compared with the --compare ones")
    args = parser.parse_args(argv)
    if bool(args.compare) != bool(args.to):
        parser.error("--compare and --to go together")
    if args.compare:
        from compare import compare_files

        return compare_files(args.compare, args.to, load_spec())
    if args.workload is None:
        parser.error("--workload is required")
    import_program()
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    ctx = Context(args.seed, args.seconds, bool(args.trace), workdir)
    started = time.perf_counter()
    try:
        result = run_workload(args.workload, ctx)
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = _report(spec, args.workload, ctx, result, time.perf_counter() - started)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
