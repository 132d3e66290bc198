"""Shared measurement helpers: latency summaries, user-mode CPU time,
memory, host facts, and timing of fresh-interpreter start-ups."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: percentiles a latency summary may report, highest first
TAIL_PERCENTILES = (99.0, 90.0, 50.0)

#: fresh-interpreter set-up is timed this many times and the median kept
SETUP_REPEATS = 7


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(seconds: Sequence[float]) -> Dict[str, object]:
    """Median and tail of a latency sample, in milliseconds.

    A percentile is reported only when at least ten samples lie beyond
    it; otherwise its value is ``None``.  The sample count is always
    given.
    """
    count = len(seconds)
    out: Dict[str, object] = {"count": count}
    for pct in TAIL_PERCENTILES:
        beyond = count - math.ceil(pct / 100.0 * count)
        key = f"p{int(pct)}_ms"
        out[key] = (
            percentile(seconds, pct) * 1000.0 if count and beyond >= 10 else None
        )
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another live process's peak resident set size (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def user_cpu_seconds() -> float:
    """CPU seconds this process has spent in user mode: its own code,
    without the kernel's share of its system calls (file-system and
    disk work, which a shared disk makes vary by 4x between minutes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def process_user_cpu_seconds(pid: int) -> float:
    """User-mode CPU seconds another live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        # the fields after the parenthesised command name start at
        # state (field 3); utime is field 14
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / os.sysconf("SC_CLK_TCK")


def run_in_child(function, *args):
    """``function(*args)`` in a forked child; returns its JSON-able
    result.  The child's memory never counts toward this process's peak
    RSS.  An exception in the child becomes a ``RuntimeError`` here.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = {"result": function(*args)}
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        with os.fdopen(write_fd, "w") as out:
            json.dump(payload, out)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as handle:
        data = handle.read()
    __, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"checking child exited with status {status}")
    payload = json.loads(data)
    if "error" in payload:
        raise RuntimeError(payload["error"])
    return payload["result"]


def host_facts() -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def child_env(src_dir: str) -> Dict[str, str]:
    """Environment for a child interpreter that must import ``src``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir if not existing else f"{src_dir}{os.pathsep}{existing}"
    return env


def time_fresh_interpreter(
    src_dir: str, code: str, args: List[str], timeout: float = 60.0
) -> float:
    """Median wall seconds of ``SETUP_REPEATS`` runs of ``python -c code``.

    Raises ``RuntimeError`` if any run fails, so a broken set-up is a
    failed benchmark, not a fast one.
    """
    times = []
    env = child_env(src_dir)
    for __ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up interpreter failed: {proc.stderr.decode(errors='replace')}"
            )
    return statistics.median(times)
