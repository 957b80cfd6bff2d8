"""Shared helpers: percentiles, process accounting, provenance."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles the tail rule may pick from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for the system's processes: the checkout's sources, no .pyc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for spawned
    children (the cluster's shards); left alone it outlives the benchmark."""
    if "multiprocessing.resource_tracker" not in sys.modules:
        return
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float], preferred: float = 99.0) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` for the tail rule.

    The rule: the highest percentile, no higher than ``preferred``, that
    leaves at least ten samples beyond it.  Workloads fix ``preferred`` so
    the same percentile is reported run after run.
    """
    count = len(values)
    for pct in TAIL_LADDER:
        if pct > preferred:
            continue
        beyond = int(count * (100.0 - pct) / 100.0)
        if beyond >= MIN_BEYOND_TAIL or pct == TAIL_LADDER[-1]:
            return percentile(values, pct), pct, beyond
    return 0.0, TAIL_LADDER[-1], 0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process (from /proc)."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> Dict[str, Any]:
    """Who measured what: commit, dirty flag, host size, interpreter."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": (bool(status) if status is not None else None),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def decision_digest(decisions: Iterable[Any]) -> str:
    """Order-sensitive digest of a decision sequence."""
    digest = hashlib.sha256()
    for decision in decisions:
        digest.update(json.dumps(decision, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def sum_prometheus(text: str, family: str) -> float:
    """Sum every sample of one counter family in a Prometheus exposition."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family + "{") or line.startswith(family + " "):
            total += float(line.rsplit(" ", 1)[1])
    return total
