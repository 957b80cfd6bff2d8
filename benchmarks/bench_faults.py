"""Admission under injected journal faults vs a clean journal.

How much does the fault-handling machinery cost when faults actually fire?
Two variants of the same journaled admit/release workload:

* **clean** — no failpoints armed: the baseline price of one WAL append
  per decision (plus the always-present failpoint hooks, which is the
  interesting regression to watch);
* **faulty** — ``journal.write`` armed with a 1% error probability: every
  hit rolls a mutation back, degrades the service to read-only, and the
  workload rides the retry/probe/recover cycle like a real client would.

Reported per variant: decided requests/sec and p50/p99 decision latency,
both over the service's own time.  After each shed the client backs off
for one probe cycle (``BACKOFF_S``); that sleep is the client's, so it is
kept out of the timed region and reported apart as ``backoff_s``.  The
faulty variant adds the two numbers that say what one fault costs:

* ``shed_per_fault`` — requests shed per injected journal fault;
* ``recovery_s`` — seconds from the first injected fault until the
  degradation ladder is back at ``full``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_faults.py --operations 300
    PYTHONPATH=src python benchmarks/bench_faults.py --fault-rate 0.05
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from _provenance import stamped

from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.experiments.config import SCALES
from repro.faults.failpoints import FAILPOINTS, FP_JOURNAL_WRITE, MODE_ERROR
from repro.manager import NetworkManager
from repro.service import AdmissionService, DurabilityStore, ServiceError
from repro.service.degrade import STATE_FULL, DegradationLadder
from repro.topology import build_datacenter

#: Client backoff after a shed: one probe cycle of the ladder below.
BACKOFF_S = 0.01
PROBE_INTERVAL_S = 0.005


class TimedLadder(DegradationLadder):
    """The service's degradation ladder, logging ``(time, state)`` per step."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.steps: List[Tuple[float, str]] = []

    def record_failure(self, error: BaseException) -> str:
        state = super().record_failure(error)
        self.steps.append((self.clock(), state))
        return state

    def record_success(self) -> str:
        state = super().record_success()
        self.steps.append((self.clock(), state))
        return state


def recovery_seconds(steps: List[Tuple[float, str]]) -> Optional[float]:
    """First failure to the next return to ``full``; None if never back."""
    if not steps:
        return None
    first_fault = steps[0][0]
    for when, state in steps:
        if state == STATE_FULL:
            return when - first_fault
    return None


def _requests():
    for index in itertools.count():
        if index % 2:
            yield HomogeneousSVC(n_vms=2 + index % 3, mean=80.0, std=30.0)
        else:
            yield DeterministicVC(n_vms=2, bandwidth=60.0)


def run_variant(
    fault_rate: float,
    scale_name: str = "tiny",
    operations: int = 300,
    seed: int = 0,
) -> Dict:
    """One journaled workload; returns latency/throughput/fault statistics."""
    tree = build_datacenter(SCALES[scale_name].spec)
    FAILPOINTS.clear()
    FAILPOINTS.seed(seed)
    point = None
    if fault_rate > 0.0:
        point = FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR, probability=fault_rate)
    ladder = TimedLadder(probe_interval=PROBE_INTERVAL_S)
    latencies: List[float] = []
    decided = shed = rolled_back = 0
    backoff = 0.0

    def back_off() -> None:
        nonlocal shed, backoff
        shed += 1
        t0 = time.perf_counter()
        time.sleep(BACKOFF_S)
        backoff += time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="bench-faults-") as tmp:
        store = DurabilityStore(Path(tmp), snapshot_every=200)
        service = AdmissionService(
            NetworkManager(tree), store=store, degradation=ladder
        ).start()
        source = _requests()
        active: List[int] = []
        started = time.perf_counter()
        try:
            for _ in range(operations):
                request = next(source)
                t0 = time.perf_counter()
                try:
                    ticket = service.submit(request, wait=True, wait_timeout=10.0)
                except ServiceError:
                    # Shed while degraded: wait out one probe cycle and
                    # move on — exactly what a backoff-respecting client does.
                    back_off()
                    continue
                latencies.append(time.perf_counter() - t0)
                decided += 1
                if ticket.outcome == "admitted":
                    active.append(ticket.request_id)
                elif ticket.outcome == "error":
                    rolled_back += 1
                if len(active) > 8:
                    try:
                        service.release(active.pop(0))
                    except ServiceError:
                        back_off()
            elapsed = time.perf_counter() - started - backoff
        finally:
            service.stop()
            store.close()
            FAILPOINTS.clear()
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, round(p * (len(ordered) - 1)))]

    faults = point.triggered if point is not None else 0
    return {
        "fault_rate": fault_rate,
        "operations": operations,
        "decided": decided,
        "shed": shed,
        "rolled_back": rolled_back,
        "faults_injected": faults,
        "shed_per_fault": shed / faults if faults else None,
        "recovery_s": recovery_seconds(ladder.steps),
        "backoff_s": backoff,
        "requests_per_sec": decided / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": 1000.0 * pct(0.50),
            "p99": 1000.0 * pct(0.99),
            "mean": 1000.0 * statistics.fmean(latencies) if latencies else 0.0,
        },
    }


def run_bench(
    scale_name: str = "tiny",
    operations: int = 300,
    fault_rate: float = 0.01,
    seed: int = 0,
) -> Dict:
    return {
        "benchmark": "faults",
        "scale": scale_name,
        "seed": seed,
        "clean": run_variant(0.0, scale_name, operations, seed),
        "faulty": run_variant(fault_rate, scale_name, operations, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    parser.add_argument("--operations", type=int, default=300)
    parser.add_argument("--fault-rate", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_faults.json")
    args = parser.parse_args(argv)

    # Stamp before opening the output: truncating a tracked artifact first
    # would make the provenance report a dirty tree.
    payload = stamped(
        run_bench(
            scale_name=args.scale,
            operations=args.operations,
            fault_rate=args.fault_rate,
            seed=args.seed,
        )
    )
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench_faults] wrote {args.output}")
    for name in ("clean", "faulty"):
        row = payload[name]
        print(
            f"[bench_faults] {name:6s} {row['requests_per_sec']:8.1f} req/s  "
            f"p50 {row['latency_ms']['p50']:.2f}ms  p99 {row['latency_ms']['p99']:.2f}ms  "
            f"(shed {row['shed']}, rolled back {row['rolled_back']}, "
            f"backoff {row['backoff_s']:.2f}s untimed)"
        )
    faulty = payload["faulty"]
    per_fault = faulty["shed_per_fault"]
    recovery = faulty["recovery_s"]
    print(
        f"[bench_faults] {faulty['faults_injected']} injected fault(s): "
        f"shed/fault {'n/a' if per_fault is None else f'{per_fault:.2f}'}, "
        f"first fault -> full "
        f"{'never' if recovery is None else f'{1000.0 * recovery:.1f}ms'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
