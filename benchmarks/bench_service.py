"""Throughput benchmarks of the admission service layer.

What sustained admission rate does the service front-end add on top of the
bare allocator?  Three tiers isolate the overheads: the naked manager
(allocator + commit only), the threaded service without durability (lock +
queue + ticket machinery), and the journaled service (plus one WAL append
per decision).

Besides the closed-loop pytest-benchmark tiers, the module doubles as a
standalone **open-loop** benchmark for the admission batcher: requests
arrive without waiting on completions (the queue saturates), and the run
records the sustained drain rate and p99 sojourn latency at batch sizes
{1, 8, 32}.  This is the number the async front door's coalescing defends —
shared DP tables only pay when same-shape requests meet in the queue.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_service.py                     # paper tree
    PYTHONPATH=src python benchmarks/bench_service.py --scale tiny --num-requests 24
"""

from __future__ import annotations

import argparse
import itertools
import json
import time
from typing import Dict, Optional, Sequence

from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.manager import NetworkManager
from repro.service import AdmissionService, DurabilityStore

OPS_PER_ROUND = 50

DEFAULT_BATCH_SIZES = (1, 8, 32)


def _requests():
    for index in itertools.count():
        if index % 2:
            yield HomogeneousSVC(n_vms=2 + index % 3, mean=80.0, std=30.0)
        else:
            yield DeterministicVC(n_vms=2, bandwidth=60.0)


def _admit_release_round(submit, release):
    """Admit OPS_PER_ROUND mixed requests, releasing to stay in steady state."""
    source = _requests()
    active = []
    admitted = 0
    for _ in range(OPS_PER_ROUND):
        request_id = submit(next(source))
        if request_id is not None:
            admitted += 1
            active.append(request_id)
        if len(active) > 8:
            release(active.pop(0))
    for request_id in active:
        release(request_id)
    return admitted


class TestAdmissionThroughput:
    def test_bare_manager_baseline(self, benchmark, tiny_tree):
        manager = NetworkManager(tiny_tree)

        def submit(request):
            tenancy = manager.request(request)
            return None if tenancy is None else tenancy.request_id

        def release(request_id):
            manager.release(manager.tenancy(request_id))

        admitted = benchmark(lambda: _admit_release_round(submit, release))
        assert admitted > 0

    def test_service_no_journal(self, benchmark, tiny_tree):
        with AdmissionService(NetworkManager(tiny_tree)) as service:

            def submit(request):
                return service.submit(request, wait=True).request_id

            admitted = benchmark(
                lambda: _admit_release_round(submit, service.release)
            )
        assert admitted > 0

    def test_service_with_journal(self, benchmark, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "journal", snapshot_every=500)
        manager = NetworkManager(tiny_tree)
        with AdmissionService(manager, store=store) as service:

            def submit(request):
                return service.submit(request, wait=True).request_id

            admitted = benchmark(
                lambda: _admit_release_round(submit, service.release)
            )
        store.close()
        assert admitted > 0


# ----------------------------------------------------------------------
# Open-loop arrival mode (standalone): batch coalescing under saturation
# ----------------------------------------------------------------------


def run_open_loop_once(
    tree,
    batch_max: int,
    num_requests: int,
    n_vms: int,
    mean: float,
    std: float,
    linger_s: float = 0.0,
    wait_timeout_s: float = 600.0,
) -> Dict:
    """Saturate the service with same-shape SVC requests.

    Open loop: every request is submitted ``wait=False`` up front, so the
    arrival process never throttles on decisions and the queue depth is what
    gives the batcher something to coalesce.  Sustained req/s counts from the
    first submit to the last resolved ticket; the latency percentiles are the
    service's own submit-to-decision sojourn times.
    """
    from repro.service.codec import network_state_to_dict

    manager = NetworkManager(tree)
    service = AdmissionService(
        manager,
        batch_max=batch_max,
        batch_linger_s=linger_s,
        max_queue_depth=None,
    )
    service.start()
    try:
        request = HomogeneousSVC(n_vms=n_vms, mean=mean, std=std)
        start = time.perf_counter()
        tickets = [
            service.submit(request, wait=False) for _ in range(num_requests)
        ]
        for ticket in tickets:
            if not ticket.wait(timeout=wait_timeout_s):
                raise RuntimeError(
                    f"ticket did not resolve within {wait_timeout_s}s "
                    f"(batch_max={batch_max})"
                )
        elapsed = time.perf_counter() - start
        stats = service.stats()
        fingerprint = json.dumps(
            network_state_to_dict(manager.state), sort_keys=True
        )
    finally:
        service.stop()
    latency = stats["admission_latency"]
    return {
        "batch_max": batch_max,
        "requests": num_requests,
        "admitted": stats["counters"]["admitted"],
        "rejected": stats["counters"]["rejected"],
        "elapsed_s": elapsed,
        "sustained_req_per_sec": num_requests / elapsed,
        "p50_sojourn_ms": latency["p50_ms"],
        "p99_sojourn_ms": latency["p99_ms"],
        "coalesce_ratio": stats["batching"]["coalesce_ratio"],
        "batches_dispatched": stats["batching"]["batches"],
        "_state_fingerprint": fingerprint,
    }


def run_open_loop(
    scale_name: str = "paper",
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    num_requests: int = 160,
    n_vms: int = 16,
    mean: float = 30.0,
    std: float = 8.0,
    linger_ms: float = 0.0,
) -> Dict:
    """The open-loop sweep over batch sizes, plus the cross-checks.

    Decision identity of batched vs unbatched admission is *proven* by
    ``tests/service/test_batching.py``; here the final network-state
    fingerprint of every batch size is compared against batch 1 as a cheap
    consistency signal (``decisions_match_batch1``, gated in CI).
    """
    from repro.experiments.config import scale_by_name
    from repro.topology.builder import build_datacenter

    scale = scale_by_name(scale_name)
    tree = build_datacenter(scale.spec)
    results: Dict[str, Dict] = {}
    for batch_max in batch_sizes:
        print(f"[bench_service] open loop, batch_max={batch_max} ...", flush=True)
        row = run_open_loop_once(
            tree,
            batch_max=batch_max,
            num_requests=num_requests,
            n_vms=n_vms,
            mean=mean,
            std=std,
            linger_s=linger_ms / 1000.0,
        )
        results[str(batch_max)] = row
        print(
            f"  batch_max={batch_max:3d} {row['sustained_req_per_sec']:8.1f} req/s   "
            f"p99 {row['p99_sojourn_ms']:.2f} ms   "
            f"coalesce {row['coalesce_ratio']:.3f}",
            flush=True,
        )

    baseline = results.get("1")
    baseline_fp = baseline["_state_fingerprint"] if baseline is not None else None
    for row in results.values():
        fingerprint = row.pop("_state_fingerprint", None)
        if baseline_fp is not None:
            row["decisions_match_batch1"] = fingerprint == baseline_fp

    payload = {
        "benchmark": "service_open_loop",
        "scale": scale_name,
        "machines": len(tree.machine_ids),
        "slots": tree.total_slots,
        "requests": num_requests,
        "n_vms": n_vms,
        "mean": mean,
        "std": std,
        "batch_linger_ms": linger_ms,
        "batch_sizes": results,
    }
    if baseline is not None and "32" in results:
        payload["batch32_speedup_vs_1"] = (
            results["32"]["sustained_req_per_sec"]
            / baseline["sustained_req_per_sec"]
        )
    return payload


def main(argv: Optional[Sequence[str]] = None) -> None:
    from _provenance import stamped

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="paper", choices=["tiny", "small", "paper"],
                        help="datacenter scale (default: the paper's 1,000-machine tree)")
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=list(DEFAULT_BATCH_SIZES),
                        help="batcher sizes to sweep (default: 1 8 32)")
    parser.add_argument("--num-requests", type=int, default=160,
                        help="requests per run (default 160: ~64%% of the paper tree)")
    parser.add_argument("--n-vms", type=int, default=16,
                        help="VMs per request; >=16 exercises the vertex DP")
    parser.add_argument("--mean", type=float, default=30.0)
    parser.add_argument("--std", type=float, default=8.0)
    parser.add_argument("--batch-linger-ms", type=float, default=0.0,
                        help="batcher linger window (matches the serve flag)")
    parser.add_argument("--output", default="BENCH_service.json",
                        help="where to write the JSON results")
    args = parser.parse_args(argv)

    payload = run_open_loop(
        scale_name=args.scale,
        batch_sizes=tuple(args.batch_sizes),
        num_requests=args.num_requests,
        n_vms=args.n_vms,
        mean=args.mean,
        std=args.std,
        linger_ms=args.batch_linger_ms,
    )
    # Stamp before opening the output: truncating a tracked artifact first
    # would make the provenance report a dirty tree.
    payload = stamped(payload)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench_service] wrote {args.output}")
    if "batch32_speedup_vs_1" in payload:
        match = all(
            row.get("decisions_match_batch1", False)
            for row in payload["batch_sizes"].values()
        )
        print(
            f"[bench_service] batch 32 speedup vs 1: "
            f"{payload['batch32_speedup_vs_1']:.2f}x (decisions match: {match})"
        )


if __name__ == "__main__":
    main()
