"""Cluster throughput: does sharded admission actually scale?

Builds the tentpole configuration — a 10,000-machine three-level tree
(``DatacenterSpec(machines_per_rack=20, racks_per_pod=10, pods=50)``) —
partitions it into K shards (process-backed, so allocator work runs
GIL-free), and pushes a fixed request stream through the coordinator from
K concurrent submitters.  Reported per shard count: requests/sec, routing
mix, and the post-run core-link occupancy (the Eq. (4) validity check —
every admitted configuration must keep ``O_L < 1``).

The headline number is ``speedup_4x_vs_1x``: the tentpole targets >= 3x.
CI runs the ``--smoke`` configuration (small tree, few requests,
non-gating); the full tree is a workstation run::

    PYTHONPATH=src python benchmarks/bench_cluster.py
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke
"""

from __future__ import annotations

import argparse
import json
import random
import threading
from time import perf_counter
from typing import Any, Dict, List

from _provenance import stamped

from repro.abstractions import HomogeneousSVC
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorError
from repro.cluster.partition import ClusterPartition
from repro.cluster.worker import ProcessShard, wait_for_shards
from repro.service.errors import ServiceError
from repro.topology.builder import DatacenterSpec

#: The tentpole tree: 50 pods x 10 racks x 20 machines = 10,000 machines.
PAPER_10K_SPEC = DatacenterSpec(machines_per_rack=20, racks_per_pod=10, pods=50)
SMOKE_SPEC = DatacenterSpec(machines_per_rack=10, racks_per_pod=4, pods=8)


def _requests(seed: int, count: int) -> List[HomogeneousSVC]:
    """A fixed stream of mostly-small tenants (identical for every K)."""
    rng = random.Random(seed)
    return [
        HomogeneousSVC(
            n_vms=rng.randint(2, 12),
            mean=rng.uniform(30.0, 90.0),
            std=rng.uniform(5.0, 25.0),
        )
        for _ in range(count)
    ]


def run_shard_count(
    spec: DatacenterSpec,
    shards: int,
    requests: List[HomogeneousSVC],
    submitters: int,
) -> Dict[str, Any]:
    """One cluster build + drive; returns the measured row."""
    partition = ClusterPartition.build(spec, shards)
    handles = [ProcessShard(view, None) for view in partition.shards]
    wait_for_shards(handles)
    coordinator = ClusterCoordinator(partition, handles)
    counters = {"admitted": 0, "rejected": 0, "errors": 0}
    routes: Dict[str, int] = {}
    tally = threading.Lock()
    cursor = iter(requests)

    def submitter() -> None:
        while True:
            with tally:
                request = next(cursor, None)
            if request is None:
                return
            try:
                decision = coordinator.submit(request)
            except (CoordinatorError, ServiceError):
                with tally:
                    counters["errors"] += 1
                continue
            with tally:
                route = decision.get("route", "unknown")
                routes[route] = routes.get(route, 0) + 1
                counters["admitted" if decision["outcome"] == "admitted"
                         else "rejected"] += 1

    try:
        threads = [
            threading.Thread(target=submitter, daemon=True)
            for _ in range(submitters)
        ]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = perf_counter() - started
        stats = coordinator.stats()
        occupancies = list(stats["core_occupancy"].values())
        return {
            "shards": shards,
            "submitters": submitters,
            "requests": len(requests),
            "seconds": round(elapsed, 4),
            "requests_per_sec": round(len(requests) / elapsed, 2) if elapsed else 0.0,
            "admitted": counters["admitted"],
            "rejected": counters["rejected"],
            "transport_errors": counters["errors"],
            "routes": routes,
            "max_core_occupancy": round(max(occupancies), 6) if occupancies else 0.0,
            "replica_max_occupancy": round(stats["replica_max_occupancy"], 6),
            "occupancy_valid": (max(occupancies) if occupancies else 0.0) < 1.0
            and stats["replica_max_occupancy"] < 1.0,
        }
    finally:
        coordinator.stop()
        for handle in handles:
            handle.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=400,
                        help="tenant requests per shard count (default: 400)")
    parser.add_argument("--shard-counts", default="1,2,4",
                        help="comma-separated shard counts (default: 1,2,4)")
    parser.add_argument("--smoke", action="store_true",
                        help="small tree + short stream (CI smoke configuration)")
    parser.add_argument("--output", default="BENCH_cluster.json")
    args = parser.parse_args(argv)

    spec = SMOKE_SPEC if args.smoke else PAPER_10K_SPEC
    count = min(args.requests, 60) if args.smoke else args.requests
    shard_counts = [int(k) for k in args.shard_counts.split(",")]
    requests = _requests(args.seed, count)

    rows = {}
    for shards in shard_counts:
        row = run_shard_count(spec, shards, requests, submitters=max(2, shards))
        rows[str(shards)] = row
        print(
            f"[bench_cluster] K={shards}: {row['requests_per_sec']:8.1f} req/s  "
            f"({row['admitted']} admitted, routes {row['routes']}, "
            f"O_L max {row['max_core_occupancy']:.3f})"
        )

    payload: Dict[str, Any] = {
        "spec": {
            "machines_per_rack": spec.machines_per_rack,
            "racks_per_pod": spec.racks_per_pod,
            "pods": spec.pods,
            "machines": spec.machines_per_rack * spec.racks_per_pod * spec.pods,
        },
        "smoke": bool(args.smoke),
        "seed": args.seed,
        "by_shards": rows,
    }
    if "1" in rows and "4" in rows and rows["1"]["requests_per_sec"] > 0:
        payload["speedup_4x_vs_1x"] = round(
            rows["4"]["requests_per_sec"] / rows["1"]["requests_per_sec"], 3
        )
        print(f"[bench_cluster] speedup 4 shards vs 1: {payload['speedup_4x_vs_1x']}x")
    payload["occupancy_valid"] = all(row["occupancy_valid"] for row in rows.values())

    # Stamp before opening the output: truncating a tracked artifact first
    # would make the provenance report a dirty tree.
    payload = stamped(payload)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench_cluster] wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
