"""Admission fast-path benchmark: the service's per-request throughput ceiling.

Drives a Fig. 7-style Poisson arrival stream (jobs arrive, hold their
allocation for their compute time, then depart) through the admission path of
each allocator variant and records wall-clock allocate latency per request:

* ``svc-dp``       — Algorithm 1, fast path (pruned/batched/vectorized DP)
* ``svc-dp-seed``  — Algorithm 1, seed reference implementation
* ``tivc``         — the adapted-TIVC baseline (fast path)
* ``svc-het``      — the heterogeneous substring heuristic, fast path
* ``svc-het-seed`` — the heterogeneous heuristic, reference implementation

The output (``BENCH_admission.json`` by default) is the perf trajectory
subsequent PRs defend: requests/sec and p50/p99 allocate latency per variant,
plus the fast-vs-seed speedups.  Placement equivalence of each fast path vs
its reference is *proven* by the test suite
(``tests/allocation/test_fast_path_equivalence.py`` and
``tests/allocation/test_het_fast_equivalence.py``); the benchmark
cross-checks the admit/reject tallies as a cheap consistency signal
(``svc_dp_decisions_match_seed`` / ``svc_het_decisions_match_seed``, both
gated in CI).

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_admission_path.py            # paper tree
    PYTHONPATH=src python benchmarks/bench_admission_path.py --scale small --num-jobs 60
"""

from __future__ import annotations

import argparse
import heapq
import json
import time
from typing import Dict, List, Optional

import numpy as np

from _provenance import stamped

from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator
from repro.allocation.svc_homogeneous import (
    AdaptedTIVCAllocator,
    SVCHomogeneousAllocator,
)
from repro.experiments.config import scale_by_name
from repro.manager.network_manager import NetworkManager
from repro.simulation.workload import (
    assign_poisson_arrivals,
    generate_jobs,
    make_request,
)
from repro.topology.builder import build_datacenter

DEFAULT_VARIANTS = ("svc-dp", "svc-dp-seed", "tivc", "svc-het", "svc-het-seed")


def _make_allocator(variant: str):
    if variant == "svc-dp":
        return SVCHomogeneousAllocator()
    if variant == "svc-dp-seed":
        return SVCHomogeneousAllocator(fast=False)
    if variant == "tivc":
        return AdaptedTIVCAllocator()
    if variant == "svc-het":
        return SVCHeterogeneousAllocator()
    if variant == "svc-het-seed":
        return SVCHeterogeneousAllocator(fast=False)
    raise ValueError(f"unknown variant {variant!r}; choose from {DEFAULT_VARIANTS}")


def _arrival_stream(scale_name: str, seed: int, load: float, num_jobs: Optional[int],
                    heterogeneous: bool):
    """Fig. 7-style workload: Poisson arrivals at the target datacenter load."""
    scale = scale_by_name(scale_name)
    overrides: Dict = {"heterogeneous": heterogeneous}
    if num_jobs is not None:
        overrides["num_jobs"] = num_jobs
    config = scale.workload(**overrides)
    specs = generate_jobs(config, np.random.default_rng(seed))
    tree = build_datacenter(scale.spec)
    specs = assign_poisson_arrivals(
        specs,
        load=load,
        total_slots=tree.total_slots,
        mean_job_size=config.mean_job_size,
        mean_compute_time=config.mean_compute_time,
        rng=np.random.default_rng(seed + 1),
    )
    return tree, specs


def run_variant(variant: str, scale_name: str, seed: int, load: float,
                num_jobs: Optional[int], epsilon: float = 0.05) -> Dict:
    """Admit the arrival stream through one allocator, timing every decision.

    Jobs hold their allocation for their compute time and are released before
    later arrivals are admitted, so the allocator sees a realistically
    churning link state rather than a monotonically filling one.
    """
    heterogeneous = variant in ("svc-het", "svc-het-seed")
    tree, specs = _arrival_stream(scale_name, seed, load, num_jobs, heterogeneous)
    manager = NetworkManager(tree, epsilon=epsilon, allocator=_make_allocator(variant))
    rate_cap = tree.min_machine_uplink_capacity

    latencies: List[float] = []
    departures: List = []  # (departure_time, request_id)
    admitted = rejected = 0
    for spec in specs:
        now = spec.submit_time
        while departures and departures[0][0] <= now:
            _, request_id = heapq.heappop(departures)
            tenancy = manager.get_tenancy(request_id)
            if tenancy is not None:
                manager.release(tenancy)
        request = make_request(spec, "svc", rate_cap=rate_cap)
        start = time.perf_counter()
        tenancy = manager.request(request)
        latencies.append(time.perf_counter() - start)
        if tenancy is None:
            rejected += 1
        else:
            admitted += 1
            heapq.heappush(departures, (now + spec.compute_time, tenancy.request_id))

    samples = np.asarray(latencies)
    total = float(samples.sum())
    return {
        "variant": variant,
        "requests": len(specs),
        "admitted": admitted,
        "rejected": rejected,
        "total_allocate_s": total,
        "requests_per_sec": len(specs) / total if total > 0 else float("inf"),
        "p50_allocate_ms": float(np.percentile(samples, 50) * 1000.0),
        "p99_allocate_ms": float(np.percentile(samples, 99) * 1000.0),
        "mean_allocate_ms": float(samples.mean() * 1000.0),
    }


def run_benchmark(scale_name: str = "paper", seed: int = 0, load: float = 0.6,
                  num_jobs: Optional[int] = None,
                  variants=DEFAULT_VARIANTS) -> Dict:
    scale = scale_by_name(scale_name)
    tree = build_datacenter(scale.spec)
    results = {}
    for variant in variants:
        print(f"[bench_admission_path] running {variant} ...", flush=True)
        results[variant] = run_variant(variant, scale_name, seed, load, num_jobs)
        row = results[variant]
        print(
            f"  {variant:12s} {row['requests_per_sec']:10.1f} req/s   "
            f"p50 {row['p50_allocate_ms']:.2f} ms   p99 {row['p99_allocate_ms']:.2f} ms",
            flush=True,
        )
    payload = {
        "benchmark": "admission_path",
        "scale": scale_name,
        "machines": len(tree.machine_ids),
        "slots": tree.total_slots,
        "load": load,
        "seed": seed,
        "epsilon": 0.05,
        "variants": results,
    }
    for prefix, fast_name, seed_name in (
        ("svc_dp", "svc-dp", "svc-dp-seed"),
        ("svc_het", "svc-het", "svc-het-seed"),
    ):
        fast = results.get(fast_name)
        slow = results.get(seed_name)
        if fast and slow:
            payload[f"{prefix}_speedup_vs_seed"] = (
                fast["requests_per_sec"] / slow["requests_per_sec"]
            )
            payload[f"{prefix}_decisions_match_seed"] = (
                fast["admitted"] == slow["admitted"]
                and fast["rejected"] == slow["rejected"]
            )
    return payload


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="paper", choices=["tiny", "small", "paper"],
                        help="datacenter scale (default: the paper's 1,000-machine tree)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--load", type=float, default=0.6,
                        help="target datacenter load of the Poisson stream")
    parser.add_argument("--num-jobs", type=int, default=None,
                        help="override the scale's job count (smoke runs)")
    parser.add_argument("--variants", nargs="+", default=list(DEFAULT_VARIANTS),
                        help=f"variants to run (default: {' '.join(DEFAULT_VARIANTS)})")
    parser.add_argument("--output", default="BENCH_admission.json",
                        help="where to write the JSON results")
    args = parser.parse_args(argv)

    payload = run_benchmark(
        scale_name=args.scale,
        seed=args.seed,
        load=args.load,
        num_jobs=args.num_jobs,
        variants=tuple(args.variants),
    )
    # Stamp before opening the output: truncating a tracked artifact first
    # would make the provenance report a dirty tree.
    payload = stamped(payload)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench_admission_path] wrote {args.output}")
    for prefix, label in (("svc_dp", "svc-dp"), ("svc_het", "svc-het")):
        if f"{prefix}_speedup_vs_seed" in payload:
            print(
                f"[bench_admission_path] {label} speedup vs seed: "
                f"{payload[f'{prefix}_speedup_vs_seed']:.2f}x "
                f"(decisions match: {payload[f'{prefix}_decisions_match_seed']})"
            )


if __name__ == "__main__":
    main()
