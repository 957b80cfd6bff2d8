"""Experiment-harness benchmark: sweep throughput, sequential vs pooled.

Times the cell harness (``repro.experiments.harness``) end to end — cell
enumeration, per-cell simulation, aggregation — per experiment at
``--workers 1`` and for the whole sweep at each requested worker count.
The output (``BENCH_experiments.json`` by default) records cells/sec per
experiment plus the pooled-vs-sequential wall-clock ratio, which is the
number a parallel-harness regression would move.  As a consistency signal
the pooled run's formatted tables are cross-checked against the sequential
run's — they must be byte-identical (the harness equivalence contract,
proven properly in ``tests/experiments/test_harness.py``).

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_experiments.py                  # tiny sweep
    PYTHONPATH=src python benchmarks/bench_experiments.py --workers 1,2,4
    PYTHONPATH=src python benchmarks/bench_experiments.py --experiments fig7,fig8
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter
from typing import Dict, List

from _provenance import stamped

from repro.experiments.harness import run_experiments
from repro.experiments.runner import EXPERIMENT_MODULES


def bench_per_experiment(
    names: List[str], scale: str, seed: int
) -> Dict[str, Dict[str, float]]:
    """Sequential wall time and cell throughput of each experiment alone."""
    per_experiment: Dict[str, Dict[str, float]] = {}
    for name in names:
        cells = len(EXPERIMENT_MODULES[name].enumerate_cells(scale=scale, seed=seed))
        started = perf_counter()
        run_experiments([name], scale=scale, seed=seed)
        elapsed = perf_counter() - started
        per_experiment[name] = {
            "cells": cells,
            "seconds": round(elapsed, 4),
            "cells_per_sec": round(cells / elapsed, 3) if elapsed > 0 else 0.0,
        }
        print(
            f"[bench_experiments] {name:18s} {cells:3d} cells "
            f"{elapsed:7.2f}s  {cells / elapsed:6.2f} cells/s",
            flush=True,
        )
    return per_experiment


def bench_sweep(
    names: List[str], scale: str, seed: int, workers_list: List[int]
) -> Dict[str, Dict[str, float]]:
    """Whole-sweep wall time at each worker count, with equivalence check."""
    sweep: Dict[str, Dict[str, float]] = {}
    baseline_tables = None
    total_cells = sum(
        len(EXPERIMENT_MODULES[name].enumerate_cells(scale=scale, seed=seed))
        for name in names
    )
    for workers in workers_list:
        started = perf_counter()
        results = run_experiments(names, scale=scale, seed=seed, workers=workers)
        elapsed = perf_counter() - started
        tables = "\n".join(result.format() for result in results)
        if baseline_tables is None:
            baseline_tables = tables
        elif tables != baseline_tables:
            raise AssertionError(
                f"workers={workers} produced different tables than the "
                "sequential sweep; the harness equivalence contract is broken"
            )
        sweep[str(workers)] = {
            "cells": total_cells,
            "seconds": round(elapsed, 4),
            "cells_per_sec": round(total_cells / elapsed, 3) if elapsed > 0 else 0.0,
        }
        print(
            f"[bench_experiments] sweep workers={workers}: {total_cells} cells "
            f"in {elapsed:.2f}s ({total_cells / elapsed:.2f} cells/s)",
            flush=True,
        )
    return sweep


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="tiny",
                        help="experiment scale to sweep (default: tiny)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", default="1,2",
                        help="comma-separated worker counts for the full sweep")
    parser.add_argument("--experiments", default=None,
                        help="comma-separated registry names (default: all)")
    parser.add_argument("--output", default="BENCH_experiments.json",
                        help="where to write the JSON results")
    args = parser.parse_args(argv)

    names = (
        args.experiments.split(",") if args.experiments else list(EXPERIMENT_MODULES)
    )
    unknown = [name for name in names if name not in EXPERIMENT_MODULES]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    workers_list = [int(w) for w in args.workers.split(",")]

    per_experiment = bench_per_experiment(names, args.scale, args.seed)
    sweep = bench_sweep(names, args.scale, args.seed, workers_list)

    sequential = sweep.get("1", next(iter(sweep.values())))
    fastest = min(sweep.values(), key=lambda row: row["seconds"])
    payload = {
        "scale": args.scale,
        "seed": args.seed,
        "experiments": per_experiment,
        "sweep_by_workers": sweep,
        "best_speedup_vs_sequential": round(
            sequential["seconds"] / fastest["seconds"], 3
        )
        if fastest["seconds"] > 0
        else 0.0,
    }
    # Stamp before opening the output: truncating a tracked artifact first
    # would make the provenance report a dirty tree.
    payload = stamped(payload)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench_experiments] wrote {args.output}")


if __name__ == "__main__":
    main()
