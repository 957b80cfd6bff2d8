"""The admission benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-homo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --write-spec              # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice, half the time each: untraced, then
with timing wrappers around every layer (see ``tracing.py``), and reports
the per-layer metrics, the unattributed share and the tracing overhead.

Every run checks the system's outputs (see ``checks.py``).  A run that
fails a check prints ``"correct": false`` with no metrics and exits 1.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (every metric, checks, provenance, workload settings).

``--scale tiny`` puts every workload on the 16-machine tree and
``--failpoints SPEC`` arms daemon failpoints; both are for the smoke tests
(``perfbench/smoke.py``), not for measurements.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, SRC, add_src_to_path, provenance, stop_resource_tracker  # noqa: E402

import spec  # noqa: E402

WORK = HERE / ".work"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default=None,
                        help="override every workload's tree (smoke tests)")
    parser.add_argument("--failpoints", default=None,
                        help="arm daemon failpoints, e.g. journal.write=error:p=0.05")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    return parser


def run_one(workload: str, args: argparse.Namespace, workdir: Path, origin: dict) -> dict:
    """Measure one workload; returns its report (metrics empty if a check failed)."""
    import checks
    import report
    import workloads

    runner = workloads.RUNNERS[workload]
    scale = args.scale or workloads.DEFAULT_SCALE[workload]
    common = dict(scale=scale, failpoints=args.failpoints)
    if args.trace:
        half = args.seconds / 2.0
        plain = runner(args.seed, half, workdir / "plain", traced=False, repeats=1, **common)
        traced = runner(args.seed, half, workdir / "traced", traced=True, repeats=1, **common)
        passes = [plain, traced]
        e2e = report.end_to_end(workload, traced)
        metrics = report.per_layer(workload, traced)
        untraced_p50 = report.end_to_end(workload, plain)["metrics"]["submit_p50_ms"]
        metrics["trace.overhead_frac"] = (
            e2e["metrics"]["submit_p50_ms"] / untraced_p50 - 1.0 if untraced_p50 else 0.0
        )
        reconcile = checks.Check(
            "trace_reconciles",
            metrics["trace.unattributed_share"] <= spec.UNATTRIBUTED_BOUND,
            f"unattributed share {metrics['trace.unattributed_share']:.4f} "
            f"(bound {spec.UNATTRIBUTED_BOUND})",
        )
        extra_checks = [reconcile]
        units = {name: unit for name, (unit, _b, _m) in spec.PER_LAYER.items()}
        predictions = {name: moves for name, (_u, _b, moves) in spec.PER_LAYER.items()}
    else:
        passes = [runner(args.seed, args.seconds, workdir / "plain", traced=False,
                         repeats=workloads.SETUP_REPEATS, **common)]
        e2e = report.end_to_end(workload, passes[0])
        metrics = e2e["metrics"]
        extra_checks = []
        units = {name: entry[0] for name, entry in {**spec.GATED, **spec.EXTRA_E2E}.items()}
        predictions = None
    all_checks = [check for one in passes for check in one.checks] + extra_checks
    for one in passes:
        all_checks.append(checks.generator_healthy(
            one.generator_late_ms, one.threads, one.connections,
            origin["nproc"] or 1, workloads.GENERATOR_LATE_LIMIT_MS,
        ))
    correct = checks.all_ok(all_checks)
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "correct": correct,
        "attempted": sum(report.end_to_end(workload, one)["attempted"] for one in passes),
        "failed": sum(report.end_to_end(workload, one)["failed"] for one in passes),
        "metrics": metrics if correct else {},
        "units": units,
        "info": e2e["info"],
        "checks": [check.describe() for check in all_checks],
        "predictions": predictions,
        "provenance": origin,
    }


def _print_report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {result['seconds']} s, "
          f"trace {result['trace']}, {result['scale']} tree)")
    for check in result["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {result['units'].get(name, '')}")
    print(json.dumps({"report": result}, default=str))


def _result_line(result: dict, names) -> dict:
    metrics = {
        name: {"value": result["metrics"][name], "unit": result["units"][name]}
        for name in names
        if name in result["metrics"]
    }
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_resource_tracker()


def _main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "repro" / "service" / "server.py").is_file():
        print(f"perfbench: no admission system under {SRC}", file=sys.stderr)
        return 2
    add_src_to_path()
    names = [*spec.PER_LAYER] if args.trace else [*spec.GATED]
    workload_names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    origin = provenance()
    results = []
    for workload in workload_names:
        workdir = WORK / f"{workload}-{int(time.time() * 1000)}"
        workdir.mkdir(parents=True)
        try:
            result = run_one(workload, args, workdir, origin)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        _print_report(result)
        results.append(result)
    if len(results) == 1:
        line = _result_line(results[0], names)
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": entry
                for r in results
                for name, entry in _result_line(r, names)["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
