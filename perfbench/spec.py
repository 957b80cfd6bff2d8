"""What the benchmark measures: workloads, metrics, bounds and predictions.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``).  Keep the two in step.

Every run prints every end-to-end metric of the workload.  Only the
metrics in ``GATED`` go into ``BENCHMARK.json`` with a regression bound:
they are reported by every workload, never read 0, and repeat within a
third of their bound across seeds on a 2-vCPU host.  The latency,
throughput and CPU metrics in ``EXTRA_E2E`` do not: on that host the same
seed of ``churn-fsync`` ran at 289 to 587 ops/s a few minutes apart, and
the quartile spread of ``submit_p50_ms`` over ten seeds of ``paper-homo``
was 18% of its median in one set and 86% in the next, beyond the largest
bound a gate may have (25%).  Judge changes in them by alternating
parent/change pairs of runs instead.
Some are also workload-specific (``resize_p50_ms`` and ``recovery_s`` on
``churn-fsync`` only) or zero on a healthy run (``failed_frac``).
"""

from __future__ import annotations

WORKLOADS = {
    "paper-homo": (
        "Section VI-A homogeneous stream on the paper tree, open loop over one "
        "connection: the Algorithm 1 DP carries most of each submit"
    ),
    "paper-het": (
        "Section V heterogeneous stream on the 120-machine tree, closed loop over "
        "one connection: the only workload running the substring heuristic"
    ),
    "churn-fsync": (
        "small tenants with submit/release/resize on the tiny tree, fsync on, two "
        "connections, then SIGKILL and restart: front door, journal and recovery"
    ),
    "cluster-cross": (
        "Section VI-A stream over a 2-shard process cluster, closed loop with two "
        "submitters: the coordinator, ledger and shard RPC path"
    ),
}

# name -> (unit, better, bound): in BENCHMARK.json, reported by every workload.
GATED = {
    "setup_s": ("s", "lower", 0.25),
    "server_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better): printed in every run's report, not gated.
EXTRA_E2E = {
    "submit_p50_ms": ("ms", "lower"),
    "submit_tail_ms": ("ms", "lower"),
    "release_p50_ms": ("ms", "lower"),
    "resize_p50_ms": ("ms", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "server_cpu_ms_per_op": ("ms", "lower"),
    "recovery_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
    "reject_frac": ("ratio", "lower"),
}

_HOMO, _HET, _CHURN, _CLUSTER = "paper-homo", "paper-het", "churn-fsync", "cluster-cross"

#: Per-layer metrics: name -> (unit, better, prediction).  The prediction
#: says which end-to-end metric the layer should move, on which workload.
PER_LAYER = {}


def _layer(names, unit, better, moves):
    for name in names:
        PER_LAYER[name] = (unit, better, moves)


_layer(["service.aio.self_ms_p50"], "ms", "lower",
       f"release_p50_ms, ops_per_s on {_CHURN}; small share elsewhere")
_layer(["service.queue.wait_ms_p50", "service.queue.wait_ms_tail"], "ms", "lower",
       f"submit_tail_ms on {_CHURN}")
_layer(["service.concurrency.submit_self_ms_p50", "service.concurrency.release_self_ms_p50"],
       "ms", "lower", f"release_p50_ms, ops_per_s on {_CHURN}")
_layer(["service.concurrency.coalesce_ratio", "service.concurrency.batch_size_mean"],
       "ratio", "higher", f"release_p50_ms, ops_per_s on {_CHURN}")
_layer(["manager.request.ms_p50", "manager.request.ms_tail"], "ms", "lower",
       f"submit_* on {_HOMO} and {_HET}")
_layer(["manager.release.ms_p50"], "ms", "lower", f"release_p50_ms on {_HOMO}, {_CHURN}")
_layer(["manager.resize.ms_p50"], "ms", "lower", f"resize_p50_ms on {_CHURN}")
_layer(["manager.resize.in_place_ratio"], "ratio", "higher", f"resize_p50_ms on {_CHURN}")
for _kernel, _moves in (
    ("svc_homogeneous",
     f"submit_p50_ms, submit_tail_ms, server_cpu_ms_per_op on {_HOMO}; "
     f"no move on {_CHURN} or {_HET}"),
    ("svc_het_heuristic", f"submit_* on {_HET} only"),
):
    _layer([f"allocation.{_kernel}.allocate_ms_p50", f"allocation.{_kernel}.allocate_ms_tail"],
           "ms", "lower", _moves)
    _layer([f"allocation.{_kernel}.busy_s"], "s", "lower", _moves)
    _layer([f"allocation.{_kernel}.calls"], "count", "lower", _moves)
_layer(["allocation.admit_ratio"], "ratio", "higher", f"reject_frac on {_HOMO}")
_layer(["allocation.cache_hit_ratio"], "ratio", "higher",
       f"server_rss_mb and submit_p50_ms on {_HOMO}")
_layer(["allocation.resize.plan_ms_p50"], "ms", "lower", f"resize_p50_ms on {_CHURN}")
_layer(["network.link_state.commit_ms_p50", "network.link_state.release_ms_p50"], "ms", "lower",
       f"release_p50_ms on {_CHURN}")
_layer(["network.link_state.busy_s"], "s", "lower", f"release_p50_ms on {_CHURN}")
_layer(["service.journal.append_ms_p50", "service.journal.append_ms_tail",
        "service.journal.fsync_ms_p50", "service.journal.fsync_ms_tail",
        "service.journal.snapshot_ms_p50"], "ms", "lower",
       f"release_p50_ms, resize_p50_ms, ops_per_s, submit_tail_ms on {_CHURN}")
_layer(["service.journal.bytes_per_op"], "bytes", "lower",
       f"release_p50_ms, ops_per_s on {_CHURN}")
_layer(["service.recovery.replay_s"], "s", "lower", f"recovery_s on {_CHURN}")
_layer(["service.recovery.records"], "count", "lower", f"recovery_s on {_CHURN}")
_layer(["cluster.coordinator.self_ms_p50", "cluster.coordinator.wal_append_ms_p50"], "ms",
       "lower", f"submit_* and ops_per_s on {_CLUSTER}")
_layer(["cluster.coordinator.local_ratio"], "ratio", "higher",
       f"submit_* and ops_per_s on {_CLUSTER}")
_layer(["cluster.coordinator.cross_ratio"], "ratio", "lower",
       f"submit_* and ops_per_s on {_CLUSTER}")
_layer(["cluster.worker.rpc_ms_p50", "cluster.worker.rpc_ms_tail"], "ms", "lower",
       f"submit_tail_ms, ops_per_s, setup_s on {_CLUSTER}")
_layer(["cluster.worker.rpcs_per_submit"], "count", "lower",
       f"submit_tail_ms and ops_per_s on {_CLUSTER}")
_layer(["cluster.ledger.ms_p50"], "ms", "lower", f"submit_tail_ms on {_CLUSTER}")

#: Layers whose share of client time is reported as ``<layer>.share``.
SHARE_LAYERS = (
    "service.aio", "service.queue", "service.concurrency", "manager",
    "allocation.svc_homogeneous", "allocation.svc_het_heuristic", "allocation",
    "network.link_state", "service.journal", "cluster.coordinator",
    "cluster.worker", "cluster.ledger",
)
for _name in SHARE_LAYERS:
    _layer([f"{_name}.share"], "ratio", "lower", "reconciliation: where client time goes")
_layer(["trace.unattributed_share"], "ratio", "lower",
       "reconciliation: client time no layer covers")
_layer(["trace.overhead_frac"], "ratio", "lower",
       "tracing cost: traced vs untraced submit_p50_ms")

#: A traced run fails when more of the client time than this is unattributed.
UNATTRIBUTED_BOUND = 0.05

RUN_SECONDS = 10


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in GATED.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _moves) in PER_LAYER.items()
        ],
    }
