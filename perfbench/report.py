"""Turn measured passes into the benchmark's metrics."""

from __future__ import annotations

from typing import Any, Dict, List

import spec
import tracing
from common import decision_digest, median, sum_prometheus, tail
from tracing import ClientOp, p50_ms, span_stats, tail_ms
from workloads import TAIL_PCT, Op, Pass

DECIDED = ("admitted", "rejected")


def completed(op: Op) -> bool:
    """An op counts as done when it got an ``ok`` reply (and a decision, for submits)."""
    if not op.ok:
        return False
    return op.kind != "submit" or op.outcome in DECIDED


def _latencies_ms(ops: List[Op], kind: str) -> List[float]:
    return [1000.0 * (op.recv - op.due) for op in ops if op.kind == kind]


def end_to_end(workload: str, result: Pass) -> Dict[str, Any]:
    """Every end-to-end metric the workload produces, plus how it was taken."""
    timed = [op for op in result.ops if not op.warmup]
    done = [op for op in timed if completed(op)]
    attempted = len(timed)
    submits = _latencies_ms(done, "submit")
    rejected = sum(1 for op in done if op.kind == "submit" and op.outcome == "rejected")
    tail_value, tail_pct, beyond = tail(submits, TAIL_PCT[workload])
    metrics: Dict[str, float] = {
        "setup_s": median(result.setup_s) if result.setup_s else 0.0,
        "submit_p50_ms": median(submits),
        "submit_tail_ms": tail_value,
        "release_p50_ms": median(_latencies_ms(done, "release")),
        "ops_per_s": len(done) / result.wall_s if result.wall_s > 0 else 0.0,
        "server_cpu_ms_per_op": 1000.0 * result.cpu_s / len(done) if done else 0.0,
        "server_rss_mb": result.rss_mb,
        "failed_frac": (attempted - len(done)) / attempted if attempted else 0.0,
        "reject_frac": rejected / len(submits) if submits else 0.0,
    }
    resizes = _latencies_ms(done, "resize")
    if resizes:
        metrics["resize_p50_ms"] = median(resizes)
    if result.recovery_s is not None:
        metrics["recovery_s"] = result.recovery_s
    decisions = [
        [op.outcome, op.response.get("request_id")]
        for op in sorted(result.ops, key=lambda o: o.sent)
        if op.kind == "submit" and completed(op)
    ]
    info = {
        "decision_digest": decision_digest(decisions),
        "decisions": len(decisions),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "submits": len(submits),
        "attempted": attempted,
        "failed": attempted - len(done),
        "generator_late_ms": result.generator_late_ms,
        "generator_threads": result.threads,
        "generator_connections": result.connections,
        **result.info,
    }
    return {"metrics": metrics, "info": info, "attempted": attempted,
            "failed": attempted - len(done)}


def client_ops(result: Pass) -> List[ClientOp]:
    ops = []
    for op in result.ops:
        if op.warmup or not completed(op):
            continue
        key = op.command["key"] if result.cluster else op.key
        ops.append(ClientOp(op.kind, key, op.sent, op.recv))
    return ops


def per_layer(workload: str, result: Pass) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    spans = result.spans
    analysis = tracing.analyse(spans, client_ops(result), cluster=result.cluster)
    pct = TAIL_PCT[workload]
    per_op = analysis["per_op"]
    done = [op for op in result.ops if completed(op) and not op.warmup]
    out: Dict[str, float] = {name: 0.0 for name in spec.PER_LAYER}

    def put(name: str, value: float) -> None:
        if name not in out:
            raise KeyError(f"{name} is not a per-layer metric of spec.py")
        out[name] = float(value)

    put("service.aio.self_ms_p50", p50_ms(analysis["aio_self"]))
    put("service.queue.wait_ms_p50", p50_ms(analysis["queue_wait"]))
    put("service.queue.wait_ms_tail", tail_ms(analysis["queue_wait"], pct))
    put("service.concurrency.submit_self_ms_p50",
        p50_ms(per_op.get("submit", {}).get("service.concurrency", [])))
    put("service.concurrency.release_self_ms_p50",
        p50_ms(per_op.get("release", {}).get("service.concurrency", [])))
    batching = result.stats.get("batching") if not result.cluster else None
    if batching:
        put("service.concurrency.coalesce_ratio", batching["coalesce_ratio"])
        if batching["batches"]:
            put("service.concurrency.batch_size_mean",
                (batching["batches"] + batching["coalesced"]) / batching["batches"])
    requests = span_stats(spans, "NetworkManager.request")
    put("manager.request.ms_p50", p50_ms(requests))
    put("manager.request.ms_tail", tail_ms(requests, pct))
    put("manager.release.ms_p50", p50_ms(span_stats(spans, "NetworkManager.release")))
    put("manager.resize.ms_p50", p50_ms(span_stats(spans, "NetworkManager.resize")))
    resize_spans = [s for s in spans if s[1] == "NetworkManager.resize"]
    if resize_spans:
        put("manager.resize.in_place_ratio",
            sum(1 for s in resize_spans if s[6] == "in_place") / len(resize_spans))
    allocates = 0
    admitted = 0
    for kernel in ("svc_homogeneous", "svc_het_heuristic"):
        calls = [s for s in spans if s[1] == f"{kernel}.allocate"]
        durations = [s[3] - s[2] for s in calls]
        put(f"allocation.{kernel}.allocate_ms_p50", p50_ms(durations))
        put(f"allocation.{kernel}.allocate_ms_tail", tail_ms(durations, pct))
        put(f"allocation.{kernel}.busy_s", sum(durations))
        put(f"allocation.{kernel}.calls", len(calls))
        allocates += len(calls)
        admitted += sum(1 for s in calls if s[6])
    if allocates:
        put("allocation.admit_ratio", admitted / allocates)
    lookups = sum_prometheus(result.prometheus, "repro_admission_cache_lookups_total")
    if lookups:
        hits = sum_prometheus(result.prometheus, "repro_admission_cache_hits_total")
        put("allocation.cache_hit_ratio", hits / lookups)
    put("allocation.resize.plan_ms_p50", p50_ms(span_stats(spans, "plan_in_place")))
    commits = span_stats(spans, "NetworkState.commit")
    releases = span_stats(spans, "NetworkState.release")
    put("network.link_state.commit_ms_p50", p50_ms(commits))
    put("network.link_state.release_ms_p50", p50_ms(releases))
    put("network.link_state.busy_s", sum(commits) + sum(releases))
    appends = span_stats(spans, "Journal.append")
    fsyncs = tracing.children_of(spans, "Journal.append", "journal.fsync")
    put("service.journal.append_ms_p50", p50_ms(appends))
    put("service.journal.append_ms_tail", tail_ms(appends, pct))
    put("service.journal.fsync_ms_p50", p50_ms(fsyncs))
    put("service.journal.fsync_ms_tail", tail_ms(fsyncs, pct))
    put("service.journal.snapshot_ms_p50",
        p50_ms(span_stats(spans, "DurabilityStore.write_snapshot")))
    journaled = [op for op in result.ops if completed(op)]
    if journaled and not result.cluster:
        put("service.journal.bytes_per_op", result.journal_bytes / len(journaled))
    recoveries = [s for s in spans if s[1] == "recover_manager"]
    if recoveries:
        put("service.recovery.replay_s", recoveries[-1][3] - recoveries[-1][2])
        put("service.recovery.records", recoveries[-1][6] or 0)
    if result.cluster:
        submits = [op for op in done if op.kind == "submit"]
        put("cluster.coordinator.self_ms_p50",
            p50_ms(per_op.get("submit", {}).get("cluster.coordinator", [])))
        put("cluster.coordinator.wal_append_ms_p50",
            p50_ms(span_stats(spans, "coordinator.wal_append")))
        routes = result.info.get("routes", {})
        if submits:
            put("cluster.coordinator.local_ratio", routes.get("local", 0) / len(submits))
            put("cluster.coordinator.cross_ratio", routes.get("cross_shard", 0) / len(submits))
            submit_keys = {op.command["key"] for op in submits}
            rpcs = sum(1 for s in spans if s[1] == "shard.rpc" and s[5] in submit_keys)
            put("cluster.worker.rpcs_per_submit", rpcs / len(submits))
        rpc = span_stats(spans, "shard.rpc")
        put("cluster.worker.rpc_ms_p50", p50_ms(rpc))
        put("cluster.worker.rpc_ms_tail", tail_ms(rpc, pct))
        put("cluster.ledger.ms_p50", p50_ms(
            [s[3] - s[2] for s in spans
             if s[1] == "ledger" and s[6] in ("reserve", "commit", "commit_direct", "abort")]
        ))
    client_s = analysis["client_s"]
    for layer in spec.SHARE_LAYERS:
        put(f"{layer}.share", analysis["layer_time"].get(layer, 0.0) / client_s if client_s else 0.0)
    put("trace.unattributed_share", analysis["unattributed_s"] / client_s if client_s else 0.0)
    return out
