"""Process-backed shard: the same ShardHandle surface, minus the GIL.

Thread-based shards cannot deliver the tentpole's near-linear admission
throughput — every allocator call would still serialize on the interpreter
lock.  :class:`ProcessShard` therefore runs the shard stack in a child
process (``multiprocessing`` spawn context, so no fork-with-threads
hazards) and speaks a small op/reply protocol over a pipe, with payloads
encoded through :mod:`repro.service.codec` — the same wire shapes the TCP
server uses, so nothing here invents a second serialization story.

The pipe is guarded by a per-shard lock: one outstanding op per shard,
parallelism comes from having K shards.  ``kill()`` SIGKILLs the child —
a *real* crash, torn WAL tail and all — and a fresh ProcessShard over the
same directory recovers through the standard journal pipeline.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.allocation.base import Allocation
from repro.cluster.partition import ShardView, build_shard_tree
from repro.cluster.shard import LocalShard, ShardHandle
from repro.obs.flightrec import configure_flight_recorder
from repro.obs.instruments import configure as configure_obs
from repro.obs.tracing import TraceContext, record_remote_span, take_remote_spans
from repro.service.codec import (
    allocation_from_dict,
    allocation_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.service.errors import CODE_CONFLICT, ConflictError, ServiceError
from repro.topology.builder import DatacenterSpec


def _decision_to_wire(decision: Dict[str, Any]) -> Dict[str, Any]:
    wire = dict(decision)
    if wire.get("allocation") is not None:
        wire["allocation"] = allocation_to_dict(wire["allocation"])
    return wire


def _shard_child_main(
    conn,
    spec: DatacenterSpec,
    pods,
    shard_index: int,
    directory: Optional[str],
    options: Dict[str, Any],
) -> None:
    """Child entry point: build the shard stack, serve ops until shutdown."""
    # Stagger the deterministic every-Nth trace sampler per worker: a fresh
    # spawn always starts its counter at zero, so without a phase offset
    # every shard would sample the same startup-biased Nth calls.
    configure_obs(sample_phase=shard_index)
    # Crash/degradation flight dumps land next to the shard's journal (or
    # nowhere when the shard is memory-only — maybe_dump is then a no-op).
    if directory is not None:
        configure_flight_recorder(dump_dir=directory)
    tree = build_shard_tree(spec, pods)
    # The child works purely in shard-local ids; the parent owns the
    # global<->local translation tables, so empty maps are correct here.
    view = ShardView(
        shard_index=shard_index,
        pods=tuple(pods),
        spec=spec,
        tree=tree,
        to_global={},
        from_global={},
        core_link_ids=(),
    )
    shard = LocalShard(
        view,
        Path(directory) if directory is not None else None,
        epsilon=options.get("epsilon", 0.05),
        mode=options.get("mode", "online"),
        fsync=options.get("fsync", False),
        snapshot_every=options.get("snapshot_every"),
        decision_timeout_s=options.get("decision_timeout_s", 30.0),
    )
    conn.send(
        {
            "ok": True,
            "result": {
                "event": "ready",
                "shard": shard_index,
                "slots": tree.total_slots,
            },
        }
    )
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            op = message.get("op")
            trace = TraceContext.from_dict(message.get("trace"))
            try:
                if op == "submit":
                    decision = shard.submit(
                        request_from_dict(message["request"]),
                        idempotency_key=message.get("idem"),
                        timeout=message.get("timeout"),
                        trace=trace,
                    )
                    wire = _decision_to_wire(decision)
                    if trace is not None:
                        wire["trace_spans"] = take_remote_spans(trace.trace_id)
                    reply = {"ok": True, "result": wire}
                elif op == "adopt":
                    request_id = shard.adopt(
                        allocation_from_dict(message["allocation"]),
                        idempotency_key=message.get("idem"),
                        trace=trace,
                    )
                    if trace is not None:
                        result = {
                            "request_id": request_id,
                            "trace_spans": take_remote_spans(trace.trace_id),
                        }
                    else:
                        result = request_id
                    reply = {"ok": True, "result": result}
                elif op == "metrics":
                    reply = {"ok": True, "result": shard.metrics_snapshot()}
                elif op == "obs":
                    reply = {"ok": True, "result": shard.obs_dump()}
                elif op == "release":
                    reply = {"ok": True, "result": shard.release(message["request_id"])}
                elif op == "resize":
                    decision = shard.resize(
                        message["request_id"],
                        new_n=message.get("new_n"),
                        new_mu=message.get("new_mu"),
                        new_sigma=message.get("new_sigma"),
                        idempotency_key=message.get("idem"),
                    )
                    reply = {"ok": True, "result": _decision_to_wire(decision)}
                elif op == "stats":
                    reply = {"ok": True, "result": shard.stats()}
                elif op == "idem":
                    found = shard.idem_lookup(message["key"])
                    if found is not None:
                        found = _decision_to_wire(found)
                    reply = {"ok": True, "result": found}
                elif op == "active":
                    reply = {
                        "ok": True,
                        "result": {
                            request_id: allocation_to_dict(allocation)
                            for request_id, allocation in shard.active_allocations().items()
                        },
                    }
                elif op == "ping":
                    reply = {"ok": True, "result": "pong"}
                elif op == "shutdown":
                    conn.send({"ok": True, "result": "bye"})
                    break
                else:
                    reply = {"ok": False, "error": f"unknown op {op!r}", "code": None}
            except ServiceError as exc:
                reply = {"ok": False, "error": str(exc), "code": exc.code}
            except Exception as exc:  # noqa: BLE001 — the op fails, the shard lives
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}", "code": None}
            conn.send(reply)
    finally:
        try:
            shard.stop()
        except Exception:  # noqa: BLE001 — shutdown must not mask the exit path
            pass
        conn.close()


class ProcessShard(ShardHandle):
    """Parent-side handle over one shard child process."""

    def __init__(
        self,
        view: ShardView,
        directory: Optional[Path] = None,
        *,
        epsilon: float = 0.05,
        mode: str = "online",
        fsync: bool = False,
        snapshot_every: Optional[int] = None,
        decision_timeout_s: float = 30.0,
        call_timeout_s: float = 60.0,
        start_timeout_s: float = 120.0,
    ) -> None:
        self.view = view
        self.index = view.shard_index
        self.call_timeout_s = call_timeout_s
        self._lock = threading.Lock()
        context = multiprocessing.get_context("spawn")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_shard_child_main,
            args=(
                child_conn,
                view.spec,
                view.pods,
                view.shard_index,
                str(directory) if directory is not None else None,
                {
                    "epsilon": epsilon,
                    "mode": mode,
                    "fsync": fsync,
                    "snapshot_every": snapshot_every,
                    "decision_timeout_s": decision_timeout_s,
                },
            ),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        if not self._conn.poll(start_timeout_s):
            self._process.kill()
            raise ServiceError(f"shard {self.index} child did not become ready")
        ready = self._conn.recv()
        if not ready.get("ok"):
            self._process.kill()
            raise ServiceError(f"shard {self.index} failed to start: {ready}")
        self.ready = ready["result"]

    # ------------------------------------------------------------------

    def _call(self, op: str, **payload: Any) -> Any:
        with self._lock:
            if not self._process.is_alive():
                raise ServiceError(f"shard {self.index} process is dead")
            self._conn.send({"op": op, **payload})
            if not self._conn.poll(self.call_timeout_s):
                raise ServiceError(f"shard {self.index} timed out on {op!r}")
            try:
                reply = self._conn.recv()
            except EOFError as exc:
                raise ServiceError(f"shard {self.index} hung up during {op!r}") from exc
        if reply.get("ok"):
            return reply.get("result")
        if reply.get("code") == CODE_CONFLICT:
            raise ConflictError(reply.get("error", "conflict"))
        raise ServiceError(reply.get("error", f"{op} failed"), code=reply.get("code"))

    # ------------------------------------------------------------------
    # ShardHandle surface
    # ------------------------------------------------------------------

    def submit(
        self,
        request,
        idempotency_key: Optional[str] = None,
        timeout: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        decision = self._call(
            "submit",
            request=request_to_dict(request),
            idem=idempotency_key,
            timeout=timeout,
            trace=trace.to_dict() if trace is not None else None,
        )
        if decision.get("allocation") is not None:
            decision["allocation"] = allocation_from_dict(decision["allocation"])
        if trace is not None:
            self._relay_spans(trace, decision.pop("trace_spans", []))
        return decision

    def adopt(
        self,
        allocation: Allocation,
        idempotency_key: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> int:
        result = self._call(
            "adopt",
            allocation=allocation_to_dict(allocation),
            idem=idempotency_key,
            trace=trace.to_dict() if trace is not None else None,
        )
        if isinstance(result, dict):
            if trace is not None:
                self._relay_spans(trace, result.get("trace_spans", []))
            return int(result["request_id"])
        return int(result)

    def _relay_spans(self, trace: TraceContext, spans) -> None:
        """Re-buffer child-process spans locally so the coordinator can
        collect every shard's legs with one ``take_remote_spans`` call."""
        for span in spans or []:
            span = dict(span)
            span.setdefault("shard", self.index)
            record_remote_span(trace.trace_id, span)

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self._call("metrics")

    def obs_dump(self) -> Dict[str, Any]:
        return self._call("obs")

    def release(self, request_id: int) -> bool:
        return self._call("release", request_id=request_id)

    def resize(
        self,
        request_id: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        decision = self._call(
            "resize",
            request_id=request_id,
            new_n=new_n,
            new_mu=new_mu,
            new_sigma=new_sigma,
            idem=idempotency_key,
        )
        if decision.get("allocation") is not None:
            decision["allocation"] = allocation_from_dict(decision["allocation"])
        return decision

    def stats(self) -> Dict[str, Any]:
        return self._call("stats")

    def idem_lookup(self, key: str) -> Optional[Dict[str, Any]]:
        found = self._call("idem", key=key)
        if found is not None and found.get("allocation") is not None:
            found["allocation"] = allocation_from_dict(found["allocation"])
        return found

    def active_allocations(self) -> Dict[int, Allocation]:
        return {
            int(request_id): allocation_from_dict(payload)
            for request_id, payload in self._call("active").items()
        }

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def kill(self) -> None:
        """SIGKILL the child — a real mid-flight shard death."""
        self._process.kill()
        self._process.join(timeout=10.0)
        self._conn.close()

    def stop(self) -> None:
        try:
            self._call("shutdown")
        except ServiceError:
            pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=10.0)
        self._conn.close()

    def close(self) -> None:
        if self._process.is_alive():
            self.stop()
        else:
            try:
                self._conn.close()
            except OSError:
                pass

    def __del__(self) -> None:  # best effort — tests should close() explicitly
        try:
            if self._process.is_alive():
                self._process.kill()
        except Exception:  # noqa: BLE001
            pass


def wait_for_shards(shards, timeout_s: float = 60.0) -> None:
    """Block until every process shard answers a ping (readiness barrier)."""
    deadline = time.monotonic() + timeout_s
    for shard in shards:
        remaining = max(0.1, deadline - time.monotonic())
        saved = getattr(shard, "call_timeout_s", None)
        if saved is not None:
            shard.call_timeout_s = remaining
        try:
            if isinstance(shard, ProcessShard):
                shard._call("ping")
        finally:
            if saved is not None:
                shard.call_timeout_s = saved
