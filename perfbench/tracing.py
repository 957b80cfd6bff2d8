"""Span recording from outside the program, and the per-layer analysis.

Nothing under ``src/`` knows it is traced.  :class:`SpanRecorder` replaces
public entry points with timing wrappers *at the name each caller looks
them up by* (a class attribute for methods, a module attribute for a
function imported by name), keeps the spans in memory and writes them out
when asked.  A span is ``[id, name, start, end, parent, rid, extra]``:
``parent`` is the enclosing wrapped call on the same thread, ``rid`` ties
the span to one client operation, and times are ``time.perf_counter()``,
which is CLOCK_MONOTONIC on Linux and so comparable across processes.

A request is linked from its ticket to its allocate call by the request
object: the queue push records ``id(entry.request) -> ticket`` and
``NetworkManager.request`` looks the object up.  Journal appends and
snapshots that run in the worker after a decision inherit that request.

Layer self time is a span's duration minus what its children cover: per
client operation the analysis sweeps the operation's intervals and gives
every instant of the client's round trip to the innermost span covering
it.  What no span covers is ``trace.unattributed``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from common import median, tail

# Layer of every wrapped entry point.
LAYER_OF = {
    "dispatch_command": "service.aio",
    "AdmissionService.submit": "service.concurrency",
    "AdmissionService.release": "service.concurrency",
    "AdmissionService.resize": "service.concurrency",
    "Ticket.resolve": "service.concurrency",
    "worker": "service.concurrency",
    "queue.push": "service.queue",
    "queue.pop": "service.queue",
    "queue.wait": "service.queue",
    "NetworkManager.request": "manager",
    "NetworkManager.release": "manager",
    "NetworkManager.resize": "manager",
    "svc_homogeneous.allocate": "allocation.svc_homogeneous",
    "svc_het_heuristic.allocate": "allocation.svc_het_heuristic",
    "plan_in_place": "allocation",
    "NetworkState.commit": "network.link_state",
    "NetworkState.release": "network.link_state",
    "Journal.append": "service.journal",
    "journal.fsync": "service.journal",
    "DurabilityStore.write_snapshot": "service.journal",
    "recover_manager": "service.recovery",
    "ClusterCoordinator.submit": "cluster.coordinator",
    "ClusterCoordinator.release": "cluster.coordinator",
    "coordinator.wal_append": "cluster.coordinator",
    "shard.rpc": "cluster.worker",
    "ledger": "cluster.ledger",
}

Span = List[Any]  # [id, name, start, end, parent, rid, extra]


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        # id(request object) -> rid, filled at queue push, read at allocate.
        self.request_rids: Dict[int, str] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def set_current_rid(self, rid: Optional[str]) -> None:
        """Rid inherited by parentless spans on this thread from now on."""
        self._tls.current = rid

    def current_rid(self) -> Optional[str]:
        stack = self._stack()
        if stack:
            return stack[-1][1]
        return getattr(self._tls, "current", None)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        rid_before: Optional[Callable[..., Optional[str]]] = None,
        rid_after: Optional[Callable[..., Optional[str]]] = None,
        extra: Optional[Callable[..., Any]] = None,
        keep: Optional[Callable[..., bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper recording ``name``.

        ``rid_before(*args, **kw)`` names the operation up front (children
        inherit it); ``rid_after(result, *args, **kw)`` names it from the
        result; ``extra(result, *args, **kw)`` stores a detail; ``keep``
        drops uninteresting calls (an empty queue poll).
        """
        original = getattr(owner, attr)
        recorder = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1][0] if stack else None
            rid = rid_before(*args, **kwargs) if rid_before is not None else None
            if rid is None:
                rid = recorder.current_rid()
            sid = next(recorder._ids)
            stack.append((sid, rid))
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
            if keep is not None and not keep(result, *args, **kwargs):
                return result
            if rid_after is not None:
                rid = rid_after(result, *args, **kwargs) or rid
            detail = extra(result, *args, **kwargs) if extra is not None else None
            recorder.spans.append([sid, name, start, end, parent, rid, detail])
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        """Write the spans recorded so far (atomically, by rename)."""
        spans = list(self.spans)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Daemon wrappers (installed by traced_serve.py inside the daemon)
# ----------------------------------------------------------------------


def install_daemon_wrappers(recorder: SpanRecorder) -> None:
    from repro.allocation import resize as resize_module
    from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator
    from repro.allocation.svc_homogeneous import SVCHomogeneousAllocator
    from repro.manager import network_manager
    from repro.manager.network_manager import NetworkManager
    from repro.network.link_state import NetworkState
    from repro.service import journal as journal_module
    from repro.service import server
    from repro.service.concurrency import AdmissionService, Ticket
    from repro.service.journal import DurabilityStore, Journal
    from repro.service.queue import FairRequestQueue

    def op_rid(_service, command, *_a, **_k):
        op = command.get("op") if isinstance(command, dict) else None
        if op in ("release", "resize"):
            return f"{op}:{command.get('request_id')}"
        return None

    recorder.wrap(server, "dispatch_command", "dispatch_command", rid_before=op_rid)
    recorder.wrap(
        AdmissionService, "submit", "AdmissionService.submit",
        rid_after=lambda ticket, *a, **k: f"t:{ticket.ticket_id}",
    )
    recorder.wrap(
        AdmissionService, "release", "AdmissionService.release",
        rid_before=lambda _self, request_id, *a, **k: f"release:{request_id}",
    )
    recorder.wrap(
        AdmissionService, "resize", "AdmissionService.resize",
        rid_before=lambda _self, request_id, *a, **k: f"resize:{request_id}",
        extra=lambda result, *a, **k: result.get("outcome"),
    )
    recorder.wrap(
        Ticket, "resolve", "Ticket.resolve",
        rid_before=lambda ticket, *a, **k: f"t:{ticket.ticket_id}",
    )

    def push_rid(_queue, entry):
        rid = f"t:{entry.ticket_id}"
        recorder.request_rids[id(entry.request)] = rid
        return rid

    def popped(result, *_a, **_k):
        entry = result[0]
        return f"t:{entry.ticket_id}" if entry is not None else None

    recorder.wrap(FairRequestQueue, "push", "queue.push", rid_before=push_rid)
    for attr in ("pop_ready", "pop_compatible"):
        recorder.wrap(
            FairRequestQueue, attr, "queue.pop", rid_after=popped,
            keep=lambda result, *a, **k: result[0] is not None,
        )

    def request_rid(_manager, request, *_a, **_k):
        rid = recorder.request_rids.pop(id(request), None)
        recorder.set_current_rid(rid)
        return rid

    recorder.wrap(NetworkManager, "request", "NetworkManager.request", rid_before=request_rid)
    recorder.wrap(NetworkManager, "release", "NetworkManager.release")
    recorder.wrap(
        NetworkManager, "resize", "NetworkManager.resize",
        extra=lambda result, *a, **k: result.outcome,
    )
    admitted = lambda result, *a, **k: result is not None  # noqa: E731
    recorder.wrap(SVCHomogeneousAllocator, "allocate", "svc_homogeneous.allocate", extra=admitted)
    recorder.wrap(
        SVCHeterogeneousAllocator, "allocate", "svc_het_heuristic.allocate", extra=admitted
    )
    recorder.wrap(network_manager, "plan_in_place", "plan_in_place")
    # Keep the module attribute in step for any caller importing it from there.
    resize_module.plan_in_place = network_manager.plan_in_place
    recorder.wrap(NetworkState, "commit", "NetworkState.commit")
    recorder.wrap(NetworkState, "release", "NetworkState.release")
    recorder.wrap(
        Journal, "append", "Journal.append", extra=lambda result, _j, op, **k: op
    )
    recorder.wrap(DurabilityStore, "write_snapshot", "DurabilityStore.write_snapshot")
    # os.fsync as the journal module calls it: a proxy module whose fsync
    # is wrapped, everything else delegated to the real os.
    proxy = types.ModuleType("os")
    proxy.__dict__.update(os.__dict__)
    recorder.wrap(proxy, "fsync", "journal.fsync")
    journal_module.os = proxy
    recorder.wrap(
        server, "recover_manager", "recover_manager",
        extra=lambda result, *a, **k: result[1].replayed_records,
    )


# ----------------------------------------------------------------------
# Cluster wrappers (installed in the benchmark's own process)
# ----------------------------------------------------------------------


def install_cluster_wrappers(recorder: SpanRecorder) -> None:
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.ledger import CoreLinkLedger
    from repro.cluster.worker import ProcessShard
    from repro.service.journal import Journal

    def client_rid(*_a, **_k):
        return recorder.current_rid()

    recorder.wrap(ClusterCoordinator, "submit", "ClusterCoordinator.submit", rid_before=client_rid)
    recorder.wrap(ClusterCoordinator, "release", "ClusterCoordinator.release", rid_before=client_rid)
    for attr in ("submit", "adopt", "release", "resize"):
        recorder.wrap(ProcessShard, attr, "shard.rpc", extra=lambda r, *a, _o=attr, **k: _o)
    for attr in ("reserve", "commit", "commit_direct", "abort", "release"):
        recorder.wrap(CoreLinkLedger, attr, "ledger", extra=lambda r, *a, _o=attr, **k: _o)
    # The coordinator's WAL is the only Journal in this process.
    recorder.wrap(Journal, "append", "coordinator.wal_append")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


class ClientOp:
    """One client-observed operation: ``key`` matches the server's rid."""

    __slots__ = ("kind", "key", "start", "end")

    def __init__(self, kind: str, key: str, start: float, end: float) -> None:
        self.kind = kind
        self.key = key
        self.start = start
        self.end = end


def _ms(values: Iterable[float]) -> List[float]:
    return [1000.0 * value for value in values]


def _depths(spans: Sequence[Span]) -> Dict[int, int]:
    parent = {span[0]: span[4] for span in spans}
    depth: Dict[int, int] = {}
    for sid in parent:
        level, cursor = 0, parent[sid]
        while cursor is not None and cursor in parent:
            level += 1
            cursor = parent[cursor]
        depth[sid] = level
    return depth


def _sweep(
    window: Tuple[float, float], intervals: List[Tuple[float, float, int, str]]
) -> Dict[str, float]:
    """Give each instant of ``window`` to the deepest interval covering it."""
    lo, hi = window
    clipped = [
        (max(a, lo), min(b, hi), depth, layer)
        for a, b, depth, layer in intervals
        if min(b, hi) > max(a, lo)
    ]
    points = sorted({lo, hi, *(a for a, *_ in clipped), *(b for _, b, *_ in clipped)})
    out: Dict[str, float] = defaultdict(float)
    for a, b in zip(points, points[1:]):
        best = None
        for start, end, depth, layer in clipped:
            if start <= a and end >= b and (best is None or depth > best[0]):
                best = (depth, layer)
        out[best[1] if best else "unattributed"] += b - a
    return out


def analyse(
    spans: Sequence[Span], ops: Sequence[ClientOp], cluster: bool = False
) -> Dict[str, Any]:
    """Per-layer numbers for one traced run.

    Returns ``{"layer_time": {layer: s}, "client_s", "unattributed_s",
    "per_op": {kind: {layer: [s, ...]}}, "aio_self": [s], "queue_wait": [s]}``.
    """
    depth = _depths(spans)
    by_rid: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            by_rid[span[5]].append(span)
    # Repeated keys (several resizes of one tenant) pair up in order.
    seen: Dict[str, int] = defaultdict(int)
    layer_time: Dict[str, float] = defaultdict(float)
    per_op: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    aio_self: List[float] = []
    queue_wait: List[float] = []
    unattributed = 0.0
    client_total = 0.0
    for op in ops:
        occurrence = seen[op.key]
        seen[op.key] += 1
        own = by_rid.get(op.key, [])
        if not cluster and op.kind != "submit":
            own = _nth_operation(own, occurrence)
        intervals = [(s[2], s[3], depth[s[0]], LAYER_OF[s[1]]) for s in own]
        if not cluster and op.kind == "submit":
            intervals += _submit_synthetic(own)
        split = _sweep((op.start, op.end), intervals)
        tops = [s for s in own if depth[s[0]] == 0]
        if tops and not cluster:
            # The front door owns the client's time outside the server op:
            # the wire, the codec and waiting behind earlier lines.
            first, last = min(s[2] for s in tops), max(s[3] for s in tops)
            if op.start <= first and last <= op.end:
                front = (first - op.start) + (op.end - last)
                split["service.aio"] += front
                split["unattributed"] -= front
            aio_self.append(split.get("service.aio", 0.0))
            wait = _queue_wait(own) if op.kind == "submit" else None
            if wait is not None:
                queue_wait.append(wait)
        for layer, seconds in split.items():
            if layer == "unattributed":
                unattributed += seconds
            else:
                layer_time[layer] += seconds
                per_op[op.kind][layer].append(seconds)
        client_total += op.end - op.start
    return {
        "layer_time": dict(layer_time),
        "client_s": client_total,
        "unattributed_s": unattributed,
        "per_op": {kind: dict(layers) for kind, layers in per_op.items()},
        "aio_self": aio_self,
        "queue_wait": queue_wait,
    }


def _nth_operation(own: List[Span], occurrence: int) -> List[Span]:
    """The spans of the n-th top-level operation carrying this key."""
    tops = sorted((s for s in own if s[4] is None), key=lambda s: s[2])
    if occurrence >= len(tops):
        return []
    top = tops[occurrence]
    start, end = top[2], top[3]
    return [s for s in own if s[2] >= start and s[3] <= end]


def _first(own: Sequence[Span], name: str) -> Optional[Span]:
    for span in own:
        if span[1] == name:
            return span
    return None


def _submit_synthetic(own: Sequence[Span]) -> List[Tuple[float, float, int, str]]:
    """Queue wait (push to pop) and the worker's own stretch (pop to resolve)."""
    push = _first(own, "queue.push")
    pop = _first(own, "queue.pop")
    resolve = _first(own, "Ticket.resolve")
    out = []
    if push is not None and pop is not None:
        out.append((push[3], pop[2], -1, "service.queue"))
    if pop is not None and resolve is not None:
        out.append((pop[3], resolve[2], -1, "service.concurrency"))
    return out


def _queue_wait(own: Sequence[Span]) -> Optional[float]:
    push = _first(own, "queue.push")
    pop = _first(own, "queue.pop")
    if push is None or pop is None:
        return None
    return max(0.0, pop[3] - push[3])


def span_stats(spans: Sequence[Span], name: str, extra: Any = None) -> List[float]:
    """Durations (s) of every span called ``name`` (optionally with a detail)."""
    return [
        s[3] - s[2]
        for s in spans
        if s[1] == name and (extra is None or s[6] == extra)
    ]


def p50_ms(values: Sequence[float]) -> float:
    return median(_ms(values)) if values else 0.0


def tail_ms(values: Sequence[float], preferred: float) -> float:
    return tail(_ms(values), preferred)[0] if values else 0.0


def children_of(spans: Sequence[Span], parent_name: str, child_name: str) -> List[float]:
    parents = {s[0] for s in spans if s[1] == parent_name}
    return [s[3] - s[2] for s in spans if s[1] == child_name and s[4] in parents]
