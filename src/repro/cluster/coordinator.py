"""Cluster coordinator: locality-first routing + two-phase core-link commits.

The coordinator is the cluster's client-facing admission front-end.  It owns
three pieces of state, all guarded by one lock (the same single-owner
discipline as ``AdmissionService``):

* a **replica** ``NetworkManager`` over the *global* tree, kept in sync by
  applying every shard admission and release (translated to global ids).
  Routing reads per-shard free slots from it without touching a shard, and
  the cross-shard allocator runs on it with the exact full-tree Lemma-1
  moments — so a placement spanning shards carries the same per-link
  effective bandwidth ``E^L_i`` a single giant manager would compute, and
  Eq. (1) composes across shards (DESIGN.md §9);
* the **core-link ledger** (:mod:`repro.cluster.ledger`): the global truth
  for aggregation-uplink capacity, with TTL'd reservations for in-flight
  two-phase rounds;
* a **write-ahead log** (reusing :class:`repro.service.journal.Journal`)
  whose record order is the order coordinator state changed.

Every operation runs one protocol: journal ``intent{kind, gid, idem,
payload}``, run its shard op(s), journal ``outcome{kind, gid, status,
idem, payload}`` with status ``committed`` or ``aborted``.  The kinds:

* ``local`` — a submit routed to one shard (most free capacity, weighted by
  the advisory rebalancer; with one shard this is a pass-through, which
  makes the one-shard cluster bit-identical to the direct service).  The
  shard's serialized admission guards everything it touches.
* ``cross`` — after the routed shard rejects: a placement computed on the
  replica, ``reserve``d on the ledger, ``adopt``ed as one revalidated
  fragment per shard and ``commit``ted — or, on any conflict, every
  fragment released and the reservation ``abort``ed.  It supersedes the
  local intent of the same submit.
* ``resize`` — at the owning shard, behind a ledger hold on the estimated
  core-link growth.
* ``release`` — needs no outcome: recovery always rolls it forward.

**Mirror order**, the one rule every kind follows: the replica and the
ledger drop a tenant's footprint *before* a shard frees it and add it
*after* a shard acks, so the replica never holds capacity its shard has
already freed and a submit that lands in just-freed slots mirrors cleanly.
Every step is idempotent per global request id, so recovery
(:meth:`ClusterCoordinator._recover`) can re-walk the protocol.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.abstractions.requests import (
    DeterministicVC,
    HeterogeneousSVC,
    HomogeneousSVC,
    VirtualClusterRequest,
)
from repro.allocation.base import Allocation
from repro.cluster.ledger import CoreDemand, CoreLinkLedger, core_demands_of
from repro.cluster.partition import ClusterPartition
from repro.cluster.rebalance import ShardLoadRebalancer
from repro.cluster.shard import ShardHandle
from repro.allocation.resize import plan_in_place, resized_request
from repro.faults.failpoints import (
    FAILPOINTS,
    FP_COORD_AFTER_COMMIT,
    FP_COORD_AFTER_RESERVE,
    FP_COORD_BEFORE_COMMIT,
    FP_COORD_BEFORE_WAL,
    FP_COORD_RESIZE_AFTER_WAL,
    FP_COORD_RESIZE_BEFORE_WAL,
    InjectedCrash,
)
from repro.manager.network_manager import (
    RESIZE_IN_PLACE,
    RESIZE_REJECTED,
    RESIZE_REPLACED,
    NetworkManager,
)
from repro.obs.federation import federation_meta, merge_snapshots
from repro.obs.flightrec import flight_recorder
from repro.obs.instruments import cluster_instruments, global_registry
from repro.obs.tracing import SpanTracer, Trace, TraceContext, take_remote_spans
from repro.service.codec import allocation_from_dict, allocation_to_dict
from repro.service.errors import ConflictError, ServiceError
from repro.service.journal import Journal

logger = logging.getLogger(__name__)


def _tspan(trace: Optional[Trace], name: str):
    """A span on ``trace``, or a no-op scope when the request is unsampled."""
    return trace.span(name) if trace is not None else nullcontext()

#: Coordinator WAL record types (module docstring).  Unknown ops are skipped
#: at replay, same forward-compatibility contract as ``recover_manager``.
OP_INTENT = "intent"
OP_OUTCOME = "outcome"

KIND_LOCAL = "local"
KIND_CROSS = "cross"
KIND_RESIZE = "resize"
KIND_RELEASE = "release"

COMMITTED = "committed"
ABORTED = "aborted"

ROUTE_LOCAL = "local"
ROUTE_CROSS = "cross_shard"
ROUTE_SPILL = "spill"
ROUTE_REJECT = "reject"
ROUTE_DEDUP = "dedup"

WAL_FILENAME = "coordinator.jsonl"


class CoordinatorError(ServiceError):
    """The coordinator could not produce a decision (outcome unknown)."""


@dataclass
class _Op:
    """One operation in flight: its global id, client key, clock and trace."""

    gid: int
    key: Optional[str]
    started: float
    trace: Optional[Trace] = None
    tctx: Optional[TraceContext] = None


class ClusterCoordinator:
    """Routes admissions over K shards; owns the global request-id space."""

    def __init__(
        self,
        partition: ClusterPartition,
        shards: Sequence[ShardHandle],
        *,
        directory: Optional[Path] = None,
        epsilon: float = 0.05,
        allocator=None,
        fsync: bool = False,
        reserve_ttl_s: float = 30.0,
        max_cross_retries: int = 2,
        decision_timeout_s: float = 30.0,
        rebalancer: Optional[ShardLoadRebalancer] = None,
        trace_sample_every: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if len(shards) != partition.num_shards:
            raise ValueError(
                f"partition has {partition.num_shards} shards, got {len(shards)} handles"
            )
        self.partition = partition
        self.shards = list(shards)
        self.clock = clock
        self.decision_timeout_s = decision_timeout_s
        self.max_cross_retries = max_cross_retries
        self.replica = NetworkManager(partition.tree, epsilon=epsilon, allocator=allocator)
        self.ledger = CoreLinkLedger(
            partition.tree,
            partition.core_link_ids,
            epsilon=epsilon,
            reserve_ttl_s=reserve_ttl_s,
            clock=clock,
        )
        self.rebalancer = rebalancer
        self._lock = threading.RLock()
        self._next_gid = 1
        #: global id -> {shard index -> shard-local request id}.
        self._gid_map: Dict[int, Dict[int, int]] = {}
        #: (shard index, shard-local request id) -> global id.
        self._srid_map: Dict[Tuple[int, int], int] = {}
        #: client idempotency key -> decision payload.
        self._idem: Dict[str, Dict[str, Any]] = {}
        #: global id -> the key whose submit admitted it: the key's entry
        #: leaves the index with the tenant, so none names a missing tenant.
        self._admitted_by: Dict[int, str] = {}
        #: client keys with a decision currently in flight (double-submit guard).
        self._inflight: set = set()
        #: shard index -> VMs of submits routed there but not yet decided;
        #: routing discounts these so concurrent submits spread across
        #: shards instead of piling onto the momentarily-most-free one.
        self._inflight_vms: Counter = Counter()
        self._shard_stats: Dict[int, Dict[str, Any]] = {}
        self.admitted_count = 0
        self.rejected_count = 0
        #: Per-outcome resize tallies — separate from the admission
        #: counters, same discipline as ``NetworkManager.resize_counts``.
        self.resize_counts: Dict[str, int] = dict.fromkeys(
            (RESIZE_IN_PLACE, RESIZE_REPLACED, RESIZE_REJECTED), 0
        )
        #: Monotonic resize round counter (restored from the WAL) so every
        #: round hands its shard a fresh idempotency key.
        self._resize_seq = 0
        self._wal: Optional[Journal] = None
        if directory is not None:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            self._wal = Journal(directory / WAL_FILENAME, fsync=fsync)
        self._obs = cluster_instruments()
        self._obs.bind_coordinator(self)
        #: End-to-end trace ring: every sampled admission becomes one trace
        #: whose local spans cover routing/reserve/commit and whose remote
        #: spans are the shard workers' allocator legs, all under a single
        #: cluster-wide trace id.
        self.tracer = SpanTracer(sample_every=trace_sample_every, keep=128)
        if self._wal is not None and self._wal.next_seq > 1:
            self._recover()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def active_tenancies(self) -> int:
        with self._lock:
            return len(self._gid_map)

    def fragments_of(self, gid: int) -> Optional[Dict[int, int]]:
        with self._lock:
            entry = self._gid_map.get(gid)
            return dict(entry) if entry is not None else None

    def allocation_of(self, gid: int) -> Optional[Allocation]:
        """The admitted global-id allocation for one tenant, or None."""
        with self._lock:
            tenancy = self.replica.get_tenancy(gid)
            return tenancy.allocation if tenancy is not None else None

    def shard_free_slots(self, shard_index: int) -> int:
        """Free slots of one shard, read from the replica (no shard RPC)."""
        view = self.shards[shard_index].view
        state = self.replica.state
        return sum(state.free_slots_under(agg) for agg in view.core_link_ids)

    def cached_shard_stat(self, shard_index: int, field: str) -> float:
        """Last collected shard summary value (0 before the first refresh)."""
        stats = self._shard_stats.get(shard_index)
        return float(stats.get(field, 0)) if stats else 0.0

    def refresh_shard_stats(self) -> List[Dict[str, Any]]:
        """Collect per-shard summaries; feeds the rebalancer and the gauges."""
        summaries = []
        for shard in self.shards:
            try:
                stats = shard.stats()
            except ServiceError as exc:
                stats = {
                    "shard": shard.index,
                    "free_slots": 0,
                    "total_slots": shard.view.total_slots,
                    "queue_depth": 0,
                    "active_tenancies": 0,
                    "max_occupancy": 0.0,
                    "error": str(exc),
                }
            self._shard_stats[shard.index] = stats
            summaries.append(stats)
        if self.rebalancer is not None:
            self.rebalancer.maybe_update(summaries)
        return summaries

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            payload = {
                "shards": self.num_shards,
                "admitted_total": self.admitted_count,
                "rejected_total": self.rejected_count,
                "active_tenancies": len(self._gid_map),
                "resizes": dict(self.resize_counts),
                "pending_reservations": self.ledger.pending_reservations,
                "core_occupancy": self.ledger.occupancies(),
                "replica_max_occupancy": self.replica.max_occupancy(),
                "free_slots": {
                    shard.index: self.shard_free_slots(shard.index)
                    for shard in self.shards
                },
            }
            if self.rebalancer is not None:
                payload["rebalancer"] = self.rebalancer.describe()
            return payload

    # ------------------------------------------------------------------
    # Observability: federation, traces, flight recorder
    # ------------------------------------------------------------------

    def cluster_metrics(self) -> Dict[str, Any]:
        """One federated snapshot: every shard's registry + the coordinator's.

        Per-shard series gain a ``shard`` label; families reported by two
        or more sources additionally get a ``shard="all"`` aggregate.  A
        shard whose scrape fails is skipped (and counted), so one dead
        worker never blanks the cluster view.
        """
        sources: Dict[str, Dict[str, Any]] = {}
        for shard in self.shards:
            try:
                sources[str(shard.index)] = shard.metrics_snapshot()
                self._obs.federation_scrape("ok")
            except ServiceError as exc:
                self._obs.federation_scrape("error")
                logger.warning(
                    "shard %d metrics scrape failed: %s", shard.index, exc
                )
        sources["coordinator"] = global_registry().snapshot()
        merged = merge_snapshots(sources)
        meta = federation_meta(sources)
        return {
            "metrics": merged,
            "meta": meta,
            "stats": self.stats(),
            "shard_stats": self.refresh_shard_stats(),
        }

    def recent_traces(self, limit: int = 16) -> List[Dict[str, Any]]:
        """Most recent end-to-end admission traces from the coordinator ring."""
        return self.tracer.recent(limit)

    def collect_obs_dumps(self) -> Dict[str, Any]:
        """Flight-recorder rings and trace buffers, cluster-wide."""
        shards: List[Dict[str, Any]] = []
        for shard in self.shards:
            try:
                shards.append(shard.obs_dump())
            except ServiceError as exc:
                shards.append({"shard": shard.index, "error": str(exc)})
        return {
            "coordinator": {
                "pid": os.getpid(),
                "flight": flight_recorder().events(),
                "traces": self.tracer.recent(),
            },
            "shards": shards,
        }

    def _collect_remote(
        self, trace: Optional[Trace], tctx: Optional[TraceContext]
    ) -> None:
        """Fold shard-side spans buffered for this trace into it."""
        if trace is None or tctx is None:
            return
        spans = take_remote_spans(tctx.trace_id)
        for span in spans:
            trace.add_remote(span)
        if spans:
            self._obs.trace_spans("shard", len(spans))

    def _finish_trace(
        self, trace: Optional[Trace], route: str, outcome: str
    ) -> None:
        if trace is None:
            return
        trace.annotate(route=route, outcome=outcome)
        self._obs.trace_spans("coordinator", len(trace.spans))
        self.tracer.finish(trace)

    @staticmethod
    def _flight(kind: str, **fields: Any) -> None:
        flight_recorder().record(kind, component="coordinator", **fields)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, request: VirtualClusterRequest) -> int:
        """Locality-first: the shard with the most weighted free capacity.

        Shards that can hold the whole cluster are preferred; when none
        can, the fullest-but-best shard still gets the request so its
        allocator produces the authoritative rejection (keeping per-shard
        decision streams identical to a standalone service's).
        """
        weights = (
            self.rebalancer.weights()
            if self.rebalancer is not None
            else (1.0,) * self.num_shards
        )
        scored = []
        for shard in self.shards:
            free = max(
                0,
                self.shard_free_slots(shard.index)
                - self._inflight_vms[shard.index],
            )
            scored.append((free * weights[shard.index], free, shard.index))
        fitting = [row for row in scored if row[1] >= request.n_vms]
        pool = fitting if fitting else scored
        pool.sort(key=lambda row: (-row[0], row[2]))
        return pool[0][2]

    # ------------------------------------------------------------------
    # Protocol pieces shared by every kind
    # ------------------------------------------------------------------

    def _once(
        self, key: Optional[str], run: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Run one keyed operation at most once (submit and resize): a known
        key answers from the index, an in-flight one is refused for now."""
        if key is None:
            return run()
        with self._lock:
            known = self._idem.get(key)
            if known is not None:
                self._obs.routing(ROUTE_DEDUP)
                return dict(known, deduped=True)
            if key in self._inflight:
                raise CoordinatorError(
                    f"key {key!r} already has a decision in flight; "
                    "retry after it resolves"
                )
            self._inflight.add(key)
        try:
            return run()
        finally:
            with self._lock:
                self._inflight.discard(key)

    def _journal(
        self,
        op: str,
        kind: str,
        gid: int,
        undo: Optional[Callable[[], None]] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Append one protocol record and return it.

        ``undo`` makes a failed append roll the step back: it reverses what
        the step did and the caller gets a :class:`CoordinatorError`
        (outcome unknown; a retry with the same key converges).  Without it
        the step rolls forward: the record is lost, and recovery re-derives
        the same state from the shard journals.  :class:`InjectedCrash`
        always propagates — a simulated death runs no cleanup.
        """
        try:
            if self._wal is not None:
                self._wal.append(op, kind=kind, gid=gid, **fields)
        except InjectedCrash:
            raise
        except Exception as exc:
            self._flight("wal_error", op=f"{kind} {op}", gid=gid, error=str(exc))
            if undo is not None:
                undo()
                raise CoordinatorError(
                    f"{kind} {op} not journaled ({type(exc).__name__}); rolled back"
                ) from exc
            logger.warning("gid=%d: %s %s not journaled: %s", gid, kind, op, exc)
        return {"op": op, "kind": kind, "gid": gid, **fields}

    def _hold(self, hold_id: int, core: Dict[int, CoreDemand]) -> bool:
        """Phase 1 on the ledger: hold ``core``; False (nothing held) means a
        core link would reach ``O_L >= 1``.  An empty footprint needs none."""
        if not core:
            return True
        held = self.ledger.reserve(hold_id, core)
        self._obs.reservation("reserve" if held else "reserve_denied")
        return held

    def _drop_hold(self, hold_id: int, reason: Optional[str] = None) -> None:
        """Phase 2 on failure: abort a hold; ``reason`` marks a rolled-back round."""
        if self.ledger.abort(hold_id) and reason is not None:
            self._obs.reservation("abort")
            self._flight("reservation_abort", gid=abs(hold_id), reason=reason)

    def _mirror(self, gid: int, allocation: Allocation) -> None:
        """Add a shard-acked footprint to the replica and the ledger: a cross
        round's hold commits, anything else was validated by its shard."""
        self.replica.adopt(allocation)
        if self.ledger.is_reserved(gid):
            self.ledger.commit(gid)
            self._obs.reservation("commit")
            return
        core = core_demands_of(allocation, self.partition.core_link_ids)
        if core:
            self.ledger.commit_direct(gid, core)
            self._obs.reservation("mirror")

    def _unmirror(self, gid: int) -> None:
        """Drop a tenant's footprint from the replica and the ledger."""
        tenancy = self.replica.get_tenancy(gid)
        if tenancy is not None:
            self.replica.release(tenancy)
        self.ledger.release(gid)

    def _attach(self, gid: int, fragments: Dict[int, int]) -> None:
        """Map an admitted tenant's fragments both ways. Lock held."""
        self._gid_map[gid] = dict(fragments)
        for shard_index, srid in fragments.items():
            self._srid_map[(shard_index, srid)] = gid
        self.admitted_count += 1

    def _forget(self, gid: int) -> Dict[int, int]:
        """Unmap a departing tenant and drop its key's admission. Lock held."""
        fragments = self._gid_map.pop(gid, {})
        for shard_index, srid in fragments.items():
            self._srid_map.pop((shard_index, srid), None)
        key = self._admitted_by.pop(gid, None)
        if key is not None:
            self._idem.pop(key, None)
        return fragments

    def _free(self, gid: int, fragments: Dict[int, int]) -> None:
        """Release fragments at their shards; one that fails is left to recovery."""
        for shard_index, srid in sorted(fragments.items()):
            try:
                self.shards[shard_index].release(srid)
            except ServiceError:
                logger.warning(
                    "gid=%d: release of srid %d on shard %d failed; recovery "
                    "will settle it", gid, srid, shard_index,
                )

    def _expire(self) -> None:
        for _expired in self.ledger.expire():
            self._obs.reservation("expire")

    # ------------------------------------------------------------------
    # Submit: a local intent, then a cross round if the shard rejects
    # ------------------------------------------------------------------

    def submit(
        self,
        request: VirtualClusterRequest,
        idempotency_key: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Admit or reject one tenant request; returns the decision payload.

        Raises :class:`CoordinatorError` (or a transport
        :class:`ServiceError`) when the outcome is *unknown* — the caller
        retries with the same ``idempotency_key`` and converges on the
        journaled decision.
        """
        return self._once(
            idempotency_key, lambda: self._submit(request, idempotency_key, timeout)
        )

    def _submit(
        self,
        request: VirtualClusterRequest,
        key: Optional[str],
        timeout: Optional[float],
    ) -> Dict[str, Any]:
        started = self.clock()
        trace = self.tracer.start("cluster_admission")
        with self._lock:
            self._expire()
            op = _Op(self._next_gid, key, started, trace)
            self._next_gid += 1
            if trace is not None:
                # The cluster-wide id must be unique across processes and
                # coordinator restarts within one run; pid + ring id is.
                op.tctx = TraceContext(f"{os.getpid()}-{trace.trace_id}")
                trace.annotate(gid=op.gid, trace_id_global=op.tctx.trace_id)
            with _tspan(trace, "route"):
                target = self._route(request)
            FAILPOINTS.hit(FP_COORD_BEFORE_WAL)
            # The shard sees a per-gid key, never the client's: retries
            # after a rolled-back round get a fresh gid and therefore a
            # clean shard-side dedup slate, while client-level dedup lives
            # in the coordinator's own WAL-rebuilt index.
            skey = f"r-{op.gid}"
            self._journal(
                OP_INTENT, KIND_LOCAL, op.gid, undo=lambda: None,
                idem=key, payload={"shard": target, "skey": skey},
            )
            pending = int(request.n_vms)
            self._inflight_vms[target] += pending
        try:
            with _tspan(trace, f"shard{target}:submit"):
                decision = self.shards[target].submit(
                    request,
                    idempotency_key=skey,
                    timeout=self.decision_timeout_s if timeout is None else timeout,
                    trace=op.tctx,
                )
            self._collect_remote(trace, op.tctx)
            outcome = decision.get("outcome")
            if outcome == "admitted":
                return self._commit_local(op, target, decision)
            if outcome == "rejected" and self.num_shards > 1:
                return self._submit_cross(op, request, decision.get("detail"))
            if outcome == "rejected":
                return self._reject(op, KIND_LOCAL, decision.get("detail"))
            raise CoordinatorError(
                f"shard {target} returned outcome {outcome!r} (ticket unresolved?)"
            )
        finally:
            with self._lock:
                self._inflight_vms[target] -= pending

    def _commit_local(
        self, op: _Op, shard_index: int, decision: Dict[str, Any]
    ) -> Dict[str, Any]:
        srid = decision["request_id"]
        if decision.get("allocation") is None:
            raise CoordinatorError(
                f"shard {shard_index} acked request {srid} without an allocation"
            )
        fragments = {shard_index: srid}
        with self._lock:
            allocation = self.shards[shard_index].view.allocation_to_global(
                decision["allocation"], request_id=op.gid
            )
            # The WAL will not remember an unjournaled admission, so the
            # shard must forget it too (same rollback discipline as the
            # shard's own journal failures).
            self._journal(
                OP_OUTCOME, KIND_LOCAL, op.gid,
                undo=lambda: self._free(op.gid, fragments),
                status=COMMITTED, idem=op.key,
                payload=self._admitted_payload(fragments, allocation),
            )
            self._mirror(op.gid, allocation)
            self._attach(op.gid, fragments)
            return self._answer(
                op, "admitted", decision.get("detail"), ROUTE_LOCAL, shard=shard_index
            )

    def _reject(self, op: _Op, kind: str, detail: Optional[str]) -> Dict[str, Any]:
        """Settle a rejected submit.  Only a keyed rejection is journaled, and
        it rolls forward (a retry re-runs the deterministic decision); an
        unkeyed one leaves its intent open for recovery to resolve."""
        with self._lock:
            if op.key is not None:
                self._journal(
                    OP_OUTCOME, kind, op.gid, status=ABORTED, idem=op.key,
                    payload={"decision": "rejected"},
                )
            self.rejected_count += 1
            return self._answer(op, "rejected", detail, ROUTE_REJECT)

    def _answer(
        self, op: _Op, outcome: str, detail: Optional[str], route: str, **flight: Any
    ) -> Dict[str, Any]:
        """Remember, count, time and trace one submit decision. Lock held."""
        payload = self._decision(op.gid, outcome, detail, route)
        self._remember(op.key, payload)
        self._obs.routing(route)
        path = "cross" if route in (ROUTE_CROSS, ROUTE_SPILL) else "local"
        self._obs.observe_latency(path, self.clock() - op.started)
        self._flight(
            "cluster_decision", gid=op.gid, outcome=outcome, route=route,
            detail=detail, **flight,
        )
        self._finish_trace(op.trace, route, outcome)
        return payload

    def _submit_cross(
        self, op: _Op, request: VirtualClusterRequest, detail: Optional[str]
    ) -> Dict[str, Any]:
        gid, trace = op.gid, op.trace
        for attempt in range(1 + self.max_cross_retries):
            fragment_key = f"xfrag-{gid}-r{attempt}"
            with self._lock:
                with _tspan(trace, "cross_allocate"):
                    allocation = self.replica.allocator.allocate(
                        self.replica.state, request, gid
                    )
                if allocation is None:
                    return self._reject(op, KIND_CROSS, detail)
                core = core_demands_of(allocation, self.partition.core_link_ids)
                with _tspan(trace, "reserve"):
                    held = self._hold(gid, core)
                if not held:
                    self._flight("reservation_denied", gid=gid)
                    return self._reject(
                        op, KIND_CROSS, "core links at capacity (reservation denied)"
                    )
                FAILPOINTS.hit(FP_COORD_AFTER_RESERVE)
                fragments = self._fragment(allocation)
                # Recovery needs only where the fragments went and under
                # which key: the allocation itself rides on the outcome.
                self._journal(
                    OP_INTENT, KIND_CROSS, gid,
                    undo=lambda: self._drop_hold(gid, "intent_not_journaled"),
                    idem=op.key,
                    payload={"fkey": fragment_key, "shards": sorted(fragments)},
                )
            adopted: Dict[int, int] = {}
            failure: Optional[ServiceError] = None
            for shard_index in sorted(fragments):
                try:
                    with _tspan(trace, f"shard{shard_index}:adopt"):
                        adopted[shard_index] = self.shards[shard_index].adopt(
                            fragments[shard_index],
                            idempotency_key=fragment_key,
                            trace=op.tctx,
                        )
                    self._collect_remote(trace, op.tctx)
                except ServiceError as exc:
                    failure = exc
                    break
            with self._lock:
                if failure is None:
                    FAILPOINTS.hit(FP_COORD_BEFORE_COMMIT)

                    def undo_round() -> None:
                        self._drop_hold(gid, "commit_not_journaled")
                        self._free(gid, adopted)

                    self._journal(
                        OP_OUTCOME, KIND_CROSS, gid, undo=undo_round,
                        status=COMMITTED, idem=op.key,
                        payload=self._admitted_payload(adopted, allocation),
                    )
                    FAILPOINTS.hit(FP_COORD_AFTER_COMMIT)
                    with _tspan(trace, "commit"):
                        self._mirror(gid, allocation)
                    self._attach(gid, adopted)
                    route = ROUTE_SPILL if len(fragments) == 1 else ROUTE_CROSS
                    return self._answer(
                        op, "admitted", None, route, shards=sorted(fragments)
                    )
                # Roll the round back.  The abort rolls forward: recovery
                # frees the fragments of an aborted or a dangling round alike.
                self._drop_hold(gid, f"{type(failure).__name__}: {failure}")
                self._journal(OP_OUTCOME, KIND_CROSS, gid, status=ABORTED)
            self._free(gid, adopted)
            if not isinstance(failure, ConflictError):
                raise CoordinatorError(
                    f"cross-shard round for gid={gid} failed: {failure}"
                ) from failure
            detail = f"cross-shard conflict: {failure}"
        return self._reject(
            op, KIND_CROSS, detail or "cross-shard placement kept conflicting"
        )

    @staticmethod
    def _admitted_payload(
        fragments: Dict[int, int], allocation: Allocation
    ) -> Dict[str, Any]:
        """The payload of a committed submit outcome (global allocation)."""
        return {
            "decision": "admitted",
            "srids": {str(shard_index): srid for shard_index, srid in fragments.items()},
            "allocation": allocation_to_dict(allocation),
        }

    def _fragment(self, allocation: Allocation) -> Dict[int, Allocation]:
        """Split a global allocation into per-shard sub-allocations.

        Each fragment carries the *exact* per-link demands the full-tree
        placement computed (including the shard's own aggregation uplinks),
        translated to shard-local ids, plus a sub-request sized to the VMs
        the shard hosts — so shard-side revalidation and release math see
        precisely this tenant's footprint on their links, never a
        recomputed (and differently-split) one.
        """
        partition = self.partition
        per_shard_machines: Dict[int, Dict[int, int]] = {}
        for machine_id, count in allocation.machine_counts.items():
            shard_index = partition.node_to_shard[machine_id]
            per_shard_machines.setdefault(shard_index, {})[machine_id] = count
        per_shard_links: Dict[int, Dict[int, Any]] = {}
        for link_id, demand in allocation.link_demands.items():
            shard_index = partition.node_to_shard[link_id]
            # A link of a shard no VM landed in cannot carry hose demand.
            per_shard_links.setdefault(shard_index, {})[link_id] = demand
        fragments: Dict[int, Allocation] = {}
        for shard_index, machines in per_shard_machines.items():
            view = self.shards[shard_index].view
            placed = sum(machines.values())
            sub_request, machine_vms = self._sub_request(
                allocation, machines, placed
            )
            fragments[shard_index] = view.allocation_to_local(
                Allocation(
                    request=sub_request,
                    request_id=allocation.request_id,
                    host_node=view.to_global[view.tree.root_id],
                    machine_counts=machines,
                    link_demands=per_shard_links.get(shard_index, {}),
                    machine_vms=machine_vms,
                )
            )
        return fragments

    @staticmethod
    def _sub_request(
        allocation: Allocation, machines: Dict[int, int], placed: int
    ) -> Tuple[VirtualClusterRequest, Optional[Dict[int, Tuple[int, ...]]]]:
        """A request describing only the VMs one shard hosts.

        For heterogeneous requests the hosted VM indices are remapped to a
        dense ``0..k-1`` range (ascending original index) so the fragment
        is a self-consistent ``HeterogeneousSVC``.
        """
        request = allocation.request
        if isinstance(request, HeterogeneousSVC):
            if allocation.machine_vms is None:
                raise CoordinatorError(
                    "heterogeneous allocation lacks VM identities; cannot fragment"
                )
            hosted: List[int] = []
            for machine_id in machines:
                hosted.extend(allocation.machine_vms[machine_id])
            hosted.sort()
            remap = {vm: index for index, vm in enumerate(hosted)}
            machine_vms = {
                machine_id: tuple(remap[vm] for vm in allocation.machine_vms[machine_id])
                for machine_id in machines
            }
            sub = HeterogeneousSVC(
                n_vms=len(hosted),
                demands=tuple(request.demands[vm] for vm in hosted),
            )
            return sub, machine_vms
        if isinstance(request, DeterministicVC):
            return DeterministicVC(n_vms=placed, bandwidth=request.bandwidth), None
        if isinstance(request, HomogeneousSVC):
            return HomogeneousSVC(n_vms=placed, mean=request.mean, std=request.std), None
        raise CoordinatorError(f"cannot fragment request type {type(request).__name__}")

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def release(self, gid: int) -> bool:
        """Release one admitted tenant across all its shards; False if unknown.

        The intent is journaled and the footprint leaves the replica and the
        ledger before any shard frees a fragment (mirror order); recovery
        finishes a fragment whose shard failed.  Raises
        :class:`CoordinatorError`, with nothing released, when the intent
        cannot be journaled.
        """
        with self._lock:
            if gid not in self._gid_map:
                return False
            self._journal(OP_INTENT, KIND_RELEASE, gid, undo=lambda: None)
            self._unmirror(gid)
            fragments = self._forget(gid)
        self._free(gid, fragments)
        return True

    # ------------------------------------------------------------------
    # Resize
    # ------------------------------------------------------------------

    def resize(
        self,
        gid: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Resize one admitted tenant at its owning shard.

        The shard's serialized resize path revalidates Eq. (6) on every link
        it owns; growth on the shared core links is first held on the ledger
        (a **delta reservation** estimated from an in-place plan on the
        replica), so a concurrent cross-shard round cannot race it past
        ``O_L = 1``.  Cross-shard tenancies are rejected: resizing a
        placement that spans shards would need a re-plan.  Raises
        :class:`CoordinatorError` when the outcome is unknown; a retry with
        the same ``idempotency_key`` converges on the journaled decision.
        """
        op = _Op(gid, idempotency_key, self.clock())
        return self._once(
            idempotency_key, lambda: self._resize(op, new_n, new_mu, new_sigma)
        )

    def _resize(
        self,
        op: _Op,
        new_n: Optional[int],
        new_mu: Optional[float],
        new_sigma: Optional[float],
    ) -> Dict[str, Any]:
        gid = op.gid
        hold_id = -gid  # synthetic ledger id for the delta hold
        with self._lock:
            self._expire()
            entry = self._gid_map.get(gid)
            if entry is None:
                return self._decision(gid, "unknown", f"no active tenancy with id {gid}")
            if len(entry) > 1:
                return self._settle_resize(
                    op, RESIZE_REJECTED,
                    "tenancy spans multiple shards; resize requires a "
                    "single-shard placement",
                )
            ((shard_index, srid),) = entry.items()
            tenancy = self.replica.get_tenancy(gid)
            if tenancy is None:
                raise CoordinatorError(
                    f"gid {gid} has a resize in flight; retry after it resolves"
                )
            old_allocation = tenancy.allocation
            try:
                new_request = resized_request(
                    old_allocation.request,
                    new_n=new_n,
                    new_mu=new_mu,
                    new_sigma=new_sigma,
                )
            except ValueError as exc:
                return self._settle_resize(op, RESIZE_REJECTED, str(exc))
            # Two-phase delta: estimate the post-resize core footprint from
            # an in-place plan on the replica and reserve the positive
            # component deltas before asking the shard.  The estimate only
            # guards capacity — the committed footprint is mirrored from
            # the shard's actual post-resize allocation afterwards.
            if not self._hold(hold_id, self._core_delta(old_allocation, new_request)):
                self._flight("reservation_denied", gid=gid, resize=True)
                return self._settle_resize(
                    op, RESIZE_REJECTED, "core links at capacity (resize delta denied)"
                )
            self._resize_seq += 1
            skey = f"rs-{gid}-{self._resize_seq}"
            FAILPOINTS.hit(FP_COORD_RESIZE_BEFORE_WAL)
            self._journal(
                OP_INTENT, KIND_RESIZE, gid,
                undo=lambda: self._drop_hold(hold_id),
                idem=op.key,
                payload={
                    "shard": shard_index, "srid": srid, "skey": skey,
                    "rseq": self._resize_seq,
                },
            )
            # Mirror order: a shrink or a re-placement frees slots at the
            # shard, so the old footprint leaves before the shard is asked.
            self._unmirror(gid)
        failure: Optional[ServiceError] = None
        try:
            decision = self.shards[shard_index].resize(
                srid,
                new_n=new_n,
                new_mu=new_mu,
                new_sigma=new_sigma,
                idempotency_key=skey,
            )
        except ServiceError as exc:
            decision, failure = {"detail": str(exc)}, exc
        outcome = decision.get("outcome")
        with self._lock:
            self._drop_hold(hold_id)
            local = decision.get("allocation")
            if local is None and outcome != RESIZE_REJECTED:
                # An accepted answer without an allocation (the shard
                # deduplicated the key onto an earlier round) or no answer
                # at all: the shard's live tenancy is the truth.
                local = self._shard_active(shard_index).get(srid)
            allocation = old_allocation
            if local is not None:
                allocation = self.shards[shard_index].view.allocation_to_global(
                    local, request_id=gid
                )
            if gid in self._gid_map:  # unless a concurrent release dropped it
                self._mirror(gid, allocation)
            if outcome == RESIZE_REJECTED:
                return self._settle_resize(op, RESIZE_REJECTED, decision.get("detail"))
            if outcome not in (RESIZE_IN_PLACE, RESIZE_REPLACED) or local is None:
                raise CoordinatorError(
                    f"resize of gid {gid} did not conclude at shard "
                    f"{shard_index}: {decision.get('detail') or outcome!r}"
                ) from failure
            return self._settle_resize(op, outcome, decision.get("detail"), allocation)

    def _settle_resize(
        self,
        op: _Op,
        outcome: str,
        detail: Optional[str],
        allocation: Optional[Allocation] = None,
    ) -> Dict[str, Any]:
        """Journal, tally and remember one resize decision. Lock held.

        Rolls forward: a rejection leaves the old allocation standing, and
        recovery reconciles an accepted size from the shard's journal.
        """
        payload: Dict[str, Any] = {"decision": outcome}
        if allocation is not None:
            payload["allocation"] = allocation_to_dict(allocation)
        self._journal(
            OP_OUTCOME, KIND_RESIZE, op.gid,
            status=ABORTED if allocation is None else COMMITTED,
            idem=op.key, payload=payload,
        )
        FAILPOINTS.hit(FP_COORD_RESIZE_AFTER_WAL)
        self.resize_counts[outcome] += 1
        answer = self._decision(op.gid, outcome, detail, ROUTE_LOCAL)
        self._remember(op.key, answer)
        self._obs.observe_latency("resize", self.clock() - op.started)
        self._flight("cluster_resize", gid=op.gid, outcome=outcome, detail=detail)
        return answer

    def _core_delta(
        self, old_allocation: Allocation, new_request
    ) -> Dict[int, CoreDemand]:
        """Positive core-link demand delta of an in-place resize estimate.

        Returns ``{}`` when no in-place plan exists on the replica (the
        shard may still accept via its fallback path — its own links are
        revalidated there; only the *extra* core headroom cannot be held in
        advance, which matches what the local-admit path risks today).
        """
        try:
            plan = plan_in_place(
                self.replica.state,
                self.replica.allocator,
                old_allocation,
                new_request,
            )
        except Exception:  # noqa: BLE001 — an estimate must never block
            plan = None
        if plan is None:
            return {}
        core_ids = self.partition.core_link_ids
        old_core = core_demands_of(old_allocation, core_ids)
        delta: Dict[int, CoreDemand] = {}
        for link_id, new in core_demands_of(plan.allocation, core_ids).items():
            old = old_core.get(link_id, CoreDemand())
            grown = CoreDemand(
                mean=max(0.0, new.mean - old.mean),
                variance=max(0.0, new.variance - old.variance),
                deterministic=max(0.0, new.deterministic - old.deterministic),
            )
            if grown != CoreDemand():
                delta[link_id] = grown
        return delta


    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the coordinator (shards are owned by the caller)."""
        if self._wal is not None:
            self._wal.close()

    #: Chaos-harness death: the WAL handle is dropped without any drain,
    #: which is all ``stop`` does too.
    kill = stop

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild coordinator state from the WAL + the recovered shards.

        The shards recover themselves (their own WALs) first.  Then:
        **fold** the WAL into tenants and open intents; **resolve** each
        open intent against its shard's journal (a dangling cross round is
        presumed aborted, a submit or resize takes its shard's journaled
        decision, one that never reached its shard stays open);
        **reconcile** with the shards' live tenancies, which are
        authoritative (a tenant with a fragment gone is dropped with its
        key's admission, a size mismatch takes the shard's size, and
        unlinked shard tenancies are re-attached under fresh ids); and only
        then **adopt** the set into the replica and the ledger — the WAL
        alone can over-state occupancy (a lost release record), so eager
        adoption could collide with slots a shard has since reused.

        Recovery-decided outcomes are journaled and applied by the same
        replay step as the WAL's own, so recovering twice converges.  Logs
        of the earlier nine-record coordinator format are not read.
        """
        assert self._wal is not None
        allocations: Dict[int, Allocation] = {}
        open_intents: Dict[Tuple[bool, int], Dict[str, Any]] = {}
        aborted_rounds: List[Dict[str, Any]] = []
        released: Dict[Tuple[int, int], int] = {}  # fragment -> released gid
        max_gid = 0
        for record in Journal.iter_records(self._wal.path):
            gid = int(record.get("gid", 0))
            max_gid = max(max_gid, gid)
            kind = record.get("kind")
            # One open submit intent per gid (a cross round supersedes the
            # local intent it followed); a resize of the gid has its own.
            slot = (kind == KIND_RESIZE, gid)
            if record.get("op") == OP_INTENT and kind == KIND_RELEASE:
                open_intents.pop((True, gid), None)
                allocations.pop(gid, None)
                for fragment in self._forget(gid).items():
                    released[fragment] = gid
            elif record.get("op") == OP_INTENT:
                open_intents[slot] = record
                rseq = int(record.get("payload", {}).get("rseq", 0))
                self._resize_seq = max(self._resize_seq, rseq)
            elif record.get("op") == OP_OUTCOME:
                intent = open_intents.pop(slot, None)
                if kind == KIND_CROSS and record.get("status") == ABORTED and intent:
                    aborted_rounds.append(intent)
                self._replay_outcome(record, allocations)
            # Unknown ops are skipped (forward compatibility).
        self._next_gid = max(self._next_gid, max_gid + 1)

        active = {shard.index: self._shard_active(shard.index) for shard in self.shards}
        for intent in aborted_rounds:
            self._presume_abort(intent)
        for (_resize, gid), intent in sorted(open_intents.items()):
            payload = intent.get("payload", {})
            if intent["kind"] == KIND_CROSS:
                self._presume_abort(intent)
                self._settle_recovered(KIND_CROSS, gid, ABORTED, allocations)
                continue
            shard_index = int(payload["shard"])
            found = self._shard_idem(shard_index, payload["skey"])
            if found is None:
                continue  # never reached its shard; a retry starts fresh
            answer = found.get("outcome")
            srid = payload.get("srid", found.get("request_id"))
            live = None if srid is None else active[shard_index].get(int(srid))
            view = self.shards[shard_index].view
            key = intent.get("idem")
            if intent["kind"] == KIND_LOCAL and answer == "admitted" and live is not None:
                owner = self._srid_map.get((shard_index, int(srid)))
                if owner is not None:
                    # An earlier recovery re-attached it as an orphan.
                    self._remember(key, self._decision(owner, "admitted", None))
                    continue
                self._settle_recovered(
                    KIND_LOCAL, gid, COMMITTED, allocations, key,
                    **self._admitted_payload(
                        {shard_index: int(srid)},
                        view.allocation_to_global(live, request_id=gid),
                    ),
                )
            elif intent["kind"] == KIND_LOCAL:
                # Rejected, or admitted and rolled back before the crash.  A
                # local reject is the decision only with one shard; otherwise
                # the cross path never concluded and a retry re-decides.
                rejected = answer == "rejected" and self.num_shards == 1
                self._settle_recovered(
                    KIND_LOCAL, gid, ABORTED, allocations, key,
                    **({"decision": "rejected"} if rejected else {}),
                )
            elif gid not in allocations:
                continue  # released meanwhile; nothing left to resize
            elif answer in (RESIZE_IN_PLACE, RESIZE_REPLACED) and live is not None:
                self._settle_recovered(
                    KIND_RESIZE, gid, COMMITTED, allocations, key, decision=answer,
                    allocation=allocation_to_dict(
                        view.allocation_to_global(live, request_id=gid)
                    ),
                )
            elif answer == RESIZE_REJECTED:
                self._settle_recovered(
                    KIND_RESIZE, gid, ABORTED, allocations, key,
                    decision=RESIZE_REJECTED,
                )

        for gid in sorted(allocations):
            fragments = self._gid_map[gid]
            if any(srid not in active[shard] for shard, srid in fragments.items()):
                # Shards are the truth: a tenant with a fragment gone was
                # being released (or never landed); finish the release.
                self._journal(OP_INTENT, KIND_RELEASE, gid)
                del allocations[gid]
                self._free(gid, self._forget(gid))
                continue
            if len(fragments) != 1:
                continue
            ((shard_index, srid),) = fragments.items()
            live = self.shards[shard_index].view.allocation_to_global(
                active[shard_index][srid], request_id=gid
            )
            if self._footprint(live) != self._footprint(allocations[gid]):
                self._settle_recovered(
                    KIND_RESIZE, gid, COMMITTED, allocations,
                    decision=RESIZE_IN_PLACE, reconciled=True,
                    allocation=allocation_to_dict(live),
                )

        for shard in self.shards:
            live_now = self._shard_active(shard.index)
            for srid in sorted(live_now):
                if (shard.index, srid) in self._srid_map:
                    continue
                if (shard.index, srid) in released:
                    # The WAL acknowledged this tenant's release; the shard
                    # was down for its fragment — finish the release now.
                    self._free(released[(shard.index, srid)], {shard.index: srid})
                    continue
                gid = self._next_gid
                self._next_gid += 1
                orphan = shard.view.allocation_to_global(live_now[srid], request_id=gid)
                self._settle_recovered(
                    KIND_LOCAL, gid, COMMITTED, allocations,
                    **self._admitted_payload({shard.index: srid}, orphan),
                )

        # Every fragment is live at its shard and every shard is internally
        # capacity-consistent, so the union fits the replica by construction
        # (machines and pod-internal links are owned by exactly one shard).
        for gid in sorted(allocations):
            self._mirror(gid, allocations[gid])

    def _replay_outcome(
        self, record: Dict[str, Any], allocations: Dict[int, Allocation]
    ) -> None:
        """Apply one outcome record to the recovering maps and counters."""
        gid = int(record["gid"])
        payload = record.get("payload") or {}
        decision = payload.get("decision")
        if record.get("kind") == KIND_RESIZE:
            if "allocation" in payload and gid in allocations:
                allocations[gid] = allocation_from_dict(payload["allocation"])
            if payload.get("reconciled"):
                return
            if decision in self.resize_counts:
                self.resize_counts[decision] += 1
        elif record.get("status") == COMMITTED:
            self._attach(gid, {
                int(shard_index): int(srid)
                for shard_index, srid in payload["srids"].items()
            })
            allocations[gid] = allocation_from_dict(payload["allocation"])
        elif decision == "rejected":
            self.rejected_count += 1
        if decision is not None:
            self._remember(record.get("idem"), self._decision(gid, decision, None))

    def _settle_recovered(
        self,
        kind: str,
        gid: int,
        status: str,
        allocations: Dict[int, Allocation],
        key: Optional[str] = None,
        **payload: Any,
    ) -> None:
        """Journal a recovery-decided outcome and apply it as replay would."""
        self._replay_outcome(
            self._journal(OP_OUTCOME, kind, gid, status=status, idem=key, payload=payload),
            allocations,
        )

    def _presume_abort(self, intent: Dict[str, Any]) -> None:
        """Free any fragment a round that never committed left adopted."""
        payload = intent.get("payload", {})
        for shard_index in payload.get("shards", []):
            found = self._shard_idem(shard_index, payload["fkey"]) or {}
            # An allocation means the fragment is still live at its shard.
            if found.get("outcome") == "admitted" and found.get("allocation") is not None:
                self._free(int(intent["gid"]), {shard_index: int(found["request_id"])})

    @staticmethod
    def _footprint(allocation: Allocation) -> Dict[str, Any]:
        """An allocation's capacity footprint, for shard reconciliation.

        ``host_node`` is excluded: a spilled tenant's fragment is rebuilt
        with the shard root as its host while the WAL keeps the replica's
        deeper pick — same links, same machines, not a size divergence.
        """
        payload = allocation_to_dict(allocation)
        payload.pop("host_node", None)
        return payload

    def _shard_idem(self, shard_index: int, key: str) -> Optional[Dict[str, Any]]:
        try:
            return self.shards[shard_index].idem_lookup(key)
        except ServiceError:
            return None

    def _shard_active(self, shard_index: int) -> Dict[int, Allocation]:
        try:
            return self.shards[shard_index].active_allocations()
        except ServiceError:
            return {}

    # ------------------------------------------------------------------

    @staticmethod
    def _decision(
        gid: int,
        outcome: str,
        detail: Optional[str],
        route: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"outcome": outcome, "request_id": gid}
        if detail:
            payload["detail"] = detail
        if route is not None:
            payload["route"] = route
        return payload

    def _remember(self, key: Optional[str], payload: Dict[str, Any]) -> None:
        if key is None:
            return
        self._idem[key] = dict(payload)
        if payload["outcome"] == "admitted":
            self._admitted_by[payload["request_id"]] = key
