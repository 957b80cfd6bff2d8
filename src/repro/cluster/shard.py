"""Per-shard admission service: the existing stack over one shard view.

A shard is nothing new — that is the point.  :class:`LocalShard` runs the
unchanged ``AdmissionService`` + ``DurabilityStore`` + recovery pipeline
over the shard's own tree (:class:`~repro.cluster.partition.ShardView`), so
every durability and degradation property the single-node service earned
(WAL ordering, rollback-on-journal-failure, idempotent retries, oracle
replay) holds per shard by construction.

:class:`ShardHandle` is the transport-neutral interface the coordinator
programs against; :class:`~repro.cluster.worker.ProcessShard` implements
the same surface over a child process for GIL-free parallelism.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.allocation.base import Allocation
from repro.cluster.partition import ShardView
from repro.manager.network_manager import NetworkManager
from repro.obs.flightrec import flight_recorder
from repro.obs.instruments import admission_instruments, global_registry
from repro.obs.tracing import TraceContext
from repro.service.concurrency import AdmissionService
from repro.service.errors import ServiceError
from repro.service.journal import DurabilityStore
from repro.service.recovery import recover_manager


class ShardAdoptError(ServiceError):
    """A cross-shard fragment could not be installed on this shard."""


class ShardHandle:
    """What the coordinator needs from a shard, local or remote.

    ``submit``/``adopt``/``release`` move resources; ``stats``,
    ``idem_lookup`` and ``active_allocations`` are read-only.  All
    allocations crossing this interface carry **shard-local** node/link ids
    — the coordinator owns every translation to and from global ids.
    """

    index: int
    view: ShardView

    def submit(
        self,
        request,
        idempotency_key: Optional[str] = None,
        timeout: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        raise NotImplementedError

    def adopt(
        self,
        allocation: Allocation,
        idempotency_key: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> int:
        raise NotImplementedError

    def release(self, request_id: int) -> bool:
        raise NotImplementedError

    def resize(
        self,
        request_id: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Resize a shard-local tenancy; the decision carries the
        post-resize shard-local allocation for accepted outcomes."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        raise NotImplementedError

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The shard process's full metrics-registry snapshot (federation)."""
        raise NotImplementedError

    def obs_dump(self) -> Dict[str, Any]:
        """Flight-recorder ring + recent traces of the shard process."""
        raise NotImplementedError

    def idem_lookup(self, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def active_allocations(self) -> Dict[int, Allocation]:
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class LocalShard(ShardHandle):
    """In-process shard: deterministic, used by tests and the chaos referee.

    With ``directory=None`` the shard runs without a WAL (pure in-memory,
    for the metrics-schema bootstrap and quick experiments); otherwise it
    recovers from the directory on construction exactly like a restarted
    daemon would.
    """

    def __init__(
        self,
        view: ShardView,
        directory: Optional[Path] = None,
        *,
        epsilon: float = 0.05,
        allocator=None,
        mode: str = "online",
        fsync: bool = False,
        snapshot_every: Optional[int] = None,
        degradation=None,
        decision_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.view = view
        self.index = view.shard_index
        self.decision_timeout_s = decision_timeout_s
        idempotency_index = None
        if directory is not None:
            self.store: Optional[DurabilityStore] = DurabilityStore(
                Path(directory), fsync=fsync, snapshot_every=snapshot_every
            )
            manager, report = recover_manager(
                self.store, view.tree, epsilon=epsilon, allocator=allocator
            )
            idempotency_index = report.idempotency_index
            self.recovery_report = report
        else:
            self.store = None
            self.recovery_report = None
            manager = NetworkManager(view.tree, epsilon=epsilon, allocator=allocator)
        self.manager = manager
        self.service = AdmissionService(
            manager,
            store=self.store,
            mode=mode,
            clock=clock,
            degradation=degradation,
            idempotency_index=idempotency_index,
        )
        self.service.start()

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
        ticket = self.service.submit(
            request,
            wait=True,
            wait_timeout=self.decision_timeout_s if timeout is None else timeout,
            idempotency_key=idempotency_key,
            trace_context=trace,
        )
        if not ticket.done:
            raise ServiceError(
                f"shard {self.index} did not decide within the timeout"
            )
        decision: Dict[str, Any] = {
            "outcome": ticket.outcome,
            "request_id": ticket.request_id,
            "detail": ticket.detail,
            "allocation": None,
        }
        if ticket.outcome == "admitted" and ticket.request_id is not None:
            tenancy = self.manager.get_tenancy(ticket.request_id)
            if tenancy is not None:
                decision["allocation"] = tenancy.allocation
        return decision

    def adopt(
        self,
        allocation: Allocation,
        idempotency_key: Optional[str] = None,
        trace: Optional[TraceContext] = None,
    ) -> int:
        return self.service.adopt(
            allocation, idempotency_key=idempotency_key, trace_context=trace
        )

    def release(self, request_id: int) -> bool:
        return self.service.release(request_id)

    def resize(
        self,
        request_id: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        decision = dict(
            self.service.resize(
                request_id,
                new_n=new_n,
                new_mu=new_mu,
                new_sigma=new_sigma,
                idempotency_key=idempotency_key,
            )
        )
        decision.setdefault("allocation", None)
        if decision.get("outcome") in ("in_place", "replaced"):
            tenancy = self.manager.get_tenancy(request_id)
            if tenancy is not None:
                decision["allocation"] = tenancy.allocation
        return decision

    def stats(self) -> Dict[str, Any]:
        manager = self.manager
        ready, parked = self.service.queue_depths()
        return {
            "shard": self.index,
            "free_slots": manager.state.total_free_slots,
            "total_slots": manager.state.total_slots,
            "queue_depth": ready + parked,
            "active_tenancies": manager.active_tenancies,
            "max_occupancy": manager.max_occupancy(),
            "crashed": self.service.crashed,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        # Parity with ProcessShard: a killed shard fails its scrape instead
        # of answering from beyond the grave.
        if not self.service.running or self.service.crashed:
            raise ServiceError(f"shard {self.index} is down")
        # In-process shards share the process-global registry, so the
        # "shard snapshot" is simply this process's snapshot — the federated
        # view stays meaningful because the coordinator labels it.
        return global_registry().snapshot()

    def obs_dump(self) -> Dict[str, Any]:
        instruments = admission_instruments()
        tracer = getattr(instruments, "tracer", None)
        return {
            "shard": self.index,
            "pid": os.getpid(),
            "flight": flight_recorder().events(),
            "traces": tracer.recent() if tracer is not None else [],
        }

    def idem_lookup(self, key: str) -> Optional[Dict[str, Any]]:
        known = self.service.lookup_idempotency(key)
        if known is None:
            return None
        request_id = known.get("request_id")
        allocation = None
        # Accepted resizes attach the tenancy's *current* allocation the
        # same way admissions do — the coordinator's recovery treats the
        # shard as authoritative for post-resize sizes.
        if (
            known.get("outcome") in ("admitted", "in_place", "replaced")
            and request_id is not None
        ):
            tenancy = self.manager.get_tenancy(int(request_id))
            if tenancy is not None:
                allocation = tenancy.allocation
        found = {
            "outcome": known.get("outcome"),
            "request_id": request_id,
            "allocation": allocation,
        }
        if known.get("resize"):
            found["resize"] = True
        return found

    def active_allocations(self) -> Dict[int, Allocation]:
        return {
            tenancy.request_id: tenancy.allocation
            for tenancy in self.manager.tenancies()
        }

    @property
    def alive(self) -> bool:
        return not self.service.crashed

    def kill(self) -> None:
        """Simulated shard death: freeze without draining (chaos harness)."""
        self.service.kill()
        if self.store is not None:
            self.store.close()

    def stop(self) -> None:
        self.service.stop()
        if self.store is not None:
            self.store.close()

    def close(self) -> None:
        self.stop()
