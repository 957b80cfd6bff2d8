"""The chaos harness: randomized fault schedules vs the recovery oracle.

One schedule (:func:`run_chaos_schedule`) drives a single-worker journaled
:class:`~repro.service.concurrency.AdmissionService` through a random
admit/release workload while the seeded fault plan fires — transient
journal errors, torn writes, corrupt snapshots, forced queue saturation,
and (in ~70% of schedules) a crash planted on the admit or release path.
The harness keeps a client-side **ledger**: which admissions and releases
were *acknowledged* (the ticket resolved / the call returned) and which
submission was in flight when the service died.

After the run it recovers from disk and verifies the recovery contract
field-for-field against :func:`~repro.service.recovery.oracle_replay`, the
single-threaded from-scratch replay of the whole journal:

1. recovered network state == oracle state (exact dict equality), and the
   active tenancy sets match;
2. **no acknowledged admission is lost**: every admit the client saw acked
   (net of acked releases) holds its bandwidth after recovery;
3. **no acknowledged release survives**: every release the client saw
   acked stays released;
4. every link occupancy ``O_L`` of the recovered state is ``< 1`` —
   recovery never resurrects load the admission test would refuse;
5. **no double-admit on retry**: resubmitting the in-flight (unacked)
   request with its original idempotency key — twice — converges on one
   decision.  If the crash fell *after* the journal append (the ack was
   lost, not the admission), the retry returns the journaled request id
   and allocates nothing new;
6. after the retries, the journal still oracle-replays to exactly the
   live state.

Failures are collected, not raised, so ``svc-repro chaos`` can report the
seed (every schedule is a pure function of it) for replay.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.experiments.config import SCALES
from repro.faults.failpoints import FAILPOINTS, InjectedCrash
from repro.faults.schedule import ChaosPlan
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.degrade import DegradationLadder
from repro.service.errors import DegradedError, ServiceError
from repro.service.journal import DurabilityStore
from repro.service.recovery import oracle_replay, recover_manager
from repro.stochastic import Normal
from repro.topology import build_datacenter

#: How long the harness waits for one decision before declaring the
#: service dead (the planted crashes resolve in milliseconds).
_DECISION_TIMEOUT_S = 5.0


def random_request(rng: random.Random):
    """One random tenant request (mirrors the recovery-test workload)."""
    kind = rng.randrange(3)
    n_vms = rng.randint(2, 9)
    if kind == 0:
        return DeterministicVC(n_vms=n_vms, bandwidth=rng.uniform(40, 200))
    if kind == 1:
        return HomogeneousSVC(
            n_vms=n_vms, mean=rng.uniform(40, 200), std=rng.uniform(5, 80)
        )
    return HeterogeneousSVC(
        n_vms=n_vms,
        demands=tuple(
            Normal(rng.uniform(40, 200), rng.uniform(5, 60)) for _ in range(n_vms)
        ),
    )


@dataclass
class ChaosResult:
    """Outcome of one schedule: the ledger plus every violated invariant."""

    seed: int
    plan: ChaosPlan
    crashed: bool = False
    operations_run: int = 0
    acked_admits: int = 0
    acked_releases: int = 0
    shed: int = 0
    degraded_hits: int = 0
    unacked_keys: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def describe(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "crashed": self.crashed,
            "operations_run": self.operations_run,
            "acked_admits": self.acked_admits,
            "acked_releases": self.acked_releases,
            "shed": self.shed,
            "degraded_hits": self.degraded_hits,
            "unacked_keys": self.unacked_keys,
            "failures": list(self.failures),
            "plan": self.plan.describe(),
        }


def run_chaos_schedule(
    seed: int,
    directory: Path,
    scale: str = "tiny",
    operations: int = 40,
    snapshot_every: int = 5,
) -> ChaosResult:
    """Run one seeded fault schedule end to end; see the module docstring."""
    plan = ChaosPlan.generate(seed, operations=operations)
    result = ChaosResult(seed=seed, plan=plan)
    rng = random.Random(seed ^ 0x5EED)
    tree = build_datacenter(SCALES[scale].spec)
    directory = Path(directory)

    # ---- phase 1: faulty workload -----------------------------------
    plan.arm(FAILPOINTS)
    store = DurabilityStore(directory, fsync=plan.fsync, snapshot_every=snapshot_every)
    service = AdmissionService(
        NetworkManager(tree),
        store=store,
        degradation=DegradationLadder(probe_interval=0.02),
    ).start()

    acked_active: Dict[str, int] = {}  # idempotency key -> request_id
    acked_released: List[int] = []
    unacked: Dict[str, Any] = {}  # in-flight submits when the service died
    try:
        for index in range(operations):
            if service.crashed or not service.running:
                result.crashed = service.crashed
                break
            result.operations_run = index + 1
            if acked_active and rng.random() < 0.3:
                key, request_id = rng.choice(sorted(acked_active.items()))
                try:
                    if service.release(request_id):
                        del acked_active[key]
                        acked_released.append(request_id)
                        result.acked_releases += 1
                except InjectedCrash:
                    # The crash fell inside the release: it may or may not
                    # have been journaled, so this tenancy's fate is
                    # indeterminate from the client's side — drop it from
                    # the acked ledger (neither invariant may assert it).
                    del acked_active[key]
                    result.crashed = True
                    break
                except DegradedError:
                    # Release shed or rolled back: the tenancy is still
                    # active and acknowledged as such.
                    result.degraded_hits += 1
                    time.sleep(0.03)
                except ServiceError:
                    result.shed += 1
            else:
                key = f"chaos-{seed}-{index}"
                request = random_request(rng)
                try:
                    ticket = service.submit(
                        request,
                        wait=True,
                        wait_timeout=_DECISION_TIMEOUT_S,
                        idempotency_key=key,
                    )
                except DegradedError:
                    result.degraded_hits += 1
                    time.sleep(0.03)
                    continue
                except ServiceError:
                    result.shed += 1
                    continue
                if not ticket.done:
                    unacked[key] = request
                    if service.crashed:
                        result.crashed = True
                    else:
                        result.fail(
                            f"submit of {key} hung >{_DECISION_TIMEOUT_S}s "
                            "without a crash"
                        )
                    break
                if ticket.outcome == OUTCOME_ADMITTED:
                    acked_active[key] = ticket.request_id
                    result.acked_admits += 1
    finally:
        service.kill()
        store.close()
        FAILPOINTS.clear()
    result.unacked_keys = len(unacked)

    # ---- phase 2: recover and referee against the oracle ------------
    store = DurabilityStore(directory, snapshot_every=snapshot_every)
    try:
        recovered, report = recover_manager(store, tree)
    except Exception as exc:
        result.fail(f"recovery raised {type(exc).__name__}: {exc}")
        store.close()
        return result
    try:
        oracle_state, oracle_active = oracle_replay(store.wal_path, tree)
    except Exception as exc:
        result.fail(f"oracle replay raised {type(exc).__name__}: {exc}")
        store.close()
        return result

    recovered_ids = sorted(t.request_id for t in recovered.tenancies())
    if network_state_to_dict(recovered.state) != network_state_to_dict(oracle_state):
        result.fail("recovered network state differs from oracle replay")
    if recovered_ids != sorted(oracle_active):
        result.fail(
            f"active tenancies diverge: recovered={recovered_ids} "
            f"oracle={sorted(oracle_active)}"
        )
    active_set = set(recovered_ids)
    for key, request_id in acked_active.items():
        if request_id not in active_set:
            result.fail(f"acked admission lost: {key} (request {request_id})")
    for request_id in acked_released:
        if request_id in active_set:
            result.fail(f"acked release resurrected: request {request_id}")
    max_occupancy = recovered.max_occupancy()
    if not max_occupancy < 1.0:
        result.fail(f"recovered occupancy violates O_L < 1: {max_occupancy}")

    # ---- phase 3: retry the in-flight request — no double-admit -----
    service = AdmissionService(
        recovered,
        store=store,
        degradation=DegradationLadder(probe_interval=0.02),
        idempotency_index=report.idempotency_index,
    ).start()
    try:
        for key, request in unacked.items():
            journaled = report.idempotency_index.get(key)
            active_before = recovered.active_tenancies
            first = service.submit(
                request, wait=True, wait_timeout=_DECISION_TIMEOUT_S,
                idempotency_key=key,
            )
            second = service.submit(
                request, wait=True, wait_timeout=_DECISION_TIMEOUT_S,
                idempotency_key=key,
            )
            if not (first.done and second.done):
                result.fail(f"retry of {key} did not decide")
                continue
            if (first.outcome, first.request_id) != (second.outcome, second.request_id):
                result.fail(
                    f"retries of {key} diverged: "
                    f"{first.outcome}/{first.request_id} vs "
                    f"{second.outcome}/{second.request_id}"
                )
            if journaled is not None:
                # Journaled-but-unacked: only the ack was lost.  The retry
                # must return the journaled decision and allocate nothing.
                if first.outcome != journaled["outcome"]:
                    result.fail(
                        f"retry of journaled {key} returned {first.outcome}, "
                        f"journal says {journaled['outcome']}"
                    )
                if (
                    journaled["outcome"] == OUTCOME_ADMITTED
                    and first.request_id != journaled["request_id"]
                ):
                    result.fail(
                        f"retry of {key} got request {first.request_id}, "
                        f"journal holds {journaled['request_id']}"
                    )
                if recovered.active_tenancies != active_before:
                    result.fail(f"retry of journaled {key} double-admitted")
            elif first.outcome == OUTCOME_ADMITTED and (
                recovered.active_tenancies != active_before + 1
            ):
                result.fail(f"fresh retry of {key} admitted more than once")
    finally:
        service.stop()
        store.close()

    # ---- phase 4: the extended journal must still oracle-replay -----
    try:
        final_state, final_active = oracle_replay(
            (directory / "wal.jsonl"), tree
        )
    except Exception as exc:
        result.fail(f"post-retry oracle replay raised {type(exc).__name__}: {exc}")
        return result
    if network_state_to_dict(final_state) != network_state_to_dict(recovered.state):
        result.fail("post-retry state differs from oracle replay")
    if sorted(final_active) != sorted(t.request_id for t in recovered.tenancies()):
        result.fail("post-retry active set differs from oracle replay")
    return result


def run_chaos_suite(
    schedules: int,
    base_seed: int,
    workdir: Path,
    scale: str = "tiny",
    operations: int = 40,
    stop_on_failure: bool = False,
    progress=None,
) -> List[ChaosResult]:
    """Run ``schedules`` consecutive seeds; returns every result."""
    results: List[ChaosResult] = []
    workdir = Path(workdir)
    for index in range(schedules):
        seed = base_seed + index
        result = run_chaos_schedule(
            seed, workdir / f"schedule-{seed}", scale=scale, operations=operations
        )
        results.append(result)
        if progress is not None:
            progress(result)
        if stop_on_failure and not result.ok:
            break
    return results
