"""Coordinator: routing, two-phase cross-shard admits, WAL recovery.

The anchor test here is :class:`TestSingleShardEquivalence` — with K=1 the
coordinator must produce bit-identical decisions (and an identical final
``NetworkState``) to a plain :class:`AdmissionService` over the same tree,
which is what makes the cluster layer a safe drop-in above the existing
single-node stack.
"""

import random
import threading

import pytest

from repro.abstractions import HomogeneousSVC
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorError
from repro.cluster.partition import ClusterPartition
from repro.cluster.shard import LocalShard
from repro.faults.failpoints import FAILPOINTS, FP_JOURNAL_WRITE
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import AdmissionService
from repro.topology.builder import TINY_SPEC, build_datacenter


def small_request(n_vms=3, mean=40.0, std=8.0):
    return HomogeneousSVC(n_vms=n_vms, mean=mean, std=std)


def build_cluster(num_shards, directory=None, **kwargs):
    partition = ClusterPartition.build(TINY_SPEC, num_shards)
    shards = [
        LocalShard(
            view,
            None if directory is None else directory / f"shard{view.shard_index}",
        )
        for view in partition.shards
    ]
    coordinator = ClusterCoordinator(
        partition,
        shards,
        directory=None if directory is None else directory / "coordinator",
        **kwargs,
    )
    return partition, shards, coordinator


def shutdown(coordinator, shards):
    coordinator.stop()
    for shard in shards:
        shard.close()


class TestLocalPath:
    def test_admit_then_release_leaves_clean_state(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            decision = coordinator.submit(small_request())
            assert decision["outcome"] == "admitted"
            assert decision["route"] == "local"
            gid = decision["request_id"]
            assert coordinator.active_tenancies == 1
            assert coordinator.fragments_of(gid) is not None
            assert coordinator.release(gid)
            assert not coordinator.release(gid)
            assert coordinator.active_tenancies == 0
            assert coordinator.replica.state.total_free_slots == (
                coordinator.replica.state.total_slots
            )
            for shard in shards:
                assert shard.stats()["active_tenancies"] == 0
        finally:
            shutdown(coordinator, shards)

    def test_idempotency_key_dedups(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            first = coordinator.submit(small_request(), idempotency_key="k1")
            again = coordinator.submit(small_request(), idempotency_key="k1")
            assert again["deduped"] is True
            assert again["request_id"] == first["request_id"]
            assert coordinator.active_tenancies == 1
        finally:
            shutdown(coordinator, shards)

    def test_oversize_request_rejected(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            total = coordinator.replica.state.total_slots
            decision = coordinator.submit(small_request(n_vms=total + 1, mean=1.0))
            assert decision["outcome"] == "rejected"
            assert decision["route"] == "reject"
            assert coordinator.active_tenancies == 0
        finally:
            shutdown(coordinator, shards)


class TestCrossShardTwoPhase:
    def test_large_tenant_spans_both_shards(self):
        # Each TINY shard holds 32 slots; 40 VMs force fragmentation.
        partition, shards, coordinator = build_cluster(2)
        try:
            decision = coordinator.submit(
                small_request(n_vms=40, mean=8.0, std=2.0)
            )
            assert decision["outcome"] == "admitted"
            assert decision["route"] in ("cross_shard", "spill")
            gid = decision["request_id"]
            fragments = coordinator.fragments_of(gid)
            assert sorted(fragments) == [0, 1]
            # Both shard journals carry their fragment as an active tenancy.
            assert all(
                shard.stats()["active_tenancies"] == 1 for shard in shards
            )
            # The ledger carries the committed core footprint...
            assert coordinator.ledger.is_committed(gid)
            assert 0.0 < coordinator.ledger.max_occupancy() < 1.0
            assert coordinator.ledger.pending_reservations == 0
            # ...and release drains every fragment plus the ledger entry.
            assert coordinator.release(gid)
            assert not coordinator.ledger.is_committed(gid)
            assert coordinator.ledger.max_occupancy() == 0.0
            assert all(
                shard.stats()["active_tenancies"] == 0 for shard in shards
            )
        finally:
            shutdown(coordinator, shards)


class TestWalFailures:
    def test_radmit_wal_failure_rolls_back_the_shard(self, tmp_path):
        partition = ClusterPartition.build(TINY_SPEC, 2)
        # In-memory shards: the only Journal in play is the coordinator WAL.
        shards = [LocalShard(view, None) for view in partition.shards]
        coordinator = ClusterCoordinator(partition, shards, directory=tmp_path)
        try:
            # Append #1 is the local intent, #2 its committed outcome (the
            # record once called radmit): fail the outcome.
            FAILPOINTS.arm(FP_JOURNAL_WRITE, "error", every=2)
            with pytest.raises(CoordinatorError, match="rolled back"):
                coordinator.submit(small_request(), idempotency_key="k1")
            assert coordinator.active_tenancies == 0
            assert all(
                shard.stats()["active_tenancies"] == 0 for shard in shards
            )
            # The retry with the same key converges on a clean admission.
            FAILPOINTS.clear()
            decision = coordinator.submit(small_request(), idempotency_key="k1")
            assert decision["outcome"] == "admitted"
            assert decision.get("deduped") is None
        finally:
            shutdown(coordinator, shards)


class _StallingShard(LocalShard):
    """A shard that frees capacity, then stalls before answering.

    ``release`` and ``resize`` run to completion at the shard, signal
    ``freed`` and block until ``proceed`` is set — the window in which a
    concurrent submit can take the freed slots at the shard while the
    coordinator has not yet heard back.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.freed = threading.Event()
        self.proceed = threading.Event()

    def _stall(self):
        self.freed.set()
        assert self.proceed.wait(10.0)

    def release(self, request_id):
        released = super().release(request_id)
        self._stall()
        return released

    def resize(self, request_id, **kwargs):
        decision = super().resize(request_id, **kwargs)
        self._stall()
        return decision


class TestMirrorOrder:
    """The replica never holds capacity its shard has already freed."""

    @staticmethod
    def _full_cluster():
        partition = ClusterPartition.build(TINY_SPEC, 2)
        shards = [_StallingShard(view, None) for view in partition.shards]
        coordinator = ClusterCoordinator(partition, shards)
        # One shard-sized tenant per shard: both shards are full.
        filler = small_request(n_vms=32, mean=1.0, std=0.5)
        gids = [coordinator.submit(filler)["request_id"] for _ in shards]
        assert [sorted(coordinator.fragments_of(gid)) for gid in gids] == [[0], [1]]
        return shards, coordinator, gids

    @staticmethod
    def _race(shards, coordinator, operation, n_vms):
        """Run ``operation`` in a thread; submit into the slots it frees."""
        outcome = {}
        worker = threading.Thread(
            target=lambda: outcome.setdefault("result", operation())
        )
        worker.start()
        try:
            assert shards[0].freed.wait(10.0)
            decision = coordinator.submit(
                small_request(n_vms=n_vms, mean=1.0, std=0.5)
            )
        finally:
            shards[0].proceed.set()
            worker.join(10.0)
        return decision, outcome.get("result")

    @staticmethod
    def _assert_coherent(shards, coordinator):
        live = sum(shard.stats()["active_tenancies"] for shard in shards)
        fragments = sum(
            len(coordinator.fragments_of(gid)) for gid in list(coordinator._gid_map)
        )
        assert live == fragments
        for shard in shards:
            assert coordinator.shard_free_slots(shard.index) == (
                shard.stats()["free_slots"]
            )

    def test_submit_during_release_lands_in_the_freed_slots(self):
        shards, coordinator, gids = self._full_cluster()
        try:
            decision, released = self._race(
                shards, coordinator, lambda: coordinator.release(gids[0]), 32
            )
            assert released is True
            assert decision["outcome"] == "admitted"
            assert coordinator.fragments_of(decision["request_id"]) is not None
            assert coordinator.active_tenancies == 2
            self._assert_coherent(shards, coordinator)
        finally:
            shutdown(coordinator, shards)

    def test_submit_during_resize_shrink_lands_in_the_freed_slots(self):
        shards, coordinator, gids = self._full_cluster()
        try:
            decision, resized = self._race(
                shards, coordinator,
                lambda: coordinator.resize(gids[0], new_n=16), 16,
            )
            assert resized["outcome"] in ("in_place", "replaced")
            assert decision["outcome"] == "admitted"
            assert coordinator.active_tenancies == 3
            assert coordinator.replica.get_tenancy(gids[0]).n_vms == 16
            self._assert_coherent(shards, coordinator)
        finally:
            shutdown(coordinator, shards)


class TestRecovery:
    def test_round_trip_restores_admissions_and_dedup(self, tmp_path):
        partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        decisions = {}
        try:
            decisions["a"] = coordinator.submit(
                small_request(), idempotency_key="a"
            )
            decisions["big"] = coordinator.submit(
                small_request(n_vms=40, mean=8.0, std=2.0), idempotency_key="big"
            )
            decisions["reject"] = coordinator.submit(
                small_request(n_vms=500, mean=1.0), idempotency_key="reject"
            )
            assert decisions["a"]["outcome"] == "admitted"
            assert decisions["big"]["outcome"] == "admitted"
            assert decisions["reject"]["outcome"] == "rejected"
            fragments_before = {
                key: coordinator.fragments_of(decisions[key]["request_id"])
                for key in ("a", "big")
            }
        finally:
            coordinator.kill()
            for shard in shards:
                shard.close()

        # Restart shards first (daemons come back independently), then the
        # coordinator, which reconciles its WAL against the live shards.
        shards = [
            LocalShard(view, tmp_path / f"shard{view.shard_index}")
            for view in partition.shards
        ]
        coordinator = ClusterCoordinator(
            partition, shards, directory=tmp_path / "coordinator"
        )
        try:
            assert coordinator.active_tenancies == 2
            for key in ("a", "big"):
                gid = decisions[key]["request_id"]
                assert coordinator.fragments_of(gid) == fragments_before[key]
            assert coordinator.ledger.is_committed(decisions["big"]["request_id"])
            # Dedup survives the restart for every keyed decision.
            for key in ("a", "big", "reject"):
                replay = coordinator.submit(
                    small_request(), idempotency_key=key
                )
                assert replay["deduped"] is True
                assert replay["outcome"] == decisions[key]["outcome"]
                assert replay["request_id"] == decisions[key]["request_id"]
            # Releases still work on recovered tenancies.
            assert coordinator.release(decisions["big"]["request_id"])
            assert coordinator.active_tenancies == 1
            assert coordinator.ledger.max_occupancy() == 0.0
        finally:
            shutdown(coordinator, shards)


class TestSingleShardEquivalence:
    """Acceptance: K=1 decisions are bit-identical to the direct service."""

    @staticmethod
    def _trace(seed, count):
        rng = random.Random(seed)
        ops = []
        active = []
        for index in range(count):
            if active and rng.random() < 0.3:
                victim = active.pop(rng.randrange(len(active)))
                ops.append(("release", victim))
                continue
            request = HomogeneousSVC(
                n_vms=rng.randint(2, 10),
                mean=rng.uniform(20.0, 120.0),
                std=rng.uniform(2.0, 40.0),
            )
            ops.append(("submit", request))
            active.append(index + 1)  # both sides burn one id per submit
        return ops

    def test_decisions_and_state_match_direct_service(self):
        ops = self._trace(seed=7, count=60)

        _partition, shards, coordinator = build_cluster(1)
        cluster_log = []
        try:
            for op, payload in ops:
                if op == "submit":
                    decision = coordinator.submit(payload)
                    # Rejects carry the coordinator's burned gid; the direct
                    # ticket reports None there — only admitted ids must match.
                    cluster_log.append(
                        (
                            decision["outcome"],
                            decision["request_id"]
                            if decision["outcome"] == "admitted"
                            else None,
                        )
                    )
                else:
                    coordinator.release(payload)
            cluster_state = network_state_to_dict(coordinator.replica.state)
            cluster_active = coordinator.active_tenancies
        finally:
            shutdown(coordinator, shards)

        manager = NetworkManager(build_datacenter(TINY_SPEC), epsilon=0.05)
        service = AdmissionService(manager).start()
        direct_log = []
        try:
            for op, payload in ops:
                if op == "submit":
                    ticket = service.submit(payload, wait=True, wait_timeout=30.0)
                    assert ticket.done
                    direct_log.append((ticket.outcome, ticket.request_id))
                else:
                    service.release(payload)
            direct_state = network_state_to_dict(manager.state)
            direct_active = manager.active_tenancies
        finally:
            service.stop()

        assert cluster_log == direct_log
        assert cluster_active == direct_active
        assert cluster_state == direct_state
