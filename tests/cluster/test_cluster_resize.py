"""Cluster resize: shard routing, two-phase deltas, crash reconciliation.

The crash tests bracket the coordinator's resize WAL protocol (a
``resize`` intent -> shard resize -> its outcome record):

* crash **before** the intent record — the shard was never asked, so
  recovery comes back at the old size;
* crash **after** the outcome record — the decision is durable, recovery
  comes back at the new size;
* crash **between** (the shard journaled its resize, the coordinator's
  outcome record is missing) — recovery resolves the open intent against the
  shard's idempotency table and rolls forward.

In every case the coordinator's replica and the owning shard agree on the
tenant's size — no tenant is ever half-sized.
"""

import pytest

from repro.abstractions import HomogeneousSVC
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import ClusterPartition
from repro.cluster.shard import LocalShard
from repro.faults.failpoints import (
    FAILPOINTS,
    FP_COORD_RESIZE_AFTER_WAL,
    FP_COORD_RESIZE_BEFORE_WAL,
    FP_RESIZE_AFTER_JOURNAL,
    MODE_CRASH,
    InjectedCrash,
)
from repro.topology.builder import TINY_SPEC


def small_request(n_vms=4, mean=40.0, std=8.0):
    return HomogeneousSVC(n_vms=n_vms, mean=mean, std=std)


def build_cluster(num_shards, directory=None):
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
    )
    return partition, shards, coordinator


def shutdown(coordinator, shards):
    coordinator.stop()
    for shard in shards:
        shard.close()


def shard_sizes(shards):
    """``{local request_id: n_vms}`` of every live shard tenancy."""
    sizes = {}
    for shard in shards:
        for tenancy in shard.manager.tenancies():
            sizes[(shard.view.shard_index, tenancy.request_id)] = tenancy.n_vms
    return sizes


def assert_never_half_sized(coordinator, shards, gid, expected_n):
    """Coordinator replica and owning shard agree on one exact size."""
    replica_tenancy = coordinator.replica.get_tenancy(gid)
    assert replica_tenancy is not None
    assert replica_tenancy.n_vms == expected_n
    allocation = coordinator.allocation_of(gid)
    assert allocation.request.n_vms == expected_n
    assert sum(allocation.machine_counts.values()) == expected_n
    live = list(shard_sizes(shards).values())
    assert live == [expected_n]


class TestClusterResize:
    def test_grow_then_shrink_roundtrip(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            gid = coordinator.submit(small_request())["request_id"]
            grown = coordinator.resize(gid, new_n=10)
            assert grown["outcome"] in ("in_place", "replaced")
            assert grown["route"] == "local"
            assert_never_half_sized(coordinator, shards, gid, 10)

            shrunk = coordinator.resize(gid, new_n=2)
            assert shrunk["outcome"] in ("in_place", "replaced")
            assert_never_half_sized(coordinator, shards, gid, 2)

            assert coordinator.ledger.pending_reservations == 0
            assert sum(coordinator.stats()["resizes"].values()) == 2
            assert coordinator.release(gid)
        finally:
            shutdown(coordinator, shards)

    def test_unknown_gid(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            decision = coordinator.resize(999, new_n=2)
            assert decision["outcome"] == "unknown"
        finally:
            shutdown(coordinator, shards)

    def test_cross_shard_tenancy_rejected(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            decision = coordinator.submit(small_request(n_vms=40, mean=8.0, std=2.0))
            assert decision["outcome"] == "admitted"
            gid = decision["request_id"]
            sizes_before = shard_sizes(shards)
            denied = coordinator.resize(gid, new_n=44)
            assert denied["outcome"] == "rejected"
            assert "multiple shards" in denied["detail"]
            assert shard_sizes(shards) == sizes_before
            assert coordinator.stats()["resizes"]["rejected"] == 1
        finally:
            shutdown(coordinator, shards)

    def test_idempotent_retry_dedups(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            gid = coordinator.submit(small_request())["request_id"]
            first = coordinator.resize(gid, new_n=6, idempotency_key="rs")
            again = coordinator.resize(gid, new_n=6, idempotency_key="rs")
            assert again["deduped"] is True
            assert again["outcome"] == first["outcome"]
            assert sum(coordinator.resize_counts.values()) == 1
            assert_never_half_sized(coordinator, shards, gid, 6)
        finally:
            shutdown(coordinator, shards)

    def test_rejected_resize_leaves_admission_stats_alone(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            gid = coordinator.submit(small_request())["request_id"]
            before = coordinator.stats()
            total = coordinator.replica.state.total_slots
            denied = coordinator.resize(gid, new_n=total + 1)
            assert denied["outcome"] == "rejected"
            after = coordinator.stats()
            assert after["admitted_total"] == before["admitted_total"]
            assert after["rejected_total"] == before["rejected_total"]
            assert after["resizes"]["rejected"] == 1
        finally:
            shutdown(coordinator, shards)


class TestClusterResizeRecovery:
    def restart(self, partition, directory):
        shards = [
            LocalShard(view, directory / f"shard{view.shard_index}")
            for view in partition.shards
        ]
        coordinator = ClusterCoordinator(
            partition, shards, directory=directory / "coordinator"
        )
        return shards, coordinator

    def crash_cluster(self, coordinator, shards):
        coordinator.kill()
        for shard in shards:
            shard.close()
        FAILPOINTS.clear()

    def test_clean_restart_preserves_resize(self, tmp_path):
        partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        try:
            gid = coordinator.submit(small_request())["request_id"]
            coordinator.resize(gid, new_n=9, idempotency_key="rs")
        finally:
            self.crash_cluster(coordinator, shards)

        shards, coordinator = self.restart(partition, tmp_path)
        try:
            assert_never_half_sized(coordinator, shards, gid, 9)
            assert sum(coordinator.resize_counts.values()) == 1
            again = coordinator.resize(gid, new_n=9, idempotency_key="rs")
            assert again["deduped"] is True
        finally:
            shutdown(coordinator, shards)

    def test_crash_before_intent_recovers_old_size(self, tmp_path):
        partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        try:
            gid = coordinator.submit(small_request(n_vms=4))["request_id"]
            FAILPOINTS.arm(FP_COORD_RESIZE_BEFORE_WAL, MODE_CRASH, max_hits=1)
            with pytest.raises(InjectedCrash):
                coordinator.resize(gid, new_n=9)
        finally:
            self.crash_cluster(coordinator, shards)

        shards, coordinator = self.restart(partition, tmp_path)
        try:
            # The shard was never asked: the old size is the only size.
            assert_never_half_sized(coordinator, shards, gid, 4)
            assert sum(coordinator.resize_counts.values()) == 0
        finally:
            shutdown(coordinator, shards)

    def test_crash_after_done_recovers_new_size(self, tmp_path):
        partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        try:
            gid = coordinator.submit(small_request(n_vms=4))["request_id"]
            FAILPOINTS.arm(FP_COORD_RESIZE_AFTER_WAL, MODE_CRASH, max_hits=1)
            with pytest.raises(InjectedCrash):
                coordinator.resize(gid, new_n=9)
        finally:
            self.crash_cluster(coordinator, shards)

        shards, coordinator = self.restart(partition, tmp_path)
        try:
            # The outcome record hit the WAL before the crash: durable.
            assert_never_half_sized(coordinator, shards, gid, 9)
            assert sum(coordinator.resize_counts.values()) == 1
        finally:
            shutdown(coordinator, shards)

    def test_crash_between_intent_and_done_rolls_forward(self, tmp_path):
        partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        try:
            gid = coordinator.submit(small_request(n_vms=4))["request_id"]
            # Crash inside the *shard's* resize, after its own journal
            # append: the shard remembers the resize, the coordinator WAL
            # holds only the open intent.
            FAILPOINTS.arm(FP_RESIZE_AFTER_JOURNAL, MODE_CRASH, max_hits=1)
            with pytest.raises(InjectedCrash):
                coordinator.resize(gid, new_n=9)
        finally:
            self.crash_cluster(coordinator, shards)

        shards, coordinator = self.restart(partition, tmp_path)
        try:
            # Open-intent resolution asks the shard (authoritative) and
            # rolls the acked resize forward.
            assert_never_half_sized(coordinator, shards, gid, 9)
            assert sum(coordinator.resize_counts.values()) == 1
            assert coordinator.release(gid)
        finally:
            shutdown(coordinator, shards)
