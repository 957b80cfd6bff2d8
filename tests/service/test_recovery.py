"""Snapshot -> journal -> recovery round-trips under randomized crashes.

The protocol of every test: drive a journaled service through a randomized
admit/release sequence, "crash" by truncating the WAL at an arbitrary byte
position (simulating a torn final write), recover, and compare the
recovered :class:`NetworkState` field-for-field against a *never-crashed
replica* — a fresh manager that re-executes exactly the logical operations
recorded in the surviving journal prefix.  Occupancies, per-link resident
demands, free slots and the active tenancy set must all match.
"""

import shutil

import numpy as np
import pytest

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict, request_from_dict
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.journal import DurabilityStore, Journal, OP_ADMIT, OP_REJECT, OP_RELEASE
from repro.service.recovery import oracle_replay, recover_manager
from repro.stochastic import Normal


def random_request(rng: np.random.Generator):
    kind = rng.integers(0, 3)
    n_vms = int(rng.integers(2, 10))
    if kind == 0:
        return DeterministicVC(n_vms=n_vms, bandwidth=float(rng.uniform(40, 200)))
    if kind == 1:
        return HomogeneousSVC(
            n_vms=n_vms,
            mean=float(rng.uniform(40, 200)),
            std=float(rng.uniform(5, 80)),
        )
    return HeterogeneousSVC(
        n_vms=n_vms,
        demands=tuple(
            Normal(float(rng.uniform(40, 200)), float(rng.uniform(5, 60)))
            for _ in range(n_vms)
        ),
    )


def run_journaled_workload(tree, directory, seed, operations=60, snapshot_every=7):
    """Sequentially admit/release random requests through a journaled service."""
    rng = np.random.default_rng(seed)
    store = DurabilityStore(directory, snapshot_every=snapshot_every)
    manager = NetworkManager(tree)
    with AdmissionService(manager, store=store) as service:
        active = []
        for _ in range(operations):
            if active and rng.random() < 0.35:
                victim = active.pop(int(rng.integers(0, len(active))))
                assert service.release(victim)
            else:
                ticket = service.submit(random_request(rng), wait=True)
                if ticket.outcome == OUTCOME_ADMITTED:
                    active.append(ticket.request_id)
    store.close()
    return manager


def replay_replica(tree, wal_path):
    """The never-crashed replica: re-execute the journaled logical ops.

    Each ``admit``/``reject`` record is re-run through a *fresh* manager's
    real admission path (allocator included), each ``release`` through its
    release path.  Admission control is deterministic given identical
    history, so the replica must reproduce the journaled allocations —
    asserted record by record — and end in the same state the journal
    encodes.
    """
    manager = NetworkManager(tree)
    for record in Journal.iter_records(wal_path):
        if record["op"] == OP_ADMIT:
            allocation = record["allocation"]
            tenancy = manager.request(request_from_dict(allocation["request"]))
            assert tenancy is not None, f"replica rejected journaled admit {record['seq']}"
            assert tenancy.request_id == allocation["request_id"]
        elif record["op"] == OP_REJECT:
            assert manager.request(request_from_dict(record["request"])) is None
        elif record["op"] == OP_RELEASE:
            manager.release(manager.tenancy(record["request_id"]))
    return manager


def crash_copy(source_dir, destination, wal_bytes):
    """Copy the durability directory and truncate its WAL at a byte offset."""
    shutil.copytree(source_dir, destination)
    wal = destination / "wal.jsonl"
    with open(wal, "r+b") as handle:
        handle.truncate(wal_bytes)
    return destination


def assert_state_matches(recovered: NetworkManager, replica: NetworkManager):
    assert network_state_to_dict(recovered.state) == network_state_to_dict(replica.state)
    assert sorted(t.request_id for t in recovered.tenancies()) == sorted(
        t.request_id for t in replica.tenancies()
    )
    assert recovered.active_tenancies == replica.active_tenancies
    for link_id, occupancy in replica.state.occupancies():
        # The replica's incremental aggregates carry ~1e-10 float residue
        # from its commit/release history; recovery re-commits only the
        # active allocations and is exact.
        assert recovered.state.occupancy_of(link_id) == pytest.approx(occupancy, abs=1e-6)
    assert recovered.admitted_count == replica.admitted_count
    assert recovered.rejected_count == replica.rejected_count


class TestCleanRecovery:
    def test_full_journal_recovery_matches_live_manager(self, tiny_tree, tmp_path):
        live = run_journaled_workload(tiny_tree, tmp_path / "j", seed=1)
        store = DurabilityStore(tmp_path / "j")
        recovered, report = recover_manager(store, tiny_tree)
        store.close()
        assert report.used_snapshot  # snapshot_every=7 over 60 ops
        assert_state_matches(recovered, live)
        assert recovered.next_request_id == live.next_request_id

    def test_recovery_without_snapshots_replays_whole_journal(self, tiny_tree, tmp_path):
        live = run_journaled_workload(
            tiny_tree, tmp_path / "j", seed=2, snapshot_every=10_000
        )
        store = DurabilityStore(tmp_path / "j")
        recovered, report = recover_manager(store, tiny_tree)
        store.close()
        assert not report.used_snapshot
        assert report.replayed_records > 0
        assert_state_matches(recovered, live)

    def test_recovered_manager_keeps_serving(self, tiny_tree, tmp_path):
        run_journaled_workload(tiny_tree, tmp_path / "j", seed=3, operations=30)
        store = DurabilityStore(tmp_path / "j")
        recovered, _ = recover_manager(store, tiny_tree)
        with AdmissionService(recovered, store=store) as service:
            ticket = service.submit(HomogeneousSVC(n_vms=2, mean=50.0, std=10.0))
            assert ticket.outcome == OUTCOME_ADMITTED
        store.close()
        # The continued journal must still replay cleanly end to end.
        state, active = oracle_replay((tmp_path / "j") / "wal.jsonl", tiny_tree)
        assert network_state_to_dict(state) == network_state_to_dict(recovered.state)
        assert sorted(active) == sorted(t.request_id for t in recovered.tenancies())


class TestCrashAtArbitraryPositions:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_byte_level_crash_points(self, tiny_tree, tmp_path, seed):
        source = tmp_path / "source"
        run_journaled_workload(tiny_tree, source, seed=seed)
        wal_size = (source / "wal.jsonl").stat().st_size
        rng = np.random.default_rng(seed + 1000)
        offsets = sorted(
            {int(offset) for offset in rng.integers(1, wal_size, size=6)}
            | {wal_size, wal_size - 1}
        )
        for index, offset in enumerate(offsets):
            crashed = crash_copy(source, tmp_path / f"crash-{index}", wal_bytes=offset)
            store = DurabilityStore(crashed)
            recovered, _report = recover_manager(store, tiny_tree)
            store.close()
            replica = replay_replica(tiny_tree, crashed / "wal.jsonl")
            assert_state_matches(recovered, replica)

    def test_crash_on_record_boundaries(self, tiny_tree, tmp_path):
        source = tmp_path / "source"
        run_journaled_workload(tiny_tree, source, seed=21, operations=40)
        wal = source / "wal.jsonl"
        boundaries = []
        offset = 0
        with open(wal, "rb") as handle:
            for line in handle:
                offset += len(line)
                boundaries.append(offset)
        for index, offset in enumerate(boundaries[:: max(1, len(boundaries) // 8)]):
            crashed = crash_copy(source, tmp_path / f"boundary-{index}", wal_bytes=offset)
            store = DurabilityStore(crashed)
            recovered, _report = recover_manager(store, tiny_tree)
            store.close()
            replica = replay_replica(tiny_tree, crashed / "wal.jsonl")
            assert_state_matches(recovered, replica)

    def test_future_snapshot_is_distrusted_after_tail_loss(self, tiny_tree, tmp_path):
        """A snapshot covering lost WAL records must not resurrect them."""
        source = tmp_path / "source"
        run_journaled_workload(tiny_tree, source, seed=31, snapshot_every=3)
        # Truncate the WAL to half its records but keep every snapshot file.
        records = Journal.replay(source / "wal.jsonl")
        keep = len(records) // 2
        offset = 0
        with open(source / "wal.jsonl", "rb") as handle:
            for _ in range(keep):
                offset += len(handle.readline())
        crashed = crash_copy(source, tmp_path / "crash", wal_bytes=offset)
        store = DurabilityStore(crashed)
        recovered, report = recover_manager(store, tiny_tree)
        store.close()
        assert report.snapshot_seq <= keep
        replica = replay_replica(tiny_tree, crashed / "wal.jsonl")
        assert_state_matches(recovered, replica)


class TestOracleReplay:
    def test_oracle_agrees_with_recover_manager(self, tiny_tree, tmp_path):
        run_journaled_workload(tiny_tree, tmp_path / "j", seed=41)
        store = DurabilityStore(tmp_path / "j")
        recovered, _ = recover_manager(store, tiny_tree)
        store.close()
        state, active = oracle_replay((tmp_path / "j") / "wal.jsonl", tiny_tree)
        assert network_state_to_dict(state) == network_state_to_dict(recovered.state)
        assert sorted(active) == sorted(t.request_id for t in recovered.tenancies())


class TestIdempotencyIndexRebuild:
    """Keys are scanned over the WHOLE journal, not the post-snapshot
    suffix — a key whose tenancy was released before the last snapshot
    must still deduplicate after recovery (satellite of the cluster PR:
    the coordinator trusts this index for shard-side dedup)."""

    def test_index_survives_snapshot_and_seeds_dedup(self, tiny_tree, tmp_path):
        directory = tmp_path / "j"
        store = DurabilityStore(directory, snapshot_every=2)
        manager = NetworkManager(tiny_tree)
        admitted = {}
        with AdmissionService(manager, store=store) as service:
            for index in range(4):
                ticket = service.submit(
                    HomogeneousSVC(n_vms=2, mean=40.0, std=8.0),
                    wait=True,
                    idempotency_key=f"key-{index}",
                )
                assert ticket.outcome == OUTCOME_ADMITTED
                admitted[f"key-{index}"] = ticket.request_id
            reject = service.submit(
                HomogeneousSVC(n_vms=10_000, mean=1.0, std=0.1),
                wait=True,
                idempotency_key="key-reject",
            )
            assert reject.outcome != OUTCOME_ADMITTED
            # Release one tenant, then keep admitting so later snapshots
            # no longer carry key-0's allocation.
            assert service.release(admitted["key-0"])
            for index in range(4, 8):
                ticket = service.submit(
                    HomogeneousSVC(n_vms=2, mean=40.0, std=8.0),
                    wait=True,
                    idempotency_key=f"key-{index}",
                )
                assert ticket.outcome == OUTCOME_ADMITTED
                admitted[f"key-{index}"] = ticket.request_id
        store.close()

        store = DurabilityStore(directory)
        recovered, report = recover_manager(store, tiny_tree)
        assert report.used_snapshot  # snapshot_every=2 guarantees several
        for key, request_id in admitted.items():
            assert report.idempotency_index[key] == {
                "outcome": "admitted",
                "request_id": request_id,
            }
        assert report.idempotency_index["key-reject"] == {
            "outcome": "rejected",
            "request_id": None,
        }

        active_before = recovered.active_tenancies
        with AdmissionService(
            recovered,
            store=store,
            idempotency_index=report.idempotency_index,
        ) as service:
            for key in ("key-0", "key-3", "key-reject"):
                replay = service.submit(
                    HomogeneousSVC(n_vms=2, mean=40.0, std=8.0),
                    wait=True,
                    idempotency_key=key,
                )
                expected = report.idempotency_index[key]
                assert replay.outcome == expected["outcome"]
                assert replay.request_id == expected["request_id"]
            # Every replay deduplicated: nothing new was admitted.
            assert recovered.active_tenancies == active_before
            assert service.counters.deduped == 3
        store.close()
