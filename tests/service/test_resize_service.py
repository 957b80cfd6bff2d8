"""The ``resize`` service operation: decisions, idempotency, stats, replay.

The stats tests pin the misattribution regression: resize outcomes have
their own tallies (``resized`` / ``resize_rejected`` counters plus the
manager's per-outcome counts) and must never leak into the admission
counters, ``rejection_rate``, or ``rejections_by_allocator``.
"""

from repro.abstractions import HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.journal import DurabilityStore, OP_RESIZE
from repro.service.recovery import recover_manager


def admitted_service(tree, store=None):
    manager = NetworkManager(tree)
    service = AdmissionService(manager, store=store)
    service.start()
    ticket = service.submit(HomogeneousSVC(n_vms=4, mean=50.0, std=10.0), wait=True)
    assert ticket.outcome == OUTCOME_ADMITTED
    return manager, service, ticket.request_id


class TestServiceResize:
    def test_resize_decision_payload(self, tiny_tree):
        manager, service, rid = admitted_service(tiny_tree)
        with service:
            decision = service.resize(rid, new_n=6)
            assert decision["outcome"] in ("in_place", "replaced")
            assert decision["request_id"] == rid
            assert decision["n_vms"] == 6
            assert manager.tenancy(rid).n_vms == 6

    def test_unknown_request_id(self, tiny_tree):
        manager, service, rid = admitted_service(tiny_tree)
        with service:
            decision = service.resize(rid + 100, new_n=6)
            assert decision["outcome"] == "unknown"
            assert manager.tenancy(rid).n_vms == 4

    def test_idempotent_retry_is_deduplicated(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        manager, service, rid = admitted_service(tiny_tree, store=store)
        with service:
            first = service.resize(rid, new_n=7, idempotency_key="rs-1")
            assert first["n_vms"] == 7
            again = service.resize(rid, new_n=7, idempotency_key="rs-1")
            assert again["outcome"] == first["outcome"]
            assert "deduplicated" in again["detail"]
            # The retry resized nothing and journaled nothing new.
            assert manager.tenancy(rid).n_vms == 7
            assert service.counters.as_dict()["deduped"] == 1
            assert sum(manager.resize_counts.values()) == 1
        store.close()

    def test_accepted_shrink_requeues_parked_batch_requests(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        with AdmissionService(manager, mode="batch") as service:
            blockers = []
            while True:
                ticket = service.submit(
                    HomogeneousSVC(n_vms=16, mean=150.0, std=50.0),
                    timeout_s=30.0,
                    wait_timeout=2.0,
                )
                if ticket.done and ticket.outcome == OUTCOME_ADMITTED:
                    blockers.append(ticket.request_id)
                else:
                    parked = ticket
                    break
            assert not parked.done  # parked, not rejected
            # Shrinking two blockers frees strictly more than one full
            # blocker footprint — room enough for the parked tenant.
            for blocker in blockers[:2]:
                decision = service.resize(blocker, new_n=1)
                assert decision["outcome"] in ("in_place", "replaced")
            assert parked.wait(10.0)
            assert parked.outcome == OUTCOME_ADMITTED


class TestResizeStatsAttribution:
    def test_resizes_do_not_move_admission_stats(self, tiny_tree):
        manager, service, rid = admitted_service(tiny_tree)
        with service:
            # One real rejection so rejection_rate has a defined baseline.
            rejected = service.submit(
                HomogeneousSVC(
                    n_vms=manager.state.total_slots + 1, mean=50.0, std=10.0
                ),
                wait=True,
            )
            assert rejected.outcome != OUTCOME_ADMITTED
            before = service.stats()

            service.resize(rid, new_n=6)                              # accepted
            service.resize(rid, new_n=2)                              # accepted
            denied = service.resize(rid, new_n=manager.state.total_slots + 1)
            assert denied["outcome"] == "rejected"

            after = service.stats()
            assert after["admitted_total"] == before["admitted_total"]
            assert after["rejected_total"] == before["rejected_total"]
            assert after["rejection_rate"] == before["rejection_rate"]
            assert (
                after["rejections_by_allocator"] == before["rejections_by_allocator"]
            )
            assert after["counters"]["admitted"] == before["counters"]["admitted"]
            assert after["counters"]["rejected"] == before["counters"]["rejected"]
            # ... the resize tallies moved instead.
            assert after["counters"]["resized"] == 2
            assert after["counters"]["resize_rejected"] == 1
            assert after["resizes"]["rejected"] == 1
            assert sum(after["resizes"].values()) == 3


class TestResizeReplay:
    def test_journaled_resizes_survive_recovery(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        manager, service, rid = admitted_service(tiny_tree, store=store)
        with service:
            service.resize(rid, new_n=9)
            service.resize(rid, new_mu=70.0)
            service.resize(rid, new_n=manager.state.total_slots + 1)  # rejected
            live_counts = dict(manager.resize_counts)
        store.close()

        store = DurabilityStore(tmp_path / "j")
        recovered, report = recover_manager(store, tiny_tree)
        store.close()
        tenancy = recovered.tenancy(rid)
        assert tenancy.n_vms == 9
        assert tenancy.request.mean == 70.0
        assert recovered.resize_counts == live_counts
        from repro.service.codec import network_state_to_dict

        assert network_state_to_dict(recovered.state) == network_state_to_dict(
            manager.state
        )

    def test_resize_records_in_wal(self, tiny_tree, tmp_path):
        from repro.service.journal import Journal

        store = DurabilityStore(tmp_path / "j")
        manager, service, rid = admitted_service(tiny_tree, store=store)
        with service:
            service.resize(rid, new_n=6, idempotency_key="k1")
        store.close()
        records = [
            record
            for record in Journal.iter_records(tmp_path / "j" / "wal.jsonl")
            if record["op"] == OP_RESIZE
        ]
        assert len(records) == 1
        assert records[0]["request_id"] == rid
        assert records[0]["idem"] == "k1"
        assert records[0]["allocation"] is not None
