"""The degradation ladder: unit transitions and end-to-end service behaviour."""

import pytest

from repro.faults.failpoints import FAILPOINTS, FP_JOURNAL_WRITE, MODE_ERROR
from repro.manager.network_manager import NetworkManager
from repro.service.concurrency import OUTCOME_ADMITTED, OUTCOME_ERROR, AdmissionService
from repro.service.degrade import (
    STATE_FAST_FAIL,
    STATE_FULL,
    STATE_READ_ONLY,
    DegradationLadder,
)
from repro.service.errors import CODE_READ_ONLY, CODE_UNAVAILABLE, DegradedError
from repro.service.journal import DurabilityStore


def small_request():
    from repro.abstractions import HomogeneousSVC

    return HomogeneousSVC(n_vms=2, mean=50.0, std=10.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLadderUnit:
    def test_starts_full(self):
        ladder = DegradationLadder()
        assert ladder.state == STATE_FULL
        assert not ladder.degraded
        assert ladder.code == 0

    def test_failure_steps_to_read_only_then_fast_fail(self):
        ladder = DegradationLadder(fast_fail_after=3)
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_READ_ONLY
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_READ_ONLY
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_FAST_FAIL
        assert ladder.code == 2

    def test_success_recovers_to_full(self):
        ladder = DegradationLadder(fast_fail_after=2)
        ladder.record_failure(OSError("disk"))
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_FAST_FAIL
        ladder.record_success()
        assert ladder.state == STATE_FULL
        assert ladder.consecutive_failures == 0

    def test_retry_after_backs_off_exponentially_and_caps(self):
        ladder = DegradationLadder(probe_interval=1.0, max_retry_after=8.0)
        hints = []
        for _ in range(6):
            ladder.record_failure(OSError("disk"))
            hints.append(ladder.retry_after())
        assert hints[:4] == [1.0, 2.0, 4.0, 8.0]
        assert all(h == 8.0 for h in hints[3:])  # capped

    def test_should_probe_follows_the_backoff(self):
        clock = FakeClock()
        ladder = DegradationLadder(clock=clock, probe_interval=1.0)
        assert not ladder.should_probe()  # full: nothing to probe
        ladder.record_failure(OSError("disk"))
        assert not ladder.should_probe()
        clock.now = 1.5
        assert ladder.should_probe()

    def test_describe_is_json_friendly(self):
        ladder = DegradationLadder()
        ladder.record_failure(OSError("boom"))
        payload = ladder.describe()
        assert payload["state"] == STATE_READ_ONLY
        assert payload["consecutive_failures"] == 1
        assert "boom" in payload["last_error"]
        assert payload["retry_after_s"] > 0


class TestServiceDegradation:
    def test_journal_failure_rolls_back_and_degrades(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store,
            degradation=DegradationLadder(probe_interval=30.0),
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR)
            ticket = service.submit(small_request(), wait=True)
            assert ticket.outcome == OUTCOME_ERROR
            assert "rolled back" in ticket.detail
            # The admission was rolled back: no tenancy holds bandwidth.
            assert service.manager.active_tenancies == 0
            assert service.manager.admitted_count == 0
            assert service.degradation_state() == STATE_READ_ONLY
            # Mutations now shed with a typed, retryable error.
            with pytest.raises(DegradedError) as excinfo:
                service.submit(small_request(), wait=True)
            assert excinfo.value.code == CODE_READ_ONLY
            assert excinfo.value.retry_after > 0
            assert service.counters.shed >= 1
        store.close()

    def test_probe_recovers_full_service(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store,
            degradation=DegradationLadder(probe_interval=0.01),
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR, max_hits=1)
            assert service.submit(small_request(), wait=True).outcome == OUTCOME_ERROR
            assert service.degradation_state() == STATE_READ_ONLY
            # The failpoint is exhausted: the next probe note succeeds and
            # the ladder climbs back to full within a couple of sweeps.
            deadline = 100
            for _ in range(deadline):
                if service.degradation_state() == STATE_FULL:
                    break
                import time

                time.sleep(0.02)
            assert service.degradation_state() == STATE_FULL
            ticket = service.submit(small_request(), wait=True)
            assert ticket.outcome == OUTCOME_ADMITTED
        store.close()

    def test_fast_fail_shed_includes_status_reads(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        ladder = DegradationLadder(probe_interval=30.0, fast_fail_after=1)
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store, degradation=ladder,
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR)
            service.submit(small_request(), wait=True)
            assert service.degradation_state() == STATE_FAST_FAIL
            with pytest.raises(DegradedError) as excinfo:
                service.gate("stats")
            assert excinfo.value.code == CODE_UNAVAILABLE
            service.gate("ping")  # liveness stays reachable
        store.close()

    def test_release_failure_keeps_tenancy_and_raises_typed_error(
        self, tiny_tree, tmp_path
    ):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store,
            degradation=DegradationLadder(probe_interval=0.01),
        )
        with service:
            ticket = service.submit(small_request(), wait=True)
            assert ticket.outcome == OUTCOME_ADMITTED
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR, max_hits=1)
            with pytest.raises(DegradedError) as excinfo:
                service.release(ticket.request_id)
            assert excinfo.value.code == CODE_READ_ONLY
            # Rolled back: the tenancy still holds its bandwidth, and a
            # later retry (journal healthy again) succeeds.
            assert service.manager.get_tenancy(ticket.request_id) is not None
            import time

            for _ in range(100):
                if service.degradation_state() == STATE_FULL:
                    break
                time.sleep(0.02)
            assert service.release(ticket.request_id)
            assert service.manager.get_tenancy(ticket.request_id) is None
        store.close()

    def test_stats_and_metrics_surface_degradation(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store,
            degradation=DegradationLadder(probe_interval=30.0),
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR)
            service.submit(small_request(), wait=True)
            stats = service.stats()
            assert stats["degradation"]["state"] == STATE_READ_ONLY
            assert stats["degradation"]["consecutive_failures"] >= 1
            snapshot = service.metrics()["metrics"]
            gauge = snapshot["repro_service_degradation_state"]["series"][0]["value"]
            assert gauge == 1.0
        store.close()
