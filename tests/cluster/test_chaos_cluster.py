"""Cluster chaos referee: a small in-suite sample of the CI sweep.

CI runs ``svc-repro cluster --chaos 200``; tier-1 keeps a small sample
so a referee regression fails fast without the full sweep's cost.
"""

import pytest

from repro.cluster.chaos import cluster_chaos_plan, run_cluster_chaos_schedule


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        first = cluster_chaos_plan(4242)
        second = cluster_chaos_plan(4242)
        assert first.describe() == second.describe()

    def test_some_crashes_move_into_the_coordinator(self):
        sites = {
            cluster_chaos_plan(seed).crash_site
            for seed in range(40)
            if cluster_chaos_plan(seed).crash_site is not None
        }
        assert any(
            site.startswith("cluster.coordinator.") for site in sites
        ), f"no coordinator crash sites in {sorted(sites)}"


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_schedule_holds_invariants(seed, tmp_path):
    result = run_cluster_chaos_schedule(
        seed, tmp_path / f"run{seed}", shards=2, operations=25
    )
    assert result.ok, f"seed {seed} violations: {result.failures}"
    # A planned crash may cut the workload short; some ops must still run.
    assert 0 < result.operations_run <= 25


def test_seed_18_leaves_no_key_naming_a_dropped_tenant(tmp_path):
    # At the CLI's 40 operations, seed 18 once recovered an admission
    # record whose append had failed after its bytes were written; the
    # tenant was dropped but its key still answered "admitted", so the
    # retry was deduplicated onto a tenancy that did not exist.
    result = run_cluster_chaos_schedule(18, tmp_path / "run18", shards=2, operations=40)
    assert result.ok, f"seed 18 violations: {result.failures}"
