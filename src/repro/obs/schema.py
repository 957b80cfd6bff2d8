"""The metric-name contract: what the fully-instrumented system must emit.

``METRICS_SCHEMA.json`` (repo root) is the checked-in list of metric
families and their kinds.  :func:`bootstrap_registry` boots a miniature but
fully-wired system — allocator traffic, network gauges, the admission
service, the outage monitor — so every family the production daemon would
expose gets registered; :func:`diff_schema` compares that against the file.

CI fails on drift (``scripts/check_metrics_schema.py``), and a tier-1 test
enforces the same contract locally: renaming or dropping a metric is a
deliberate, reviewed act — dashboards and alerts depend on these names.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

SCHEMA_FILENAME = "METRICS_SCHEMA.json"
SCHEMA_VERSION = 3


def bootstrap_registry():
    """A fresh global registry populated by a fully-wired miniature system.

    Resets the process-global registry (callers beware), then drives one
    admitted and one rejected request through an AdmissionService over the
    tiny topology, binds the network gauges, and pokes the outage monitor —
    after which the registry holds every family the daemon exposes.
    """
    # Local imports: obs is dependency-free, the bootstrap is not.
    from repro.abstractions.requests import HomogeneousSVC
    from repro.manager.network_manager import NetworkManager
    from repro.obs import instruments
    from repro.service.concurrency import AdmissionService
    from repro.topology.builder import TINY_SPEC, build_datacenter

    registry = instruments.reset_global_registry()
    instruments.configure(enabled=True)
    manager = NetworkManager(build_datacenter(TINY_SPEC), epsilon=0.05)
    service = AdmissionService(manager)
    with service:
        service.submit(HomogeneousSVC(n_vms=2, mean=50.0, std=20.0))
        service.submit(  # oversize: exercises the rejection families
            HomogeneousSVC(n_vms=manager.state.total_slots + 1, mean=50.0, std=20.0)
        )
    monitor = instruments.outage_monitor()
    monitor.set_epsilon(0.05)
    monitor.record(0, 1)
    instruments.experiment_instruments()  # registers the harness families

    # The cluster families, including the coordinator-bound pull gauges: a
    # one-shard in-memory cluster is enough to register every name the
    # sharded deployment exposes.
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.partition import ClusterPartition
    from repro.cluster.shard import LocalShard

    partition = ClusterPartition.build(TINY_SPEC, 1)
    shard = LocalShard(partition.shards[0], None, epsilon=0.05)
    coordinator = ClusterCoordinator(partition, [shard], epsilon=0.05)
    try:
        coordinator.refresh_shard_stats()
    finally:
        coordinator.stop()
        shard.close()
    return registry


def registry_families(registry) -> Dict[str, str]:
    """``{family_name: kind}`` of one registry."""
    return {family.name: family.kind for family in registry.families()}


def load_schema(path: Path) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {payload.get('version')!r} in {path}"
        )
    return dict(payload["families"])


def dump_schema(families: Dict[str, str], path: Path) -> None:
    payload = {"version": SCHEMA_VERSION, "families": dict(sorted(families.items()))}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def diff_schema(
    expected: Dict[str, str], actual: Dict[str, str]
) -> Tuple[List[str], List[str], List[str]]:
    """``(missing, unexpected, kind_mismatches)`` between schema and registry."""
    missing = sorted(name for name in expected if name not in actual)
    unexpected = sorted(name for name in actual if name not in expected)
    mismatched = sorted(
        f"{name}: schema says {expected[name]}, registry says {actual[name]}"
        for name in expected
        if name in actual and expected[name] != actual[name]
    )
    return missing, unexpected, mismatched
