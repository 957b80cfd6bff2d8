#!/usr/bin/env python
"""The admission-control service end to end: concurrency, crash, recovery.

Drives the ``repro.service`` subsystem in-process:

1. start a journaled :class:`AdmissionService` over a tiny datacenter and
   hammer it from four client threads with mixed SVC/deterministic requests;
2. read the stats endpoint (latency percentiles, per-level occupancy);
3. "crash" by abandoning the service without shutdown, then recover a fresh
   manager from the snapshot + journal tail and verify it matches the
   single-threaded oracle replay of the write-ahead log field for field.

The same flow over TCP: ``svc-repro serve --port 0 --journal-dir /tmp/svc``
and talk to it with :class:`repro.service.ServiceClient`.

Run: ``python examples/admission_service.py`` (a few seconds)
"""

import tempfile
import threading
from pathlib import Path

from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.manager import NetworkManager
from repro.service import (
    AdmissionService,
    DurabilityStore,
    network_state_to_dict,
    oracle_replay,
    recover_manager,
)
from repro.topology import TINY_SPEC, build_datacenter


def client(service: AdmissionService, seed: int) -> None:
    admitted = []
    for index in range(40):
        if index % 2:
            request = HomogeneousSVC(n_vms=2 + index % 4, mean=90.0, std=35.0)
        else:
            request = DeterministicVC(n_vms=2 + index % 3, bandwidth=80.0)
        ticket = service.submit(request, wait=True)
        if ticket.outcome == "admitted":
            admitted.append(ticket.request_id)
        if len(admitted) > 4 and index % 3 == 0:
            service.release(admitted.pop(0))


def main() -> None:
    tree = build_datacenter(TINY_SPEC)
    workdir = Path(tempfile.mkdtemp(prefix="svc-admission-"))
    print(f"datacenter: {tree.describe()}")
    print(f"journal:    {workdir}\n")

    store = DurabilityStore(workdir, snapshot_every=40)
    manager = NetworkManager(tree)
    service = AdmissionService(manager, store=store).start()
    threads = [threading.Thread(target=client, args=(service, s)) for s in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    stats = service.stats()
    counters = stats["counters"]
    latency = stats["admission_latency"]
    print("after 4 concurrent clients:")
    print(f"  submitted {counters['submitted']}, admitted {counters['admitted']}, "
          f"rejected {counters['rejected']}, released {counters['released']}")
    print(f"  admission latency p50/p99: "
          f"{latency['p50_ms']:.2f} / {latency['p99_ms']:.2f} ms")
    for row in stats["occupancy"]["by_level"]:
        print(f"  {row['label']:>12}: mean occupancy {row['mean_occupancy']:.3f} "
              f"over {row['links']} links")

    # Simulate a crash: no shutdown, no final snapshot — only the WAL and
    # whatever periodic snapshot the service already wrote survive.
    live_fingerprint = network_state_to_dict(manager.state)
    live_active = sorted(t.request_id for t in manager.tenancies())
    service.stop()
    store.close()

    recovery_store = DurabilityStore(workdir)
    recovered, report = recover_manager(recovery_store, tree)
    recovery_store.close()
    print(f"\nrecovery: snapshot seq {report.snapshot_seq}, "
          f"{report.replayed_records} journal records replayed")

    oracle_state, oracle_active = oracle_replay(workdir / "wal.jsonl", tree)
    assert network_state_to_dict(recovered.state) == live_fingerprint
    assert network_state_to_dict(recovered.state) == network_state_to_dict(oracle_state)
    assert sorted(t.request_id for t in recovered.tenancies()) == live_active
    assert sorted(oracle_active) == live_active
    print(f"recovered state matches the live manager and the oracle replay: "
          f"{len(live_active)} active tenancies, field-for-field identical")


if __name__ == "__main__":
    main()
