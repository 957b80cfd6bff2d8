"""End-to-end daemon tests: concurrent clients, kill -9, recovery, stats.

This is the acceptance scenario of the service layer: start ``svc-repro
serve`` as a real subprocess, hammer it with mixed SVC/deterministic
requests from several client threads, SIGKILL it mid-stream, then recover
from journal+snapshot and verify the reconstructed per-link occupancy and
active tenancy set exactly match a single-threaded oracle replay of the
surviving journal.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.service.client import ServiceClient
from repro.service.codec import network_state_to_dict
from repro.service.journal import DurabilityStore
from repro.service.recovery import oracle_replay, recover_manager
from repro.topology import TINY_SPEC, build_datacenter

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def spawn_server(journal_dir, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--scale",
            "tiny",
            "--journal-dir",
            str(journal_dir),
            "--snapshot-every",
            "40",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    return proc


def read_ready(proc, timeout=30.0):
    """The first stdout line is the machine-readable ready record."""
    result = {}

    def reader():
        line = proc.stdout.readline()
        if line:
            result.update(json.loads(line))

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    if not result:
        proc.kill()
        pytest.fail("server did not print a ready line in time")
    return result


def mixed_request(index):
    if index % 2:
        return HomogeneousSVC(n_vms=2 + index % 4, mean=80.0, std=30.0)
    return DeterministicVC(n_vms=2 + index % 3, bandwidth=90.0)


class TestKillRecovery:
    TOTAL_PER_THREAD = 90
    CLIENT_THREADS = 4
    KILL_AFTER = 220  # acknowledged operations before SIGKILL (>= 200 required)

    def test_concurrent_stream_kill_and_oracle_recovery(self, tmp_path):
        journal_dir = tmp_path / "journal"
        proc = spawn_server(journal_dir)
        try:
            ready = read_ready(proc)
            port = ready["port"]
            acknowledged = [0]
            counter_lock = threading.Lock()
            stats_seen = {}

            def client_stream(seed):
                admitted = []
                try:
                    with ServiceClient(port=port, timeout=10) as client:
                        for index in range(self.TOTAL_PER_THREAD):
                            reply = client.submit(mixed_request(seed * 1000 + index))
                            with counter_lock:
                                acknowledged[0] += 1
                            if reply.get("outcome") == "admitted":
                                admitted.append(reply["request_id"])
                            if len(admitted) > 4 and index % 3 == 0:
                                client.release(admitted.pop(0))
                                with counter_lock:
                                    acknowledged[0] += 1
                except (ConnectionError, OSError, json.JSONDecodeError):
                    pass  # the server was killed under us — expected

            threads = [
                threading.Thread(target=client_stream, args=(seed,))
                for seed in range(self.CLIENT_THREADS)
            ]
            for thread in threads:
                thread.start()

            deadline = time.time() + 60
            while time.time() < deadline:
                with counter_lock:
                    count = acknowledged[0]
                if count >= 100 and not stats_seen:
                    with ServiceClient(port=port, timeout=10) as client:
                        stats_seen.update(client.stats())
                if count >= self.KILL_AFTER:
                    break
                time.sleep(0.005)
            assert acknowledged[0] >= self.KILL_AFTER, "stream never reached kill point"

            # The daemon dies mid-stream with clients still submitting.
            proc.send_signal(signal.SIGKILL)
            for thread in threads:
                thread.join(30)
            proc.wait(30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)

        # ------------------------------------------------------------------
        # Stats endpoint (sampled mid-stream, before the kill).
        # ------------------------------------------------------------------
        assert stats_seen, "stats endpoint was never sampled"
        latency = stats_seen["admission_latency"]
        assert latency["count"] > 0
        for key in ("p50_ms", "p90_ms", "p99_ms"):
            assert latency[key] >= 0.0
        levels = {row["label"] for row in stats_seen["occupancy"]["by_level"]}
        assert levels == {"machine", "ToR", "aggregation"}

        # ------------------------------------------------------------------
        # Recovery must equal the single-threaded oracle replay.
        # ------------------------------------------------------------------
        tree = build_datacenter(TINY_SPEC)
        store = DurabilityStore(journal_dir)
        recovered, report = recover_manager(store, tree)
        store.close()
        oracle_state, oracle_active = oracle_replay(journal_dir / "wal.jsonl", tree)
        assert network_state_to_dict(recovered.state) == network_state_to_dict(oracle_state)
        assert sorted(t.request_id for t in recovered.tenancies()) == sorted(oracle_active)
        for link_id, occupancy in oracle_state.occupancies():
            assert recovered.state.occupancy_of(link_id) == pytest.approx(occupancy, abs=1e-6)
        # The stream really was mixed and non-trivial.
        assert report.last_seq >= 200


class TestCleanRestart:
    def test_state_survives_shutdown_and_restart(self, tmp_path):
        journal_dir = tmp_path / "journal"
        proc = spawn_server(journal_dir)
        try:
            port = read_ready(proc)["port"]
            with ServiceClient(port=port, timeout=10) as client:
                admitted = []
                for index in range(10):
                    reply = client.submit(mixed_request(index))
                    if reply.get("outcome") == "admitted":
                        admitted.append(reply["request_id"])
                assert admitted
                client.shutdown()
            proc.wait(30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)

        proc = spawn_server(journal_dir)
        try:
            ready = read_ready(proc)
            port = ready["port"]
            with ServiceClient(port=port, timeout=10) as client:
                stats = client.stats()
                assert stats["active_tenancies"] == len(admitted)
                # The restarted daemon keeps serving over the recovered state.
                reply = client.submit(HomogeneousSVC(n_vms=2, mean=40.0, std=10.0))
                assert reply["outcome"] in ("admitted", "rejected")
                client.shutdown()
            proc.wait(30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(30)
