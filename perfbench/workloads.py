"""The four workloads: load generation, measurement and correctness checks.

Each ``run_*`` function drives the real system for ``seconds`` and returns
a :class:`Pass`: the client-observed operations, resource use, set-up
times, checks and, when traced, the spans.  ``report.py`` turns passes
into metrics.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
import streams
from checks import Check
from common import percentile, proc_cpu_s, proc_peak_rss_mb, self_cpu_s
from daemon import Daemon, DaemonError, LineClient, launch_setups, stop_all

#: Open-loop offered arrival rate of paper-homo (submits/s): about half the
#: closed-loop submit capacity measured on a 2-vCPU host.
HOMO_OFFERED_RATE = 12.0
#: Set-ups measured per run; the median is reported.
SETUP_REPEATS = 3
#: A run whose generator sent later than this (p99) is rejected.
GENERATOR_LATE_LIMIT_MS = 25.0
#: Tail percentile each workload reports (the rule may step down from it).
TAIL_PCT = {"paper-homo": 95.0, "paper-het": 90.0, "churn-fsync": 99.0, "cluster-cross": 95.0}


@dataclass
class Op:
    """One client operation as the client saw it."""

    kind: str  # submit | release | resize
    command: Dict[str, Any]
    due: float = 0.0
    sent: float = 0.0
    recv: float = 0.0
    response: Optional[Dict[str, Any]] = None
    job: Any = None
    #: Warm-up ops bring the tree to steady state; they are checked, not timed.
    warmup: bool = False

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))

    @property
    def outcome(self) -> Optional[str]:
        return self.response.get("outcome") if self.response else None

    @property
    def key(self) -> str:
        """The id the server-side spans carry for this operation."""
        if self.kind == "submit":
            return f"t:{self.response.get('ticket')}" if self.response else "t:?"
        return f"{self.kind}:{self.command.get('request_id')}"


@dataclass
class Pass:
    """Everything one measured pass of a workload produced."""

    ops: List[Op] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)
    spans: List[Any] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    prometheus: str = ""
    generator_late_ms: float = 0.0
    threads: int = 1
    connections: int = 1
    recovery_s: Optional[float] = None
    journal_bytes: int = 0
    cluster: bool = False


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------


class PaperSchedule:
    """Arrivals of a paper stream interleaved with departures, in virtual time.

    A closed loop asks for the next op; a departure is due once virtual time
    (the next arrival) passes an admitted tenant's arrival plus hold.
    """

    def __init__(self, jobs: List[streams.Job], first: int = 0, departures=()) -> None:
        self.jobs = jobs
        self.next_job = first
        self.departures: List[Tuple[float, int, Any]] = [
            (at, seq, tenant) for seq, (at, tenant) in enumerate(departures)
        ]
        heapq.heapify(self.departures)
        self.lock = threading.Lock()
        self._seq = len(self.departures)

    def next(self) -> Optional[Tuple[str, Any]]:
        with self.lock:
            upcoming = self.jobs[self.next_job].arrival if self.next_job < len(self.jobs) else None
            if self.departures and (upcoming is None or self.departures[0][0] <= upcoming):
                return "release", heapq.heappop(self.departures)[2]
            if upcoming is None:
                return None
            job = self.jobs[self.next_job]
            self.next_job += 1
            return "submit", job

    def admitted(self, job: streams.Job, tenant: Any) -> None:
        with self.lock:
            self._seq += 1
            heapq.heappush(self.departures, (job.arrival + job.hold, self._seq, tenant))


def warm_up(jobs: List[streams.Job], scale: str, call) -> Tuple[List[Op], float, List]:
    """Submit the steady-state population before the clock starts.

    The first ``steady_tenants`` jobs are admitted back to back as if they
    had arrived over the last hold time: job ``i`` of ``n`` has
    ``(i + 0.5) / n`` of its hold left.  Returns the ops, the virtual time
    the measured stream starts at, and ``(departure time, request id)`` of
    each admitted warm-up tenant.  ``call(op)`` performs one op.
    """
    count = min(streams.steady_tenants(scale), len(jobs) - 1)
    origin = jobs[count - 1].arrival if count else 0.0
    ops, departures = [], []
    for index, job in enumerate(jobs[:count]):
        op = Op("submit", {"op": "submit", "request": job.request}, job=job, warmup=True)
        call(op)
        ops.append(op)
        if op.outcome == "admitted":
            departures.append((origin + job.hold * (index + 0.5) / count, op.response["request_id"]))
    return ops, origin, departures


# ----------------------------------------------------------------------
# Daemon workloads
# ----------------------------------------------------------------------


def _start(workdir: Path, name: str, scale: str, fsync: bool, failpoints: Optional[str],
           traced: bool, repeats: int) -> Tuple[Daemon, List[float]]:
    """Throwaway launches for the set-up median, then the daemon under test."""
    workdir.mkdir(parents=True, exist_ok=True)
    setups = launch_setups(workdir, scale, repeats - 1, fsync=fsync) if repeats > 1 else []
    daemon = Daemon(
        workdir, name, scale, workdir / f"{name}-journal", fsync=fsync,
        failpoints=failpoints, spans_path=(workdir / f"{name}-spans.json") if traced else None,
    )
    setups.append(daemon.setup_s)
    return daemon, setups


def _finish_load(daemon: Daemon, result: Pass, cpu0: float) -> None:
    """Resource use and the daemon's own view, right after the load."""
    result.cpu_s = daemon.cpu_s() - cpu0
    result.rss_mb = daemon.peak_rss_mb()
    with daemon.connect() as client:
        result.stats = client.call({"op": "stats"})["stats"]
        result.prometheus = client.call({"op": "metrics"}).get("prometheus", "")


def _read_spans(path: Optional[Path], after: Sequence[Any] = ()) -> List[Any]:
    """A daemon's span dump; ids shifted past ``after``'s, another process's dump."""
    if path is None or not path.exists():
        return []
    spans = json.loads(path.read_text(encoding="utf-8"))
    shift = max((span[0] for span in after), default=0)
    for span in spans:
        span[0] += shift
        if span[4] is not None:
            span[4] += shift
    return spans


def run_paper_homo(seed: int, seconds: float, workdir: Path, scale: str = "paper",
                   traced: bool = False, repeats: int = SETUP_REPEATS,
                   failpoints: Optional[str] = None) -> Pass:
    """Open loop: Poisson arrivals at a fixed offered rate, departures on time."""
    warm = streams.steady_tenants(scale)
    jobs = streams.paper_stream(seed, warm + int(HOMO_OFFERED_RATE * seconds * 1.3) + 20, scale)
    speedup = HOMO_OFFERED_RATE / streams.arrival_rate(scale)
    daemon, setups = _start(workdir, "homo", scale, False, failpoints, traced, repeats)
    result = Pass(setup_s=setups, connections=1)
    result.info["offered_rate"] = HOMO_OFFERED_RATE
    try:
        with daemon.connect() as client:
            ops, origin, departures = warm_up(jobs, scale, lambda op: _call(client, op))
            result.ops += ops
            cpu0 = daemon.cpu_s()
            _open_loop(client, jobs[len(ops):], origin, departures, speedup, seconds, result)
        _finish_load(daemon, result, cpu0)
        daemon.shutdown()
    except BaseException:
        stop_all([daemon])
        raise
    result.spans = _read_spans(daemon.spans_path)
    result.journal_bytes = _wal_bytes(workdir / "homo-journal")
    result.checks += _replay_checks(result, scale, workdir / "homo-journal")
    return result


def _call(client: LineClient, op: Op) -> Op:
    """One closed-loop op: send, wait for the reply, time both."""
    op.due = op.sent = time.perf_counter()
    op.response = client.call(op.command)
    op.recv = time.perf_counter()
    return op


def _open_loop(client: LineClient, jobs, origin: float, departures, speedup: float,
               seconds: float, result: Pass) -> None:
    """Send on schedule from this thread; read replies on one other thread.

    Virtual time ``origin`` maps to the start of the window; ``departures``
    are the warm-up tenants' ``(virtual time, request id)``.
    """
    start = time.perf_counter() + 0.05
    end = start + seconds
    order = itertools.count()  # tie-breaker: events never compare payloads
    events: List[Tuple[float, int, str, Any]] = []
    for job in jobs:
        due = start + (job.arrival - origin) / speedup
        if due < end:
            events.append((due, next(order), "submit", job))
    for at, request_id in departures:
        due = start + (at - origin) / speedup
        if due < end:
            events.append((due, next(order), "release", request_id))
    heapq.heapify(events)
    cond = threading.Condition()
    inflight: deque = deque()
    state: Dict[str, Any] = {"outstanding": 0, "error": None}

    def receive() -> None:
        try:
            while True:
                response = client.recv()
                now = time.perf_counter()
                op = inflight.popleft()
                op.recv, op.response = now, response
                if op.kind == "ping":
                    return
                with cond:
                    if op.kind == "submit" and op.outcome == "admitted":
                        due = max(start + (op.job.arrival + op.job.hold - origin) / speedup, now)
                        if due < end:
                            heapq.heappush(
                                events, (due, next(order), "release", response["request_id"])
                            )
                    state["outstanding"] -= 1
                    cond.notify()
        except BaseException as exc:  # surface to the sender, then stop
            with cond:
                state["error"] = exc
                cond.notify()

    receiver = threading.Thread(target=receive, name="perfbench-recv", daemon=True)
    receiver.start()
    while True:
        with cond:
            if state["error"] is not None:
                raise DaemonError(f"receiver failed: {state['error']!r}")
            if not events:
                if state["outstanding"] == 0:
                    break
                cond.wait(0.05)
                continue
            due = events[0][0]
            now = time.perf_counter()
            if due > now:
                cond.wait(due - now)
                continue
            _, _, kind, payload = heapq.heappop(events)
            state["outstanding"] += 1
        if kind == "submit":
            op = Op("submit", {"op": "submit", "request": payload.request}, job=payload)
        else:
            op = Op("release", {"op": "release", "request_id": payload})
        op.due = due
        inflight.append(op)
        op.sent = time.perf_counter()
        client.send(op.command)
        result.ops.append(op)
        result.threads = max(result.threads, threading.active_count())
    ping = Op("ping", {"op": "ping"})
    inflight.append(ping)
    client.send(ping.command)
    receiver.join(60.0)
    if receiver.is_alive() or state["error"] is not None:
        raise DaemonError("open-loop receiver did not finish")
    timed = [op for op in result.ops if not op.warmup]
    result.wall_s = max(op.recv for op in timed) - start if timed else seconds
    late = [1000.0 * max(0.0, op.sent - op.due) for op in timed]
    result.generator_late_ms = percentile(late, 99.0)


def run_paper_het(seed: int, seconds: float, workdir: Path, scale: str = "paper",
                  traced: bool = False, repeats: int = SETUP_REPEATS,
                  failpoints: Optional[str] = None) -> Pass:
    """Closed loop over one connection through the heterogeneous stream."""
    jobs = streams.paper_stream(seed, 4000, scale, heterogeneous=True)
    daemon, setups = _start(workdir, "het", scale, False, failpoints, traced, repeats)
    result = Pass(setup_s=setups, connections=1)
    try:
        with daemon.connect() as client:
            ops, _origin, departures = warm_up(jobs, scale, lambda op: _call(client, op))
            result.ops += ops
            schedule = PaperSchedule(jobs, len(ops), departures)
            cpu0 = daemon.cpu_s()
            _closed_paper_loop(client, schedule, seconds, result)
        _finish_load(daemon, result, cpu0)
        daemon.shutdown()
    except BaseException:
        stop_all([daemon])
        raise
    result.spans = _read_spans(daemon.spans_path)
    result.journal_bytes = _wal_bytes(workdir / "het-journal")
    result.checks += _replay_checks(result, scale, workdir / "het-journal")
    return result


def _closed_paper_loop(client: LineClient, schedule: PaperSchedule, seconds: float,
                       result: Pass) -> None:
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        step = schedule.next()
        if step is None:
            break
        kind, payload = step
        if kind == "submit":
            op = Op("submit", {"op": "submit", "request": payload.request}, job=payload)
        else:
            op = Op("release", {"op": "release", "request_id": payload})
        result.ops.append(_call(client, op))
        if kind == "submit" and op.outcome == "admitted":
            schedule.admitted(payload, op.response["request_id"])
    result.wall_s = time.perf_counter() - start


def _replay_checks(result: Pass, scale: str, journal_dir: Path) -> List[Check]:
    """Replay the acknowledged op sequence in-process and compare."""
    from repro.allocation.dispatch import default_allocator
    from repro.experiments.config import SCALES
    from repro.manager.network_manager import NetworkManager
    from repro.network.snapshot import utilization_by_level
    from repro.service.codec import allocation_to_dict, request_from_dict
    from repro.topology.builder import build_datacenter

    manager = NetworkManager(build_datacenter(SCALES[scale].spec), epsilon=0.05,
                             allocator=default_allocator())
    observed, replayed = [], []
    for op in sorted(result.ops, key=lambda o: o.sent):
        if not op.ok:
            continue
        if op.kind == "submit":
            tenancy = manager.request(request_from_dict(op.command["request"]))
            replayed.append(["admitted", tenancy.request_id] if tenancy else ["rejected", None])
            observed.append([op.outcome, op.response.get("request_id")])
        elif op.kind == "release":
            manager.release(manager.tenancy(int(op.command["request_id"])))
    snapshot = checks.latest_snapshot(journal_dir) or {"allocations": []}
    levels = [
        {"level": row.level, "links": row.num_links, "mean_occupancy": row.mean_occupancy,
         "max_occupancy": row.max_occupancy}
        for row in utilization_by_level(manager.state)
    ]
    return [
        checks.decisions_match(observed, replayed),
        checks.allocations_match(
            snapshot["allocations"],
            [allocation_to_dict(t.allocation) for t in manager.tenancies()],
        ),
        checks.levels_match("link_levels_match_replay", result.stats["occupancy"]["by_level"], levels),
        checks.occupancy_below_one(
            "occupancy_below_one",
            {str(link): occ for link, occ in manager.state.occupancies()},
        ),
    ]


def _wal_bytes(journal_dir: Path) -> int:
    return sum(p.stat().st_size for p in journal_dir.glob("*.jsonl"))


def run_churn_fsync(seed: int, seconds: float, workdir: Path, scale: str = "tiny",
                    traced: bool = False, repeats: int = SETUP_REPEATS,
                    failpoints: Optional[str] = None) -> Pass:
    """Two orchestrator connections in closed loop, then SIGKILL and restart."""
    connections = 2
    daemon, setups = _start(workdir, "churn", scale, True, failpoints, traced, repeats)
    result = Pass(setup_s=setups, threads=connections, connections=connections)
    restarted: Optional[Daemon] = None
    try:
        cpu0 = daemon.cpu_s()
        tenants: List[Dict[int, int]] = [{} for _ in range(connections)]
        logs: List[List[Op]] = [[] for _ in range(connections)]
        errors: List[BaseException] = []
        start = time.perf_counter()
        deadline = start + seconds
        target = streams.TOTAL_SLOTS[scale] // 2 // connections

        def orchestrate(index: int) -> None:
            try:
                rng = np.random.default_rng([seed, index])
                with daemon.connect() as client:
                    _churn_loop(client, rng, tenants[index], target, deadline, logs[index])
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        helper = threading.Thread(target=orchestrate, args=(1,), name="perfbench-conn-1")
        helper.start()
        orchestrate(0)
        helper.join(120.0)
        if helper.is_alive() or errors:
            raise DaemonError(f"orchestrator failed: {errors[:1]!r}")
        result.wall_s = time.perf_counter() - start
        result.ops = sorted((op for log in logs for op in log), key=lambda o: o.sent)
        _finish_load(daemon, result, cpu0)
        before = result.stats
        if traced:
            daemon.dump_spans()
            result.spans = _read_spans(daemon.spans_path)
        journal = workdir / "churn-journal"
        result.journal_bytes = _wal_bytes(journal)
        killed_at = daemon.kill()
        restarted = Daemon(
            workdir, "churn-restart", scale, journal, fsync=True,
            spans_path=(workdir / "churn-restart-spans.json") if traced else None,
        )
        result.recovery_s = restarted.ready_at - killed_at
        result.info["recovered_records"] = restarted.ready.get("recovered_records")
        with restarted.connect() as client:
            after = client.call({"op": "stats"})["stats"]
        recovered = checks.latest_snapshot(journal) or {"allocations": []}
        restarted.shutdown()
    except BaseException:
        stop_all([daemon, restarted])
        raise
    if traced:
        result.spans += _read_spans(restarted.spans_path, after=result.spans)
    expected = [rid for owned in tenants for rid in owned]
    result.checks += checks.recovery_matches(
        before, after, expected, [a["request_id"] for a in recovered["allocations"]]
    )
    result.checks.append(
        checks.occupancy_below_one(
            "occupancy_below_one",
            {row["label"]: row["max_occupancy"] for row in after["occupancy"]["by_level"]},
        )
    )
    return result


def _churn_loop(client: LineClient, rng: np.random.Generator, owned: Dict[int, int],
                target: int, deadline: float, log: List[Op]) -> None:
    """One orchestrator: keep about ``target`` slots, resize now and then."""
    while time.perf_counter() < deadline:
        used = sum(owned.values())
        if owned and rng.random() < 0.2:
            request_id = int(rng.choice(sorted(owned)))
            current = owned[request_id]
            step = int(rng.choice([-2, -1, 1, 2]))
            new_n = min(8, max(2, current + step))
            if new_n == current:
                new_n = current - step if 2 <= current - step <= 8 else current
            op = Op("resize", {"op": "resize", "request_id": request_id, "new_n": new_n})
        elif used < target or not owned:
            op = Op("submit", {"op": "submit", "request": streams.churn_request(rng)})
        else:
            request_id = int(rng.choice(sorted(owned)))
            op = Op("release", {"op": "release", "request_id": request_id})
        log.append(_call(client, op))
        if not op.ok:
            continue
        if op.kind == "submit" and op.outcome == "admitted":
            owned[int(op.response["request_id"])] = int(op.command["request"]["n_vms"])
        elif op.kind == "release":
            owned.pop(int(op.command["request_id"]), None)
        elif op.kind == "resize" and op.outcome in ("in_place", "replaced"):
            owned[int(op.command["request_id"])] = int(op.response.get("n_vms", op.command["new_n"]))


# ----------------------------------------------------------------------
# Cluster workload
# ----------------------------------------------------------------------


class _Cluster:
    """A 2-shard process cluster plus coordinator, as ``svc-repro cluster`` builds it."""

    def __init__(self, scale: str, directory: Path, shards: int = 2) -> None:
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.partition import ClusterPartition
        from repro.cluster.rebalance import ShardLoadRebalancer
        from repro.cluster.worker import ProcessShard, wait_for_shards
        from repro.experiments.config import SCALES

        started = time.perf_counter()
        partition = ClusterPartition.build(SCALES[scale].spec, shards)
        self.shards: List[Any] = []
        try:
            for view in partition.shards:
                self.shards.append(ProcessShard(view, directory / f"shard-{view.shard_index}"))
            wait_for_shards(self.shards)
            self.coordinator = ClusterCoordinator(
                partition, self.shards, directory=directory,
                rebalancer=ShardLoadRebalancer(shards, interval_s=0.0),
            )
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def pids(self) -> List[int]:
        return [shard._process.pid for shard in self.shards]

    def close(self) -> None:
        coordinator = getattr(self, "coordinator", None)
        if coordinator is not None:
            coordinator.stop()
        for shard in self.shards:
            shard.close()


def run_cluster_cross(seed: int, seconds: float, workdir: Path, scale: str = "paper",
                      traced: bool = False, repeats: int = SETUP_REPEATS,
                      failpoints: Optional[str] = None) -> Pass:
    """Closed loop, two submitter threads, through the coordinator."""
    from repro.service.codec import request_from_dict

    recorder = None
    if traced:
        from tracing import SpanRecorder, install_cluster_wrappers

        recorder = SpanRecorder()
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []
    for index in range(repeats - 1):
        probe = _Cluster(scale, workdir / f"cluster-setup-{index}")
        setups.append(probe.setup_s)
        probe.close()
    if recorder is not None:
        install_cluster_wrappers(recorder)
    cluster = _Cluster(scale, workdir / "cluster")
    setups.append(cluster.setup_s)
    threads = 2
    result = Pass(setup_s=setups, connections=threads, cluster=True)
    coordinator = cluster.coordinator
    counts = {"admitted": 0, "released": 0}
    active_gids: set = set()
    lock = threading.Lock()

    def perform(op: Op, key: str) -> Op:
        """One coordinator call; an exception is a failed op, not a crash."""
        op.command["key"] = key
        if recorder is not None:
            recorder.set_current_rid(key)
        op.due = op.sent = time.perf_counter()
        try:
            if op.kind == "submit":
                decision = coordinator.submit(request_from_dict(op.command["request"]))
                op.response = {"ok": True, **decision}
            else:
                op.response = {"ok": coordinator.release(op.command["request_id"])}
        except Exception as exc:  # noqa: BLE001 - counted in failed_frac
            op.response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        op.recv = time.perf_counter()
        with lock:
            if op.ok and op.kind == "submit" and op.outcome == "admitted":
                counts["admitted"] += 1
                active_gids.add(op.response["request_id"])
            elif op.ok and op.kind == "release":
                counts["released"] += 1
                active_gids.discard(op.command["request_id"])
        return op

    try:
        jobs = streams.paper_stream(seed, 4000, scale)
        warm, _origin, departures = warm_up(
            jobs, scale, lambda op: perform(op, f"warm:{op.job.index}")
        )
        result.ops += warm
        schedule = PaperSchedule(jobs, len(warm), departures)
        logs: List[List[Op]] = [[] for _ in range(threads)]
        errors: List[BaseException] = []
        cpu0 = self_cpu_s() + sum(proc_cpu_s(pid) for pid in cluster.pids())
        start = time.perf_counter()
        deadline = start + seconds

        def submitter(index: int) -> None:
            try:
                while time.perf_counter() < deadline:
                    step = schedule.next()
                    if step is None:
                        return
                    kind, payload = step
                    if kind == "submit":
                        op = Op("submit", {"request": payload.request}, job=payload)
                    else:
                        op = Op("release", {"request_id": payload})
                    logs[index].append(perform(op, f"{kind}:{index}:{len(logs[index])}"))
                    if op.ok and kind == "submit" and op.outcome == "admitted":
                        schedule.admitted(payload, op.response["request_id"])
                    if index == 0:
                        result.threads = max(result.threads, threading.active_count())
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        helper = threading.Thread(target=submitter, args=(1,), name="perfbench-submit-1")
        helper.start()
        submitter(0)
        helper.join(120.0)
        if helper.is_alive() or errors:
            raise RuntimeError(f"submitter failed: {errors[:1]!r}")
        result.wall_s = time.perf_counter() - start
        result.cpu_s = self_cpu_s() + sum(proc_cpu_s(pid) for pid in cluster.pids()) - cpu0
        result.rss_mb = sum(proc_peak_rss_mb(pid) for pid in cluster.pids())
        result.ops += sorted((op for log in logs for op in log), key=lambda o: o.sent)
        shard_stats = [shard.stats() for shard in cluster.shards]
        stats = coordinator.stats()
        result.stats = stats
        routes: Dict[str, int] = {}
        for op in result.ops:
            if op.kind == "submit" and op.ok and not op.warmup:
                route = op.response.get("route", "unknown")
                routes[route] = routes.get(route, 0) + 1
        result.info["routes"] = routes
        active = int(stats["active_tenancies"])
        on_shards = sum(int(s.get("active_tenancies", 0)) for s in shard_stats)
        fragments = sum(len(coordinator.fragments_of(gid) or {}) for gid in active_gids)
        result.checks += [
            checks.occupancy_below_one(
                "core_links_below_one", {str(k): v for k, v in stats["core_occupancy"].items()}
            ),
            checks.occupancy_below_one(
                "shards_below_one",
                {f"shard-{i}": float(s.get("max_occupancy", 0.0)) for i, s in enumerate(shard_stats)},
            ),
            checks.occupancy_below_one(
                "occupancy_below_one", {"replica": float(stats["replica_max_occupancy"])}
            ),
            checks.tenancy_accounting(counts["admitted"], counts["released"], active),
            checks.Check(
                "shard_tenancies_match_coordinator",
                on_shards == fragments,
                f"{on_shards} tenancies on the shards, {fragments} fragments of "
                f"{len(active_gids)} active tenants",
            ),
        ]
        if recorder is not None:
            result.spans = list(recorder.spans)
    finally:
        cluster.close()
    return result


RUNNERS = {
    "paper-homo": run_paper_homo,
    "paper-het": run_paper_het,
    "churn-fsync": run_churn_fsync,
    "cluster-cross": run_cluster_cross,
}

#: The tree each workload runs on by default.
DEFAULT_SCALE = {
    "paper-homo": "paper",
    "paper-het": "small",
    "churn-fsync": "tiny",
    "cluster-cross": "paper",
}
