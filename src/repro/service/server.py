"""Line-delimited JSON TCP server for the admission service.

Protocol: one JSON object per line in each direction, UTF-8, ``\\n``
terminated.  Every response carries ``"ok"``; failures add ``"error"``.

Operations::

    {"op": "ping"}
    {"op": "submit", "request": {...}, "priority": 0, "tenant": "gold",
     "timeout_s": 5.0, "wait": true, "wait_timeout": 10.0}
    {"op": "status", "ticket": 7}
    {"op": "release", "request_id": 3}
    {"op": "resize", "request_id": 3, "new_n": 12, "new_mu": 250.0,
     "new_sigma": 90.0, "idem": "client-key"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "obs", "dump": false}
    {"op": "snapshot"}
    {"op": "shutdown"}

Request payloads are the :mod:`repro.service.codec` request encoding, e.g.
``{"kind": "homogeneous", "n_vms": 8, "mean": 200.0, "std": 80.0}``.

One asyncio event loop owns every connection (:class:`AsyncFrontDoor`):
accept, read and JSON decode happen on the loop, so ten thousand idle
connections cost file descriptors, not threads.  The synchronous admission
core is reached through a bridge pool of :data:`DEFAULT_POOL_SIZE` threads,
and two rules keep it honest:

* **Never block the loop.**  Every call that can take the service lock (or
  sleep in a failpoint) runs in the pool via ``run_in_executor``.
* **Never park a pool thread on a wait.**  ``submit`` is two-phase: the
  enqueue runs in the pool with ``wait=False`` and the decision is awaited
  on the loop through an :class:`asyncio.Future` bridged from
  ``Ticket.add_done_callback`` — a thousand in-flight submits hold zero
  pool threads while the admission thread works.

Every other op goes through the op table (:func:`dispatch_command`) and
failures through one error envelope (:func:`error_response`).
``svc-repro serve`` wires the front door behind the CLI and prints a single
machine-readable ready line so scripts and tests can discover the bound
port::

    {"event": "ready", "host": "127.0.0.1", "port": 40123, "pid": 1234, ...}
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import json
import logging
import os
import signal
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.allocation.dispatch import ALLOCATOR_FACTORIES, allocator_by_name
from repro.experiments.config import SCALES
from repro.faults.failpoints import FAILPOINTS, FP_SERVER_RESPONSE, arm_from_spec
from repro.logconfig import LOG_LEVELS, setup_logging
from repro.manager.network_manager import NetworkManager
from repro.obs.flightrec import configure_flight_recorder, flight_recorder
from repro.obs.instruments import admission_instruments
from repro.obs.instruments import configure as configure_obs
from repro.obs.instruments import outage_monitor
from repro.service.client import DEFAULT_HOST, DEFAULT_PORT
from repro.service.codec import CodecError, count_from_wire, real_from_wire
from repro.service.concurrency import AdmissionService, Ticket
from repro.service.degrade import DegradationLadder
from repro.service.errors import ServiceError
from repro.service.journal import DurabilityStore
from repro.service.queue import MODE_ONLINE, MODES
from repro.service.recovery import recover_manager, snapshot_payload
from repro.topology.builder import build_datacenter

logger = logging.getLogger(__name__)

#: Threads bridging the event loop to the synchronous admission core.
DEFAULT_POOL_SIZE = 8


def error_response(exc: BaseException) -> Dict[str, Any]:
    """The ``ok: false`` envelope for one failed protocol op.

    Typed :class:`ServiceError` sheds keep their machine-readable ``code``
    and ``retry_after`` hint; codec errors surface their message; anything
    else is reported by exception type without killing the connection.
    """
    if isinstance(exc, ServiceError):
        response: Dict[str, Any] = {"ok": False, "error": str(exc)}
        if exc.code is not None:
            response["code"] = exc.code
        if exc.retry_after is not None:
            response["retry_after"] = exc.retry_after
        return response
    if isinstance(exc, CodecError):
        return {"ok": False, "error": str(exc)}
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _submit_command(
    service: AdmissionService, command: Dict[str, Any], wait: bool
) -> Ticket:
    """Enqueue the request of one ``submit`` command (blocking if ``wait``)."""
    return service.submit(
        command["request"],
        priority=int(command.get("priority", 0)),
        timeout_s=command.get("timeout_s"),
        wait=wait,
        wait_timeout=command.get("wait_timeout"),
        idempotency_key=command.get("idem"),
        tenant=command.get("tenant"),
    )


def dispatch_command(
    service: AdmissionService,
    command: Dict[str, Any],
    request_shutdown: Callable[[], None],
) -> Dict[str, Any]:
    """Execute one decoded protocol command against the service.

    This is the single source of truth for the op table: the front door
    calls it from its bridge pool (``submit`` excepted — the front door
    enqueues without blocking and awaits the ticket instead, see
    :meth:`AsyncFrontDoor._submit`).  Raises the typed service/codec
    errors; callers map them through :func:`error_response`.
    """
    op = command.get("op")
    # The degradation gate runs before any work: in fast-fail even
    # reads shed (with code + retry_after), keeping ping/shutdown as
    # the operator's lifeline.
    if isinstance(op, str):
        service.gate(op)
    if op == "ping":
        return {"ok": True, "pong": True, "state": service.degradation_state()}
    if op == "submit":
        ticket = _submit_command(service, command, wait=bool(command.get("wait", True)))
        return {"ok": True, **ticket.describe()}
    if op == "status":
        status = service.status(int(command["ticket"]))
        if status is None:
            return {"ok": False, "error": f"unknown ticket {command['ticket']}"}
        return {"ok": True, **status}
    if op == "release":
        released = service.release(int(command["request_id"]))
        if not released:
            return {
                "ok": False,
                "error": f"request {command['request_id']} is not active",
            }
        return {"ok": True, "released": int(command["request_id"])}
    if op == "resize":
        new_n = command.get("new_n")
        new_mu = command.get("new_mu")
        new_sigma = command.get("new_sigma")
        decision = service.resize(
            int(command["request_id"]),
            new_n=None if new_n is None else count_from_wire(new_n, "new_n"),
            new_mu=None if new_mu is None else real_from_wire(new_mu, "new_mu"),
            new_sigma=(
                None if new_sigma is None else real_from_wire(new_sigma, "new_sigma")
            ),
            idempotency_key=command.get("idem"),
        )
        if decision.get("outcome") == "unknown":
            return {
                "ok": False,
                "error": f"request {command['request_id']} is not active",
            }
        return {"ok": True, **decision}
    if op == "stats":
        return {"ok": True, "stats": service.stats()}
    if op == "metrics":
        return {"ok": True, **service.metrics()}
    if op == "obs":
        tracer = getattr(admission_instruments(), "tracer", None)
        recorder = flight_recorder()
        payload: Dict[str, Any] = {
            "pid": os.getpid(),
            "flight": recorder.events(limit=command.get("limit")),
            "traces": tracer.recent() if tracer is not None else [],
        }
        if command.get("dump"):
            payload["dump_path"] = recorder.maybe_dump("request")
        return {"ok": True, "obs": payload}
    if op == "snapshot":
        path = service.take_snapshot()
        if path is None:
            return {"ok": False, "error": "durability is not enabled"}
        return {"ok": True, "snapshot": path}
    if op == "shutdown":
        request_shutdown()
        return {"ok": True, "bye": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


class AsyncFrontDoor:
    """Asyncio accept/read/decode loop over one :class:`AdmissionService`.

    Construct, then ``await start()`` (binds and spins up the pool), then
    ``await serve_until_shutdown()``.  ``request_shutdown`` is thread-safe:
    protocol handlers call it from pool threads and signal handlers call it
    from the loop.
    """

    def __init__(
        self,
        service: AdmissionService,
        host: str = "127.0.0.1",
        port: int = 0,
        client_timeout: Optional[float] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.client_timeout = client_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop = asyncio.Event()
        self._shutdown_pending = False
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the bridge pool; updates ``port``."""
        self._loop = asyncio.get_running_loop()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=DEFAULT_POOL_SIZE, thread_name_prefix="aio-bridge"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        logger.info(
            "front door listening on %s:%d (pool=%d)",
            self.host, self.port, DEFAULT_POOL_SIZE,
        )

    async def serve_until_shutdown(self) -> None:
        """Serve connections until :meth:`request_shutdown` fires."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.start_serving()
            await self._stop.wait()
        # Listener closed; reap connections still parked on readline before
        # tearing down the pool they would otherwise try to schedule on.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._pool.shutdown(wait=False)

    def request_shutdown(self) -> None:
        """Stop serving immediately (callable from any thread).

        Signal handlers use this; the ``shutdown`` protocol op goes through
        :meth:`_defer_shutdown` instead so its ``bye`` response is flushed
        before the listener drops.
        """
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._stop.set)

    def _defer_shutdown(self) -> None:
        """Pool-side shutdown request: stop once the response is on the wire."""
        self._shutdown_pending = True

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if peer else "?"
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._stop.is_set():
                try:
                    if self.client_timeout is not None:
                        raw = await asyncio.wait_for(
                            reader.readline(), timeout=self.client_timeout
                        )
                    else:
                        raw = await reader.readline()
                except asyncio.TimeoutError:
                    logger.warning(
                        "peer=%s timed out mid-operation; closing connection",
                        peer_host,
                    )
                    break
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                response = await self._process(line)
                # Failpoint runs in the pool: a delay-mode stall must pin
                # this connection, not the shared event loop.
                await self._run_sync(FAILPOINTS.hit, FP_SERVER_RESPONSE)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if self._shutdown_pending:
                    self._stop.set()
                if response.get("bye"):
                    break
        except ConnectionError:
            pass  # peer vanished mid-read; nothing to answer
        except asyncio.CancelledError:
            # Shutdown reaps idle connections; completing normally keeps
            # asyncio's connection_made callback from logging the cancel.
            if not self._stop.is_set():
                raise
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _process(self, line: bytes) -> Dict[str, Any]:
        """Decode and execute one protocol line, mapping errors to envelopes."""
        try:
            command = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"malformed JSON: {exc.msg}"}
        op = command.get("op") if isinstance(command, dict) else None
        try:
            if op == "submit":
                return await self._submit(command)
            return await self._run_sync(
                dispatch_command, self.service, command, self._defer_shutdown
            )
        except (ServiceError, CodecError) as exc:
            return error_response(exc)
        except Exception as exc:  # never kill the connection on one bad op
            logger.warning("op=%s raised: %s", op, exc, exc_info=True)
            return error_response(exc)

    async def _submit(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Two-phase submit: pool-side enqueue, loop-side decision wait."""
        ticket: Ticket = await self._run_sync(self._enqueue, command)
        if bool(command.get("wait", True)) and not ticket.done:
            await self._await_ticket(ticket, command.get("wait_timeout"))
        return {"ok": True, **ticket.describe()}

    def _enqueue(self, command: Dict[str, Any]) -> Ticket:
        """Pool-side half of submit: enqueue without blocking on the decision."""
        self.service.gate("submit")  # same degradation gate as dispatch_command
        return _submit_command(self.service, command, wait=False)

    async def _await_ticket(
        self, ticket: Ticket, wait_timeout: Optional[float]
    ) -> None:
        """Await the admission decision without holding a pool thread.

        On timeout the request simply stays queued (the ``wait_timeout``
        contract of :meth:`AdmissionService.submit`) and the caller reports
        the ticket as queued.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()

        def _resolved(_ticket: Ticket) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(None)
            )

        ticket.add_done_callback(_resolved)
        try:
            if wait_timeout is not None:
                await asyncio.wait_for(asyncio.shield(future), float(wait_timeout))
            else:
                await future
        except asyncio.TimeoutError:
            pass

    async def _run_sync(self, fn, *args):
        """Run a blocking call on the bounded bridge pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn, *args
        )


# ----------------------------------------------------------------------
# ``svc-repro serve``
# ----------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svc-repro serve",
        description="Run the admission-control daemon over a simulated datacenter.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks an ephemeral port (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="datacenter topology to manage (default: small)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.05,
        help="SLA risk factor of Eq. (1) (default: 0.05)",
    )
    parser.add_argument(
        "--allocator",
        choices=sorted(ALLOCATOR_FACTORIES),
        default="default",
        help="allocation stack (default: the paper's system)",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=MODE_ONLINE,
        help="online = drop rejected requests; batch = park and retry on departures",
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=8,
        help="coalesce up to this many consecutive same-shape queued "
        "requests into one admission batch sharing DP tables; 1 disables "
        "(default: 8)",
    )
    parser.add_argument(
        "--batch-linger-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="with an empty queue and a non-full batch, wait this long for "
        "more same-shape arrivals before dispatching (default: 0)",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=0,
        help="per-tenant queue bound: shed a tenant's submits with "
        "code=over_quota beyond this many waiting; 0 disables (default: 0)",
    )
    parser.add_argument(
        "--tenant-weight",
        action="append",
        default=None,
        metavar="TENANT=W",
        help="deficit-round-robin weight for one tenant (repeatable), e.g. "
        "--tenant-weight gold=4 --tenant-weight batch=1",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="durability directory (WAL + snapshots); omit for in-memory only",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="journal records between automatic snapshots (default: 256)",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the journal on every append (durable against power loss)",
    )
    parser.add_argument(
        "--no-recover",
        action="store_true",
        help="ignore any existing journal instead of recovering from it",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="stderr log verbosity (default: info)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="record a full admission trace every N requests (default: 64)",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the observability layer (no-op instruments, bare endpoint)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="bounded-queue backpressure: shed submits beyond this many "
        "waiting requests; 0 disables the bound (default: 1024)",
    )
    parser.add_argument(
        "--default-timeout-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server-side deadline for submits that carry no timeout_s "
        "(default: none)",
    )
    parser.add_argument(
        "--client-timeout-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="drop connections idle/stalled longer than this (slow-client "
        "defense; default: none)",
    )
    parser.add_argument(
        "--probe-interval-s",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="base interval between journal health probes while degraded "
        "(default: 1.0)",
    )
    parser.add_argument(
        "--failpoints",
        default=None,
        metavar="SPEC",
        help="arm fault-injection failpoints, e.g. "
        "'journal.write=error:p=0.01,snapshot.write=corrupt' "
        "(testing/chaos only; crashes exit the process)",
    )
    return parser


def _parse_tenant_weights(specs: Optional[List[str]]) -> Optional[Dict[str, int]]:
    """Parse repeated ``--tenant-weight TENANT=W`` flags into a dict."""
    if not specs:
        return None
    weights: Dict[str, int] = {}
    for spec in specs:
        tenant, sep, raw = spec.partition("=")
        if not sep or not tenant:
            raise SystemExit(
                f"--tenant-weight expects TENANT=WEIGHT, got {spec!r}"
            )
        try:
            weights[tenant] = int(raw)
        except ValueError:
            raise SystemExit(
                f"--tenant-weight {spec!r}: weight must be an integer"
            ) from None
    return weights


def _build_service(args: argparse.Namespace) -> AdmissionService:
    store: Optional[DurabilityStore] = None
    epsilon = args.epsilon
    scale_name = args.scale
    recovered = None
    if args.journal_dir is not None:
        store = DurabilityStore(
            Path(args.journal_dir),
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )
        config = store.read_config()
        if config is not None and not args.no_recover:
            # The journal is only replayable over the topology it was
            # recorded against: persisted config wins over the flags.
            if config.get("scale", scale_name) != scale_name:
                logger.warning(
                    "journal was recorded at scale %r; overriding --scale %r",
                    config["scale"], scale_name,
                )
            scale_name = config.get("scale", scale_name)
            if float(config.get("epsilon", epsilon)) != epsilon:
                logger.warning(
                    "journal was recorded with epsilon %s; overriding --epsilon %s",
                    config["epsilon"], epsilon,
                )
            epsilon = float(config.get("epsilon", epsilon))
        store.write_config(
            {"scale": scale_name, "epsilon": epsilon, "mode": args.mode}
        )
    tree = build_datacenter(SCALES[scale_name].spec)
    allocator = allocator_by_name(args.allocator)
    if store is not None and not args.no_recover:
        manager, report = recover_manager(store, tree, epsilon=epsilon, allocator=allocator)
        recovered = report
        if report.replayed_records or report.used_snapshot:
            logger.info(
                "recovered: snapshot seq %s, %d journal records replayed "
                "(%d admits, %d releases), %d active tenancies, "
                "%d idempotency key(s) indexed",
                report.snapshot_seq, report.replayed_records,
                report.admits_replayed, report.releases_replayed,
                manager.active_tenancies, len(report.idempotency_index),
            )
            # Checkpoint the recovered state so the next crash replays only
            # the delta, then keep journaling after the recovered prefix.
            store.write_snapshot(snapshot_payload(manager))
    else:
        manager = NetworkManager(tree, epsilon=epsilon, allocator=allocator)
    service = AdmissionService(
        manager,
        store=store,
        mode=args.mode,
        max_queue_depth=args.max_queue or None,
        default_timeout_s=args.default_timeout_s,
        degradation=(
            DegradationLadder(probe_interval=args.probe_interval_s)
            if store is not None
            else None
        ),
        idempotency_index=recovered.idempotency_index if recovered else None,
        batch_max=args.batch_max,
        batch_linger_s=args.batch_linger_ms / 1000.0,
        tenant_quota=args.tenant_quota or None,
        tenant_weights=_parse_tenant_weights(args.tenant_weight),
    )
    # Publish the SLA bound so the empirical-outage gauges compare against
    # the epsilon this daemon actually guarantees (Eq. 1).
    outage_monitor().set_epsilon(epsilon)
    service.recovery_report = recovered  # type: ignore[attr-defined]
    service.effective_scale = scale_name  # type: ignore[attr-defined]
    return service


def announce_ready(
    service: AdmissionService, args: argparse.Namespace, host: str, port: int
) -> None:
    """Print the machine-readable ready line on stdout.

    The ready line is protocol output, not logging: it must stay the first
    (and only) line scripts see on stdout.
    """
    ready = {
        "event": "ready",
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "scale": service.effective_scale,
        "mode": args.mode,
        "epsilon": service.manager.epsilon,
        "journal_dir": args.journal_dir,
    }
    report = service.recovery_report
    if report is not None:
        ready["recovered_records"] = report.replayed_records
        ready["active_tenancies"] = service.manager.active_tenancies
    sys.stdout.write(json.dumps(ready) + "\n")
    sys.stdout.flush()


def final_shutdown(service: AdmissionService) -> None:
    """Teardown: stop the admission thread, checkpoint, close the journal."""
    service.stop()
    if service.store is not None:
        # A clean shutdown checkpoints, so restart needs no replay.
        service.store.write_snapshot(snapshot_payload(service.manager))
        service.store.close()
    logger.info("server stopped")


def dump_flight_on_sigusr2() -> None:
    path = flight_recorder().maybe_dump("sigusr2")
    logger.info("flight recorder dump: %s", path or "skipped (no --journal-dir)")


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``svc-repro serve``."""
    args = build_serve_parser().parse_args(argv)
    setup_logging(args.log_level)
    if args.no_metrics:
        configure_obs(enabled=False)
    elif args.trace_sample is not None:
        configure_obs(sample_every=args.trace_sample)
    if args.failpoints:
        # A real daemon dies on a crash-mode failpoint (os._exit), unlike
        # the in-process chaos harness which catches InjectedCrash.
        FAILPOINTS.crash_mode = "exit"
        armed = arm_from_spec(args.failpoints)
        logger.warning("fault injection armed: %d failpoint(s)", armed)
    service = _build_service(args)
    if args.journal_dir is not None:
        # Crash/degradation/SIGUSR2 flight dumps land next to the journal.
        configure_flight_recorder(dump_dir=args.journal_dir)

    async def _main() -> None:
        door = AsyncFrontDoor(
            service,
            host=args.host,
            port=args.port,
            client_timeout=args.client_timeout_s,
        )
        await door.start()
        service.start()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, door.request_shutdown)
            loop.add_signal_handler(signal.SIGINT, door.request_shutdown)
            loop.add_signal_handler(signal.SIGUSR2, dump_flight_on_sigusr2)
        except (NotImplementedError, AttributeError, ValueError):
            pass  # platform without loop signal support
        announce_ready(service, args, door.host, door.port)
        await door.serve_until_shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        final_shutdown(service)
    return 0
