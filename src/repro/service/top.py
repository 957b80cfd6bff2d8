"""``svc-repro top`` — a live terminal view of a running admission daemon.

Polls the ``stats`` and ``metrics`` endpoints of one server and renders a
compact dashboard: throughput counters, queue depth, admission latency,
per-level occupancy ``O_L`` and headroom, DP table-cache hit rates, phase
timings and the empirical-outage health of the Eq. (1) guarantee.

The polling loop survives transient connection loss: a dropped or refused
connection prints a ``reconnecting`` status line and retries on the next
refresh, up to ``--max-reconnects`` consecutive failures — so a daemon
restart does not kill the operator's dashboard.

``--cluster SNAPSHOT`` renders a *federated* cluster snapshot instead (the
JSON that ``svc-repro cluster --metrics-out`` writes): per-shard Eq. (6)
occupancy, outage monitors, the coordinator's core-link ledger and each
shard's degradation state in one frame.

Rendering is a pure function of the payloads (:func:`render_top`,
:func:`render_cluster_top`), so tests exercise it without a terminal;
:func:`top_main` adds the polling loop and ANSI screen handling.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.logconfig import LOG_LEVELS, setup_logging
from repro.service.client import DEFAULT_HOST, DEFAULT_PORT, ServiceClient

_CLEAR = "\x1b[2J\x1b[H"


def _series(metrics: Dict[str, Any], family: str) -> List[Dict[str, Any]]:
    return metrics.get(family, {}).get("series", [])


def _value(metrics: Dict[str, Any], family: str, **labels: str) -> Optional[Any]:
    wanted = {str(k): str(v) for k, v in labels.items()}
    for entry in _series(metrics, family):
        if entry.get("labels", {}) == wanted:
            return entry.get("value")
    return None


def _fmt_rate(hits: float, lookups: float) -> str:
    if not lookups:
        return "    –"
    return f"{100.0 * hits / lookups:4.1f}%"


def _fmt_ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "     –"
    return f"{1000.0 * seconds:6.2f}"


def render_top(stats: Dict[str, Any], metrics: Dict[str, Any]) -> str:
    """One dashboard frame from a ``stats`` and a ``metrics`` JSON payload."""
    lines: List[str] = []
    counters = stats.get("counters", {})
    queue = stats.get("queue", {})
    latency = stats.get("admission_latency", {})
    slots = stats.get("slots", {})
    degradation = stats.get("degradation", {})
    state = degradation.get("state", "full")
    state_note = ""
    if state != "full":
        state_note = (
            f"  failures={degradation.get('consecutive_failures', 0)}"
            f"  retry_after={degradation.get('retry_after_s', 0.0):.1f}s"
        )
    lines.append(
        f"svc-repro top — mode={stats.get('mode')} "
        f"uptime={stats.get('uptime_s', 0.0):.0f}s"
    )
    lines.append(
        f"degradation {state.upper()}"
        f" (transitions={degradation.get('transitions', 0)})" + state_note
    )
    lines.append(
        f"tenants {stats.get('active_tenancies', 0):>5}   "
        f"slots {slots.get('used', 0)}/{slots.get('total', 0)} used   "
        f"queue ready={queue.get('ready', 0)} parked={queue.get('parked', 0)}"
        + (f" limit={queue['limit']}" if queue.get("limit") else "")
    )
    lines.append(
        "requests "
        + "  ".join(
            f"{name}={counters.get(name, 0)}"
            for name in (
                "submitted", "admitted", "rejected", "expired", "released",
                "errors", "shed",
            )
        )
        + f"  rejection_rate={stats.get('rejection_rate', 0.0):.3f}"
    )
    lines.append(
        f"latency(ms) p50={latency.get('p50_ms', 0.0):.2f} "
        f"p90={latency.get('p90_ms', 0.0):.2f} p99={latency.get('p99_ms', 0.0):.2f} "
        f"mean={latency.get('mean_ms', 0.0):.2f} "
        f"(window {latency.get('window', 0)}/{latency.get('window_limit', 0)})"
    )

    lines.append("")
    lines.append("level         links  mean-occ   max-occ  headroom(avg/min Mbps)")
    for row in stats.get("occupancy", {}).get("by_level", []):
        label = str(row.get("label", row.get("level")))
        mean_headroom = _value(
            metrics, "repro_network_headroom_mbps", level=label, stat="mean"
        )
        min_headroom = _value(
            metrics, "repro_network_headroom_mbps", level=label, stat="min"
        )
        headroom = (
            f"{mean_headroom:9.1f} /{min_headroom:9.1f}"
            if mean_headroom is not None and min_headroom is not None
            else "        – /        –"
        )
        lines.append(
            f"{label:12s}  {row.get('links', 0):5d}  {row.get('mean_occupancy', 0.0):8.3f}  "
            f"{row.get('max_occupancy', 0.0):8.3f}  {headroom}"
        )

    cache_lines = []
    for cache in ("machine", "vertex"):
        lookups = _value(metrics, "repro_admission_cache_lookups_total", cache=cache)
        hits = _value(metrics, "repro_admission_cache_hits_total", cache=cache)
        if lookups is not None:
            cache_lines.append(
                f"{cache}={_fmt_rate(float(hits or 0.0), float(lookups))}"
            )
    if cache_lines:
        lines.append("")
        lines.append("DP table-cache hit rate  " + "  ".join(cache_lines))

    phase_rows = []
    for entry in _series(metrics, "repro_admission_phase_seconds"):
        value = entry.get("value") or {}
        if value.get("count"):
            phase_rows.append(
                f"  {entry['labels'].get('phase', '?'):16s} "
                f"n={value['count']:<6d} mean={_fmt_ms(value.get('mean'))}ms "
                f"p90={_fmt_ms(value.get('p90'))}ms"
            )
    if phase_rows:
        lines.append("admission phases (sampled traces)")
        lines.extend(phase_rows)

    outage = _value(metrics, "repro_outage_empirical_rate")
    epsilon = _value(metrics, "repro_outage_epsilon")
    if outage is not None:
        verdict = ""
        if epsilon:
            verdict = "  OK" if outage <= epsilon else "  VIOLATED"
        lines.append("")
        lines.append(
            f"empirical outage rate {outage:.5f} vs epsilon "
            f"{epsilon if epsilon is not None else '–'}{verdict}"
        )
    return "\n".join(lines)


_DEGRADATION_NAMES = {0: "full", 1: "read_only", 2: "fast_fail"}


def render_cluster_top(payload: Dict[str, Any]) -> str:
    """One frame from a federated cluster snapshot (``cluster_metrics()``).

    ``payload`` carries the merged registry (series labelled per shard),
    the coordinator's ``stats()`` and the per-shard summaries — everything
    needed for the per-shard Eq. (6) occupancy / outage / degradation rows.
    """
    metrics = payload.get("metrics", {})
    meta = payload.get("meta", {})
    stats = payload.get("stats", {})
    shard_stats = payload.get("shard_stats", [])
    lines: List[str] = []
    lines.append(
        f"svc-repro top — cluster: {stats.get('shards', len(shard_stats))} shard(s), "
        f"{meta.get('families', 0)} metric families federated"
    )
    lines.append(
        f"admitted {stats.get('admitted_total', 0)}  "
        f"rejected {stats.get('rejected_total', 0)}  "
        f"active {stats.get('active_tenancies', 0)}  "
        f"pending reservations {stats.get('pending_reservations', 0)}"
    )
    core = stats.get("core_occupancy", {}) or {}
    if core:
        lines.append(
            f"core-link ledger: {len(core)} link(s), max occupancy "
            f"{max(core.values()):.3f}, replica max "
            f"{stats.get('replica_max_occupancy', 0.0):.3f}"
        )
    lines.append("")
    lines.append(
        "shard  free/total slots  queue  tenants  occ(Eq.6)  degradation   outage"
    )
    for row in shard_stats:
        shard = str(row.get("shard"))
        state_value = _value(
            metrics, "repro_service_degradation_state", shard=shard
        )
        state = (
            _DEGRADATION_NAMES.get(int(state_value), "?")
            if state_value is not None
            else "–"
        )
        outage = _value(metrics, "repro_outage_empirical_rate", shard=shard)
        outage_text = f"{outage:.5f}" if outage is not None else "      –"
        crashed = "  CRASHED" if row.get("crashed") else ""
        lines.append(
            f"{shard:>5}  {row.get('free_slots', 0):>7}/{row.get('total_slots', 0):<6}  "
            f"{row.get('queue_depth', 0):>5}  {row.get('active_tenancies', 0):>7}  "
            f"{row.get('max_occupancy', 0.0):>9.3f}  {state:>11}  {outage_text:>7}"
            f"{crashed}"
        )
    scrapes_ok = _value(
        metrics, "repro_cluster_federation_scrapes_total",
        outcome="ok", shard="coordinator",
    )
    scrapes_err = _value(
        metrics, "repro_cluster_federation_scrapes_total",
        outcome="error", shard="coordinator",
    )
    span_rows = []
    for origin in ("coordinator", "shard"):
        spans = _value(
            metrics, "repro_cluster_trace_spans_total",
            origin=origin, shard="coordinator",
        )
        if spans:
            span_rows.append(f"{origin}={spans:.0f}")
    lines.append("")
    lines.append(
        f"federation scrapes ok={scrapes_ok or 0:.0f} error={scrapes_err or 0:.0f}"
        + (f"   trace spans {' '.join(span_rows)}" if span_rows else "")
    )
    return "\n".join(lines)


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svc-repro top",
        description="Continuously display metrics of a running admission daemon.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="server address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="server port")
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after this many frames (0 = run until interrupted)",
    )
    parser.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )
    parser.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing the screen",
    )
    parser.add_argument(
        "--max-reconnects",
        type=int,
        default=3,
        metavar="N",
        help="give up after this many consecutive connection failures "
        "(default: 3)",
    )
    parser.add_argument(
        "--cluster",
        metavar="SNAPSHOT",
        default=None,
        help="render a federated cluster snapshot JSON file (from "
        "'svc-repro cluster --metrics-out') instead of polling a daemon",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning",
        help="stderr log verbosity (default: warning)",
    )
    return parser


def _cluster_top(args: argparse.Namespace) -> int:
    """``--cluster``: render frames from a federated snapshot file."""
    iterations = 1 if args.once else args.iterations
    rendered = 0
    path = Path(args.cluster)
    while True:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"svc-repro top: cannot read {path} ({exc})\n")
            return 1
        if not args.no_clear and not args.once:
            sys.stdout.write(_CLEAR)
        sys.stdout.write(render_cluster_top(payload) + "\n")
        sys.stdout.flush()
        rendered += 1
        if iterations and rendered >= iterations:
            return 0
        time.sleep(args.interval)


def top_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``svc-repro top``."""
    args = build_top_parser().parse_args(argv)
    setup_logging(args.log_level)
    try:
        if args.cluster is not None:
            return _cluster_top(args)
        iterations = 1 if args.once else args.iterations
        rendered = 0
        failures = 0
        client: Optional[ServiceClient] = None
        try:
            while True:
                try:
                    if client is None:
                        client = ServiceClient(host=args.host, port=args.port)
                    stats = client.stats()
                    metrics = client.metrics()["metrics"]
                    failures = 0
                except (ConnectionError, OSError) as exc:
                    # One dead refresh must not kill the dashboard: the
                    # daemon may be mid-restart.  Drop the broken client,
                    # report, and retry on the next tick — bounded so a
                    # permanently-gone server still fails the command.
                    if client is not None:
                        client.close()
                        client = None
                    failures += 1
                    if failures > max(0, args.max_reconnects):
                        sys.stderr.write(
                            f"svc-repro top: cannot reach "
                            f"{args.host}:{args.port} ({exc})\n"
                        )
                        return 1
                    sys.stdout.write(
                        f"svc-repro top: connection lost ({exc}); reconnecting "
                        f"[{failures}/{args.max_reconnects}]\n"
                    )
                    sys.stdout.flush()
                    time.sleep(args.interval)
                    continue
                frame = render_top(stats, metrics)
                if not args.no_clear and not args.once:
                    sys.stdout.write(_CLEAR)
                sys.stdout.write(frame + "\n")
                sys.stdout.flush()
                rendered += 1
                if iterations and rendered >= iterations:
                    return 0
                time.sleep(args.interval)
        finally:
            if client is not None:
                client.close()
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(top_main())
