"""``svc-repro obs`` — collect observability dumps from running services.

One action for now, ``dump``: gather the flight-recorder ring and recent
traces either from a **live daemon** (over the ``obs`` TCP op, which stays
reachable even in fast-fail degradation) or from **disk** (``--workdir``
collects every ``flight-*.json`` a crashed or degraded process auto-dumped
under a directory tree — the post-mortem path when nothing answers).

Examples::

    svc-repro obs dump --port 40123
    svc-repro obs dump --port 40123 --write        # also dump server-side
    svc-repro obs dump --workdir /var/lib/svc --out triage.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.logconfig import LOG_LEVELS, setup_logging
from repro.service.client import DEFAULT_HOST, DEFAULT_PORT


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svc-repro obs",
        description=(
            "Collect flight-recorder events and recent traces from a live "
            "daemon or from on-disk flight dumps."
        ),
    )
    parser.add_argument(
        "action", choices=["dump"],
        help="dump = collect the flight ring + recent traces",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="server address")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="server port")
    parser.add_argument(
        "--workdir", type=Path, default=None, metavar="DIR",
        help="collect flight-*.json dumps under this directory tree instead "
        "of querying a daemon (post-mortem mode)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="daemon mode: also ask the server to persist its ring to disk",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the collected JSON here instead of stdout",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning",
        help="stderr log verbosity (default: warning)",
    )
    return parser


def collect_disk_dumps(workdir: Path) -> Dict[str, Any]:
    """Every ``flight-*.json`` under ``workdir``, newest last per file name.

    Unreadable files are reported, not fatal — a half-written dump from a
    crashing process must not block triage of the readable ones.
    """
    dumps: List[Dict[str, Any]] = []
    errors: List[Dict[str, str]] = []
    for path in sorted(workdir.rglob("flight-*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            errors.append({"path": str(path), "error": str(exc)})
            continue
        payload["path"] = str(path)
        dumps.append(payload)
    report: Dict[str, Any] = {"source": str(workdir), "dumps": dumps}
    if errors:
        report["errors"] = errors
    return report


def obs_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``svc-repro obs``."""
    args = build_obs_parser().parse_args(argv)
    setup_logging(args.log_level)
    if args.workdir is not None:
        if not args.workdir.is_dir():
            sys.stderr.write(f"svc-repro obs: no such directory {args.workdir}\n")
            return 2
        report = collect_disk_dumps(args.workdir)
    else:
        from repro.service.client import ServiceClient

        try:
            with ServiceClient(host=args.host, port=args.port) as client:
                report = client.obs(dump=args.write)
        except (ConnectionError, OSError) as exc:
            sys.stderr.write(
                f"svc-repro obs: cannot reach {args.host}:{args.port} ({exc})\n"
            )
            return 1
    text = json.dumps(report, indent=2, default=str)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
        sys.stderr.write(f"svc-repro obs: written {args.out}\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(obs_main())
