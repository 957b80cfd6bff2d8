"""Correctness checks of a run's outputs.  Each returns a :class:`Check`."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from common import decision_digest


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def decisions_match(observed: Sequence[Any], replayed: Sequence[Any]) -> Check:
    """The daemon's admit/reject sequence equals the in-process replay's."""
    ours, theirs = decision_digest(observed), decision_digest(replayed)
    if ours == theirs:
        return Check("decisions_match_replay", True, f"{len(observed)} decisions, digest {ours}")
    first = next(
        (i for i, (a, b) in enumerate(zip(observed, replayed)) if a != b),
        min(len(observed), len(replayed)),
    )
    return Check(
        "decisions_match_replay", False,
        f"digest {ours} != replay {theirs}; first difference at decision {first}",
    )


def allocations_match(daemon: Iterable[Dict[str, Any]], replay: Iterable[Dict[str, Any]]) -> Check:
    """The daemon's final link-state fingerprint equals the replay's."""
    ours = decision_digest(sorted(daemon, key=lambda a: a["request_id"]))
    theirs = decision_digest(sorted(replay, key=lambda a: a["request_id"]))
    return Check("link_state_matches_replay", ours == theirs, f"fingerprint {ours} vs {theirs}")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def levels_match(name: str, before: Sequence[Dict[str, Any]], after: Sequence[Dict[str, Any]]) -> Check:
    """Per-level link occupancy (mean and max over each level's links) agree."""
    if len(before) != len(after):
        return Check(name, False, f"{len(before)} levels vs {len(after)}")
    for row_a, row_b in zip(before, after):
        for field in ("links", "mean_occupancy", "max_occupancy"):
            if not _close(float(row_a[field]), float(row_b[field])):
                return Check(
                    name, False,
                    f"level {row_a['level']} {field}: {row_a[field]} vs {row_b[field]}",
                )
    return Check(name, True, f"{len(before)} levels agree")


def occupancy_below_one(name: str, occupancies: Dict[str, float]) -> Check:
    """Eq. 6: O_L < 1 on every link (or every summary given)."""
    worst = max(occupancies.values(), default=0.0)
    where = max(occupancies, key=occupancies.get) if occupancies else "-"
    return Check(name, worst < 1.0, f"max O_L {worst:.4f} at {where}")


def recovery_matches(
    before: Dict[str, Any],
    after: Dict[str, Any],
    expected_active: Iterable[int],
    recovered_active: Iterable[int],
) -> List[Check]:
    """The restarted daemon holds exactly the pre-kill state."""
    expected, recovered = set(expected_active), set(recovered_active)
    checks = [
        Check(
            "recovered_tenancies",
            before["active_tenancies"] == after["active_tenancies"],
            f"{before['active_tenancies']} before, {after['active_tenancies']} after",
        ),
        Check(
            "recovered_slots",
            before["slots"]["used"] == after["slots"]["used"],
            f"{before['slots']['used']} used before, {after['slots']['used']} after",
        ),
        levels_match(
            "recovered_link_occupancy",
            before["occupancy"]["by_level"],
            after["occupancy"]["by_level"],
        ),
    ]
    missing, extra = sorted(expected - recovered), sorted(recovered - expected)
    checks.append(
        Check(
            "acked_admits_active",
            not missing and not extra,
            f"{len(expected)} expected; missing {missing[:5]}, unexpected {extra[:5]}",
        )
    )
    return checks


def latest_snapshot(journal_dir: Path) -> Optional[Dict[str, Any]]:
    """The newest snapshot's state payload in a journal directory."""
    snapshots = []
    for path in journal_dir.glob("snapshot-*.json"):
        try:
            snapshots.append((int(path.stem.split("-", 1)[1]), path))
        except ValueError:
            continue
    for _seq, path in sorted(snapshots, reverse=True):
        try:
            return json.loads(path.read_text(encoding="utf-8"))["state"]
        except (OSError, ValueError, KeyError):
            continue
    return None


def tenancy_accounting(admitted: int, released: int, active: int) -> Check:
    return Check(
        "admitted_minus_released_is_active",
        admitted - released == active,
        f"{admitted} admitted - {released} released vs {active} active",
    )


def generator_healthy(late_ms_p99: float, threads: int, connections: int, nproc: int,
                      limit_ms: float) -> Check:
    ok = late_ms_p99 <= limit_ms and threads <= nproc and connections <= nproc
    return Check(
        "generator_healthy", ok,
        f"late p99 {late_ms_p99:.2f} ms (limit {limit_ms}), {threads} thread(s), "
        f"{connections} connection(s), nproc {nproc}",
    )


def all_ok(checks: Sequence[Check]) -> bool:
    return all(check.ok for check in checks)
