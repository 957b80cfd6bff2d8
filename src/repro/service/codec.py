"""JSON codecs for the admission service.

Everything the service persists (journal records, snapshots) or ships over
the wire (requests, stats) is plain JSON built from these converters.  Two
properties matter:

* **Round-trip fidelity** — ``x_from_dict(x_to_dict(v))`` reconstructs an
  equal value, so journal replay re-commits the exact allocation the live
  manager committed (field-for-field identical link state after recovery).
* **Canonical keys** — JSON objects key by string; integer ids are converted
  on the way out and back, and :func:`network_state_to_dict` emits a stable
  canonical form usable both as a snapshot payload and as a state
  fingerprint for equality checks in tests.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.abstractions.requests import (
    DeterministicVC,
    HeterogeneousSVC,
    HomogeneousSVC,
    VirtualClusterRequest,
)
from repro.allocation.base import Allocation
from repro.network.link_state import NetworkState
from repro.stochastic.normal import Normal


class CodecError(ValueError):
    """A payload could not be decoded (unknown kind, missing field, ...)."""


def count_from_wire(value: Any, name: str) -> int:
    """A VM count off the wire: an integer, or an integral float like ``4.0``.

    Bools and fractional values are rejected rather than truncated
    (``int(2.9) == 2`` and ``int(True) == 1`` would silently resize a
    tenant's request).
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise CodecError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real_from_wire(value: Any, name: str) -> float:
    """A finite number off the wire; bools, NaN and infinities are rejected."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise CodecError(f"{name} must be a finite number, got {value!r}")
    return float(value)


# ----------------------------------------------------------------------
# Normal
# ----------------------------------------------------------------------


def normal_to_dict(demand: Normal) -> Dict[str, float]:
    return {"mean": demand.mean, "std": demand.std}


def normal_from_dict(payload: Dict[str, Any]) -> Normal:
    try:
        return Normal(
            real_from_wire(payload["mean"], "mean"),
            real_from_wire(payload["std"], "std"),
        )
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed normal payload: {payload!r}") from exc


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

_KIND_DETERMINISTIC = "deterministic"
_KIND_HOMOGENEOUS = "homogeneous"
_KIND_HETEROGENEOUS = "heterogeneous"


def request_to_dict(request: VirtualClusterRequest) -> Dict[str, Any]:
    """Serialize any of the three request abstractions."""
    if isinstance(request, DeterministicVC):
        return {
            "kind": _KIND_DETERMINISTIC,
            "n_vms": request.n_vms,
            "bandwidth": request.bandwidth,
        }
    if isinstance(request, HomogeneousSVC):
        return {
            "kind": _KIND_HOMOGENEOUS,
            "n_vms": request.n_vms,
            "mean": request.mean,
            "std": request.std,
        }
    if isinstance(request, HeterogeneousSVC):
        return {
            "kind": _KIND_HETEROGENEOUS,
            "n_vms": request.n_vms,
            "demands": [normal_to_dict(d) for d in request.demands],
        }
    raise CodecError(f"unsupported request type {type(request).__name__}")


def request_shape_key(request: VirtualClusterRequest) -> Tuple[Any, ...]:
    """Coalescing key for the admission batcher.

    Two requests with equal shape keys take the same allocator path with the
    same per-request DP inputs (type, VM count, demand moments), so their
    vertex tables are interchangeable and one shared batch context may serve
    both.  Requests whose keys differ must never share a context.
    """
    if isinstance(request, DeterministicVC):
        return (_KIND_DETERMINISTIC, request.n_vms, request.bandwidth)
    if isinstance(request, HomogeneousSVC):
        return (_KIND_HOMOGENEOUS, request.n_vms, request.mean, request.std)
    if isinstance(request, HeterogeneousSVC):
        return (
            _KIND_HETEROGENEOUS,
            request.n_vms,
            tuple((d.mean, d.std) for d in request.demands),
        )
    raise CodecError(f"unsupported request type {type(request).__name__}")


def request_from_dict(payload: Dict[str, Any]) -> VirtualClusterRequest:
    """Decode a request payload, validating through the dataclass checks."""
    if not isinstance(payload, dict):
        raise CodecError(f"request payload must be an object, got {type(payload).__name__}")
    kind = payload.get("kind")
    try:
        if kind == _KIND_DETERMINISTIC:
            return DeterministicVC(
                n_vms=count_from_wire(payload["n_vms"], "n_vms"),
                bandwidth=real_from_wire(payload["bandwidth"], "bandwidth"),
            )
        if kind == _KIND_HOMOGENEOUS:
            return HomogeneousSVC(
                n_vms=count_from_wire(payload["n_vms"], "n_vms"),
                mean=real_from_wire(payload["mean"], "mean"),
                std=real_from_wire(payload["std"], "std"),
            )
        if kind == _KIND_HETEROGENEOUS:
            return HeterogeneousSVC(
                n_vms=count_from_wire(payload["n_vms"], "n_vms"),
                demands=tuple(normal_from_dict(d) for d in payload["demands"]),
            )
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed {kind!r} request payload: {exc}") from exc
    raise CodecError(f"unknown request kind {kind!r}")


# ----------------------------------------------------------------------
# Allocations
# ----------------------------------------------------------------------


def allocation_to_dict(allocation: Allocation) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "request": request_to_dict(allocation.request),
        "request_id": allocation.request_id,
        "host_node": allocation.host_node,
        "machine_counts": {
            str(machine): count
            for machine, count in sorted(allocation.machine_counts.items())
        },
        "link_demands": {
            str(link): normal_to_dict(demand)
            for link, demand in sorted(allocation.link_demands.items())
        },
        "max_occupancy": (
            None if math.isnan(allocation.max_occupancy) else allocation.max_occupancy
        ),
    }
    if allocation.machine_vms is not None:
        payload["machine_vms"] = {
            str(machine): list(vms)
            for machine, vms in sorted(allocation.machine_vms.items())
        }
    return payload


def allocation_from_dict(payload: Dict[str, Any]) -> Allocation:
    try:
        machine_vms: Optional[Dict[int, tuple]] = None
        if "machine_vms" in payload:
            machine_vms = {
                int(machine): tuple(int(vm) for vm in vms)
                for machine, vms in payload["machine_vms"].items()
            }
        max_occupancy = payload.get("max_occupancy")
        return Allocation(
            request=request_from_dict(payload["request"]),
            request_id=int(payload["request_id"]),
            host_node=int(payload["host_node"]),
            machine_counts={
                int(machine): int(count)
                for machine, count in payload["machine_counts"].items()
            },
            link_demands={
                int(link): normal_from_dict(demand)
                for link, demand in payload["link_demands"].items()
            },
            machine_vms=machine_vms,
            max_occupancy=float("nan") if max_occupancy is None else float(max_occupancy),
        )
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed allocation payload: {exc}") from exc


# ----------------------------------------------------------------------
# Network state fingerprint
# ----------------------------------------------------------------------


def network_state_to_dict(state: NetworkState) -> Dict[str, Any]:
    """Canonical, JSON-ready description of the full reservation state.

    Contains every field the admission machinery reads — per-machine free
    slots and, per link, each resident request's deterministic reservation
    and stochastic demand moments.  Two states with equal dicts are
    indistinguishable to every allocator and occupancy query, which is the
    "field-for-field" equality the recovery tests assert.
    """
    links: Dict[str, Any] = {}
    for link_id in sorted(state.links):
        link_state = state.links[link_id]
        entry: Dict[str, Any] = {}
        deterministic = {
            str(rid): amount for rid, amount in sorted(link_state.deterministic_entries())
        }
        stochastic = {
            str(rid): normal_to_dict(demand)
            for rid, demand in sorted(link_state.stochastic_entries())
        }
        if deterministic:
            entry["deterministic"] = deterministic
        if stochastic:
            entry["stochastic"] = stochastic
        if entry:
            links[str(link_id)] = entry
    return {
        "epsilon": state.epsilon,
        "free_slots": {
            str(machine): state.free_slots(machine)
            for machine in sorted(state.tree.machine_ids)
        },
        "links": links,
    }
