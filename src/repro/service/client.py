"""Blocking line-JSON client for the admission service.

Thin, dependency-free wrapper over one TCP connection.  Each call writes a
single JSON line and reads a single JSON response line; instances are not
thread-safe (use one client per thread — the server is happy to hold many
connections).

    with ServiceClient(port=port) as client:
        reply = client.submit(HomogeneousSVC(n_vms=8, mean=200.0, std=80.0))
        if reply["outcome"] == "admitted":
            client.release(reply["request_id"])

``ok: false`` responses raise typed subclasses of :class:`ServiceError`
(:class:`OverloadedError`, :class:`DegradedError`, ...) keyed off the
response ``code``, each carrying the server's ``retry_after`` hint.

:meth:`ServiceClient.submit_with_retry` adds the full client-side fault
story: exponential backoff with seeded jitter (:class:`RetryPolicy`),
automatic reconnect after connection loss, honoring ``retry_after`` hints,
and an idempotency key generated per logical request — so a retry after a
lost ack returns the server's original decision instead of double-admitting
(see DESIGN.md §7).
"""

from __future__ import annotations

import json
import random
import socket
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Union

from repro.abstractions.requests import VirtualClusterRequest
from repro.service.codec import request_to_dict
from repro.service.errors import (
    CODE_DEADLINE,
    RETRYABLE_CODES,
    DeadlineExceededError,
    DegradedError,
    OverloadedError,
    OverQuotaError,
    RetryExhaustedError,
    ServiceError,
    error_from_response,
)

__all__ = [
    "ServiceClient",
    "ServiceError",
    "OverloadedError",
    "OverQuotaError",
    "DegradedError",
    "DeadlineExceededError",
    "RetryExhaustedError",
    "RetryPolicy",
]

#: Where ``svc-repro serve`` listens by default (and so where clients look).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421

#: Submit outcomes worth retrying with the same idempotency key: the
#: server rolled the attempt back (``error``) or never decided it yet
#: (``queued`` after a bounded wait).
_RETRYABLE_OUTCOMES = frozenset({"error", "queued"})


@dataclass
class RetryPolicy:
    """Exponential backoff + jitter schedule for :meth:`submit_with_retry`.

    ``seed`` makes the jitter deterministic (tests assert the exact
    schedule); the default ``None`` seeds from the system RNG.  The delay
    before attempt ``n+1`` is ``min(max_delay, base_delay * multiplier**n)``
    scaled by a jitter factor uniform in ``[1-jitter, 1+jitter]``, but
    never less than the server's ``retry_after`` hint when one was given.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    #: Overall wall-clock budget across all attempts (None = unbounded).
    deadline_s: Optional[float] = None
    retry_codes: FrozenSet[str] = RETRYABLE_CODES
    seed: Optional[int] = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int) -> float:
        """Backoff before the attempt *after* 1-based attempt ``attempt``."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            raw *= 1.0 - self.jitter + 2.0 * self.jitter * self._rng.random()
        return raw


class ServiceClient:
    """One connection to a running admission daemon."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self.reconnect()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def reconnect(self) -> None:
        """(Re)establish the TCP connection, dropping any broken one."""
        self.close()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rwb")

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Issue one raw operation and return the decoded response.

        Raises a typed :class:`ServiceError` subclass on an ``ok: false``
        response (mapped from its ``code``) and :class:`ConnectionError`
        when the server hangs up mid-call.
        """
        if self._file is None:
            raise ConnectionError("client is closed")
        payload = {"op": op, **fields}
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError(f"server closed the connection during {op!r}")
        response = json.loads(line)
        if not response.get("ok"):
            raise error_from_response(op, response)
        return response

    def close(self) -> None:
        try:
            if self._file is not None:
                self._file.close()
        except OSError:
            pass
        finally:
            self._file = None
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def submit(
        self,
        request: Union[VirtualClusterRequest, Dict[str, Any]],
        priority: int = 0,
        timeout_s: Optional[float] = None,
        wait: bool = True,
        wait_timeout: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a request; returns the ticket/outcome payload.

        ``tenant`` names the fair-queue lane (and quota bucket) this
        request is charged to; omitted requests share the default lane.
        """
        if isinstance(request, VirtualClusterRequest):
            request = request_to_dict(request)
        fields: Dict[str, Any] = {"request": request, "priority": priority, "wait": wait}
        if timeout_s is not None:
            fields["timeout_s"] = timeout_s
        if wait_timeout is not None:
            fields["wait_timeout"] = wait_timeout
        if idempotency_key is not None:
            fields["idem"] = idempotency_key
        if tenant is not None:
            fields["tenant"] = tenant
        return self.call("submit", **fields)

    def submit_with_retry(
        self,
        request: Union[VirtualClusterRequest, Dict[str, Any]],
        policy: Optional[RetryPolicy] = None,
        idempotency_key: Optional[str] = None,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        wait_timeout: Optional[float] = 30.0,
        tenant: Optional[str] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> Dict[str, Any]:
        """Submit with backoff/retry until a decision or the budget is spent.

        Every attempt carries the *same* idempotency key (generated once
        when not supplied), so a retry after a lost ack or a dropped
        connection converges on the server's original decision — never a
        second allocation.  Raises :class:`DeadlineExceededError` when the
        server expired the request or ``policy.deadline_s`` would pass,
        and :class:`RetryExhaustedError` (chained to the last failure)
        when the attempt cap is reached.  Non-retryable server errors
        propagate as their typed class immediately.

        Over-quota sheds (:class:`OverQuotaError`) are retryable but
        *hint-driven*: the next pause is never shorter than the server's
        ``retry_after``, because the tenant's slice only drains as the
        batcher works — retrying sooner just re-triggers the shed.
        """
        policy = policy or RetryPolicy()
        key = idempotency_key or uuid.uuid4().hex
        deadline = clock() + policy.deadline_s if policy.deadline_s is not None else None
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            retry_after: Optional[float] = None
            try:
                reply = self.submit(
                    request,
                    priority=priority,
                    timeout_s=timeout_s,
                    wait=True,
                    wait_timeout=wait_timeout,
                    idempotency_key=key,
                    tenant=tenant,
                )
                outcome = reply.get("outcome")
                if outcome == "expired":
                    raise DeadlineExceededError(
                        f"request deadline passed server-side (attempt {attempt})",
                        code=CODE_DEADLINE,
                    )
                if outcome not in _RETRYABLE_OUTCOMES:
                    return reply
                last_error = ServiceError(
                    f"transient outcome {outcome!r}: {reply.get('detail', '')}"
                )
            except DeadlineExceededError:
                raise
            except ServiceError as exc:
                if exc.code not in policy.retry_codes:
                    raise
                last_error = exc
                retry_after = exc.retry_after
            except (ConnectionError, OSError) as exc:
                last_error = exc
            if attempt >= policy.max_attempts:
                break
            pause = policy.delay(attempt)
            if retry_after is not None:
                pause = max(pause, float(retry_after))
            if deadline is not None and clock() + pause >= deadline:
                raise DeadlineExceededError(
                    f"retry budget ({policy.deadline_s}s) would pass before "
                    f"attempt {attempt + 1}",
                    code=CODE_DEADLINE,
                ) from last_error
            sleep(pause)
            if isinstance(last_error, (ConnectionError, OSError)):
                try:
                    self.reconnect()
                except OSError as exc:
                    last_error = exc
        raise RetryExhaustedError(
            f"submit failed after {policy.max_attempts} attempt(s): {last_error}"
        ) from last_error

    def status(self, ticket: int) -> Dict[str, Any]:
        return self.call("status", ticket=ticket)

    def release(self, request_id: int) -> Dict[str, Any]:
        return self.call("release", request_id=request_id)

    def resize(
        self,
        request_id: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Grow or shrink an admitted tenancy in place (or by re-admit).

        Returns the decision payload: ``outcome`` is ``in_place``,
        ``replaced`` or ``rejected`` (rejected keeps the old allocation).
        Pass the same ``idempotency_key`` on retry to get the original
        decision back instead of resizing twice.
        """
        fields: Dict[str, Any] = {"request_id": request_id}
        if new_n is not None:
            fields["new_n"] = new_n
        if new_mu is not None:
            fields["new_mu"] = new_mu
        if new_sigma is not None:
            fields["new_sigma"] = new_sigma
        if idempotency_key is not None:
            fields["idem"] = idempotency_key
        return self.call("resize", **fields)

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")["stats"]

    def metrics(self) -> Dict[str, Any]:
        """Registry snapshot + Prometheus exposition of the server process.

        Returns ``{"metrics": <JSON snapshot>, "prometheus": <text>}``.
        """
        response = self.call("metrics")
        return {"metrics": response["metrics"], "prometheus": response["prometheus"]}

    def obs(self, dump: bool = False, limit: Optional[int] = None) -> Dict[str, Any]:
        """Flight-recorder ring + recent traces of the server process.

        ``dump=True`` also asks the server to write its flight ring to disk
        (``dump_path`` in the reply; None when no dump dir is configured).
        """
        fields: Dict[str, Any] = {}
        if dump:
            fields["dump"] = True
        if limit is not None:
            fields["limit"] = limit
        return self.call("obs", **fields)["obs"]

    def snapshot(self) -> str:
        return self.call("snapshot")["snapshot"]

    def shutdown(self) -> None:
        self.call("shutdown")
