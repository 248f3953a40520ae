"""The analysis service's wire protocol: line-delimited JSON-RPC.

One request per line, one response per line, UTF-8, ``\\n``-terminated —
the same framing over stdio and TCP, trivially scriptable from a shell
(``echo '{"id":1,"method":"health"}' | nc localhost PORT``).

Request::

    {"id": 1, "method": "detect", "params": {"fail_on_timeout": true}}

Response (exactly one of ``result`` / ``error``)::

    {"id": 1, "result": {...}}
    {"id": 1, "error": {"code": -32603, "message": "...", "incident": {...}}}

Methods (see :mod:`repro.service.daemon` for the parameter/result shapes):
``ping``, ``detect``, ``fix``, ``stats``, ``metrics``, ``metrics_text``,
``health``, ``refresh``, ``register``, ``tenants``, ``shutdown``.

Multi-tenancy is additive: a request may carry a ``tenant`` string (a
registered project id; default ``"default"``, the project the daemon was
started with) and a ``priority`` class (``high``/``normal``/``low``,
default ``normal``) — either top-level next to ``trace_id`` or inside
``params``. Requests without them behave exactly as before, so the
protocol version is unchanged. Under overload the daemon *rejects*
instead of queueing: ``OVERLOADED`` (queue-depth limits, degraded-mode
shedding) and ``QUOTA_EXCEEDED`` (per-tenant token bucket) errors carry
a ``retry_after`` hint in seconds.

Every response — results, errors, even protocol errors for garbage
lines — carries a ``trace_id``. Clients may pin their own by putting a
``trace_id`` string in the request object; otherwise the daemon mints
one at decode time. The same id threads through the request's span
tree, its telemetry-journal record and its slow-request exemplar, so a
response in hand is enough to find everything the daemon knows about
how it was served.

Error codes follow JSON-RPC where a standard code exists; the service's
own conditions sit in the implementation-defined ``-320xx`` range. A
request that *crashes* inside the daemon is not a protocol error: the
crash degrades into a :class:`repro.resilience.incidents.Incident`
attached to the ``error`` object (code ``REQUEST_FAILED``), and the
daemon keeps serving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.obs import new_trace_id

#: protocol identifier, echoed by ``ping``; bump on breaking changes
PROTOCOL_VERSION = "repro.service/1"

# -- error codes ------------------------------------------------------------

PARSE_ERROR = -32700  # request line is not valid JSON
INVALID_REQUEST = -32600  # JSON but not a valid request object
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
REQUEST_FAILED = -32603  # handler crashed; error carries the incident
DEADLINE_EXCEEDED = -32000  # expired in the queue before running
SHUTTING_DOWN = -32001  # daemon is draining; request was not served
OVERLOADED = -32002  # shed by admission control (queue depth / degraded mode)
QUOTA_EXCEEDED = -32003  # the tenant's token-bucket quota is exhausted

#: every method the daemon serves, in documentation order
METHODS = (
    "ping",
    "detect",
    "fix",
    "stats",
    "metrics",
    "metrics_text",
    "health",
    "refresh",
    "register",
    "tenants",
    "shutdown",
)

#: scheduling classes, strongest first; the weighted-fair scheduler
#: drains a class completely before touching the next
PRIORITIES = ("high", "normal", "low")

#: the tenant every request belongs to unless it says otherwise — the
#: project the daemon was started with, preserving the PR-5 wire behavior
DEFAULT_TENANT = "default"

RequestId = Union[int, str, None]


class ServiceError(Exception):
    """A request-level error that is *not* a crash: wrong params, an
    unknown tenant, an unsupported method for this project shape. Mapped
    to a plain protocol error (no incident) and never counted against
    daemon health."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Request:
    """One decoded request line."""

    id: RequestId
    method: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: per-request deadline in seconds, from ``params.deadline_seconds``;
    #: measured from enqueue time (a request that waits out its deadline
    #: in the queue is answered with DEADLINE_EXCEEDED, never run)
    deadline_seconds: Optional[float] = None
    #: request-scoped trace id: client-pinned or minted at decode time,
    #: echoed on the response and stamped on every span the request opens
    trace_id: str = field(default_factory=new_trace_id)
    #: seconds spent waiting in the scheduler before running, stamped by
    #: the dispatching worker just before dispatch (observability, not wire data)
    queue_wait_seconds: float = 0.0
    #: which registered project this request addresses
    tenant: str = DEFAULT_TENANT
    #: scheduling class; one of :data:`PRIORITIES`
    priority: str = "normal"

    def to_json(self) -> dict:
        payload: dict = {"id": self.id, "method": self.method}
        if self.params:
            payload["params"] = self.params
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        if self.tenant != DEFAULT_TENANT:
            payload["tenant"] = self.tenant
        if self.priority != "normal":
            payload["priority"] = self.priority
        return payload


class ProtocolError(Exception):
    """A malformed request line; carries the response error code."""

    def __init__(
        self,
        code: int,
        message: str,
        request_id: RequestId = None,
        trace_id: str = "",
    ):
        super().__init__(message)
        self.code = code
        self.request_id = request_id
        # even a garbage line gets a trace id, so its error response can
        # be correlated with the daemon's logs
        self.trace_id = trace_id or new_trace_id()


def decode_request(line: str) -> Request:
    """Decode one request line, raising :class:`ProtocolError` on garbage."""
    line = line.strip()
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(PARSE_ERROR, f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(INVALID_REQUEST, "request must be a JSON object")
    raw_trace = payload.get("trace_id")
    trace_id = raw_trace if isinstance(raw_trace, str) and raw_trace else new_trace_id()
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError(
            INVALID_REQUEST, "id must be an int or string", trace_id=trace_id
        )
    method = payload.get("method")
    if not isinstance(method, str) or not method:
        raise ProtocolError(
            INVALID_REQUEST,
            "missing method",
            request_id=request_id,
            trace_id=trace_id,
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            INVALID_PARAMS,
            "params must be an object",
            request_id=request_id,
            trace_id=trace_id,
        )
    deadline = params.get("deadline_seconds")
    if deadline is not None and (
        not isinstance(deadline, (int, float)) or deadline <= 0
    ):
        raise ProtocolError(
            INVALID_PARAMS,
            "deadline_seconds must be a positive number",
            request_id=request_id,
            trace_id=trace_id,
        )
    # tenant/priority ride top-level (like trace_id) or in params (handy
    # for `repro client --params`); top-level wins when both are present
    tenant = payload.get("tenant", params.get("tenant", DEFAULT_TENANT))
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(
            INVALID_PARAMS,
            "tenant must be a non-empty string",
            request_id=request_id,
            trace_id=trace_id,
        )
    priority = payload.get("priority", params.get("priority", "normal"))
    if priority not in PRIORITIES:
        raise ProtocolError(
            INVALID_PARAMS,
            f"priority must be one of {', '.join(PRIORITIES)}",
            request_id=request_id,
            trace_id=trace_id,
        )
    return Request(
        id=request_id,
        method=method,
        params=params,
        deadline_seconds=float(deadline) if deadline is not None else None,
        trace_id=trace_id,
        tenant=tenant,
        priority=priority,
    )


def result_response(
    request_id: RequestId, result: Any, trace_id: str = ""
) -> dict:
    payload: dict = {"id": request_id, "result": result}
    if trace_id:
        payload["trace_id"] = trace_id
    return payload


def error_response(
    request_id: RequestId,
    code: int,
    message: str,
    incident: Optional[dict] = None,
    trace_id: str = "",
    retry_after: Optional[float] = None,
) -> dict:
    error: dict = {"code": code, "message": message}
    if incident is not None:
        error["incident"] = incident
    if retry_after is not None:
        # shed responses tell the client when trying again is worthwhile
        error["retry_after"] = round(max(0.0, retry_after), 3)
    payload: dict = {"id": request_id, "error": error}
    if trace_id:
        payload["trace_id"] = trace_id
    return payload


def encode_line(payload: dict) -> str:
    """One wire line: compact JSON, sorted keys (deterministic), newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def is_error(response: dict) -> bool:
    return "error" in response
