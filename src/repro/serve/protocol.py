"""The line-oriented wire format of ``repro serve``.

One JSON object per line, both directions.  Requests::

    {"id": "q1", "query": "exists x. S(x)", "deadline": 2.0,
     "tenant": "alice", "seed": 7}

Responses mirror :class:`repro.serve.request.ServeResponse`; every
submitted line — including malformed ones — produces exactly one
response line, so a client can always join responses back to requests
by ``id``.  Unknown request fields are rejected (not silently dropped):
a typo'd ``deadlien`` must not silently serve an unbounded query.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.util.errors import QueryError

from repro.serve.request import ServeRequest, ServeResponse

_REQUEST_FIELDS = {
    "id",
    "query",
    "free",
    "tenant",
    "quantity",
    "epsilon",
    "delta",
    "deadline",
    "max_cost",
    "chain",
    "seed",
    "arrival",
}


def request_from_payload(payload: Mapping[str, Any]) -> ServeRequest:
    """Build a validated :class:`ServeRequest`; raises QueryError."""
    if not isinstance(payload, Mapping):
        raise QueryError(f"request must be a JSON object, got {payload!r}")
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise QueryError(f"unknown request fields {unknown}")
    if "id" not in payload or "query" not in payload:
        raise QueryError("request needs at least 'id' and 'query'")
    free = payload.get("free")
    chain = payload.get("chain")
    request = ServeRequest(
        id=str(payload["id"]),
        query=payload["query"],
        free=tuple(free) if free else None,
        tenant=str(payload.get("tenant", "default")),
        quantity=payload.get("quantity", "reliability"),
        epsilon=float(payload.get("epsilon", 0.05)),
        delta=float(payload.get("delta", 0.05)),
        deadline=(
            float(payload["deadline"])
            if payload.get("deadline") is not None
            else None
        ),
        max_cost=(
            int(payload["max_cost"])
            if payload.get("max_cost") is not None
            else None
        ),
        chain=tuple(chain) if chain else None,
        seed=int(payload.get("seed", 0)),
        arrival=float(payload.get("arrival", 0.0)),
    )
    request.validate()
    return request


def parse_request_line(line: str) -> ServeRequest:
    """Parse one request line; raises QueryError on bad JSON."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise QueryError(f"bad request line: {exc}") from None
    return request_from_payload(payload)


def request_to_payload(request: ServeRequest) -> dict:
    """The JSON-able form of a request (``repro submit`` emits this)."""
    payload: dict = {"id": request.id, "query": str(request.query)}
    if request.free:
        payload["free"] = list(request.free)
    if request.tenant != "default":
        payload["tenant"] = request.tenant
    if request.quantity != "reliability":
        payload["quantity"] = request.quantity
    payload["epsilon"] = request.epsilon
    payload["delta"] = request.delta
    if request.deadline is not None:
        payload["deadline"] = request.deadline
    if request.max_cost is not None:
        payload["max_cost"] = request.max_cost
    if request.chain:
        payload["chain"] = list(request.chain)
    if request.seed:
        payload["seed"] = request.seed
    if request.arrival:
        payload["arrival"] = request.arrival
    return payload


def response_to_payload(response: ServeResponse) -> dict:
    """The JSON-able form of a response (one line of server output)."""
    payload: dict = {
        "id": response.id,
        "tenant": response.tenant,
        "code": response.code,
        "retries": response.retries,
        "elapsed": round(response.elapsed, 6),
    }
    if response.ok:
        payload.update(
            value=response.value,
            engine=response.engine,
            guarantee=response.guarantee,
        )
        if response.epsilon is not None:
            payload["epsilon"] = response.epsilon
            payload["delta"] = response.delta
    if response.tier is not None:
        payload["tier"] = response.tier
    if response.attempts:
        payload["attempts"] = [list(pair) for pair in response.attempts]
    if response.detail:
        payload["detail"] = response.detail
    return payload


def format_response(response: ServeResponse) -> str:
    return json.dumps(response_to_payload(response), sort_keys=True)
