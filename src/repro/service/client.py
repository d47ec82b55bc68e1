""":class:`ServiceClient` — thin blocking client of the compile service.

One socket connection, synchronous request/response over JSON lines.
The client does no compilation-side work beyond serializing the
machine; the result payloads it returns are exactly the server's
(:func:`repro.service.protocol.compile_result_payload`), so a
round-trip through the service is directly comparable to an in-process
engine run.

A loaded cluster answers over-limit requests with ``busy`` replies
(the wire protocol's 429) instead of queueing without bound; the
client absorbs those transparently with capped exponential backoff —
up to ``busy_retries`` resends, sleeping
``min(busy_backoff * 2**attempt, 2.0)`` seconds between them —
and raises :class:`ServiceBusy` only when retries are exhausted or the
server marked the rejection non-retryable (a batch larger than the
whole queue).

::

    from repro.service import ServiceClient

    with ServiceClient(socket_path="/tmp/repro.sock") as client:
        payload = client.compile_machine(machine, pattern="state-table")
        print(payload["total_size"])
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from ..compiler import OptLevel
from ..obs.trace import get_tracer, span as _span
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .protocol import (MAX_LINE_BYTES, compile_params, decode_message,
                       encode_message)

__all__ = ["ServiceError", "ServiceBusy", "ServiceClient"]


class ServiceError(RuntimeError):
    """The server answered a request with ``ok: false``."""


class ServiceBusy(ServiceError):
    """The server's bounded queue rejected the request and backoff
    retries were exhausted (or the rejection was non-retryable)."""


#: Longest sleep, in seconds, between two resends of a busy request.
_BUSY_BACKOFF_CAP = 2.0


class ServiceClient:
    """Blocking JSON-lines client over a unix socket or TCP address."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: Optional[int] = None,
                 timeout: float = 300.0,
                 busy_retries: int = 10,
                 busy_backoff: float = 0.05) -> None:
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        elif port is not None:
            self._sock = socket.create_connection(
                (host or "127.0.0.1", port), timeout=timeout)
        else:
            raise ValueError("need socket_path or port to connect to")
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self.busy_retries = max(0, int(busy_retries))
        self.busy_backoff = busy_backoff
        #: Total busy replies absorbed by backoff (load reports read it).
        self.busy_retries_used = 0

    # -- plumbing -----------------------------------------------------------

    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._file.write(encode_message(message))
        self._file.flush()
        line = self._file.readline(MAX_LINE_BYTES)
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Send one request; return its ``result`` object or raise
        :class:`ServiceError` / :class:`ServiceBusy`.  ``busy`` replies
        are retried with capped exponential backoff.

        When tracing is on, the request carries the client span's
        context on the wire and every reply's piggybacked ``spans``
        (server + worker) are ingested into the local tracer — one
        connected trace across processes."""
        sp = _span(f"client.{op}")
        try:
            attempt = 0
            while True:
                self._next_id += 1
                message = {"id": self._next_id, "op": op}
                message.update(params)
                if sp.recording:
                    message["trace"] = sp.ctx.to_wire()
                response = self._roundtrip(message)
                if response.get("spans"):
                    get_tracer().ingest(response["spans"])
                if response.get("busy"):
                    error = response.get("error", "server busy")
                    if response.get("retry") is False:
                        raise ServiceBusy(error)
                    if attempt >= self.busy_retries:
                        raise ServiceBusy(
                            f"{error} (after {attempt} retries)")
                    self.busy_retries_used += 1
                    time.sleep(min(_BUSY_BACKOFF_CAP,
                                   self.busy_backoff * (2 ** attempt)))
                    attempt += 1
                    continue
                # ok/error first: framing-level failures answer with
                # id=None, and their message must not be masked by the
                # id sanity check.
                if not response.get("ok"):
                    raise ServiceError(
                        response.get("error", "unknown error"))
                if response.get("id") != self._next_id:
                    raise ServiceError(
                        f"response id {response.get('id')!r} != request "
                        f"id {self._next_id}")
                if sp.recording:
                    sp.set(op=op, attempts=attempt + 1)
                return response.get("result", {})
        finally:
            sp.end()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- operations ---------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def metrics(self) -> Dict[str, Any]:
        """The server's latency/queue/worker/cache telemetry document
        (see :mod:`repro.service.metrics` for the schema)."""
        return self.request("metrics")

    def compile_machine(self, machine: Union[StateMachine, Dict[str, Any]],
                        pattern: str = "nested-switch",
                        level: Union[OptLevel, str, None] = None,
                        target: Optional[str] = None,
                        semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                        want_asm: bool = False) -> Dict[str, Any]:
        """Compile one machine on the server; returns the result
        payload (sizes, pass stats, fingerprint, optionally the
        assembly listing)."""
        return self.request("compile",
                            **compile_params(machine, pattern=pattern,
                                             level=level, target=target,
                                             semantics=semantics,
                                             want_asm=want_asm))

    def submit_batch(self, jobs: Sequence[Dict[str, Any]]
                     ) -> List[Dict[str, Any]]:
        """Submit a grid of compile jobs (each a :func:`compile_params`
        object); results come back in input order."""
        return self.request("batch", jobs=list(jobs))["results"]
