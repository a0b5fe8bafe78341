"""Blocking client for the ``repro serve`` line-JSON protocol.

Deliberately dependency-free (``socket`` + ``json``): the CLI's
``repro check --server``, the parity harness and the CI smoke script
all talk to the server through this one class, and a third-party
client needs nothing but a TCP socket and a JSON codec to do the same.
Responses are returned as the raw decoded dicts — the protocol's
``profiles`` rows are lossless
:meth:`~repro.oracle.ConformanceProfile.to_dict` forms, so callers
that want profile *objects* rebuild them with ``from_dict``.
"""

from __future__ import annotations

import json
import socket
from typing import Iterator, List, Optional, Sequence, Tuple, Union

Address = Union[str, Tuple[str, int]]

#: The longest request line the server reads (bytes, newline included).
#: Longer lines get a ``request_too_large`` error reply;
#: :meth:`ServiceClient.check_batch` splits batches to stay under it.
MAX_REQUEST_BYTES = 1 << 20


class RequestTooLarge(RuntimeError):
    """The server refused a request line longer than its limit."""


def parse_address(address: Address) -> Tuple[str, int]:
    """``"host:port"`` (or a ready pair) -> ``(host, port)``."""
    if isinstance(address, tuple):
        return address[0], int(address[1])
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"server address must be HOST:PORT, got {address!r}")
    return host, int(port)


class ServiceClient:
    """One connection to a checking server."""

    def __init__(self, address: Address,
                 timeout: Optional[float] = 60.0) -> None:
        host, port = parse_address(address)
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._reader = self._sock.makefile("rb")

    # -- protocol plumbing ----------------------------------------------------

    def _send(self, payload: dict) -> None:
        self._sock.sendall(json.dumps(payload).encode() + b"\n")

    def _read(self) -> dict:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = json.loads(line)
        if reply.get("op") == "error":
            error = RequestTooLarge \
                if reply.get("code") == "request_too_large" \
                else RuntimeError
            raise error(f"server error: {reply.get('error')}")
        return reply

    def request(self, payload: dict) -> dict:
        """One request, one response (``check``/``status``/...)."""
        self._send(payload)
        return self._read()

    # -- the protocol verbs ---------------------------------------------------

    def check(self, trace_text: str, *, request_id=None) -> dict:
        """Check one trace; returns the ``verdict`` message."""
        return self.request({"op": "check", "id": request_id,
                             "trace": trace_text})

    def check_batch(self, trace_texts: Sequence[str], *,
                    request_id=None) -> Tuple[List[dict], dict]:
        """Check many traces; returns (verdicts in input order, the
        ``batch_done`` message carrying ``engine_stats``)."""
        replies = list(self.iter_batch(trace_texts, request_id=request_id))
        return replies[:-1], replies[-1]

    def iter_batch(self, trace_texts: Sequence[str], *,
                   request_id=None) -> Iterator[dict]:
        """Streaming form of :meth:`check_batch`: yields each
        ``verdict`` as it arrives, then the ``batch_done`` message.

        A batch longer than :data:`MAX_REQUEST_BYTES` goes out as
        several ``batch`` requests, one after another; the replies still
        read as one batch, with one final ``batch_done`` whose ``count``
        covers every trace.
        """
        count = 0
        for chunk in self._chunks(trace_texts, request_id):
            self._send({"op": "batch", "id": request_id,
                        "traces": chunk})
            while True:
                reply = self._read()
                if reply.get("op") == "batch_done":
                    count += reply["count"]
                    break
                yield reply
        yield dict(reply, count=count)

    def _chunks(self, trace_texts: Sequence[str],
                request_id) -> Iterator[List[str]]:
        """Consecutive runs of ``trace_texts`` whose ``batch`` request
        line fits :data:`MAX_REQUEST_BYTES` (a single trace too large
        for it goes alone, and the server refuses it)."""
        envelope = len(json.dumps({"op": "batch", "id": request_id,
                                   "traces": []}).encode()) + 1
        chunk: List[str] = []
        size = envelope
        for text in trace_texts:
            # Each list element costs its JSON form plus ", ".
            cost = len(json.dumps(text).encode()) + 2
            if chunk and size + cost > MAX_REQUEST_BYTES:
                yield chunk
                chunk, size = [], envelope
            chunk.append(text)
            size += cost
        yield chunk

    def status(self, *, request_id=None) -> dict:
        """Fetch the server's cumulative ``engine_stats``."""
        return self.request({"op": "status", "id": request_id})

    def shutdown(self, *, request_id=None) -> dict:
        """Ask the server to stop (returns its ``bye``)."""
        return self.request({"op": "shutdown", "id": request_id})

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
