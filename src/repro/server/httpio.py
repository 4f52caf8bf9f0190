"""Minimal HTTP/1.1 framing over asyncio streams.

The daemon deliberately speaks a small, dependency-free subset of
HTTP/1.1 — request line, headers, ``Content-Length`` bodies, keep-alive
— rather than pulling in a web framework: every byte that enters the
solver goes through :func:`read_request`, and every response through
:func:`render_response`, so the protocol surface stays auditable and
the container needs nothing beyond the standard library.

Not supported (requests using them get a clean 4xx/close, never
undefined behavior): chunked transfer encoding, HTTP/1.0 pipelining
quirks, multiline headers, upgrades.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

__all__ = ["HttpError", "HttpRequest", "read_request", "render_response"]

_MAX_HEADER_BYTES = 32 * 1024

_REASONS: dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A protocol-level problem with a definite response status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request: method, path, lower-cased headers, body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> HttpRequest | None:
    """Read one request, or None on a clean EOF between requests.

    Raises :class:`HttpError` for malformed or oversized input and lets
    ``asyncio`` connection errors propagate; the caller turns both into
    a closed connection.
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise HttpError(400, "truncated request head") from error
    except asyncio.LimitOverrunError as error:
        raise HttpError(400, "request head too large") from error
    if len(raw) > _MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    head = raw.decode("latin-1").split("\r\n")
    parts = head[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {head[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for line in head[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name or name != name.strip():
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpError(400, "chunked bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as error:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from error
    if length < 0:
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    if length > max_body_bytes:
        raise HttpError(413, f"body of {length} bytes exceeds the limit")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise HttpError(400, "truncated request body") from error
    path = target.split("?", 1)[0]
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def render_response(
    status: int, body: bytes, *, close: bool = False,
    content_type: str = "application/json",
) -> bytes:
    """Serialize one response, ready for ``writer.write``."""
    reason = _REASONS.get(status, "Unknown")
    connection = "close" if close else "keep-alive"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body
