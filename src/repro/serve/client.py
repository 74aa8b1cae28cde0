"""Minimal blocking client for the concurrent serving tier.

One TCP connection, one request line out, one response line back -- the
client never pipelines, so response ``i`` always answers request ``i``.
Used by the ``repro serve-client`` CLI, the CI serving jobs and the
server tests; thread-safe only in the
one-client-per-thread sense (open one :class:`ServeClient` per thread).

Failure contract: raw socket errors (``socket.timeout``,
``ConnectionResetError``, a server that closed the connection mid-read)
never escape as bare OS errors.  They are wrapped in
:class:`ServeClientError`, which carries the server's ``host:port`` and
the request line that was pending, so a replay driver can log exactly
which request died where.  Serve requests are idempotent (pure functions
of the artifact), so the client optionally retries them through a bounded
reconnect (``retries=``); control lines (``!invalidate``, ``!drain``) are
*not* idempotent and are never retried.
"""

from __future__ import annotations

import socket

__all__ = ["ServeClient", "ServeClientError", "replay"]


class ServeClientError(ConnectionError):
    """A request failed at the transport layer, with its context attached."""

    def __init__(self, message: str, *, host: str, port: int,
                 request_line: str | None = None) -> None:
        where = f"{host}:{port}"
        if request_line is not None:
            where += f", request {request_line!r}"
        super().__init__(f"{message} ({where})")
        self.host = host
        self.port = port
        self.request_line = request_line


class ServeClient:
    """Line-oriented blocking client over one TCP connection.

    ``timeout`` bounds every socket operation; ``retries`` allows that
    many reconnect-and-resend attempts for idempotent (non-control)
    request lines before :class:`ServeClientError` is raised.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0,
                 retries: int = 0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = max(int(retries), 0)
        self._sock = None
        self._reader = None
        self._connect()

    def _connect(self) -> None:
        self._close_socket()
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as error:
            raise ServeClientError(
                f"cannot connect: {error}", host=self.host, port=self.port
            ) from error
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")

    def _close_socket(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, line: str) -> str:
        """Send one request line and return its response line (stripped).

        An idempotent request (anything but a ``!`` control line) is
        retried over a fresh connection up to ``retries`` times; transport
        errors surface as :class:`ServeClientError` carrying the pending
        line.
        """
        stripped = line.rstrip("\n")
        # Control lines mutate server state (generation bumps, drains):
        # resending one after an ambiguous failure could apply it twice.
        attempts = 1 if stripped.startswith("!") else 1 + self.retries
        last: Exception | None = None
        for attempt in range(attempts):
            try:
                self._sock.sendall((stripped + "\n").encode("utf-8"))
                response = self._reader.readline()
                if not response:
                    raise ConnectionError("server closed the connection")
                return response.rstrip("\n")
            except ServeClientError:
                raise
            except (TimeoutError, OSError) as error:
                # socket.timeout is TimeoutError; ConnectionResetError and
                # BrokenPipeError are OSError subclasses.
                last = error
                if attempt + 1 < attempts:
                    self._connect()  # raises ServeClientError if refused
        raise ServeClientError(
            f"request failed after {attempts} attempt(s): {last}",
            host=self.host, port=self.port, request_line=stripped,
        ) from last

    def close(self) -> None:
        self._close_socket()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay(host: str, port: int, lines, *, timeout: float = 60.0,
           retries: int = 0) -> list[str]:
    """Replay ``lines`` over one connection; returns the response lines.

    Blank lines and ``#`` comments are skipped, matching the request-file
    handling of the single-session ``repro serve`` loop.
    """
    responses: list[str] = []
    with ServeClient(host, port, timeout=timeout, retries=retries) as client:
        for line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            responses.append(client.request(stripped))
    return responses
