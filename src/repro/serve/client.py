"""A blocking client for the filter service.

The counterpart the tests and tools speak through: one
socket, framed requests with auto-assigned ``id``\\ s, responses
matched back by id (the daemon may answer out of request order — a
``ping`` overtakes a coalescing ``score``).  Error envelopes
(``ok: false``) surface as :class:`~repro.errors.ServeError` carrying
the daemon's one-line diagnostic, mirroring the CLI's ``error: ...``
convention.

For protocol abuse (truncated frames, hostile lengths) the tests drop
below this class and write raw bytes on ``ServeClient.sock``.
"""

from __future__ import annotations

import socket
from typing import Any, Sequence

from repro.errors import ServeError
from repro.serve import protocol

__all__ = ["ServeClient", "connect"]


def connect(
    address: str | tuple[str, int], timeout: float | None = 30.0
) -> "ServeClient":
    """Open a client on a socket path (str) or ``(host, port)`` pair."""
    return ServeClient(address, timeout=timeout)


class ServeClient:
    """One connection to a running :class:`~repro.serve.service.FilterService`."""

    def __init__(
        self, address: str | tuple[str, int], timeout: float | None = 30.0
    ) -> None:
        self.address = address
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(address if isinstance(address, str) else tuple(address))
        except OSError as exc:
            sock.close()
            raise ServeError(
                f"cannot connect to the filter service at {address}: {exc}"
            ) from None
        self.sock = sock
        self._next_id = 0
        self._pending: dict[Any, dict] = {}

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close never matters twice
            pass

    # -- the request/response core ------------------------------------

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send(self, verb: str, **fields: Any) -> int:
        """Fire one request without waiting; returns its id."""
        request_id = fields.pop("id", None)
        if request_id is None:
            request_id = self._take_id()
        protocol.send_frame(
            self.sock, {"id": request_id, "verb": verb, **fields}
        )
        return request_id

    def recv(self, request_id: Any) -> dict:
        """Collect the response for ``request_id`` (buffering others)."""
        while request_id not in self._pending:
            response = protocol.recv_frame(self.sock)
            self._pending[response.get("id")] = response
        return self._pending.pop(request_id)

    def request(self, verb: str, **fields: Any) -> dict:
        """One round trip; raises :class:`ServeError` on an envelope."""
        response = self.recv(self.send(verb, **fields))
        if not response.get("ok"):
            raise ServeError(response.get("error", "unknown serve error"))
        return response

    # -- verbs --------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def score(self, tokens: Sequence[str]) -> float:
        return self.request("score", tokens=list(tokens))["score"]

    def train(self, tokens: Sequence[str], is_spam: bool) -> dict:
        return self.request("train", tokens=list(tokens), is_spam=is_spam)

    def feedback(self, tokens: Sequence[str], is_spam: bool) -> dict:
        return self.request("feedback", tokens=list(tokens), is_spam=is_spam)

    def snapshot(self, path: str) -> dict:
        return self.request("snapshot", path=path)

    def stats(self) -> dict:
        return self.request("stats")

    def shutdown(self) -> dict:
        return self.request("shutdown")
