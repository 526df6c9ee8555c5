"""Small synchronous clients for the planner daemon (tests, smoke, bench).

Two transports, one interface: send a request dict, read a response dict.
Both support *pipelining* — send many requests before reading any
response — which is how a load generator gets the daemon's coalescer and
micro-batcher to see concurrent traffic.  Responses may arrive out of
order; match them by ``id``.

    >>> from repro.serve.client import StdioServeClient   # doctest: +SKIP
    >>> with StdioServeClient() as client:                # doctest: +SKIP
    ...     client.request({"op": "ping"})["result"]
    'pong'
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence


class _LineClient:
    """Shared JSON-lines plumbing over a (send, recv-line) pair."""

    def _send_line(self, line: str) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _recv_line(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def send(self, payload: Dict[str, Any]) -> None:
        """Fire one request without waiting (pipelining)."""
        self._send_line(json.dumps(payload, separators=(",", ":")) + "\n")

    def recv(self) -> Dict[str, Any]:
        """Read the next response line (order follows the server, not the
        client — match by ``id`` when pipelining)."""
        line = self._recv_line()
        if not line:
            raise ConnectionError("server closed the stream")
        return json.loads(line)

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous round trip."""
        self.send(payload)
        return self.recv()

    def request_many(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Pipeline *payloads*, then collect one response each (any
        order on the wire; returned in arrival order)."""
        for payload in payloads:
            self.send(payload)
        return [self.recv() for _ in payloads]

    def shutdown(self) -> Dict[str, Any]:
        """Graceful stop: returns the daemon's ``"bye"`` response."""
        return self.request({"op": "shutdown"})

    # -- context management -------------------------------------------------

    def close(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __enter__(self) -> "_LineClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _serve_env() -> Dict[str, str]:
    """Subprocess environment with ``repro``'s source tree importable."""
    import repro

    src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    return env


class StdioServeClient(_LineClient):
    """Spawn ``python -m repro serve`` and talk JSON-lines over its pipes.

    *args* are extra CLI flags (e.g. ``["--workers", "2"]``).  Stderr is
    inherited so daemon announcements surface in test logs.
    """

    def __init__(
        self,
        args: Iterable[str] = (),
        *,
        python: str = sys.executable,
    ) -> None:
        self.process = subprocess.Popen(
            [python, "-m", "repro", "serve", *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_serve_env(),
            text=True,
            bufsize=1,  # line buffered
        )

    def _send_line(self, line: str) -> None:
        assert self.process.stdin is not None
        self.process.stdin.write(line)
        self.process.stdin.flush()

    def _recv_line(self) -> str:
        assert self.process.stdout is not None
        return self.process.stdout.readline()

    def close(self, timeout: float = 30.0) -> int:
        """Close stdin (EOF => graceful exit), reap the daemon and close its
        stdout pipe; returns the exit code."""
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - safety net
            self.process.kill()
            return self.process.wait()
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()


class TcpServeClient(_LineClient):
    """Talk to a running daemon's TCP front end."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")

    def _send_line(self, line: str) -> None:
        self._file.write(line)
        self._file.flush()

    def _recv_line(self) -> str:
        return self._file.readline()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


__all__ = ["StdioServeClient", "TcpServeClient"]
