"""Server processes and the closed-loop load generator.

The server runs as users run it, ``python -m repro serve`` in a process
of its own (or, for the traced run, ``perfbench/traced_serve.py``, which
wraps the layers and then calls the same CLI entry point).  The load
generator is this process: a few client threads, each sending its next
request only when the previous reply has arrived (a closed loop), each request on
a connection of its own.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import select
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Request = Dict[str, object]

#: how long a server may take to print its port and answer /health
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One spawned server; ``setup_s`` is spawn to first ``/health`` answer."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: str) -> None:
        started = time.monotonic()
        self.proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
        )
        try:
            self.port = self._read_port(started + START_TIMEOUT_S)
            self._wait_healthy(started + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        #: monotonic seconds from spawn to the first ``/health`` answer
        self.setup_interval = (started, time.monotonic())
        self.setup_s = self.setup_interval[1] - started

    def _read_port(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buffer = b""
        while True:
            for line in buffer.split(b"\n")[:-1]:
                text = line.decode("utf-8", "replace")
                if text.startswith("serving workload="):
                    return int(text.rstrip().rsplit(":", 1)[1])
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report its port in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"server exited early with code {self.proc.wait()}")
            buffer += chunk

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, payload = get_json(self.port, "/health")
                if status == 200 and payload.get("ok"):
                    return
            except (OSError, http.client.HTTPException):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /health")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stats(self) -> Dict[str, object]:
        status, payload = get_json(self.port, "/stats")
        if status != 200 or not payload.get("ok"):
            raise RuntimeError(f"/stats failed: {payload}")
        return payload["result"]

    def stop(self) -> int:
        """Interrupt the server (it shuts down cleanly on SIGINT) and reap it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def get_json(port: int, path: str) -> Tuple[int, Dict[str, object]]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def post(port: int, request: Request) -> Tuple[int, Dict[str, object]]:
    """POST one request on a TCP connection of its own.

    This is how the repository's own ``ServerClient`` talks to the server.
    On a kept-alive connection the server's reply (headers and body are two
    writes) meets Nagle's algorithm and the client's delayed ACK, which adds
    about 40 ms to every request and would hide the program's own latency.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request("POST", "/api", body=json.dumps(request).encode("utf-8"),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@dataclass
class Record:
    """One request as the client saw it; times are ``time.monotonic()`` seconds."""

    client: int
    index: int
    request: Request
    latency_s: float = 0.0
    finished_at: float = 0.0
    status: int = 0
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    #: protocol error code of a refused request (None: ok or transport error)
    code: Optional[str] = None

    @property
    def kind(self) -> str:
        return str(self.request["kind"])

    @property
    def ok(self) -> bool:
        return self.result is not None


def send(port: int, record: Record) -> Record:
    started = time.monotonic()
    try:
        status, payload = post(port, record.request)
    except (OSError, http.client.HTTPException, ValueError) as error:
        record.error = f"transport: {type(error).__name__}: {error}"
    else:
        record.status = status
        if status == 200 and payload.get("ok"):
            record.result = payload["result"]
        else:
            error = payload.get("error") or {}
            record.code = str(error.get("code"))
            record.error = f"{status} {record.code}: {error.get('message')}"
    record.finished_at = time.monotonic()
    record.latency_s = record.finished_at - started
    return record


def replay(port: int, stream: Callable[[int, int], Request], clients: int,
           count: int) -> Dict[Tuple[int, int], str]:
    """Send the first ``count`` requests of every client's stream one by one."""
    digests: Dict[Tuple[int, int], str] = {}
    for client in range(clients):
        for index in range(count):
            record = send(port, Record(client, index, stream(client, index)))
            if record.ok:
                digests[(client, index)] = answer_digest(record)
    return digests


@dataclass
class Window:
    seconds: float
    started_at: float
    records: List[Record] = field(default_factory=list)
    elapsed_s: float = 0.0


def closed_loop(port: int, stream: Callable[[int, int], Request], clients: int,
                seconds: float) -> Window:
    """Each client sends requests back to back until ``seconds`` have passed.

    Every request sent before the deadline is waited for and counted;
    ``elapsed_s`` runs from the start until the last reply.
    """
    per_client: List[List[Record]] = [[] for _ in range(clients)]
    start_gate = threading.Barrier(clients + 1)
    times: Dict[str, float] = {}

    def client_loop(client: int) -> None:
        start_gate.wait()
        deadline = times["start"] + seconds
        index = 0
        while time.monotonic() < deadline:
            per_client[client].append(send(port, Record(client, index, stream(client, index))))
            index += 1

    threads = [threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
               for c in range(clients)]
    for thread in threads:
        thread.start()
    times["start"] = time.monotonic()
    start_gate.wait()
    for thread in threads:
        thread.join()
    window = Window(seconds, times["start"], elapsed_s=time.monotonic() - times["start"])
    for records in per_client:
        window.records.extend(records)
    return window


def answer_digest(record: Record) -> str:
    """Digest of the parts of an answer the bit-identity contract covers."""
    result = record.result or {}
    if record.kind == "sample":
        body = [result.get("values"), result.get("sources")]
    elif record.kind == "aggregate":
        body = result.get("report")
    else:
        body = [result.get("rows_deleted")]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
