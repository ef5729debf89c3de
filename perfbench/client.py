"""Open-loop HTTP load driver over persistent HTTP/1.1 connections.

Each connection thread has its own arrival schedule, fixed before the
phase starts; it waits until a request's intended send time and sends
it on its persistent ``http.client`` connection (default socket
options; a connection is re-opened only after it fails).  A request
due while the previous one is still out waits for it.  Each record
keeps the intended time, the time the thread got to it, the send time
and the completion time, so latency is measured from the *intended*
send time (a stall delays the requests behind it and is charged to
them), and the driver's own lateness and queueing are reported
separately.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

REQUEST_TIMEOUT_S = 30.0
_clock = time.perf_counter


@dataclass
class Request:
    """One scheduled request and, after the phase, its outcome."""

    rid: str
    offset: float                 # intended send, seconds from phase start
    method: str
    path: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    body: Optional[bytes] = None
    check: bool = False           # oracle-check this answer
    # outcome (perf_counter seconds)
    intended: Optional[float] = None
    picked: Optional[float] = None
    sent: Optional[float] = None
    done: Optional[float] = None
    status: Optional[int] = None
    doc: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> Optional[float]:
        """Seconds from the intended send to the complete response."""
        if self.done is None or self.intended is None:
            return None
        return self.done - self.intended

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    def record(self) -> Dict[str, Any]:
        return {"rid": self.rid, "kind": self.kind, "sent": self.sent,
                "done": self.done}


class Connection:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, req: Request) -> None:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        headers = {"X-Request-Id": req.rid}
        if req.body is not None:
            headers["Content-Type"] = "application/json"
        try:
            req.sent = _clock()
            self._conn.request(req.method, req.path, body=req.body,
                               headers=headers)
            resp = self._conn.getresponse()
            raw = resp.read()
            req.done = _clock()
            req.status = resp.status
            req.doc = json.loads(raw.decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError) as exc:
            req.done = req.done or _clock()
            req.error = f"{type(exc).__name__}: {exc}"
            self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_phase(connections: Sequence[Connection],
              schedules: Sequence[List[Request]], *,
              deadline: float) -> float:
    """Drive ``schedules[i]`` over ``connections[i]``; returns the
    phase start.

    Each connection sends its own schedule in order, one request at a
    time.  A request not sent within ``deadline`` seconds of its
    intended time is abandoned (left with ``sent is None``): its
    latency is past any limit the caller applies.
    """
    start = _clock() + 0.05

    def worker(conn: Connection, schedule: List[Request]) -> None:
        for req in schedule:
            req.intended = start + req.offset
            req.picked = _clock()
            if req.picked > req.intended + deadline:
                continue
            delay = req.intended - req.picked
            if delay > 0:
                time.sleep(delay)
            conn.send(req)

    threads = [threading.Thread(target=worker, args=(c, s), daemon=True)
               for c, s in zip(connections, schedules)]
    last = max((s[-1].offset for s in schedules if s), default=0.0)
    for t in threads:
        t.start()
    for t in threads:
        t.join(start + last + deadline + REQUEST_TIMEOUT_S + 5.0 - _clock())
        if t.is_alive():
            raise RuntimeError("load driver thread did not finish")
    return start


def lag(req: Request) -> Optional[float]:
    """How late the driver sent ``req`` once its connection was free."""
    if req.sent is None:
        return None
    return req.sent - max(req.intended, req.picked)


def queue(req: Request) -> Optional[float]:
    """How long ``req`` waited for its connection to be free."""
    if req.picked is None or req.intended is None:
        return None
    return max(0.0, req.picked - req.intended)
