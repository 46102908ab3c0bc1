"""The ``serve-session`` workload: a scripted ``repro serve`` session.

A real daemon runs as a subprocess (``repro serve --port 0``, default
batch window).  One process drives it through one ``selectors`` loop
over :data:`CONNECTIONS` connections, each keeping :data:`DEPTH`
requests in flight in a closed loop: a mail server waits for each
verdict before it sends the next message.

The session has three steps:

* **train**: the model is trained over the wire (not timed);
* **read**: score requests only;
* **mixed**: one request in :data:`WRITE_EVERY` is a ``feedback`` of a
  held-out message, which grows the vocabulary while reads go on.

Every reply is checked afterwards: the writes are replayed in ``seq``
order against a library classifier, and each score must equal the
library's score at the reply's ``model_seq``, bit for bit.
"""

from __future__ import annotations

import json
import re
import select
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from proctree import TreePeak

CONNECTIONS = 2
DEPTH = 16
WRITE_EVERY = 20
# A phase that has not finished by then fails the session: a daemon that
# keeps its connections open but stops answering must not hang the run.
PHASE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Size:
    train: int
    read: int
    mixed: int

    @property
    def feedback(self) -> int:
        return self.mixed // WRITE_EVERY


# At least 1,000 samples per latency series, so each p99 has ten
# samples beyond it: 6,000 reads, and 1,000 writes among the mixed.
FULL = Size(train=200, read=6000, mixed=20000)
TINY = Size(train=40, read=200, mixed=400)


@dataclass
class Inputs:
    train: list  # (tokens, is_spam)
    feedback: list  # (tokens, is_spam), held out from training
    probes: list  # token lists scored in both phases


def build_inputs(seed: int, size: Size) -> Inputs:
    """Token lists for one session, a pure function of ``seed``."""
    from repro.corpus.trec import TrecStyleCorpus

    held_out = size.feedback
    probes = 200
    total = size.train + held_out + probes
    corpus = TrecStyleCorpus.generate(
        n_ham=total // 2, n_spam=total - total // 2, seed=seed
    )
    messages = [(sorted(m.tokens()), m.is_spam) for m in corpus.dataset]
    return Inputs(
        train=messages[: size.train],
        feedback=messages[size.train : size.train + held_out],
        probes=[tokens for tokens, _ in messages[size.train + held_out :]],
    )


@dataclass
class Phase:
    """Requests of one phase and what came back."""

    requests: list
    replies: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    started: float = 0.0

    @property
    def window(self) -> tuple[float, float]:
        return self.started, self.started + self.wall_s


@dataclass
class Session:
    setup: tuple  # (spawned, ready) perf_counter readings
    phases: dict
    stats: dict
    peak_rss_mb: float
    trace: dict | None
    encode_s: float
    decode_s: float
    daemon_status: int


class _Driver:
    """Closed-loop load over several connections in one selector loop."""

    def __init__(self, address) -> None:
        self.selector = selectors.DefaultSelector()
        self.conns = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(address, timeout=60.0)
            sock.setblocking(False)
            conn = {"sock": sock, "out": bytearray(), "in": bytearray(), "inflight": 0}
            self.selector.register(sock, selectors.EVENT_READ, conn)
            self.conns.append(conn)
        self.next_id = 0
        self.encode_s = 0.0
        self.decode_s = 0.0

    def close(self) -> None:
        for conn in self.conns:
            self.selector.unregister(conn["sock"])
            conn["sock"].close()
        self.selector.close()

    def _send(self, conn, payload: dict) -> None:
        from repro.serve import protocol

        start = time.perf_counter()
        frame = protocol.encode_frame(payload)
        self.encode_s += time.perf_counter() - start
        conn["out"] += frame
        conn["inflight"] += 1

    def run(self, phase: Phase, depth: int = DEPTH) -> None:
        from repro.serve import protocol

        header = protocol.HEADER.size
        requests = phase.requests
        phase.replies = [None] * len(requests)
        phase.latencies = [0.0] * len(requests)
        sent_at: dict[int, tuple[int, float]] = {}
        cursor = 0
        done = 0
        wall_start = phase.started = time.perf_counter()
        cpu_start = time.process_time()

        def feed(conn) -> None:
            nonlocal cursor
            while conn["inflight"] < depth and cursor < len(requests):
                self.next_id += 1
                sent_at[self.next_id] = (cursor, time.perf_counter())
                self._send(conn, {"id": self.next_id, **requests[cursor]})
                cursor += 1

        for conn in self.conns:
            feed(conn)
        deadline = wall_start + PHASE_TIMEOUT_S
        while done < len(requests):
            for conn in self.conns:
                wanted = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn["out"] else 0)
                self.selector.modify(conn["sock"], wanted, conn)
            remaining = deadline - time.perf_counter()
            ready = self.selector.select(timeout=remaining) if remaining > 0 else []
            if not ready:
                raise TimeoutError(f"daemon answered {done} of {len(requests)} requests "
                                   f"within {PHASE_TIMEOUT_S:.0f} s")
            for key, events in ready:
                conn = key.data
                if events & selectors.EVENT_WRITE and conn["out"]:
                    sent = conn["sock"].send(conn["out"])
                    del conn["out"][:sent]
                if not events & selectors.EVENT_READ:
                    continue
                chunk = conn["sock"].recv(1 << 18)
                if not chunk:
                    raise ConnectionError("daemon closed a connection mid-session")
                buffer = conn["in"]
                buffer += chunk
                now = time.perf_counter()
                while len(buffer) >= header:
                    (length,) = protocol.HEADER.unpack_from(buffer)
                    if len(buffer) < header + length:
                        break
                    start = time.perf_counter()
                    reply = protocol.decode_payload(bytes(buffer[header : header + length]))
                    self.decode_s += time.perf_counter() - start
                    del buffer[: header + length]
                    index, sent = sent_at.pop(reply["id"])
                    phase.replies[index] = reply
                    phase.latencies[index] = now - sent
                    conn["inflight"] -= 1
                    done += 1
                feed(conn)
        phase.wall_s = time.perf_counter() - wall_start
        phase.cpu_s = time.process_time() - cpu_start

    def call(self, payload: dict) -> dict:
        phase = Phase(requests=[payload])
        self.run(phase, depth=1)
        return phase.replies[0]


def _mixed_requests(inputs: Inputs, size: Size) -> list:
    requests = []
    feedback = iter(inputs.feedback)
    probes = inputs.probes
    for i in range(size.mixed):
        if i % WRITE_EVERY == WRITE_EVERY - 1:
            tokens, is_spam = next(feedback)
            requests.append({"verb": "feedback", "tokens": tokens, "is_spam": is_spam})
        else:
            requests.append({"verb": "score", "tokens": probes[(i * 7) % len(probes)]})
    return requests


def spawn_daemon(root: Path, env: dict, launcher: list | None, log):
    """Start a daemon; return (process, address, (spawned, ready))."""
    serve = ["serve", "--port", "0"]
    argv = [*launcher, "--", *serve] if launcher else [sys.executable, "-m", "repro", *serve]
    spawned = time.perf_counter()
    daemon = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True
    )
    announced, _, _ = select.select([daemon.stdout], [], [], PHASE_TIMEOUT_S)
    line = daemon.stdout.readline() if announced else ""
    ready = time.perf_counter()
    match = re.match(r"serving on (.+):(\d+)", line)
    if not match:
        daemon.kill()
        daemon.wait()
        raise RuntimeError(f"daemon did not announce its port: {line!r}")
    return daemon, (match.group(1), int(match.group(2))), (spawned, ready)


def stop_daemon(daemon, address) -> int:
    """Ask the daemon to shut down; kill it if it does not."""
    from repro.serve import protocol

    try:
        with socket.create_connection(address, timeout=10.0) as sock:
            protocol.send_frame(sock, {"id": 0, "verb": "shutdown"})
            protocol.recv_frame(sock)
        return daemon.wait(timeout=30.0)
    except (OSError, subprocess.TimeoutExpired):
        daemon.kill()
        return daemon.wait()


def run_session(root: Path, env: dict, inputs: Inputs, size: Size,
                report: Path | None, log) -> Session:
    """One daemon, one train/read/mixed session; traced if ``report``."""
    launcher = None
    if report is not None:
        launcher = [sys.executable, str(root / "e2ebench" / "launch.py"), str(report), "1"]
    daemon, address, setup = spawn_daemon(root, env, launcher, log)
    peak = TreePeak(daemon.pid)
    try:
        driver = _Driver(address)
        try:
            train = Phase([{"verb": "train", "tokens": t, "is_spam": s} for t, s in inputs.train])
            driver.run(train)
            read = Phase([
                {"verb": "score", "tokens": inputs.probes[i % len(inputs.probes)]}
                for i in range(size.read)
            ])
            driver.run(read)
            mixed = Phase(_mixed_requests(inputs, size))
            driver.run(mixed)
            stats = driver.call({"verb": "stats"})
        finally:
            driver.close()
    finally:
        status = stop_daemon(daemon, address)
        daemon.stdout.close()
        rss = peak.stop()
    trace = None
    if report is not None:
        trace = json.loads(report.read_text(encoding="utf-8"))
    return Session(
        setup=setup,
        phases={"train": train, "read": read, "mixed": mixed},
        stats=stats,
        peak_rss_mb=rss,
        trace=trace,
        encode_s=driver.encode_s,
        decode_s=driver.decode_s,
        daemon_status=status,
    )


def count_failures(session: Session) -> tuple[int, int]:
    """(attempted, failed) over every request of the session.

    A reply fails if it is an error, if the write ``seq`` numbers are
    not exactly 1..W, or if its score differs from the library's score
    at its ``model_seq`` after replaying the writes in ``seq`` order.
    """
    from repro.spambayes.ndkernel import create_classifier

    writes: dict[int, tuple] = {}
    reads: dict[int, list] = {}
    attempted = failed = 0
    for phase in session.phases.values():
        for request, reply in zip(phase.requests, phase.replies):
            attempted += 1
            if reply is None or not reply.get("ok"):
                failed += 1
            elif request["verb"] == "score":
                reads.setdefault(reply["model_seq"], []).append((request["tokens"], reply["score"]))
            else:
                writes[reply["seq"]] = (request["tokens"], request["is_spam"])
    if sorted(writes) != list(range(1, len(writes) + 1)):
        return attempted, attempted
    classifier = create_classifier()
    for seq in range(len(writes) + 1):
        if seq:
            classifier.learn(*writes[seq])
        batch = reads.pop(seq, [])
        if batch:
            expected = classifier.score_many([tokens for tokens, _ in batch])
            failed += sum(1 for (_, served), want in zip(batch, expected) if served != want)
    failed += sum(len(batch) for batch in reads.values())  # model_seq never reached
    if session.stats is None or not session.stats.get("ok") or session.daemon_status != 0:
        failed += 1
    return attempted + 1, failed

