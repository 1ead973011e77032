"""serve-open: a seeded open-loop load against a real ``repro serve``.

Arrivals follow a Poisson process conditioned on its count (``RATE`` x
duration arrival times drawn uniformly and sorted), and the classes are a
seeded shuffle of fixed counts (``MIX``), so every seed offers the same
load.  The sweep-class share (misses and pairs) at ``RATE`` keeps the one
sweep worker about half busy; those requests are spread one per equal
time slot.  The split of the rest between cache hits and predicted
uploads is an assumption: the repository holds no recorded advisor
traffic to derive it from.  Each arrival is one request class:

* ``hit`` — a repeat of a request answered during warm-up (result cache);
* ``predicted`` — a fresh upload the trained predictor covers;
* ``miss`` — a fresh upload with ``"predict": false`` (fork-worker sweep);
* ``pair`` — two identical fresh ``"predict": false`` uploads sent at
  once on both connections (one sweep, one coalesced follower).

At most ``CONNECTIONS`` requests are in flight (the service closes each
connection after one answer).  A request is timed from its due time, so
a stalled generator charges the wait to the requests it delays, and the
generator's own lateness is reported.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import hostref

RATE = 20.0  #: arrivals per second
CONNECTIONS = 2
LATENCY_LIMIT_S = 2.0
#: Class shares.  miss + pair follow from the half-busy rule; the
#: hit/predicted split is assumed (no recorded traffic to derive it from).
MIX = (("hit", 0.80), ("predicted", 0.14), ("miss", 0.05), ("pair", 0.01))
EXPECTED_SOURCES = {
    "hit": ["cache"],
    "predicted": ["predicted"],
    "miss": ["sweep"],
    "pair": ["coalesced", "sweep"],
}
#: Warm-up requests whose answers the hit class repeats.
HIT_GRAPHS = (
    "2d-2e20.sym", "coPapersDBLP", "rmat22.sym", "soc-LiveJournal1",
    "USA-road-d.NY",
)
#: Uploads: one fixed shape, relabeled per request.
UPLOAD_VERTICES = 120
UPLOAD_EDGES = 360
UPLOAD_HUB = 12


@dataclass
class Arrival:
    due: float
    kind: str
    body: dict
    sent: List[float] = field(default_factory=list)
    answers: List[tuple] = field(default_factory=list)  #: (status, payload, done)


def _base_edges() -> List[tuple]:
    """The one upload shape: a spanning path, random chords, and a hub
    (vertex 0) of unique highest degree, the BFS source."""
    rng = random.Random(0)
    edges = {(v, v + 1) for v in range(UPLOAD_VERTICES - 1)}
    edges |= {(0, v) for v in range(2, 2 + UPLOAD_HUB)}
    while len(edges) < UPLOAD_EDGES:
        u, v = sorted(rng.sample(range(1, UPLOAD_VERTICES), 2))
        edges.add((u, v))
    return sorted(edges)


def _upload(rng: random.Random) -> dict:
    """A fresh upload: the base shape under a random vertex relabeling —
    a new graph to the service (new fingerprint), the same work."""
    label = list(range(UPLOAD_VERTICES))
    rng.shuffle(label)
    edges = sorted(
        (min(label[u], label[v]), max(label[u], label[v]))
        for u, v in _base_edges()
    )
    return {"edges": edges, "algorithms": ["bfs"]}


def hit_bodies() -> List[dict]:
    return [{"graph": name, "algorithms": ["bfs"]} for name in HIT_GRAPHS]


def schedule(seed: int, seconds: float) -> List[Arrival]:
    rng = random.Random(seed)
    n = max(1, int(round(RATE * seconds)))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    counts = {kind: int(round(n * share)) for kind, share in MIX[1:]}
    # Sweep-class requests (misses and pairs) take the arrival nearest the
    # middle of equal time slots: the worker stays about half busy without
    # random pile-ups that would stall both connections at once.
    sweeps = ["miss"] * counts["miss"] + ["pair"] * counts["pair"]
    rng.shuffle(sweeps)
    kinds = [None] * n
    width = seconds / max(1, len(sweeps))
    for j, kind in enumerate(sweeps):
        middle = (j + 0.5) * width
        free = [i for i in range(n) if kinds[i] is None]
        kinds[min(free, key=lambda i: abs(dues[i] - middle))] = kind
    rest = ["predicted"] * counts["predicted"]
    rest += ["hit"] * (kinds.count(None) - len(rest))
    rng.shuffle(rest)
    kinds = [kind if kind is not None else rest.pop() for kind in kinds]
    hits = hit_bodies()
    out = []
    for due, kind in zip(dues, kinds):
        if kind == "hit":
            body = dict(rng.choice(hits))
        else:
            body = _upload(rng)
            if kind != "predicted":
                body["predict"] = False
        out.append(Arrival(due, kind, body))
    return out


# ----------------------------------------------------------------------
# HTTP client (one request per connection, as the service speaks it)
# ----------------------------------------------------------------------
async def request(port: int, method: str, path: str, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        f"Connection: close\r\n\r\n".encode() + data
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else None


async def run_open_loop(port: int, arrivals: List[Arrival]) -> float:
    """Send every arrival on its schedule; returns the loop's wall time."""
    slots = asyncio.Semaphore(CONNECTIONS)
    tasks = []
    start = time.perf_counter()

    async def send(arrival: Arrival) -> None:
        try:
            arrival.sent.append(time.perf_counter() - start)
            status, payload = await request(
                port, "POST", "/v1/advise", arrival.body
            )
        except (OSError, ValueError, IndexError) as exc:
            status, payload = 0, {"error": str(exc)}
        finally:
            slots.release()
        arrival.answers.append((status, payload, time.perf_counter() - start))

    for arrival in arrivals:
        delay = arrival.due - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        copies = 2 if arrival.kind == "pair" else 1
        for _ in range(copies):
            await slots.acquire()
        for _ in range(copies):
            tasks.append(asyncio.ensure_future(send(arrival)))
    await asyncio.gather(*tasks)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --scale tiny --workers 1`` on an ephemeral port,
    started through ``serve_launcher.py`` (with the layer shims when
    ``traced``)."""

    def __init__(self, env: dict, traced: bool):
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        self.proc = subprocess.Popen(
            [sys.executable, str(launcher), "--scale", "tiny", "serve",
             "--port", "0", "--workers", "1"],
            env=dict(env, PERFBENCH_TRACE=str(int(traced))),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stderr.readline()
        if "serving on http://" not in line:
            self.stop()
            raise RuntimeError(f"server failed to boot: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def statz(self) -> dict:
        return asyncio.run(request(self.port, "GET", "/statz"))[1]

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stderr.close()
        return code


def warm(server: Server) -> None:
    """Answer every hit-class request once, so the cache holds it."""

    async def go():
        for body in hit_bodies():
            status, payload = await request(
                server.port, "POST", "/v1/advise", {**body, "predict": False}
            )
            if status != 200 or payload.get("source") != "sweep":
                raise RuntimeError(f"warm-up request failed: {status} {payload}")

    asyncio.run(go())


def load_phase(env: dict, traced: bool, arrivals: List[Arrival],
               hostref_dir: Path) -> dict:
    """Boot, warm, load and drain one server, sampling the host's speed
    meanwhile from a separate process; returns raw observations."""
    with hostref.SamplerProcess(hostref_dir):
        t0 = time.perf_counter()
        server = Server(env, traced)
        try:
            warm(server)
            warm_s = time.perf_counter() - t0
            if traced:
                server.proc.send_signal(signal.SIGUSR1)
                time.sleep(0.2)
            before = server.statz()
            wall = asyncio.run(run_open_loop(server.port, arrivals))
            after = server.statz()
        finally:
            code = server.stop()
    return {
        "warm_s": warm_s, "wall": wall, "statz_before": before,
        "statz_after": after, "exit_code": code,
    }


def summarize(arrivals: List[Arrival], wall: float) -> dict:
    """Latencies per class, goodput and output checks of one phase."""
    per_class = {kind: [] for kind, _ in MIX}
    latencies, late, server_ms = [], [], []
    attempted = failed = good = 0
    errors = []
    for arrival in arrivals:
        late.append(max(0.0, min(arrival.sent) - arrival.due))
        sources = []
        for status, payload, done in arrival.answers:
            attempted += 1
            latency = done - arrival.due
            answered = (
                status == 200 and isinstance(payload, dict)
                and not payload.get("degraded")
            )
            if not answered:
                failed += 1
                latencies.append(float("inf"))
                per_class[arrival.kind].append(float("inf"))
                continue
            latencies.append(latency)
            per_class[arrival.kind].append(latency)
            server_ms.append(payload.get("elapsed_ms", 0.0))
            if latency <= LATENCY_LIMIT_S:
                good += 1
            else:  # timed out: answered, but too late to count
                failed += 1
            sources.append(payload.get("source"))
            if not payload.get("measured"):
                errors.append(f"{arrival.kind}: answer without timings")
        if len(sources) == len(arrival.answers) and (
            sorted(sources) != EXPECTED_SOURCES[arrival.kind]
        ):
            errors.append(
                f"{arrival.kind}: sources {sorted(sources)}, expected "
                f"{EXPECTED_SOURCES[arrival.kind]}"
            )
    span = max(wall, max(a.due for a in arrivals))
    return {
        "latencies": latencies, "per_class": per_class, "late": late,
        "server_ms": server_ms, "attempted": attempted, "failed": failed,
        "goodput_rps": good / span, "errors": errors,
    }


def server_env(work: Path, predictor: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_PREDICTOR"] = str(predictor)
    env["REPRO_TRACE_CACHE"] = str(work / "serve-traces")
    return env

