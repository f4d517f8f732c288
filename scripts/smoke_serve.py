#!/usr/bin/env python3
"""End-to-end smoke test for the serving gateway: concurrent load,
mid-load SIGTERM drain, and shared-memory hygiene.

Three phases against one gateway subprocess over a synthetic cache::

    PYTHONPATH=src python scripts/smoke_serve.py

1. **Serve** — spawn ``python -m polygraphmr.serve`` (TCP, auto port,
   shared-memory plane on), wait for the ready line, fire concurrent
   classification requests plus a ping and a metrics op; every request must
   be answered ``ok`` with the full member set, and each raw ``ok`` frame
   must equal, byte for byte, canonical ``json.dumps`` of the payload an
   in-process ``PolygraphService`` computes over the same cache.
2. **SIGTERM mid-load** — start a paced stream of requests, SIGTERM the
   gateway while they are in flight, and require: every request accepted
   before the drain gets a terminal response, the process exits 0 within
   the deadline, the drain summary's per-outcome counts reconcile exactly
   with the responses received across both phases, and the metrics JSON +
   Prometheus dumps are written and parseable.
3. **Hygiene** — no ``pgmr-*`` shared-memory segment may remain under
   ``/dev/shm`` after exit (the plane publisher unlinks before serving, so
   even a SIGKILL cannot leak), and a fresh connection attempt must be
   refused.

Exits 0 on success; any deviation is a hard failure.  Run by CI on every
push.
"""

from __future__ import annotations

import asyncio
import contextlib
import glob
import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from polygraphmr.serve import OUTCOMES, PolygraphService, ServeRequest, request_frame  # noqa: E402
from polygraphmr.store import ArtifactStore  # noqa: E402

N_MODELS = 2
MODEL = "net-00"
SEED = 7
N_CONCURRENT = 24
N_MIDLOAD = 40
DEADLINE_S = 300.0
ENV = {"PYTHONPATH": str(REPO_ROOT / "src")}


def shm_segments() -> list[str]:
    return sorted(glob.glob("/dev/shm/pgmr-*"))


def start_gateway(tmp: Path) -> tuple[subprocess.Popen, int]:
    cmd = [
        sys.executable,
        "-m",
        "polygraphmr.serve",
        "--cache",
        str(tmp / "cache"),
        "--synthetic-models",
        str(N_MODELS),
        "--seed",
        str(SEED),
        "--port",
        "0",
        "--batch-sleep",
        "0.01",
        "--batch-max",
        "8",
        "--metrics-out",
        str(tmp / "metrics.json"),
        "--prom-out",
        str(tmp / "metrics.prom"),
    ]
    proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    start = time.monotonic()
    ready_line = proc.stdout.readline()
    if not ready_line or time.monotonic() - start > DEADLINE_S:
        proc.kill()
        raise SystemExit(f"FAIL: gateway never became ready: {proc.stderr.read()}")
    ready = json.loads(ready_line)
    if ready.get("ready") is not True or sorted(ready.get("models", [])) != [f"net-{i:02d}" for i in range(N_MODELS)]:
        raise SystemExit(f"FAIL: bad ready line: {ready_line!r}")
    print(f"OK: gateway ready on port {ready['port']} serving {ready['models']}")
    return proc, int(ready["port"])


async def one_frame(port: int, request: ServeRequest) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request_frame(request))
    await writer.drain()
    raw = await reader.readline()
    writer.close()
    if not raw:
        raise SystemExit(f"FAIL: no response for request {request.id!r}")
    return raw


async def one_request(port: int, request: ServeRequest) -> dict:
    return json.loads(await one_frame(port, request))


def check_wire_bytes(cache: Path, requests: list[ServeRequest], frames: list[bytes]) -> None:
    """Each raw ``ok`` frame must be canonical ``json.dumps`` of the payload
    an in-process service computes over the same cache, byte for byte."""

    service = PolygraphService(ArtifactStore(cache), seed=SEED)
    for request, raw in zip(requests, frames):
        answer = json.loads(raw)
        expected = service.evaluate_requests(
            request.model,
            [request],
            active=answer["members"],
            shed=answer["shed"],
            breaker_states=answer["breakers"],
        )[0]
        want = json.dumps(expected, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
        if raw != want:
            raise SystemExit(f"FAIL: ok frame for {request.id!r} differs from json.dumps of the in-process payload")
    print(f"OK: {len(frames)} ok frames byte-identical to json.dumps of the in-process payloads")


def phase_concurrent_requests(port: int, cache: Path) -> dict[str, int]:
    requests = [ServeRequest(id=f"r{i}", model=MODEL, samples=(i % 96,)) for i in range(N_CONCURRENT)]

    async def run():
        frames = await asyncio.gather(*[one_frame(port, request) for request in requests])
        pong = await one_request(port, ServeRequest(id="hb", op="ping"))
        snapshot = await one_request(port, ServeRequest(op="metrics"))
        return frames, pong, snapshot

    frames, pong, snapshot = asyncio.run(run())
    payloads = [json.loads(raw) for raw in frames]
    outcomes: dict[str, int] = {}
    for payload in payloads:
        outcomes[payload["outcome"]] = outcomes.get(payload["outcome"], 0) + 1
        if payload["outcome"] != "ok":
            raise SystemExit(f"FAIL: request {payload['id']} answered {payload['outcome']}, expected ok")
        if payload["degraded"] or payload["shed"]:
            raise SystemExit(f"FAIL: unloaded gateway served degraded: {payload['id']}")
    if pong != {"id": "hb", "ok": True, "op": "ping"}:
        raise SystemExit(f"FAIL: bad pong {pong!r}")
    if snapshot["requests"]["ok"] != N_CONCURRENT or sum(snapshot["requests"].values()) != N_CONCURRENT:
        raise SystemExit(f"FAIL: metrics op disagrees with responses: {snapshot!r}")
    print(f"OK: {N_CONCURRENT} concurrent requests all ok; ping + metrics ops answered inline")
    check_wire_bytes(cache, requests, frames)
    return outcomes


def phase_sigterm_mid_load(proc: subprocess.Popen, port: int) -> tuple[dict[str, int], str]:
    """SIGTERM while a paced stream is in flight; every accepted request
    must still get a terminal reply before the process exits 0."""

    async def run():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        payloads: list[dict] = []

        async def collect() -> None:
            # reads until the server closes the connection at the end of drain
            with contextlib.suppress(ConnectionError):
                while True:
                    raw = await reader.readline()
                    if not raw:
                        break
                    payloads.append(json.loads(raw))

        collector = asyncio.create_task(collect())
        # offered faster than the pinned service rate, so a backlog of
        # in-flight requests exists when the SIGTERM lands
        for i in range(N_MIDLOAD):
            writer.write(request_frame(ServeRequest(id=f"k{i}", model=MODEL, samples=(i % 96,))))
            await writer.drain()
            await asyncio.sleep(0.001)
        proc.send_signal(signal.SIGTERM)  # mid-load: the queue is not empty
        await collector
        writer.close()
        return payloads

    payloads = asyncio.run(run())
    try:
        stdout, stderr = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit("FAIL: gateway did not exit after SIGTERM")
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: gateway exited {proc.returncode} after SIGTERM: {stderr}")
    answered = {payload["id"] for payload in payloads}
    expected = {f"k{i}" for i in range(N_MIDLOAD)}
    if answered != expected:
        raise SystemExit(
            f"FAIL: drain lost in-flight requests: {sorted(expected - answered)} unanswered, "
            f"{sorted(answered - expected)} unexpected"
        )
    if len(payloads) != N_MIDLOAD:
        raise SystemExit("FAIL: duplicate responses during drain")
    outcomes: dict[str, int] = {}
    for payload in payloads:
        outcomes[payload["outcome"]] = outcomes.get(payload["outcome"], 0) + 1
    bad = set(outcomes) - {"ok", "degraded"}
    if bad:
        raise SystemExit(f"FAIL: unexpected outcomes during drain: {outcomes}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    summary = json.loads(lines[-1])
    if summary.get("drained") is not True:
        raise SystemExit(f"FAIL: no drain summary: {stdout!r}")
    print(
        f"OK: SIGTERM mid-load; all {N_MIDLOAD} in-flight requests answered during drain, "
        "exit 0, drain summary present"
    )
    return outcomes, summary


def check_reconciliation(summary: dict, outcomes: dict[str, int], tmp: Path) -> None:
    for outcome in OUTCOMES:
        if summary["served"].get(outcome, 0) != outcomes.get(outcome, 0):
            raise SystemExit(
                f"FAIL: drain summary says {summary['served']}, responses tallied {outcomes}"
            )
    metrics = json.loads((tmp / "metrics.json").read_text(encoding="utf-8"))
    served = {
        row["labels"]["outcome"]: row["value"]
        for row in metrics["counters"]
        if row["name"] == "serve_requests_total"
    }
    if served != {k: v for k, v in outcomes.items() if v}:
        raise SystemExit(f"FAIL: metrics.json says {served}, responses tallied {outcomes}")
    prom = (tmp / "metrics.prom").read_text(encoding="utf-8")
    if "serve_requests_total" not in prom or "serve_request_seconds" not in prom:
        raise SystemExit("FAIL: Prometheus dump is missing the serve metrics")
    print("OK: drain summary, metrics.json, and responses all reconcile exactly")


def check_hygiene(port: int, before: list[str]) -> None:
    after = shm_segments()
    leaked = sorted(set(after) - set(before))
    if leaked:
        raise SystemExit(f"FAIL: shared-memory segments leaked: {leaked}")
    with socket.socket() as sock:
        sock.settimeout(1.0)
        if sock.connect_ex(("127.0.0.1", port)) == 0:
            raise SystemExit(f"FAIL: port {port} still accepting connections after exit")
    print("OK: no /dev/shm leak, listener gone")


def main() -> int:
    shm_before = shm_segments()
    tmp = Path(tempfile.mkdtemp(prefix="polygraphmr-smoke-serve-"))
    proc, port = start_gateway(tmp)
    try:
        outcomes = phase_concurrent_requests(port, tmp / "cache")
        drain_outcomes, summary = phase_sigterm_mid_load(proc, port)
    finally:
        if proc.poll() is None:
            proc.kill()
    for outcome, n in drain_outcomes.items():
        outcomes[outcome] = outcomes.get(outcome, 0) + n
    check_reconciliation(summary, outcomes, tmp)
    check_hygiene(port, shm_before)
    print("OK: serve smoke complete")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
