#!/usr/bin/env python3
"""Serving-gateway benchmark: open-loop load against a live gateway.

Spawns ``python -m polygraphmr.serve`` over a synthetic cache with a pinned
per-batch service rate (``--batch-sleep``, so the numbers measure the
gateway — framing, coalescing, shedding and breaker hysteresis — rather
than the model math or the host's numpy throughput), then drives it with
open-loop client load: each client sends requests on a fixed pacing
interval regardless of when responses come back, the way real callers do.

Schema v3 runs one gateway across three concurrency levels.  Per level it
records requests/sec actually answered, client-side p50/p95/p99 latency,
and the outcome mix.  Emits ``BENCH_serve.json``::

    PYTHONPATH=src python scripts/bench_serve.py

With ``--baseline BENCH_serve.json``, answered requests/sec for each
matching concurrency level is gated against the committed baseline: a
regression beyond ``--max-regression`` (default 30%) fails the run (exit 1)
after one re-measurement.  Every request must receive exactly one reply — a
lost or duplicated frame fails the bench outright.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from polygraphmr.serve import ServeRequest, request_frame  # noqa: E402

SCHEMA = "polygraphmr/bench-serve/v3"
ENV = {"PYTHONPATH": str(REPO_ROOT / "src")}
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
MODEL = "net-00"
READY_DEADLINE_S = 60.0

# (clients, requests per client, pacing interval seconds).  The first level
# offers roughly the pinned capacity (latency floor); the later levels offer
# far more (shed/degrade territory).
LEVELS = ((2, 30, 0.02), (8, 60, 0.002), (24, 60, 0.002))


def start_gateway(cache: Path, args) -> tuple[subprocess.Popen, int]:
    cmd = [
        sys.executable,
        "-m",
        "polygraphmr.serve",
        "--cache",
        str(cache),
        "--synthetic-models",
        str(args.models),
        "--seed",
        str(args.seed),
        "--port",
        "0",
        "--batch-sleep",
        str(args.batch_sleep),
        "--batch-max",
        "8",
        "--coalesce-ms",
        "1.0",
        "--max-queue",
        "192",
        "--degrade-depth",
        "8",
        "--failure-threshold",
        "2",
        "--cooldown-ticks",
        "2",
    ]
    proc = subprocess.Popen(cmd, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + READY_DEADLINE_S
    ready_line = proc.stdout.readline()
    if time.monotonic() > deadline or not ready_line:
        proc.kill()
        raise SystemExit(f"FAIL: gateway never printed a ready line: {proc.stderr.read()}")
    ready = json.loads(ready_line)
    if not ready.get("ready") or not ready.get("port"):
        proc.kill()
        raise SystemExit(f"FAIL: bad ready line {ready_line!r}")
    return proc, int(ready["port"])


async def open_loop_client(port: int, client: int, n: int, interval_s: float) -> list[tuple[str, float, dict]]:
    """One paced client connection: fire every ``interval_s`` regardless of
    responses (open loop), collect (id, latency_s, payload) per request."""

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    sent: dict[str, float] = {}
    done: list[tuple[str, float, dict]] = []

    async def read_responses() -> None:
        while len(done) < n:
            raw = await reader.readline()
            if not raw:
                raise SystemExit(f"FAIL: connection closed with {n - len(done)} responses outstanding")
            payload = json.loads(raw)
            rid = payload["id"]
            done.append((rid, time.perf_counter() - sent.pop(rid), payload))

    collector = asyncio.create_task(read_responses())
    for i in range(n):
        rid = f"c{client}-{i}"
        sent[rid] = time.perf_counter()
        writer.write(request_frame(ServeRequest(id=rid, model=MODEL, samples=(i % 96,))))
        await writer.drain()
        await asyncio.sleep(interval_s)
    await collector
    writer.close()
    return done


async def run_level(port: int, clients: int, n: int, interval_s: float) -> dict:
    start = time.perf_counter()
    per_client = await asyncio.gather(*[open_loop_client(port, c, n, interval_s) for c in range(clients)])
    wall_s = time.perf_counter() - start

    total = clients * n
    responses = [item for batch in per_client for item in batch]
    if len(responses) != total:
        raise SystemExit(f"FAIL: {len(responses)} responses to {total} requests")
    ids = {rid for rid, _, _ in responses}
    if len(ids) != total:
        raise SystemExit("FAIL: duplicate response ids")

    latencies = sorted(latency for _, latency, _ in responses)
    outcomes: dict[str, int] = {}
    for _, _, payload in responses:
        outcomes[payload["outcome"]] = outcomes.get(payload["outcome"], 0) + 1
    if outcomes.get("error"):
        raise SystemExit(f"FAIL: {outcomes['error']} error responses under clean load")
    return {
        "clients": clients,
        "requests": total,
        "pacing_interval_s": interval_s,
        "offered_rps": round(clients / interval_s, 2),
        "achieved_rps": round(total / wall_s, 2),
        "wall_s": round(wall_s, 4),
        "latency_s": {name: round(latencies[min(total - 1, int(q * total))], 6) for name, q in QUANTILES},
        "outcomes": outcomes,
        "shed_rate": round(outcomes.get("overloaded", 0) / total, 4),
        "degraded_rate": round(outcomes.get("degraded", 0) / total, 4),
    }


async def settle(port: int, probes: int = 6) -> None:
    """Sequential calm probes between levels: each executes as its own calm
    batch (a breaker-board tick), so open breakers cool down and close and
    every level starts from the full member set."""

    for i in range(probes):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(request_frame(ServeRequest(id=f"settle-{i}", model=MODEL, samples=(0,))))
        await writer.drain()
        await reader.readline()
        writer.close()


def run_sweep(args) -> tuple[list[dict], dict]:
    """One full concurrency sweep against a fresh gateway; returns the
    levels and the gateway's drain summary."""

    levels: list[dict] = []
    tmp = Path(tempfile.mkdtemp(prefix="polygraphmr-bench-serve-"))
    proc, port = start_gateway(tmp / "cache", args)
    try:
        for clients, n, interval_s in LEVELS:
            level = asyncio.run(run_level(port, clients, n, interval_s))
            levels.append(level)
            print(
                f"[serve] clients={clients}: offered {level['offered_rps']:.0f} rps, "
                f"answered {level['achieved_rps']:.0f} rps, p99 {level['latency_s']['p99'] * 1000:.1f} ms, "
                f"shed {level['shed_rate']:.1%}, degraded {level['degraded_rate']:.1%}"
            )
            asyncio.run(settle(port))
    finally:
        summary = stop_gateway(proc)
    return levels, summary


def stop_gateway(proc: subprocess.Popen) -> dict:
    proc.send_signal(signal.SIGTERM)
    try:
        stdout, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit("FAIL: gateway did not drain within 60s of SIGTERM")
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: gateway exited {proc.returncode} on SIGTERM: {stderr}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    summary = json.loads(lines[-1])
    if not summary.get("drained"):
        raise SystemExit(f"FAIL: no drain summary in gateway stdout: {stdout!r}")
    return summary


def validate_bench(payload: dict) -> None:
    """Schema check for ``BENCH_serve.json``; raises ValueError."""

    if payload.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    config = payload.get("config")
    if not isinstance(config, dict):
        raise ValueError("config must be an object")
    for key in ("seed", "models", "batch_sleep_s"):
        if not isinstance(config.get(key), (int, float)):
            raise ValueError(f"config.{key} must be a number")
    levels = payload.get("levels")
    if not isinstance(levels, list) or len(levels) < 2:
        raise ValueError("levels must sweep at least 2 concurrency levels")
    for level in levels:
        for key in (
            "clients",
            "requests",
            "offered_rps",
            "achieved_rps",
            "wall_s",
            "shed_rate",
            "degraded_rate",
        ):
            if not isinstance(level.get(key), (int, float)):
                raise ValueError(f"levels[].{key} must be a number")
        latency = level.get("latency_s")
        if not isinstance(latency, dict):
            raise ValueError("levels[].latency_s must be an object")
        for name, _ in QUANTILES:
            if not isinstance(latency.get(name), (int, float)):
                raise ValueError(f"levels[].latency_s.{name} must be a number")
        outcomes = level.get("outcomes")
        if not isinstance(outcomes, dict) or sum(outcomes.values()) != level["requests"]:
            raise ValueError("levels[].outcomes must tally to levels[].requests")
    server = payload.get("server")
    if not isinstance(server, dict) or not isinstance(server.get("served"), dict):
        raise ValueError("server must be the gateway's drain summary")


def gate_against_baseline(levels: list[dict], baseline: dict, max_regression: float) -> list[str]:
    """Answered requests/sec per concurrency level vs the committed
    baseline; returns the list of human-readable failures (empty = pass)."""

    base_by_clients = {lvl["clients"]: lvl for lvl in baseline.get("levels", [])}
    failures = []
    for level in levels:
        base = base_by_clients.get(level["clients"])
        if base is None:
            continue
        floor = base["achieved_rps"] * (1.0 - max_regression)
        if level["achieved_rps"] < floor:
            failures.append(
                f"clients={level['clients']}: {level['achieved_rps']:.0f} rps "
                f"< floor {floor:.0f} (baseline {base['achieved_rps']:.0f}, "
                f"max regression {max_regression:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--models", type=int, default=2)
    parser.add_argument(
        "--batch-sleep",
        type=float,
        default=0.06,
        help="per-batch sleep pinning the gateway's service rate (seconds)",
    )
    parser.add_argument("--out", default="BENCH_serve.json", help="bench JSON output path")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_serve.json to gate answered rps against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="max tolerated fractional rps regression vs baseline (default: 0.30)",
    )
    args = parser.parse_args(argv)

    levels, server = run_sweep(args)

    baseline = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if baseline_path.is_file():
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
            try:
                validate_bench(baseline)
            except ValueError as exc:
                print(f"note: baseline {baseline_path} is from another schema ({exc}); gate skipped")
                baseline = None
        else:
            print(f"note: baseline {baseline_path} not found; gate skipped")

    failures = gate_against_baseline(levels, baseline, args.max_regression) if baseline else []
    if failures:
        # shared runners blip; re-measure once before declaring a regression
        print("gate tripped; re-measuring once")
        retry, server = run_sweep(args)
        by_clients = {lvl["clients"]: lvl for lvl in levels}
        for candidate in retry:
            if candidate["achieved_rps"] > by_clients[candidate["clients"]]["achieved_rps"]:
                by_clients[candidate["clients"]] = candidate
        levels = [by_clients[c] for c, _, _ in LEVELS]
        failures = gate_against_baseline(levels, baseline, args.max_regression)

    # the overload levels must actually exercise the overload machinery —
    # a bench where nothing sheds or degrades is measuring the wrong regime
    if not any(lvl["shed_rate"] > 0 for lvl in levels):
        raise SystemExit("FAIL: no level ever shed — offered load never hit the queue bound")
    if not any(lvl["degraded_rate"] > 0 for lvl in levels):
        raise SystemExit("FAIL: no level ever degraded — pressure never tripped a breaker")

    payload = {
        "schema": SCHEMA,
        "config": {
            "seed": args.seed,
            "models": args.models,
            "batch_sleep_s": args.batch_sleep,
            "levels": [{"clients": c, "requests_per_client": n, "pacing_interval_s": i} for c, n, i in LEVELS],
        },
        "levels": levels,
        "server": server,
        "host": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "machine": platform.machine(),
        },
    }
    validate_bench(payload)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
