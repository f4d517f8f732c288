"""Serve phase: gateway set-up, an open-loop and a closed-loop load phase.

The gateway runs on product defaults (in-process evaluation, 2 ms coalescing
window, no padding) over a generated two-model cache.  Set-up is sampled on
several launches: launch to the ready line, plus one answered request per
model, because sessions are built and their gates fitted on first use.  The
last launch then takes the load:

* open loop at a fixed rate below capacity: latency from each request's due
  time, and the share answered ``ok`` by the full ensemble within
  ``LIMIT_MS``;
* closed loop with ``WINDOW`` requests in flight over at most ``nproc``
  connections, below the gateway's ``--degrade-depth`` of 8, so it measures
  compute capacity and not the shedding policy (see :func:`_closed`).

Afterwards a seeded sample of ``ok`` answers is recomputed with
``PolygraphService.evaluate_requests`` in this process and compared.
"""

from __future__ import annotations

import json
import os
import threading

import inputs
import loadgen
import stats
from common import BenchError, Ctx, clock, cpu_seconds, finish, launch

LIMIT_MS = 50.0  # latency limit of full_answer_share
WINDOW = 6  # closed-loop requests in flight, summed over connections
SETUP_LAUNCHES = 3
REFERENCE_SAMPLE = 48  # ok answers recomputed in-process
# generator p99 lateness beyond which a run is invalid: well above the
# millisecond hiccups of a shared host, well below a backlog that grows
LATE_LIMIT_MS = 25.0
WARM_S = 0.5

READY_TIMEOUT_S = 60.0

# per traffic shape: samples per request, the open-loop rate (requests/s),
# and an upper bound on one connection's closed-loop rate, which sizes the
# frame supply (a run that exhausts it fails rather than under-measures)
SHAPES = {
    "point": {"width": 1, "rate": 500.0, "max_conn_rps": 3000.0},
    "wide": {"width": 32, "rate": 100.0, "max_conn_rps": 1000.0},
}


class _Gateway:
    def __init__(self, ctx: Ctx, cache, *, traced: bool, tag: str):
        self.ctx = ctx
        self.launched = launch(ctx, "serve", ["--cache", str(cache)], trace=traced, tag=tag)
        watchdog = threading.Timer(READY_TIMEOUT_S, self.launched.proc.kill)
        watchdog.start()
        try:
            line = self.launched.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            finish(ctx, self.launched, timeout_s=10.0)
            raise BenchError("gateway printed no ready line")
        self.port = int(json.loads(line)["port"])

    def stop(self) -> dict:
        report, rest = finish(self.ctx, self.launched, timeout_s=30.0, terminate=True)
        summary = json.loads(rest.strip().splitlines()[-1])
        if not summary.get("drained"):
            raise BenchError(f"gateway did not drain: {summary}")
        return report


def _connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def run(ctx: Ctx, *, shape: str, seconds: float) -> dict:
    width, rate = SHAPES[shape]["width"], SHAPES[shape]["rate"]
    cache = ctx.work / "serve-cache"
    models = inputs.build_serve_cache(cache, ctx.seed)
    n_conn = _connections()
    open_s, closed_s = 0.7 * seconds, 0.3 * seconds

    # every frame is encoded before timing starts
    from polygraphmr.serve import request_frame

    def stream(stream_id: int, n: int, prefix: str):
        requests = inputs.request_stream(ctx.seed, stream_id, n, models, width, prefix)
        return requests, [request_frame(r) for r in requests]

    launches = 2 if ctx.trace else SETUP_LAUNCHES
    setup_reqs = [stream(10 + k, len(models), f"setup{k}")[0] for k in range(launches)]
    warm_reqs, warm_frames = stream(1, int(rate * WARM_S), "warm")
    open_reqs, open_frames = stream(2, int(rate * open_s), "open")
    supply = int(closed_s * SHAPES[shape]["max_conn_rps"]) + 200

    def closed_streams(tag: str, stream_id: int):
        return [stream(stream_id + c, supply, f"{tag}{c}") for c in range(n_conn)]

    sent: list[str] = []
    replies: list[tuple[float, bytes]] = []
    setups = []

    def setup(gateway: _Gateway, k: int) -> None:
        sock = loadgen.connect(gateway.port, 1)
        try:
            for request in setup_reqs[k]:
                sent.append(request.id)
                replies.append((clock(), json.dumps(loadgen.roundtrip(sock[0], request_frame(request))).encode()))
        finally:
            loadgen.close(sock)
        setups.append(clock() - gateway.launched.t0)

    for k in range(launches - 1):
        gateway = _Gateway(ctx, cache, traced=False, tag=f"serve-setup-{k}")
        setup(gateway, k)
        if ctx.trace:
            # the untraced baseline for trace.overhead_share
            baseline = _closed(gateway, closed_streams("base", 20), n_conn, closed_s / 2, sent, replies)
        gateway.stop()

    gateway = _Gateway(ctx, cache, traced=ctx.trace, tag="serve-load")
    setup(gateway, launches - 1)
    socks = loadgen.connect(gateway.port, n_conn)
    try:
        warm = loadgen.open_loop(socks, warm_frames, inputs.arrival_offsets(ctx.seed, 1, len(warm_frames), rate))
        replies.extend(warm["replies"])
        sent.extend(r.id for r in warm_reqs)
        phase = loadgen.open_loop(socks, open_frames, inputs.arrival_offsets(ctx.seed, 2, len(open_frames), rate))
    finally:
        loadgen.close(socks)
    sent.extend(r.id for r in open_reqs)
    replies.extend(phase["replies"])
    cap = _closed(gateway, closed_streams("closed", 30), n_conn, closed_s / 2 if ctx.trace else closed_s, sent, replies)
    report = gateway.stop()

    parsed = [(t, json.loads(line)) for t, line in replies]
    tally = stats.tally_replies(sent, [(p["id"], p["outcome"]) for _, p in parsed])
    if tally["failed"]:
        raise BenchError(f"gateway replies failed the exactly-once/no-error check: {tally}")
    by_id = {p["id"]: (t, p) for t, p in parsed}
    _check_reference(cache, ctx.seed, by_id, {r.id: r for r in open_reqs})

    due = dict(zip((r.id for r in open_reqs), phase["due"]))
    late_ms = [(s - d) * 1000.0 for s, d in zip(phase["sent"], phase["due"])]
    late_p99 = stats.percentile(late_ms, 99)
    if late_p99 > LATE_LIMIT_MS:
        raise BenchError(f"load generator fell behind: p99 lateness {late_p99:.2f} ms > {LATE_LIMIT_MS} ms")
    latency = {rid: (by_id[rid][0] - t) * 1000.0 for rid, t in due.items()}
    answered = [latency[rid] for rid in due if by_id[rid][1]["outcome"] in stats.ANSWERED]
    full = sum(
        1
        for rid in due
        if by_id[rid][1]["outcome"] == "ok" and not by_id[rid][1]["degraded"] and latency[rid] <= LIMIT_MS
    )
    result = {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "refused": tally["refused"],
        "setup_s": setups,
        "rss_mb": report["peak_rss_kb"] / 1024.0,
        "latency_p50_ms": stats.percentile(answered, 50),
        # the tail is reported, not bounded: see README.md
        "latency_tail": _tail(answered),
        "open_requests": len(due),
        "full_answer_share": full / len(due),
        "capacity_rps": cap,
        "late_p99_ms": late_p99,
    }
    if ctx.trace:
        result["layers"] = _layers(report["spans"], by_id, due, parsed, cap, baseline, late_p99)
    return result


def _tail(latencies: list[float]) -> dict:
    """The highest percentile with ten samples beyond it, and the count."""

    pct = stats.highest_supported_percentile(len(latencies))
    tail = {"samples": len(latencies)}
    if pct is not None:
        tail[f"p{pct:g}_ms"] = stats.percentile(latencies, pct)
    return tail


def _closed(gateway, streams, n_conn, seconds, sent, replies) -> float:
    """Compute capacity: requests answered per second of the gateway's CPU
    time, with ``WINDOW`` requests kept in flight.

    Divided by wall time, the same phase measures the round trips between
    two processes and the host's scheduling of them, which on a shared
    2-vCPU host moved by a third from minute to minute; per CPU second it
    held within 5 %.
    """

    socks = loadgen.connect(gateway.port, n_conn)
    pid = gateway.launched.proc.pid
    try:
        cpu_before = cpu_seconds(pid)
        phase = loadgen.closed_loop(socks, [frames for _, frames in streams], WINDOW // n_conn, seconds)
        cpu = cpu_seconds(pid) - cpu_before
    finally:
        loadgen.close(socks)
    for (requests, frames), n in zip(streams, phase["sent"]):
        if n >= len(frames):
            raise BenchError("closed loop ran out of pre-encoded frames")
        sent.extend(r.id for r in requests[:n])
    replies.extend(phase["replies"])
    answered = sum(1 for _, line in phase["replies"] if json.loads(line)["outcome"] in stats.ANSWERED)
    return answered / cpu


def _check_reference(cache, seed: int, by_id: dict, requests: dict) -> None:
    """A seeded sample of ``ok`` answers must equal the in-process service's
    ``probs``, ``predictions`` and ``flags``, byte for byte."""

    import numpy as np
    from polygraphmr.serve import PolygraphService, response_frame
    from polygraphmr.store import ArtifactStore

    ok = sorted(rid for rid in requests if by_id[rid][1]["outcome"] == "ok")
    if not ok:
        raise BenchError("no ok answers to check")
    picks = np.random.default_rng([seed, 7]).choice(len(ok), size=min(REFERENCE_SAMPLE, len(ok)), replace=False)
    service = PolygraphService(ArtifactStore(cache))
    fields = ("probs", "predictions", "flags")
    for i in sorted(int(p) for p in picks):
        answer = by_id[ok[i]][1]
        request = requests[ok[i]]
        expected = service.evaluate_requests(request.model, [request], active=answer["members"], shed=answer["shed"])[0]
        got = response_frame({k: answer[k] for k in fields})
        want = response_frame({k: expected[k] for k in fields})
        if got != want:
            raise BenchError(f"answer {ok[i]} differs from the in-process reference")


def _layers(spans, by_id, due, parsed, cap, baseline, late_p99) -> dict:
    """Per-request layer numbers over the open-loop phase."""

    first = min(due.values())
    last = max(by_id[rid][0] for rid in due)
    window = [s for s in spans if first <= s[stats.SPAN_START] <= last]
    own = stats.self_time_by_name(window)
    calls = stats.calls_by_name(window)
    n = len(due)

    def us(*names) -> float:
        return sum(own.get(name, 0.0) for name in names) / n * 1e6

    parse_end = {s[stats.SPAN_KEY]: s[stats.SPAN_END] for s in spans if s[stats.SPAN_NAME] == "serve.parse"}
    parse_start = {s[stats.SPAN_KEY]: s[stats.SPAN_START] for s in spans if s[stats.SPAN_NAME] == "serve.parse"}
    check_start = {s[stats.SPAN_KEY]: s[stats.SPAN_START] for s in spans if s[stats.SPAN_NAME] == "serve.check"}
    frames = {s[stats.SPAN_KEY][0]: (s[stats.SPAN_END], s[stats.SPAN_KEY][1]) for s in spans if s[stats.SPAN_NAME] == "serve.response_frame"}
    groups = {}
    for s in spans:
        if s[stats.SPAN_NAME] == "serve.evaluate_requests" and isinstance(s[stats.SPAN_KEY], list):
            for rid in s[stats.SPAN_KEY]:
                groups[rid] = s
    served = [rid for rid in due if by_id[rid][1]["outcome"] in stats.ANSWERED]
    waits = [(check_start[rid] - parse_end[rid]) * 1000.0 for rid in served]
    writes = [(by_id[rid][0] - frames[rid][0]) * 1000.0 for rid in served]
    shares = []
    for rid in served:
        group = groups[rid]
        covered = (
            (parse_end[rid] - parse_start[rid])  # parse
            + (check_start[rid] - parse_end[rid])  # queue + coalesce wait
            + (group[stats.SPAN_START] - check_start[rid])  # batch plan
            + (group[stats.SPAN_END] - group[stats.SPAN_START])  # evaluate + build payloads
            + (frames[rid][0] - group[stats.SPAN_END])  # encode up to this frame
            + (by_id[rid][0] - frames[rid][0])  # write
        )
        shares.append(covered / (by_id[rid][0] - due[rid]))
    ticks = calls.get("serve.tick", 0)
    outcomes = [p["outcome"] for _, p in parsed]
    return {
        "serve.parse_us": us("serve.parse"),
        "serve.wait_ms": stats.median(waits),
        "serve.batch_size": calls.get("serve.check", 0) / ticks if ticks else 0.0,
        "serve.batches": ticks,
        "serve.plan_us": us("serve.check", "serve.active", "serve.pressure"),
        "serve.evaluate_us": us("serve.evaluate"),
        "serve.encode_us": us("serve.build_payloads", "serve.response_frame"),
        "serve.response_bytes": stats.median([frames[rid][1] for rid in served]),
        "serve.write_ms": stats.median(writes),
        "serve.shed": outcomes.count("overloaded"),
        "serve.degraded_batches": sum(1 for s in spans if s[stats.SPAN_NAME] == "serve.active" and s[stats.SPAN_KEY]),
        "serve.session_builds": sum(1 for s in spans if s[stats.SPAN_NAME] == "decision.fit"),
        "loadgen.late_p99_ms": late_p99,
        "trace.explained_share.serve": stats.median(shares),
        "trace.overhead_share.serve": baseline / cap - 1.0,
    }
