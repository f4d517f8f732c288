"""Async inference serving gateway: the ensemble runtime behind a socket.

The batch campaign machinery answers "how reliable is this ensemble?";
this module answers requests.  A :class:`ServeGateway` accepts concurrent
classification requests over a newline-delimited-JSON protocol (TCP and/or
Unix socket), coalesces them into micro-batches, and executes each batch
against a warm session served out of a verified-once
:class:`~polygraphmr.cache.ArtifactCache` (optionally backed by a
pre-published :class:`~polygraphmr.cache.SharedMemoryPlane`).  A session
(:data:`ModelSession`) is the runtime's
:class:`~polygraphmr.ensemble.FittedEnsemble`, built by the same
:meth:`EnsembleRuntime.fit <polygraphmr.ensemble.EnsembleRuntime.fit>` the
campaigns use; a shed member subset is its ``restrict``-ed copy.

**Protocol.**  One JSON object per ``\\n``-terminated line, at most
``MAX_FRAME_BYTES`` per frame::

    {"id": "r1", "model": "tinynet", "samples": [0, 5, 9], "deadline_ms": 250}

The response mirrors the request ``id`` and carries an ``outcome``:
``ok``, ``degraded`` (served by fewer members than planned), ``overloaded``
(shed at the queue bound), ``deadline_exceeded``, or ``error`` (with the
exact offending field path, :class:`~polygraphmr.errors.ConfigError` style).
``{"op": "ping"}`` and ``{"op": "metrics"}`` are answered inline and are
never queued or counted as classifications.

**Micro-batch coalescing.**  A single dispatcher drains a *bounded* queue;
after the first request of a batch it waits briefly for companions, then
groups the batch by model, concatenates every request's sample indices, and
evaluates them in one tensor op.  Every statistic on the serving path
(member-mean probabilities, argmax predictions,
:func:`~polygraphmr.decision.ensemble_features`, the fitted logistic
decision module) is a per-sample computation, so slicing the coalesced
result back per request is **byte-identical** to running each request
alone — the differential guarantee ``tests/test_serve.py`` enforces.

**Load shedding and degradation.**  Past ``max_queue`` pending requests the
gateway replies ``overloaded`` immediately — the queue never grows beyond
its bound.  Above ``degrade_depth`` pending requests, each served batch
records a *failure* on the per-submodel circuit breakers of the sheddable
(non-core) ensemble members; after ``failure_threshold`` consecutive
overloaded batches those breakers trip open and subsequent batches run with
fewer members (``degraded`` responses, metrics-visible).  Cool-downs are
counted in batches (one board tick per batch); a half-open breaker re-admits
its member as a probe, and a calm queue closes it again.  A breaker opened
by corrupt artifacts produces the same ``degraded`` responses — overload and
corruption share one shedding mechanism.

**Deadline budgets.**  ``deadline_ms`` rides the
:class:`~polygraphmr.errors.RetryPolicy` sleep-budget machinery: the
dispatcher's coalescing waits are a ``RetryPolicy`` schedule whose
``max_total_sleep`` is the scarcest remaining budget in the batch, and a
request whose budget is exhausted by the time its batch executes is answered
``deadline_exceeded`` instead of evaluated.

**In-process evaluation.**  The dispatcher evaluates every batch itself,
one batch at a time.  :meth:`ServeGateway._plan_batch` makes all of a
batch's policy decisions (breaker tick, ``active``/``shed`` member split,
pressure recording) in dispatch order; :meth:`ServeGateway._run_plans`
then executes the frozen plans.  Evaluation is not offloaded to other
processes: the dispatcher's own per-batch CPU (parse, plan, encode) costs
more than the evaluation an offload would save — see ARCHITECTURE "Why the
gateway evaluates in-process".

Latency quantiles (``serve_request_seconds``), queue depth, and
shed/degraded/deadline-exceeded counters flow through
:mod:`polygraphmr.metrics` and export as JSON + Prometheus on drain.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .breaker import BreakerBoard, BreakerPolicy
from .cache import DEFAULT_CACHE_BYTES, ArtifactCache, SharedMemoryPlane
from .ensemble import EnsembleRuntime, FittedEnsemble
from .errors import ConfigError, DegradedEnsemble, RetryPolicy, ServeError
from .metrics import BATCH_SIZE_BUCKETS, get_registry
from .store import ArtifactStore

__all__ = [
    "MAX_FRAME_BYTES",
    "OUTCOMES",
    "OUTCOME_OK",
    "OUTCOME_DEGRADED",
    "OUTCOME_OVERLOADED",
    "OUTCOME_DEADLINE",
    "OUTCOME_ERROR",
    "ServeRequest",
    "parse_request",
    "request_frame",
    "response_frame",
    "flat_sample_indices",
    "FrameAssembler",
    "ModelSession",
    "PolygraphService",
    "ServeConfig",
    "ServeGateway",
    "coalesce_slices",
    "main",
]

MAX_FRAME_BYTES = 1 << 20
MAX_SAMPLES_PER_REQUEST = 4096
MAX_ID_CHARS = 200

OP_CLASSIFY = "classify"
OP_PING = "ping"
OP_METRICS = "metrics"
_OPS = (OP_CLASSIFY, OP_PING, OP_METRICS)

OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_OVERLOADED = "overloaded"
OUTCOME_DEADLINE = "deadline_exceeded"
OUTCOME_ERROR = "error"
OUTCOMES = (OUTCOME_OK, OUTCOME_DEGRADED, OUTCOME_OVERLOADED, OUTCOME_DEADLINE, OUTCOME_ERROR)

# shed reasons reported per excluded member
SHED_LOAD = "load-shed"

_REQUEST_FIELDS = ("id", "model", "samples", "deadline_ms", "op")


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeRequest:
    """One parsed request frame.  ``samples`` are test-split row indices."""

    id: str = ""
    model: str = ""
    samples: tuple[int, ...] = ()
    deadline_ms: float | None = None
    op: str = OP_CLASSIFY

    def to_wire(self) -> dict:
        """Minimal wire mapping; :func:`parse_request` of it is a fixed point."""

        if self.op != OP_CLASSIFY:
            out: dict = {"op": self.op}
            if self.id:
                out["id"] = self.id
            return out
        out = {"id": self.id, "model": self.model, "samples": list(self.samples)}
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out


def _frame_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def request_frame(request: ServeRequest) -> bytes:
    """Serialize a request as one wire frame (canonical JSON + newline)."""

    return _frame_bytes(request.to_wire())


def response_frame(payload: dict) -> bytes:
    """Serialize a response payload as one wire frame.

    Canonical (sorted-key, minimal-separator) JSON: a response's bytes are a
    pure function of its payload, which is what makes the serial≡coalesced
    differential checks byte-exact rather than merely value-exact.
    """

    return _frame_bytes(payload)


def _bad(field_path: str, reason: str, detail: str = "") -> ConfigError:
    return ConfigError(field_path, reason, detail)


def parse_request(line: bytes | str) -> ServeRequest:
    """Parse one frame; rejects with the exact offending field path.

    Raises :class:`~polygraphmr.errors.ConfigError` whose ``field`` names the
    precise location (``request.samples[3]``, ``request.deadline_ms``, …), in
    the same style as scenario-file validation.
    """

    if isinstance(line, (bytes, bytearray)):
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _bad("request", "bad-utf8", str(exc)) from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _bad("request", "bad-json", str(exc)) from exc
    if not isinstance(obj, dict):
        raise _bad("request", "not-an-object", f"got {type(obj).__name__}")
    for key in obj:
        if key not in _REQUEST_FIELDS:
            raise _bad(f"request.{key}", "unknown-field")

    op = obj.get("op", OP_CLASSIFY)
    if not isinstance(op, str) or op not in _OPS:
        raise _bad("request.op", "unknown-op", f"expected one of {_OPS}")

    rid = obj.get("id", "")
    if not isinstance(rid, str):
        raise _bad("request.id", "bad-type", "id must be a string")
    if len(rid) > MAX_ID_CHARS:
        raise _bad("request.id", "too-long", f"max {MAX_ID_CHARS} characters")

    if op != OP_CLASSIFY:
        for key in ("model", "samples", "deadline_ms"):
            if key in obj:
                raise _bad(f"request.{key}", "unexpected-field", f"not valid on op={op!r}")
        return ServeRequest(id=rid, op=op)

    if "id" not in obj:
        raise _bad("request.id", "missing-field")
    if not rid:
        raise _bad("request.id", "empty")

    model = obj.get("model")
    if model is None:
        raise _bad("request.model", "missing-field")
    if not isinstance(model, str) or not model:
        raise _bad("request.model", "bad-type", "model must be a non-empty string")

    samples = obj.get("samples")
    if samples is None:
        raise _bad("request.samples", "missing-field")
    if not isinstance(samples, list) or not samples:
        raise _bad("request.samples", "bad-type", "samples must be a non-empty list")
    if len(samples) > MAX_SAMPLES_PER_REQUEST:
        raise _bad("request.samples", "too-many", f"max {MAX_SAMPLES_PER_REQUEST} per request")
    indices = []
    for i, value in enumerate(samples):
        if isinstance(value, bool) or not isinstance(value, int):
            raise _bad(f"request.samples[{i}]", "bad-type", "sample index must be an integer")
        if value < 0:
            raise _bad(f"request.samples[{i}]", "out-of-range", "sample index must be >= 0")
        indices.append(value)

    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise _bad("request.deadline_ms", "bad-type", "deadline_ms must be a number")
        if not math.isfinite(deadline_ms) or deadline_ms <= 0:
            raise _bad("request.deadline_ms", "out-of-range", "deadline_ms must be finite and > 0")
        deadline_ms = float(deadline_ms)

    return ServeRequest(id=rid, model=model, samples=tuple(indices), deadline_ms=deadline_ms)


class FrameAssembler:
    """Reassembles newline-delimited frames across arbitrary chunk splits.

    Feed raw socket chunks in, get complete frames (without the trailing
    newline) out; a partial tail is buffered until its newline arrives.  A
    frame longer than ``max_frame_bytes`` — terminated or not — raises
    :class:`~polygraphmr.errors.ServeError` (``frame-too-large``) — the
    connection is poisoned, since frame boundaries can no longer be trusted.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[bytes]:
        self._buffer.extend(chunk)
        frames: list[bytes] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                break
            if newline > self.max_frame_bytes:
                raise ServeError("frame-too-large", f"frame of {newline} bytes exceeds {self.max_frame_bytes}")
            frames.append(bytes(self._buffer[:newline]))
            del self._buffer[: newline + 1]
        if len(self._buffer) > self.max_frame_bytes:
            raise ServeError("frame-too-large", f"unterminated frame exceeds {self.max_frame_bytes} bytes")
        return frames


# ---------------------------------------------------------------------------
# service core (transport-independent)
# ---------------------------------------------------------------------------


def flat_sample_indices(requests: list[ServeRequest]) -> np.ndarray:
    """Concatenated sample indices across ``requests`` — the flat batch that
    one tensor op evaluates."""

    return np.array([idx for r in requests for idx in r.samples], dtype=np.int64)


# The gateway's warm, fitted serving state for one (model, member subset):
# the runtime's fitted ensemble itself, evaluated per request batch.
ModelSession = FittedEnsemble


class PolygraphService:
    """The gateway's compute core: sessions, breakers, and request payloads.

    Deliberately synchronous and transport-free — the asyncio gateway calls
    into it from the dispatcher, and tests drive it directly to build serial
    reference responses for the differential suite.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        min_members: int = 2,
        keep_members: int | None = None,
        seed: int = 0,
        breakers: BreakerBoard | None = None,
    ):
        self.store = store
        # members beyond the first ``keep_members`` are sheddable under load;
        # ORG and enough companions to stay above min_members never shed
        self.keep_members = max(min_members, keep_members if keep_members is not None else min_members)
        self.board = breakers if breakers is not None else BreakerBoard(BreakerPolicy())
        self.runtime = EnsembleRuntime(store, min_members=min_members, seed=seed, breakers=self.board)
        self._base: dict[str, ModelSession] = {}
        self._derived: dict[tuple[str, tuple[str, ...]], ModelSession] = {}
        self._stanzas: dict[tuple[str, tuple[str, ...], tuple[str, ...]], dict] = {}

    # -- sessions --------------------------------------------------------

    def base_session(self, model: str) -> ModelSession:
        """The full-ensemble session for ``model``, built on first use by
        :meth:`EnsembleRuntime.fit <polygraphmr.ensemble.EnsembleRuntime.fit>`
        — the same assemble → intersect → fit the campaigns use; corrupt
        members quarantine (and feed their breakers) rather than crash."""

        session = self._base.get(model)
        if session is not None:
            return session
        if not self.store.model_dir(model).is_dir():
            raise ServeError("unknown-model", f"no model directory {model!r} in {self.store.root}")
        session = self._base[model] = self.runtime.fit(model)
        get_registry().counter("serve_sessions_built_total", kind="base").inc()
        return session

    def session_for(self, model: str, members: tuple[str, ...]) -> ModelSession:
        """A session restricted to ``members`` (a subset of the base session's,
        in base order) — :meth:`~polygraphmr.ensemble.FittedEnsemble.restrict`
        slices the resident stacks and refits the gate on the narrower
        feature layout.  Cached: the shed/recover cycle alternates between a
        handful of subsets."""

        base = self.base_session(model)
        if list(members) == base.members:
            return base
        key = (model, members)
        session = self._derived.get(key)
        if session is None:
            session = self._derived[key] = base.restrict(list(members))
            get_registry().counter("serve_sessions_built_total", kind="derived").inc()
        return session

    # -- breaker-driven member selection ---------------------------------

    def active_members(self, model: str) -> tuple[list[str], list[str]]:
        """(active, shed) member stems for the next batch of ``model``.

        Core members (the first ``keep_members`` of the base session) always
        serve; each sheddable member serves only while its breaker admits it.
        ``allow`` also flips an open breaker to half-open once its cool-down
        (in batches) has elapsed, re-admitting the member as a probe.
        """

        base = self.base_session(model)
        active: list[str] = []
        shed: list[str] = []
        for i, stem in enumerate(base.members):
            if i < self.keep_members or self.board.allow(model, stem):
                active.append(stem)
            else:
                shed.append(stem)
        return active, shed

    def record_pressure(self, model: str, active: list[str], overloaded: bool) -> None:
        """Feed this batch's overload verdict to the sheddable breakers.

        An overloaded batch is a *failure* for every sheddable member that
        served it (consecutive failures trip the breaker open — hysteresis
        for free); a calm batch is a success (closes half-open probes,
        resets failure streaks).
        """

        base = self.base_session(model)
        for stem in base.members[self.keep_members :]:
            if stem not in active:
                continue
            if overloaded:
                self.board.record_failure(model, stem)
            else:
                self.board.record_success(model, stem)

    # -- evaluation ------------------------------------------------------

    def check_samples(self, model: str, request: ServeRequest) -> None:
        """Range-check sample indices against the model's test split.

        One vectorized comparison over the whole request instead of a Python
        loop per index; the error still names the exact offending field path
        (``request.samples[i]`` for the *first* out-of-range index, matching
        what the per-index loop reported).
        """

        n = self.base_session(model).n_samples
        samples = np.fromiter(request.samples, dtype=np.int64, count=len(request.samples))
        bad = np.nonzero(samples >= n)[0]
        if bad.size:
            i = int(bad[0])
            raise _bad(f"request.samples[{i}]", "out-of-range", f"model {model!r} has {n} test samples")

    def static_stanza(self, model: str, active: list[str], shed: list[str]) -> dict:
        """The response fields that are constant across every payload of a
        ``(model, active, shed)`` combination — members, degraded verdict,
        missing/quarantined rosters.  Cached and shared by reference: the
        shed/recover cycle alternates between a handful of member subsets,
        and re-building (and re-serialising state into) these lists per
        request is pure overhead on the hot path.  Callers must treat the
        returned mapping and its values as frozen."""

        key = (model, tuple(active), tuple(shed))
        stanza = self._stanzas.get(key)
        if stanza is None:
            base = self.base_session(model)
            degraded = bool(shed or base.missing or base.quarantined)
            stanza = {
                "outcome": OUTCOME_DEGRADED if degraded else OUTCOME_OK,
                "model": model,
                "members": list(active),
                "degraded": degraded,
                "shed": sorted(shed),
                "missing": list(base.missing),
                "quarantined": dict(base.quarantined),
            }
            self._stanzas[key] = stanza
        return stanza

    def build_payloads(
        self,
        model: str,
        requests: list[ServeRequest],
        counts: list[int],
        probs: np.ndarray,
        predictions: np.ndarray,
        flags: np.ndarray,
        *,
        active: list[str],
        shed: list[str],
        breaker_states: dict,
    ) -> list[dict]:
        """Slice raw evaluation arrays back into per-request payloads.

        Pure assembly — no policy, no board reads: everything dynamic
        (``active``/``shed``/``breaker_states``) is decided by the caller
        and passed in, so the dispatcher's plan stays the single source of
        policy.  ``ndarray.tolist()`` does the number conversion in one C
        call per array (bit-identical to the old per-element
        ``float()``/``int()`` loops — enforced by a regression test), and
        the static stanza is shared by reference across payloads.
        """

        stanza = self.static_stanza(model, active, shed)
        probs_list = probs.tolist()
        predictions_list = predictions.tolist()
        flags_list = flags.tolist()
        payloads = []
        offset = 0
        for request, count in zip(requests, counts):
            span = slice(offset, offset + count)
            offset += count
            payloads.append(
                {
                    "id": request.id,
                    **stanza,
                    "probs": probs_list[span],
                    "predictions": predictions_list[span],
                    "flags": flags_list[span],
                    "breakers": breaker_states,
                }
            )
        return payloads

    def evaluate_requests(
        self,
        model: str,
        requests: list[ServeRequest],
        *,
        active: list[str] | None = None,
        shed: list[str] | None = None,
        breaker_states: dict | None = None,
    ) -> list[dict]:
        """Response payloads for same-model requests, evaluated as one tensor op.

        All requests' sample indices are concatenated, evaluated once, and
        sliced back per request — byte-identical to evaluating each request
        alone because every statistic involved is per-sample.  Policy inputs
        in, :meth:`ModelSession.evaluate`, :meth:`build_payloads` out.
        """

        base = self.base_session(model)
        if active is None:
            active = list(base.members)
        shed = list(shed or [])
        session = self.session_for(model, tuple(active))
        counts = [len(r.samples) for r in requests]
        flat = flat_sample_indices(requests)
        probs, predictions, flags = session.evaluate(flat)
        if breaker_states is None:
            breaker_states = self.board.states_for(model)
        return self.build_payloads(
            model,
            requests,
            counts,
            probs,
            predictions,
            flags,
            active=active,
            shed=shed,
            breaker_states=breaker_states,
        )

    def respond(self, request: ServeRequest) -> dict:
        """The serial reference path: one request, straight through.

        The gateway's coalesced path must produce byte-identical frames to
        this (given the same board state and no overload) — the differential
        tests compare against it directly.
        """

        try:
            self.base_session(request.model)
            self.check_samples(request.model, request)
            active, shed = self.active_members(request.model)
            return self.evaluate_requests(request.model, [request], active=active, shed=shed)[0]
        except (ServeError, ConfigError, DegradedEnsemble) as exc:
            return error_payload(request.id, exc)


def error_payload(rid: str, exc: BaseException) -> dict:
    """An ``outcome=error`` response payload for a rejected request."""

    error: dict = {"reason": getattr(exc, "reason", type(exc).__name__), "detail": str(exc)}
    if isinstance(exc, ConfigError):
        error["field"] = exc.field
        error["detail"] = exc.detail
    if isinstance(exc, DegradedEnsemble):
        error["reason"] = "degraded-below-minimum"
    return {"id": rid, "outcome": OUTCOME_ERROR, "error": error}


# ---------------------------------------------------------------------------
# deadline / coalescing budgets
# ---------------------------------------------------------------------------

COALESCE_SLICES = 4  # the coalescing window is polled in this many waits


def coalesce_slices(window_s: float, budget_s: float, *, n: int = COALESCE_SLICES) -> list[float]:
    """The dispatcher's coalescing waits as a ``RetryPolicy`` sleep schedule.

    ``n`` equal slices of the coalescing window, clamped by the batch's
    scarcest remaining deadline budget via ``RetryPolicy.max_total_sleep`` —
    the same machinery that caps retry backoff caps how long a request may
    sit waiting for batch companions.
    """

    if window_s <= 0.0 or budget_s <= 0.0:
        return []
    piece = window_s / n
    policy = RetryPolicy(
        attempts=n + 1, base_delay=piece, max_delay=piece, jitter=0.0, max_total_sleep=budget_s
    )
    return [delay for delay in policy.schedule() if delay > 0.0]


# ---------------------------------------------------------------------------
# asyncio gateway
# ---------------------------------------------------------------------------


@dataclass
class ServeConfig:
    """Gateway knobs.  ``degrade_depth``/``max_queue`` are pending-request
    counts; ``coalesce_ms`` bounds how long the dispatcher waits for batch
    companions; ``batch_sleep_s`` pads each executed batch (bench/smoke use
    it to pin the service rate so overload behaviour is reproducible)."""

    host: str | None = "127.0.0.1"
    port: int = 0
    unix_path: str | None = None
    max_queue: int = 64
    degrade_depth: int = 8
    coalesce_ms: float = 2.0
    batch_max: int = 16
    default_deadline_ms: float | None = None
    batch_sleep_s: float = 0.0
    metrics_out: str | None = None
    prom_out: str | None = None


_STOP = object()


@dataclass
class _Queued:
    request: ServeRequest
    conn: _Connection
    started: float

    def remaining_s(self, now: float, default_deadline_ms: float | None) -> float | None:
        deadline_ms = self.request.deadline_ms
        if deadline_ms is None:
            deadline_ms = default_deadline_ms
        if deadline_ms is None:
            return None
        return deadline_ms / 1000.0 - (now - self.started)


@dataclass
class _BatchPlan:
    """One model group's dispatch-time policy decisions, frozen before the
    batch executes.

    The dispatcher computes everything stateful here — validation verdicts,
    active/shed member selection (with its ``allow()`` probe side effects),
    the breaker-state snapshot, and the pressure recording — *synchronously
    at dispatch*, so execution never reads the board.  Execution downstream
    is a pure function of the plan.
    """

    model: str
    queued: list[_Queued] = field(default_factory=list)
    errors: list[tuple[_Queued, dict]] = field(default_factory=list)
    active: list[str] = field(default_factory=list)
    shed: list[str] = field(default_factory=list)
    breaker_states: dict = field(default_factory=dict)


class _Connection:
    """One client connection: a writer plus a lock, because the connection's
    reader (inline ops, parse errors, sheds) and the dispatcher (batch
    results) both write to it and a frame must never tear."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()

    async def send(self, frame: bytes) -> None:
        async with self.lock:
            if self.writer.is_closing():
                return
            self.writer.write(frame)
            with contextlib.suppress(ConnectionError):
                await self.writer.drain()


class ServeGateway:
    """Asyncio front-end: bounded queue, coalescing dispatcher, graceful drain."""

    def __init__(self, service: PolygraphService, config: ServeConfig | None = None):
        self.service = service
        self.config = config or ServeConfig()
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._servers: list[asyncio.base_events.Server] = []
        self._dispatcher: asyncio.Task | None = None
        self._handlers: set[asyncio.Task] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self.bound_port: int | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        if self.config.host is not None:
            server = await asyncio.start_server(self._handle, self.config.host, self.config.port)
            self._servers.append(server)
            for sock in server.sockets:
                if self.bound_port is None:
                    self.bound_port = sock.getsockname()[1]
        if self.config.unix_path is not None:
            server = await asyncio.start_unix_server(self._handle, path=self.config.unix_path)
            self._servers.append(server)
        if not self._servers:
            raise ServeError("no-listener", "gateway needs a TCP host or a unix socket path")
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def drain(self) -> None:
        """Graceful SIGTERM semantics: stop accepting, complete everything
        already queued, export metrics, close connections."""

        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        await self.queue.put(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
        self._export_metrics()
        for task in list(self._handlers):
            task.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        self._drained.set()

    def _export_metrics(self) -> None:
        registry = get_registry()
        if self.config.metrics_out:
            registry.write_json(self.config.metrics_out)
        if self.config.prom_out:
            path = Path(self.config.prom_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(registry.to_prometheus(), encoding="utf-8")

    # -- connection handling ---------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        conn = _Connection(writer)
        assembler = FrameAssembler()
        try:
            while not self._draining:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                try:
                    frames = assembler.feed(chunk)
                except ServeError as exc:
                    await conn.send(response_frame(error_payload("", exc)))
                    break
                for frame in frames:
                    if not frame.strip():
                        continue
                    await self._ingest(conn, frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()

    async def _ingest(self, conn: _Connection, frame: bytes) -> None:
        started = time.perf_counter()
        registry = get_registry()
        try:
            request = parse_request(frame)
        except ConfigError as exc:
            rid = _salvage_id(frame)
            await self._finish(conn, error_payload(rid, exc), started)
            return
        if request.op == OP_PING:
            await conn.send(response_frame({"id": request.id, "op": OP_PING, "ok": True}))
            return
        if request.op == OP_METRICS:
            await conn.send(response_frame({"id": request.id, "op": OP_METRICS, **self._metrics_snapshot()}))
            return
        try:
            self.queue.put_nowait(_Queued(request, conn, started))
        except asyncio.QueueFull:
            registry.counter("serve_shed_total").inc()
            payload = {
                "id": request.id,
                "outcome": OUTCOME_OVERLOADED,
                "model": request.model,
                "queue_depth": self.queue.qsize(),
            }
            await self._finish(conn, payload, started)
            return
        registry.gauge("serve_queue_depth").set(float(self.queue.qsize()))

    def _metrics_snapshot(self) -> dict:
        registry = get_registry()
        return {
            "requests": {outcome: registry.counter_value("serve_requests_total", outcome=outcome) for outcome in OUTCOMES},
            "shed": registry.counter_value("serve_shed_total"),
            "degraded": registry.counter_value("serve_degraded_total"),
            "deadline_exceeded": registry.counter_value("serve_deadline_exceeded_total"),
            "batches": registry.counter_value("serve_batches_total"),
            "queue_depth": self.queue.qsize(),
        }

    async def _finish(self, conn: _Connection, payload: dict, started: float) -> None:
        """Send a terminal response: the single point that counts outcomes,
        so ``serve_requests_total{outcome}`` reconciles exactly with the
        frames clients receive."""

        registry = get_registry()
        registry.counter("serve_requests_total", outcome=payload["outcome"]).inc()
        registry.histogram("serve_request_seconds").observe(time.perf_counter() - started)
        await conn.send(response_frame(payload))

    # -- dispatcher ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        stopping = False
        while True:
            if stopping:
                try:
                    item = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                item = await self.queue.get()
            if item is _STOP:
                stopping = True
                continue
            batch = [item]
            if stopping:
                while len(batch) < self.config.batch_max:
                    try:
                        extra = self.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _STOP:
                        continue
                    batch.append(extra)
            else:
                stopping = await self._coalesce(batch)
            # Policy runs synchronously in dispatch order — batch N's board
            # mutations are complete before batch N+1 is even planned.
            await self._run_plans(self._plan_batch(batch))

    def _batch_budget_s(self, batch: list[_Queued], now: float) -> float:
        """The scarcest remaining deadline in the batch (coalescing must not
        eat a request's whole budget), or the full window when nobody is in
        a hurry."""

        window_s = self.config.coalesce_ms / 1000.0
        budget = window_s
        for queued in batch:
            remaining = queued.remaining_s(now, self.config.default_deadline_ms)
            if remaining is not None:
                budget = min(budget, remaining)
        return budget

    async def _coalesce(self, batch: list[_Queued]) -> bool:
        """Wait briefly for batch companions; returns True when _STOP arrived."""

        slices = coalesce_slices(self.config.coalesce_ms / 1000.0, self._batch_budget_s(batch, time.perf_counter()))
        for delay in slices:
            if len(batch) >= self.config.batch_max:
                break
            try:
                item = await asyncio.wait_for(self.queue.get(), timeout=delay)
            except asyncio.TimeoutError:
                break
            if item is _STOP:
                return True
            batch.append(item)
            while len(batch) < self.config.batch_max:
                try:
                    extra = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    return True
                batch.append(extra)
        return False

    def _plan_batch(self, batch: list[_Queued]) -> list[_BatchPlan]:
        """All of a batch's policy, synchronously at dispatch time.

        Groups the batch by model, validates (unknown model / out-of-range
        samples become error payloads in the plan), selects active/shed
        members, snapshots breaker states for the payloads, and records this
        batch's pressure verdict — the complete set of board reads and
        writes, so execution never touches shared policy state.
        """

        registry = get_registry()
        depth = self.queue.qsize()
        registry.gauge("serve_queue_depth").set(float(depth))
        overloaded = self.config.degrade_depth > 0 and depth >= self.config.degrade_depth
        registry.counter("serve_batches_total").inc()
        registry.histogram("serve_batch_size", buckets=BATCH_SIZE_BUCKETS).observe(float(len(batch)))
        self.service.board.tick()

        groups: dict[str, list[_Queued]] = {}
        for queued in batch:
            groups.setdefault(queued.request.model, []).append(queued)

        plans: list[_BatchPlan] = []
        for model, queued_group in groups.items():
            plan = _BatchPlan(model)
            plans.append(plan)
            try:
                self.service.base_session(model)
            except (ServeError, DegradedEnsemble) as exc:
                plan.errors = [(q, error_payload(q.request.id, exc)) for q in queued_group]
                continue
            for queued in queued_group:
                try:
                    self.service.check_samples(model, queued.request)
                except ConfigError as exc:
                    plan.errors.append((queued, error_payload(queued.request.id, exc)))
                else:
                    plan.queued.append(queued)
            if not plan.queued:
                continue
            plan.active, plan.shed = self.service.active_members(model)
            plan.breaker_states = self.service.board.states_for(model)
            self.service.record_pressure(model, plan.active, overloaded)
        return plans

    async def _run_plans(self, plans: list[_BatchPlan]) -> None:
        """Execute planned work: sleep-padding, deadline filtering, tensor
        evaluation, response frames.  Touches no policy state: everything it
        needs was frozen into the plans at dispatch."""

        registry = get_registry()
        if self.config.batch_sleep_s > 0.0:
            await asyncio.sleep(self.config.batch_sleep_s)

        now = time.perf_counter()
        for plan in plans:
            live: list[_Queued] = []
            for queued in plan.queued:
                remaining = queued.remaining_s(now, self.config.default_deadline_ms)
                if remaining is not None and remaining <= 0.0:
                    registry.counter("serve_deadline_exceeded_total").inc()
                    payload = {"id": queued.request.id, "outcome": OUTCOME_DEADLINE, "model": plan.model}
                    await self._finish(queued.conn, payload, queued.started)
                else:
                    live.append(queued)
            for queued, payload in plan.errors:
                await self._finish(queued.conn, payload, queued.started)
            if not live:
                continue
            payloads = self._evaluate_plan(plan, live)
            for queued, payload in zip(live, payloads):
                if payload["outcome"] == OUTCOME_DEGRADED:
                    registry.counter("serve_degraded_total").inc()
                await self._finish(queued.conn, payload, queued.started)

    def _evaluate_plan(self, plan: _BatchPlan, live: list[_Queued]) -> list[dict]:
        """Evaluate one plan's surviving requests in-process on the plan's
        frozen policy inputs (active/shed members, breaker snapshot)."""

        return self.service.evaluate_requests(
            plan.model,
            [q.request for q in live],
            active=plan.active,
            shed=plan.shed,
            breaker_states=plan.breaker_states,
        )


def _salvage_id(frame: bytes) -> str:
    """Best-effort request id for error responses to malformed frames."""

    try:
        obj = json.loads(frame.decode("utf-8", errors="replace"))
    except json.JSONDecodeError:
        return ""
    if isinstance(obj, dict) and isinstance(obj.get("id"), str):
        return obj["id"][:MAX_ID_CHARS]
    return ""


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _build_store(args) -> tuple[ArtifactStore, SharedMemoryPlane | None]:
    cache_root = Path(args.cache)
    if args.synthetic_models > 0:
        from .faults import build_synthetic_model

        existing = set(ArtifactStore(cache_root).models()) if cache_root.is_dir() else set()
        for i in range(args.synthetic_models):
            name = f"net-{i:02d}"
            if name not in existing:
                build_synthetic_model(cache_root, name, n_val=96, n_test=96, seed=args.seed + i)
    plane = None
    if not args.no_plane:
        throwaway = ArtifactStore(cache_root)
        plane = SharedMemoryPlane.publish(throwaway, throwaway.models(), max_bytes=args.cache_bytes)
    cache = ArtifactCache(max_bytes=args.cache_bytes, plane=plane)
    return ArtifactStore(cache_root, cache=cache), plane


async def _serve(args) -> int:
    store, plane = _build_store(args)
    board = BreakerBoard(BreakerPolicy(failure_threshold=args.failure_threshold, cooldown_ticks=args.cooldown_ticks))
    service = PolygraphService(
        store,
        min_members=args.min_members,
        keep_members=args.keep_members,
        seed=args.seed,
        breakers=board,
    )
    config = ServeConfig(
        host=None if args.unix else args.host,
        port=args.port,
        unix_path=args.unix,
        max_queue=args.max_queue,
        degrade_depth=args.degrade_depth,
        coalesce_ms=args.coalesce_ms,
        batch_max=args.batch_max,
        default_deadline_ms=args.deadline_ms if args.deadline_ms > 0 else None,
        batch_sleep_s=args.batch_sleep,
        metrics_out=args.metrics_out,
        prom_out=args.prom_out,
    )
    gateway = ServeGateway(service, config)
    await gateway.start()

    shutdown = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, shutdown.set)

    ready = {
        "ready": True,
        "models": store.models(),
        "port": gateway.bound_port,
        "unix": args.unix,
        "plane": plane.describe() if plane is not None else None,
    }
    print(json.dumps(ready, sort_keys=True), flush=True)

    await shutdown.wait()
    await gateway.drain()

    registry = get_registry()
    summary = {
        "drained": True,
        "served": {outcome: registry.counter_value("serve_requests_total", outcome=outcome) for outcome in OUTCOMES},
        "batches": registry.counter_value("serve_batches_total"),
        "shed": registry.counter_value("serve_shed_total"),
        "degraded": registry.counter_value("serve_degraded_total"),
        "deadline_exceeded": registry.counter_value("serve_deadline_exceeded_total"),
    }
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polygraphmr-serve",
        description="Async ensemble inference gateway with load-shedding and deadline budgets",
    )
    parser.add_argument("--cache", required=True, help="artifact cache root to serve from")
    parser.add_argument(
        "--synthetic-models",
        type=int,
        default=0,
        help="build this many synthetic models into --cache first (smoke/bench)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0, help="TCP port; 0 picks a free one (printed on the ready line)")
    parser.add_argument("--unix", default=None, help="serve on this unix socket path instead of TCP")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-members", type=int, default=2)
    parser.add_argument(
        "--keep-members",
        type=int,
        default=None,
        help="members that never shed under load (default: --min-members)",
    )
    parser.add_argument("--max-queue", type=int, default=64, help="pending-request bound; beyond it requests shed")
    parser.add_argument(
        "--degrade-depth",
        type=int,
        default=8,
        help="queue depth at which batches count as overloaded and sheddable members start tripping (0 disables)",
    )
    parser.add_argument("--coalesce-ms", type=float, default=2.0, help="micro-batch coalescing window (milliseconds)")
    parser.add_argument("--batch-max", type=int, default=16, help="max requests per micro-batch")
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="default per-request deadline budget in ms (0 = none unless the request carries one)",
    )
    parser.add_argument(
        "--batch-sleep",
        type=float,
        default=0.0,
        help="pad each executed batch by this many seconds (bench/smoke: pins the service rate)",
    )
    parser.add_argument("--failure-threshold", type=int, default=3, help="overloaded batches before a member sheds")
    parser.add_argument("--cooldown-ticks", type=int, default=2, help="batches an open breaker waits before probing")
    parser.add_argument("--no-plane", action="store_true", help="skip the shared-memory plane warmup")
    parser.add_argument("--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES)
    parser.add_argument("--metrics-out", default=None, help="write metrics JSON here on drain")
    parser.add_argument("--prom-out", default=None, help="write Prometheus text exposition here on drain")
    args = parser.parse_args(argv)
    if args.keep_members is None:
        args.keep_members = args.min_members
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
