"""Differential + concurrency suite for the serving gateway.

The load-bearing guarantee: a coalesced micro-batched response is
**byte-identical** (probs, verdict, degraded flags — the whole frame) to the
same request run serially through the ensemble runtime.  Plus the overload
contract (bounded queue → explicit shed, sustained pressure → degraded
member sets via the circuit breakers, calm → recovery), deadline budgets,
and graceful drain with in-flight requests completed.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from polygraphmr.breaker import OPEN, BreakerBoard, BreakerPolicy
from polygraphmr.decision import LogisticDecisionModule, ensemble_features, misprediction_targets
from polygraphmr.ensemble import EnsembleRuntime
from polygraphmr.errors import ConfigError, RetryPolicy
from polygraphmr.metrics import get_registry
from polygraphmr.serve import (
    MAX_SAMPLE_INDEX,
    OUTCOME_DEADLINE,
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_OVERLOADED,
    PolygraphService,
    ServeConfig,
    ServeGateway,
    ServeRequest,
    coalesce_slices,
    flat_sample_indices,
    main,
    parse_request,
    request_frame,
    response_frame,
)
from polygraphmr.store import ArtifactStore

from .conftest import canonical_frame

MODEL = "tinynet"


@pytest.fixture()
def service(synthetic_cache):
    return PolygraphService(ArtifactStore(synthetic_cache), seed=0)


def make_gateway(service: PolygraphService, **overrides) -> ServeGateway:
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    return ServeGateway(service, config)


async def tcp_request(port: int, request: ServeRequest) -> tuple[dict, bytes]:
    """One request over its own connection; returns (payload, raw frame bytes)."""

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request_frame(request))
    await writer.drain()
    raw = await reader.readline()
    writer.close()
    return json.loads(raw), raw


async def tcp_send_raw(port: int, frame: bytes) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(frame)
    await writer.drain()
    raw = await reader.readline()
    writer.close()
    return json.loads(raw)


class TestDifferential:
    def test_single_request_byte_equivalent_to_direct_ensemble_run(self, synthetic_cache, service):
        """The gateway's frame for one request equals — byte for byte — what
        an independent walk through the ensemble runtime produces."""

        samples = (3, 0, 17, 44)
        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache), min_members=2, seed=0)
        plan = runtime.member_plan(MODEL)
        val = runtime.assemble(MODEL, "val", members=plan)
        test = runtime.assemble(MODEL, "test", members=plan)
        common = [s for s in val.members if s in set(test.members)]
        val_stack = np.stack([val.stacked[val.members.index(s)] for s in common], axis=0)
        test_stack = np.stack([test.stacked[test.members.index(s)] for s in common], axis=0)
        module = LogisticDecisionModule(seed=0)
        org_val = val_stack[common.index("ORG")]
        labels = runtime.store.load_labels(MODEL, "val")
        module.fit(ensemble_features(val_stack), misprediction_targets(org_val, labels))
        sub = test_stack[:, list(samples), :]
        probs = sub.mean(axis=0)
        expected = {
            "id": "r1",
            "outcome": OUTCOME_OK,
            "model": MODEL,
            "members": common,
            "probs": [[float(p) for p in row] for row in probs],
            "predictions": [int(p) for p in probs.argmax(axis=1)],
            "flags": [int(f) for f in module.predict(ensemble_features(sub))],
            "degraded": False,
            "shed": [],
            "missing": [],
            "quarantined": {},
            "breakers": {},
        }

        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="r1", model=MODEL, samples=samples))
            finally:
                await gateway.drain()

        _, raw = asyncio.run(run())
        assert raw == response_frame(expected)

    def test_coalesced_micro_batch_byte_identical_to_serial(self, synthetic_cache, service):
        """N concurrent requests coalesced into micro-batches produce the
        same bytes as N serial runs through a fresh service."""

        requests = [ServeRequest(id=f"c{i}", model=MODEL, samples=(i, (i * 7) % 160, 159 - i)) for i in range(8)]

        async def run():
            gateway = make_gateway(service, coalesce_ms=100.0, batch_max=8)
            await gateway.start()
            try:
                return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        assert get_registry().counter_value("serve_batches_total") < len(requests), "nothing coalesced"

        serial = PolygraphService(ArtifactStore(synthetic_cache), seed=0)
        for request, (payload, raw) in zip(requests, results):
            assert payload["outcome"] == OUTCOME_OK
            assert raw == response_frame(serial.respond(request))

    def test_mixed_model_batch_stays_byte_identical(self, synthetic_cache, add_model, service):
        add_model(synthetic_cache, "othernet", seed=13)
        requests = [
            ServeRequest(id=f"m{i}", model=MODEL if i % 2 else "othernet", samples=(i, i + 1)) for i in range(6)
        ]

        async def run():
            gateway = make_gateway(service, coalesce_ms=100.0, batch_max=6)
            await gateway.start()
            try:
                return await asyncio.gather(*[tcp_request(gateway.bound_port, r) for r in requests])
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        serial = PolygraphService(ArtifactStore(synthetic_cache), seed=0)
        for request, (_, raw) in zip(requests, results):
            assert raw == response_frame(serial.respond(request))


class TestDeadlines:
    def test_coalesce_slices_ride_the_retry_policy_schedule(self):
        """The dispatcher's coalescing waits ARE a RetryPolicy sleep schedule
        with max_total_sleep as the deadline budget."""

        assert coalesce_slices(0.02, 10.0) == RetryPolicy(
            attempts=5, base_delay=0.005, max_delay=0.005, jitter=0.0, max_total_sleep=10.0
        ).schedule()
        assert sum(coalesce_slices(0.02, 0.003)) <= 0.003 + 1e-12
        assert coalesce_slices(0.02, 0.0) == []
        assert coalesce_slices(0.0, 1.0) == []

    def test_expired_budget_answers_deadline_exceeded(self, service):
        """A 1 ms budget cannot survive a 50 ms batch; its companion without
        a deadline is served normally from the same batch."""

        async def run():
            gateway = make_gateway(service, coalesce_ms=20.0, batch_max=4, batch_sleep_s=0.05)
            await gateway.start()
            try:
                return await asyncio.gather(
                    tcp_request(gateway.bound_port, ServeRequest(id="hurry", model=MODEL, samples=(0,), deadline_ms=1.0)),
                    tcp_request(gateway.bound_port, ServeRequest(id="calm", model=MODEL, samples=(0,))),
                )
            finally:
                await gateway.drain()

        (hurried, _), (calm, _) = asyncio.run(run())
        assert hurried["outcome"] == OUTCOME_DEADLINE
        assert calm["outcome"] == OUTCOME_OK
        assert get_registry().counter_value("serve_deadline_exceeded_total") == 1
        assert get_registry().counter_value("serve_requests_total", outcome=OUTCOME_DEADLINE) == 1


class TestOverload:
    def test_bounded_queue_sheds_with_explicit_overloaded_reply(self, service):
        """Past max_queue pending requests the gateway replies ``overloaded``
        immediately — the queue is structurally bounded, never grows."""

        n = 12

        async def run():
            gateway = make_gateway(
                service, max_queue=2, degrade_depth=0, batch_max=1, coalesce_ms=0.0, batch_sleep_s=0.1
            )
            await gateway.start()
            assert gateway.queue.maxsize == 2
            try:
                return await asyncio.gather(
                    *[tcp_request(gateway.bound_port, ServeRequest(id=f"s{i}", model=MODEL, samples=(i,))) for i in range(n)]
                )
            finally:
                await gateway.drain()

        results = asyncio.run(run())
        outcomes = [payload["outcome"] for payload, _ in results]
        assert len(outcomes) == n, "every request got an explicit reply"
        shed = outcomes.count(OUTCOME_OVERLOADED)
        assert shed > 0, "overload never shed"
        assert set(outcomes) <= {OUTCOME_OK, OUTCOME_OVERLOADED}
        reg = get_registry()
        assert reg.counter_value("serve_shed_total") == shed
        assert reg.counter_value("serve_requests_total", outcome=OUTCOME_OVERLOADED) == shed
        assert reg.counter_value("serve_requests_total", outcome=OUTCOME_OK) == outcomes.count(OUTCOME_OK)

    def test_sustained_pressure_degrades_members_then_recovers(self, synthetic_cache):
        """Overloaded batches trip the sheddable members' breakers → degraded
        responses name the shed members; a calm queue closes them again."""

        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=2))
        service = PolygraphService(ArtifactStore(synthetic_cache), seed=0, breakers=board)
        full_members = list(service.base_session(MODEL).members)
        core, sheddable = full_members[:2], full_members[2:]

        async def run():
            gateway = make_gateway(
                service, max_queue=64, degrade_depth=2, batch_max=2, coalesce_ms=1.0, batch_sleep_s=0.02
            )
            await gateway.start()
            try:
                flood = await asyncio.gather(
                    *[tcp_request(gateway.bound_port, ServeRequest(id=f"f{i}", model=MODEL, samples=(i,))) for i in range(30)]
                )
                calm = []
                for i in range(6):  # sequential: queue depth ~0, breakers cool down and close
                    calm.append(await tcp_request(gateway.bound_port, ServeRequest(id=f"q{i}", model=MODEL, samples=(i,))))
                return flood, calm
            finally:
                await gateway.drain()

        flood, calm = asyncio.run(run())
        degraded = [payload for payload, _ in flood if payload["outcome"] == OUTCOME_DEGRADED]
        assert degraded, "sustained overload never degraded a response"
        worst = max(degraded, key=lambda p: len(p["shed"]))
        assert worst["members"] == core
        assert worst["shed"] == sorted(sheddable)
        assert worst["degraded"] is True
        assert all(state == OPEN for state in worst["breakers"].values())
        reg = get_registry()
        assert reg.counter_value("serve_degraded_total") == len(degraded)
        assert reg.counter_value("breaker_skips_total") > 0, "open breakers never served a cheap skip"

        final, _ = calm[-1]
        assert final["outcome"] == OUTCOME_OK
        assert final["members"] == full_members
        assert final["shed"] == [] and final["breakers"] == {}


class TestBreakerOpenMembers:
    def test_pre_opened_breaker_yields_degraded_member_responses(self, synthetic_cache):
        board = BreakerBoard(BreakerPolicy(failure_threshold=1, cooldown_ticks=10**6))
        board.record_failure(MODEL, "pp-Hist")
        service = PolygraphService(ArtifactStore(synthetic_cache), seed=0, breakers=board)

        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="b1", model=MODEL, samples=(0, 1)))
            finally:
                await gateway.drain()

        payload, _ = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_DEGRADED
        assert "pp-Hist" not in payload["members"]
        assert payload["quarantined"] == {"pp-Hist": "circuit-open"}
        assert payload["breakers"]["pp-Hist"] == OPEN


class TestDrain:
    def test_sigterm_style_drain_completes_in_flight_requests(self, service):
        """drain() (what the CLI runs on SIGTERM) answers everything already
        queued, then refuses new connections."""

        n = 8

        async def run():
            gateway = make_gateway(service, batch_max=2, coalesce_ms=1.0, batch_sleep_s=0.05, max_queue=64)
            await gateway.start()
            port = gateway.bound_port
            in_flight = [
                asyncio.create_task(tcp_request(port, ServeRequest(id=f"d{i}", model=MODEL, samples=(i,))))
                for i in range(n)
            ]
            await asyncio.sleep(0.03)  # let them hit the queue mid-load
            await gateway.drain()
            results = await asyncio.gather(*in_flight)
            refused = False
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.close()
            except OSError:
                refused = True
            return results, refused

        results, refused = asyncio.run(run())
        assert len(results) == n
        assert all(payload["outcome"] in (OUTCOME_OK, OUTCOME_DEGRADED) for payload, _ in results)
        assert refused, "gateway kept accepting connections after drain"
        hist = get_registry().histogram_for("serve_request_seconds")
        assert hist is not None and hist.count == n


class TestErrorsOverTheWire:
    def test_unknown_model_is_an_error_response(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="e1", model="nope", samples=(0,)))
            finally:
                await gateway.drain()

        payload, _ = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_ERROR
        assert payload["error"]["reason"] == "unknown-model"

    def test_out_of_range_sample_names_the_exact_field(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_request(gateway.bound_port, ServeRequest(id="e2", model=MODEL, samples=(0, 10**6)))
            finally:
                await gateway.drain()

        payload, _ = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_ERROR
        assert payload["error"]["field"] == "request.samples[1]"
        assert payload["error"]["reason"] == "out-of-range"

    def test_malformed_frame_keeps_the_id_and_field_path(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                return await tcp_send_raw(gateway.bound_port, b'{"id": "e3", "model": "tinynet", "bogus": 1}\n')
            finally:
                await gateway.drain()

        payload = asyncio.run(run())
        assert payload["id"] == "e3"
        assert payload["outcome"] == OUTCOME_ERROR
        assert payload["error"]["field"] == "request.bogus"
        assert payload["error"]["reason"] == "unknown-field"
        assert get_registry().counter_value("serve_requests_total", outcome=OUTCOME_ERROR) == 1

    def test_sample_index_past_int64_is_an_error_and_the_gateway_keeps_serving(self, service):
        """An index of 2**63 or more once passed parsing and raised
        OverflowError in the int64 range check, killing the dispatcher: no
        later request on any connection was answered."""

        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", gateway.bound_port)
                try:
                    writer.write(b'{"id":"a","model":"tinynet","samples":[100000000000000000000000]}\n')
                    await writer.drain()
                    bad = await asyncio.wait_for(reader.readline(), timeout=10.0)
                finally:
                    writer.close()
                after = await asyncio.wait_for(
                    tcp_request(gateway.bound_port, ServeRequest(id="b", model=MODEL, samples=(0,))), timeout=10.0
                )
                return json.loads(bad), after[0]
            finally:
                await asyncio.wait_for(gateway.drain(), timeout=10.0)

        bad, after = asyncio.run(run())
        assert bad["id"] == "a"
        assert bad["outcome"] == OUTCOME_ERROR
        assert bad["error"]["field"] == "request.samples[0]"
        assert bad["error"]["reason"] == "out-of-range"
        assert after["id"] == "b" and after["outcome"] == OUTCOME_OK

    def test_int64_is_the_parse_bound_for_sample_indices(self):
        frame = '{{"id": "i", "model": "{}", "samples": [1, {}]}}'
        assert parse_request(frame.format(MODEL, MAX_SAMPLE_INDEX)).samples == (1, 2**63 - 1)
        with pytest.raises(ConfigError) as excinfo:
            parse_request(frame.format(MODEL, MAX_SAMPLE_INDEX + 1))
        assert excinfo.value.field == "request.samples[1]"
        assert excinfo.value.reason == "out-of-range"


class TestTransportsAndOps:
    def test_unix_socket_round_trip(self, service, tmp_path):
        socket_path = str(tmp_path / "serve.sock")

        async def run():
            gateway = ServeGateway(service, ServeConfig(host=None, unix_path=socket_path))
            await gateway.start()
            try:
                reader, writer = await asyncio.open_unix_connection(socket_path)
                writer.write(request_frame(ServeRequest(id="u1", model=MODEL, samples=(0,))))
                await writer.drain()
                raw = await reader.readline()
                writer.close()
                return json.loads(raw)
            finally:
                await gateway.drain()

        payload = asyncio.run(run())
        assert payload["outcome"] == OUTCOME_OK

    def test_ping_and_metrics_ops_bypass_the_queue(self, service):
        async def run():
            gateway = make_gateway(service)
            await gateway.start()
            try:
                pong = await tcp_send_raw(gateway.bound_port, b'{"op": "ping", "id": "p"}\n')
                await tcp_request(gateway.bound_port, ServeRequest(id="m0", model=MODEL, samples=(0,)))
                snapshot = await tcp_send_raw(gateway.bound_port, b'{"op": "metrics"}\n')
                return pong, snapshot
            finally:
                await gateway.drain()

        pong, snapshot = asyncio.run(run())
        assert pong == {"id": "p", "ok": True, "op": "ping"}
        assert snapshot["requests"][OUTCOME_OK] == 1
        assert snapshot["shed"] == 0
        # admin ops never count as classifications
        assert sum(snapshot["requests"].values()) == 1


class TestCLI:
    def test_main_serves_until_sigterm_then_drains(self, tmp_path, capsys):
        """``main()`` end to end, in process: build a synthetic model, serve
        over a unix socket, answer a request, drain on SIGTERM, export
        metrics, print the ready line and drain summary, exit 0."""

        sock_path = str(tmp_path / "gw.sock")
        metrics_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        results: dict[str, object] = {}

        def client() -> None:
            try:
                deadline = time.monotonic() + 60.0
                while not os.path.exists(sock_path):
                    assert time.monotonic() < deadline, "gateway never bound its socket"
                    time.sleep(0.01)
                with socket.socket(socket.AF_UNIX) as sock:
                    while sock.connect_ex(sock_path) != 0:
                        assert time.monotonic() < deadline, "gateway never listened"
                        time.sleep(0.01)
                    sock.sendall(request_frame(ServeRequest(id="c1", model="net-00", samples=(0, 3))))
                    buf = b""
                    while not buf.endswith(b"\n"):
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        buf += chunk
                    results["payload"] = json.loads(buf)
            except BaseException as exc:  # surfaced after main() returns
                results["error"] = exc
            finally:
                # main() installed an asyncio SIGTERM handler: this triggers
                # the drain instead of killing the test process
                os.kill(os.getpid(), signal.SIGTERM)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        rc = main(
            [
                "--cache",
                str(tmp_path / "cache"),
                "--synthetic-models",
                "1",
                "--seed",
                "7",
                "--unix",
                sock_path,
                "--metrics-out",
                str(metrics_path),
                "--prom-out",
                str(prom_path),
            ]
        )
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert "error" not in results, results["error"]
        assert rc == 0

        payload = results["payload"]
        assert payload["id"] == "c1"
        assert payload["outcome"] == OUTCOME_OK
        assert payload["degraded"] is False

        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines() if line.strip()]
        ready, summary = lines[0], lines[-1]
        assert ready["ready"] is True
        assert ready["models"] == ["net-00"]
        assert ready["unix"] == sock_path
        assert summary["drained"] is True
        assert summary["served"][OUTCOME_OK] == 1
        assert metrics_path.is_file()
        assert "serve_requests_total" in prom_path.read_text(encoding="utf-8")


class TestCheckSamplesVectorized:
    def test_valid_indices_pass(self, service):
        service.check_samples(MODEL, ServeRequest(id="v", model=MODEL, samples=(0, 159, 42)))

    def test_first_offending_index_names_the_exact_field(self, service):
        """The numpy range check reports the same field path the old
        per-index Python loop reported: the *first* out-of-range index."""

        with pytest.raises(ConfigError) as excinfo:
            service.check_samples(MODEL, ServeRequest(id="v", model=MODEL, samples=(0, 160, 3, 9999)))
        assert excinfo.value.field == "request.samples[1]"
        assert excinfo.value.reason == "out-of-range"
        assert "160 test samples" in excinfo.value.detail

    def test_flat_sample_indices_concatenates_in_request_order(self):
        requests = [
            ServeRequest(id="a", model=MODEL, samples=(3, 1)),
            ServeRequest(id="b", model=MODEL, samples=(4,)),
        ]
        flat = flat_sample_indices(requests)
        assert flat.dtype == np.int64
        assert flat.tolist() == [3, 1, 4]


class TestEncoderByteIdentity:
    def test_tolist_payloads_byte_identical_to_per_element_encoder(self, service):
        """Regression pin: ``.tolist()`` fast-path encoding produces the
        exact frames the old per-element ``float()``/``int()`` loops did."""

        requests = [
            ServeRequest(id="t0", model=MODEL, samples=(0, 7, 31)),
            ServeRequest(id="t1", model=MODEL, samples=(159,)),
            ServeRequest(id="t2", model=MODEL, samples=(12, 12, 13)),
        ]
        session = service.base_session(MODEL)
        active = list(session.members)
        flat = flat_sample_indices(requests)
        probs, predictions, flags = session.evaluate(flat)
        breaker_states = service.board.states_for(MODEL)

        # the pre-vectorization encoder, verbatim
        old_frames = []
        offset = 0
        for request in requests:
            span = slice(offset, offset + len(request.samples))
            offset += len(request.samples)
            old_frames.append(
                response_frame(
                    {
                        "id": request.id,
                        "outcome": OUTCOME_OK,
                        "model": MODEL,
                        "members": list(session.members),
                        "probs": [[float(p) for p in row] for row in probs[span]],
                        "predictions": [int(p) for p in predictions[span]],
                        "flags": [int(f) for f in flags[span]],
                        "degraded": False,
                        "shed": [],
                        "missing": list(session.missing),
                        "quarantined": dict(session.quarantined),
                        "breakers": breaker_states,
                    }
                )
            )

        payloads = service.evaluate_requests(MODEL, requests, active=active, shed=[])
        assert [response_frame(p) for p in payloads] == old_frames

    def test_static_stanza_is_cached_and_shared(self, service):
        first = service.static_stanza(MODEL, ["ORG", "pp-Gamma_2"], [])
        second = service.static_stanza(MODEL, ["ORG", "pp-Gamma_2"], [])
        assert first is second, "stanza cache missed on an identical key"
        other = service.static_stanza(MODEL, ["ORG"], ["pp-Gamma_2"])
        assert other is not first
        assert other["shed"] == ["pp-Gamma_2"]


class TestRowTextMemo:
    """The per-session memo of probability-row texts behind ``response_frame``."""

    @staticmethod
    def memo(service, members) -> dict:
        return service._row_memo[(MODEL, tuple(members))][1]

    def test_memo_never_exceeds_n_samples_even_when_rows_keep_changing(self, service):
        base = service.base_session(MODEL)
        everything = ServeRequest(id="all", model=MODEL, samples=tuple(range(base.n_samples)))
        registry = get_registry()
        service.evaluate_requests(MODEL, [everything])
        misses = registry.counter_value("serve_encode_rows_total", result="miss")
        (payload,) = service.evaluate_requests(MODEL, [everything])
        assert registry.counter_value("serve_encode_rows_total", result="miss") == misses, "warm pass re-encoded"
        assert response_frame(payload) == canonical_frame(payload)
        assert len(self.memo(service, base.members)) <= base.n_samples
        # every pass over new member values brings n_samples new rows: the
        # memo clears when full instead of growing
        for shift in (1, 2, 3):
            base.test_stack[0] = np.roll(base.test_stack[0], shift, axis=1)
            (payload,) = service.evaluate_requests(MODEL, [everything])
            assert len(self.memo(service, base.members)) <= base.n_samples
            assert response_frame(payload) == canonical_frame(payload)
        total = registry.counter_value("serve_encode_rows_total", result="hit") + registry.counter_value(
            "serve_encode_rows_total", result="miss"
        )
        assert total == 5 * base.n_samples

    def test_shed_subset_session_has_its_own_memo(self, service):
        base = service.base_session(MODEL)
        subset = base.members[:-1]
        request = ServeRequest(id="s", model=MODEL, samples=(0, 1, 2))
        service.evaluate_requests(MODEL, [request])
        shed = service.evaluate_requests(MODEL, [request], active=subset, shed=base.members[-1:])[0]
        full_memo, shed_memo = self.memo(service, base.members), self.memo(service, subset)
        assert full_memo is not shed_memo
        assert len(full_memo) == len(shed_memo) == 3
        assert set(full_memo).isdisjoint(shed_memo)
        assert get_registry().counter_value("serve_encode_rows_total", result="miss") == 6
        assert response_frame(shed) == canonical_frame(shed)

    def test_in_place_corruption_re_encodes_the_new_value(self, synthetic_cache, service):
        """The memo key is the row's content, not its sample index: a
        resident value overwritten after the memo is warm is answered from
        what ``evaluate`` now returns, exactly as a fresh service answers."""

        request = ServeRequest(id="x", model=MODEL, samples=(5, 6))
        before = response_frame(service.respond(request))
        fresh = PolygraphService(ArtifactStore(synthetic_cache), seed=0)
        for svc in (service, fresh):
            svc.base_session(MODEL).test_stack[0, 5, 0] += 0.25
        registry = get_registry()
        misses = registry.counter_value("serve_encode_rows_total", result="miss")
        after = response_frame(service.respond(request))
        assert registry.counter_value("serve_encode_rows_total", result="miss") == misses + 1
        assert after != before
        assert after == response_frame(fresh.respond(request))
        assert after == canonical_frame(service.respond(request))
