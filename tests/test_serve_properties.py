"""Property tests for the serving wire codec: parse∘serialize is a fixed
point, malformed frames are rejected with exact field paths, the frame
assembler reconstructs frames across arbitrary chunk splits, and answers
encoded from cached row texts are the bytes ``json.dumps`` writes."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraphmr.breaker import HALF_OPEN, OPEN
from polygraphmr.errors import ConfigError, ServeError
from polygraphmr.serve import (
    MAX_ID_CHARS,
    MAX_SAMPLES_PER_REQUEST,
    FrameAssembler,
    PolygraphService,
    ServeRequest,
    parse_request,
    request_frame,
    response_frame,
)
from polygraphmr.store import ArtifactStore

from .conftest import canonical_frame, plain_copy

_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=24
)
_models = _ids
_samples = st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=32)
_deadlines = st.one_of(
    st.none(),
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False).map(float),
)


@st.composite
def classify_requests(draw) -> ServeRequest:
    return ServeRequest(
        id=draw(_ids),
        model=draw(_models),
        samples=tuple(draw(_samples)),
        deadline_ms=draw(_deadlines),
    )


@st.composite
def classify_dicts(draw) -> dict:
    """Always-valid classify wire mappings (the raw-JSON view)."""

    d: dict = {
        "id": draw(_ids),
        "model": draw(_models),
        "samples": draw(_samples),
    }
    if draw(st.booleans()):
        d["deadline_ms"] = draw(
            st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False)
        )
    return d


class TestCodecFixedPoint:
    @given(classify_requests())
    def test_parse_of_serialize_is_a_fixed_point(self, request_):
        frame = request_frame(request_)
        assert frame.endswith(b"\n")
        again = parse_request(frame[:-1])
        assert again == request_
        assert request_frame(again) == frame

    @given(st.sampled_from(["ping", "metrics"]), st.one_of(st.just(""), _ids))
    def test_op_frames_round_trip(self, op, rid):
        request_ = ServeRequest(id=rid, op=op)
        assert parse_request(request_frame(request_)[:-1]) == request_

    @given(classify_dicts())
    def test_key_order_never_matters(self, d):
        shuffled = dict(reversed(list(d.items())))
        assert parse_request(json.dumps(shuffled)) == parse_request(json.dumps(d))

    @given(classify_dicts())
    def test_parse_accepts_bytes_and_str_identically(self, d):
        text = json.dumps(d)
        assert parse_request(text) == parse_request(text.encode("utf-8"))


class TestMalformedFramesNameTheField:
    @given(classify_dicts(), st.sampled_from(["id", "model", "samples", "deadline_ms"]))
    def test_structurally_wrong_value_names_the_exact_field(self, d, field):
        corrupted = {**d, field: {"not": "valid"}}
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps(corrupted))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "bad-type"

    @given(classify_dicts(), _ids)
    def test_unknown_fields_are_rejected_by_name(self, d, extra_key):
        if extra_key in ("id", "model", "samples", "deadline_ms", "op"):
            return
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, extra_key: 1}))
        assert exc_info.value.field == f"request.{extra_key}"
        assert exc_info.value.reason == "unknown-field"

    @given(classify_dicts(), st.integers(min_value=0, max_value=31), st.integers(max_value=-1))
    def test_negative_sample_is_named_by_index(self, d, pos, bad):
        samples = list(d["samples"])
        pos = pos % len(samples)
        samples[pos] = bad
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, "samples": samples}))
        assert exc_info.value.field == f"request.samples[{pos}]"
        assert exc_info.value.reason == "out-of-range"

    @given(classify_dicts(), st.integers(min_value=0, max_value=31), st.sampled_from([True, False, 1.5, "7", None]))
    def test_non_integer_sample_is_named_by_index(self, d, pos, bad):
        samples = list(d["samples"])
        pos = pos % len(samples)
        samples[pos] = bad
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({**d, "samples": samples}))
        assert exc_info.value.field == f"request.samples[{pos}]"
        assert exc_info.value.reason == "bad-type"

    @given(classify_dicts(), st.sampled_from(["model", "samples"]))
    def test_missing_required_field_is_named(self, d, field):
        del d[field]
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps(d))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "missing-field"

    @given(classify_dicts(), st.sampled_from([0, 0.0, -1, -0.5, float("nan"), float("inf")]))
    def test_non_positive_or_non_finite_deadline_is_rejected(self, d, bad):
        text = json.dumps({**d, "deadline_ms": bad}, allow_nan=True)
        with pytest.raises(ConfigError) as exc_info:
            parse_request(text)
        assert exc_info.value.field == "request.deadline_ms"
        assert exc_info.value.reason == "out-of-range"

    @given(st.sampled_from(["ping", "metrics"]), st.sampled_from(["model", "samples", "deadline_ms"]))
    def test_classify_fields_are_rejected_on_admin_ops(self, op, field):
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({"op": op, field: 1}))
        assert exc_info.value.field == f"request.{field}"
        assert exc_info.value.reason == "unexpected-field"

    @given(st.text(max_size=64))
    def test_non_json_or_non_object_frames_blame_the_request(self, text):
        try:
            decoded = json.loads(text)
        except json.JSONDecodeError:
            decoded = ...  # not JSON at all
        if isinstance(decoded, dict):
            return
        with pytest.raises(ConfigError) as exc_info:
            parse_request(text)
        assert exc_info.value.field == "request"
        assert exc_info.value.reason in ("bad-json", "not-an-object")

    def test_bad_utf8_and_oversize_limits(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_request(b"\xff\xfe{}")
        assert (exc_info.value.field, exc_info.value.reason) == ("request", "bad-utf8")
        with pytest.raises(ConfigError) as exc_info:
            parse_request(json.dumps({"id": "x" * (MAX_ID_CHARS + 1), "model": "m", "samples": [0]}))
        assert (exc_info.value.field, exc_info.value.reason) == ("request.id", "too-long")
        with pytest.raises(ConfigError) as exc_info:
            parse_request(
                json.dumps({"id": "r", "model": "m", "samples": [0] * (MAX_SAMPLES_PER_REQUEST + 1)})
            )
        assert (exc_info.value.field, exc_info.value.reason) == ("request.samples", "too-many")


class TestFrameAssembly:
    @given(
        st.lists(classify_requests(), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=60)
    def test_reassembly_across_arbitrary_chunk_splits(self, requests, data):
        """However the byte stream is sliced, the assembler yields exactly
        the original frames, in order, each parseable back to its request."""

        stream = b"".join(request_frame(r) for r in requests)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=len(stream)), max_size=16),
                label="cuts",
            )
        )
        chunks, prev = [], 0
        for cut in [*cuts, len(stream)]:
            chunks.append(stream[prev:cut])
            prev = cut

        assembler = FrameAssembler()
        frames = [frame for chunk in chunks for frame in assembler.feed(chunk)]
        assert assembler.pending_bytes == 0
        assert frames == [request_frame(r)[:-1] for r in requests]
        assert [parse_request(f) for f in frames] == requests

    @given(st.integers(min_value=1, max_value=64))
    def test_unterminated_oversize_frame_poisons_the_connection(self, limit):
        oversize = b"x" * (limit + 1)
        for chunks in (
            [oversize],  # unterminated
            [oversize + b"\n"],  # terminated, in one chunk
            [oversize[: limit // 2], oversize[limit // 2 :] + b"\n"],  # terminated, each chunk under the bound
        ):
            assembler = FrameAssembler(max_frame_bytes=limit)
            with pytest.raises(ServeError) as exc_info:
                for chunk in chunks:
                    assembler.feed(chunk)
            assert exc_info.value.reason == "frame-too-large"
        # a terminated frame of any length under the bound is still fine
        ok = FrameAssembler(max_frame_bytes=limit)
        assert ok.feed(b"y" * limit + b"\n") == [b"y" * limit]


# floats whose shortest repr sits on a formatting boundary: signed zero,
# subnormals, and the 1e-5 / 1e16 switches between positional and
# exponent notation
_EDGE_FLOATS = (
    0.0,
    -0.0,
    5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    9.999999999999999e-06,
    1e-05,
    0.0001,
    9999999999999998.0,
    1e16,
    1.0000000000000002e16,
    0.1,
    1.0,
)
_prob_values = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
_wire_ids = st.one_of(
    st.text(min_size=1, max_size=12),
    st.sampled_from(['"', "\\", "a\nb\tc", "\x00\x1f", "é", "☃", "\U0001f600", "\u2028", '"probs":[]']),
)


# every key of an answer payload except ``probs``
_PAYLOAD_KEYS = "breakers degraded flags id members missing model outcome predictions quarantined shed".split()


@st.composite
def answer_batches(draw) -> dict:
    """One model group's raw evaluation arrays, split over 1+ requests.

    Rows are drawn from a small pool so a batch repeats rows, and the
    memo sees both hits and misses."""

    n_classes = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(_prob_values, min_size=n_classes, max_size=n_classes)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    n = draw(st.integers(min_value=1, max_value=8))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=n, max_size=n))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1)), max_size=3))) if n > 1 else []
    bounds = [0, *cuts, n]
    counts = [b - a for a, b in zip(bounds, bounds[1:])]
    return {
        "ids": draw(st.lists(_wire_ids, min_size=len(counts), max_size=len(counts))),
        "counts": counts,
        "probs": np.array([pool[i] for i in picks], dtype=np.float64).reshape(n, n_classes),
        "predictions": np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))),
        "flags": np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
    }


@pytest.fixture(scope="module")
def encoding_service(module_synthetic_cache):
    return PolygraphService(ArtifactStore(module_synthetic_cache), seed=0)


class TestAnswerEncoding:
    @settings(max_examples=150)
    @given(
        batch=answer_batches(),
        shed_mask=st.lists(st.booleans(), min_size=3, max_size=3),
        breakers=st.dictionaries(
            st.sampled_from(["pp-FlipX", "pp-Gamma_2", "pp-Hist", "replica-001"]),
            st.sampled_from([OPEN, HALF_OPEN]),
        ),
        kept=st.sets(st.sampled_from(_PAYLOAD_KEYS)),
    )
    def test_response_frame_equals_json_dumps_of_a_plain_copy(
        self, encoding_service, batch, shed_mask, breakers, kept
    ):
        members = encoding_service.base_session("tinynet").members
        # the first keep_members (2) members never shed
        shed = [stem for stem, drop in zip(members[2:], shed_mask) if drop]
        active = [stem for stem in members if stem not in shed]
        requests = [
            ServeRequest(id=rid, model="tinynet", samples=tuple(range(count)))
            for rid, count in zip(batch["ids"], batch["counts"])
        ]
        payloads = encoding_service.build_payloads(
            "tinynet",
            requests,
            batch["counts"],
            batch["probs"],
            batch["predictions"],
            batch["flags"],
            active=active,
            shed=shed,
            breaker_states=breakers,
        )
        for payload in payloads:
            assert payload == plain_copy(payload)
            assert response_frame(payload) == canonical_frame(payload)
            # a subset of the keys, as a caller comparing a few fields
            # encodes, may leave nothing before or after ``probs``
            partial = {key: payload[key] for key in kept | {"probs"}}
            assert response_frame(partial) == canonical_frame(partial)
