"""Metric math of the benchmark.  Run: ``python3 -m pytest perfbench/tests``."""

import math

import pytest

import loadgen
import stats


def span(sid, parent, name, start, end, key=None):
    return (sid, parent, name, start, end, key)


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 99) == 99
        assert stats.percentile(values, 100) == 100
        assert stats.percentile([7.0], 99) == 7.0

    def test_empty_sample_is_refused(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    @pytest.mark.parametrize(
        "n, expected",
        [
            (10_000, 99.9),  # exactly 10 samples beyond p99.9
            (9_999, 99.0),  # 9 beyond p99.9 is not enough
            (1_000, 99.0),
            (999, 95.0),
            (200, 95.0),
            (199, 90.0),
            (20, 50.0),
            (19, None),
        ],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert stats.highest_supported_percentile(n) == expected

    def test_samples_beyond_counts_strictly_greater_ranks(self):
        values = list(range(1000))
        p99 = stats.percentile(values, 99)
        assert sum(1 for v in values if v > p99) == stats.samples_beyond(1000, 99) == 10

    def test_quartile_spread(self):
        assert stats.quartile_spread([10.0] * 10) == 0.0
        spread = stats.quartile_spread([9.0, 10.0, 10.0, 11.0, 10.0, 9.5, 10.5, 10.0, 10.0, 10.0])
        assert 0.0 < spread < 0.1


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        spans = [
            span(1, None, "window", 0.0, 10.0),
            span(2, 1, "fit", 1.0, 3.0),
            span(3, 1, "trial", 4.0, 8.0),
            span(4, 3, "fit", 5.0, 6.0),
        ]
        own = stats.self_times(spans)
        assert own == {1: pytest.approx(4.0), 2: pytest.approx(2.0), 3: pytest.approx(3.0), 4: pytest.approx(1.0)}
        by_name = stats.self_time_by_name(spans)
        assert by_name == {"window": pytest.approx(4.0), "fit": pytest.approx(3.0), "trial": pytest.approx(3.0)}
        # self times partition the root span's wall time
        assert math.fsum(own.values()) == pytest.approx(stats.root_time(spans))

    def test_child_is_clipped_to_its_parent(self):
        spans = [span(1, None, "a", 0.0, 2.0), span(2, 1, "b", 1.0, 5.0)]
        assert stats.self_times(spans)[1] == pytest.approx(1.0)

    def test_spans_whose_parent_was_not_recorded_are_roots(self):
        spans = [span(5, 99, "orphan", 0.0, 1.0), span(6, None, "root", 2.0, 4.0)]
        assert stats.root_time(spans) == pytest.approx(3.0)
        assert stats.calls_by_name(spans) == {"orphan": 1, "root": 1}


class TestOutcomeAccounting:
    def test_refusals_are_not_failures(self):
        tally = stats.tally_replies(
            ["a", "b", "c", "d"],
            [("a", "ok"), ("b", "degraded"), ("c", "overloaded"), ("d", "deadline_exceeded")],
        )
        assert tally["answered"] == 2
        assert tally["refused"] == 2
        assert tally["failed"] == 0

    def test_errors_missing_duplicate_and_stray_replies_fail(self):
        tally = stats.tally_replies(
            ["a", "b", "c", "d"],
            [("a", "error"), ("c", "ok"), ("c", "ok"), ("z", "ok"), ("d", "ok")],
        )
        assert tally["errors"] == 1
        assert tally["missing"] == 1  # b
        assert tally["duplicate"] == 1  # c
        assert tally["stray"] == 1  # z
        assert tally["answered"] == 1  # only d
        assert tally["failed"] == 4
        assert tally["attempted"] == 4

    def test_trial_failures(self):
        tally = stats.tally_trials(["ok", "ok", "error", "trial_timeout", "ok"])
        assert tally == {"attempted": 5, "failed": 2}


def test_a_reply_split_over_chunks_takes_the_completing_chunk_time():
    chunks = [(1.0, b'{"id":"a"}\n{"id"'), (2.0, b':"b"}\n'), (3.0, b'{"id":"c"}\n')]
    assert loadgen.split_replies(chunks) == [(1.0, b'{"id":"a"}'), (2.0, b'{"id":"b"}'), (3.0, b'{"id":"c"}')]
