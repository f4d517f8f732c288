"""Metric math for the benchmark: percentiles, span self time, outcome tallies.

Pure functions only, so ``perfbench/tests/test_stats.py`` can pin them down
without launching anything.
"""

from __future__ import annotations

import math
import statistics

# the percentiles a latency report may name, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct`` % of
    the samples at or below it."""

    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), pct) - 1]


def _rank(n: int, pct: float) -> int:
    # rounded first, so 99.9 % of 10000 is rank 9990 and not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank beyond the nearest-rank ``pct``."""

    return n - _rank(n, pct)


def highest_supported_percentile(n: int, candidates=PERCENTILES) -> float | None:
    """The highest percentile in ``candidates`` with at least ``MIN_BEYOND``
    samples beyond it, or ``None`` when even the lowest lacks them."""

    for pct in sorted(candidates, reverse=True):
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def median(values) -> float:
    return float(statistics.median(list(values)))


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# -- spans -----------------------------------------------------------------
#
# A span is the tuple (span_id, parent_id, name, start, end, key): ``key`` is
# the trial index or request id(s) the work belongs to, or None.

SPAN_ID, SPAN_PARENT, SPAN_NAME, SPAN_START, SPAN_END, SPAN_KEY = range(6)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one parent never overlap (one thread runs at a time under
    the recorder's single stack), so covered time is the sum of the
    children's durations, clipped to the parent's interval.
    """

    own = {s[SPAN_ID]: s[SPAN_END] - s[SPAN_START] for s in spans}
    bounds = {s[SPAN_ID]: (s[SPAN_START], s[SPAN_END]) for s in spans}
    for s in spans:
        parent = s[SPAN_PARENT]
        if parent is None or parent not in bounds:
            continue
        lo, hi = bounds[parent]
        covered = min(s[SPAN_END], hi) - max(s[SPAN_START], lo)
        if covered > 0:
            own[parent] -= covered
    return own


def self_time_by_name(spans) -> dict[str, float]:
    """Total self time per span name."""

    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s[SPAN_NAME]] = totals.get(s[SPAN_NAME], 0.0) + own[s[SPAN_ID]]
    return totals


def calls_by_name(spans) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in spans:
        counts[s[SPAN_NAME]] = counts.get(s[SPAN_NAME], 0) + 1
    return counts


def root_time(spans) -> float:
    """Wall time covered by spans without a recorded parent."""

    ids = {s[SPAN_ID] for s in spans}
    return sum(s[SPAN_END] - s[SPAN_START] for s in spans if s[SPAN_PARENT] not in ids)


# -- outcomes --------------------------------------------------------------

ANSWERED = ("ok", "degraded")  # goodput: the request was served
REFUSED = ("overloaded", "deadline_exceeded")  # refusals miss the limit but are not failures


def tally_replies(sent_ids, replies) -> dict:
    """Failure-versus-refusal accounting for one gateway phase.

    ``sent_ids`` are the request ids sent; ``replies`` the ``(id, outcome)``
    pairs received.  A failure is an ``error`` outcome or a request with a
    missing or duplicate reply; ``overloaded`` and ``deadline_exceeded`` are
    refusals, counted apart.  A reply to an id never sent is a failure too.
    """

    seen: dict[str, int] = {}
    outcomes: dict[str, str] = {}
    for rid, outcome in replies:
        seen[rid] = seen.get(rid, 0) + 1
        outcomes[rid] = outcome
    sent = list(sent_ids)
    sent_set = set(sent)
    missing = sum(1 for rid in sent if rid not in seen)
    duplicate = sum(1 for rid in sent if seen.get(rid, 0) > 1)
    stray = sum(1 for rid in seen if rid not in sent_set)
    errors = sum(1 for rid in sent if seen.get(rid) == 1 and outcomes[rid] == "error")
    refused = sum(1 for rid in sent if seen.get(rid) == 1 and outcomes[rid] in REFUSED)
    answered = sum(1 for rid in sent if seen.get(rid) == 1 and outcomes[rid] in ANSWERED)
    return {
        "attempted": len(sent),
        "answered": answered,
        "refused": refused,
        "errors": errors,
        "missing": missing,
        "duplicate": duplicate,
        "stray": stray,
        "failed": errors + missing + duplicate + stray,
    }


def tally_trials(outcomes) -> dict:
    """Campaign accounting: ``error`` and ``trial_timeout`` trials fail."""

    outcomes = list(outcomes)
    failed = sum(1 for o in outcomes if o in ("error", "trial_timeout"))
    return {"attempted": len(outcomes), "failed": failed}
