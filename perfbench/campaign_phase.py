"""Campaign phase: repeated seeded campaigns, each audited after it ends.

Every campaign is a fresh ``polygraphmr.campaign`` process on product
defaults (batched executor, artifact cache on, watchdog on, no padding)
over the same generated cache and seed, so every journal of one run must be
byte-identical.  ``verify_campaign`` runs in this process on each journal
just written.
"""

from __future__ import annotations

import hashlib
import json

import inputs
import probes
import stats
from common import BenchError, Ctx, clock, finish, launch

# trials per campaign: each campaign runs a few seconds, so one phase holds
# several launches and set-up is sampled several times
TRIALS = {"clean": 512, "faulty": 128}
VERIFY_REPEATS = 5  # verify_campaign runs per journal; the median is kept
MIN_CAMPAIGNS = 3  # untraced; a traced phase alternates, at least 2 + 2


def _counter_total(metrics: dict, name: str, **labels) -> int:
    return sum(
        row["value"]
        for row in metrics["counters"]
        if row["name"] == name and all(row["labels"].get(k) == v for k, v in labels.items())
    )


def run(ctx: Ctx, *, faulty: bool, seconds: float) -> dict:
    from polygraphmr.campaign import verify_campaign
    from polygraphmr.scenarios import builtin_scenarios

    kind = "faulty" if faulty else "clean"
    n_trials = TRIALS[kind]
    cache = ctx.work / f"campaign-cache-{kind}"
    built = inputs.build_campaign_cache(cache, ctx.seed, faulty=faulty)
    args = ["--cache", str(cache), "--trials", str(n_trials), "--seed", str(ctx.seed)]
    if faulty:
        args += ["--scenarios", ",".join(sorted(builtin_scenarios()))]

    verify_rec = probes.Recorder()
    if ctx.trace:
        probes.install_verify(verify_rec)

    minimum = 2 * (MIN_CAMPAIGNS - 1) if ctx.trace else MIN_CAMPAIGNS
    runs = []
    end = clock() + seconds
    while len(runs) < minimum or clock() < end:
        k = len(runs)
        traced = ctx.trace and k % 2 == 1
        out = ctx.work / f"campaign-{kind}-{k}"
        launched = launch(ctx, "campaign", args + ["--out", str(out)], trace=traced, tag=f"campaign-{kind}-{k}")
        report, stdout = finish(ctx, launched, timeout_s=60.0)
        summary = json.loads(stdout)
        walks_before = len(verify_rec.spans)
        verify_times = []
        for _ in range(VERIFY_REPEATS):
            started = clock()
            verdict = verify_campaign(out)
            verify_times.append(clock() - started)
            if not verdict["ok"]:
                break
        if not verdict["ok"]:
            raise BenchError(f"verify_campaign failed on campaign {k}: {verdict['status']} {verdict['first_bad']}")
        if summary["completed"] != n_trials:
            raise BenchError(f"campaign {k} completed {summary['completed']} of {n_trials} trials")
        marks = report["marks"]
        runs.append(
            {
                "traced": traced,
                "setup_s": marks["first_trial"] - launched.t0,
                "loop_s": marks["loop_end"] - marks["first_trial"],
                "verify_s": stats.median(verify_times),
                "rss_mb": report["peak_rss_kb"] / 1024.0,
                "outcomes": summary["outcomes"],
                "journal_sha256": hashlib.sha256((out / "journal.jsonl").read_bytes()).hexdigest(),
                "journal_bytes": (out / "journal.jsonl").stat().st_size,
                "metrics": json.loads((out / "metrics.json").read_text()),
                "spans": report["spans"],
                "first_trial": marks["first_trial"],
                "walk_spans": verify_rec.spans[walks_before:],
            }
        )

    shas = {r["journal_sha256"] for r in runs}
    if len(shas) != 1:
        raise BenchError(f"journals of one seed differ across campaigns: {sorted(shas)}")
    outcomes = [o for r in runs for o, c in r["outcomes"].items() for _ in range(c)]
    plain = [r for r in runs if not r["traced"]]
    result = {
        "journal_sha256": shas.pop(),
        "damaged": built["damaged"],
        "campaigns": len(runs),
        **stats.tally_trials(outcomes),
        "setup_s": [r["setup_s"] for r in plain],
        "trials_per_s": [n_trials / r["loop_s"] for r in plain],
        "verify_s": [r["verify_s"] for r in plain],
        "rss_mb": [r["rss_mb"] for r in plain],
    }
    if ctx.trace:
        result["layers"] = _layers([r for r in runs if r["traced"]], plain, n_trials)
    return result


def _layers(traced: list[dict], plain: list[dict], n_trials: int) -> dict:
    """Per-campaign layer numbers, averaged over the traced campaigns."""

    n = len(traced)
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    quarantined = 0
    explained = []
    for r in traced:
        spans = r["spans"]
        for name, t in stats.self_time_by_name(spans).items():
            own[name] = own.get(name, 0.0) + t
        for name, c in stats.calls_by_name(spans).items():
            calls[name] = calls.get(name, 0) + c
        quarantined += sum(
            1 for s in spans if s[stats.SPAN_NAME] == "store.load" and str(s[stats.SPAN_KEY]).startswith("!")
        )
        in_loop = [s for s in spans if s[stats.SPAN_START] >= r["first_trial"]]
        explained.append(stats.root_time(in_loop) / r["loop_s"])

    def per(name: str) -> float:
        return own.get(name, 0.0) / n

    def count(name: str) -> float:
        return calls.get(name, 0) / n

    def counter(name: str, **labels) -> float:
        return sum(_counter_total(r["metrics"], name, **labels) for r in traced) / n

    hits = counter("artifact_cache_hits_total") + counter("artifact_cache_negative_hits_total")
    lookups = hits + counter("artifact_cache_misses_total")
    walks = [
        stats.self_time_by_name(r["walk_spans"]).get("journal.walk", 0.0) / VERIFY_REPEATS for r in traced + plain
    ]
    return {
        "decision.fit_calls": count("decision.fit"),
        "decision.fit_s": per("decision.fit"),
        "decision.evaluate_s": per("decision.evaluate"),
        "decision.predict_s": per("decision.predict"),
        "faults.inject_s": per("faults.inject"),
        "ensemble.assemble_s": per("ensemble.assemble"),
        "batching.batched_share": 1.0 - count("campaign.trial") / n_trials,
        "batching.fallbacks.breaker-activity": counter("campaign_batch_fallback_total", reason="breaker-activity"),
        "batching.fallbacks.timeout": counter("campaign_batch_fallback_total", reason="timeout"),
        "batching.fallbacks.error": counter("campaign_batch_fallback_total", reason="error"),
        "batching.window_self_s": per("batching.window"),
        "campaign.trial_self_s": per("campaign.trial"),
        "store.scan_calls": count("store.scan"),
        "store.scan_s": per("store.scan"),
        "store.loads": count("store.load"),
        "store.quarantined": quarantined / n,
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "breaker.transitions": counter("breaker_transitions_total"),
        "journal.append_s": per("journal.append"),
        "journal.checkpoint_s": per("journal.checkpoint"),
        "journal.bytes": traced[0]["journal_bytes"],
        "journal.walk_s": stats.median(walks),
        "trace.explained_share.campaign": stats.median(explained),
        "trace.overhead_share.campaign": stats.median([r["loop_s"] for r in traced])
        / stats.median([r["loop_s"] for r in plain])
        - 1.0,
    }
