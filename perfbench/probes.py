"""Span recording around the program's public functions.

The benchmark times each layer at the boundary where its work happens, from
its own files: :class:`Recorder` replaces a function or method with a
wrapper that records one span per call — ``(span_id, parent_id, name,
start, end, key)`` with ``key`` the trial index or request id(s) — in
memory.  Nothing is written until the launcher exits.

The recorder keeps one span stack per process rather than per thread.  The
campaign runs trials and batch kernels on watchdog threads while the thread
that started them waits in ``join``, so exactly one thread records at a
time and a kernel's spans nest under the window that launched it.  The
gateway is single-threaded.
"""

from __future__ import annotations

import functools
import itertools
import time


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.marks: dict[str, float] = {}
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def wrap(self, owner, attr: str, name: str, key=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``key(args, result)`` names the trial or request the call worked
        for; a call that raises gets the key ``"!" + exception class``.
        """

        fn = getattr(owner, attr)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans.append((sid, parent, name, start, clock(), "!" + type(exc).__name__))
                raise
            finally:
                stack.pop()
            end = clock()
            spans.append((sid, parent, name, start, end, key(args, result) if key else None))
            return result

        setattr(owner, attr, wrapper)

    def mark_first_call(self, owner, attr: str, label: str) -> None:
        """Remember when ``owner.attr`` is first entered (untraced runs)."""

        fn = getattr(owner, attr)
        marks = self.marks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if label not in marks:
                marks[label] = time.perf_counter()
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def mark_return(self, owner, attr: str, label: str) -> None:
        """Remember when ``owner.attr`` last returned."""

        fn = getattr(owner, attr)
        marks = self.marks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                marks[label] = time.perf_counter()

        setattr(owner, attr, wrapper)


def install_campaign(rec: Recorder, *, trace: bool) -> None:
    """Marks for the trial loop; with ``trace``, spans for every campaign layer."""

    from polygraphmr import campaign, decision, ensemble, faults, journal, scenarios, store
    from polygraphmr.batching import BatchTrialEngine

    if trace:
        rec.wrap(campaign.TrialExecutor, "execute", "campaign.trial", key=lambda a, r: a[1])
        rec.wrap(BatchTrialEngine, "execute_window", "batching.window", key=lambda a, r: a[1][0])
        rec.wrap(decision.LogisticDecisionModule, "fit", "decision.fit")
        rec.wrap(decision.LogisticDecisionModule, "predict_proba", "decision.predict")
        rec.wrap(decision.LogisticDecisionModule, "evaluate", "decision.evaluate")
        rec.wrap(ensemble.EnsembleRuntime, "assemble", "ensemble.assemble")
        for owner in (faults.FaultSpec, scenarios.ScenarioFault):
            rec.wrap(owner, "apply", "faults.inject")
            rec.wrap(owner, "apply_batch", "faults.inject")
        rec.wrap(store.ArtifactStore, "scan_model", "store.scan")
        for attr in ("load_probs", "load_weights", "load_labels"):
            rec.wrap(store.ArtifactStore, attr, "store.load")
        rec.wrap(journal.CampaignJournal, "append", "journal.append")
        rec.wrap(journal.CampaignJournal, "append_many", "journal.append")
        rec.wrap(campaign, "write_checkpoint", "journal.checkpoint")
    # the first trial always enters TrialExecutor.execute: the batch engine
    # probes each chunk's first trial through it
    rec.mark_first_call(campaign.TrialExecutor, "execute", "first_trial")
    rec.mark_return(campaign.CampaignRunner, "run", "loop_end")


def _request_id(a, r):
    return r.id


def install_serve(rec: Recorder) -> None:
    """Spans for the gateway's parse, plan, evaluate and encode layers."""

    from polygraphmr import decision, serve
    from polygraphmr.breaker import BreakerBoard

    rec.wrap(serve, "parse_request", "serve.parse", key=_request_id)
    rec.wrap(serve.PolygraphService, "check_samples", "serve.check", key=lambda a, r: a[2].id)
    rec.wrap(serve.PolygraphService, "active_members", "serve.active", key=lambda a, r: len(r[1]))
    rec.wrap(serve.PolygraphService, "record_pressure", "serve.pressure")
    rec.wrap(
        serve.PolygraphService,
        "evaluate_requests",
        "serve.evaluate_requests",
        key=lambda a, r: [q.id for q in a[2]],
    )
    rec.wrap(serve.ModelSession, "evaluate", "serve.evaluate")
    rec.wrap(serve.PolygraphService, "build_payloads", "serve.build_payloads")
    rec.wrap(serve, "response_frame", "serve.response_frame", key=lambda a, r: [a[0].get("id"), len(r)])
    rec.wrap(BreakerBoard, "tick", "serve.tick")
    rec.wrap(decision.LogisticDecisionModule, "fit", "decision.fit")


def install_verify(rec: Recorder) -> None:
    """Span for the journal chain walk inside ``verify_campaign``."""

    from polygraphmr import campaign

    rec.wrap(campaign, "walk_chain", "journal.walk")
