"""Graceful-degradation ensemble runtime.

Assembles whatever submodel artifacts validated into a stacked probability
tensor, aggregates predictions, and runs the decision module end-to-end
(train on ``val``, evaluate on ``test``).  A model with quarantined or
missing members still produces a result — explicitly marked degraded and
naming the members that dropped out — and only when fewer than
``min_members`` survive does it raise :class:`DegradedEnsemble`.

:meth:`EnsembleRuntime.fit` is the one place that turns a model into a
:class:`FittedEnsemble`: assemble both splits, intersect the survivors,
stack them, fit the decision gate on ``val``.  ``run_model``, the
degradation harness (and through it the campaign's per-trial and batched
paths) and the serving gateway all start from it; it never ticks a breaker
board, so each caller ticks where its own clock says a trial or batch
begins.

The gate fit is a pure function of (member order, seed, ``val`` stack and
labels), so each runtime memoizes it under a SHA-256 of exactly those
bytes: a campaign fits one gate per (model, member set) instead of one per
trial.  The key hashes content, never object identity or file stats: a
``val`` stack re-read with the same bytes is a hit, a salvaged or changed
one a miss.  The memo is per runtime so that a runtime thrown away after a
trial timeout takes its gates with it.  A memoized gate is shared by every
later ``fit`` on that runtime and is read-only.
:meth:`FittedEnsemble.restrict` fits directly, without the memo.

A runtime instance (store + breaker board + decision caches) is mutable
state and must stay within one process: multiprocess campaign workers each
build their own runtime after ``fork`` via
:class:`polygraphmr.campaign.TrialExecutor` rather than inherit the
parent's.

The store the runtime drives may carry a verified-once
:class:`~polygraphmr.cache.ArtifactCache`: the probability arrays it serves
are then shared read-only across trials (and, via the shared-memory plane,
across worker processes).  That is safe here because ``assemble`` copies
members into its stacked tensor (``np.stack``) and never writes to a loaded
array in place.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .breaker import BreakerBoard
from .decision import DetectionMetrics, LogisticDecisionModule, ensemble_features, majority_vote, misprediction_targets
from .errors import DegradedEnsemble
from .metrics import get_registry
from .store import ArtifactStore
from .tracing import get_tracer

__all__ = ["EnsembleBatch", "FittedEnsemble", "EnsembleResult", "DegradedResult", "ModelSkipped", "EnsembleRuntime"]

FULL = "full"
DEGRADED = "degraded"


@dataclass
class EnsembleBatch:
    """Stacked, validated probability tensors for one model and split."""

    model: str
    split: str
    members: list[str]  # stems, ORG first when present
    stacked: np.ndarray  # (M, N, C)
    missing: list[str] = field(default_factory=list)
    quarantined: dict[str, str] = field(default_factory=dict)  # stem -> reason

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.quarantined)


def _gate_key(members: list[str], val_stack: np.ndarray, val_labels: np.ndarray, seed: int) -> str:
    """SHA-256 over everything the gate fit reads: the member order, the
    seed, and the ``val`` stack and labels (shape, dtype and bytes)."""

    header = [list(members), seed, val_stack.shape, val_stack.dtype.str, val_labels.shape, val_labels.dtype.str]
    digest = hashlib.sha256(json.dumps(header).encode())
    digest.update(np.ascontiguousarray(val_stack))
    digest.update(np.ascontiguousarray(val_labels))
    return digest.hexdigest()


def _fit_gate(
    members: list[str],
    val_stack: np.ndarray,
    val_labels: np.ndarray | None,
    seed: int,
    memo: dict[str, LogisticDecisionModule] | None = None,
) -> LogisticDecisionModule | None:
    """The decision gate fitted on ``val``, or ``None`` when ORG did not
    survive or the ``val`` labels are missing or disagree with the stack.

    With a ``memo`` the gate is looked up by :func:`_gate_key` and fitted
    only on a miss; a memoized gate is shared, so callers treat it as
    read-only."""

    if val_labels is None or "ORG" not in members or len(val_labels) != val_stack.shape[1]:
        return None
    if memo is not None:
        key = _gate_key(members, val_stack, val_labels, seed)
        gate = memo.get(key)
        get_registry().counter("decision_gate_memo_total", result="miss" if gate is None else "hit").inc()
        if gate is not None:
            return gate
    gate = LogisticDecisionModule(seed=seed)
    org_val = val_stack[members.index("ORG")]
    gate.fit(ensemble_features(val_stack), misprediction_targets(org_val, val_labels))
    if memo is not None:
        memo[key] = gate
    return gate


@dataclass
class FittedEnsemble:
    """One model's ensemble, assembled on both splits and fitted.

    ``members`` are the survivors of *both* splits, in plan order, so the
    feature layout is identical at fit and evaluation time.  The stacks are
    resident in memory (backed by the artifact cache / shared-memory plane
    underneath), so evaluating test samples is pure numpy.  The serving
    gateway keeps one per (model, member subset) as its session.
    """

    model: str
    members: list[str]
    val_stack: np.ndarray  # (M, N_val, C)
    test_stack: np.ndarray  # (M, N_test, C)
    missing: list[str]
    quarantined: dict[str, str]  # stem -> reason, over both splits
    val_labels: np.ndarray | None
    test_labels: np.ndarray | None
    gate: LogisticDecisionModule | None  # see _fit_gate for when it is None
    seed: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.quarantined)

    @property
    def n_samples(self) -> int:
        return int(self.test_stack.shape[1])

    def restrict(self, members: list[str]) -> "FittedEnsemble":
        """The same ensemble over ``members`` (a subset, in this ensemble's
        order): stacks sliced, gate refitted on the narrower feature layout.
        ``missing``/``quarantined`` still describe the assembly."""

        rows = [self.members.index(s) for s in members]
        val_stack = self.val_stack[rows]
        return replace(
            self,
            members=list(members),
            val_stack=val_stack,
            test_stack=self.test_stack[rows],
            gate=_fit_gate(list(members), val_stack, self.val_labels, self.seed),
        )

    def evaluate(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean probs, ensemble predictions, and gate flags for test samples ``indices``.

        Per-sample math throughout (member-mean, argmax, features, logistic
        predict with frozen standardisation stats), so evaluating a
        concatenation and slicing equals evaluating each slice directly —
        bit for bit.
        """

        sub = self.test_stack[:, indices, :]  # (M, k, C)
        probs = sub.mean(axis=0)
        predictions = probs.argmax(axis=1)
        if self.gate is not None:
            flags = self.gate.predict(ensemble_features(sub))
        else:
            flags = np.zeros(len(indices), dtype=np.int64)
        return probs, predictions, flags


@dataclass
class EnsembleResult:
    """End-to-end outcome: ensemble predictions + misprediction detection."""

    model: str
    status: str  # FULL
    members: list[str]
    predictions: np.ndarray  # ensemble top-1 per test sample
    flags: np.ndarray  # 1 where the decision module predicts ORG is wrong
    metrics: DetectionMetrics | None  # None when no labels are available
    missing: list[str] = field(default_factory=list)
    quarantined: dict[str, str] = field(default_factory=dict)
    breakers: dict[str, str] = field(default_factory=dict)  # stem -> non-closed state


@dataclass
class DegradedResult(EnsembleResult):
    """Same payload as :class:`EnsembleResult`, but explicitly degraded:
    ``missing`` / ``quarantined`` name the members that did not make it."""

    def __post_init__(self) -> None:
        self.status = DEGRADED


@dataclass(frozen=True)
class ModelSkipped:
    """A model for which no ensemble could run at all, with the reason."""

    model: str
    reason: str
    detail: str = ""


class EnsembleRuntime:
    """Drives assemble → aggregate → decide over an :class:`ArtifactStore`."""

    def __init__(
        self,
        store: ArtifactStore,
        *,
        min_members: int = 2,
        seed: int = 0,
        breakers: BreakerBoard | None = None,
    ):
        self.store = store
        self.min_members = min_members
        self.seed = seed
        self.breakers = breakers
        # gate memo (see _fit_gate): per runtime, so a runtime thrown away
        # after a trial timeout takes its gates with it
        self._gates: dict[str, LogisticDecisionModule] = {}

    # -- assembly --------------------------------------------------------

    def member_plan(self, model: str, *, greedy: str | None = None) -> list[str]:
        """Which stems to attempt: a greedy selection if requested and
        parseable, otherwise every stem with artifacts on disk.

        Deliberately *not* restricted to already-valid artifacts: a stem
        whose files exist but are corrupt stays in the plan so the run can
        report it quarantined in a :class:`DegradedResult` instead of
        silently pretending the ensemble was never bigger."""

        manifest = self.store.scan_model(model)
        if greedy is not None and greedy in manifest.greedy:
            plan = manifest.greedy[greedy]
        else:
            plan = manifest.present_stems()
        if "ORG" in plan:  # keep ORG first: feature layout and targets rely on it
            plan = ["ORG"] + [s for s in plan if s != "ORG"]
        else:
            plan = ["ORG"] + plan
        return plan

    def assemble(self, model: str, split: str, *, members: list[str] | None = None) -> EnsembleBatch:
        """Load every planned member's probs for ``split``; quarantine, don't crash.

        Raises :class:`DegradedEnsemble` only when fewer than ``min_members``
        members survive validation (ORG included).

        When a :class:`~polygraphmr.breaker.BreakerBoard` is attached, a
        member whose breaker is open is skipped without touching the disk
        (reported quarantined as ``"circuit-open"``), and every corrupt load
        feeds the breaker.  Missing files do not trip breakers — a ``stat``
        is cheap; the breaker exists to avoid re-reading corrupt bytes.
        """

        registry = get_registry()
        plan = members if members is not None else self.member_plan(model, greedy=None)
        loaded: dict[str, np.ndarray] = {}
        missing: list[str] = []
        quarantined: dict[str, str] = {}
        n_shape: tuple[int, ...] | None = None
        for stem in plan:
            if self.breakers is not None and not self.breakers.allow(model, stem):
                quarantined[stem] = "circuit-open"
                registry.counter("ensemble_member_skips_total", reason="circuit-open").inc()
                continue
            path = self.store.probs_path(model, stem, split)
            if not path.is_file():
                missing.append(stem)
                registry.counter("ensemble_member_skips_total", reason="missing").inc()
                continue
            probs = self.store.try_load_probs(model, stem, split)
            if probs is None:
                quarantined[stem] = self.store.quarantine.get(str(path), "unknown")
                registry.counter("ensemble_member_skips_total", reason="quarantined").inc()
                if self.breakers is not None:
                    self.breakers.record_failure(model, stem)
                continue
            if n_shape is not None and probs.shape != n_shape:
                quarantined[stem] = "probs-shape-disagrees"
                self.store.quarantine[str(path)] = "probs-shape-disagrees"
                registry.counter("ensemble_member_skips_total", reason="shape-disagrees").inc()
                if self.breakers is not None:
                    self.breakers.record_failure(model, stem)
                continue
            n_shape = probs.shape if n_shape is None else n_shape
            loaded[stem] = probs
            if self.breakers is not None:
                self.breakers.record_success(model, stem)
        survivors = [s for s in plan if s in loaded]
        registry.counter(
            "ensemble_assemble_total", degraded="true" if (missing or quarantined) else "false"
        ).inc()
        if len(survivors) < self.min_members:
            raise DegradedEnsemble(model, survivors, self.min_members)
        stacked = np.stack([loaded[s] for s in survivors], axis=0)
        return EnsembleBatch(
            model=model,
            split=split,
            members=survivors,
            stacked=stacked,
            missing=missing,
            quarantined=quarantined,
        )

    # -- aggregation -----------------------------------------------------

    @staticmethod
    def aggregate(batch: EnsembleBatch, *, method: str = "mean") -> np.ndarray:
        """Ensemble top-1 prediction per sample: ``mean`` probs or majority ``vote``."""

        if method == "mean":
            return batch.stacked.mean(axis=0).argmax(axis=1)
        if method == "vote":
            return majority_vote(batch.stacked.argmax(axis=2), batch.stacked.shape[2])
        raise ValueError(f"unknown aggregation method: {method!r}")

    # -- fitting ---------------------------------------------------------

    def fit(self, model: str, members: list[str] | None = None) -> FittedEnsemble:
        """Assemble both splits, intersect the survivors, stack, fit the gate.

        Members are the intersection of the survivors on both splits so the
        feature layout is identical at train and eval time; fewer than
        ``min_members`` of them raises :class:`DegradedEnsemble`.  Never
        ticks the breaker board.
        """

        plan = members if members is not None else self.member_plan(model)
        val = self.assemble(model, "val", members=plan)
        test = self.assemble(model, "test", members=plan)

        common = [s for s in val.members if s in set(test.members)]
        if len(common) < self.min_members:
            raise DegradedEnsemble(model, common, self.min_members)
        val_stack = np.stack([val.stacked[val.members.index(s)] for s in common], axis=0)
        test_stack = np.stack([test.stacked[test.members.index(s)] for s in common], axis=0)

        quarantined = {**val.quarantined, **test.quarantined}
        missing = sorted(s for s in plan if s not in common and s not in quarantined)
        val_labels = self.store.load_labels(model, "val")
        return FittedEnsemble(
            model=model,
            members=common,
            val_stack=val_stack,
            test_stack=test_stack,
            missing=missing,
            quarantined=quarantined,
            val_labels=val_labels,
            test_labels=self.store.load_labels(model, "test"),
            gate=_fit_gate(common, val_stack, val_labels, self.seed, memo=self._gates),
            seed=self.seed,
        )

    # -- end to end ------------------------------------------------------

    def run_model(self, model: str, *, members: list[str] | None = None, greedy: str | None = None) -> EnsembleResult:
        """Train the decision module on val, evaluate on test, for one model.

        Returns :class:`DegradedResult` whenever any planned member dropped
        out (see :meth:`fit` for how members are chosen).

        Each call advances the breaker board's trial clock by one tick, so
        open-breaker cool-downs are counted in trials, not wall-clock.
        """

        registry = get_registry()
        with get_tracer().span(
            "ensemble.run_model", model=model, observe=registry.histogram("ensemble_run_seconds")
        ) as span:
            result = self._run_model_inner(model, members=members, greedy=greedy)
            span.set(status=result.status)
            registry.counter("ensemble_runs_total", status=result.status).inc()
            return result

    def _run_model_inner(
        self, model: str, *, members: list[str] | None = None, greedy: str | None = None
    ) -> EnsembleResult:
        if self.breakers is not None:
            self.breakers.tick()
        plan = members if members is not None else self.member_plan(model, greedy=greedy)
        fitted = self.fit(model, members=plan)
        test_stack = fitted.test_stack

        metrics = None
        flags = np.zeros(test_stack.shape[1], dtype=np.int64)
        if fitted.gate is not None:
            test_features = ensemble_features(test_stack)
            flags = fitted.gate.predict(test_features)
            test_labels = fitted.test_labels
            if test_labels is not None and len(test_labels) == test_stack.shape[1]:
                org_test = test_stack[fitted.members.index("ORG")]
                metrics = fitted.gate.evaluate(test_features, misprediction_targets(org_test, test_labels))

        batch = EnsembleBatch(model=model, split="test", members=fitted.members, stacked=test_stack)
        predictions = self.aggregate(batch)
        breaker_states = self.breakers.states_for(model) if self.breakers is not None else {}
        cls = DegradedResult if fitted.degraded else EnsembleResult
        return cls(
            model=model,
            status=FULL,
            members=fitted.members,
            predictions=predictions,
            flags=flags,
            metrics=metrics,
            missing=fitted.missing,
            quarantined=fitted.quarantined,
            breakers=breaker_states,
        )

    def run_cache(self) -> dict[str, EnsembleResult | ModelSkipped]:
        """Run every model in the cache; skips (never raises) per-model failures."""

        outcomes: dict[str, EnsembleResult | ModelSkipped] = {}
        for model in self.store.models():
            try:
                outcomes[model] = self.run_model(model)
            except DegradedEnsemble as exc:
                outcomes[model] = ModelSkipped(model, "degraded-below-minimum", str(exc))
            except Exception as exc:  # noqa: BLE001 - the contract is "never crash the sweep"
                outcomes[model] = ModelSkipped(model, "error", repr(exc))
        return outcomes
