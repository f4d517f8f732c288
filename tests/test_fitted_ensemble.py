"""Error outcomes of every fitted-ensemble caller, pinned; and the
runtime's content-addressed gate memo.

The ensemble runtime, the degradation harness (and through it the campaign
journal, serial and batched) and the serving gateway all assemble both
splits, intersect the survivors, and fit the decision gate on ``val``.  These
tests pin what each caller does when ORG does not survive, when labels are
missing, and when the ``val`` labels disagree with the stack in length.  The
campaign journals ``repr(exc)`` for a failed trial, so the exception
messages asserted here are journal bytes.

The gate fit is memoized per runtime under a hash of its inputs; the memo
tests pin what is a hit, what is a miss, and that a campaign fits once per
(model, member set).
"""

from __future__ import annotations

import numpy as np
import pytest

from polygraphmr.campaign import (
    JOURNAL_NAME,
    OUTCOME_ERROR,
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    TrialExecutor,
)
from polygraphmr.ensemble import DegradedResult, EnsembleResult, EnsembleRuntime
from polygraphmr.errors import DegradedEnsemble
from polygraphmr.faults import FaultSpec, corrupt_file_truncate, measure_degradation
from polygraphmr.metrics import get_registry
from polygraphmr.serve import OUTCOME_DEGRADED, OUTCOME_OK, PolygraphService, ServeRequest
from polygraphmr.store import ArtifactStore

MODEL = "tinynet"
N = 160  # samples per split in the synthetic_cache fixture

ORG_LOST = ValueError(f"model {MODEL!r}: ORG did not survive validation; cannot define targets")
NO_LABELS = ValueError(f"model {MODEL!r}: labels required to measure detection quality")
VAL_LABELS_SHORT = ValueError(f"operands could not be broadcast together with shapes ({N},) (100,) ")

# damage -> the exception the degradation harness (and so the journal) reports
HARNESS_ERRORS = {
    "org-lost": ORG_LOST,
    "labels-missing": NO_LABELS,
    "test-labels-missing": NO_LABELS,
    "val-labels-short": VAL_LABELS_SHORT,
}


@pytest.fixture()
def damage(synthetic_cache, write_labels):
    """Apply one named kind of damage to the ``tinynet`` model in place."""

    mdir = synthetic_cache / MODEL

    def apply(kind: str) -> None:
        if kind == "org-lost":
            path = mdir / "ORG.val.probs.npz"
            corrupt_file_truncate(path, path, keep_fraction=0.3, seed=5)
        elif kind == "labels-missing":
            (mdir / "labels.val.npz").unlink()
            (mdir / "labels.test.npz").unlink()
        elif kind == "test-labels-missing":
            (mdir / "labels.test.npz").unlink()
        elif kind == "val-labels-short":
            write_labels(mdir / "labels.val.npz", np.zeros(100, dtype=np.int64))
        else:
            raise AssertionError(kind)

    return apply


def _campaign_errors(cache, out, *, use_batch: bool) -> list[str]:
    config = CampaignConfig(cache=str(cache), n_trials=6, seed=7, timeout_s=60.0)
    summary = CampaignRunner(config, out, use_batch=use_batch).run()
    assert summary["completed"] == config.n_trials
    records = CampaignJournal(out / JOURNAL_NAME).trial_records()
    assert all(r["outcome"] == OUTCOME_ERROR for r in records.values())
    return [r["error"] for r in records.values()]


class TestRunModel:
    def test_org_lost_runs_without_a_gate(self, synthetic_cache, damage):
        damage("org-lost")
        result = EnsembleRuntime(ArtifactStore(synthetic_cache)).run_model(MODEL)
        assert isinstance(result, DegradedResult)
        assert "ORG" in result.quarantined and "ORG" not in result.members
        assert result.metrics is None
        assert not result.flags.any() and result.flags.shape == (N,)

    @pytest.mark.parametrize("kind", ["labels-missing", "val-labels-short"])
    def test_unusable_val_labels_run_without_a_gate(self, synthetic_cache, damage, kind):
        damage(kind)
        result = EnsembleRuntime(ArtifactStore(synthetic_cache)).run_model(MODEL)
        assert type(result) is EnsembleResult and result.status == "full"
        assert result.metrics is None
        assert not result.flags.any() and result.flags.shape == (N,)

    def test_missing_test_labels_fit_the_gate_but_skip_metrics(self, synthetic_cache, damage):
        clean = EnsembleRuntime(ArtifactStore(synthetic_cache)).run_model(MODEL)
        damage("test-labels-missing")
        result = EnsembleRuntime(ArtifactStore(synthetic_cache)).run_model(MODEL)
        assert result.metrics is None
        assert result.flags.tobytes() == clean.flags.tobytes()


class TestDegradationHarness:
    @pytest.mark.parametrize("kind", sorted(HARNESS_ERRORS))
    def test_measure_degradation_raises(self, synthetic_cache, damage, kind):
        damage(kind)
        expected = HARNESS_ERRORS[kind]
        with pytest.raises(type(expected)) as exc_info:
            measure_degradation(ArtifactStore(synthetic_cache), MODEL, FaultSpec("bitflip", rate=0.01), seed=0)
        assert str(exc_info.value) == str(expected)

    @pytest.mark.parametrize("kind", sorted(HARNESS_ERRORS))
    def test_campaign_journals_the_repr(self, synthetic_cache, damage, tmp_path, kind):
        damage(kind)
        expected = repr(HARNESS_ERRORS[kind])
        serial = _campaign_errors(synthetic_cache, tmp_path / "serial", use_batch=False)
        batched = _campaign_errors(synthetic_cache, tmp_path / "batched", use_batch=True)
        assert serial == batched == [expected] * 6


class TestService:
    def _respond(self, cache) -> dict:
        service = PolygraphService(ArtifactStore(cache), seed=0)
        return service.respond(ServeRequest(id="r", model=MODEL, samples=tuple(range(N))))

    def test_the_clean_gate_flags_something(self, synthetic_cache):
        assert any(self._respond(synthetic_cache)["flags"])

    def test_org_lost_serves_degraded_without_a_gate(self, synthetic_cache, damage):
        damage("org-lost")
        payload = self._respond(synthetic_cache)
        assert payload["outcome"] == OUTCOME_DEGRADED
        assert "ORG" in payload["quarantined"] and "ORG" not in payload["members"]
        assert payload["flags"] == [0] * N

    @pytest.mark.parametrize("kind", ["labels-missing", "val-labels-short"])
    def test_unusable_val_labels_serve_without_a_gate(self, synthetic_cache, damage, kind):
        damage(kind)
        service = PolygraphService(ArtifactStore(synthetic_cache), seed=0)
        payload = service.respond(ServeRequest(id="r", model=MODEL, samples=tuple(range(N))))
        assert payload["outcome"] == OUTCOME_OK
        assert payload["flags"] == [0] * N
        shed = service.session_for(MODEL, tuple(service.base_session(MODEL).members[:2]))
        assert not shed.evaluate(np.arange(N))[2].any()

    def test_missing_test_labels_still_fit_the_gate(self, synthetic_cache, damage):
        clean = self._respond(synthetic_cache)
        damage("test-labels-missing")
        assert self._respond(synthetic_cache) == clean


class TestIntersectionBelowMinimum:
    """``val`` loses two members and ``test`` two others: each split keeps
    three survivors, but only ORG survives on both."""

    @pytest.fixture()
    def split_losses(self, synthetic_cache):
        mdir = synthetic_cache / MODEL
        for stem in ("pp-Gamma_2", "pp-Hist"):
            (mdir / f"{stem}.val.probs.npz").unlink()
        for stem in ("pp-FlipX", "replica-001"):
            (mdir / f"{stem}.test.probs.npz").unlink()
        return synthetic_cache

    def test_every_caller_raises_degraded_ensemble(self, split_losses):
        store = ArtifactStore(split_losses)
        calls = (
            lambda: EnsembleRuntime(store).run_model(MODEL),
            lambda: PolygraphService(store, seed=0).base_session(MODEL),
            lambda: measure_degradation(store, MODEL, FaultSpec("bitflip", rate=0.01), seed=0),
        )
        for call in calls:
            with pytest.raises(DegradedEnsemble) as exc_info:
                call()
            assert exc_info.value.available == ["ORG"]

    def test_campaign_journals_the_trial_as_error(self, split_losses, tmp_path):
        expected = repr(DegradedEnsemble(MODEL, ["ORG"], 2))
        serial = _campaign_errors(split_losses, tmp_path / "serial", use_batch=False)
        batched = _campaign_errors(split_losses, tmp_path / "batched", use_batch=True)
        assert serial == batched == [expected] * 6


def _memo(result: str) -> int:
    return get_registry().counter_value("decision_gate_memo_total", result=result)


class TestGateMemo:
    def test_a_second_fit_reuses_the_gate(self, synthetic_store):
        runtime = EnsembleRuntime(synthetic_store)
        first = runtime.fit(MODEL)
        second = runtime.fit(MODEL)
        assert second.gate is first.gate
        features = np.random.default_rng(0).random((N, first.gate.w.shape[0]))
        assert second.gate.predict_proba(features).tobytes() == first.gate.predict_proba(features).tobytes()
        assert (_memo("miss"), _memo("hit")) == (1, 1)
        assert get_registry().histogram_for("decision_fit_seconds").count == 1

    def test_one_flipped_val_byte_is_a_miss(self, synthetic_cache, write_probs):
        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache))
        gate = runtime.fit(MODEL).gate
        path = synthetic_cache / MODEL / "pp-Hist.val.probs.npz"
        with np.load(path) as npz:
            probs = npz["probs"].copy()
        probs.view(np.uint8)[0] ^= 1  # lowest mantissa bit of one probability
        write_probs(path, probs)
        assert runtime.fit(MODEL).gate is not gate
        assert (_memo("miss"), _memo("hit")) == (2, 0)

    def test_one_changed_label_is_a_miss(self, synthetic_cache, write_labels):
        runtime = EnsembleRuntime(ArtifactStore(synthetic_cache))
        gate = runtime.fit(MODEL).gate
        path = synthetic_cache / MODEL / "labels.val.npz"
        with np.load(path) as npz:
            labels = npz["labels"].copy()
        labels[0] = (labels[0] + 1) % 10
        write_labels(path, labels)
        assert runtime.fit(MODEL).gate is not gate
        assert (_memo("miss"), _memo("hit")) == (2, 0)

    def test_member_order_is_part_of_the_key(self, synthetic_store):
        runtime = EnsembleRuntime(synthetic_store)
        members = runtime.member_plan(MODEL)
        gate = runtime.fit(MODEL, members=members).gate
        swapped = members[:1] + members[2:0:-1] + members[3:]
        refit = runtime.fit(MODEL, members=swapped)
        assert refit.members == swapped and refit.gate is not gate
        assert (_memo("miss"), _memo("hit")) == (2, 0)

    def test_the_seed_is_part_of_the_key(self, synthetic_store):
        runtime = EnsembleRuntime(synthetic_store, seed=0)
        gate = runtime.fit(MODEL).gate
        runtime.seed = 1
        assert runtime.fit(MODEL).gate is not gate
        runtime.seed = 0
        assert runtime.fit(MODEL).gate is gate
        assert (_memo("miss"), _memo("hit")) == (2, 1)

    def test_restrict_fits_directly(self, synthetic_store):
        fitted = EnsembleRuntime(synthetic_store).fit(MODEL)
        fitted.restrict(fitted.members[:2])
        assert (_memo("miss"), _memo("hit")) == (1, 0)
        assert get_registry().histogram_for("decision_fit_seconds").count == 2

    def test_a_runtime_rebuilt_after_a_timeout_starts_empty(self, synthetic_cache):
        executor = TrialExecutor(CampaignConfig(cache=str(synthetic_cache), n_trials=1), [MODEL])
        old = executor.runtime_for(MODEL)
        gate = old.fit(MODEL).gate
        executor._rebuild_after_timeout(MODEL, executor.board_for(MODEL).snapshot())
        rebuilt = executor.runtime_for(MODEL)
        assert rebuilt is not old
        assert rebuilt.fit(MODEL).gate is not gate
        assert (_memo("miss"), _memo("hit")) == (2, 0)

    @pytest.mark.parametrize("use_batch", [False, True], ids=["per-trial", "batched"])
    def test_a_campaign_fits_once_per_member_set(self, multi_model_cache, tmp_path, use_batch):
        victim = multi_model_cache / "net-01" / "pp-FlipX.val.probs.npz"
        corrupt_file_truncate(victim, victim, keep_fraction=0.3, seed=5)
        config = CampaignConfig(cache=str(multi_model_cache), n_trials=24, seed=7, timeout_s=60.0)
        runner = CampaignRunner(config, tmp_path / "out", use_batch=use_batch)
        runner.run()
        records = CampaignJournal(tmp_path / "out" / JOURNAL_NAME).trial_records().values()
        ok = [r for r in records if r["outcome"] == "ok"]
        assert len(ok) == config.n_trials
        pairs = {(r["result"]["model"], tuple(r["result"]["members"])) for r in ok}
        assert ("net-01", ("ORG", "pp-Gamma_2", "pp-Hist", "replica-001")) in pairs
        reg = runner.merged_registry
        misses = reg.counter_value("decision_gate_memo_total", result="miss")
        assert misses == len(pairs)
        assert reg.histogram_for("decision_fit_seconds").count == misses
        if not use_batch:
            hits = reg.counter_value("decision_gate_memo_total", result="hit")
            assert hits + misses == len(ok)
