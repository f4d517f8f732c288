"""Differential suite for the batched trial engine: batching is an execution
detail, so every campaign artifact — journal bytes, chain links, checkpoint —
must be byte-identical to the serial per-trial loop's, across scenario
sweeps, timeouts, tripping breakers, kills, and worker × batch-size combos.
Plus hypothesis properties that every kernel's rows are independent: row
``b`` of a batch equals the kernel run on that row alone with ``seeds[b]``."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygraphmr.batching import (
    DEFAULT_BATCH_SIZE,
    PRISTINE_BREAKER,
    BatchTrialEngine,
    board_is_steady,
    plan_windows,
)
from polygraphmr.campaign import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    CampaignConfig,
    CampaignJournal,
    CampaignRunner,
    TrialExecutor,
    scenarios_config_field,
    verify_campaign,
)
from polygraphmr.decision import ensemble_features
from polygraphmr.faults import (
    FAULT_MODELS,
    SURFACES,
    FaultSpec,
    apply_fault,
    corrupt_file_truncate,
    sanitize_probs,
    select_fault_indices,
)
from polygraphmr.metrics import get_registry
from polygraphmr.parallel import ParallelCampaignRunner
from polygraphmr.scenarios import resolve_scenarios

SWEEP = ("channel-bitflip-10pct", "quantize-4bit", "stuck-at-zero-1pct")


def _config(cache, **overrides) -> CampaignConfig:
    base = dict(cache=str(cache), n_trials=12, seed=7, timeout_s=60.0)
    base.update(overrides)
    return CampaignConfig(**base)


def _sweep_config(cache, **overrides) -> CampaignConfig:
    overrides.setdefault("scenarios", scenarios_config_field(resolve_scenarios(SWEEP)))
    return _config(cache, **overrides)


def _bytes(out_dir) -> tuple[bytes, bytes]:
    return (out_dir / JOURNAL_NAME).read_bytes(), (out_dir / CHECKPOINT_NAME).read_bytes()


class TestPlanner:
    def test_windows_tile_the_pending_list_in_order(self):
        pending = list(range(23))
        windows = plan_windows(pending, 4, 4)
        assert [w for win in windows for w in win] == pending
        assert [len(w) for w in windows] == [16, 7]

    def test_degenerate_sizes_clamp_to_one(self):
        assert plan_windows([5, 9], 0, 0) == [[5], [9]]
        assert plan_windows([], 4, 16) == []

    def test_span_scales_with_models_so_each_gets_a_full_batch(self):
        windows = plan_windows(list(range(12)), 3, 2)
        assert [len(w) for w in windows] == [6, 6]


class TestBoardSteadiness:
    PRE = {"tick_count": 4, "breakers": {"m/a": dict(PRISTINE_BREAKER)}}

    def test_one_tick_no_activity_is_steady(self):
        post = {"tick_count": 5, "breakers": {"m/a": dict(PRISTINE_BREAKER)}}
        assert board_is_steady(self.PRE, post)

    def test_new_pristine_entry_is_steady(self):
        post = {
            "tick_count": 5,
            "breakers": {"m/a": dict(PRISTINE_BREAKER), "m/b": dict(PRISTINE_BREAKER)},
        }
        assert board_is_steady(self.PRE, post)

    def test_tick_skew_changed_entry_or_lost_entry_break_steadiness(self):
        assert not board_is_steady(self.PRE, {"tick_count": 6, "breakers": {"m/a": dict(PRISTINE_BREAKER)}})
        tripped = dict(PRISTINE_BREAKER, consecutive_failures=1)
        assert not board_is_steady(self.PRE, {"tick_count": 5, "breakers": {"m/a": tripped}})
        assert not board_is_steady(self.PRE, {"tick_count": 5, "breakers": {"m/b": dict(PRISTINE_BREAKER)}})
        assert not board_is_steady(self.PRE, {"tick_count": 5, "breakers": {}})


class TestJournalBatchFlush:
    def test_append_many_matches_sequential_appends_and_returns_seals(self, tmp_path):
        records = [{"type": "trial", "index": i, "payload": i * 3} for i in range(5)]
        one = CampaignJournal(tmp_path / "one.jsonl")
        heads = []
        for record in records:
            one.append(dict(record))
            heads.append(one.head)
        many = CampaignJournal(tmp_path / "many.jsonl")
        seals = many.append_many([dict(r) for r in records])
        assert (tmp_path / "many.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()
        assert seals == heads
        assert many.head == one.head
        assert many.append_many([]) == []


class TestSerialBatchedEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 3, DEFAULT_BATCH_SIZE])
    def test_legacy_campaign_is_byte_identical(self, multi_model_cache, tmp_path, batch_size):
        config = _config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", use_batch=False).run()
        summary = CampaignRunner(config, tmp_path / "batched", batch_size=batch_size).run()
        assert summary["completed"] == config.n_trials
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert verify_campaign(tmp_path / "batched")["exit_code"] == 0
        if batch_size > 1:
            batched = get_registry().counter("campaign_batched_trials_total").value
            assert batched > 0, "batched fast path never engaged"

    @pytest.mark.parametrize("batch_size", [2, 8])
    def test_scenario_sweep_is_byte_identical(self, synthetic_cache, tmp_path, batch_size):
        config = _sweep_config(synthetic_cache, n_trials=9)
        CampaignRunner(config, tmp_path / "serial", use_batch=False).run()
        CampaignRunner(config, tmp_path / "batched", batch_size=batch_size).run()
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert verify_campaign(tmp_path / "batched")["exit_code"] == 0

    def test_tripping_breakers_fall_back_to_the_serial_path(self, multi_model_cache, tmp_path):
        victim = multi_model_cache / "net-01"
        for split in ("val", "test"):
            target = victim / f"pp-Gamma_2.{split}.probs.npz"
            corrupt_file_truncate(target, target, keep_fraction=0.2, seed=5)
        config = _config(multi_model_cache, failure_threshold=2, cooldown_ticks=1)
        serial = CampaignRunner(config, tmp_path / "serial", use_batch=False).run()
        assert serial["breakers"], "stressor failed to trip any breaker"
        batched = CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        assert batched["breakers"] == serial["breakers"]
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        fallback = get_registry().counter(
            "campaign_batch_fallback_total", reason="breaker-activity"
        ).value
        assert fallback > 0, "breaker activity never forced a serial fallback"

    def test_timeouts_are_journalled_identically(self, multi_model_cache, tmp_path, monkeypatch):
        # every trial body blocks until the test ends, so the 1 µs budget
        # fires on each one whatever the thread scheduling: every probe times
        # out and the whole campaign replays down the serial path.  Patching
        # the trial body, not passing a trial_fn, keeps batching eligible.
        release = threading.Event()
        monkeypatch.setattr(TrialExecutor, "_run_trial", lambda self, spec: release.wait())
        try:
            config = _config(multi_model_cache, n_trials=8, timeout_s=1e-6)
            serial = CampaignRunner(config, tmp_path / "serial", use_batch=False).run()
            assert serial["outcomes"].get("trial_timeout") == 8
            CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
            assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        finally:
            release.set()  # let the abandoned watchdog threads finish

    def test_kernel_timeout_falls_back_to_serial_replay(self, synthetic_cache, tmp_path, monkeypatch):
        config = _config(synthetic_cache, n_trials=4, timeout_s=0.75)
        CampaignRunner(config, tmp_path / "serial", use_batch=False).run()

        def stall(self, model, indices):  # never touches the executor
            import time

            time.sleep(10)

        monkeypatch.setattr(BatchTrialEngine, "_run_batch", stall)
        CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert get_registry().counter("campaign_batch_fallback_total", reason="timeout").value > 0

    def test_kernel_error_falls_back_to_serial_replay(self, synthetic_cache, tmp_path, monkeypatch):
        config = _config(synthetic_cache, n_trials=4)
        CampaignRunner(config, tmp_path / "serial", use_batch=False).run()

        def explode(self, model, indices):
            raise RuntimeError("kernel blew up")

        monkeypatch.setattr(BatchTrialEngine, "_run_batch", explode)
        CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert get_registry().counter("campaign_batch_fallback_total", reason="error").value > 0

    def test_interrupted_batched_run_resumes_to_identical_bytes(self, multi_model_cache, tmp_path):
        config = _config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", use_batch=False).run()
        partial = CampaignRunner(config, tmp_path / "batched", batch_size=4).run(max_new_trials=5)
        assert partial["stopped_early"] and partial["completed"] == 5
        resumed = CampaignRunner(config, tmp_path / "batched", batch_size=4).run(resume=True)
        assert resumed["completed"] == config.n_trials
        assert _bytes(tmp_path / "batched") == _bytes(tmp_path / "serial")
        assert verify_campaign(tmp_path / "batched")["exit_code"] == 0

    def test_custom_trial_fn_disables_batching(self, bare_cache, tmp_path):
        config = _config(bare_cache("m"), n_trials=3)
        runner = CampaignRunner(
            config, tmp_path / "out", trial_fn=lambda spec: {"model": spec.model}
        )
        assert not runner.use_batch  # faked trial bodies have no kernel
        assert runner.run()["completed"] == 3


class TestThreeWayEquivalenceMatrix:
    @pytest.mark.parametrize(("workers", "batch_size"), [(2, 1), (2, 8), (4, 4)])
    def test_serial_parallel_batched_all_match(self, multi_model_cache, tmp_path, workers, batch_size):
        config = _config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", use_batch=False).run()
        CampaignRunner(config, tmp_path / "batched", batch_size=batch_size).run()
        par = ParallelCampaignRunner(
            config, tmp_path / "par", workers=workers, batch_size=batch_size
        ).run()
        assert par["failed_workers"] == []
        reference = _bytes(tmp_path / "serial")
        assert _bytes(tmp_path / "batched") == reference
        assert _bytes(tmp_path / "par") == reference
        assert verify_campaign(tmp_path / "par")["exit_code"] == 0

    def test_scenario_sweep_three_way(self, multi_model_cache, tmp_path):
        config = _sweep_config(multi_model_cache)
        CampaignRunner(config, tmp_path / "serial", use_batch=False).run()
        CampaignRunner(config, tmp_path / "batched", batch_size=4).run()
        par = ParallelCampaignRunner(config, tmp_path / "par", workers=4, batch_size=4).run()
        assert par["failed_workers"] == []
        reference = _bytes(tmp_path / "serial")
        assert _bytes(tmp_path / "batched") == reference
        assert _bytes(tmp_path / "par") == reference


class TestScenarioResolutionHoisting:
    def test_one_resolution_per_campaign(self, synthetic_cache, tmp_path, monkeypatch):
        """Regression: derive_trial_spec used to re-parse the scenario list on
        every call in the hot loop; resolution is now hoisted into the
        executor, so a whole campaign parses each scenario exactly once."""

        import polygraphmr.scenarios as scenarios_mod
        from polygraphmr.campaign import _scenarios_from_canonical

        config = _sweep_config(synthetic_cache)
        _scenarios_from_canonical.cache_clear()
        real = scenarios_mod.parse_scenario
        calls = []
        monkeypatch.setattr(
            scenarios_mod, "parse_scenario", lambda d: calls.append(1) or real(d)
        )
        summary = CampaignRunner(config, tmp_path / "out", batch_size=4).run()
        assert summary["completed"] == config.n_trials
        assert len(calls) == len(SWEEP), "scenario list was re-parsed in the hot loop"


# ---------------------------------------------------------------------------
# hypothesis properties: row b of a batch ≡ the kernel run on row b alone
# ---------------------------------------------------------------------------


@st.composite
def _batch_case(draw):
    b = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=6))
    c = draw(st.integers(min_value=2, max_value=5))
    seeds = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=b, max_size=b))
    base = draw(st.integers(min_value=0, max_value=99))
    stacked = np.random.default_rng(base).random((b, n, c))
    return stacked, seeds


FAULT_PARAMS = st.fixed_dictionaries(
    {
        "surface": st.sampled_from(SURFACES),
        "kind": st.sampled_from(FAULT_MODELS),
        "rate": st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        "sigma": st.sampled_from([0.0, 0.3, 1.5]),
        "step": st.sampled_from([0.0625, 0.25]),
        "count": st.integers(min_value=0, max_value=5),
    }
)


class TestVectorizedInjectorProperties:
    @settings(max_examples=40)
    @given(case=_batch_case(), params=FAULT_PARAMS)
    def test_apply_fault_batch_equals_serial_loop(self, case, params):
        stacked, seeds = case
        before = stacked.copy()
        batched = apply_fault(stacked, seeds=seeds, **params)
        assert np.array_equal(stacked, before), "batched injection mutated its input"
        for i, seed in enumerate(seeds):
            alone = apply_fault(stacked[i : i + 1], seeds=[seed], **params)[0]
            unbatched = apply_fault(stacked[i], rng=np.random.default_rng(seed), **params)
            assert batched[i].dtype == alone.dtype == unbatched.dtype
            assert np.array_equal(batched[i], alone), f"row {i} depends on the rest of its batch"
            assert np.array_equal(batched[i], unbatched), f"row {i} diverged from its unbatched run"

    @settings(max_examples=40)
    @given(case=_batch_case(), params=FAULT_PARAMS)
    def test_select_indices_batch_equals_serial_loop(self, case, params):
        # stuck-at-1 marks exactly the selected cells (the draws lie in
        # [0, 1), so no untouched cell is 1.0): row i of a batch must mark
        # the cells select_fault_indices picks for seeds[i] alone
        stacked, seeds = case
        marked = apply_fault(
            stacked,
            surface=params["surface"],
            kind="stuck1",
            rate=params["rate"],
            count=params["count"],
            seeds=seeds,
        )
        for i, seed in enumerate(seeds):
            alone = select_fault_indices(
                stacked.shape[1:],
                params["surface"],
                rate=params["rate"],
                count=params["count"],
                rng=np.random.default_rng(seed),
            )
            assert np.array_equal(np.flatnonzero(marked[i] == 1.0), np.sort(alone))

    @settings(max_examples=40)
    @given(
        case=_batch_case(),
        kind=st.sampled_from(["bitflip", "gaussian"]),
        rate=st.sampled_from([0.0, 0.2, 0.9]),
        sigma=st.sampled_from([0.0, 0.7]),
    )
    def test_fault_spec_apply_batch_equals_serial_loop(self, case, kind, rate, sigma):
        stacked, seeds = case
        spec = FaultSpec(kind=kind, rate=rate, sigma=sigma, seed=seeds[0])
        before = stacked.copy()
        batched = spec.apply_batch(stacked, seeds=seeds)
        assert np.array_equal(stacked, before)
        for i, seed in enumerate(seeds):
            serial = FaultSpec(kind=kind, rate=rate, sigma=sigma, seed=seed).apply(stacked[i])
            assert np.array_equal(batched[i], serial)

    @settings(max_examples=30)
    @given(case=_batch_case(), name=st.sampled_from(SWEEP))
    def test_scenario_fault_apply_batch_equals_serial_loop(self, case, name):
        stacked, seeds = case
        (scenario,) = resolve_scenarios([name])
        batched = scenario.fault(seeds[0]).apply_batch(stacked, seeds=seeds)
        for i, seed in enumerate(seeds):
            assert np.array_equal(batched[i], scenario.fault(seed).apply(stacked[i]))

    @settings(max_examples=40)
    @given(
        b=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=5),
        c=st.integers(min_value=2, max_value=4),
        base=st.integers(min_value=0, max_value=99),
        poison=st.sampled_from(["none", "nan", "inf", "negative", "dead-row"]),
    )
    def test_sanitize_probs_batch_equals_serial_loop(self, b, n, c, base, poison):
        arr = np.random.default_rng(base).random((b, n, c))
        if poison == "nan":
            arr[..., 0] = np.nan
        elif poison == "inf":
            arr[..., 0] = np.inf
        elif poison == "negative":
            arr[..., 0] = -3.0
        elif poison == "dead-row":
            arr[:, 0, :] = 0.0
        before = arr.copy()
        batched = sanitize_probs(arr)
        assert np.array_equal(arr, before, equal_nan=True)
        for i in range(b):
            assert np.array_equal(batched[i], sanitize_probs(arr[i]))

    @settings(max_examples=30)
    @given(
        b=st.integers(min_value=1, max_value=3),
        m=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=2, max_value=6),
        c=st.integers(min_value=2, max_value=4),
        base=st.integers(min_value=0, max_value=99),
    )
    def test_ensemble_features_batch_equals_serial_loop(self, b, m, n, c, base):
        raw = np.random.default_rng(base).random((b, m, n, c))
        stacked = raw / raw.sum(axis=-1, keepdims=True)
        batched = ensemble_features(stacked)
        for i in range(b):
            assert np.array_equal(batched[i], ensemble_features(stacked[i]))
