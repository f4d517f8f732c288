"""Seeded inputs: synthetic artifact caches and gateway request streams.

Everything here is a pure function of the workload seed, so the same seed
gives the same caches byte for byte and the same requests.  The programs
only ever see the generated files and frames.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_SAMPLES = 96  # per split, for every synthetic model
CAMPAIGN_MODELS = 4
SERVE_MODELS = 2
TRUNCATED_STEM = "pp-FlipX"  # a non-core member of every synthetic model


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def build_campaign_cache(root: Path, seed: int, *, faulty: bool) -> dict:
    """Four valid synthetic models; with ``faulty``, ``pp-FlipX`` (both
    splits) is cut in half with ``corrupt_file_truncate`` in two of them."""

    from polygraphmr.faults import build_synthetic_model, corrupt_file_truncate
    from polygraphmr.store import ArtifactStore

    rng = _rng(seed, 1)
    names = [f"net-{i:02d}" for i in range(CAMPAIGN_MODELS)]
    for name, model_seed in zip(names, rng.integers(0, 2**31, size=len(names))):
        build_synthetic_model(root, name, n_val=N_SAMPLES, n_test=N_SAMPLES, seed=int(model_seed))
    damaged: list[str] = []
    if faulty:
        store = ArtifactStore(root)
        picks = sorted(int(i) for i in rng.choice(len(names), size=2, replace=False))
        for i in picks:
            for split in ("val", "test"):
                path = store.probs_path(names[i], TRUNCATED_STEM, split)
                corrupt_file_truncate(path, path, keep_fraction=0.5, seed=int(rng.integers(0, 2**31)))
            damaged.append(names[i])
    return {"models": names, "damaged": damaged}


def build_serve_cache(root: Path, seed: int) -> list[str]:
    from polygraphmr.faults import build_synthetic_model

    rng = _rng(seed, 2)
    names = [f"net-{i:02d}" for i in range(SERVE_MODELS)]
    for name, model_seed in zip(names, rng.integers(0, 2**31, size=len(names))):
        build_synthetic_model(root, name, n_val=N_SAMPLES, n_test=N_SAMPLES, seed=int(model_seed))
    return names


def request_stream(seed: int, stream: int, n: int, models: list[str], width: int, prefix: str) -> list:
    """``n`` classify requests alternating over ``models``, each naming
    ``width`` sample indices drawn from the seed; ids are ``prefix-<i>``."""

    from polygraphmr.serve import ServeRequest

    rng = _rng(seed, 100 + stream)
    samples = rng.integers(0, N_SAMPLES, size=(n, width))
    return [
        ServeRequest(id=f"{prefix}-{i}", model=models[i % len(models)], samples=tuple(int(s) for s in row))
        for i, row in enumerate(samples)
    ]


def arrival_offsets(seed: int, stream: int, n: int, rate: float) -> list[float]:
    """Send times (seconds from the phase start) of ``n`` independent
    callers arriving at ``rate`` per second: a seeded Poisson process.

    Evenly spaced sends would lock into step with the gateway's coalescing
    slices and flip between two latency modes from run to run; random gaps
    average over every phase."""

    gaps = _rng(seed, 200 + stream).exponential(1.0 / rate, size=n)
    return np.cumsum(gaps).tolist()
