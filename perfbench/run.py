"""PolygraphMR benchmark: seeded, unpadded campaign and gateway workloads.

    python3 perfbench/run.py --workload clean-point --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload pairs a campaign phase with
a gateway phase (see README.md for why) and splits ``--seconds`` between
them.  Progress lines go to standard output; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  A failed output check prints
``"correct": false`` and exits 1; a checkout without the program exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import campaign_phase
import serve_phase
import stats
from common import BenchError, Ctx, program_env

# workload -> (campaign cache, gateway request shape)
WORKLOADS = {
    "clean-point": ("clean", "point"),
    "faulty-wide": ("faulty", "wide"),
}

CAMPAIGN_SHARE = 0.6  # of --seconds; the gateway phase gets the rest

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
    "verify_s": "s",
    "latency_p50_ms": "ms",
    "capacity_rps": "1/s",
    "full_answer_share": "share",
}


def layer_unit(name: str) -> str:
    if name.startswith(("trace.", "cache.")) or name.endswith("_share"):
        return "share"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix):
            return unit
    return "bytes" if name.endswith("bytes") else "count"


def end_to_end(camp: dict, serve: dict) -> dict:
    return {
        # set-up a user pays before work starts, summed over both programs
        "setup_s": stats.median(camp["setup_s"]) + stats.median(serve["setup_s"]),
        "peak_rss_mb": stats.median(camp["rss_mb"]) + serve["rss_mb"],
        "trials_per_s": stats.median(camp["trials_per_s"]),
        "verify_s": stats.median(camp["verify_s"]),
        "latency_p50_ms": serve["latency_p50_ms"],
        "capacity_rps": serve["capacity_rps"],
        "full_answer_share": serve["full_answer_share"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polygraphmr" / "__init__.py").is_file():
        print(f"no polygraphmr sources under {root / 'src'}: run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # the same relative path for every run of a seed, so journals (which
    # record the cache path) repeat byte for byte across runs and checkouts
    work = Path(".perfbench_work") / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(root=root, work=work, seed=args.seed, trace=bool(args.trace), env=program_env(root, work))
    # a terminated benchmark still stops the programs it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    campaign_kind, shape = WORKLOADS[args.workload]
    campaign_s = CAMPAIGN_SHARE * args.seconds
    camp = serve = None
    try:
        # compile the program's bytecode once, outside every timed launch
        subprocess.run(
            [sys.executable, "-c", "import polygraphmr.campaign, polygraphmr.serve"],
            cwd=root, env=ctx.env, check=True, timeout=120,
        )
        camp = campaign_phase.run(ctx, faulty=campaign_kind == "faulty", seconds=campaign_s)
        print(f"campaign-{campaign_kind}: {json.dumps({k: v for k, v in camp.items() if k != 'layers'})}")
        serve = serve_phase.run(ctx, shape=shape, seconds=args.seconds - campaign_s)
        print(f"serve-{shape}: {json.dumps({k: v for k, v in serve.items() if k != 'layers'})}")
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        # a program that fails, hangs or answers garbage fails the run
        print(f"FAIL: {exc!r}", file=sys.stderr)
    finally:
        ctx.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    attempted = sum(p["attempted"] for p in (camp, serve) if p)
    failed = sum(p["failed"] for p in (camp, serve) if p)
    correct = camp is not None and serve is not None
    metrics = {}
    if correct:
        if args.trace:
            values = {**camp["layers"], **serve["layers"]}
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(camp, serve)
            units = END_TO_END_UNITS
        for name, value in values.items():
            print(f"{name} = {value:.6g} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
