"""Check that the benchmark is steady: run each workload on several seeds and
compare every end-to-end metric's quartile spread with its bound.

    python3 perfbench/steady.py --seeds 1-10 [--workloads clean-point,faulty-wide]

Run from the root of a checkout.  For each workload and metric it prints
the median, the spread (Q3 - Q1) / median as ``statistics.quantiles(n=4)``
gives the quartiles, and the bound from ``BENCHMARK.json``; it exits 1 when
a run fails or a spread other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED {proc.stderr.strip()[-400:]}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: ok", flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            spread = stats.quartile_spread(vals)
            within = name == "setup_s" or spread <= bounds[name]
            ok = ok and within
            print(
                f"  {workload:12s} {name:18s} median {stats.median(vals):12.6g}  "
                f"spread {spread:.4f}  bound {bounds[name]}{'' if within else '  EXCEEDED'}"
                f"  [{' '.join(f'{v:.4g}' for v in vals)}]"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
