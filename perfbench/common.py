"""Shared run context and program launching."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    """A program failed or an output check did not hold: the run is invalid."""


@dataclass
class Ctx:
    root: Path  # the checkout the benchmark runs from
    work: Path  # scratch directory inside it
    seed: int
    trace: bool
    env: dict = field(default_factory=dict)
    live: list = field(default_factory=list)  # launched processes not yet reaped

    def stop_all(self) -> None:
        """Kill and reap every program still running."""

        for launched in self.live:
            if launched.proc.poll() is None:
                launched.proc.kill()
            launched.proc.wait()
        self.live.clear()


@dataclass
class Launched:
    proc: subprocess.Popen
    t0: float  # launch time on the shared monotonic clock
    marks_path: Path
    stderr_path: Path


def launch(ctx: Ctx, program: str, args: list[str], *, trace: bool, tag: str) -> Launched:
    """Start ``program`` (campaign or serve) through ``launch.py``."""

    marks = ctx.work / f"{tag}.marks.json"
    stderr_path = ctx.work / f"{tag}.stderr.txt"
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(marks), "1" if trace else "0", program, *args]
    with open(stderr_path, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE, stderr=err, text=True)
    launched = Launched(proc, t0, marks, stderr_path)
    ctx.live.append(launched)
    return launched


def finish(ctx: Ctx, launched: Launched, *, timeout_s: float, terminate: bool = False) -> tuple[dict, str]:
    """Wait for the program (after SIGTERM with ``terminate``); returns its
    launcher report and the rest of its standard output."""

    proc = launched.proc
    if terminate:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{proc.args[4]} did not exit within {timeout_s} s") from None
    finally:
        ctx.live.remove(launched)
    if proc.returncode != 0 or not launched.marks_path.is_file():
        tail = launched.stderr_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{proc.args[4]} exited {proc.returncode}: {tail}")
    report = json.loads(launched.marks_path.read_text())
    launched.marks_path.unlink()
    return report, out


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid``, all threads."""

    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def program_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(root / work)
    return env
