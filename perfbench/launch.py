"""Run one program through its public entry point and report what it cost.

    python3 perfbench/launch.py MARKS_JSON TRACE campaign|serve [PROGRAM ARGS...]

Calls ``polygraphmr.campaign.main`` or ``polygraphmr.serve.main`` with the
program arguments, in this process, after installing the probes of
:mod:`probes` (``TRACE`` 1: every layer; 0: only the campaign's first-trial
and loop-end marks).  On exit it writes ``MARKS_JSON``: the marks, the spans,
the peak resident memory, and the program's exit code.  ``src`` must be on
``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys

import probes


def peak_rss_kb() -> int:
    """This process's peak resident set (``VmHWM``).  Not ``ru_maxrss``,
    which on Linux keeps the peak of the process image before ``exec`` —
    here, the benchmark's own."""

    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    marks_path, trace, program, args = argv[0], argv[1] == "1", argv[2], argv[3:]
    rec = probes.Recorder()
    if program == "campaign":
        from polygraphmr import campaign

        probes.install_campaign(rec, trace=trace)
        entry = campaign.main
    elif program == "serve":
        from polygraphmr import serve

        if trace:
            probes.install_serve(rec)
        entry = serve.main
    else:
        raise SystemExit(f"unknown program {program!r}")
    code = 1
    try:
        code = entry(args)
    finally:
        report = {
            "exit": code,
            "marks": rec.marks,
            "spans": rec.spans,
            "peak_rss_kb": peak_rss_kb(),
        }
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
