"""The repository benchmark: four end-to-end workloads and a traced pass.

Run it from the repository root with ``python3 -m bench``; see
``bench/README.md``.  The metric catalogue (names, units, directions and
regression bounds) is ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_reaped(command: list[str], **popen_kwargs):
    """Run ``command`` to completion; ``(exit code, wall seconds, rusage)``.

    The child is reaped with ``os.wait4``, so the resource usage covers it
    and every process it started and waited for.  An interrupt kills the
    child, and with ``start_new_session=True`` every process in its group,
    then waits for it before propagating.
    """
    start = time.perf_counter()
    process = subprocess.Popen(command, **popen_kwargs)
    try:
        _, status, usage = os.wait4(process.pid, 0)
    except BaseException:
        if popen_kwargs.get("start_new_session"):
            os.killpg(process.pid, signal.SIGKILL)
        else:
            process.kill()
        process.wait()
        raise
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, time.perf_counter() - start, usage


def load_spec() -> dict:
    """``BENCHMARK.json``, with each metric list turned into a name-keyed dict."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    for kind in ("end_to_end", "per_layer"):
        spec[kind] = {metric["name"]: metric for metric in spec[kind]}
    return spec
