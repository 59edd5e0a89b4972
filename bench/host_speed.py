"""A fixed reference task that gauges how fast the host runs Python right now.

The benchmark runs on a shared VM whose speed drifts by a fifth or more over
minutes, as other tenants load the host: a fixed pure-Python loop's 20-second
medians moved between 8.6 and 12.0 ms within ten minutes on a 2-core x86 VM,
and the harness's passes sped up and slowed down with it. So the benchmark
times this task right before every timed step and scales that step's time to
the host speed at which the task takes ``REFERENCE_S``.

The task uses the standard library only, never the harness, so a change to
the harness cannot move it: a faster harness reads faster, a faster host does
not. It mixes the kinds of work the harness does (a character loop over
braces, a JSON round trip, a regular expression and a sort) and runs with the
garbage collector off, so that it does not pay for the harness's garbage.
"""

from __future__ import annotations

import gc
import json
import re
import time

# The task's wall time on a quiet 2-core x86 VM with Python 3.11: scaled
# values read about as the raw ones would on that host when it is idle.
REFERENCE_S = 0.02

_TEXT = "".join("x{y}z " * 3 + "{" if i % 7 == 0 else "abc}def " for i in range(4000))
_DOC = [{"id": i, "text": f"word {i} " * 8, "vals": list(range(i % 13))} for i in range(600)]
_GROUP_RE = re.compile(r"\{(\w+)\}")
_ROUNDS = 4


def _task() -> int:
    depth = 0
    for c in _TEXT:
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
    doc = json.loads(json.dumps(_DOC))
    found = _GROUP_RE.findall(_TEXT)
    return depth + len(doc) + len(found) + len(sorted(_TEXT[:5000]))


def measure() -> tuple:
    """(wall s, CPU s) of one run of the reference task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for _ in range(_ROUNDS):
            _task()
        return time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()
