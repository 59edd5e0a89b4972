"""Memory of a cold ``run``: a completion is not held past its record.

``cmd_run`` runs under ``tracemalloc`` on a cold grid of N and then 4N items,
each answered by the stub with about 8 KB of completion text, after a small
grid has loaded the modules a run imports. A run that kept every fetched
completion until the grid ended (in its futures, or in a table of fetches by
cache key) grows by more than the completion bytes it adds. One that lets
each go once its record is appended grows by the state it queues per item
before the first record: a ``Future`` (about 1.6 KB) and a request, about a
third of a completion here, so the bound is half.
"""

import json
import tracemalloc

from hicot.cli import cmd_run, load_run_config

from stub_server import StubReply

N = 100
TEXT_BYTES = 8000
GROWTH_SHARE = 0.5


def _responder(payload: dict) -> StubReply:
    """A distinct completion of about ``TEXT_BYTES`` per problem."""
    problem = payload["messages"][-1]["content"].rsplit("Problem ", 1)[-1]
    return StubReply(f"{problem}: " + "step " * (TEXT_BYTES // 5) + "\\boxed{1}")


def _config(root, base_url: str, count: int):
    dataset = root / "bench.jsonl"
    rows = (json.dumps({"problem": f"Problem {i}", "answer": "1"}) for i in range(count))
    dataset.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    config = {
        "endpoint": {"base_url": base_url, "max_attempts": 1, "timeout_s": 30},
        "models": ["m"],
        "strategies": ["cot"],
        "benchmarks": {"bench": {"path": str(dataset)}},
        "concurrency": 2,
        "output_dir": str(root / "out"),
    }
    path = root / "run_config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return load_run_config(path)


def _peak(config) -> int:
    """The peak of traced Python memory while ``cmd_run(config)`` runs."""
    tracemalloc.start()
    try:
        cmd_run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_run_lets_each_completion_go(tmp_path, make_stub):
    stub = make_stub(_responder, delay_s=0.001)
    peaks = {}
    for count in (N // 10, N, 4 * N):  # the first only loads modules
        root = tmp_path / str(count)
        root.mkdir()
        peaks[count] = _peak(_config(root, stub.base_url, count))
    assert stub.total_requests == N // 10 + 5 * N  # every item fetched: each grid ran cold
    added = 3 * N * TEXT_BYTES
    assert peaks[4 * N] - peaks[N] < GROWTH_SHARE * added, (peaks, added)
