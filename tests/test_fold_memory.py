"""Memory of score, report and resume: records are folded, not held.

Each command runs under ``tracemalloc`` over a records file of N and then 4N
records of about 8 KB of completion text each. A command that kept its
records, completion text included, would peak above the size of the file; one
that folds each record keeps only its key and its outcome, so at 4N its peak
stays under a tenth of the file. Records that large hide what each key costs,
so a last gate counts the bytes the fold holds per key.
"""

import shutil
import tracemalloc

import pytest

from hicot.cli import cmd_report, cmd_score
from hicot.datasets import EvalRecord, load_resumable, write_records
from hicot.judge import JudgeReason, Judgment
from hicot.metrics import TableFormat, Tally
from hicot.prompts import PromptStrategy
from hicot.traces import FormatReport

N = 500
TEXT_BYTES = 8000
PEAK_SHARE = 0.10
# A Tally of KEYS records held 133.5 B per key (126-137 B from 2,500 to 40,000
# records; CPython 3.11), and 166 B with a tuple for each outcome.
KEYS = 10_000
KEY_BYTES = 150


def _records(count: int, text_bytes: int = TEXT_BYTES):
    strategies = list(PromptStrategy)
    for i in range(count):
        correct = i % 3 != 0
        yield EvalRecord(
            problem_id=str(i),
            benchmark=f"bench{i % 4}",
            model_id=f"model{i % 2}",
            strategy=strategies[i % len(strategies)],
            completion_text=f"{i}: " + "step " * (text_bytes // 5) + f"\\boxed{{{i}}}",
            completion_tokens=2000 + i,
            token_source="api_usage",
            judgment=Judgment(str(i), str(i), correct, JudgeReason.MATCH),
            format_report=FormatReport(True, True, True, True, 2, 2),
            compliant=i % 5 != 0,
            timestamp="2026-08-08T00:00:00+00:00",
        )


@pytest.fixture(scope="module")
def records_files(tmp_path_factory):
    """Records files of N and 4N records, by count."""
    root = tmp_path_factory.mktemp("fold_memory")
    paths = {}
    for count in (N, 4 * N):
        paths[count] = root / f"records_{count}.jsonl"
        write_records(_records(count), paths[count])
    return paths


def _peak(fn, *args) -> int:
    """The peak of traced Python memory while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_folded(peaks: dict, paths: dict) -> None:
    """At 4N the peak is under ``PEAK_SHARE`` of the file, and so is what the
    3N records more add to it."""
    sizes = {count: path.stat().st_size for count, path in paths.items()}
    assert peaks[4 * N] < PEAK_SHARE * sizes[4 * N], (peaks, sizes)
    assert peaks[4 * N] - peaks[N] < PEAK_SHARE * (sizes[4 * N] - sizes[N]), (peaks, sizes)


def test_score_folds_the_records(records_files):
    peaks = {count: _peak(cmd_score, path) for count, path in records_files.items()}
    _assert_folded(peaks, records_files)


def test_report_folds_the_records(records_files, tmp_path):
    peaks = {
        count: _peak(cmd_report, path, TableFormat.MARKDOWN, tmp_path / str(count))
        for count, path in records_files.items()
    }
    _assert_folded(peaks, records_files)


def test_resume_folds_the_records(records_files, tmp_path):
    peaks = {}
    for count, source in records_files.items():
        path = tmp_path / source.name
        shutil.copyfile(source, path)
        with open(source, "rb") as src, open(path, "ab") as fh:
            fh.write(src.read(TEXT_BYTES))  # a torn tail, as a killed append leaves it
        peaks[count] = _peak(lambda: Tally(load_resumable(path)))
        assert path.read_bytes() == source.read_bytes()
    _assert_folded(peaks, records_files)


def test_tally_holds_one_compact_outcome_per_key():
    # The records exist before tracing starts, so only what the fold adds counts.
    records = list(_records(KEYS, text_bytes=0))
    tracemalloc.start()
    try:
        tally = Tally(records)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tally.outcomes) == KEYS
    assert held / KEYS < KEY_BYTES, held / KEYS
