"""Benchmark loading and evaluation-record persistence.

Benchmark files are UTF-8 JSON lines, one problem per line; the records file
is UTF-8 JSON lines, one scored response per line, with an explicit schema
version. Users supply benchmark files; the shipped registry maps the common
benchmark names to their source field names and answer kind.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .client import LONE_SURROGATE, TOKEN_COUNT_BOUND, TokenSource
from .codec import JsonMismatch, from_json_dict, parse_json, to_json_line
from .judge import AnswerKind, Judgment, normalize_math, parse_int
from .prompts import PromptStrategy
from .traces import FormatReport

SCHEMA_VERSION = 1


class MalformedLine(ValueError):
    """A line of a benchmark or records file that cannot be read: ``path:line: detail``."""

    def __init__(self, path, line_no: int, detail: str):
        super().__init__(f"{path}:{line_no}: {detail}")
        self.line_no = line_no


@dataclass(frozen=True)
class Problem:
    """One benchmark item."""

    id: str
    benchmark: str
    statement: str
    gold_answer: str
    kind: AnswerKind

    @cached_property
    def gold_normalized(self) -> str:
        """``gold_answer`` through ``normalize_math``, worked out once per problem."""
        return normalize_math(self.gold_answer)


@dataclass(frozen=True)
class FieldMap:
    """Names of the source keys carrying the statement, the gold answer and the id."""

    statement: str
    answer: str
    id: Optional[str] = None


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark registry entry; its fields are the entry's keys."""

    statement_field: str = "problem"
    answer_field: str = "answer"
    id_field: Optional[str] = None
    kind: AnswerKind = AnswerKind.MATH_EXPRESSION

    @property
    def field_map(self) -> FieldMap:
        return FieldMap(self.statement_field, self.answer_field, self.id_field)


def load_registry(path: Optional[str | Path] = None) -> dict:
    """Benchmark name -> BenchmarkSpec, from ``path`` or the packaged default.

    Each entry is read by ``from_json_dict``. Raises ValueError when the file
    is not a JSON object or an entry is bad, OSError when it cannot be read.
    """
    if path is None:
        text = resources.files("hicot").joinpath("data", "benchmarks.json").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    try:
        raw = parse_json(text, unique=True)
    except ValueError as exc:
        raise ValueError(f"not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("a benchmark registry must be a JSON object")
    return {
        name: from_json_dict(BenchmarkSpec, entry, f"benchmark {name!r}")
        for name, entry in raw.items()
    }


def load_dataset(
    path: str | Path,
    benchmark: str,
    field_map: FieldMap,
    kind: AnswerKind,
) -> list:
    """Parse a JSON-lines benchmark file into Problems, preserving file order.

    Ids come from ``field_map.id`` when named and present, else are assigned
    sequentially from 1. Blank lines are skipped. A line that cannot be read,
    lacks a field, repeats an id, or (for ``INTEGER_EXACT``) has a gold answer
    the judge cannot read as an integer raises MalformedLine.
    """
    problems = []
    seen_ids = set()
    for line_no, row in _json_lines(path):
        statement = _text(row, field_map.statement, path, line_no)
        answer = _text(row, field_map.answer, path, line_no)
        if field_map.id and field_map.id in row:
            problem_id = _text(row, field_map.id, path, line_no)
        else:
            problem_id = str(len(problems) + 1)
        problem = Problem(problem_id, benchmark, statement, answer, kind)
        if kind is AnswerKind.INTEGER_EXACT and parse_int(problem.gold_normalized) is None:
            shown = repr(answer)
            if len(answer) > 20:  # a long gold is named by its head and length
                shown = f"{answer[:20]!r}... ({len(answer)} characters)"
            detail = f"field {field_map.answer!r} is not an integer: {shown}"
            raise MalformedLine(path, line_no, detail)
        if problem_id in seen_ids:
            raise MalformedLine(path, line_no, f"duplicate problem id {problem_id!r}")
        seen_ids.add(problem_id)
        problems.append(problem)
    return problems


# The read buffer of ``_json_lines``. A line longer than the buffer is read in
# pieces and joined, and a record holding a Hi-CoT trace runs to 10-100 KB.
_READ_BUFFER = 1 << 18


def _json_lines(path):
    """``(line_no, object)`` for each non-blank line of the UTF-8 JSON-lines file
    ``path``; a line that is not UTF-8, not JSON or not an object raises MalformedLine."""
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(path, line_no, f"not UTF-8: {exc}") from None
            if line.isspace():
                continue
            try:
                value = parse_json(line)
            except ValueError as exc:
                raise MalformedLine(path, line_no, f"not JSON: {exc}") from exc
            if not isinstance(value, dict):
                raise MalformedLine(path, line_no, "not a JSON object")
            yield line_no, value


def _text(row: dict, key: str, path, line_no: int) -> str:
    """``row[key]``: a JSON string that is not blank and holds no lone surrogate,
    or a number, as text."""
    if key not in row:
        raise MalformedLine(path, line_no, f"missing field {key!r}")
    value = row[key]
    if type(value) is bool or not isinstance(value, (str, int, float)):
        raise MalformedLine(path, line_no, f"field {key!r} must be a string or a number")
    value = str(value)
    if not value.strip():
        raise MalformedLine(path, line_no, f"field {key!r} is empty")
    # No UTF-8 cache key or record line can hold a lone surrogate; ASCII text skips the scan.
    if not value.isascii() and LONE_SURROGATE.search(value):
        raise MalformedLine(path, line_no, f"field {key!r} holds a lone surrogate")
    return value


@dataclass(frozen=True)
class EvalRecord:
    """One scored model response to one benchmark problem.

    Exactly one record per (problem_id, benchmark, model_id, strategy) may
    exist in a run output; ``client_error`` is set (and the judgment is a
    no-answer miss) when the completion could not be obtained.
    """

    problem_id: str
    benchmark: str
    model_id: str
    strategy: PromptStrategy
    completion_text: str
    completion_tokens: int
    token_source: TokenSource
    judgment: Judgment
    format_report: FormatReport
    compliant: bool
    timestamp: str = ""
    client_error: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def key(self) -> tuple:
        return record_key(self.problem_id, self.benchmark, self.model_id, self.strategy)


def record_key(problem_id: str, benchmark: str, model_id: str, strategy: PromptStrategy) -> tuple:
    """The uniqueness key of the record of one (problem, benchmark, model, strategy)."""
    return (problem_id, benchmark, model_id, strategy.value)


def now_timestamp() -> str:
    """The current UTC time as ISO 8601 to the second, as
    ``datetime.now(timezone.utc).isoformat(timespec="seconds")`` writes it."""
    # ``time.time()``, not ``gmtime()``'s own coarser clock, which can lag ``datetime.now``.
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time()))


def _record_line(record: EvalRecord, text_json: Optional[str] = None) -> str:
    """The JSON line of ``record``, newline included. ``text_json``, when given, is
    the JSON literal of its ``completion_text``, which the line copies; when it
    is None, the text is encoded here."""
    return to_json_line(record, "completion_text", text_json)


def write_records(records: Iterable[EvalRecord], path: str | Path) -> None:
    """Write records as JSON lines (overwrites ``path``)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_record_line(record))


def iter_records(path: str | Path) -> Iterator[EvalRecord]:
    """The records of a records file, read one line at a time, in file order; a
    line that is not a record of this schema version, or whose token count is not
    below ``TOKEN_COUNT_BOUND``, raises MalformedLine."""
    for line_no, data in _json_lines(path):
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise MalformedLine(path, line_no, f"unknown record version {version!r}")
        try:
            record = from_json_dict(EvalRecord, data, "record")
        except JsonMismatch as exc:
            raise MalformedLine(path, line_no, str(exc)) from exc
        if record.completion_tokens >= TOKEN_COUNT_BOUND:  # no fold could average it
            raise MalformedLine(path, line_no, "record.completion_tokens is not below 2**53")
        yield record


def read_records(path: str | Path) -> list:
    """Every record of a records file, read strictly by ``iter_records``."""
    return list(iter_records(path))


def load_resumable(path: str | Path) -> Iterator[EvalRecord]:
    """The records of ``path`` for resume, after cutting off a torn tail.

    A record survives a killed process once ``RecordWriter.append`` has written
    it with its newline, and a power loss once the run next waits or ends
    (``RecordWriter.sync``). A run killed mid-append can leave bytes after the
    last newline: part of a record, perhaps cut inside a UTF-8 character, or a
    whole record whose newline never landed. Those bytes are truncated away,
    found by a search back from the end of the file; a file that ends in a
    newline is left untouched. The rest is read by ``iter_records``, so
    corruption anywhere else still raises MalformedLine. A missing file has no
    records. A record lost this way is scored again from its cached completion.
    Like any generator, this does nothing until the first record is asked for.
    """
    import mmap  # only a resumed run loads it, so score and report start without it

    try:
        with open(path, "rb") as fh:
            size = keep = os.fstat(fh.fileno()).st_size
            if size:  # an empty file cannot be mapped
                with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
                    keep = view.rfind(b"\n") + 1
        if keep < size:
            os.truncate(path, keep)
    except FileNotFoundError:
        return
    yield from iter_records(path)


class RecordWriter:
    """Append-only records writer.

    ``append`` writes and flushes each line, so a killed process loses at most
    a torn last line. Durability across a power loss is a separate step:
    ``sync`` makes every line appended so far durable with one ``os.fsync``
    (a group commit), and ``close`` syncs before it closes the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._unsynced = False
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, record: EvalRecord, text_json: Optional[str] = None) -> None:
        """Write ``record`` as one line. ``text_json``, when given, must be
        ``json.dumps(record.completion_text, ensure_ascii=False)``, which the line
        copies, as ``ChatClient.cached`` and ``fetch`` return it."""
        self._fh.write(_record_line(record, text_json))
        self._fh.flush()
        self._unsynced = True

    def sync(self) -> None:
        """fsync the lines appended since the last sync; a no-op if there are none."""
        if self._unsynced:
            os.fsync(self._fh.fileno())
            self._unsynced = False

    def close(self) -> None:
        try:
            self.sync()
        finally:
            self._fh.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
