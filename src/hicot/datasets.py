"""Benchmark loading and evaluation-record persistence.

Benchmark files are UTF-8 JSON lines, one problem per line; the records file
is UTF-8 JSON lines, one scored response per line, with an explicit schema
version. Users supply benchmark files; the shipped registry maps the common
benchmark names to their source field names and answer kind.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional

from .judge import AnswerKind, JudgeReason, Judgment
from .prompts import PromptStrategy
from .traces import FormatReport

SCHEMA_VERSION = 1


class DatasetError(Exception):
    """Base class for dataset and record-file failures."""


class MalformedLine(DatasetError):
    def __init__(self, path, line_no: int, detail: str):
        super().__init__(f"{path}:{line_no}: malformed line: {detail}")
        self.line_no = line_no


class MissingField(DatasetError):
    def __init__(self, path, line_no: int, key: str):
        super().__init__(f"{path}:{line_no}: missing field {key!r}")
        self.line_no = line_no
        self.key = key


class DuplicateId(DatasetError):
    def __init__(self, path, line_no: int, problem_id: str):
        super().__init__(f"{path}:{line_no}: duplicate problem id {problem_id!r}")
        self.line_no = line_no
        self.problem_id = problem_id


class IoFailure(DatasetError):
    pass


class SchemaMismatch(DatasetError):
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


@dataclass(frozen=True)
class FieldMap:
    """Names of the source keys carrying the statement and gold answer."""

    statement: str = "problem"
    answer: str = "answer"
    id: Optional[str] = None


@dataclass(frozen=True)
class BenchmarkSpec:
    field_map: FieldMap = FieldMap()
    kind: AnswerKind = AnswerKind.MATH_EXPRESSION


def benchmark_spec(name: str, entry, base: Optional[BenchmarkSpec] = None) -> BenchmarkSpec:
    """BenchmarkSpec from one registry or run-config benchmark entry.

    The keys are ``statement_field``, ``answer_field``, ``id_field`` and
    ``kind``; each one the entry lacks comes from ``base``, else from the
    ``BenchmarkSpec`` defaults. Raises ValueError naming the benchmark when
    the entry is not an object or a key has the wrong type or value.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"benchmark {name!r} must be an object")
    base = base or BenchmarkSpec()
    statement = entry.get("statement_field", base.field_map.statement)
    answer = entry.get("answer_field", base.field_map.answer)
    id_field = entry.get("id_field", base.field_map.id)
    if not isinstance(statement, str) or not isinstance(answer, str):
        raise ValueError(f"benchmark {name!r}: statement_field and answer_field must be strings")
    if id_field is not None and not isinstance(id_field, str):
        raise ValueError(f"benchmark {name!r}: id_field must be a string")
    try:
        kind = AnswerKind(entry.get("kind", base.kind.value))
    except ValueError as exc:
        raise ValueError(f"benchmark {name!r}: {exc}") from None
    return BenchmarkSpec(FieldMap(statement, answer, id_field), kind)


def load_registry(path: Optional[str | Path] = None) -> dict:
    """Benchmark name -> BenchmarkSpec, from ``path`` or the packaged default.

    Each entry is read by ``benchmark_spec``. Raises ValueError when the file
    is not a JSON object or an entry is bad, OSError when it cannot be read.
    """
    if path is None:
        text = resources.files("hicot").joinpath("data", "benchmarks.json").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ValueError("a benchmark registry must be a JSON object")
    return {name: benchmark_spec(name, entry) for name, entry in raw.items()}


def load_dataset(
    path: str | Path,
    benchmark: str,
    field_map: FieldMap,
    kind: AnswerKind,
) -> list:
    """Parse a JSON-lines benchmark file into Problems, preserving file order.

    Ids come from ``field_map.id`` when named and present, else are assigned
    sequentially from 1. Blank lines are skipped. Raises MalformedLine,
    MissingField, or DuplicateId with the offending line number.
    """
    problems = []
    seen_ids = set()
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot open dataset {path}: {exc}") from exc
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(path, line_no, f"not UTF-8: {exc}") from exc
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise MalformedLine(path, line_no, str(exc)) from exc
            if not isinstance(row, dict):
                raise MalformedLine(path, line_no, "expected a JSON object")

            statement = _required(row, field_map.statement, path, line_no)
            answer = _required(row, field_map.answer, path, line_no)
            if field_map.id and field_map.id in row:
                problem_id = str(row[field_map.id])
            else:
                problem_id = str(len(problems) + 1)
            if not problem_id:
                raise MalformedLine(path, line_no, "empty problem id")
            if problem_id in seen_ids:
                raise DuplicateId(path, line_no, problem_id)
            seen_ids.add(problem_id)
            problems.append(
                Problem(
                    id=problem_id,
                    benchmark=benchmark,
                    statement=statement,
                    gold_answer=answer,
                    kind=kind,
                )
            )
    return problems


def _required(row: dict, key: str, path, line_no: int) -> str:
    if key not in row:
        raise MissingField(path, line_no, key)
    value = str(row[key])
    if not value.strip():
        raise MalformedLine(path, line_no, f"field {key!r} is empty")
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
    token_source: str
    judgment: Judgment
    format_report: FormatReport
    compliant: bool
    timestamp: str = ""
    client_error: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def key(self) -> tuple:
        return (self.problem_id, self.benchmark, self.model_id, self.strategy.value)

    def to_dict(self) -> dict:
        return to_json_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EvalRecord":
        """Inverse of ``to_dict``; absent keys take the field defaults, and an
        unknown key or a wrongly typed nested object raises TypeError."""
        judgment = data["judgment"]
        return cls(
            **{
                **data,
                "strategy": PromptStrategy(data["strategy"]),
                "judgment": Judgment(**{**judgment, "reason": JudgeReason(judgment["reason"])}),
                "format_report": FormatReport(**data["format_report"]),
            }
        )


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_json_dict(obj) -> dict:
    """The JSON form of a record dataclass: its fields in declaration order.

    Enums become their values, nested dataclasses dicts and tuples lists.
    Unlike ``dataclasses.asdict`` it copies no value, which keeps encoding a
    record line several times cheaper; plain scalars, most fields, skip the
    type checks.
    """
    data = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if type(value) not in _JSON_SCALARS:
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            elif is_dataclass(value):
                value = to_json_dict(value)
        data[f.name] = value
    return data


def now_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _record_line(record: EvalRecord) -> str:
    return json.dumps(record.to_dict(), ensure_ascii=False, sort_keys=True)


def _parse_record_line(line: str, path, line_no: int) -> EvalRecord:
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise SchemaMismatch(path, line_no, f"corrupted record line: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaMismatch(path, line_no, "record line is not a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(path, line_no, f"unknown record version {version!r}")
    try:
        return EvalRecord.from_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaMismatch(path, line_no, f"bad record: {exc}") from exc


def write_records(records: Iterable[EvalRecord], path: str | Path) -> None:
    """Write records as JSON lines (overwrites ``path``)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(_record_line(record) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write records to {path}: {exc}") from exc


def read_records(path: str | Path) -> list:
    """Read a records file strictly; any corrupt line raises SchemaMismatch."""
    records = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read records from {path}: {exc}") from exc
    with fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                records.append(_parse_record_line(line, path, line_no))
        except UnicodeDecodeError:  # the decoder reads ahead of the lines: find the one
            _raise_at_line_not_utf8(path)
            raise
    return records


def _raise_at_line_not_utf8(path) -> None:
    """Raise SchemaMismatch at the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaMismatch(path, line_no, f"not UTF-8: {exc}") from None


def load_resumable(path: str | Path) -> list:
    """Read records for resume, first cutting off a torn tail.

    A record survives a killed process once ``RecordWriter.append`` has written
    it with its newline, and a power loss once the run next waits or ends
    (``RecordWriter.sync``). A run killed mid-append can leave bytes after the
    last newline: part of a record, perhaps cut inside a UTF-8 character, or a
    whole record whose newline never landed. Those bytes are truncated away; a
    file that ends in a newline is left untouched. The rest is read by
    ``read_records``, so corruption anywhere else still raises SchemaMismatch.
    A record lost this way is scored again from its cached completion.
    """
    try:
        with open(path, "rb") as fh:
            keep = fh.read().rfind(b"\n") + 1
            size = fh.tell()
        if keep < size:
            os.truncate(path, keep)
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise IoFailure(f"cannot read records from {path}: {exc}") from exc
    return read_records(path)


class RecordWriter:
    """Append-only records writer; safe for use from many worker threads.

    ``append`` writes and flushes each line, so a killed process loses at most
    a torn last line. Durability across a power loss is a separate step:
    ``sync`` makes every line appended so far durable with one ``os.fsync``
    (a group commit), and ``close`` syncs before it closes the file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._unsynced = False
        try:
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot open records file {path}: {exc}") from exc

    def append(self, record: EvalRecord) -> None:
        line = _record_line(record) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            self._unsynced = True

    def sync(self) -> None:
        """fsync the lines appended since the last sync; a no-op if there are none."""
        with self._lock:
            if self._unsynced:
                os.fsync(self._fh.fileno())
                self._unsynced = False

    def close(self) -> None:
        try:
            self.sync()
        finally:
            with self._lock:
                self._fh.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
