"""Benchmark loading and evaluation-record persistence.

Benchmark files are UTF-8 JSON lines, one problem per line; the records file
is UTF-8 JSON lines, one scored response per line, with an explicit schema
version. Users supply benchmark files; the shipped registry maps the common
benchmark names to their source field names and answer kind.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Optional, get_args, get_origin, get_type_hints

from .judge import AnswerKind, Judgment, _parse_int, normalize_math
from .prompts import PromptStrategy
from .traces import FormatReport

SCHEMA_VERSION = 1


class DatasetError(Exception):
    """Base class for dataset and record-file failures."""


class MalformedLine(DatasetError):
    """A line of a benchmark or records file that cannot be read: ``path:line: detail``."""

    def __init__(self, path, line_no: int, detail: str):
        super().__init__(f"{path}:{line_no}: {detail}")
        self.line_no = line_no


class IoFailure(DatasetError):
    pass


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
    raw = json.loads(text, object_pairs_hook=unique_keys)
    if not isinstance(raw, dict):
        raise ValueError("a benchmark registry must be a JSON object")
    return {
        name: from_json_dict(BenchmarkSpec, entry, f"benchmark {name!r}")
        for name, entry in raw.items()
    }


def unique_keys(pairs: list) -> dict:
    """The ``object_pairs_hook`` that reads a JSON object into a dict, refusing a
    key repeated in it (plain ``json.loads`` keeps the last value) with ValueError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"an object repeats the key {key!r}")
        data[key] = value
    return data


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
        if kind is AnswerKind.INTEGER_EXACT and _parse_int(problem.gold_normalized) is None:
            detail = f"field {field_map.answer!r} is not an integer: {answer!r}"
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
    try:
        fh = open(path, "rb", buffering=_READ_BUFFER)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(path, line_no, f"not UTF-8: {exc}") from None
            if line.isspace():
                continue
            try:
                value = json.loads(line)
            except ValueError as exc:
                raise MalformedLine(path, line_no, f"not JSON: {exc}") from exc
            if not isinstance(value, dict):
                raise MalformedLine(path, line_no, "not a JSON object")
            yield line_no, value


def _text(row: dict, key: str, path, line_no: int) -> str:
    """``row[key]``: a JSON string that is not blank, or a number, as text."""
    if key not in row:
        raise MalformedLine(path, line_no, f"missing field {key!r}")
    value = row[key]
    if type(value) is bool or not isinstance(value, (str, int, float)):
        raise MalformedLine(path, line_no, f"field {key!r} must be a string or a number")
    value = str(value)
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


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_json_dict(obj) -> dict:
    """The JSON form of a record dataclass: its fields in declaration order.

    Enums become their values, nested dataclasses dicts and tuples lists.
    Unlike ``dataclasses.asdict`` it copies no value, which keeps encoding a
    record line several times cheaper; plain scalars, most fields, skip the
    type checks.
    """
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    data = {}
    for name in names:
        value = getattr(obj, name)
        if type(value) not in _JSON_SCALARS:
            if isinstance(value, Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            elif is_dataclass(value):
                value = to_json_dict(value)
        data[name] = value
    return data


class JsonMismatch(ValueError):
    """JSON that does not fit the dataclass it is read into: not an object, an
    unknown or missing key, a value of the wrong type, or one the class refuses."""


def from_json_dict(cls, data, where: str, base=None):
    """The dataclass ``cls`` from the JSON object ``data``: the inverse of ``to_json_dict``.

    A key that ``data`` lacks takes the value of the same field of ``base``, if
    it has one, else the field default. Nested dataclasses are read likewise,
    lists and fixed-length tuples item by item, an Enum by its constructor and a
    Path from a non-empty string; a boolean is never a number, and a float is
    finite. Any other value, or a required key that is missing, raises
    JsonMismatch naming its key below ``where``; the ``ValueError`` of a
    ``__post_init__`` check begins with the field it refuses.
    """
    if not isinstance(data, dict):
        raise JsonMismatch(f"{where} must be an object")
    readers = _READERS.get(cls)
    if readers is None:  # built once per class: ``(passes, read)`` per field, see ``_reader``
        _CONSTRUCTORS[cls] = _constructor(cls)  # first: a class with readers has one
        hints = get_type_hints(cls)
        readers = _READERS[cls] = {f.name: _reader(hints[f.name]) for f in fields(cls)}
    values = {} if base is None else {k: getattr(base, k) for k in readers if hasattr(base, k)}
    for key, value in data.items():
        try:
            passes, read = readers[key]
        except KeyError:
            raise JsonMismatch(f"{where}.{key} is not a known key") from None
        if type(value) not in passes:
            inherited = None if base is None else getattr(base, key, None)
            value = read(value, f"{where}.{key}", inherited)
        values[key] = value
    required, build = _CONSTRUCTORS[cls]
    if len(values) < len(readers):  # a key is absent: it must have a default
        for name in required:
            if name not in values:
                raise JsonMismatch(f"{where}.{name} is missing")
    try:
        return build(values)
    except ValueError as exc:
        raise JsonMismatch(f"{where}.{exc}") from exc


# Built once per class, on its first encode or decode.
_FIELD_NAMES: dict = {}  # dataclass -> its field names, in declaration order
_READERS: dict = {}  # dataclass -> {field name: its reader}
_CONSTRUCTORS: dict = {}  # dataclass -> (its required field names, ``build(values)``)


def _constructor(cls) -> tuple:
    """``(required, build)`` for the dataclass ``cls``: the fields a JSON object
    must name, and ``build(values)``, the instance from a dict of field values.

    Where the generated ``__init__`` would only assign (no ``__post_init__``,
    ``default_factory``, ``init=False`` field or ``__slots__``), ``build`` skips
    it, as ``copy`` and ``pickle`` do: it fills a bare instance's ``__dict__``
    in field order, taking absent fields from their defaults. That is several
    times cheaper than a frozen ``__init__``, which sets each field through
    ``object.__setattr__``. Any other class is called, so its checks run.
    """
    cls_fields = fields(cls)
    required = tuple(
        f.name
        for f in cls_fields
        if f.init and f.default is MISSING and f.default_factory is MISSING
    )
    if (
        hasattr(cls, "__post_init__")
        or hasattr(cls, "__slots__")
        or any(not f.init or f.default_factory is not MISSING for f in cls_fields)
    ):  # the generated ``__init__`` does more than assign
        return required, lambda values: cls(**values)
    defaults = {f.name: f.default for f in cls_fields}

    def build(values: dict):
        obj = object.__new__(cls)
        state = obj.__dict__
        state.update(defaults)  # every field, in field order
        state.update(values)  # a key already set keeps its place
        return obj

    return required, build


# The field types a JSON value of the same type passes as it is.
_JSON_NAMES = {bool: "true or false", int: "an integer", str: "a string", dict: "an object"}


def _reader(hint) -> tuple:
    """``(passes, read)`` for a field of type ``hint``: a value whose type is in
    ``passes`` is taken as it is, any other goes through ``read(value, where, base)``."""
    args = get_args(hint)
    if type(None) in args:  # Optional[X]
        passes, read = _reader(args[0])
        return passes | {type(None)}, read
    if get_origin(hint) in (list, tuple):
        return frozenset(), partial(_read_array, get_origin(hint), [_reader(a) for a in args])
    if is_dataclass(hint):
        return frozenset(), partial(from_json_dict, hint)
    if hint in _JSON_NAMES:
        return frozenset({hint}), partial(_convert, hint)
    if issubclass(hint, Enum):
        return frozenset(), partial(_read_enum, hint, {member.value: member for member in hint})
    if hint in (float, Path):
        return frozenset(), partial(_convert, hint)
    raise TypeError(f"no JSON reader for a field of type {hint!r}")


def _read_array(origin, items: list, value, where: str, base):
    """A list (``items`` holds the one item reader) or a fixed-length tuple (one
    reader per item) from a JSON array."""
    if not isinstance(value, list) or (origin is tuple and len(value) != len(items)):
        count = f" of {len(items)} values" if origin is tuple else ""
        raise JsonMismatch(f"{where} must be a list{count}")
    readers = items if origin is tuple else items * len(value)
    values = []
    for i, (item, (passes, read)) in enumerate(zip(value, readers)):
        values.append(item if type(item) in passes else read(item, f"{where}[{i}]", None))
    return origin(values)


def _read_enum(hint, members: dict, value, where: str, base):
    """The member of the Enum ``hint`` whose value is ``value``, found in
    ``members``; any other value, such as another spelling that the class
    accepts, goes through ``_convert``."""
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: a list or an object is not hashable
        return _convert(hint, value, where, base)


def _convert(hint, value, where: str, base):
    """``value`` read as a ``hint``: a finite float, a Path or an Enum; a value of
    any other field type here has the wrong JSON type."""
    if hint in _JSON_NAMES:
        raise JsonMismatch(f"{where} must be {_JSON_NAMES[hint]}")
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise JsonMismatch(f"{where} must be a number")
        try:
            value = float(value)
        except OverflowError as exc:
            raise JsonMismatch(f"{where} is too large") from exc
        if not math.isfinite(value):  # JSON NaN, Infinity, or a literal like 1e400
            raise JsonMismatch(f"{where} must be a finite number")
        return value
    if hint is Path:
        if not isinstance(value, str) or not value:
            raise JsonMismatch(f"{where} must be a non-empty string")
        return Path(value)
    try:  # an Enum, by its value
        return hint(value)
    except ValueError as exc:
        raise JsonMismatch(f"{where}: {exc}") from exc


def now_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _record_line(record: EvalRecord) -> str:
    return json.dumps(record.to_dict(), ensure_ascii=False, sort_keys=True)


def write_records(records: Iterable[EvalRecord], path: str | Path) -> None:
    """Write records as JSON lines (overwrites ``path``)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(_record_line(record) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write records to {path}: {exc}") from exc


def iter_records(path: str | Path) -> Iterator[EvalRecord]:
    """The records of a records file, read one line at a time, in file order; a
    line that is not a record of this schema version raises MalformedLine."""
    for line_no, data in _json_lines(path):
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise MalformedLine(path, line_no, f"unknown record version {version!r}")
        try:
            record = from_json_dict(EvalRecord, data, "record")
        except JsonMismatch as exc:
            raise MalformedLine(path, line_no, str(exc)) from exc
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
    except OSError as exc:
        raise IoFailure(f"cannot read records from {path}: {exc}") from exc
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
        try:
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot open records file {path}: {exc}") from exc

    def append(self, record: EvalRecord) -> None:
        self._fh.write(_record_line(record) + "\n")
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
