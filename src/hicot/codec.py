"""The JSON codec: ``parse_json`` parses every JSON text the package reads, and
``to_json_dict`` and ``from_json_dict`` map dataclasses to JSON objects and back
for every schema (the run config, benchmark registry entries, records and cache
entries). It imports nothing from the package."""

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints


def parse_json(text, unique: bool = False):
    """``json.loads(text)``, except that JSON nested too deep to parse raises
    ValueError like any other malformed JSON. With ``unique``, an object that
    repeats a key raises ValueError too; plain ``json.loads`` keeps its last value.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys) if unique else json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"nested too deep to parse ({exc})") from None


def _unique_keys(pairs: list) -> dict:
    """The ``object_pairs_hook`` of ``parse_json(text, unique=True)``: a JSON
    object as a dict, refusing a repeated key with ValueError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"an object repeats the key {key!r}")
        data[key] = value
    return data


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


def from_json_dict(cls, data, where: str):
    """The dataclass ``cls`` from the JSON object ``data``: the inverse of ``to_json_dict``.

    It reads only ``data``: a key that ``data`` lacks takes its field default,
    and no other value. Nested dataclasses are read likewise, lists and
    fixed-length tuples item by item, an Enum by its constructor and a Path
    from a non-empty string; a boolean is never a number, and a float is
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
    values = {}
    for key, value in data.items():
        try:
            passes, read = readers[key]
        except KeyError:
            raise JsonMismatch(f"{where}.{key} is not a known key") from None
        values[key] = value if type(value) in passes else read(value, f"{where}.{key}")
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
    ``passes`` is taken as it is, any other through ``read(value, where)``; an
    absent key of a nested dataclass takes its field default."""
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


def _read_array(origin, items: list, value, where: str):
    """A list (``items`` holds the one item reader) or a fixed-length tuple (one
    reader per item) from a JSON array."""
    if not isinstance(value, list) or (origin is tuple and len(value) != len(items)):
        count = f" of {len(items)} values" if origin is tuple else ""
        raise JsonMismatch(f"{where} must be a list{count}")
    readers = items if origin is tuple else items * len(value)
    values = []
    for i, (item, (passes, read)) in enumerate(zip(value, readers)):
        values.append(item if type(item) in passes else read(item, f"{where}[{i}]"))
    return origin(values)


def _read_enum(hint, members: dict, value, where: str):
    """The member of the Enum ``hint`` whose value is ``value``, found in
    ``members``; any other value, such as another spelling that the class
    accepts, goes through ``_convert``."""
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: a list or an object is not hashable
        return _convert(hint, value, where)


def _convert(hint, value, where: str):
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
