"""The JSON codec: ``parse_json`` parses every JSON text the package reads, and
``to_json_dict`` and ``from_json_dict`` map dataclasses to JSON objects and back
for every schema (the run config, benchmark registry entries, records and cache
entries); ``to_json_line`` writes a dataclass as one sorted JSON line. A plain
record class, one whose ``__init__`` would only assign, is read by a reader
compiled from its fields, and a class of str, int, bool, Enum and nested such
fields is written by a writer compiled from its fields, each once per class, at
its first use. Any object the reader does not take is read by the one loop that
fills defaults and names errors, and builds it through its class, and any the
writer does not take is written by ``to_json_dict`` and ``json.dumps``. It
imports nothing from the package."""

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints


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


def to_json_line(obj, spliced: Optional[str] = None, literal: Optional[str] = None) -> str:
    """``json.dumps(to_json_dict(obj), ensure_ascii=False, sort_keys=True)`` and a
    newline. ``literal``, when given, must be ``json.dumps(value,
    ensure_ascii=False)`` of the str field named ``spliced``, which the
    compiled writer copies instead of encoding that value again.

    A class whose fields are str, int, bool, an Enum or a nested such dataclass,
    or Optional ones, is written by its compiled writer (see ``_compile_writer``),
    which takes an object whose every value is of its field's own type. Any
    other object (a str in an Enum field, a bool in an int field, a subclass)
    is written by ``to_json_dict`` and ``json.dumps``.
    """
    key = (type(obj), spliced)
    try:
        write = _WRITERS[key]
    except KeyError:
        write = _prepare_writer(key)
    if write is not None:
        line = write(obj, literal)
        if line is not _MISS:
            return line
    return json.dumps(to_json_dict(obj), ensure_ascii=False, sort_keys=True) + "\n"


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

    A class whose ``__init__`` would only assign (see ``_fills_without_init``)
    is read first by its compiled reader (see ``_compile``), built at its first
    read. That reader takes an object naming every field once, each with a
    value of its field's own JSON type. Any other object goes through the loop
    over its keys below, which alone fills defaults and names the first bad
    key in the object's order, and builds the instance through ``cls``.
    """
    try:
        compiled = _COMPILED[cls]
    except KeyError:
        compiled = _prepare(cls)
    if compiled is not None:
        obj = compiled(data)
        if obj is not _MISS:
            return obj
    if not isinstance(data, dict):
        raise JsonMismatch(f"{where} must be an object")
    readers = _READERS[cls]
    values = {}
    for key, value in data.items():
        try:
            passes, read = readers[key]
        except KeyError:
            raise JsonMismatch(f"{where}.{key} is not a known key") from None
        values[key] = value if type(value) in passes else read(value, f"{where}.{key}")
    if len(values) < len(readers):  # a key is absent: it must have a default
        for name in _REQUIRED[cls]:
            if name not in values:
                raise JsonMismatch(f"{where}.{name} is missing")
    try:
        return cls(**values)
    except ValueError as exc:
        raise JsonMismatch(f"{where}.{exc}") from exc


# Built once per class, on its first encode or decode.
_FIELD_NAMES: dict = {}  # dataclass -> its field names, in declaration order
_READERS: dict = {}  # dataclass -> {field name: its reader}
_REQUIRED: dict = {}  # dataclass -> the names of its fields without a default
# dataclass -> its compiled reader, or None where it has none
_COMPILED: dict = {}
# (dataclass, spliced field) -> its compiled writer, or None where it has none
_WRITERS: dict = {}
_MISS = object()  # what a compiled reader or writer returns for an object it does not take


def _prepare(cls):
    """Build the field readers, the required fields and the compiled reader of
    ``cls`` (None for a class that ``_fills_without_init`` does not pick); return
    the last."""
    _REQUIRED[cls] = tuple(
        f.name
        for f in fields(cls)
        if f.init and f.default is MISSING and f.default_factory is MISSING
    )
    hints = get_type_hints(cls)
    _READERS[cls] = {f.name: _reader(hints[f.name]) for f in fields(cls)}
    _COMPILED[cls] = None  # meanwhile: a class nested in itself is not compiled again
    if _fills_without_init(cls):
        _COMPILED[cls] = _compile(cls, hints)
    return _COMPILED[cls]


def _fills_without_init(cls) -> bool:
    """Whether the generated ``__init__`` of ``cls`` would only assign, so that its
    compiled reader may fill a bare instance instead: there is no
    ``__post_init__``, ``default_factory``, ``init=False`` field or ``__slots__``."""
    return not (
        hasattr(cls, "__post_init__")
        or hasattr(cls, "__slots__")
        or any(not f.init or f.default_factory is not MISSING for f in fields(cls))
    )


def _compile(cls, hints: dict):
    """The compiled reader of ``cls``: ``read(data)``, the instance that the loop
    of ``from_json_dict`` would build from ``data``, or ``_MISS``.

    It takes only a dict with one key per field, and fetches each field by
    name: a str, int, bool or dict field (or None, where it is Optional)
    passes when ``type(value)`` is its type, an Enum field maps its value
    through ``{value: member}``, a nested dataclass goes through that class's
    compiled reader, and any other field through its ``_reader``. It then
    fills a bare instance's ``__dict__`` in field order, as ``__init__`` would.
    Whatever it does not take (an absent or unknown key, a value of another
    type, an Enum spelling other than its value) is ``_MISS``, for the loop to
    read or refuse. Its source is written once per class, from the fields and
    type hints of ``cls`` alone, and skips the per-key lookups and calls of
    the loop.
    """
    cls_fields = fields(cls)
    scope = {"MISS": _MISS, "JsonMismatch": JsonMismatch, "new": object.__new__, "cls": cls}
    body = [f"if type(data) is not dict or len(data) != {len(cls_fields)}: return MISS"]
    for i, f in enumerate(cls_fields):
        hint = hints[f.name]
        args = get_args(hint)
        optional = type(None) in args
        inner = args[0] if optional else hint
        value = f"data[{f.name!r}]"
        if inner in _JSON_NAMES:
            scope[f"t{i}"] = inner
            test = f"type(v{i}) is not t{i}" + (f" and v{i} is not None" if optional else "")
            body += [f"v{i} = {value}", f"if {test}: return MISS"]
        elif not optional and isinstance(hint, type) and issubclass(hint, Enum):
            scope[f"m{i}"] = {member.value: member for member in hint}
            body.append(f"v{i} = m{i}[{value}]")  # KeyError, or TypeError if unhashable
        elif (
            not optional
            and is_dataclass(hint)
            and (nested := _COMPILED[hint] if hint in _COMPILED else _prepare(hint))
        ):
            scope[f"r{i}"] = nested
            body += [f"v{i} = r{i}({value})", f"if v{i} is MISS: return MISS"]
        else:
            scope[f"p{i}"], scope[f"c{i}"] = _READERS[cls][f.name]
            body += [f"v{i} = {value}", f"if type(v{i}) not in p{i}: v{i} = c{i}(v{i}, '')"]
    source = "\n".join([
        "def read(data):",
        "    try:",
        *(f"        {line}" for line in body),
        "    except (KeyError, TypeError, JsonMismatch):",
        "        return MISS",
        "    obj = new(cls)",
        "    state = obj.__dict__",
        *(f"    state[{f.name!r}] = v{i}" for i, f in enumerate(cls_fields)),
        "    return obj",
    ])
    exec(source, scope)
    return scope["read"]


def _prepare_writer(key: tuple):
    """Compile the writer of ``key``, ``(dataclass, spliced field)``, and return it;
    a nested class is written inline, so no other writer is compiled meanwhile."""
    write = _WRITERS[key] = _compile_writer(*key)
    return write


def _compile_writer(cls, spliced):
    """The compiled writer of ``cls``: ``write(obj, literal)``, the line that
    ``to_json_line(obj, spliced, literal)`` writes, or ``_MISS``; None where a
    field has a type it does not write.

    Its one f-string holds the keys, sorted, between ``", "`` and ``": "``, and
    each value as ``json.dumps`` writes it: a str through ``encode_basestring``,
    an int as an f-string formats it (``int.__repr__``), a bool as ``true`` or
    ``false``, an Enum member as its value, encoded once here, and a nested
    dataclass inline. A value whose type is not exactly its field's type, or
    None where the field is not Optional, makes it return ``_MISS``. Its source
    is written once per class, from the fields and type hints of ``cls`` alone.
    """
    scope = {"MISS": _MISS, "enc": encode_basestring, "BOOLS": ("false", "true")}
    body, template = [], []

    def write_fields(owner, obj: str, open_classes: tuple) -> bool:
        """Add the statements and the template of the fields of ``owner``, the
        instance named ``obj``; False where a field has a type it does not write."""
        hints = get_type_hints(owner)
        template.append("{{")
        for n, name in enumerate(sorted(f.name for f in fields(owner))):
            hint, args = hints[name], get_args(hints[name])
            optional = len(args) == 2 and type(None) in args
            if optional:
                hint = args[args[0] is type(None)]
            v = f"v{len(body)}"
            scope[f"t{v}"] = hint
            template.append(f"{', ' if n else ''}{json.dumps(name, ensure_ascii=False)}: ")
            if hint in (str, int, bool):
                value = {str: f"enc({v})", int: v, bool: f"BOOLS[{v}]"}[hint]
            elif isinstance(hint, type) and issubclass(hint, Enum):
                try:
                    scope[f"m{v}"] = {
                        m._name_: json.dumps(m.value, ensure_ascii=False, sort_keys=True)
                        for m in hint
                    }
                except (TypeError, ValueError):
                    return False
                value = f"m{v}[{v}._name_]"
            elif optional or not is_dataclass(hint) or hint in open_classes:
                return False
            body.append(f"{v} = {obj}.{name}")
            if optional:
                body.append(f"if {v} is None: {v}s = 'null'")
                body.append(f"elif type({v}) is not t{v}: return MISS")
                body.append(f"else: {v}s = {value}")
                value = f"{v}s"
            else:
                body.append(f"if type({v}) is not t{v}: return MISS")
            if is_dataclass(hint):  # a nested object, written inline
                if not write_fields(hint, v, (*open_classes, hint)):
                    return False
                continue
            if name == spliced and owner is cls:
                body.append(f"if literal is None: literal = {value}")
                value = "literal"
            template.append(f"{{{value}}}")
        template.append("}}")
        return True

    if not write_fields(cls, "obj", (cls,)):
        return None
    source = "\n".join([
        "def write(obj, literal):",
        *(f"    {line}" for line in body),
        f"    return f{repr(''.join(template) + chr(10))}",
    ])
    exec(source, scope)
    return scope["write"]


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
