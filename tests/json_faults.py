"""Hypothesis helpers: swap one value of a JSON document for a value of another JSON type."""

import copy

from hypothesis import strategies as st

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def key_paths(document: dict, opaque=frozenset(), skip=frozenset()) -> list:
    """Every key path into the nested objects of ``document``, outer keys first.

    The keys under a path in ``opaque`` (free-form JSON such as ``extra_body``)
    are not fields, so they are not listed; a path in ``skip`` is not listed.
    """
    paths = []

    def walk(node, prefix):
        for key, value in node.items():
            path = (*prefix, key)
            if path not in skip:
                paths.append(path)
            if isinstance(value, dict) and path not in opaque:
                walk(value, path)

    walk(document, ())
    return paths


def swap_one(data, document: dict, paths: list, also_accepted: dict) -> tuple:
    """``(path, new document)``: ``document`` with the value at one of ``paths``
    replaced by a JSON value of a type its field refuses.

    A field accepts the JSON type of its value in ``document`` and the types
    ``also_accepted`` lists for its path (``None`` for an optional field, an
    integer for a float field).
    """
    path = data.draw(st.sampled_from(paths), label="path")
    node = spoiled = copy.deepcopy(document)
    for key in path[:-1]:
        node = node[key]
    accepted = {type(node[path[-1]]), *also_accepted.get(path, ())}
    node[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: type(v) not in accepted), label="value")
    return path, spoiled
