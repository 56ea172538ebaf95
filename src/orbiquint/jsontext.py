"""The package's one JSON writer.

``dumps(obj)`` gives the bytes of ``json.dumps(obj, indent=2)`` for the
types the package writes: dicts with str keys, lists, tuples, str, int,
bool and None; any other type raises TypeError.  The standard encoder
drops to its pure-Python path whenever ``indent`` is set.  Here each
scalar is rendered by a C primitive (``encode_basestring_ascii``,
``int.__repr__``) and each container by one join.  The module imports
nothing from the package, so a caller pays only for ``json.encoder``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)`` for the package's JSON types."""
    return _render(obj, "\n")


def _render(obj, newline: str) -> str:
    """``obj`` as the value of a slot whose line begins with ``newline``
    (a line break and the slot's indent)."""
    # tested in json's order: True is an int, and a str subclass is a str
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in obj]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in obj.items()
        ]) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
