"""The package's one JSON writer.

``dumps(obj)`` gives the bytes of ``json.dumps(obj, indent=2)`` for the
types the package writes: dicts with str keys, lists, tuples, str, int,
bool and None; any other type raises TypeError.  The standard encoder
drops to its pure-Python path whenever ``indent`` is set.  Here each
scalar is rendered by a C primitive (``encode_basestring_ascii``,
``int.__repr__``) and each container by one join.  A container
dispatches each child on its exact type and renders its str and int
children in its own loop, without a call per child; a top-level scalar,
bool, None and subclasses (a str subclass, an IntEnum member) take the
isinstance path in json's order, so a bool is never read as an int.
The module imports nothing from the package, and takes the C encoder
from ``_json``, so a caller loads no part of the ``json`` package unless
the interpreter lacks that accelerator.
"""

from __future__ import annotations

try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)`` for the package's JSON types."""
    return _render(obj, "\n")


def _render(obj, newline: str) -> str:
    """``obj`` as the value of a slot whose line begins with ``newline``
    (a line break and the slot's indent)."""
    cls = type(obj)
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        parts = []
        for v in obj:
            cls = type(v)
            if cls is str:
                parts.append(encode_basestring_ascii(v))
            elif cls is int:
                parts.append(int.__repr__(v))
            else:
                parts.append(_render(v, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if cls is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        parts = []
        for k, v in obj.items():
            # encode_basestring_ascii raises TypeError on a key that is not a str
            key = encode_basestring_ascii(k) + ": "
            cls = type(v)
            if cls is str:
                parts.append(key + encode_basestring_ascii(v))
            elif cls is int:
                parts.append(key + int.__repr__(v))
            else:
                parts.append(key + _render(v, inner))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    return _render_other(obj, newline)


def _render_other(obj, newline: str) -> str:
    """The values ``_render`` does not render itself: a top-level str or
    int, bool, None and subclasses."""
    # tested in json's order: True is an int, and a str subclass is a str
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return _render(list(obj), newline)
    if isinstance(obj, dict):
        return _render(dict(obj.items()), newline)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
