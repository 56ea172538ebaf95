"""The package's one JSON writer.

``dumps(obj)`` gives the bytes of ``json.dumps(obj, indent=2)`` for the
types the package writes: dicts with str keys, lists, tuples, str, int,
bool and None; any other type raises TypeError.  The standard encoder
drops to its pure-Python path whenever ``indent`` is set.  Here each
scalar is rendered by a C primitive (``encode_basestring_ascii``,
``int.__repr__``) and appended, with the separator before it, to one
list of pieces, which ``dumps`` joins once, so no container's text is
copied again into its parent's.  A container dispatches each child on
its exact type and renders its str and int children in its own loop,
without a call per child; a top-level scalar, bool, None and subclasses
(a str subclass, an IntEnum member) take the isinstance path in json's
order, so a bool is never read as an int.
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
    out: list[str] = []
    _render(obj, "\n", out)
    return "".join(out)


def _render(obj, newline: str, out: list[str]) -> None:
    """Append the pieces of ``obj``, as the value of a slot whose line
    begins with ``newline`` (a line break and the slot's indent), to out."""
    cls = type(obj)
    if cls is list or cls is tuple:
        inner = newline + "  "
        append, sep, comma = out.append, "[" + inner, "," + inner
        for v in obj:
            cls = type(v)
            if cls is str:
                append(sep + encode_basestring_ascii(v))
            elif cls is int:
                append(sep + int.__repr__(v))
            else:
                append(sep)
                _render(v, inner, out)
            sep = comma
        append(newline + "]" if obj else "[]")
        return
    if cls is dict:
        inner = newline + "  "
        append, sep, comma = out.append, "{" + inner, "," + inner
        for k, v in obj.items():
            # encode_basestring_ascii raises TypeError on a key that is not a str
            cls = type(v)
            if cls is str:
                append(f"{sep}{encode_basestring_ascii(k)}: {encode_basestring_ascii(v)}")
            elif cls is int:
                append(f"{sep}{encode_basestring_ascii(k)}: {int.__repr__(v)}")
            else:
                append(f"{sep}{encode_basestring_ascii(k)}: ")
                _render(v, inner, out)
            sep = comma
        append(newline + "}" if obj else "{}")
        return
    _render_other(obj, newline, out)


def _render_other(obj, newline: str, out: list[str]) -> None:
    """The values ``_render`` does not render itself: a top-level str or
    int, bool, None and subclasses."""
    # tested in json's order: True is an int, and a str subclass is a str
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        _render(list(obj), newline, out)
    elif isinstance(obj, dict):
        _render(dict(obj.items()), newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
