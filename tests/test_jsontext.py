import enum
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from orbiquint import jsontext
from orbiquint.jsontext import dumps

# text with what the encoder escapes: quotes, backslashes, control
# characters and non-ASCII (astral characters become surrogate pairs)
_TRICKY = '"\\/\n\r\t\b\f\x00\x1f\x7f é☃\U0001f600a'
text = st.one_of(st.text(max_size=8), st.text(alphabet=_TRICKY, max_size=8))
ints = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                 st.integers(min_value=-2**200, max_value=-2**64))


class _Text(str):
    """A str subclass: dumps renders it on the isinstance path, as json does."""


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


# exact str and int take the fast path; bool, None, a str subclass and an
# IntEnum member (an int subclass) the isinstance one, in lists and dicts alike
scalars = st.one_of(st.none(), st.booleans(), ints, text, text.map(_Text),
                    st.sampled_from(_Level))
values = st.recursive(scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(text, kids, max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=4),
), max_leaves=24)


@given(values)
def test_dumps_matches_json_dumps_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@given(st.integers(min_value=1, max_value=60), scalars)
def test_dumps_deep_nesting(depth, leaf):
    # the indent of each level is built as it is reached, so nesting
    # deeper than any fixed table of indents still matches json
    obj = leaf
    for k in range(depth):
        obj = [obj, k] if k % 2 else {"k": obj, "b": True}
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_container_subclasses():
    from collections import OrderedDict

    class Row(list):
        pass

    obj = OrderedDict(b=Row([1, _Text("x"), Row()]), a=OrderedDict())
    assert dumps(obj) == json.dumps(obj, indent=2)
    assert dumps([obj, (_Level.LOW, False)]) == json.dumps([obj, (_Level.LOW, False)], indent=2)


def test_dumps_empty_containers_and_constants():
    obj = {"a": [], "b": {}, "c": (), "d": [None, True, False, 0, -1, 2**64 + 1]}
    assert dumps(obj) == json.dumps(obj, indent=2)
    assert [dumps(x) for x in ([], {}, (), None, True, False)] == [
        "[]", "{}", "[]", "null", "true", "false"]


@pytest.mark.parametrize("obj", [
    Fraction(1, 2), {"a": [1, Fraction(1, 2)]}, [0.5], {1: "int key"}, {"a": {None: 1}},
    {"a": {1, 2}},
])
def test_dumps_refuses_other_types(obj):
    with pytest.raises(TypeError):
        dumps(obj)


def test_dumps_without_the_c_accelerator():
    # where _json is missing, the encoder comes from json.encoder, which
    # then holds its pure-Python one; the text is the same
    src = str(Path(jsontext.__file__).parent.parent)
    script = (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        "import json, json.encoder\n"
        "from orbiquint import jsontext\n"
        "obj = {'a': ['\\u00e9\\n\"', 1, None, True], 'b': {}}\n"
        "print(jsontext.encode_basestring_ascii is json.encoder.py_encode_basestring_ascii,\n"
        "      jsontext.dumps(obj) == json.dumps(obj, indent=2))\n"
    )
    p = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                       capture_output=True, text=True, timeout=60)
    assert (p.returncode, p.stdout, p.stderr) == (0, "True True\n", "")
