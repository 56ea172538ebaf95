import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbiquint.jsontext import dumps

# text with what the encoder escapes: quotes, backslashes, control
# characters and non-ASCII (astral characters become surrogate pairs)
_TRICKY = '"\\/\n\r\t\b\f\x00\x1f\x7f é☃\U0001f600a'
text = st.one_of(st.text(max_size=8), st.text(alphabet=_TRICKY, max_size=8))
ints = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200),
                 st.integers(min_value=-2**200, max_value=-2**64))
scalars = st.one_of(st.none(), st.booleans(), ints, text)
values = st.recursive(scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(text, kids, max_size=4),
), max_leaves=24)


@given(values)
def test_dumps_matches_json_dumps_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


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
