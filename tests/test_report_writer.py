"""The CLI's JSON writer: the C encoder's compact text, laid out by one
NumPy pass, equals ``json.dumps(indent=2, sort_keys=True)`` byte for byte."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_lindblad.cli import _indented_json


def standard(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


#: Text that often holds what the layout pass must see through: quotes,
#: runs of backslashes, brackets, commas, ": ", control and non-ASCII
#: characters.
texts = st.text(st.sampled_from('\\"[]{},: x\n\t\x00é \U0001f600') | st.characters())
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | texts
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(texts, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400)
@given(documents)
def test_random_documents_take_the_standard_layout(document):
    assert _indented_json(document) == standard(document)


def nested(depth: int):
    """Lists and objects alternating, ``depth`` deep, with items at every level."""
    document = []
    for level in range(depth):
        document = [level, document, "]"] if level % 2 else {"{": document, "k": [level]}
    return document


@pytest.mark.parametrize(
    "document",
    [
        ["\\" * n + '"' for n in range(6)],
        {"\\" * n + '"': "\\" * n for n in range(6)},
        ['"\\', '\\"', "\\\\", '\\\\"', '"\\\\"'],
        {"{[,]}": "a\": [1, 2]}", "k: v, [": {"]": "}"}, ": ": ", "},
        ["é中\U0001f600", "\x00\x1f\x7f", "  ", "\\u0041"],
        {"é": [{"中": "\U0001f600"}]},
        [[], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[], [{}]]], {"a": {"b": {}}}],
        {"": [], "x": {"y": [[], {}, [[[]]]]}, "z": {}},
        nested(200),
        [[[[[[1.5, -0.0, 1e-300, 1.7976931348623157e308]]]]]],
        [True, False, None, 0, -1, 10**30],
    ],
    ids=[
        "backslash-runs-before-quotes",
        "backslash-runs-in-keys",
        "escapes-at-string-ends",
        "syntax-inside-strings",
        "unicode-escapes",
        "unicode-keys",
        "empty-containers",
        "empty-containers-in-objects",
        "nesting-200",
        "numbers",
        "constants",
    ],
)
def test_hard_documents_take_the_standard_layout(document):
    assert _indented_json(document) == standard(document)


@pytest.mark.parametrize("document", [None, True, False, 0, -2.5e-300, "", "text \\\"", [], {}])
def test_scalars_and_empty_containers_at_the_top_level(document):
    assert _indented_json(document) == standard(document)


@pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_number_raises(number):
    with pytest.raises(ValueError):
        _indented_json({"a": [1.0, {"b": number}]})
