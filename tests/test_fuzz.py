"""Property tests: the JSON loaders and the CLI on arbitrary documents.

A loader may refuse a document, but only with a GlgError; the CLI maps
every outcome of classify, realize, build and compnum to a documented exit
code.  Labels come from a small alphabet and weights stay small, so every
example is a small instance and the runs are quick.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glgcomp import (GlgError, digraph_from_json, graph_from_json,
                     weighted_graph_from_json)
from glgcomp.cli import main

LABELS = list("abcde")

scalars = (st.none() | st.booleans() | st.integers(-2, 4) |
           st.floats(allow_nan=False, allow_infinity=False) |
           st.text(max_size=3) | st.sampled_from(LABELS))
json_like = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def spoiled(draw, value):
    """value, or junk in its place, or None to leave the field out."""
    fate = draw(st.sampled_from(["keep"] * 8 + ["drop", "junk"]))
    if fate == "junk":
        return draw(json_like)
    return value if fate == "keep" else None


@st.composite
def documents(draw):
    """An instance document of a few vertices whose kind and fields may
    each be left out or replaced by arbitrary JSON."""
    vertices = draw(st.lists(st.sampled_from(LABELS), unique=True,
                             max_size=5))
    pairs = [[a, b] for i, a in enumerate(vertices) for b in vertices[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=tuple,
                          max_size=7)) if pairs else []
    fields = {
        "kind": draw(st.sampled_from(
            ["vertex_weighted_graph"] * 2 + ["graph", "digraph"])),
        "vertices": vertices,
        "edges": edges,
        "arcs": [pair[::draw(st.sampled_from([1, -1]))] for pair in edges],
        "weights": draw(st.dictionaries(st.sampled_from(vertices or LABELS),
                                        st.integers(-1, 3))),
    }
    doc = {}
    for name, value in fields.items():
        value = spoiled(draw, value)
        if value is not None:
            doc[name] = value
    return doc


any_document = documents() | json_like


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_document)
def test_loaders_raise_only_glg_errors(doc):
    for load in (graph_from_json, digraph_from_json,
                 weighted_graph_from_json):
        try:
            load(doc)
        except GlgError:
            pass


COMMANDS = [
    ["classify"], ["classify", "--conditions"], ["realize", "two"],
    ["realize", "one"], ["build", "glg"], ["compnum"],
]


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(documents(), st.sampled_from(COMMANDS))
def test_cli_exit_codes_are_documented(instance_path, doc, command):
    instance_path.write_text(json.dumps(doc))
    out = instance_path.with_name("out.json")
    code = main(command + [str(instance_path)] +
                (["-o", str(out)] if command[0] in ("realize", "build")
                 else []))
    assert code in (0, 2, 3, 5), (command, doc)
