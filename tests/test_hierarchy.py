"""Hierarchy file parsing, serialization, and DOT export."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c3control.cli import fixture_path
from c3control.hierarchy import (
    HierarchyFile,
    HierarchyParseError,
    parse_hierarchy,
    serialize_hierarchy,
    to_dot,
)

from conftest import posets_with_extension

SAMPLE = """\
# demo
name: demo
elements: A B C D
cover: D C
cover: D B
cover: C A
cover: B A
precedence: D = C B
global_order: D C B A
"""


def test_parse_sample():
    h = parse_hierarchy(SAMPLE)
    assert h.name == "demo"
    assert h.elements == ["A", "B", "C", "D"]
    assert ("D", "C") in h.covers and ("B", "A") in h.covers
    assert h.precedence == {"D": ["C", "B"]}
    assert h.global_order == ["D", "C", "B", "A"]


def test_roundtrip_through_serializer():
    h = parse_hierarchy(SAMPLE)
    again = parse_hierarchy(serialize_hierarchy(h))
    assert again == h


def test_roundtrip_all_fixtures():
    for name in ("c3deviates", "c3fixed", "clash", "h", "h_alt_order", "chain"):
        text = fixture_path(name).read_text()
        h = parse_hierarchy(text, source=name)
        assert parse_hierarchy(serialize_hierarchy(h)) == h
        p = h.to_poset()
        assert p.n == len(h.elements)


def test_to_poset_and_assignment():
    h = parse_hierarchy(SAMPLE)
    p = h.to_poset()
    d = p.id_of("D")
    assert set(p.upper_covers(d)) == {p.id_of("B"), p.id_of("C")}
    a = h.assignment_for(p)
    assert a[d] == (p.id_of("C"), p.id_of("B"))
    # elements without a precedence line fall back to cover-line order
    c = p.id_of("C")
    assert a[c] == (p.id_of("A"),)
    assert h.global_order_ids(p) == [p.id_of(x) for x in "DCBA"]


def test_parse_errors():
    with pytest.raises(HierarchyParseError):
        parse_hierarchy("cover: A B\n")  # cover before elements
    with pytest.raises(HierarchyParseError):
        parse_hierarchy("elements: A B\ncover: A Z\n")  # unknown element
    with pytest.raises(HierarchyParseError):
        parse_hierarchy("elements: A A\n")  # duplicate element
    with pytest.raises(HierarchyParseError):
        parse_hierarchy("elements: A B\nnonsense line\n")
    with pytest.raises(HierarchyParseError):
        parse_hierarchy("elements: A B\nprecedence: Z = A\n")


def test_to_dot_contains_edges():
    h = parse_hierarchy(SAMPLE)
    dot = to_dot(h)
    assert dot.startswith("digraph")
    assert '"D" -> "C"' in dot
    assert '"B" -> "A"' in dot


def test_unknown_name_raises_key_error():
    h = HierarchyFile("x", ["A", "B"], [("A", "B")], {"A": ["B", "Z"]}, ["A", "Y"])
    p = h.to_poset()
    with pytest.raises(KeyError) as info:
        h.assignment_for(p)
    assert info.value.args == ("Z",)
    with pytest.raises(KeyError) as info:
        h.global_order_ids(p)
    assert info.value.args == ("Y",)


NAMES = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=5)


@st.composite
def hierarchies(draw):
    """A random hierarchy file: distinct names, covers in a random line
    order, relaxed ``precedence:`` lists on a random subset of elements
    and an optional ``global_order``.  A file lists at least one element."""
    p, g = draw(posets_with_extension(min_n=1))
    names = draw(st.lists(NAMES, min_size=p.n, max_size=p.n, unique=True))
    covers = draw(st.permutations(sorted(p.covers)))
    precedence = {}
    for c in range(p.n):
        if draw(st.booleans()):
            covs = p.upper_covers(c)
            extra = [x for x in range(p.n) if p.lt(c, x) and x not in covs and draw(st.booleans())]
            precedence[names[c]] = [names[x] for x in draw(st.permutations([*covs, *extra]))]
    return HierarchyFile(
        name=draw(st.just("") | NAMES),
        elements=names,
        covers=[(names[c], names[a]) for c, a in covers],
        precedence=precedence,
        global_order=[names[x] for x in g] if draw(st.booleans()) else None,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hierarchies())
def test_roundtrip_random_hierarchies(h):
    again = parse_hierarchy(serialize_hierarchy(h))
    p, q = h.to_poset(), again.to_poset()
    assert q == p
    assert again.assignment_for(q) == h.assignment_for(p)
    assert again.global_order_ids(q) == h.global_order_ids(p)
    # the name lookups agree with Poset.id_of
    first = {}
    for sub, sup in h.covers:
        first.setdefault(sub, []).append(sup)
    for i, name in enumerate(h.elements):
        listed = h.precedence.get(name, first.get(name, []))
        assert h.assignment_for(p)[i] == tuple(map(p.id_of, listed))
    if h.global_order is not None:
        assert h.global_order_ids(p) == list(map(p.id_of, h.global_order))
