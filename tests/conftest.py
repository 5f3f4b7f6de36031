"""Shared helpers: enumeration of small labeled posets, realization of
a hierarchy as CPython classes, and the H example.

``posets_of_size`` yields one labeled poset per poset on ``0..n-1`` that
admits the identity labeling as a most-derived-first linear extension
(the naturally labeled posets); every isomorphism class appears.  It is
the oracle the search's class-by-class generation is checked against.
"""

from __future__ import annotations

import pytest

from c3control import Poset, poset_h


def posets_of_size(n: int) -> list[Poset]:
    """Every naturally labeled poset on ``n`` elements: each one on
    ``k`` elements, with a new maximal element ``k`` covering exactly one
    of its antichains (the empty one included), for k = 0..n-1."""
    level = [Poset(0, ())]
    for k in range(n):
        level = [
            Poset(k + 1, [*p.covers, *((x, k) for x in chain)])
            for p in level
            for chain in p.antichains()
        ]
    return level


def python_mros(p: Poset, assignment):
    """Realize the hierarchy as live classes; per element, the stripped
    __mro__ id tuple or None when CPython refuses the class."""
    out: dict[int, tuple[int, ...] | None] = {}
    classes: dict[int, type] = {}
    for x in sorted(range(p.n), key=lambda x: len(p.up_set(x))):
        listed = assignment[x]
        if any(classes.get(b) is None for b in listed):
            out[x] = None
            continue
        bases = tuple(classes[b] for b in listed) or (object,)
        try:
            cls = type(f"N{x}", bases, {"_pid": x})
        except TypeError:
            out[x] = None
            classes[x] = None
            continue
        classes[x] = cls
        out[x] = tuple(k._pid for k in cls.__mro__ if k is not object)
    return out


@pytest.fixture(scope="session")
def h() -> Poset:
    return poset_h()


@pytest.fixture(scope="session")
def h_upper(h: Poset) -> Poset:
    """H without its bottom element F."""
    return h.restrict(range(9))
