"""Shared helpers: enumeration of small labeled posets, realization of
a hierarchy as CPython classes, and the H example.

``posets_of_size`` yields one labeled poset per poset on ``0..n-1`` that
admits the identity labeling as a most-derived-first linear extension
(the naturally labeled posets); every isomorphism class appears.  It is
the oracle the search's class-by-class generation is checked against.
``reference_merge`` is the C3 merge that tests goodness by scanning the
other lists' tails, the oracle for ``merge_kernel``.
"""

from __future__ import annotations

import pytest

from c3control import MergeFailure, Poset, StepCounter, poset_h


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


def reference_merge(lists, counter: StepCounter | None = None):
    """C3 merge of duplicate-free lists with ``list.index`` goodness
    scans, counting one ``counter`` unit per (candidate head, other active
    list) test up to the first list whose tail holds the head."""
    seqs = [list(l) for l in lists]
    k = len(seqs)
    ptr = [0] * k
    result: list[int] = []
    while True:
        active = [i for i in range(k) if ptr[i] < len(seqs[i])]
        if not active:
            return tuple(result)
        chosen = None
        for i in active:
            head = seqs[i][ptr[i]]
            good = True
            for j in active:
                if j == i:
                    continue
                if counter is not None:
                    counter.comparisons += 1
                try:
                    seqs[j].index(head, ptr[j] + 1)
                except ValueError:
                    continue
                good = False
                break
            if good:
                chosen = head
                break
        if chosen is None:
            return MergeFailure(
                processed=tuple(result),
                remaining=tuple(tuple(seqs[i][ptr[i]:]) for i in active),
            )
        result.append(chosen)
        for i in active:
            if seqs[i][ptr[i]] == chosen:
                ptr[i] += 1


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
