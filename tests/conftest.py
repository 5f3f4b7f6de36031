"""Shared helpers: enumeration of small labeled posets, realization of
a hierarchy as CPython classes, and the H example.

``posets_of_size`` yields one labeled poset per poset on ``0..n-1`` that
admits the identity labeling as a most-derived-first linear extension
(the naturally labeled posets); every isomorphism class appears.  It is
the oracle the search's class-by-class generation is checked against.
``reference_merge`` is the C3 merge that tests goodness by scanning the
other lists' tails, the oracle for ``merge_kernel``.  ``natural_poset``,
``random_posets`` and the ``hypothesis`` strategy
``posets_with_extension`` draw random posets for the differential and
property tests, and ``add_twins`` and ``twin_posets`` give posets with
twins, elements with the same upper and lower covers; ``symmetric_posets``
gives posets with other automorphisms and posets whose lower part is a
forest; ``random_family``
grows a large hierarchy class by class, ``grown_relaxed_lists`` grows
one with shuffled relaxed precedence lists, and ``random_extension``
draws a seeded linear extension of it.  ``recursive_linear_extensions``, the recursive
generator that ``Poset.linear_extensions`` replaced, is its oracle.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import strategies as st

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


def recursive_linear_extensions(p: Poset):
    """The linear extensions of ``p`` lexicographically by id sequence,
    one recursion level per placed element."""
    placed = [False] * p.n
    prefix: list[int] = []

    def rec():
        if len(prefix) == p.n:
            yield tuple(prefix)
            return
        for x in range(p.n):
            if placed[x] or any(not placed[c] for c in p.lower_covers(x)):
                continue
            placed[x] = True
            prefix.append(x)
            yield from rec()
            prefix.pop()
            placed[x] = False

    return rec()


def natural_poset(n: int, related) -> Poset:
    """The poset on ``0..n-1`` generated by the pairs ``(i, j)``, i < j,
    in ``related`` (i below j), built from its cover relation; the
    identity is a most-derived-first linear extension."""
    up = [1 << i for i in range(n)]  # reflexive up-sets
    for i, j in sorted(related, reverse=True):
        up[i] |= up[j]
    covers = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if up[i] >> j & 1
        and not any(up[i] >> k & 1 and up[k] >> j & 1 for k in range(i + 1, j))
    ]
    return Poset(n, covers)


def random_posets(seed: int, count: int, sizes: range, max_extensions: int) -> list[Poset]:
    """``count`` seeded random posets, randomly labeled, with at most
    ``max_extensions`` linear extensions each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        density = rng.uniform(0.2, 0.5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        p = natural_poset(n, pairs).relabel(rng.sample(range(n), n))
        if sum(1 for _ in islice(p.linear_extensions(), max_extensions + 1)) <= max_extensions:
            out.append(p)
    return out


def add_twins(p: Poset, rng: random.Random, count: int) -> Poset:
    """``p`` with ``count`` new elements, each a twin (the same upper and
    lower covers) of a random element, old or new, randomly relabeled."""
    covers = set(p.covers)
    n = p.n
    for _ in range(count):
        x = rng.randrange(n)
        covers |= {(n, a) for c, a in covers if c == x} | {(c, n) for c, a in covers if a == x}
        n += 1
    return Poset(n, covers).relabel(rng.sample(range(n), n))


def twin_posets() -> list[Poset]:
    """Posets with twins: antichains of 1 to 7 elements, twin minimal
    elements below a chain and below an antichain, H with and without
    its bottom F, each with a twin of D1 added, and seeded random posets
    with 1 to 3 forced twins and at most 2,000 linear extensions."""
    h = poset_h()
    d1 = h.id_of("D1")
    twin_d1 = [(h.n, a) for a in h.upper_covers(d1)] + [(c, h.n) for c in h.lower_covers(d1)]
    h_twin = Poset(h.n + 1, [*h.covers, *twin_d1], (*h.names, "D1'"))
    posets = [Poset(k, []) for k in range(1, 8)]
    posets += [Poset(4, [(0, 2), (1, 2), (2, 3)]), Poset(5, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 3)])]
    posets += [h_twin, h_twin.restrict(i for i in range(h_twin.n) if h_twin.names[i] != "F")]
    rng = random.Random(29)
    for p in random_posets(seed=31, count=16, sizes=range(3, 8), max_extensions=200):
        q = add_twins(p, rng, rng.randint(1, 3))
        if sum(1 for _ in islice(q.linear_extensions(), 2001)) <= 2000:
            posets.append(q)
    return posets


def symmetric_posets() -> list[Poset]:
    """Posets with automorphisms beyond twin swaps, randomly relabeled:
    2 to 4 disjoint 2-chains (4 have 24 automorphisms and no twins), two
    disjoint N-shaped posets and the Boolean lattice on three atoms; and
    posets whose lower part is a forest, each element below the top
    having one upper cover: the complete binary tree on 7 elements, two
    disjoint V-shaped trees, H's upper part with one element under E1,
    and seeded random tops of 3 to 5 elements with 2 to 4 tree elements
    hung below them, at most 1,500 extensions each."""
    rng = random.Random(43)

    def copies(k: int, m: int, covers) -> Poset:
        return Poset(k * m, [(i * m + c, i * m + a) for i in range(k) for c, a in covers])

    posets = [copies(k, 2, [(0, 1)]) for k in (2, 3, 4)]
    posets.append(copies(2, 4, [(0, 2), (1, 2), (1, 3)]))
    atoms = [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 3)]
    posets.append(Poset(8, [*atoms, (7, 4), (7, 5), (7, 6)]))
    posets += [Poset(7, [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)]), copies(2, 3, [(1, 0), (2, 0)])]
    h_upper = poset_h().restrict(range(9))
    posets.append(Poset(10, [*h_upper.covers, (9, h_upper.id_of("E1"))]))
    while len(posets) < 14:
        (top,) = random_posets(seed=rng.random(), count=1, sizes=range(3, 6), max_extensions=20)
        covers = list(top.covers)
        n = top.n
        for _ in range(rng.randint(2, 4)):
            covers.append((n, rng.randrange(n)))
            n += 1
        p = Poset(n, covers)
        if sum(1 for _ in islice(p.linear_extensions(), 1501)) <= 1500:
            posets.append(p)
    return [p.relabel(rng.sample(range(p.n), p.n)) for p in posets]


def random_family(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Covers of a grown hierarchy of ``size`` classes: class k > 0
    directly inherits from a random antichain of 1 to 4 earlier classes,
    drawn uniformly."""
    up = [1]
    covers = []
    for k in range(1, size):
        want = rng.randint(1, 4)
        chosen: list[int] = []
        for _ in range(8 * want):
            if len(chosen) == want:
                break
            b = rng.randrange(k)
            if any(b == a or up[b] >> a & 1 or up[a] >> b & 1 for a in chosen):
                continue
            chosen.append(b)
        m = 1 << k
        for b in chosen:
            covers.append((k, b))
            m |= up[b]
        up.append(m)
    return covers


def grown_relaxed_lists(seed: int, drop: float = 0.1):
    """A grown family and shuffled lists of covers plus random strict
    superiors; a list misses a cover with probability ``drop``."""
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    p = Poset(n, random_family(rng, n))
    assignment = {}
    for c in range(p.n):
        covers = list(p.upper_covers(c))
        others = sorted(p.up_set(c) - {c, *covers})
        listed = covers + [x for x in others if rng.random() < 0.4]
        if covers and rng.random() < drop:
            listed.remove(rng.choice(covers))
        rng.shuffle(listed)
        assignment[c] = tuple(listed)
    return p, assignment


def random_extension(p: Poset, rng: random.Random) -> tuple[int, ...]:
    """A random linear extension of ``p``, most derived first: each step
    places a random element whose lower covers are all placed."""
    missing = [len(p.lower_covers(x)) for x in range(p.n)]
    ready = [x for x in range(p.n) if not missing[x]]
    g: list[int] = []
    while ready:
        x = ready.pop(rng.randrange(len(ready)))
        g.append(x)
        for a in p.upper_covers(x):
            missing[a] -= 1
            if not missing[a]:
                ready.append(a)
    return tuple(g)


@st.composite
def posets_with_extension(draw, min_n: int = 0, max_n: int = 12):
    """A random poset on ``min_n`` to ``max_n`` elements, randomly
    labeled, and a random linear extension of it, most derived first."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    related = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    p = natural_poset(n, [pair for pair, rel in zip(pairs, related) if rel])
    p = p.relabel(draw(st.permutations(range(n))))
    g: list[int] = []
    missing = [len(p.lower_covers(x)) for x in range(n)]  # unplaced lower covers
    while len(g) < n:
        x = draw(st.sampled_from([x for x in range(n) if not missing[x] and x not in g]))
        g.append(x)
        for a in p.upper_covers(x):
            missing[a] -= 1
    return p, tuple(g)


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
