"""Poset core: validation, order queries, enumeration, canonical form."""

import math
import random
import time
import tracemalloc
from itertools import combinations, islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c3control import (
    CycleError,
    DuplicateNameError,
    InputError,
    NotAPermutationError,
    NotReducedError,
    Poset,
    poset_h,
)
from c3control.poset import canonical_key, superiors_first, twin_walk, walk_automorphisms
from c3control.search import iso_classes

from conftest import (
    natural_poset,
    posets_of_size,
    posets_with_extension,
    recursive_linear_extensions,
    symmetric_posets,
    twin_posets,
)


def diamond() -> Poset:
    # D < B,C < A
    return Poset(4, [(3, 1), (3, 2), (1, 0), (2, 0)], ["A", "B", "C", "D"])


def test_cycle_rejected():
    with pytest.raises(CycleError) as exc:
        Poset(3, [(0, 1), (1, 2), (2, 0)])
    assert len(exc.value.witness) >= 2


def test_long_cycle_witness():
    n = 3000
    with pytest.raises(CycleError) as exc:
        Poset(n, [(i, (i + 1) % n) for i in range(n)])
    assert exc.value.witness == [str(i) for i in range(n)] + ["0"]


def test_cycle_witness_is_a_closed_cover_path():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 12)
        ring = rng.sample(range(n), rng.randint(2, n))
        covers = set(zip(ring, ring[1:] + ring[:1]))
        for _ in range(rng.randint(0, 2 * n)):
            c, a = rng.sample(range(n), 2)
            covers.add((c, a))
        with pytest.raises(CycleError) as exc:
            Poset(n, covers)
        w = [int(x) for x in exc.value.witness]
        assert w[0] == w[-1] and len(set(w)) == len(w) - 1 >= 2
        assert all(pair in covers for pair in zip(w, w[1:]))


def test_transitive_edge_rejected():
    with pytest.raises(NotReducedError) as exc:
        Poset(3, [(2, 1), (1, 0), (2, 0)])
    assert exc.value.pair == ("2", "0")


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateNameError) as exc:
        Poset(2, [], ["X", "X"])
    assert isinstance(exc.value, InputError)


def test_negative_size_rejected():
    with pytest.raises(InputError):
        Poset(-1, [])


def test_wrong_name_count_rejected():
    with pytest.raises(InputError):
        Poset(2, [], ["A"])


def test_relabel_rejects_a_non_permutation():
    with pytest.raises(NotAPermutationError):
        Poset(3, []).relabel([0, 0, 1])


def test_canonical_form_rejects_more_than_255_elements():
    with pytest.raises(ValueError):
        Poset(256, []).canonical_form()


@pytest.mark.parametrize("key", [b"", b"\x03\x00", b"\x02\x00\x01\x00"])
def test_malformed_canonical_key_rejected(key):
    with pytest.raises(InputError):
        Poset.from_canonical_key(key)


def test_bad_cover_ids_rejected():
    with pytest.raises(ValueError):
        Poset(2, [(0, 5)])
    with pytest.raises(ValueError):
        Poset(2, [(0, 0)])


def test_order_queries():
    p = diamond()
    assert set(p.upper_covers(3)) == {1, 2}
    assert set(p.lower_covers(0)) == {1, 2}
    assert p.up_set(3) == frozenset({0, 1, 2, 3})
    assert p.up_set(1) == frozenset({0, 1})
    assert p.lt(3, 0) and not p.lt(0, 3) and not p.lt(1, 2)
    assert p.leq(1, 1) and not p.lt(1, 1)
    assert p.minimal_elements() == (3,)
    assert p.maximal_elements() == (0,)
    assert p.id_of("D") == 3 and p.name_of(3) == "D"


def test_up_mask_matches_up_set():
    for p in posets_of_size(4):
        for x in range(p.n):
            assert {y for y in range(p.n) if p.up_mask(x) >> y & 1} == set(p.up_set(x))


def test_linear_extensions_match_brute_force():
    for p in posets_of_size(4):
        brute = {
            order
            for order in permutations(range(p.n))
            if p.is_linear_extension(order)
        }
        listed = list(p.linear_extensions())
        assert set(listed) == brute
        assert len(listed) == len(brute) == p.linear_extension_count()
        assert listed == sorted(listed)  # lexicographic order, no repeats


def test_linear_extensions_match_recursive_reference():
    # Same extensions in the same order as the recursive generator, on
    # every poset with n <= 6 under its natural and its reversed labeling,
    # and on H.
    posets = [poset_h()]
    for n in range(7):
        for p in posets_of_size(n):
            posets += [p, p.relabel(list(reversed(range(n))))]
    for p in posets:
        assert list(p.linear_extensions()) == list(recursive_linear_extensions(p))


def test_linear_extensions_of_a_long_chain():
    # One extension, without exhausting the recursion limit.
    n = 3000
    chain = Poset(n, [(i, i + 1) for i in range(n - 1)])
    assert list(chain.linear_extensions()) == [tuple(range(n))]
    assert chain.linear_extension_count() == 1


def test_walk_and_count_of_a_very_long_chain_are_fast():
    # Each step looks only at the placed element's covers, so the one
    # extension of a 10,000-element chain is listed and counted quickly.
    n = 10_000
    chain = Poset(n, [(i, i + 1) for i in range(n - 1)])
    start = time.perf_counter()
    assert chain.linear_extension_count() == 1
    assert list(chain.linear_extensions()) == [tuple(range(n))]
    assert time.perf_counter() - start < 5


def test_linear_extension_count_of_an_antichain():
    # 12! extensions, counted by the down-set DP without listing them.
    assert Poset(12, []).linear_extension_count() == 479_001_600


def test_linear_extension_count_of_a_wide_antichain_is_fast():
    # One class of 30 twins: one chain, times 30!, instead of a DP over
    # 2^30 down-sets.
    start = time.perf_counter()
    assert Poset(30, []).linear_extension_count() == math.factorial(30)
    assert Poset(200, []).linear_extension_count() == math.factorial(200)
    assert time.perf_counter() - start < 1


def test_linear_extension_count_of_disjoint_chains_is_fast():
    # 13 disjoint 2-chains have 3^13 down-sets; counted one component at
    # a time and interleaved by the multinomial, they take far less.
    p = Poset(26, [(2 * i, 2 * i + 1) for i in range(13)])
    start = time.perf_counter()
    assert p.linear_extension_count() == math.factorial(26) // 2**13
    assert time.perf_counter() - start < 0.5


def test_linear_extension_count_matches_the_down_set_dp():
    # The twin-chained count times its weight against the DP on the
    # order itself, and against the listing on posets with twins.
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randrange(12)
        density = rng.uniform(0.1, 0.5)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        p = natural_poset(n, pairs).relabel(rng.sample(range(n), n))
        # Refusing every first step counts each subtree by the DP.
        assert p.linear_extension_count() == walk(p, {(x, 0) for x in range(n)})[1]
    for p in twin_posets() + symmetric_posets():
        assert p.linear_extension_count() == sum(1 for _ in p.linear_extensions())


def walk_inputs(p: Poset):
    """Upper and lower cover lists of ``p``, by id."""
    return [p.upper_covers(x) for x in range(p.n)], [p.lower_covers(x) for x in range(p.n)]


def walk_group(p: Poset) -> list[tuple[int, ...]]:
    """``walk_automorphisms`` of ``p``."""
    up_sizes = [len(p.up_set(x)) for x in range(p.n)]
    down_sizes = [sum(p.leq(y, x) for y in range(p.n)) for x in range(p.n)]
    return walk_automorphisms(*walk_inputs(p), up_sizes, down_sizes)


def test_walk_automorphisms_times_twin_weight_is_the_automorphism_count():
    # Every automorphism is one of the group that keeps each twin class
    # in ascending id order, then a permutation of twins within their
    # classes: on every class with n <= 7, on H and on posets with twins
    # and with other symmetries.
    h = poset_h()
    posets = [Poset.from_canonical_key(key) for n in range(8) for key, _ in iso_classes(n)]
    posets += [h, *twin_posets(), *symmetric_posets()]
    for p in posets:
        upper, lower = walk_inputs(p)
        walk_upper, _, weight = twin_walk(upper, lower)
        # each larger twin and its next smaller one
        twins = [(w[-1], x) for x, (w, u) in enumerate(zip(walk_upper, upper)) if len(w) > len(u)]
        found = walk_group(p)
        assert tuple(range(p.n)) not in found and len(set(found)) == len(found)
        for s in found:
            assert {(s[c], s[a]) for c, a in p.covers} == p.covers
            assert all(s[x] < s[y] for x, y in twins)
        automorphisms = canonical_key(upper, lower, p._up_mask, p._down_mask)[1]
        assert (len(found) + 1) * weight == automorphisms, p
    assert len(walk_group(h)) + 1 == 6
    assert len(walk_group(Poset(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))) + 1 == 24
    assert walk_group(Poset(7, [])) == [] and walk_group(Poset(0, [])) == []


def test_twin_walk_leaves_a_twin_free_order_alone():
    for p in [poset_h(), Poset(4, [(0, 1), (0, 2), (1, 3)]), Poset(3, [(0, 1), (1, 2)])]:
        upper, lower = walk_inputs(p)
        assert twin_walk(upper, lower) == (upper, lower, 1)


def test_twin_walk_chains_each_twin_class():
    # Twin classes {0, 1, 2} (below 3) and {4, 5} (isolated): weight 3! 2!.
    p = Poset(6, [(0, 3), (1, 3), (2, 3)])
    walk_upper, walk_lower, weight = twin_walk(*walk_inputs(p))
    assert weight == 12
    assert walk_upper == [(3,), (3, 0), (3, 1), (), (), (4,)]
    assert walk_lower == [(1,), (2,), (), (0, 1, 2), (5,), ()]


def test_twin_walk_reaches_one_extension_per_orbit():
    # The walk of the chained order reaches, in the plain walk's order,
    # exactly the extensions that place each twin class least id first:
    # one per orbit, the extension count over the weight.
    for p in twin_posets():
        upper, lower = walk_inputs(p)
        classes: dict = {}
        for x in range(p.n):
            classes.setdefault((upper[x], lower[x]), []).append(x)
        full, total = walk(p, set())
        ordered = [
            g for g in full
            if all(sorted(c, key=g.index, reverse=True) == c for c in classes.values())
        ]
        walk_upper, walk_lower, weight = twin_walk(upper, lower)
        assert weight == math.prod(math.factorial(len(c)) for c in classes.values())
        assert walk(p, set(), walk_upper, walk_lower) == (ordered, total // weight)
        assert len(ordered) * weight == total


def test_orbit_walk_reaches_the_least_extension_of_each_orbit():
    # With walk_automorphisms the walk of the chained order reaches, in
    # its own order, exactly the chained extensions whose placement
    # sequence is the least of its orbit: |R| times fewer.  Refused steps
    # cut off counts that add up to the same number of orbits.
    h = poset_h()
    posets = [Poset.from_canonical_key(key) for n in range(6) for key, _ in iso_classes(n)]
    posets += [h, h.restrict(range(9)), *twin_posets(), *symmetric_posets()]
    rng = random.Random(41)
    for p in posets:
        upper, lower = walk_inputs(p)
        walk_upper, walk_lower, _ = twin_walk(upper, lower)
        group = walk_group(p)
        chained, total = walk(p, set(), walk_upper, walk_lower)
        least = [
            g for g in chained
            if all(tuple(s[x] for x in reversed(g)) > g[::-1] for s in group)
        ]
        assert len(least) * (len(group) + 1) == total
        orbits = total // (len(group) + 1)
        assert walk(p, set(), walk_upper, walk_lower, group) == (least, orbits)
        for refused in (
            {(x, 0) for x in range(p.n)},
            {(x, 1) for x in range(p.n)},
            {(rng.randrange(p.n), rng.randrange(p.n)) for _ in range(3)} if p.n else set(),
        ):
            assert walk(p, refused, walk_upper, walk_lower, group)[1] == orbits
    group = walk_group(h)
    assert len(walk(h, set(), *walk_inputs(h), group)[0]) == 120


def walk(p: Poset, refused, upper=None, lower=None, automorphisms=()) -> tuple[list[tuple[int, ...]], int]:
    """The extensions that ``superiors_first`` reaches on ``p``, or on
    the order given by ``upper`` and ``lower``, most derived first,
    and its leaves plus cut-off counts, with a step that refuses the
    (element, depth) pairs in ``refused``; ``automorphisms`` go to the
    walk."""
    if upper is None:
        upper, lower = walk_inputs(p)
    placed = [0] * p.n
    accepted = [True]

    def step(x: int, depth: int) -> bool:
        placed[depth] = x
        accepted[0] = (x, depth) not in refused
        return accepted[0]

    leaves, total = [], 0
    for cut in superiors_first(upper, lower, step, automorphisms):
        if accepted[0]:
            assert cut == 0
            leaves.append(tuple(reversed(placed)))
            total += 1
        else:
            assert cut > 0
            total += cut
    return leaves, total


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    posets_with_extension(max_n=7),
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6),
)
def test_superiors_first_counts_every_extension(case, refused):
    p, _g = case
    brute = {order for order in permutations(range(p.n)) if p.is_linear_extension(order)}
    leaves, total = walk(p, refused)
    assert total == len(brute)
    assert len(set(leaves)) == len(leaves) and set(leaves) <= brute
    leaves, total = walk(p, set())
    assert sorted(leaves) == sorted(brute) and total == len(brute)


def test_linear_extension_is_most_derived_first():
    p = diamond()
    for order in p.linear_extensions():
        assert order[0] == 3 and order[-1] == 0


def test_antichains_match_brute_force():
    for p in posets_of_size(4):
        brute = set()
        for r in range(p.n + 1):
            for sub in combinations(range(p.n), r):
                if all(not p.lt(x, y) and not p.lt(y, x) for x in sub for y in sub if x != y):
                    brute.add(sub)
        assert set(p.antichains()) == brute
        assert () in brute


def test_antichains_of_a_wide_antichain():
    # The enumeration keeps its frames off the call stack: the first
    # antichains of 1,200 incomparable elements are the growing prefixes.
    n = 1200
    first = list(islice(Poset(n, []).antichains(), n + 5))
    assert first[: n + 1] == [tuple(range(k)) for k in range(n + 1)]
    assert first[n + 1] == (*range(n - 2), n - 1)


def test_restrict_diamond():
    p = diamond()
    # Dropping B leaves D < C < A with the transitive D < A edge reduced away.
    q = p.restrict([0, 2, 3])
    assert q.n == 3
    assert q.names == ("A", "C", "D")
    assert sorted(q.covers) == [(1, 0), (2, 1)]


def test_restrict_roundtrip_full_set():
    for p in posets_of_size(4):
        q = p.restrict(range(p.n))
        assert sorted(q.covers) == sorted(p.covers)


def test_relabel_inverse():
    p = poset_h()
    perm = [3, 1, 4, 0, 9, 2, 6, 8, 7, 5]
    q = p.relabel(perm)
    inv = [0] * p.n
    for old, new in enumerate(perm):
        inv[new] = old
    assert sorted(q.relabel(inv).covers) == sorted(p.covers)
    assert q.names[perm[0]] == p.names[0]


def test_add_bottom():
    p = diamond()
    q = p.add_bottom("Z")
    assert q.n == 5
    assert q.minimal_elements() == (0,)
    assert q.name_of(0) == "Z"
    assert all(q.lt(0, x) for x in range(1, 5))
    # the old minimal element is the only lower cover of the new bottom
    assert q.upper_covers(0) == (p.minimal_elements()[0] + 1,)


def test_canonical_form_is_isomorphism_invariant():
    for p in posets_of_size(4):
        key = p.canonical_form()
        for perm in permutations(range(p.n)):
            assert p.relabel(perm).canonical_form() == key


def test_canonical_form_separates_classes():
    # Distinct keys exactly match the known number of iso classes on 4 points
    # that admit the identity extension (16 of A000112).
    keys = {p.canonical_form() for p in posets_of_size(4)}
    assert len(keys) == 16


def test_canonical_form_memory_does_not_follow_the_permutation_count():
    # An 8-antichain is one cell of 8! = 40,320 labelings; they are
    # generated one at a time, not held (which would take about 4.4 MiB).
    p = Poset(8, [])
    tracemalloc.start()
    try:
        key = p.canonical_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key == b"\x08"
    assert peak < 2**20


def test_poset_from_covers_names():
    p = Poset(3, [(2, 1), (1, 0)], ["x", "y", "z"])
    assert p.lt(p.id_of("z"), p.id_of("x"))


def test_poset_h_shape(h=None):
    p = poset_h()
    assert p.n == 10
    assert p.minimal_elements() == (p.id_of("F"),)
    assert set(p.upper_covers(p.id_of("F"))) == {p.id_of("E1"), p.id_of("E2"), p.id_of("E3")}
    assert set(p.upper_covers(p.id_of("E2"))) == {p.id_of("D2"), p.id_of("B")}
    assert p.linear_extension_count() == 720
    assert p.maximal_elements() == (p.id_of("A"), p.id_of("B"), p.id_of("C"))
