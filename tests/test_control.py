"""Instrumented C3, the brute-force baseline, counting probes, sort keys."""

from __future__ import annotations

import random
from bisect import insort

import pytest
from hypothesis import given, settings

from c3control import (
    InputError,
    LinearizationFailedError,
    MergeFailure,
    NotLinearExtensionError,
    Poset,
    brute_force_assignment,
    c3_instrumented,
    c3_mro,
    compute_sort_keys,
    count_additions_per_extension,
    induced_assignment,
    merge_step_count,
    poset_h,
)

from conftest import (
    posets_of_size,
    posets_with_extension,
    python_mros,
    random_extension,
    random_family,
    random_posets,
    reference_merge,
    twin_posets,
)


def chain(n: int) -> Poset:
    return Poset(n, [(i, i + 1) for i in range(n - 1)])


def assert_reproduces(p: Poset, assignment, g) -> None:
    pos = {x: i for i, x in enumerate(g)}
    cache: dict = {}
    for c in range(p.n):
        mro = c3_mro(p, assignment, c, cache)
        assert not isinstance(mro, MergeFailure), (p, g, c)
        target = tuple(sorted(p.up_set(c), key=pos.__getitem__))
        assert mro == target, (p, g, c)


def reference_instrumented(p: Poset, g):
    """c3_instrumented's restarting replay on ``reference_merge``: the
    first good head after the target's first d elements is the merge's
    element d, and each insertion restarts the element's replay.

    The deviation index d of an element never decreases from one replay
    to the next, so a replay could resume at the deviation instead of
    restarting.  Every merge input is g-sorted; while the output matches
    ``target[:d]``, ``target[d]`` is the g-least remaining element, so it
    sits in no tail and stays good; and an insertion only puts
    ``target[d]`` and the head into the unconsumed part of the list,
    which can only raise tail counts, so every earlier step picks the
    same head again."""
    pos = {x: i for i, x in enumerate(g)}
    mros, assignment, additions = {}, {}, {}
    for c in reversed(g):
        target = [x for x in g if x != c and p.lt(c, x)]
        clist = sorted(p.upper_covers(c), key=pos.__getitem__)
        inserted = []
        last_d = 0
        while True:
            merged = reference_merge([mros[b] for b in clist] + [clist])
            emitted = list(merged.processed if isinstance(merged, MergeFailure) else merged)
            if emitted == target:
                break
            d = next(i for i, (x, y) in enumerate(zip(emitted + [None], target)) if x != y)
            assert d < len(emitted), "no good head"
            assert d >= last_d, "deviation moved back"
            last_d = d
            for x in (target[d], emitted[d]):
                if x not in clist:
                    insort(clist, x, key=pos.__getitem__)
                    inserted.append(x)
        mros[c] = (c, *target)
        assignment[c] = tuple(clist)
        if inserted:
            additions[c] = tuple(inserted)
    return assignment, additions


def test_instrumented_matches_reference_replay():
    pairs = [(p, g) for k in range(1, 7) for p in posets_of_size(k) for g in p.linear_extensions()]
    h = poset_h()
    pairs += [(h, g) for g in h.linear_extensions()]
    for p, g in pairs:
        result = c3_instrumented(p, g)
        assert (result.assignment, result.additions) == reference_instrumented(p, g), (p, g)
    assert len(pairs) > 100_000


@pytest.mark.parametrize("seed, size", [(1, 150), (2, 220), (3, 300)])
def test_instrumented_matches_reference_replay_at_depth(seed, size):
    # Grown families replay their elements many times over, so the one
    # kernel run per element must insert as the restarting replay does,
    # under the sort-key order and under a random extension.
    rng = random.Random(seed)
    p = Poset(size, random_family(rng, size))
    for g in (compute_sort_keys(p, []).order, random_extension(p, rng)):
        result = c3_instrumented(p, g)
        assert (result.assignment, result.additions) == reference_instrumented(p, g)
        assert max(map(len, result.additions.values())) >= 4


def test_instrument_grown_family_of_3000_classes():
    # No time bound: the restarting replay took minutes here.
    p = Poset(3000, random_family(random.Random(1), 3000))
    g = compute_sort_keys(p, []).order
    assignment = c3_instrumented(p, g).assignment
    pos = {x: i for i, x in enumerate(g)}
    expected = {c: tuple(sorted(p.up_set(c), key=pos.__getitem__)) for c in range(p.n)}
    cache: dict = {}
    assert {c: c3_mro(p, assignment, c, cache) for c in range(p.n)} == expected
    assert python_mros(p, assignment) == expected


def test_chain_needs_no_additions():
    p = chain(5)
    g = tuple(range(5))
    result = c3_instrumented(p, g)
    assert result.total_added == 0
    assert result.additions == {}
    assert result.assignment == induced_assignment(p, g)


def test_histogram_of_a_long_chain():
    # One extension and no insertion, without exhausting the recursion
    # limit.
    n = 2000
    p = Poset(n, [(i, i + 1) for i in range(n - 1)])
    assert count_additions_per_extension(p) == {0: 1}


def test_non_extension_rejected():
    p = chain(3)
    with pytest.raises(NotLinearExtensionError):
        c3_instrumented(p, (2, 1, 0))


def test_h_first_worked_order():
    p = poset_h()
    name = p.id_of
    g = [name(x) for x in ("F", "E3", "E2", "E1", "D3", "D2", "D1", "C", "B", "A")]
    result = c3_instrumented(p, g)
    assert result.total_added == 4
    assert result.additions == {
        name("E1"): (name("B"),),
        name("E2"): (name("A"),),
        name("F"): (name("D3"), name("D2")),
    }
    assert_reproduces(p, result.assignment, g)


def test_h_second_worked_order():
    p = poset_h()
    name = p.id_of
    g = [name(x) for x in ("F", "E3", "D3", "E2", "D2", "E1", "C", "D1", "B", "A")]
    result = c3_instrumented(p, g)
    assert result.total_added == 1
    assert result.additions == {name("E2"): (name("A"),)}
    assert result.assignment[name("E1")] == (name("C"), name("D1"))
    assert result.assignment[name("F")] == (name("E3"), name("E2"), name("E1"))
    assert result.assignment[name("E2")] == (name("D2"), name("B"), name("A"))
    assert_reproduces(p, result.assignment, g)


def test_instrumentation_reproduces_every_order_small():
    for n in range(1, 5):
        for p in posets_of_size(n):
            for g in p.linear_extensions():
                result = c3_instrumented(p, g)
                assert_reproduces(p, result.assignment, g)
                # lists stay g-sorted and contain every cover
                pos = {x: i for i, x in enumerate(g)}
                for c, seq in result.assignment.items():
                    assert list(seq) == sorted(seq, key=pos.__getitem__)
                    assert set(p.upper_covers(c)) <= set(seq)


def tally_additions(p: Poset) -> dict[int, int]:
    """The histogram the slow way: one c3_instrumented per extension."""
    tally: dict[int, int] = {}
    for g in p.linear_extensions():
        t = c3_instrumented(p, g).total_added
        tally[t] = tally.get(t, 0) + 1
    return tally


def test_additions_histogram_small():
    # The superiors-first walk with its (element, target) memo must agree
    # with an independent per-extension tally of c3_instrumented.  The
    # walk reaches one extension per orbit of twin swaps and tallies it
    # once per member, so the cases include posets with twins.
    h = poset_h()
    cases = [p for k in range(7) for p in posets_of_size(k)]
    cases += [h, h.relabel(random.Random(5).sample(range(h.n), h.n))]
    cases += random_posets(seed=11, count=20, sizes=range(8, 12), max_extensions=1500)
    cases += twin_posets()
    for p in cases:
        histogram = count_additions_per_extension(p)
        assert histogram == tally_additions(p), p
        assert list(histogram) == sorted(histogram)
    assert count_additions_per_extension(Poset(0, ())) == {0: 1}
    assert count_additions_per_extension(h) == {1: 36, 2: 108, 3: 180, 4: 216, 5: 180}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(posets_with_extension())
def test_instrumented_lists_give_extension_in_cpython(case):
    # Under the instrumented lists, both c3_mro and CPython's
    # type.__mro__ give g restricted to every up-set.
    p, g = case
    assignment = c3_instrumented(p, g).assignment
    pos = {x: i for i, x in enumerate(g)}
    expected = {c: tuple(sorted(p.up_set(c), key=pos.__getitem__)) for c in range(p.n)}
    cache: dict = {}
    assert {c: c3_mro(p, assignment, c, cache) for c in range(p.n)} == expected
    assert python_mros(p, assignment) == expected


def test_brute_force_assignment_lists_whole_up_set():
    h = poset_h()
    pairs = [(p, g) for k in range(6) for p in posets_of_size(k) for g in p.linear_extensions()]
    pairs += [(h, g) for g in h.linear_extensions()]
    for p, g in pairs:
        bfa = brute_force_assignment(p, g)
        assert list(bfa) == list(range(p.n))
        for c in range(p.n):
            assert bfa[c] == tuple(x for x in g if p.lt(c, x)), (p, g, c)
    g = next(h.linear_extensions())
    assert_reproduces(h, brute_force_assignment(h, g), g)


def test_merge_step_count_brute_force_dominates():
    # criterion 10's chains, with the exact counts its slopes are fitted to
    for n, cheap, costly in ((8, 7, 140), (16, 15, 1240), (32, 31, 10416), (64, 63, 85344)):
        p = chain(n)
        g = tuple(range(n))
        assert merge_step_count(p, induced_assignment(p, g), 0) == cheap
        assert merge_step_count(p, brute_force_assignment(p, g), 0) == costly


def test_merge_step_count_raises_on_a_failing_assignment():
    # H's induced lists make C3 fail at F on every linear extension.
    h = poset_h()
    a = induced_assignment(h, next(h.linear_extensions()))
    with pytest.raises(LinearizationFailedError):
        merge_step_count(h, a, h.id_of("F"))


def test_merge_step_count_deterministic():
    p = poset_h()
    g = next(p.linear_extensions())
    a = c3_instrumented(p, g).assignment
    assert merge_step_count(p, a, p.id_of("F")) == merge_step_count(p, a, p.id_of("F"))


def test_sort_keys_on_h():
    p = poset_h()
    name = p.id_of
    result = compute_sort_keys(p, [name("C"), name("B"), name("A")])
    expected = tuple(
        name(x) for x in ("F", "E3", "E2", "E1", "D3", "D2", "C", "D1", "B", "A")
    )
    assert result.order == expected
    assert result.is_extension
    assert p.is_linear_extension(result.order)
    # flag spot checks: C carries the most significant of three bits
    assert result.keys[name("C")].flags == 0b100
    assert result.keys[name("D1")].flags == 0b011  # above B and A only
    assert result.keys[name("F")].flags == 0b111


@pytest.mark.parametrize("important", [[0, 0], [99], [-1], [10], ["A"]])
def test_sort_keys_reject_bad_important_ids(important):
    with pytest.raises(InputError):
        compute_sort_keys(poset_h(), important)


def test_sort_keys_can_fail_to_extend():
    # Two-element chain 0 < 1 with only the top important: both elements
    # carry the flag, the id tie-break puts the top first — not an
    # extension, and the result says so.
    p = chain(2)
    result = compute_sort_keys(p, [1])
    assert result.order == (1, 0)
    assert not result.is_extension
    assert not p.is_linear_extension(result.order)
