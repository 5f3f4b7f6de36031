"""C3 merge/MRO, consistency checkers, and the brute-force oracle.

The strongest oracle here is CPython itself: a poset plus precedence
lists maps directly onto real class definitions, and ``type.__mro__``
must agree with c3_mro element by element (TypeError corresponding to
MergeFailure).
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c3control import (
    AmbiguityError,
    LinearizationFailedError,
    MergeFailure,
    NotAPermutationError,
    Poset,
    StepCounter,
    brute_force_assignment,
    c3_merge,
    c3_mro,
    check_extended_consistency,
    check_local_consistency,
    check_monotone,
    consistent_mro_oracle,
    induced_assignment,
    poset_h,
    validate_assignment,
)
from c3control.linearize import merge_kernel

from conftest import (
    grown_relaxed_lists,
    posets_of_size,
    posets_with_extension,
    python_mros,
    reference_merge,
)


def deviates() -> Poset:
    # D covers B, A; E covers D, C
    return Poset(5, [(3, 1), (3, 0), (4, 3), (4, 2)], ["A", "B", "C", "D", "E"])


DEVIATES_LISTS = {0: (), 1: (), 2: (), 3: (1, 0), 4: (3, 2)}
FIXED_LISTS = {0: (), 1: (), 2: (), 3: (1, 0), 4: (3, 2, 1)}


def clash() -> Poset:
    # C covers A, B; D covers B, A; E covers C, D
    return Poset(5, [(2, 0), (2, 1), (3, 1), (3, 0), (4, 2), (4, 3)], ["A", "B", "C", "D", "E"])


# -- c3_merge -----------------------------------------------------------


def test_merge_empty_and_single():
    assert c3_merge([]) == ()
    assert c3_merge([(1, 2, 3)]) == (1, 2, 3)


def test_merge_prefers_leftmost_good_head():
    assert c3_merge([(1, 2), (3, 2)]) == (1, 3, 2)


def test_merge_rejects_duplicates_within_a_list():
    with pytest.raises(ValueError):
        c3_merge([(1, 2, 1)])


def test_merge_rejects_negative_and_non_int_elements():
    # the kernel indexes per-element counts, so -1 would alias the last id
    for bad in ([(1, -1)], [(0,), (2, -1)], [("a", "b")], [(1.0,)]):
        with pytest.raises(ValueError):
            c3_merge(bad)


def test_merge_matches_reference_merge():
    rng = random.Random(20240)
    cases = 0
    for _ in range(3000):
        m = rng.randint(1, 12)
        order = rng.sample(range(m), m)
        lists = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                # lists drawn from one shared order cannot block each other
                lists.append([x for x in order if rng.random() < 0.5])
            else:
                lists.append(rng.sample(range(m), rng.randint(0, m)))
        counter, expected_counter = StepCounter(), StepCounter()
        got = c3_merge(lists, counter)
        expected = reference_merge(lists, expected_counter)
        assert got == expected, lists
        assert counter.comparisons == expected_counter.comparisons, lists
        cases += isinstance(expected, MergeFailure)
    assert 300 < cases < 2700  # both outcomes are well represented


def test_merge_failure_state():
    result = c3_merge([(1, 0, 2), (2, 0)])
    assert isinstance(result, MergeFailure)
    assert not result
    assert result.processed == (1,)
    assert result.remaining == ((0, 2), (2, 0))


def test_merge_keeps_large_labels():
    assert c3_merge([(10**6, 7), (7, 3)]) == (10**6, 7, 3)
    result = c3_merge([(10**6, 5, 10**5), (10**5, 5)])
    assert result.processed == (10**6,)
    assert result.remaining == ((5, 10**5), (10**5, 5))


def test_merge_memory_does_not_follow_the_largest_label():
    # one count slot per distinct element, not per id up to the largest
    tracemalloc.start()
    try:
        assert c3_merge([[10**7], [10**7]]) == (10**7,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_merge_counter_counts_goodness_tests():
    counter = StepCounter()
    c3_merge([(1,), (2,)], counter)
    # head 1 is tested against the other list once; after it is emitted
    # the second list is alone, so its head needs no test at all
    assert counter.comparisons == 1


# -- merge_kernel's want mode --------------------------------------------

A, B, X, Y, Z = range(5)


def test_want_reactivates_an_exhausted_list():
    # After A and B the element's own list is used up; C3 would take X
    # before the wanted Y, so Y and X are inserted into the exhausted
    # list, which blocks X again until Y is out.
    own = [A, B]
    inserted = merge_kernel([(B, X, Z), (A, Y, Z), own], 5, want=(A, B, Y, X, Z))
    assert inserted == [Y, X]
    assert own == [A, B, Y, X]


def test_want_inserts_only_the_head_when_want_is_listed():
    # At step 1 X is good but B is wanted; B is already listed, so only
    # X is inserted behind it.
    own = [A, B]
    inserted = merge_kernel([(A, X, Z), (B, Y, Z), own], 5, want=(A, B, X, Y, Z))
    assert inserted == [X]
    assert own == [A, B, X]


def test_want_inserts_both_into_an_active_list():
    # At step 2 the list still holds Z; Y and X go in before it, and the
    # displaced head Z is counted as a tail element again.
    own = [A, B, Z]
    inserted = merge_kernel([(B, X, Z), (A, Y, Z), own], 5, want=(A, B, Y, X, Z))
    assert inserted == [Y, X]
    assert own == [A, B, Y, X, Z]


def test_want_raises_where_the_invariant_breaks():
    with pytest.raises(AssertionError, match="no good head"):
        merge_kernel([(X, Y), (Y, X), [X, Y]], 5, want=(X, Y))
    with pytest.raises(AssertionError, match="listed head"):
        merge_kernel([(A,), [B, A]], 5, want=(A, B))


@pytest.mark.parametrize(
    "order, additions",
    [
        (("F", "E3", "E2", "E1", "D3", "D2", "D1", "C", "B", "A"),
         {"E1": ("B",), "E2": ("A",), "F": ("D3", "D2")}),
        (("F", "E3", "D3", "E2", "D2", "E1", "C", "D1", "B", "A"),
         {"E2": ("A",)}),
    ],
)
def test_want_on_h_worked_orders(order, additions):
    # Each element's list starts as its covers and grows against g
    # restricted to its strict up-set, the superiors' MROs being g
    # restricted to theirs.
    p = poset_h()
    g = [p.id_of(x) for x in order]
    pos = {x: i for i, x in enumerate(g)}
    target = {c: tuple(x for x in g if p.lt(c, x)) for c in g}
    for c in g:
        own = sorted(p.upper_covers(c), key=pos.__getitem__)
        if not own:
            continue
        seqs = [(b, *target[b]) for b in own]
        inserted = merge_kernel([*seqs, own], p.n, want=target[c])
        assert tuple(p.names[x] for x in inserted) == additions.get(p.names[c], ())
        assert own == sorted(own, key=pos.__getitem__)


def test_plain_kernel_keeps_criterion_10_counts():
    # want=None is the plain merge: criterion 10's chain totals, merge by
    # merge, as merge_step_count pins them through c3_mro.
    for n, cheap, costly in ((8, 7, 140), (16, 15, 1240), (32, 31, 10416), (64, 63, 85344)):
        for listed_of, total in ((lambda c: (c + 1,), cheap), (lambda c: range(c + 1, n), costly)):
            counter = StepCounter()
            for c in range(n - 1):
                listed = tuple(listed_of(c))
                merge_kernel([*(tuple(range(b, n)) for b in listed), listed], n, counter, want=None)
            assert counter.comparisons == total


# -- c3_mro on the worked examples --------------------------------------


def test_deviates_mro():
    p = deviates()
    mro = c3_mro(p, DEVIATES_LISTS, 4)
    assert mro == (4, 3, 1, 0, 2)  # E D B A C


def test_fixed_mro():
    p = deviates()
    mro = c3_mro(p, FIXED_LISTS, 4)
    assert mro == (4, 3, 2, 1, 0)  # E D C B A


def test_clash_fails_at_e():
    p = clash()
    lists = {0: (), 1: (), 2: (0, 1), 3: (1, 0), 4: (2, 3)}
    result = c3_mro(p, lists, 4)
    assert isinstance(result, MergeFailure)
    assert result.at == 4
    # A and B are the clashing elements: each heads a remaining tail
    heads = {tail[0] for tail in result.remaining}
    assert {0, 1} <= heads


def test_failure_propagates_to_inferiors():
    p = clash()
    q = p.add_bottom("Z")  # ids shift: A=1 B=2 C=3 D=4 E=5, Z=0 covers E
    lists = {0: (5,), 1: (), 2: (), 3: (1, 2), 4: (2, 1), 5: (3, 4)}
    result = c3_mro(q, lists, 0)
    assert isinstance(result, MergeFailure)
    assert result.at == 5  # stuck in E's computation, not Z's


def test_cache_not_recomputed():
    p = poset_h()
    a = induced_assignment(p, next(p.linear_extensions()))
    cache: dict = {}
    first = c3_mro(p, a, p.id_of("E1"), cache)
    assert cache[p.id_of("E1")] is first


def test_failure_after_pruning_reports_every_input():
    # E lists C, A, D: A is in MRO(C), so the merge leaves A's MRO out,
    # fails, and merges again with every input to report the stuck state.
    p = clash()
    lists = {0: (), 1: (), 2: (0, 1), 3: (1, 0), 4: (2, 0, 3)}
    assert c3_mro(p, lists, 4) == MergeFailure(
        processed=(2,), remaining=((0, 1), (0,), (3, 1, 0), (0, 3)), at=4
    )


def test_pruned_mro_equals_the_merge_of_every_listed_mro():
    # A StepCounter makes c3_mro merge every listed MRO; without one it
    # leaves out the MROs already inside an earlier kept one.
    failures = 0
    for seed in range(200):
        p, assignment = grown_relaxed_lists(seed)
        for c in range(p.n):
            pruned = c3_mro(p, assignment, c)
            assert pruned == c3_mro(p, assignment, c, counter=StepCounter()), (seed, c)
            failures += isinstance(pruned, MergeFailure)
        _assert_matches_python(p, assignment)
    assert failures


def test_brute_force_chain_merges_two_lists_per_element(monkeypatch):
    # Each element lists its whole strict up-set, and MRO(c + 1) already
    # holds every other listed element.
    n = 64
    p = Poset(n, [(i, i + 1) for i in range(n - 1)])
    sizes = []

    def recording_kernel(seqs, size, counter=None, want=None):
        sizes.append(len(seqs))
        return merge_kernel(seqs, size, counter, want)

    monkeypatch.setattr("c3control.linearize.merge_kernel", recording_kernel)
    assert c3_mro(p, brute_force_assignment(p, range(n)), 0) == tuple(range(n))
    assert len(sizes) == n - 1 and max(sizes) == 2


# -- validation ---------------------------------------------------------


def test_validate_assignment_errors():
    p = deviates()
    with pytest.raises(ValueError):
        validate_assignment(p, {0: ()})  # missing entries
    with pytest.raises(ValueError):
        validate_assignment(p, {**DEVIATES_LISTS, 3: (1,)})  # cover A missing
    with pytest.raises(ValueError):
        validate_assignment(p, {**DEVIATES_LISTS, 3: (1, 0, 2)})  # C not above D
    with pytest.raises(ValueError):
        validate_assignment(p, {**DEVIATES_LISTS, 3: (1, 0, 1)})  # duplicate
    validate_assignment(p, FIXED_LISTS)  # relaxed but valid


def test_induced_assignment_sorts_covers_by_order():
    p = deviates()
    a = induced_assignment(p, (4, 3, 2, 1, 0))
    assert a[3] == (1, 0)
    assert a[4] == (3, 2)
    b = induced_assignment(p, (4, 3, 2, 0, 1))
    assert b[3] == (0, 1)


# -- consistency checkers -----------------------------------------------


def test_checkers_on_paper_example():
    p = deviates()
    good = (4, 3, 1, 0, 2)  # E D B A C
    bad = (4, 3, 2, 1, 0)   # E D C B A
    assert check_local_consistency(p, DEVIATES_LISTS, good)
    assert check_extended_consistency(p, DEVIATES_LISTS, good)
    assert check_local_consistency(p, DEVIATES_LISTS, bad)
    assert not check_extended_consistency(p, DEVIATES_LISTS, bad)


def test_extended_consistency_does_not_subsume_local_on_every_order():
    # The list (2, 1) at 0 names a superior before its inferior: local
    # consistency fails on (0, 1, 2), while the extended check skips
    # B' = 2 as it lies above A = 1.  C3 itself fails on these lists.
    p = Poset(3, [(0, 1), (1, 2)])
    lists = {0: (2, 1), 1: (2,), 2: ()}
    validate_assignment(p, lists)
    assert not check_local_consistency(p, lists, (0, 1, 2))
    assert check_extended_consistency(p, lists, (0, 1, 2))
    assert isinstance(c3_mro(p, lists, 0), MergeFailure)


def test_checkers_reject_non_permutations():
    p = deviates()
    with pytest.raises(NotAPermutationError):
        check_local_consistency(p, DEVIATES_LISTS, (4, 3, 1, 0))
    with pytest.raises(NotAPermutationError):
        check_extended_consistency(p, DEVIATES_LISTS, (4, 3, 1, 0, 0))


@pytest.mark.parametrize(
    "order", [(), (-1,), (-5, 3), (3, 1, -1), (3, 1, 7), (3, 1, 2), (3, 1), (3, 1, 0, 2)]
)
def test_checkers_reject_orders_off_the_head_up_set(order):
    # Up(D) = {D, B, A}: an empty order, a negative or out-of-range id, a
    # non-superior of the head, or too few or too many entries is refused.
    p = deviates()
    for check in (check_local_consistency, check_extended_consistency):
        with pytest.raises(NotAPermutationError):
            check(p, DEVIATES_LISTS, order)
    assert check_local_consistency(p, DEVIATES_LISTS, (3, 1, 0))
    assert check_local_consistency(p, DEVIATES_LISTS, (2,))


def test_checkers_index_the_head():
    # A head past the last id has no up-set to compare with.
    with pytest.raises(IndexError):
        check_local_consistency(deviates(), DEVIATES_LISTS, (7, 3))


def _local_by_all_pairs(assignment, order) -> bool:
    """The local condition over every pair of list entries."""
    pos = {x: i for i, x in enumerate(order)}
    return all(
        pos[b] < pos[a]
        for c in order
        for i, b in enumerate(assignment[c])
        for a in assignment[c][i + 1:]
    )


def test_local_consistency_equals_the_all_pairs_condition():
    # Orders are c's successful MRO and random permutations of up(c)
    # headed by c, which mostly violate some list.
    rng = random.Random(21)
    verdicts = []
    for seed in range(100):
        p, assignment = grown_relaxed_lists(seed, drop=0)
        validate_assignment(p, assignment)
        for c in range(p.n):
            orders = [c3_mro(p, assignment, c)]
            for _ in range(3):
                rest = sorted(p.up_set(c) - {c})
                rng.shuffle(rest)
                orders.append((c, *rest))
            for order in orders:
                if isinstance(order, MergeFailure):
                    continue
                verdict = check_local_consistency(p, assignment, order)
                assert verdict == _local_by_all_pairs(assignment, order), (seed, c, order)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_relaxed_lists_trade_extended_consistency():
    # Forcing E D C B A via the extra B necessarily breaks the extended
    # condition (the only consistent MRO is E D B A C).
    p = deviates()
    mro = c3_mro(p, FIXED_LISTS, 4)
    assert check_local_consistency(p, FIXED_LISTS, mro)
    assert not check_extended_consistency(p, FIXED_LISTS, mro)


def test_oracle_on_paper_example():
    p = deviates()
    assert consistent_mro_oracle(p, DEVIATES_LISTS, 4) == (4, 3, 1, 0, 2)


def test_oracle_none_when_no_consistent_order():
    p = clash()
    lists = {0: (), 1: (), 2: (0, 1), 3: (1, 0), 4: (2, 3)}
    assert consistent_mro_oracle(p, lists, 4) is None


def test_oracle_size_limit():
    p = poset_h().add_bottom("Z")
    a = induced_assignment(p, next(p.linear_extensions()))
    with pytest.raises(ValueError):
        consistent_mro_oracle(p, a, 0)


def test_monotone_on_success():
    p = deviates()
    assert check_monotone(p, DEVIATES_LISTS, 4)
    cache: dict = {}
    assert check_monotone(p, FIXED_LISTS, 4, cache)
    assert set(cache) == p.up_set(4)


def test_monotone_raises_on_failure():
    p = clash()
    lists = {0: (), 1: (), 2: (0, 1), 3: (1, 0), 4: (2, 3)}
    with pytest.raises(LinearizationFailedError):
        check_monotone(p, lists, 4)


# -- CPython as an independent C3 oracle --------------------------------


def _assert_matches_python(p: Poset, assignment):
    expected = python_mros(p, assignment)
    cache: dict = {}
    for x in range(p.n):
        ours = c3_mro(p, assignment, x, cache)
        if expected[x] is None:
            assert isinstance(ours, MergeFailure), (p, x)
        else:
            assert ours == expected[x], (p, x)


def test_cpython_agrees_on_examples():
    _assert_matches_python(deviates(), DEVIATES_LISTS)
    _assert_matches_python(deviates(), FIXED_LISTS)
    _assert_matches_python(clash(), {0: (), 1: (), 2: (0, 1), 3: (1, 0), 4: (2, 3)})


def test_cpython_agrees_on_all_small_posets():
    for n in range(1, 5):
        for p in posets_of_size(n):
            for ext in p.linear_extensions():
                _assert_matches_python(p, induced_assignment(p, ext))


def test_cpython_agrees_on_h():
    p = poset_h()
    for ext in p.linear_extensions():
        _assert_matches_python(p, induced_assignment(p, ext))


@st.composite
def relaxed_assignments(draw):
    """A random poset on up to 12 elements and a valid relaxed assignment:
    each element lists its covers and a random set of other strict
    superiors, in a random order."""
    p, _g = draw(posets_with_extension())
    assignment = {}
    for c in range(p.n):
        covers = p.upper_covers(c)
        extra = [x for x in range(p.n) if p.lt(c, x) and x not in covers and draw(st.booleans())]
        assignment[c] = tuple(draw(st.permutations([*covers, *extra])))
    return p, assignment


@settings(max_examples=300, deadline=None, derandomize=True)
@given(relaxed_assignments())
def test_cpython_agrees_on_random_relaxed_assignments(case):
    p, assignment = case
    validate_assignment(p, assignment)
    _assert_matches_python(p, assignment)


def test_long_chain_without_recursion_limit():
    # Construction and MRO computation are iterative: a chain far deeper
    # than the interpreter's recursion limit builds and linearizes.
    n = 3000
    p = Poset(n, [(i, i + 1) for i in range(n - 1)])
    assert c3_mro(p, induced_assignment(p, range(n)), 0) == tuple(range(n))


def test_cyclic_lists_rejected():
    p = Poset(2, [])
    with pytest.raises(ValueError, match="cyclic"):
        c3_mro(p, {0: (1,), 1: (0,)}, 0)
