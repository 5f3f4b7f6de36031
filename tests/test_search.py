"""Class generation, the C3 experiment, and the map-reduce search."""

from __future__ import annotations

import gc
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import fields
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c3control import (
    MergeFailure,
    Poset,
    ResourceLimitError,
    SearchRecord,
    c3_mro,
    find_infeasible,
    induced_assignment,
    map_reduce_search,
    poset_h,
    run_experiment,
)
from c3control.search import _c3_all_fail_counts, iso_classes, screen_infeasible

from conftest import natural_poset, posets_of_size, python_mros, random_posets, twin_posets

LABELED = [1, 1, 2, 7, 40, 357]
ISO = [1, 1, 2, 5, 16, 63]


def test_tree_counts_small():
    for n, expected in enumerate(LABELED):
        assert len(posets_of_size(n)) == expected


def test_tree_children_are_valid_extensions_of_parent():
    # The labeled generator's posets on k + 1 elements: element k is
    # maximal, dropping it recovers one of the posets on k elements, and
    # the identity stays a linear extension.
    for k in range(5):
        parents = {p.covers for p in posets_of_size(k)}
        for child in posets_of_size(k + 1):
            assert k in child.maximal_elements()
            assert child.restrict(range(k)).covers in parents
            assert child.is_linear_extension(tuple(range(k + 1)))


def test_every_class_drops_a_maximal_element_into_the_level_below():
    # The premise of class-by-class generation: removing any maximal
    # element of a class on n elements leaves a class on n - 1 elements.
    for n in range(1, 7):
        below = {key for key, _ in iso_classes(n - 1)}
        for key, _ in iso_classes(n):
            p = Poset.from_canonical_key(key)
            assert p.canonical_form() == key
            for m in p.maximal_elements():
                rest = [x for x in range(n) if x != m]
                assert p.restrict(rest).canonical_form() in below


def _brute_force_automorphisms(p: Poset) -> int:
    return sum(
        1
        for perm in permutations(range(p.n))
        if {(perm[c], perm[a]) for c, a in p.covers} == p.covers
    )


def test_automorphism_counts_match_brute_force():
    for n in range(7):
        for key, automorphisms in iso_classes(n):
            p = Poset.from_canonical_key(key)
            assert automorphisms == _brute_force_automorphisms(p), key
            # canonical_form computes the same key for any labeling
            relabeled = p.relabel(list(reversed(range(n))))
            assert relabeled.canonical_form() == key


def test_labeled_counts_match_labeled_generator():
    # e / |Aut| naturally labeled members per class, against the labeled
    # generator's posets grouped by key.
    for n in range(7):
        grouped = Counter(p.canonical_form() for p in posets_of_size(n))
        summary = map_reduce_search(n)
        assert {r.canonical_key: r.labeled_count for r in summary.records} == grouped


def direct_c3_counts(p: Poset) -> tuple[int, int]:
    """(extensions, failures) of plain c3_mro at the bottom of
    ``p.add_bottom()``, one run per linear extension's induced lists."""
    b = p.add_bottom()
    exts = 0
    fails = 0
    for g in b.linear_extensions():
        assert g[0] == 0  # the bottom leads every extension
        exts += 1
        if isinstance(c3_mro(b, induced_assignment(b, g), 0), MergeFailure):
            fails += 1
    return exts, fails


def test_run_experiment_against_direct_c3(h_upper):
    # The memoised walk, full and screened, must agree with plain
    # per-extension c3_mro.  Its merges are keyed on their input MROs; a
    # coarser key (the cover ids, or the element alone) reuses merges
    # whose inputs differ and miscounts some of these posets.  It places
    # each class of twins least id first and weighs each extension it
    # reaches by the product of the classes' factorials; the posets with
    # twins fail on no, some and every extension.
    small = [p for n in range(6) for p in posets_of_size(n)]
    larger = [h_upper, h_upper.relabel(random.Random(7).sample(range(9), 9))]
    larger += random_posets(seed=13, count=20, sizes=range(8, 11), max_extensions=1500)
    larger += twin_posets()
    for p in small + larger:
        exts, fails = direct_c3_counts(p)
        assert _c3_all_fail_counts(p) == (exts, fails)
        assert _c3_all_fail_counts(p, screen=True) == (None if fails < exts else (exts, fails))
    for p in small:
        record = run_experiment(p)
        assert (record.extension_count, record.failure_count) == _c3_all_fail_counts(p)
        assert record.labeled_count == 1
        assert record.canonical_key == p.canonical_form()


def test_run_experiment_h_minus_f():
    upper = poset_h().restrict(range(9))
    record = run_experiment(upper)
    assert record.extension_count == 720
    assert record.failure_count == 720
    assert record.infeasible


def test_experiment_on_long_chains():
    # The walk and its extension-counting DP keep their frames off the
    # call stack.
    n = 2000
    assert _c3_all_fail_counts(Poset(n, [(i, i + 1) for i in range(n - 1)])) == (1, 0)
    # H with a chain of 1,500 elements under F: F's merge fails on every
    # path, and the DP counts the extensions of the chain below it.
    h = poset_h()
    k = 1500
    covers = [*h.covers, (h.n, h.id_of("F"))]
    covers += [(h.n + i + 1, h.n + i) for i in range(k - 1)]
    assert _c3_all_fail_counts(Poset(h.n + k, covers)) == (720, 720)


def test_map_reduce_counts():
    for n, (labeled, iso) in enumerate(zip(LABELED, ISO)):
        summary = map_reduce_search(n)
        assert summary.labeled_poset_count == labeled
        assert summary.iso_class_count == iso
        assert summary.infeasible == ()
        assert sum(r.labeled_count for r in summary.records) == labeled


def test_map_reduce_extension_totals_match_direct_sum():
    n = 4
    summary = map_reduce_search(n)
    direct = sum(run_experiment(p).extension_count for p in posets_of_size(n))
    assert sum(r.extension_count for r in summary.records) == direct


def test_worker_count_does_not_change_result():
    base = map_reduce_search(5, workers=1)
    for workers in (2, 3):
        other = map_reduce_search(5, workers=workers)
        assert other == base


def test_summary_keeps_only_keys_and_counts():
    # A record holds its key and counts, and decodes its representative
    # on access.  A Poset stored per record would keep about 2.1 KB alive
    # per class at n = 6.
    assert [f.name for f in fields(SearchRecord)] == [
        "canonical_key", "extension_count", "failure_count", "labeled_count"
    ]
    map_reduce_search(4)  # warm up: imports and lazily built state
    tracemalloc.start()
    try:
        summary = map_reduce_search(6)
        gc.collect()  # also empties the free lists, whose blocks are traced
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_record = kept / summary.iso_class_count
    assert per_record < 500, f"{per_record:.0f} B kept alive per record"


def test_large_depth_gated():
    with pytest.raises(ResourceLimitError):
        map_reduce_search(8)
    with pytest.raises(ResourceLimitError):
        find_infeasible(9)


def test_find_infeasible_empty_small():
    for n in range(6):
        assert find_infeasible(n) == []
    assert find_infeasible(7, workers=2) == []


def test_screen_stops_only_on_feasible_classes(h_upper):
    # The screen gives None exactly where some extension succeeds, and
    # the full counts otherwise.
    for n in range(7):
        for key, _ in iso_classes(n):
            p = Poset.from_canonical_key(key)
            exts, fails = _c3_all_fail_counts(p)
            screened = _c3_all_fail_counts(p, screen=True)
            assert screened == (None if fails < exts else (exts, fails))
    assert _c3_all_fail_counts(h_upper, screen=True) == (720, 720)


@pytest.mark.parametrize("workers", [1, 2])
def test_screen_records_infeasible_classes(h_upper, workers):
    key = h_upper.canonical_form()
    classes = [(b"\x00", 1), (key, 6)]
    (record,) = screen_infeasible(classes, workers=workers)
    assert record.canonical_key == key
    assert record.representative.canonical_form() == key
    # 720 extensions over 6 automorphisms: 120 labeled members
    assert record.labeled_count == 120
    assert record.extension_count == record.failure_count == 120 * 720


def test_n9_has_one_infeasible_class_h_minus_f(h_upper):
    # The paper's result: of the 183,231 isomorphism classes of posets on
    # 9 elements (OEIS A000112), exactly one admits no induced assignment
    # on which C3 succeeds at an adjoined bottom: H without its bottom F.
    start = time.perf_counter()
    classes = iso_classes(9, allow_large=True)
    infeasible = screen_infeasible(classes)
    elapsed = time.perf_counter() - start
    assert len(classes) == 183_231
    assert [r.canonical_key for r in infeasible] == [h_upper.canonical_form()]
    assert infeasible[0].infeasible
    assert elapsed < 600.0, f"n = 9 took {elapsed:.0f} s single-threaded"


def test_oracle_never_contradicts_experiment():
    # One-sided cross-check: whenever the exhaustive oracle finds a
    # consistent order, C3 must succeed with exactly that order.  (The
    # converse is false; see the docstring of acceptance criterion 8.)
    from c3control import consistent_mro_oracle

    for n in range(5):
        for p in posets_of_size(n):
            b = p.add_bottom()
            for g in b.linear_extensions():
                a = induced_assignment(b, g)
                oracle = consistent_mro_oracle(b, a, 0)
                if oracle is not None:
                    assert c3_mro(b, a, 0) == oracle


def test_representatives_have_reported_size():
    summary = map_reduce_search(4)
    for r in summary.records:
        assert isinstance(r.representative, Poset)
        assert r.representative.n == 4
        assert r.representative.canonical_form() == r.canonical_key


@st.composite
def posets_with_permutation(draw):
    """A random poset on up to 7 elements and a permutation of its ids."""
    n = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    related = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    p = natural_poset(n, [pair for pair, rel in zip(pairs, related) if rel])
    return p, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(posets_with_permutation())
def test_experiment_is_isomorphism_invariant(case):
    # The search runs the experiment once per canonical key; that is
    # sound only because relabeling changes none of these fields.
    p, perm = case
    a = run_experiment(p)
    b = run_experiment(p.relabel(perm))
    assert (a.canonical_key, a.extension_count, a.failure_count) == (
        b.canonical_key,
        b.extension_count,
        b.failure_count,
    )


def test_per_class_totals_match_labeled_experiments():
    # n = 5 is the first depth with failures.  Every labeled poset is
    # run on its own here and grouped by key; the search runs one
    # experiment per class and scales it by the labeled count.
    direct: dict[bytes, list[int]] = {}
    for p in posets_of_size(5):
        r = run_experiment(p)
        totals = direct.setdefault(r.canonical_key, [0, 0, 0])
        totals[0] += 1
        totals[1] += r.extension_count
        totals[2] += r.failure_count
    summary = map_reduce_search(5)
    assert {
        r.canonical_key: [r.labeled_count, r.extension_count, r.failure_count]
        for r in summary.records
    } == direct
    assert sum(totals[2] for totals in direct.values()) == 24


def _cover_only_assignments(p: Poset):
    """Every assignment listing exactly each element's covers, in every
    order."""
    orders = [list(permutations(p.upper_covers(c))) for c in range(p.n)]
    for choice in product(*orders):
        yield dict(enumerate(choice))


def test_h_fails_on_every_cover_only_assignment(h):
    # Not only the 720 induced assignments: all 2**6 * 3! = 384 orders of
    # H's cover lists make C3 and CPython fail at the bottom F.
    bottom = h.id_of("F")
    count = 0
    for a in _cover_only_assignments(h):
        count += 1
        assert isinstance(c3_mro(h, a, bottom), MergeFailure)
        assert python_mros(h, a)[bottom] is None
    assert count == 384


def test_successful_cover_only_assignments_are_induced():
    # The search tries only induced assignments; the paper's claim covers
    # every choice of lists.  The two agree because a successful C3 run
    # respects every local precedence order in the up-set (Barrett et
    # al., OOPSLA 1996): the lists are those induced by the MRO itself.
    successes = 0
    for n in range(7):
        for key, _ in iso_classes(n):
            b = Poset.from_canonical_key(key).add_bottom()
            for a in _cover_only_assignments(b):
                mro = c3_mro(b, a, 0)
                if not isinstance(mro, MergeFailure):
                    successes += 1
                    assert a == induced_assignment(b, mro)
    assert successes > 0
