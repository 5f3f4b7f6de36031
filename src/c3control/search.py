"""Exhaustive search over small posets for C3-infeasible hierarchies.

The search generates isomorphism classes of posets, not labeled posets.
Every poset on k elements is a poset on k - 1 elements plus one maximal
element whose lower covers form an antichain, so the children of the
level k - 1 class representatives, one per antichain, meet every class
on k elements.  Children are deduplicated by canonical key (isomorph
rejection, after McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998), and a class's representative is the poset decoded
from its key.  Two rules reject an antichain before its child is
canonicalised, and both are exact: every class keeps a child that
passes them.  The down-set rule keeps only children whose new element
has a down-set at least as large as every other maximal element's
(deleting such an element from a class gives a parent that yields the
class back), and the twin rule keeps one antichain per orbit of the
parent's twin swaps, which are automorphisms.  Brinkmann and McKay
("Posets on up to 16 points", Order 2002) enumerate posets with the same
scheme.

The C3 experiment (adjoin a bottom element, run C3 for every linear
extension with the induced cover-only, extension-sorted precedence
lists, merged by ``linearize.merge_kernel``) depends only on the class,
so it runs once per class at the target depth.  Its extension count e
also counts the class's labeled members: a class has e / |Aut| naturally
labeled posets (the identity is a linear extension), and its extension
and failure totals are that labeled count times the experiment's
result.  ``find_infeasible`` screens every class instead, stopping at
the first extension on which C3 succeeds, and counts in full only the
classes on which it never does.  Within one experiment a merge depends
only on its input MROs, so each distinct merge runs once, memoised on
the tuple of those MROs.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import partial

from .errors import ResourceLimitError
from .linearize import MergeFailure, merge_kernel
from .poset import Poset, canonical_key, superiors_first, twin_walk, walk_automorphisms


@dataclass(frozen=True)
class SearchRecord:
    canonical_key: bytes
    extension_count: int
    failure_count: int
    labeled_count: int

    @property
    def representative(self) -> Poset:
        """Decoded on each access: a record holds only its key and counts."""
        return Poset.from_canonical_key(self.canonical_key)

    @property
    def infeasible(self) -> bool:
        return self.failure_count == self.extension_count


@dataclass(frozen=True)
class SearchSummary:
    n: int
    labeled_poset_count: int
    iso_class_count: int
    records: tuple[SearchRecord, ...]

    @property
    def infeasible(self) -> tuple[SearchRecord, ...]:
        return tuple(r for r in self.records if r.infeasible)


# -- C3 over induced assignments ---------------------------------------


def _c3_all_fail_counts(
    p: Poset, screen: bool = False, automorphisms: int | None = None
) -> tuple[int, int] | None:
    """(extension_count, failure_count) for the poset with a bottom
    adjoined, over all linear extensions of the upper part, walked by
    ``poset.superiors_first``: its step merges the placed element's MRO,
    and the bottom's after the last element.  A failed merge cuts off
    the subtree, counted whole as failures; each extension reached is
    one success.  With ``screen``, the walk stops at the first extension
    on which C3 succeeds and returns None.

    Relabeling the poset by an automorphism relabels the induced lists
    alike and leaves C3's outcome unchanged, so the walk reaches one
    extension per orbit of the automorphism group and both counts are
    multiplied by its order.  It runs on the ``poset.twin_walk`` order,
    which places each class of twins (elements with the same upper and
    lower covers) least id first, and passes ``poset.walk_automorphisms``,
    the automorphisms that remain, to the walk, which then reaches the
    least extension of each of their orbits.  ``automorphisms`` is the
    order of the group when the caller knows it; those automorphisms are
    then looked for only when it exceeds the twin weight, the product of
    the twin classes' factorials.  ``place`` still merges the real
    covers.  The walk visits a subsequence of the plain walk's
    extensions, in the same order.  An orbit's least member comes no
    later than any other member, and C3 succeeds on it exactly when on
    them, so a screen stops no later than it would on every extension.
    The first extension is the least of its orbit, and on most classes
    C3 succeeds on it (on 12,692 of the 12,881 classes of 9 elements
    whose automorphisms go beyond twin swaps), so a screen first walks
    to its first success or failure without looking for automorphisms.

    Every merge of two or more MROs is memoised for the call on the
    tuple of its input MROs, an exact key: the merged lists are those
    MROs and the list of their heads (on the bench's seed-1
    ``instrument-extensions`` posets, 1,892 kernel calls for 39,974
    merges).  The cover ids alone are too coarse a key: they miscount
    posets of five elements.  The bottom's merges share the memo: their
    keys, MROs of minimal elements, never meet an element's, MROs of its
    upper covers, as no element lies below a minimal one.

    The walk runs on a natural relabeling, ids ascending from the most
    derived element, because the extensions it then tries first let C3
    succeed far more often: on seeded samples of the posets of 9
    elements, a screen runs six to seven times fewer merges than on
    their canonical labelings.
    """
    n = p.n
    order = sorted(range(n), key=lambda x: -p._up_mask[x].bit_count())
    new = [0] * n
    for i, x in enumerate(order):
        new[x] = i
    upper = [tuple(new[a] for a in p._upper[x]) for x in order]
    lower = [tuple(new[c] for c in p._lower[x]) for x in order]
    minimals = [new[x] for x in p.minimal_elements()]
    bottom_at = n - 1 if len(minimals) > 1 else -1  # one minimal: C3 cannot fail

    # A maximal element's MRO is (x,) on every path: one tuple, so the
    # memo's keys share it.
    mros: list = [(x,) for x in range(n)]
    revpos = [0] * n
    revkey = revpos.__getitem__
    merges: dict = {}

    def merge(covs):
        lst = sorted(covs, key=revkey, reverse=True)
        inputs = tuple(map(mros.__getitem__, lst))
        merged = merges.get(inputs)
        if merged is None:
            merged = merges[inputs] = merge_kernel([*inputs, lst], n)
        return merged

    def place(x: int, depth: int) -> bool:
        covs = upper[x]
        revpos[x] = depth
        if len(covs) == 1:
            # merge(MRO(b), (b,)) is always MRO(b)
            mros[x] = (x, *mros[covs[0]])
        elif covs:
            merged = merge(covs)
            if isinstance(merged, MergeFailure):
                return False
            mros[x] = (x, *merged)
        # The last element completes the extension: merge the bottom.
        return depth != bottom_at or not isinstance(merge(minimals), MergeFailure)

    walk_upper, walk_lower, weight = twin_walk(upper, lower)
    symmetries = []
    if automorphisms is None or automorphisms > weight:
        if screen and not next(superiors_first(walk_upper, walk_lower, place)):
            return None
        symmetries = walk_automorphisms(
            upper,
            lower,
            [p._up_mask[x].bit_count() for x in order],
            [p._down_mask[x].bit_count() for x in order],
        )
        weight *= len(symmetries) + 1
    exts = fails = 0
    for cut in superiors_first(walk_upper, walk_lower, place, symmetries):
        if screen and not cut:
            return None
        exts += cut or 1
        fails += cut
    return exts * weight, fails * weight


def run_experiment(poset_upper: Poset) -> SearchRecord:
    """Adjoin a bottom element, run C3 for every linear extension with the
    induced precedence lists, and tally failures.  The record keeps the
    upper poset's canonical key, so its ``representative`` is the class's
    canonical labeling, not ``poset_upper``."""
    key, automorphisms = canonical_key(
        poset_upper._upper, poset_upper._lower, poset_upper._up_mask, poset_upper._down_mask
    )
    exts, fails = _c3_all_fail_counts(poset_upper, automorphisms=automorphisms)
    return SearchRecord(
        canonical_key=key,
        extension_count=exts,
        failure_count=fails,
        labeled_count=1,
    )


# -- class generation --------------------------------------------------


def iso_classes(n: int, allow_large: bool = False) -> list[tuple[bytes, int]]:
    """Every isomorphism class of posets on ``n`` elements, as
    ``(canonical key, automorphism count)`` pairs sorted by key.

    Depths 8 and above are rejected unless ``allow_large`` is set.
    """
    if n < 0:
        raise ValueError("depth must be non-negative")
    if n >= 8 and not allow_large:
        raise ResourceLimitError(
            f"depth {n} requires allow_large=True (long-running computation)"
        )
    level = {b"\x00": 1}
    for k in range(n):
        level = _next_level(level, k)
    return sorted(level.items())


def _next_level(keys, k: int) -> dict[bytes, int]:
    """The classes on ``k + 1`` elements, mapped to their automorphism
    counts: each representative on ``k`` elements gets a new maximal
    element ``k`` covering exactly one of its antichains.

    Two rules reject an antichain before its child is canonicalised, and
    every class on ``k + 1`` elements keeps a child that passes both.
    - Down-set rule: skip it when some maximal element of the parent has
      a strictly larger down-set than the new element.  A class has a
      maximal element x whose down-set is the largest among its maximal
      elements.  Deleting x leaves a parent whose maximal elements are
      maximal in the class or lie below x, so the child that adds x back
      to the parent's representative passes.  A member of the antichain
      lies below the new element, so it needs no exception.
    - Twin rule: skip it when it holds a twin but not that twin's next
      smaller twin (twins have the same upper and lower covers; the
      chain is ``poset.twin_walk``'s).  Swapping two twins is an
      automorphism of the parent: it maps an antichain to one whose
      child is isomorphic and whose new element has the same down-set,
      and each orbit of such swaps holds exactly one antichain that
      takes each class of twins least id first.
    """
    out: dict[bytes, int] = {}
    newbit = 1 << k
    for key in keys:
        p = Poset.from_canonical_key(key)
        upper, lower = p._upper, p._lower
        up, down = p._up_mask, p._down_mask
        largest_down = max([down[x].bit_count() for x in p.maximal_elements()], default=0)
        walk_upper = twin_walk(upper, lower)[0]
        # each element's next smaller twin, as a bit (0 if it has none)
        twin = [1 << w[-1] if len(w) > len(u) else 0 for w, u in zip(walk_upper, upper)]
        for chain in p.antichains():
            down_k = newbit
            members = needed = 0
            for x in chain:
                down_k |= down[x]
                members |= 1 << x
                needed |= twin[x]
            if needed & ~members or down_k.bit_count() < largest_down:
                continue
            child, automorphisms = canonical_key(
                [upper[x] + (k,) if members >> x & 1 else upper[x] for x in range(k)] + [()],
                lower + (chain,),
                [up[y] | newbit if down_k >> y & 1 else up[y] for y in range(k)] + [newbit],
                down + (down_k,),
            )
            out.setdefault(child, automorphisms)
    return out


def _record(key: bytes, automorphisms: int, counts) -> SearchRecord:
    """A class's record: its e / |Aut| labeled members times the
    experiment's ``(extensions, failures)``."""
    exts, fails = counts
    labeled, rest = divmod(exts, automorphisms)
    if rest:
        raise AssertionError(
            f"{automorphisms} automorphisms do not divide {exts} extensions"
        )
    return SearchRecord(
        canonical_key=key,
        extension_count=labeled * exts,
        failure_count=labeled * fails,
        labeled_count=labeled,
    )


def _experiment(cls: tuple[bytes, int], screen: bool) -> tuple[int, int] | None:
    """The experiment on the class ``(key, automorphisms)``; None if
    screened out."""
    key, automorphisms = cls
    return _c3_all_fail_counts(Poset.from_canonical_key(key), screen, automorphisms)


def _experiments(
    classes: list[tuple[bytes, int]], workers: int, screen: bool = False
) -> list[tuple[int, int] | None]:
    """``_experiment`` for every class, in order.  It runs in this
    process, or in a pool of ``workers`` processes, at most one per
    class, that takes the classes in chunks."""
    workers = min(workers, len(classes))
    if workers <= 1:
        return [_experiment(cls, screen) for cls in classes]
    chunk = max(1, len(classes) // (workers * 8))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(partial(_experiment, screen=screen), classes, chunksize=chunk)


def map_reduce_search(
    n: int,
    workers: int = 1,
    allow_large: bool = False,
) -> SearchSummary:
    """Generate the isomorphism classes on ``n`` elements, run the C3
    experiment once per class, and aggregate per class: a class has
    e / |Aut| labeled members, and its extension and failure counts are
    that labeled count times the experiment's result.

    The classes are generated in this process; with several ``workers``
    a pool of at most one process per class runs the experiments over
    chunks of them.  The result is independent of ``workers``.  Depths 8
    and above are rejected unless ``allow_large`` is set: n = 8 takes
    9.9 s on one CPU of a 2-core x86-64 machine, about 0.5 s of it
    generating the classes, and at n = 9 ``find_infeasible``, which
    screens instead of counting, answers in 13.6–13.7 s, about 5.4 s of
    it generating the classes.
    """
    classes = iso_classes(n, allow_large)
    results = _experiments(classes, workers)
    records = tuple(_record(*c, counts) for c, counts in zip(classes, results))
    return SearchSummary(
        n=n,
        labeled_poset_count=sum(r.labeled_count for r in records),
        iso_class_count=len(records),
        records=records,
    )


def screen_infeasible(
    classes: list[tuple[bytes, int]], workers: int = 1
) -> list[SearchRecord]:
    """Records of the infeasible classes among ``classes``, given as by
    ``iso_classes``.  The experiment on a class stops at the first linear
    extension on which C3 succeeds, so only infeasible classes are
    counted in full."""
    results = _experiments(classes, workers, screen=True)
    return [_record(*c, counts) for c, counts in zip(classes, results) if counts is not None]


def find_infeasible(
    n: int,
    workers: int = 1,
    allow_large: bool = False,
) -> list[Poset]:
    """Representatives of the iso classes at depth ``n`` on which every
    linear-extension-induced assignment makes C3 fail."""
    infeasible = screen_infeasible(iso_classes(n, allow_large), workers)
    return [r.representative for r in infeasible]
