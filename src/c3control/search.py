"""Exhaustive search over small posets for C3-infeasible hierarchies.

The search generates isomorphism classes of posets, not labeled posets.
Every poset on k elements is a poset on k - 1 elements plus one maximal
element whose lower covers form an antichain, so the children of the
level k - 1 class representatives, one per antichain, meet every class
on k elements.  Children are deduplicated by canonical key (isomorph
rejection, after McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998), and a class's representative is the poset decoded
from its key.

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
from .poset import Poset, canonical_key, superiors_first, twin_walk


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


def _c3_all_fail_counts(p: Poset, screen: bool = False) -> tuple[int, int] | None:
    """(extension_count, failure_count) for the poset with a bottom
    adjoined, over all linear extensions of the upper part, walked by
    ``poset.superiors_first``: its step merges the placed element's MRO,
    and the bottom's after the last element.  A failed merge cuts off
    the subtree, counted whole as failures; each extension reached is
    one success.  With ``screen``, the walk stops at the first extension
    on which C3 succeeds and returns None.

    The walk runs on the ``poset.twin_walk`` order, which places each
    class of twins (elements with the same upper and lower covers) least
    id first, and both counts are multiplied by its weight, the product
    of the classes' factorials: relabeling the poset by an automorphism
    relabels the induced lists alike and leaves C3's outcome unchanged.
    ``place`` still merges the real covers.  The walk visits a
    subsequence of the plain walk's extensions, in the same order, and
    the first extension on which C3 succeeds is in it (sorting its twins
    gives an earlier extension that also succeeds), so a screen stops
    where it would on every extension.

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
    exts = fails = 0
    for cut in superiors_first(walk_upper, walk_lower, place):
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
    exts, fails = _c3_all_fail_counts(poset_upper)
    return SearchRecord(
        canonical_key=poset_upper.canonical_form(),
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
    element ``k`` covering exactly one of its antichains."""
    out: dict[bytes, int] = {}
    newbit = 1 << k
    for key in keys:
        p = Poset.from_canonical_key(key)
        upper, lower = p._upper, p._lower
        up, down = p._up_mask, p._down_mask
        for chain in p.antichains():
            down_k = newbit
            for x in chain:
                down_k |= down[x]
            child, automorphisms = canonical_key(
                [upper[x] + (k,) if x in chain else upper[x] for x in range(k)] + [()],
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


def _experiment(key: bytes, screen: bool) -> tuple[int, int] | None:
    """The experiment on the class of ``key``; None if screened out."""
    return _c3_all_fail_counts(Poset.from_canonical_key(key), screen)


def _experiments(
    keys: list[bytes], workers: int, screen: bool = False
) -> list[tuple[int, int] | None]:
    """``_experiment`` for every key, in order.  It runs in this process,
    or in a pool of ``workers`` processes, at most one per key, that takes
    the keys in chunks."""
    workers = min(workers, len(keys))
    if workers <= 1:
        return [_experiment(key, screen) for key in keys]
    chunk = max(1, len(keys) // (workers * 8))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.map(partial(_experiment, screen=screen), keys, chunksize=chunk)


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
    about 28 s on one CPU of a 2-core x86-64 machine, most of it in the
    experiments, and at n = 9 ``find_infeasible``, which screens instead
    of counting, answers in about a minute.
    """
    classes = iso_classes(n, allow_large)
    results = _experiments([key for key, _ in classes], workers)
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
    results = _experiments([key for key, _ in classes], workers, screen=True)
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
