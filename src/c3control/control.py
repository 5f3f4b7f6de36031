"""Instrumented C3: given a poset and a global order, compute the minimal
precedence lists that force C3 to reproduce that order; plus the brute
force baseline, a comparison-count probe, and the bit-flag sort key
scheme for choosing global orders.  Each element's replay is one run
of ``linearize.merge_kernel``, the one merge loop of the package, which
inserts into the element's list as it merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InputError, LinearizationFailedError, NotLinearExtensionError
from .linearize import MergeFailure, StepCounter, c3_mro, merge_kernel
from .poset import Poset, superiors_first, twin_walk


@dataclass(frozen=True)
class InstrumentationResult:
    """Output of c3_instrumented.

    ``assignment`` maps each element to its final precedence list (covers
    plus insertions, sorted by the global order); ``additions`` records,
    per element, the inserted non-cover elements in insertion order.
    """

    assignment: dict[int, tuple[int, ...]]
    additions: dict[int, tuple[int, ...]]
    total_added: int


def _require_extension(p: Poset, g: Sequence[int]) -> dict[int, int]:
    if not p.is_linear_extension(g):
        raise NotLinearExtensionError(
            f"{[p.names[x] for x in g]} is not a linear extension"
        )
    return {x: i for i, x in enumerate(g)}


def _strict_up_sets(p: Poset, g: Sequence[int], pos: Mapping[int, int]) -> list[tuple[int, ...]]:
    """Each element's strict up-set sorted by ``g``, indexed by id.  Each
    is built from its upper covers' up-sets, superiors first along
    ``reversed(g)``, so the cost follows the up-set sizes rather than n
    per element."""
    ups: list[tuple[int, ...]] = [()] * p.n
    for c in reversed(g):
        covers = p.upper_covers(c)
        above = set(covers)
        for b in covers:
            above.update(ups[b])
        ups[c] = tuple(sorted(above, key=pos.__getitem__))
    return ups


def _replay(covers, target, mros, key) -> tuple[list[int], list[int]]:
    """Minimal precedence list of an element whose strict up-set, sorted
    by the global order, is ``target``, given the final ``mros`` of its
    superiors; ``key`` sorts by the global order.  Returns the list, grown
    from the element's covers by one ``merge_kernel`` run with
    ``want=target``, and the inserted elements in insertion order.

    The run inserts past every list pointer, so it gives the list of a
    replay that restarts after each insertion.  It leaves out the MROs of
    inserted elements, which c3_mro merges too; they would change no
    step: an inserted x lies above a cover b whose MRO, earlier in the
    scan, holds x's, and as the output follows the g-sorted target, x's
    MRO's tail stays inside b's and its good heads are b's heads too.
    """
    clist = sorted(covers, key=key)
    if not clist:
        return clist, []
    # Every merged id is a strict superior, so it lies in the target.
    inserted = merge_kernel([*(mros[b] for b in clist), clist], 1 + max(target), want=target)
    return clist, inserted


def c3_instrumented(p: Poset, g: Sequence[int]) -> InstrumentationResult:
    """Compute minimal precedence lists making C3 reproduce ``g``.

    Elements are processed least-derived first along ``g`` so every listed
    superior's MRO is final before its inferiors are handled.  Each
    element's list comes from ``_replay`` against its target order (g
    restricted to the element's strict up-set), one ``merge_kernel`` run
    per element: whenever the merge's first good head deviates from the
    target, the offending element is inserted at its g-sorted position
    (preceded by the target element if absent) and the step is retried.
    """
    pos = _require_extension(p, g)
    ups = _strict_up_sets(p, g, pos)
    mros: dict[int, tuple[int, ...]] = {}
    assignment: dict[int, tuple[int, ...]] = {}
    additions: dict[int, tuple[int, ...]] = {}

    for c in reversed(g):
        target = ups[c]
        clist, inserted = _replay(p.upper_covers(c), target, mros, pos.__getitem__)
        mros[c] = (c, *target)
        assignment[c] = tuple(clist)
        if inserted:
            additions[c] = tuple(inserted)

    return InstrumentationResult(
        assignment=assignment,
        additions=additions,
        total_added=sum(len(v) for v in additions.values()),
    )


def brute_force_assignment(p: Poset, g: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Each element lists its whole strict up-set in global order.

    The head of the first merge input is then always good, so C3
    reproduces ``g`` on every up-set, at a price cubic in merge tests
    (``merge_step_count``) on deep chains.  ``c3_mro`` itself merges two
    lists per element on a chain: every other listed MRO is inside the
    first one.
    """
    return dict(enumerate(_strict_up_sets(p, g, _require_extension(p, g))))


def count_additions_per_extension(p: Poset) -> dict[int, int]:
    """Histogram: total insertions made by c3_instrumented, tallied over
    every linear extension of the poset.

    The extensions come from ``poset.superiors_first``: an element's
    target is then the placed part of its strict up-set, most derived
    first, so each walk node runs ``_replay``, one kernel run, for one
    element instead of each extension replaying every element.  An
    element's insertion count depends only on its covers, its target and
    its superiors' MROs, and each of those is the element's own MRO
    ``(x, *target)`` restricted to the superior's up-set; so the count is
    memoised on that MRO, that is on (element, target), for the duration
    of the call.

    The walk runs on the ``poset.twin_walk`` order, which places each
    class of twins (elements with the same upper and lower covers) least
    id first, and each extension reached is tallied ``weight`` times, the
    product of the classes' factorials: an automorphism that swaps twins
    maps an extension's instrumentation onto its image's, insertion
    counts included.  ``_replay`` still grows the lists from the real
    covers.
    """
    n = p.n
    upper = p._upper
    ups = [tuple(y for y in range(n) if y != x and up >> y & 1) for x, up in enumerate(p._up_mask)]
    placed_at = [0] * n
    depth_of = placed_at.__getitem__
    key = lambda x: -placed_at[x]  # later placed is more derived
    totals = [0] * (n + 1)  # totals[d]: insertions made by depths below d
    mros: list = [None] * n
    memo: dict[tuple[int, ...], int] = {}
    histogram: dict[int, int] = {}

    def place(x: int, depth: int) -> bool:
        mro = (x, *sorted(ups[x], key=depth_of, reverse=True))
        added = memo.get(mro)
        if added is None:
            added = memo[mro] = len(_replay(upper[x], mro[1:], mros, key)[1])
        mros[x] = mro
        placed_at[x] = depth
        totals[depth + 1] = totals[depth] + added
        return True

    walk_upper, walk_lower, weight = twin_walk(upper, p._lower)
    for _ in superiors_first(walk_upper, walk_lower, place):
        histogram[totals[n]] = histogram.get(totals[n], 0) + weight
    return dict(sorted(histogram.items()))


def merge_step_count(p: Poset, assignment: Mapping[int, tuple[int, ...]], c: int) -> int:
    """Head-goodness membership tests across all merges for MRO(c), cold
    cache.  Raises LinearizationFailedError if C3 fails."""
    counter = StepCounter()
    result = c3_mro(p, assignment, c, cache={}, counter=counter)
    if isinstance(result, MergeFailure):
        raise LinearizationFailedError(result)
    return counter.comparisons


@dataclass(frozen=True)
class SortKey:
    """Comparison key for the global order: important-element bit flags,
    refined by a creation-order counter.  Elements with greater keys come
    earlier (they are more derived)."""

    flags: int
    counter: int


@dataclass(frozen=True)
class SortKeyResult:
    keys: dict[int, SortKey]
    order: tuple[int, ...]
    is_extension: bool


def compute_sort_keys(p: Poset, important: Sequence[int]) -> SortKeyResult:
    """Assign each element the OR of the flags of the important elements
    in its reflexive up-set; important[0] carries the most significant
    bit.  The induced order sorts by descending (flags, counter), counter
    being the element id (stand-in for creation order: more derived
    elements are created later).  Raises InputError unless ``important``
    holds distinct element ids.
    """
    for x in important:
        if not (isinstance(x, int) and 0 <= x < p.n):
            raise InputError(f"important element {x!r} is not an id in 0..{p.n - 1}")
    if len(set(important)) != len(important):
        raise InputError(f"important elements {list(important)!r} repeat an id")
    m = len(important)
    bit = {x: 1 << (m - 1 - i) for i, x in enumerate(important)}
    keys = {}
    for x in range(p.n):
        up = p.up_mask(x)
        flags = 0
        for imp, b in bit.items():
            if up >> imp & 1:
                flags |= b
        keys[x] = SortKey(flags=flags, counter=x)
    order = tuple(
        sorted(range(p.n), key=lambda x: (keys[x].flags, keys[x].counter), reverse=True)
    )
    return SortKeyResult(keys=keys, order=order, is_extension=p.is_linear_extension(order))
