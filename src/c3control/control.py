"""Instrumented C3: given a poset and a global order, compute the minimal
precedence lists that force C3 to reproduce that order; plus the brute
force baseline, a comparison-count probe, and the bit-flag sort key
scheme for choosing global orders.  The replay runs the C3 merge of
``linearize.merge_kernel``, the one merge loop of the package.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import LinearizationFailedError, NotLinearExtensionError
from .linearize import MergeFailure, StepCounter, c3_mro, merge_kernel
from .poset import Poset


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


def c3_instrumented(p: Poset, g: Sequence[int]) -> InstrumentationResult:
    """Compute minimal precedence lists making C3 reproduce ``g``.

    Elements are processed least-derived first along ``g`` so every listed
    superior's MRO is final before its inferiors are handled.  For each
    element the merge is replayed against the target order (g restricted
    to the element's up-set); whenever the first good head deviates from
    the target, the offending element is inserted into the local list at
    its g-sorted position (preceded by the target element if absent) and
    the merge restarts.  Each replay is one run of ``merge_kernel``, and
    its first deviation from the target is the head to insert.
    """
    pos = _require_extension(p, g)
    ups = _strict_up_sets(p, g, pos)
    mros: dict[int, tuple[int, ...]] = {}
    assignment: dict[int, tuple[int, ...]] = {}
    additions: dict[int, tuple[int, ...]] = {}

    for c in reversed(g):
        target = ups[c]
        clist = sorted(p.upper_covers(c), key=pos.__getitem__)
        inserted: list[int] = []

        while True:
            seqs = [mros[b] for b in clist]
            if clist:
                seqs.append(clist)
            merged = merge_kernel(seqs, p.n)
            if merged == target:
                break
            emitted = merged.processed if isinstance(merged, MergeFailure) else merged
            d = 0
            while d < len(emitted) and emitted[d] == target[d]:
                d += 1
            if d == len(emitted):
                raise AssertionError("instrumented merge found no good head")
            desired, head = target[d], emitted[d]
            if desired not in clist:
                insort(clist, desired, key=pos.__getitem__)
                inserted.append(desired)
            if head not in clist:
                insort(clist, head, key=pos.__getitem__)
                inserted.append(head)

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
    reproduces ``g`` on every up-set, at a cubic price on deep chains.
    """
    return dict(enumerate(_strict_up_sets(p, g, _require_extension(p, g))))


def count_additions_per_extension(p: Poset) -> dict[int, int]:
    """Histogram: total insertions made by c3_instrumented, tallied over
    every linear extension of the poset."""
    histogram: dict[int, int] = {}
    for g in p.linear_extensions():
        total = c3_instrumented(p, g).total_added
        histogram[total] = histogram.get(total, 0) + 1
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
    elements are created later).
    """
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
