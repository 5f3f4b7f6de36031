"""C3 merge and linearization, consistency checkers, and the brute-force
consistent-MRO oracle.

A precedence assignment maps each element to its precedence list: a
duplicate-free tuple that contains every upper cover of the element, and
may contain additional strict superiors (the relaxation that makes the
whole control scheme work).  Merge failure is data, not an exception: the
search module consumes failures in bulk.

``merge_kernel`` is the package's one C3 merge loop: ``c3_merge`` checks
its input and calls it, and ``c3_mro`` (which checks each precedence
list once), the search's experiment and instrumentation call it
directly, instrumentation with the order the merge must produce.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Sequence

from .errors import AmbiguityError, InputError, NotAPermutationError
from .poset import Poset

Assignment = Mapping[int, tuple[int, ...]]


@dataclass(frozen=True)
class MergeFailure:
    """The stuck state of a C3 merge: no remaining head is good."""

    processed: tuple[int, ...]
    remaining: tuple[tuple[int, ...], ...]
    at: int | None = None  # element whose MRO computation got stuck

    def __bool__(self) -> bool:
        # Guards against `if result:` treating a failure as a success.
        return False


@dataclass
class StepCounter:
    """Counts the head-goodness tests of a C3 merge.

    One unit per (candidate head, other non-exhausted list) tail-membership
    test, scanning the other lists in input order up to the first whose
    tail holds the head: the cost of a merge that tests goodness by
    scanning, deterministic and machine independent.  ``merge_kernel``
    tests goodness through tail counts and derives this count only when a
    counter is passed.  ``c3_mro`` given a counter merges the MRO of every
    listed element, as the textbook merge does, and runs the merges whose
    result is forced, so the count covers the inputs and merges it would
    otherwise leave out.
    """

    comparisons: int = 0


def validate_assignment(p: Poset, assignment: Assignment) -> None:
    """Raise InputError, a ValueError, unless ``assignment`` is a valid
    precedence map."""
    if set(assignment) != set(range(p.n)):
        raise InputError("assignment must have exactly one entry per element")
    for c, seq in assignment.items():
        if len(set(seq)) != len(seq):
            raise InputError(f"precedence list of {p.names[c]} has duplicates")
        missing = set(p.upper_covers(c)) - set(seq)
        if missing:
            raise InputError(
                f"precedence list of {p.names[c]} misses covers "
                f"{[p.names[x] for x in sorted(missing)]}"
            )
        for x in seq:
            if not p.lt(c, x):
                raise InputError(
                    f"{p.names[x]} is not a strict superior of {p.names[c]}"
                )


def induced_assignment(p: Poset, order: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Covers-only assignment with each list sorted by ``order`` position.

    ``order`` must be a linear extension; elements appearing earlier in it
    (more derived) come first in each list.
    """
    pos = {x: i for i, x in enumerate(order)}
    return {
        c: tuple(sorted(p.upper_covers(c), key=pos.__getitem__))
        for c in range(p.n)
    }


def c3_merge(
    lists: Sequence[Sequence[int]],
    counter: StepCounter | None = None,
):
    """Merge duplicate-free lists of non-negative ints, preserving each
    list's relative order.

    At each step the first good head, scanning input lists left to right,
    is emitted (a head is good when it appears in no other list's tail).
    Returns the merged tuple, or a MergeFailure when no head is good.
    """
    seqs = [tuple(l) for l in lists if l]
    for s in seqs:
        _check_list(s)
    # The kernel's tail counts take one slot per id up to the largest, so
    # it runs on dense ids, in first-seen order, mapped back after.
    dense: dict[int, int] = {}
    result = merge_kernel(
        [tuple(dense.setdefault(x, len(dense)) for x in s) for s in seqs], len(dense), counter
    )
    label = list(dense)
    if isinstance(result, MergeFailure):
        return MergeFailure(
            tuple(label[x] for x in result.processed),
            tuple(tuple(label[x] for x in r) for r in result.remaining),
        )
    return tuple(label[x] for x in result)


def _check_list(s: Sequence[int]) -> None:
    """Raise ValueError unless ``s`` is a duplicate-free list of
    non-negative ints."""
    if len(set(s)) != len(s):
        raise ValueError(f"input list {list(s)!r} contains duplicates")
    if not all(isinstance(x, int) and x >= 0 for x in s):
        raise ValueError(f"input list {list(s)!r} holds a negative or non-int element")


def merge_kernel(
    seqs: Sequence[Sequence[int]],
    size: int,
    counter: StepCounter | None = None,
    want: Sequence[int] | None = None,
):
    """The C3 merge loop that ``c3_merge``, ``c3_mro``, the search and
    instrumentation share.  ``seqs`` are non-empty duplicate-free
    sequences of ids in ``range(size)``; no argument is checked.

    A head is good iff it occurs in no list's tail, so goodness is one
    lookup in per-id tail-occurrence counts.  The kernel keeps each
    list's head in a ``heads`` array, ``size`` standing for an exhausted
    list and counted as a tail occurrence so that it is never good; each
    step scans that array for the first good head and advances only the
    lists whose head it is, found left to right with ``heads.index`` (a
    good head occurs in no tail, so every list holding it holds it as
    its head).  The rest of each list is read through an iterator.
    Returns the merged tuple or a MergeFailure.

    ``want``, when given, is the tuple the merge must produce, and
    ``seqs[-1]`` is a mutable list sorted by ``want`` order.  Whenever
    the first good head is not ``want[d]``, d the length of the output
    so far, the kernel inserts ``want[d]`` and then the head, each if
    absent, into that list at their ``want`` positions, which lie past
    the ``d`` entries already merged, and retries the step.  It then
    returns the inserted elements in insertion order, and raises
    AssertionError when no head is good or when both elements are
    already listed.
    """
    k = len(seqs)
    tailc = [0] * (size + 1)
    tailc[size] = k + 1  # less one per exhausted list, so never zero
    for s in seqs:
        for e in s[1:]:
            tailc[e] += 1
    its = [iter(s) for s in seqs]
    heads = [next(it) for it in its]
    result: list[int] = []
    append = result.append
    inserted: list[int] = []
    wpos = None
    while True:
        for h in heads:
            if not tailc[h]:
                break
        else:
            if heads.count(size) == k:
                break
            if counter is not None:
                counter.comparisons += _step_tests(seqs, heads, size, None)
            if want is not None:
                raise AssertionError("instrumented merge found no good head")
            return MergeFailure(
                processed=tuple(result),
                remaining=tuple((h, *it) for h, it in zip(heads, its) if h != size),
            )
        if counter is not None:
            counter.comparisons += _step_tests(seqs, heads, size, h)
        if want is not None and h != want[len(result)]:
            # want[d] precedes the head in want order, so a list holding
            # both would block the head: at least one of them is new
            d = len(result)
            own = seqs[-1]
            new = [x for x in (want[d], h) if x not in own]
            if not new:
                raise AssertionError("instrumented merge took a listed head")
            if wpos is None:
                wpos = {x: i for i, x in enumerate(want)}.__getitem__
            for x in new:
                insort(own, x, key=wpos)
                tailc[x] += 1
            # the list's first d entries are merged; its head may change
            pi = bisect_left(own, d, key=wpos)
            tailc[heads[-1]] += 1
            head = heads[-1] = own[pi]
            tailc[head] -= 1
            its[-1] = iter(own[pi + 1:])
            inserted += new
            continue
        append(h)
        i = heads.index(h)
        while True:
            head = heads[i] = next(its[i], size)
            tailc[head] -= 1
            if h not in heads:
                break
            i = heads.index(h, i + 1)
    return tuple(result) if want is None else inserted


def _step_tests(seqs, heads, size: int, chosen: int | None) -> int:
    """StepCounter units of one step that takes ``chosen`` (None when no
    head is good): for each active list's head in input order up to the
    chosen one, one unit per other active list, in input order, up to
    the first whose tail holds the head; a good head costs one unit per
    other active list.  Every id not yet merged that a list holds lies
    at or past its head, so the tail test is a membership test."""
    active = len(heads) - heads.count(size)
    tests = 0
    for i, head in enumerate(heads):
        if head == size:
            continue
        if head == chosen:
            return tests + active - 1
        for j, other in enumerate(heads):
            if j != i and other != size:
                tests += 1
                if other != head and head in seqs[j]:
                    break
    return tests


def _forced_merge(kept, listed, total: int):
    """The merge of the MROs ``kept`` and the list ``listed``, which hold
    ``total`` distinct elements, when one input holds all of them and the
    others are its subsequences: that input itself.  None otherwise."""
    if len(kept) == 1:
        whole, others = kept[0], (listed,)
    elif len(listed) == total:
        whole, others = listed, kept
    else:
        return None
    for s in others:
        it = iter(whole)
        if not all(y in it for y in s):
            return None
    return whole


def c3_mro(
    p: Poset,
    assignment: Assignment,
    c: int,
    cache: dict | None = None,
    counter: StepCounter | None = None,
):
    """MRO of ``c``: ``c`` followed by the C3 merge of its listed elements'
    MROs (computed recursively over the full precedence list) and the list
    itself.

    Returns the MRO tuple or a MergeFailure tagged with the element at
    which the merge got stuck.  ``cache`` memoizes per (poset, assignment)
    computation and must never be shared across assignments.  Raises
    ValueError when the precedence lists are cyclic or a list has
    duplicates.

    The merge takes the listed MROs in list order and leaves out that of
    a listed b when b occurs in the MRO of an earlier kept a; the list
    itself is always kept.  C3 is monotonic: an MRO holds the MRO of each
    of its elements as a subsequence, so MRO(b) is one of MRO(a)'s.  At
    every step of the merge b's tail is then inside a's, so b blocks no
    head that a does not, and a good head of b is a's head, which the
    scan reaches first; the result is the same for any lists, valid or
    not.  Membership is tested against the kept MROs, not the poset, as
    lists are not checked to name every cover.  A failed merge that left
    an input out is merged again with every input, so the failure's
    ``remaining`` holds every stuck list.

    The merge is not run when its result is forced.  If one input W
    holds every merged element, a successful merge, which keeps each
    input's order, can only be W, and C3 produces W exactly when every
    other input is a subsequence of W: every input's unmerged part then
    stays a subsequence of W's, so W's head lies in no tail and heads
    each list holding it, and the head of a list scanned before W lies
    in W's tail; the scan takes W's head at every step.  W is the list
    itself when it names every element of the kept MROs (brute-force
    lists), or the one kept MRO when no other is kept.  Each other
    input is tested with an ``iter``-based subsequence test, and a
    failed test falls through to the kernel, which then fails and
    reports its stuck state as before.

    With a ``counter`` every input is merged and nothing is skipped, so
    the count is that of the textbook merge.
    """
    if cache is None:
        cache = {}
    hit = cache.get(c)
    if hit is not None:
        return hit
    # Depth-first over precedence lists with an explicit stack of
    # (element, index of the next listed element to resolve), so deep
    # hierarchies cannot exhaust the interpreter's recursion limit.  A
    # failure is cached at the element where the merge got stuck and at
    # every element whose lists lead there, as one shared value.
    frames: list[list] = [[c, 0]]
    on_stack = {c}
    while frames:
        frame = frames[-1]
        x, i = frame
        listed = assignment[x]
        sub = None
        while i < len(listed):
            sub = cache.get(listed[i])
            if sub is None or isinstance(sub, MergeFailure):
                break
            i += 1
        if isinstance(sub, MergeFailure):
            value = sub
        elif i < len(listed):
            frame[1] = i
            b = listed[i]
            if b in on_stack:
                raise ValueError(f"precedence lists are cyclic at {p.names[b]}")
            on_stack.add(b)
            frames.append([b, 0])
            continue
        elif listed:
            # The cached MROs are merge output, built from lists checked
            # here, so only the element's own list needs checking.
            _check_list(listed)
            inputs = [cache[b] for b in listed]
            inputs.append(listed)
            kept = inputs
            merged = None
            if counter is None:
                kept = []
                seen: set[int] = set()
                for mro in inputs[:-1]:
                    if mro[0] not in seen:
                        kept.append(mro)
                        seen.update(mro)
                merged = _forced_merge(kept, listed, len(seen))
                kept.append(listed)
            if merged is None:
                size = 1 + max(map(max, kept))
                merged = merge_kernel(kept, size, counter)
                if isinstance(merged, MergeFailure) and len(kept) < len(inputs):
                    merged = merge_kernel(inputs, size)
            if isinstance(merged, MergeFailure):
                value = MergeFailure(merged.processed, merged.remaining, at=x)
            else:
                value = (x, *merged)
        else:
            value = (x,)
        cache[x] = value
        on_stack.remove(x)
        frames.pop()
    return cache[c]


def _order_positions(p: Poset, order: Sequence[int]) -> dict[int, int]:
    """Each entry's position, once ``order`` is checked to be a
    permutation of the up-set of its head: distinct entries, as many as
    the up-mask's set bits, each one of them.  A head of ``p.n`` or more
    raises IndexError."""
    pos = {x: i for i, x in enumerate(order)}
    if len(pos) != len(order):
        raise NotAPermutationError(f"order {order!r} contains duplicates")
    up = p.up_mask(order[0]) if order and order[0] >= 0 else 0
    if not up or len(order) != up.bit_count() or not all(x >= 0 and up >> x & 1 for x in order):
        raise NotAPermutationError(
            f"order {order!r} is not a permutation of the up-set of its head"
        )
    return pos


def check_local_consistency(p: Poset, assignment: Assignment, order: Sequence[int]) -> bool:
    """Whenever B is listed before A at some element, B precedes A.

    Positions are ordered transitively, so neighbouring list entries are
    the only pairs compared."""
    return _local_consistent(assignment, _order_positions(p, order))


def _local_consistent(assignment: Assignment, pos: Mapping[int, int]) -> bool:
    """``check_local_consistency`` given the order's positions, in order."""
    for c in pos:
        seq = assignment[c]
        for b, a in zip(seq, seq[1:]):
            if pos[b] > pos[a]:
                return False
    return True


def check_extended_consistency(p: Poset, assignment: Assignment, order: Sequence[int]) -> bool:
    """The strengthened condition: for B listed before A at some element,
    every B' that is B or a strict superior of B, and is not above A, must
    precede A.

    B' = B compares the listed pair itself unless B lies above A, so on
    an order that C3 produced, which follows every list, this check
    implies plain local consistency, but not on every order: for the
    chain 0 < 1 < 2 with the list (2, 1) at 0, the order (0, 1, 2) fails
    local consistency and passes this check.  B' = A itself (possible
    only with relaxed lists where A > B) is skipped: no order can place
    an element before itself.

    This condition is strictly stronger than what a successful C3 run
    guarantees: C3 can emit A before B' when B' is blocked by another
    pending list (smallest example: bottom below an antichain {x, y, z}
    listed (x, z, y) with x, y sharing an extra top).
    """
    return _extended_consistent(p, assignment, _order_positions(p, order))


def _extended_consistent(p: Poset, assignment: Assignment, pos: dict[int, int]) -> bool:
    """``check_extended_consistency`` given the order's positions, in
    order: no B' in up(B) but not in up(A) may come after A."""
    later = {}  # each entry -> the bitmask of the entries after it
    mask = 0
    for x in reversed(pos):
        later[x] = mask
        mask |= 1 << x
    for c in pos:
        seq = assignment[c]
        for i, b in enumerate(seq):
            up_b = p.up_mask(b)
            for a in seq[i + 1:]:
                if up_b & later[a] & ~p.up_mask(a):
                    return False
    return True


_ORACLE_LIMIT = 9


def consistent_mro_oracle(p: Poset, assignment: Assignment, c: int):
    """Brute-force search for the consistent MRO of ``c``.

    Enumerates every permutation of up_set(c) starting with c, keeps those
    that are linear extensions of the restricted poset and pass the
    extended consistency check, and asserts at most one qualifies.
    Exponential by design; refuses up-sets larger than 9 elements.
    """
    up = sorted(p.up_set(c))
    if len(up) > _ORACLE_LIMIT:
        raise ValueError(f"up-set of size {len(up)} exceeds oracle limit {_ORACLE_LIMIT}")
    others = [x for x in up if x != c]
    found = None
    for tail in permutations(others):
        order = (c, *tail)
        pos = {x: i for i, x in enumerate(order)}
        if any(p.lt(x, y) and pos[x] > pos[y] for x in up for y in up if x != y):
            continue
        if not check_extended_consistency(p, assignment, order):
            continue
        if found is not None:
            raise AmbiguityError(
                f"two consistent MROs for {p.names[c]}: {found} and {order}"
            )
        found = order
    return found


def check_monotone(
    p: Poset, assignment: Assignment, c: int, cache: dict | None = None
) -> bool:
    """True iff for every superior a of c, MRO(a) is the restriction of
    MRO(c) to the up-set of a.

    Raises LinearizationFailedError if C3 fails on c or any superior.
    ``cache`` is passed to ``c3_mro`` and, as there, must belong to this
    (poset, assignment) pair.
    """
    from .errors import LinearizationFailedError

    if cache is None:
        cache = {}
    mro_c = c3_mro(p, assignment, c, cache)
    if isinstance(mro_c, MergeFailure):
        raise LinearizationFailedError(mro_c)
    for a in p.up_set(c):
        if a == c:
            continue
        mro_a = c3_mro(p, assignment, a, cache)
        if isinstance(mro_a, MergeFailure):
            raise LinearizationFailedError(mro_a)
        up_a = p.up_mask(a)
        if tuple(x for x in mro_c if up_a >> x & 1) != mro_a:
            return False
    return True
