"""Exhaustive search over small posets for C3-infeasible hierarchies.

The tree of posets admitting the identity labeling as linear extension is
traversed recursively without materializing a level: the children of a
poset on k elements are obtained by picking each of its antichains in
turn and adding element k as an upper cover of the antichain members.
Each depth-n node is reduced to its canonical key, computed from the
traversal's own cover tuple and bitmasks.  The C3 experiment (adjoin a
bottom element, run C3 for every linear extension with the induced
cover-only, extension-sorted precedence lists) depends only on the
isomorphism class, so it runs once per class, and a class's counts are
its labeled count times that one result.  A budget bounds the labeled
posets visited over the whole search.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Iterator

from .errors import ResourceLimitError
from .poset import Poset, canonical_key

DEFAULT_BUDGET = 10_000_000
_SPLIT_DEPTH = 4


@dataclass(frozen=True)
class TreeNode:
    """A poset on {0..depth-1} admitting the identity order as linear
    extension; dropping the last element recovers the parent node."""

    poset: Poset
    depth: int


@dataclass(frozen=True)
class SearchRecord:
    canonical_key: bytes
    extension_count: int
    failure_count: int
    labeled_count: int
    representative: Poset

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


def tree_root() -> TreeNode:
    return TreeNode(poset=Poset(0, ()), depth=0)


def tree_children(node: TreeNode) -> list[TreeNode]:
    """One child per antichain (the empty one included): the new maximal
    element covers exactly the antichain members."""
    p = node.poset
    k = p.n
    out = []
    for chain in p.antichains():
        covers = set(p.covers)
        covers.update((x, k) for x in chain)
        out.append(TreeNode(poset=Poset(k + 1, covers), depth=k + 1))
    return out


# -- fast C3 over induced assignments ----------------------------------


def _c3_all_fail_counts(p: Poset) -> tuple[int, int]:
    """(extension_count, failure_count) for the poset with a bottom
    adjoined, over all linear extensions of the upper part.

    Extensions are enumerated superiors-first so each element's MRO is
    computed once per shared suffix of the global order rather than once
    per extension; a failed merge prunes the whole enumeration subtree,
    whose size comes from a down-set-mask extension-counting DP.
    """
    n = p.n
    if n == 0:
        return 1, 0
    upper = p._upper
    up_strict = [p._up_mask[x] & ~(1 << x) for x in range(n)]
    minimals = p.minimal_elements()
    multi_min = len(minimals) > 1

    ecount_memo = {0: 1}

    def ecount(mask: int) -> int:
        cached = ecount_memo.get(mask)
        if cached is not None:
            return cached
        total = 0
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            x = bit.bit_length() - 1
            if not up_strict[x] & mask:
                total += ecount(mask ^ bit)
        ecount_memo[mask] = total
        return total

    mros: list = [None] * n
    revpos = [0] * n
    revkey = revpos.__getitem__
    exts = 0
    fails = 0

    def rec(mask: int, depth: int) -> None:
        nonlocal exts, fails
        if not mask:
            exts += 1
            if multi_min:
                blist = sorted(minimals, key=revkey, reverse=True)
                if _fast_merge(mros, blist, n) is None:
                    fails += 1
            return
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            x = bit.bit_length() - 1
            if up_strict[x] & mask:
                continue  # not maximal among the remaining elements
            covs = upper[x]
            revpos[x] = depth
            if not covs:
                mros[x] = (x,)
            elif len(covs) == 1:
                # merge(MRO(b), (b,)) is always MRO(b)
                mros[x] = (x, *mros[covs[0]])
            else:
                lst = sorted(covs, key=revkey, reverse=True)
                merged = _fast_merge(mros, lst, n)
                if merged is None:
                    pruned = ecount(mask ^ bit)
                    exts += pruned
                    fails += pruned
                    continue
                mros[x] = (x, *merged)
            rec(mask ^ bit, depth + 1)

    rec((1 << n) - 1, 0)
    return exts, fails


def _fast_merge(mros, lst, n):
    """C3 merge of the listed elements' MROs plus the list itself.
    Returns the merged tuple or None on failure.

    A head is good iff its tail-occurrence count is zero, so the goodness
    test is O(1); counts are maintained as list pointers advance.
    """
    seqs = [mros[b] for b in lst]
    seqs.append(tuple(lst))
    k = len(seqs)
    ptr = [0] * k
    lens = [len(s) for s in seqs]
    tailc = [0] * n
    for s in seqs:
        for e in s[1:]:
            tailc[e] += 1
    active = k
    result: list[int] = []
    append = result.append
    while active:
        chosen = -1
        for i in range(k):
            pi = ptr[i]
            if pi >= lens[i]:
                continue
            head = seqs[i][pi]
            if not tailc[head]:
                chosen = head
                break
        if chosen < 0:
            return None
        append(chosen)
        for i in range(k):
            pi = ptr[i]
            if pi < lens[i] and seqs[i][pi] == chosen:
                pi += 1
                ptr[i] = pi
                if pi < lens[i]:
                    tailc[seqs[i][pi]] -= 1
                else:
                    active -= 1
    return tuple(result)


def run_experiment(poset_upper: Poset) -> SearchRecord:
    """Adjoin a bottom element, run C3 for every linear extension with the
    induced precedence lists, and tally failures.  The canonical key is
    computed on the upper poset."""
    exts, fails = _c3_all_fail_counts(poset_upper)
    return SearchRecord(
        canonical_key=poset_upper.canonical_form(),
        extension_count=exts,
        failure_count=fails,
        labeled_count=1,
        representative=poset_upper,
    )


# -- tree traversal ----------------------------------------------------
#
# The traversal works on light (k, covers, up_mask, down_mask) tuples and
# only builds Poset objects at the target depth.


def _light_children(k, covers, up, down) -> Iterator[tuple]:
    comp = [(up[x] | down[x]) & ~(1 << x) for x in range(k)]
    newbit = 1 << k

    def rec(start: int, chosen: list[int], blocked: int) -> Iterator[tuple]:
        covers2 = covers + tuple((x, k) for x in chosen)
        down_k = newbit
        for x in chosen:
            down_k |= down[x]
        up2 = [up[y] | newbit if down_k >> y & 1 else up[y] for y in range(k)]
        up2.append(newbit)
        down2 = list(down) + [down_k]
        yield (k + 1, covers2, tuple(up2), tuple(down2))
        for x in range(start, k):
            if blocked >> x & 1:
                continue
            chosen.append(x)
            yield from rec(x + 1, chosen, blocked | comp[x])
            chosen.pop()

    return rec(0, [], 0)


def _light_nodes_at_depth(node, depth: int) -> Iterator[tuple]:
    k = node[0]
    if k == depth:
        yield node
        return
    for child in _light_children(*node):
        yield from _light_nodes_at_depth(child, depth)


_LIGHT_ROOT = (0, (), (), ())


def _aggregate_subtree(node, depth: int, budget: int, memo: dict) -> tuple[dict, int]:
    """Reduce the depth-`depth` posets below `node` per canonical key.

    Returns ``(aggregate, visited)``: the aggregate maps each key to
    ``[labeled_count, extensions, failures, covers]``, where extensions and
    failures are the experiment's result for one member of the class
    (isomorphic posets give equal results) and covers is the smallest
    generation-order cover tuple among the members seen; visited counts
    the labeled posets.  The experiment runs once per key not yet in
    ``memo``, on a Poset built only for that purpose.
    """
    agg: dict[bytes, list] = {}
    count = 0
    for k, covers, up, down in _light_nodes_at_depth(node, depth):
        count += 1
        if count > budget:
            raise _budget_error(budget, depth)
        upper: list[list[int]] = [[] for _ in range(k)]
        lower: list[list[int]] = [[] for _ in range(k)]
        for c, a in covers:
            upper[c].append(a)
            lower[a].append(c)
        key = canonical_key(k, covers, upper, lower, up, down)
        entry = agg.get(key)
        if entry is not None:
            entry[0] += 1
            if covers < entry[3]:
                entry[3] = covers
            continue
        result = memo.get(key)
        if result is None:
            result = memo[key] = _c3_all_fail_counts(Poset(k, covers))
        agg[key] = [1, *result, covers]
    return agg, count


def _budget_error(budget: int, depth: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"budget of {budget} labeled posets exceeded at depth {depth}"
    )


def _merge_aggregates(target: dict, other: dict) -> None:
    for key, entry in other.items():
        mine = target.get(key)
        if mine is None:
            target[key] = entry
        else:
            mine[0] += entry[0]
            if entry[3] < mine[3]:
                mine[3] = entry[3]


# Experiment results of the worker process, keyed by canonical form; each
# pool starts its workers with an empty one.
_worker_memo: dict = {}


def _init_worker() -> None:
    global _worker_memo
    _worker_memo = {}


def _worker(args) -> tuple[dict, int]:
    node, depth, budget = args
    return _aggregate_subtree(node, depth, budget, _worker_memo)


def map_reduce_search(
    n: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    allow_large: bool = False,
) -> SearchSummary:
    """Traverse the poset tree to depth ``n``, run the C3 experiment once
    per isomorphism class, and aggregate per class: a class's extension
    and failure counts are its labeled count times one member's result.

    The result is independent of ``workers``.  Depths 8 and above are
    rejected unless ``allow_large`` is set (the n=9 run takes days on a
    single CPU).  ``budget`` bounds the number of labeled posets visited
    (not experiments run) over the whole search, whatever the number of
    workers; exceeding it raises ResourceLimitError.
    """
    if n < 0:
        raise ValueError("depth must be non-negative")
    if n >= 8 and not allow_large:
        raise ResourceLimitError(
            f"depth {n} requires allow_large=True (long-running computation)"
        )

    split = min(_SPLIT_DEPTH, n)
    if workers <= 1 or n <= split:
        agg, _ = _aggregate_subtree(_LIGHT_ROOT, n, budget, {})
    else:
        tasks = [
            (node, n, budget)
            for node in _light_nodes_at_depth(_LIGHT_ROOT, split)
        ]
        agg = {}
        visited = 0
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_init_worker) as pool:
            for part, count in pool.imap_unordered(_worker, tasks):
                visited += count
                if visited > budget:
                    raise _budget_error(budget, n)
                _merge_aggregates(agg, part)

    records = tuple(
        SearchRecord(
            canonical_key=key,
            extension_count=labeled * exts,
            failure_count=labeled * fails,
            labeled_count=labeled,
            representative=Poset(n, covers),
        )
        for key, (labeled, exts, fails, covers) in sorted(agg.items())
    )
    return SearchSummary(
        n=n,
        labeled_poset_count=sum(r.labeled_count for r in records),
        iso_class_count=len(records),
        records=records,
    )


def find_infeasible(
    n: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    allow_large: bool = False,
) -> list[Poset]:
    """Representatives of the iso classes at depth ``n`` on which every
    linear-extension-induced assignment makes C3 fail."""
    summary = map_reduce_search(n, workers=workers, budget=budget, allow_large=allow_large)
    return [r.representative for r in summary.infeasible]
