"""Finite posets stored as transitively reduced cover digraphs.

Orientation convention, used throughout the package: a cover pair ``(c, a)``
means "a is an upper cover of c", i.e. c directly inherits from a.  Every
order produced or consumed here (MROs, global orders, linear extensions)
lists the most-derived element first: an element always appears before all
of its strict superiors.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleError,
    DuplicateNameError,
    InputError,
    NotAPermutationError,
    NotReducedError,
)


class Poset:
    """An immutable finite strict partial order on elements ``0..n-1``.

    Instances are safe to share across worker processes; all derived
    structure (cover lists, up-set bitmasks) is precomputed at
    construction time.
    """

    __slots__ = ("n", "names", "covers", "_upper", "_lower", "_up_mask", "_down_mask")

    def __init__(self, n: int, covers: Iterable[tuple[int, int]], names: Sequence[str] | None = None):
        if n < 0:
            raise InputError(f"negative element count {n}")
        covers = frozenset((int(c), int(a)) for c, a in covers)
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(names)
            if len(names) != n:
                raise InputError(f"expected {n} names, got {len(names)}")
            seen = set()
            for name in names:
                if name in seen:
                    raise DuplicateNameError(name)
                seen.add(name)
        for c, a in covers:
            if not (0 <= c < n and 0 <= a < n) or c == a:
                raise InputError(f"invalid cover pair ({c}, {a}) for n={n}")

        upper = [[] for _ in range(n)]
        lower = [[] for _ in range(n)]
        for c, a in covers:
            upper[c].append(a)
            lower[a].append(c)
        self.n = n
        self.names = names
        self.covers = covers
        self._upper = tuple(tuple(sorted(u)) for u in upper)
        self._lower = tuple(tuple(sorted(d)) for d in lower)

        order = self._topological_order()
        self._up_mask = _closure(order, self._upper)
        self._down_mask = _closure(reversed(order), self._lower)
        self._check_reduced()

    def _topological_order(self) -> list[int]:
        """Kahn's order from the maximal elements: an element joins once
        all of its upper covers have.  Raises CycleError on a cycle."""
        pending = [len(u) for u in self._upper]  # upper covers not yet ordered
        order = [x for x in range(self.n) if not pending[x]]
        for x in order:  # the list grows as it is read
            for c in self._lower[x]:
                pending[c] -= 1
                if not pending[c]:
                    order.append(c)
        if len(order) < self.n:
            # Every left-over element has a left-over upper cover: follow
            # the first one from the first left-over element until a repeat.
            x = next(x for x in range(self.n) if pending[x])
            at: dict[int, int] = {}  # the path so far, with positions
            while x not in at:
                at[x] = len(at)
                x = next(y for y in self._upper[x] if pending[y])
            raise CycleError([self.names[z] for z in [*at][at[x]:] + [x]])
        return order

    def _check_reduced(self) -> None:
        for c, a in sorted(self.covers):
            for b in self._upper[c]:
                if b != a and self._up_mask[b] >> a & 1:
                    raise NotReducedError((self.names[c], self.names[a]))

    # -- basic queries ---------------------------------------------------

    def upper_covers(self, c: int) -> tuple[int, ...]:
        """Direct superiors of ``c``, in ascending id order."""
        return self._upper[c]

    def lower_covers(self, a: int) -> tuple[int, ...]:
        """Direct inferiors of ``a``, in ascending id order."""
        return self._lower[a]

    def up_set(self, c: int) -> frozenset[int]:
        """All ``x >= c``, including ``c`` itself."""
        m = self._up_mask[c]
        out = []
        while m:
            bit = m & -m
            m ^= bit
            out.append(bit.bit_length() - 1)
        return frozenset(out)

    def up_mask(self, c: int) -> int:
        """Reflexive up-set of ``c`` as a bitmask."""
        return self._up_mask[c]

    def lt(self, x: int, y: int) -> bool:
        """True iff ``x < y``, i.e. y is a strict superior of x."""
        return x != y and self._up_mask[x] >> y & 1

    def leq(self, x: int, y: int) -> bool:
        return bool(self._up_mask[x] >> y & 1)

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._lower[x])

    def maximal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._upper[x])

    def name_of(self, x: int) -> str:
        return self.names[x]

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.names == other.names and self.covers == other.covers

    def __hash__(self) -> int:
        return hash((self.n, self.names, self.covers))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.names[c]}<{self.names[a]}" for c, a in sorted(self.covers)
        )
        return f"Poset(n={self.n}, covers=[{pairs}])"

    # -- orders ----------------------------------------------------------

    def _check_permutation(self, order: Sequence[int]) -> None:
        if len(order) != self.n or set(order) != set(range(self.n)):
            raise NotAPermutationError(
                f"order {order!r} is not a permutation of 0..{self.n - 1}"
            )

    def is_linear_extension(self, order: Sequence[int]) -> bool:
        """True iff every element precedes all of its strict superiors."""
        self._check_permutation(order)
        pos = [0] * self.n
        for i, x in enumerate(order):
            pos[x] = i
        return all(pos[c] < pos[a] for c, a in self.covers)

    def linear_extensions(self) -> Iterator[tuple[int, ...]]:
        """All linear extensions, lexicographically by id sequence:
        ``superiors_first`` on the dual order, so an element is placed
        once all of its lower covers are."""
        order = [0] * self.n

        def place(x: int, depth: int) -> bool:
            order[depth] = x
            return True

        for _ in superiors_first(self._lower, self._upper, place):
            yield tuple(order)

    def linear_extension_count(self) -> int:
        """The down-set DP of ``_count_extensions`` on the ``twin_walk``
        order, which ``superiors_first`` runs when it refuses every first
        step, times its weight: a class of k twins costs one chain, not
        2^k down-sets."""
        walk_upper, walk_lower, weight = twin_walk(self._upper, self._lower)
        cuts = superiors_first(walk_upper, walk_lower, lambda x, depth: False)
        return weight * sum(cut or 1 for cut in cuts)  # n = 0 reaches its one extension

    def antichains(self) -> Iterator[tuple[int, ...]]:
        """All antichains (as sorted id tuples), the empty one included,
        each followed by its extensions with larger ids.  The candidates
        still to try live in per-depth bitmasks, not on the call stack."""
        comp = [self._up_mask[x] | self._down_mask[x] for x in range(self.n)]
        chosen: list[int] = []
        left = [(1 << self.n) - 1]
        yield ()
        while left:
            m = left[-1]
            if not m:
                left.pop()
                if chosen:
                    chosen.pop()
                continue
            bit = m & -m
            left[-1] = rest = m ^ bit
            x = bit.bit_length() - 1
            chosen.append(x)
            yield tuple(chosen)
            left.append(rest & ~comp[x])

    # -- derived posets --------------------------------------------------

    def restrict(self, subset: Iterable[int]) -> "Poset":
        """Induced subposet on ``subset``, with ids renumbered densely.

        The old-to-new id map preserves ascending id order; covers are
        recomputed from the induced order relation and reduced.
        """
        keep = sorted(set(subset))
        index = {x: i for i, x in enumerate(keep)}
        # Strict order restricted to the subset; covers of the induced
        # order are the minimal elements among each element's superiors.
        above = {x: [y for y in keep if y != x and self._up_mask[x] >> y & 1] for x in keep}
        covers = []
        for x in keep:
            for y in above[x]:
                if not any(z != y and self._up_mask[z] >> y & 1 for z in above[x]):
                    covers.append((index[x], index[y]))
        return Poset(len(keep), set(covers), [self.names[x] for x in keep])

    def relabel(self, perm: Sequence[int]) -> "Poset":
        """Apply the permutation old id -> ``perm[old]`` to elements."""
        self._check_permutation(perm)
        names = [""] * self.n
        for old, new in enumerate(perm):
            names[new] = self.names[old]
        return Poset(self.n, {(perm[c], perm[a]) for c, a in self.covers}, names)

    def add_bottom(self, name: str = "bottom") -> "Poset":
        """Adjoin a new least element with id 0; existing ids shift by one."""
        covers = {(c + 1, a + 1) for c, a in self.covers}
        covers.update((0, m + 1) for m in self.minimal_elements())
        return Poset(self.n + 1, covers, (name, *self.names))

    # -- canonical form --------------------------------------------------

    def canonical_form(self) -> bytes:
        """An isomorphism-invariant key: equal iff the posets are isomorphic.

        See ``canonical_key``, which computes it from the cover structure.
        """
        return canonical_key(self._upper, self._lower, self._up_mask, self._down_mask)[0]

    @classmethod
    def from_canonical_key(cls, key: bytes) -> "Poset":
        """The poset whose cover pairs are those encoded in ``key``; its
        ``canonical_form()`` is ``key``.  A key of even length is
        malformed and raises InputError."""
        if len(key) % 2 != 1:
            raise InputError(f"malformed canonical key {key!r}")
        return cls(key[0], zip(key[1::2], key[2::2]))


def canonical_key(upper, lower, up_mask, down_mask) -> tuple[bytes, int]:
    """Canonical form and automorphism count of the poset on ``0..n-1``,
    n the length of the lists, with the given upper and lower cover lists
    and reflexive up-/down-set bitmasks.

    Iterative partition refinement on degree/level signatures, then the
    minimum, over every product of within-cell permutations, of the
    relabeled cover set.  Every automorphism preserves the cells, and
    two of these relabelings give the same cover set iff they differ by
    an automorphism, so the number that reach the minimum is the order of
    the automorphism group.  Callers that already hold the cover
    structure (the search's class generator) use it without building a
    Poset.
    """
    n = len(upper)
    if n == 0:
        return b"\x00", 1
    if n > 255:
        raise ValueError("canonical_form supports at most 255 elements")

    sig = [
        (len(upper[x]), len(lower[x]), up_mask[x].bit_count(), down_mask[x].bit_count())
        for x in range(n)
    ]
    color = _rank(sig)
    while True:
        sig2 = [
            (
                color[x],
                tuple(sorted(color[y] for y in upper[x])),
                tuple(sorted(color[y] for y in lower[x])),
            )
            for x in range(n)
        ]
        color2 = _rank(sig2)
        if color2 == color:
            break
        color = color2

    covers = [(c, a) for c in range(n) for a in upper[c]]
    cells: dict[int, list[int]] = {}
    for x in range(n):
        cells.setdefault(color[x], []).append(x)
    ordered_cells = [cells[c] for c in sorted(cells)]

    # product() holds every permutation of each cell it is given, so the
    # largest cell (positions start.. in the labeling) is left out of it
    # and its permutations are generated one at a time inside the loop.
    big_cell = max(ordered_cells, key=len)
    big = ordered_cells.index(big_cell)
    start = sum(map(len, ordered_cells[:big]))
    del ordered_cells[big]
    pos = [0] * n
    best: list[tuple[int, int]] | None = None
    ties = 0
    for perms in product(*map(permutations, ordered_cells)):
        i = 0
        for perm in perms:
            if i == start:
                i += len(big_cell)
            for x in perm:
                pos[x] = i
                i += 1
        for perm in permutations(big_cell):
            for i, x in enumerate(perm, start):
                pos[x] = i
            enc = sorted((pos[c], pos[a]) for c, a in covers)
            if best is None or enc < best:
                best, ties = enc, 1
            elif enc == best:
                ties += 1

    out = bytearray([n])
    for c, a in best:
        out.append(c)
        out.append(a)
    return bytes(out), ties


def superiors_first(upper, lower, step) -> Iterator[int]:
    """Walk the linear extensions of the order on ``0..n-1`` with upper
    cover lists ``upper`` and lower cover lists ``lower``, superiors
    first: each node places a ready element, one whose upper covers, and
    so all of its strict superiors, are placed, least id first, and calls
    ``step(x, depth)``.  A step that returns False cuts off the subtree
    below; the walk then yields the number of extensions cut off, never
    0.  Each extension reached yields 0.  The frames live in per-depth
    arrays, not on the call stack: the elements still to place, the
    ready ones, and of those the ones still to try.  Placing x leaves the
    ready set without x, plus each lower cover of x whose upper covers
    are now all placed.
    """
    n = len(upper)
    if not n:
        yield 0
        return
    above = [sum(1 << a for a in u) for u in upper]
    todo = [0] * n
    ready = [0] * n
    left = [0] * n
    todo[0] = (1 << n) - 1
    ready[0] = left[0] = sum(1 << x for x in range(n) if not upper[x])
    counts = {0: 1}
    depth = 0
    while depth >= 0:
        m = left[depth]
        if not m:
            depth -= 1
            continue
        bit = m & -m
        left[depth] = m ^ bit
        x = bit.bit_length() - 1
        rest = todo[depth] ^ bit
        top = ready[depth] ^ bit
        for c in lower[x]:
            if not above[c] & rest:
                top |= 1 << c
        if not step(x, depth):
            yield _count_extensions(rest, top, above, lower, counts)
        elif not rest:
            yield 0
        else:
            depth += 1
            todo[depth] = rest
            ready[depth] = left[depth] = top


def twin_walk(upper, lower) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int]:
    """A stronger order for ``superiors_first`` that puts each class of
    twins, elements with the same upper and the same lower covers, in a
    chain by ascending id: ``(walk_upper, walk_lower, weight)``.

    Swapping two twins is an automorphism, so the linear extensions fall
    into orbits of ``weight`` (the product of the classes' factorials)
    extensions each, and the orbit holds one extension of the chained
    order: the one that places each class's twins least id first.  A
    count that is invariant under automorphisms, taken over the walk of
    ``walk_upper`` and ``walk_lower`` and multiplied by ``weight``, is its
    count over every extension.  The larger twin's walk upper list gains
    the smaller twin as an extra upper cover, and the smaller twin's walk
    lower list gains the larger twin.  Both walks take the least ready id
    first, so the walk of the chained order visits a subsequence of the
    extensions that ``superiors_first`` reaches on ``upper`` and
    ``lower``, in the same order.
    """
    walk_upper = list(map(tuple, upper))
    walk_lower = list(map(tuple, lower))
    weight = 1
    last: dict = {}  # twin class -> (its largest id so far, its size)
    for x in range(len(upper)):
        key = (frozenset(upper[x]), frozenset(lower[x]))
        if key in last:
            y, k = last[key]
            walk_upper[x] += (y,)
            walk_lower[y] += (x,)
            weight *= k + 1
            last[key] = x, k + 1
        else:
            last[key] = x, 1
    return walk_upper, walk_lower, weight


def _count_extensions(mask: int, top: int, above: Sequence[int], lower, counts) -> int:
    """Number of linear extensions of the down-set ``mask`` whose maximal
    elements are ``top``, memoised in ``counts``, which holds ``{0: 1}``:
    the sum, over its maximal elements x, of the count without x.
    ``above`` holds the upper covers' bitmasks, and the maximal elements
    of a sub-mask follow as in ``superiors_first``.  On the explicit
    stack a mask goes back, marked, under its uncounted sub-masks, which
    are counted first."""
    todo = [(mask, top, False)]
    while todo:
        m, top, expanded = todo.pop()
        if m in counts:
            continue
        if expanded:
            total = 0
            while top:
                bit = top & -top
                top ^= bit
                total += counts[m ^ bit]
            counts[m] = total
            continue
        todo.append((m, top, True))
        rest = top
        while rest:
            bit = rest & -rest
            rest ^= bit
            sub = m ^ bit
            if sub not in counts:
                subtop = top ^ bit
                for c in lower[bit.bit_length() - 1]:
                    if not above[c] & sub:
                        subtop |= 1 << c
                todo.append((sub, subtop, False))
    return counts[mask]


def _closure(order: Iterable[int], neigh) -> tuple[int, ...]:
    """Reflexive reachability bitmasks along ``neigh``, computed in an
    ``order`` that puts every element after its neighbours."""
    mask = [0] * len(neigh)
    for x in order:
        m = 1 << x
        for y in neigh[x]:
            m |= mask[y]
        mask[x] = m
    return tuple(mask)


def _rank(signatures: list) -> list[int]:
    """Replace each signature by its rank among the sorted distinct ones."""
    order = {s: i for i, s in enumerate(sorted(set(signatures)))}
    return [order[s] for s in signatures]


_H_NAMES = ("A", "B", "C", "D1", "D2", "D3", "E1", "E2", "E3", "F")

_H_COVERS = (
    ("D1", "B"), ("D1", "A"),
    ("E1", "D1"), ("E1", "C"),
    ("D2", "A"), ("D2", "C"),
    ("E2", "D2"), ("E2", "B"),
    ("D3", "B"), ("D3", "C"),
    ("E3", "D3"), ("E3", "A"),
    ("F", "E1"), ("F", "E2"), ("F", "E3"),
)


def poset_h() -> Poset:
    """The 10-element poset on which C3 fails for every choice of lists."""
    idx = {name: i for i, name in enumerate(_H_NAMES)}
    return Poset(10, [(idx[c], idx[a]) for c, a in _H_COVERS], _H_NAMES)
