"""Reference computations made apart from c3control.

Posets are given here as ``(n, covers)`` with ``(c, a)`` meaning that
``a`` is an upper cover of ``c`` (c directly inherits from a). Orders list
the most-derived element first, as in c3control. Nothing in this module
imports c3control, so a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

# Naturally labeled posets (OEIS A006455) and isomorphism classes of
# posets (OEIS A000112), n = 0..7: the paper's Table 1.
LABELED_POSETS = (1, 1, 2, 7, 40, 357, 4824, 96428)
POSET_CLASSES = (1, 1, 2, 5, 16, 63, 318, 2045)


def upper_lists(n: int, covers) -> list[list[int]]:
    upper: list[list[int]] = [[] for _ in range(n)]
    for c, a in covers:
        upper[c].append(a)
    return upper


def up_masks(n: int, covers) -> list[int]:
    """Reflexive up-set of every element as a bitmask."""
    upper = upper_lists(n, covers)
    lower_count = [0] * n
    for c, _a in covers:
        lower_count[c] += 1
    # Kahn's order from the maximal elements down, so each element's
    # superiors are final before it is reached.
    below: list[list[int]] = [[] for _ in range(n)]
    for c, a in covers:
        below[a].append(c)
    pending = [len(u) for u in upper]
    ready = [x for x in range(n) if not pending[x]]
    mask = [0] * n
    done = 0
    while ready:
        x = ready.pop()
        done += 1
        m = 1 << x
        for a in upper[x]:
            m |= mask[a]
        mask[x] = m
        for c in below[x]:
            pending[c] -= 1
            if not pending[c]:
                ready.append(c)
    if done != n:
        raise ValueError("cover relation has a cycle")
    return mask


def members(mask: int) -> list[int]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return out


def restrict_order(order, mask: int) -> tuple[int, ...]:
    """``order`` restricted to the elements of ``mask``."""
    return tuple(x for x in order if mask >> x & 1)


def is_linear_extension(n: int, covers, order) -> bool:
    if sorted(order) != list(range(n)):
        return False
    pos = {x: i for i, x in enumerate(order)}
    return all(pos[c] < pos[a] for c, a in covers)


def count_extensions(n: int, covers) -> int:
    """Number of linear extensions, by dynamic programming over down-sets.

    An element may be placed once all of its lower covers are placed; the
    count for a set of placed elements depends on that set alone.
    """
    need = [0] * n
    for c, a in covers:
        need[a] |= 1 << c
    full = (1 << n) - 1
    memo = {full: 1}

    def count(placed: int) -> int:
        hit = memo.get(placed)
        if hit is not None:
            return hit
        total = 0
        for x in range(n):
            if not placed >> x & 1 and need[x] & ~placed == 0:
                total += count(placed | 1 << x)
        memo[placed] = total
        return total

    return count(0)


def linear_extensions(n: int, covers):
    """Every linear extension, most-derived element first."""
    need = [0] * n
    for c, a in covers:
        need[a] |= 1 << c
    prefix: list[int] = []

    def rec(placed: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for x in range(n):
            if not placed >> x & 1 and need[x] & ~placed == 0:
                prefix.append(x)
                yield from rec(placed | 1 << x)
                prefix.pop()

    return rec(0)


def cpython_mros(n: int, lists, up: list[int]) -> dict[int, tuple[int, ...] | None]:
    """Build the hierarchy as live classes, ``lists[x]`` being the bases of
    ``x``; per element, CPython's ``__mro__`` as an id tuple, or None when
    CPython refuses the class or one of its bases."""
    classes: dict[int, type | None] = {}
    out: dict[int, tuple[int, ...] | None] = {}
    # A strict superior has a strictly smaller up-set, so this order
    # creates every base before the classes that list it.
    for x in sorted(range(n), key=lambda x: bin(up[x]).count("1")):
        bases = [classes.get(b) for b in lists[x]]
        if any(b is None for b in bases):
            classes[x] = out[x] = None
            continue
        try:
            cls = type(f"K{x}", tuple(bases) or (object,), {"pid": x})
        except TypeError:
            classes[x] = out[x] = None
            continue
        classes[x] = cls
        out[x] = tuple(k.pid for k in cls.__mro__ if k is not object)
    return out


def induced_lists(n: int, covers, order) -> list[tuple[int, ...]]:
    """Covers-only precedence lists, each sorted by position in ``order``."""
    pos = {x: i for i, x in enumerate(order)}
    upper = upper_lists(n, covers)
    return [tuple(sorted(u, key=pos.__getitem__)) for u in upper]


def experiment_failures(n: int, covers) -> int:
    """The search experiment recounted with CPython: adjoin a least element
    below the minimal elements, and count the linear extensions whose
    induced lists make CPython refuse that least element."""
    bottom = n
    minimal = [x for x in range(n) if not any(a == x for _c, a in covers)]
    covers2 = list(covers) + [(bottom, m) for m in minimal]
    up = up_masks(n + 1, covers2)
    fails = 0
    for order in linear_extensions(n, covers):
        mros = cpython_mros(n + 1, induced_lists(n + 1, covers2, (bottom, *order)), up)
        if mros[bottom] is None:
            fails += 1
    return fails


def order_invariant(n: int, covers) -> tuple:
    """A isomorphism invariant: equal for isomorphic posets, so posets with
    different invariants are certainly not isomorphic."""
    up = up_masks(n, covers)
    down = [0] * n
    for x in range(n):
        for y in members(up[x]):
            down[y] |= 1 << x
    upper = upper_lists(n, covers)
    lower = [[c for c, a in covers if a == x] for x in range(n)]
    sig = [
        (bin(up[x]).count("1"), bin(down[x]).count("1"), len(upper[x]), len(lower[x]))
        for x in range(n)
    ]
    refined = sorted(
        (sig[x], tuple(sorted(sig[y] for y in upper[x])), tuple(sorted(sig[y] for y in lower[x])))
        for x in range(n)
    )
    return (n, count_extensions(n, covers), tuple(refined))
