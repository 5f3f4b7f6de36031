"""The benchmark's workloads.

Each workload makes its inputs from a seed (``make``), runs one pass over
them through c3control's public functions (``run``), and checks a pass's
outputs against ``oracles`` (``check``). A pass returns one output per
operation; ``check`` returns one list of problems per operation, empty
when the operation's output is correct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracles

# The paper's 720-extension histogram of insertions on H.
H_HISTOGRAM = {1: 36, 2: 108, 3: 180, 4: 216, 5: 180}
H_EXTENSIONS = 720


@dataclass
class Inputs:
    items: int  # work items per pass
    data: dict = field(default_factory=dict)


class Search:
    """``map_reduce_search(n)`` for every depth, one operation per depth."""

    name = "search"

    def __init__(self, smoke: bool):
        self.depths = range(6 if smoke else 7)

    def make(self, c3, seed: int) -> Inputs:
        # Every class up to n = 5 is recounted with CPython, and a seeded
        # sample of the 318 classes at n = 6.
        rng = random.Random(seed)
        return Inputs(
            items=sum(oracles.LABELED_POSETS[n] for n in self.depths),
            data={"recount": set(rng.sample(range(oracles.POSET_CLASSES[6]), 24))},
        )

    def run(self, c3, inputs: Inputs, counter=None) -> list:
        return [c3.map_reduce_search(n) for n in self.depths]

    def check(self, c3, inputs: Inputs, outputs: list) -> list[list[str]]:
        report = []
        for n, summary in zip(self.depths, outputs):
            bad = []
            if summary.labeled_poset_count != oracles.LABELED_POSETS[n]:
                bad.append(f"n={n}: {summary.labeled_poset_count} labeled posets")
            if summary.iso_class_count != oracles.POSET_CLASSES[n]:
                bad.append(f"n={n}: {summary.iso_class_count} classes")
            if sum(r.labeled_count for r in summary.records) != summary.labeled_poset_count:
                bad.append(f"n={n}: labeled counts do not add up")
            for i, r in enumerate(summary.records):
                rep = r.representative
                covers = sorted(rep.covers)
                e = oracles.count_extensions(rep.n, covers)
                if rep.n != n or r.extension_count != r.labeled_count * e:
                    bad.append(f"n={n} class {i}: {r.extension_count} extensions, expected {r.labeled_count}*{e}")
                if r.failure_count >= r.extension_count:
                    bad.append(f"n={n} class {i}: infeasible")
                if n <= 5 or i in inputs.data["recount"]:
                    fails = oracles.experiment_failures(rep.n, covers)
                    if r.failure_count != r.labeled_count * fails:
                        bad.append(f"n={n} class {i}: {r.failure_count} failures, CPython gives {r.labeled_count}*{fails}")
            report.append(bad)
        return report


def random_covers(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Covers of a random poset: each pair i < j is related with probability
    ``density``, the relation is closed and reduced, and ids are shuffled."""
    up = [0] * n
    for i in reversed(range(n)):
        m = 1 << i
        for j in range(i + 1, n):
            if rng.random() < density:
                m |= up[j]
        up[i] = m
    covers = []
    for i in range(n):
        strict = up[i] & ~(1 << i)
        for j in oracles.members(strict):
            if not any(k != j and up[k] >> j & 1 for k in oracles.members(strict)):
                covers.append((i, j))
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[c], perm[a]) for c, a in covers]


class InstrumentExtensions:
    """``count_additions_per_extension`` and ``run_experiment`` on H, on a
    relabeling of H and on distinct random posets; one operation per poset."""

    name = "instrument-extensions"

    def __init__(self, smoke: bool):
        self.sizes = (7, 8) if smoke else (10, 11)
        self.extension_range = (20, 100) if smoke else (100, 1000)
        self.target_pairs = 200 if smoke else 15_000
        self.recount = 1 if smoke else 3  # random posets recounted with CPython
        self.replays = 4 if smoke else 24  # (poset, extension) pairs replayed

    def make(self, c3, seed: int) -> Inputs:
        rng = random.Random(seed)
        h = c3.poset_h()
        h_covers = sorted(h.covers)
        perm = list(range(h.n))
        rng.shuffle(perm)
        relabeled = sorted((perm[c], perm[a]) for c, a in h_covers)
        posets = [(h, h_covers, H_EXTENSIONS), (h.relabel(perm), relabeled, H_EXTENSIONS)]
        seen = {oracles.order_invariant(h.n, h_covers)}
        pairs = 0
        lo, hi = self.extension_range
        while pairs < self.target_pairs:
            n = rng.choice(self.sizes)
            covers = random_covers(rng, n, rng.uniform(0.3, 0.45))
            e = oracles.count_extensions(n, covers)
            if not lo <= e <= hi:
                continue
            key = oracles.order_invariant(n, covers)
            if key in seen:
                continue
            seen.add(key)
            posets.append((c3.Poset(n, covers), covers, e))
            pairs += e
        recount = set(rng.sample(range(2, len(posets)), self.recount))
        picks = rng.choices(range(len(posets)), k=self.replays)
        replays = [(i, rng.randrange(posets[i][2])) for i in picks]
        return Inputs(
            items=sum(e for _p, _c, e in posets),
            data={"posets": posets, "recount": recount, "replays": replays},
        )

    def run(self, c3, inputs: Inputs, counter=None) -> list:
        return [
            (c3.count_additions_per_extension(p), c3.run_experiment(p))
            for p, _covers, _e in inputs.data["posets"]
        ]

    def check(self, c3, inputs: Inputs, outputs: list) -> list[list[str]]:
        posets = inputs.data["posets"]
        report = []
        for i, ((p, covers, e), (hist, record)) in enumerate(zip(posets, outputs)):
            bad = []
            if i < 2:
                if hist != H_HISTOGRAM:
                    bad.append(f"H copy {i}: histogram {hist}")
                if (record.extension_count, record.failure_count) != (e, e):
                    bad.append(f"H copy {i}: experiment {record.extension_count}/{record.failure_count}")
            if sum(hist.values()) != e:
                bad.append(f"poset {i}: histogram total {sum(hist.values())}, {e} extensions")
            if record.extension_count != e or not 0 <= record.failure_count <= e:
                bad.append(f"poset {i}: experiment {record.extension_count}/{record.failure_count}, {e} extensions")
            if i in inputs.data["recount"]:
                fails = oracles.experiment_failures(p.n, covers)
                if record.failure_count != fails:
                    bad.append(f"poset {i}: {record.failure_count} failures, CPython gives {fails}")
            report.append(bad)
        for i, k in inputs.data["replays"]:
            p, covers, _e = posets[i]
            g = next(g for j, g in enumerate(oracles.linear_extensions(p.n, covers)) if j == k)
            result = c3.c3_instrumented(p, g)
            problems = check_instrumented(p.n, covers, g, result)
            if result.total_added not in outputs[i][0]:
                problems.append(f"{result.total_added} insertions not in the histogram")
            problems += check_forced_mros(c3, p, covers, g, result.assignment)
            report[i] += [f"poset {i} extension {k}: {msg}" for msg in problems]
        return report


def check_instrumented(n: int, covers, g, result) -> list[str]:
    """Instrumented lists hold every cover, only strict superiors, in the
    order of ``g``, and the insertions add up."""
    up = oracles.up_masks(n, covers)
    upper = oracles.upper_lists(n, covers)
    pos = {x: i for i, x in enumerate(g)}
    bad = []
    added = 0
    for c in range(n):
        lst = result.assignment.get(c, ())
        if not set(upper[c]) <= set(lst):
            bad.append(f"list of {c} misses a cover")
        if any(x == c or not up[c] >> x & 1 for x in lst) or len(set(lst)) != len(lst):
            bad.append(f"list of {c} holds a non-superior or a duplicate")
        if list(lst) != sorted(lst, key=lambda x: pos.get(x, -1)):
            bad.append(f"list of {c} is not in global order")
        added += len(lst) - len(upper[c])
    if added != result.total_added:
        bad.append(f"total_added {result.total_added}, lists add {added}")
    return bad


def check_forced_mros(c3, p, covers, g, assignment) -> list[str]:
    """C3 and CPython reproduce ``g`` on every up-set under ``assignment``."""
    up = oracles.up_masks(p.n, covers)
    cpython = oracles.cpython_mros(p.n, assignment, up)
    cache: dict = {}
    bad = []
    for c in range(p.n):
        want = oracles.restrict_order(g, up[c])
        got = c3.c3_mro(p, assignment, c, cache)
        if got != want or cpython[c] != want:
            bad.append(f"MRO of {c}: C3 {got}, CPython {cpython[c]}, g gives {want}")
    return bad


def random_family(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """Local covers of one family: class k > 0 directly inherits from a
    random antichain of 1 to 4 earlier classes, drawn uniformly."""
    up = [1]
    covers = []
    for k in range(1, size):
        want = rng.randint(1, 4)
        chosen: list[int] = []
        for _ in range(8 * want):
            if len(chosen) == want:
                break
            b = rng.randrange(k)
            if any(b == a or up[b] >> a & 1 or up[a] >> b & 1 for a in chosen):
                continue
            chosen.append(b)
        m = 1 << k
        for b in chosen:
            covers.append((k, b))
            m |= up[b]
        up.append(m)
    return covers


class LargeHierarchy:
    """Instrument a SageMath-like hierarchy, round-trip it through the
    ``.hier`` format, and linearize every class under three assignments."""

    name = "large-hierarchy"

    def __init__(self, smoke: bool):
        self.families = 2 if smoke else 16
        self.family_size = 30 if smoke else 130
        self.important = 4 if smoke else 8

    def make(self, c3, seed: int) -> Inputs:
        rng = random.Random(seed)
        covers = []
        offset = 1  # class 0 is the common root
        for _ in range(self.families):
            covers.append((offset, 0))
            covers += [(c + offset, a + offset) for c, a in random_family(rng, self.family_size)]
            offset += self.family_size
        n = offset
        return Inputs(
            items=3 * n,
            data={
                "n": n,
                "covers": covers,
                "names": [f"C{i}" for i in range(n)],
                "important": rng.sample(range(n), self.important),
            },
        )

    def run(self, c3, inputs: Inputs, counter=None) -> list:
        d = inputs.data
        n, names = d["n"], d["names"]
        p = c3.Poset(n, d["covers"], names)
        keys = c3.compute_sort_keys(p, d["important"])
        g = keys.order
        ins = c3.c3_instrumented(p, g)
        hier = c3.hierarchy
        text = hier.serialize_hierarchy(
            hier.HierarchyFile(
                name="large",
                elements=list(names),
                covers=[(names[c], names[a]) for c, a in d["covers"]],
                precedence={names[c]: [names[x] for x in lst] for c, lst in ins.assignment.items()},
                global_order=[names[x] for x in g],
            )
        )
        back = hier.parse_hierarchy(text)
        p2 = back.to_poset()
        roundtrip = (p2.n, p2.names, p2.covers, back.assignment_for(p2), back.global_order_ids(p2))
        brute = c3.brute_force_assignment(p, g)
        induced = c3.induced_assignment(p, g)
        out = [p, keys, ins, roundtrip, brute, induced]
        for assignment in (ins.assignment, brute, induced):
            cache: dict = {}
            out += [c3.c3_mro(p, assignment, c, cache, counter) for c in range(n)]
        return out

    def check(self, c3, inputs: Inputs, outputs: list) -> list[list[str]]:
        d = inputs.data
        n, covers, names = d["n"], d["covers"], d["names"]
        p, keys, ins, roundtrip, brute, induced = outputs[:6]
        g = keys.order
        up = oracles.up_masks(n, covers)
        report: list[list[str]] = [[] for _ in outputs]
        if p.n != n or set(p.covers) != set(covers):
            report[0].append("poset differs from its covers")
        if not (keys.is_extension and oracles.is_linear_extension(n, covers, g)):
            report[1].append("sort-key order is not a linear extension")
            return [bad or ["global order is wrong"] for bad in report]
        report[2] = check_instrumented(n, covers, g, ins)
        if roundtrip != (n, tuple(names), frozenset(covers), ins.assignment, list(g)):
            report[3].append("round trip changed the hierarchy")
        if brute != {c: oracles.restrict_order(g, up[c] & ~(1 << c)) for c in range(n)}:
            report[4].append("brute-force lists are not the strict up-sets in global order")
        want_induced = oracles.induced_lists(n, covers, g)
        if induced != dict(enumerate(want_induced)):
            report[5].append("induced lists are not the covers in global order")
        forced = [oracles.restrict_order(g, up[c]) for c in range(n)]
        for k, lists in enumerate((ins.assignment, brute, want_induced)):
            cpython = oracles.cpython_mros(n, lists, up)
            for c in range(n):
                got = outputs[6 + k * n + c]
                if k < 2:
                    ok = got == forced[c] and cpython[c] == forced[c]
                else:  # C3 may fail here, but exactly where CPython does
                    ok = got == cpython[c] if cpython[c] is not None else isinstance(got, c3.MergeFailure)
                if not ok:
                    report[6 + k * n + c].append(f"assignment {k}, class {c}: C3 {got}, CPython {cpython[c]}")
        return report


WORKLOADS = {w.name: w for w in (Search, InstrumentExtensions, LargeHierarchy)}
