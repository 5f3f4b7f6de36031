"""Command-line front end.

Subcommands: compute, instrument, check, search, demo-h.  Exit codes are
a stable contract: 0 success, 1 domain failure (failed MRO, inconsistent
checks, wrong demo numbers), 2 input/parse error.  A command returns its
exit code or raises a typed error; only ``main`` turns an error into an
``error:`` line on stderr and its exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import control, search
from .errors import C3ControlError, InputError
from .hierarchy import (
    HierarchyFile,
    HierarchyParseError,
    parse_hierarchy,
    serialize_hierarchy,
    to_dot,
)
from .linearize import (
    MergeFailure,
    _extended_consistent,
    _local_consistent,
    c3_mro,
    validate_assignment,
)
from .poset import poset_h

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture hierarchy (e.g. ``"h"``, ``"c3fixed"``)."""
    ref = resources.files(__package__) / "fixtures" / f"{name}.hier"
    return Path(str(ref))


def _load(path: str) -> HierarchyFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise HierarchyParseError(f"cannot read {path}: {exc}") from exc
    return parse_hierarchy(text, source=path)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _failure_report(p, failure: MergeFailure) -> str:
    lines = ["error: could not find a consistent method resolution order"]
    if failure.at is not None:
        lines.append(f"  while linearizing: {p.names[failure.at]}")
    lines.append(
        "  merged so far: " + (" ".join(p.names[x] for x in failure.processed) or "(nothing)")
    )
    for rem in failure.remaining:
        lines.append("  stuck list: " + " ".join(p.names[x] for x in rem))
    conflicting = sorted(
        {x for rem in failure.remaining for x in rem[1:]}
        & {rem[0] for rem in failure.remaining}
    )
    if conflicting:
        lines.append(
            "  conflicting elements: " + " ".join(p.names[x] for x in conflicting)
        )
    return "\n".join(lines)


def cmd_compute(args) -> int:
    h = _load(args.file)
    p = h.to_poset()
    try:
        element = p.id_of(args.element)
    except KeyError:
        raise InputError(f"unknown element {args.element!r}") from None
    assignment = h.assignment_for(p)
    validate_assignment(p, assignment)
    result = c3_mro(p, assignment, element)
    if isinstance(result, MergeFailure):
        if args.format == "machine":
            print(json.dumps({"ok": False, "at": p.names[result.at] if result.at is not None else None,
                              "processed": [p.names[x] for x in result.processed],
                              "remaining": [[p.names[x] for x in r] for r in result.remaining]},
                             sort_keys=True))
        else:
            print(_failure_report(p, result), file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "machine":
        print(json.dumps({"ok": True, "mro": [p.names[x] for x in result]}, sort_keys=True))
    else:
        print(" ".join(p.names[x] for x in result))
    return EXIT_OK


def cmd_instrument(args) -> int:
    h = _load(args.file)
    p = h.to_poset()
    order = h.global_order_ids(p)
    if order is None:
        raise InputError("file has no global_order line")
    result = control.c3_instrumented(p, order)
    if args.format == "machine":
        print(json.dumps({
            "assignment": {p.names[c]: [p.names[x] for x in seq]
                           for c, seq in sorted(result.assignment.items())},
            "additions": {p.names[c]: [p.names[x] for x in seq]
                          for c, seq in sorted(result.additions.items())},
            "total_added": result.total_added,
        }, sort_keys=True))
    else:
        for c in order:
            if not result.assignment[c]:
                continue
            added = set(result.additions.get(c, ()))
            rendered = " ".join(
                f"+{p.names[x]}" if x in added else p.names[x]
                for x in result.assignment[c]
            )
            print(f"{p.names[c]}: {rendered}")
        print(f"total additions: {result.total_added}")
    if args.write_back:
        h.precedence = {
            p.names[c]: [p.names[x] for x in seq]
            for c, seq in result.assignment.items()
            if seq
        }
        _write(args.write_back, serialize_hierarchy(h))
    return EXIT_OK


def cmd_check(args) -> int:
    h = _load(args.file)
    p = h.to_poset()
    if args.dot:
        _write(args.dot, to_dot(h))
    assignment = h.assignment_for(p)
    validate_assignment(p, assignment)
    cache: dict = {}
    mros = [c3_mro(p, assignment, c, cache) for c in range(p.n)]
    # The monotone column, filled superiors first: MRO(c) restricts to
    # every superior's MRO iff it restricts to each upper cover b's and
    # b's column is ok, as restricting to up(b) and then to up(a) <= up(b)
    # is restricting to up(a).  Every list names its element's covers, so
    # a failed MRO also fails every element below it.
    monotone = [False] * p.n
    for c in reversed(next(p.linear_extensions())):
        monotone[c] = not isinstance(mros[c], MergeFailure) and all(
            monotone[b] and tuple(x for x in mros[c] if p.up_mask(b) >> x & 1) == mros[b]
            for b in p.upper_covers(c)
        )
    # The extended-precedence condition is strictly stronger than what a
    # successful C3 run guarantees (relaxed lists trade it away on
    # purpose, and even covers-only lists can deviate), so that column is
    # diagnostic and never drives the exit status.
    rows = []
    all_ok = True
    for c, mro in enumerate(mros):
        if isinstance(mro, MergeFailure):
            rows.append((p.names[c], "FAIL", "-", "-", "-"))
            all_ok = False
            continue
        # A C3 MRO is a permutation of its up-set: one map, no validation.
        pos = {x: i for i, x in enumerate(mro)}
        loc_ok = _local_consistent(assignment, pos)
        ext_ok = _extended_consistent(p, assignment, pos)
        rows.append((
            p.names[c],
            "ok",
            "ok" if loc_ok else "FAIL",
            "ok" if ext_ok else "deviates",
            "ok" if monotone[c] else "FAIL",
        ))
        all_ok = all_ok and loc_ok and monotone[c]
    if args.format == "machine":
        print(json.dumps([
            {"element": r[0], "mro": r[1], "local": r[2], "extended": r[3], "monotone": r[4]}
            for r in rows
        ], sort_keys=True))
    else:
        print(f"{'element':<10} {'mro':<5} {'local':<6} {'extended':<9} monotone")
        for r in rows:
            print(f"{r[0]:<10} {r[1]:<5} {r[2]:<6} {r[3]:<9} {r[4]}")
    return EXIT_OK if all_ok else EXIT_DOMAIN


def _summary_as_json(summary: search.SearchSummary) -> str:
    return json.dumps({
        "n": summary.n,
        "labeled_poset_count": summary.labeled_poset_count,
        "iso_class_count": summary.iso_class_count,
        "records_infeasible": [
            {
                "canonical_key": r.canonical_key.hex(),
                "extension_count": r.extension_count,
                "failure_count": r.failure_count,
                "labeled_count": r.labeled_count,
                "covers": sorted(r.representative.covers),
            }
            for r in summary.infeasible
        ],
    }, sort_keys=True)


def cmd_search(args) -> int:
    for what, value, least in (("depth", args.n, 0), ("--jobs", args.jobs, 1)):
        if value < least:
            raise InputError(f"search {what} must be at least {least}, got {value}")
    summary = search.map_reduce_search(
        args.n,
        workers=args.jobs,
        allow_large=args.allow_large,
    )
    if args.format == "machine":
        print(_summary_as_json(summary))
    else:
        print(f"n = {summary.n}")
        print(f"labeled posets : {summary.labeled_poset_count}")
        print(f"iso classes    : {summary.iso_class_count}")
        infeasible = summary.infeasible
        if infeasible:
            print(f"infeasible     : {len(infeasible)} class(es)")
            for r in infeasible:
                print(f"  {r.representative!r} ({r.failure_count}/{r.extension_count} failures)")
        else:
            print("infeasible     : none")
    return EXIT_OK


_H_HISTOGRAM = {1: 36, 2: 108, 3: 180, 4: 216, 5: 180}


def cmd_demo_h(args) -> int:
    h = poset_h()
    record = search.run_experiment(h.restrict(range(9)))
    no_mro_ok = (record.extension_count, record.failure_count) == (720, 720)
    histogram = control.count_additions_per_extension(h)
    hist_ok = histogram == _H_HISTOGRAM
    if args.quiet:
        print(f"demo-h: noMRO {'ok' if no_mro_ok else 'FAIL'}, "
              f"histogram {'ok' if hist_ok else 'FAIL'}")
    else:
        print("Poset H, bottom element F:")
        print(f"  induced-assignment C3 failures: "
              f"{record.failure_count}/{record.extension_count} "
              f"({'ok' if no_mro_ok else 'FAIL: expected 720/720'})")
        print("  additions per linear extension:")
        print("    # additional elements " + " ".join(f"{k:>5}" for k in sorted(histogram)))
        print("    # linear extensions   " + " ".join(f"{histogram[k]:>5}" for k in sorted(histogram)))
        print(f"  histogram {'matches' if hist_ok else 'does NOT match'} {_H_HISTOGRAM}")
    return EXIT_OK if no_mro_ok and hist_ok else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c3control",
        description="C3 linearization, consistency checking, instrumentation, "
                    "and exhaustive search over small posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "machine"), default="text")

    sp = sub.add_parser("compute", help="compute the MRO of an element")
    sp.add_argument("file")
    sp.add_argument("element")
    add_format(sp)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("instrument",
                        help="compute minimal precedence lists for the file's global order")
    sp.add_argument("file")
    sp.add_argument("--write-back", metavar="OUT",
                    help="write the hierarchy with computed precedence lists to OUT")
    add_format(sp)
    sp.set_defaults(func=cmd_instrument)

    sp = sub.add_parser("check", help="run all consistency checks for every element")
    sp.add_argument("file")
    sp.add_argument("--dot", metavar="OUT", help="also export the cover digraph as DOT")
    add_format(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("search", help="exhaustive C3 experiment over small posets")
    sp.add_argument("n", type=int)
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the experiments, at most one per class")
    sp.add_argument("--allow-large", action="store_true",
                    help="permit long-running depths (n >= 8)")
    add_format(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("demo-h", help="verify the 10-element counterexample numbers")
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(func=cmd_demo_h)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except C3ControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
