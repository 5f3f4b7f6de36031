"""Command line interface: exit codes, formats, and file outputs."""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest

from c3control import (
    LinearizationFailedError,
    MergeFailure,
    Poset,
    c3_mro,
    check_extended_consistency,
    check_local_consistency,
    check_monotone,
    induced_assignment,
)
from c3control import search
from c3control.cli import (
    EXIT_DOMAIN,
    EXIT_INPUT,
    EXIT_OK,
    fixture_path,
    main,
)
from c3control.hierarchy import HierarchyFile, parse_hierarchy, serialize_hierarchy

from conftest import grown_relaxed_lists, random_extension


def fx(name: str) -> str:
    return str(fixture_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", fx("c3deviates"), "E")
    assert code == EXIT_OK
    assert out.strip() == "E D B A C"


def test_compute_machine(capsys):
    code, out, _ = run(capsys, "compute", fx("c3fixed"), "E", "--format", "machine")
    assert code == EXIT_OK
    assert json.loads(out) == {"ok": True, "mro": ["E", "D", "C", "B", "A"]}


def test_compute_failure_reports_conflict(capsys):
    code, out, err = run(capsys, "compute", fx("clash"), "E")
    assert code == EXIT_DOMAIN
    assert "could not find a consistent method resolution order" in err
    assert "A" in err and "B" in err


def test_compute_failure_machine(capsys):
    code, out, _ = run(capsys, "compute", fx("clash"), "E", "--format", "machine")
    assert code == EXIT_DOMAIN
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["at"] == "E"


def test_compute_unknown_element(capsys):
    code, out, err = run(capsys, "compute", fx("c3deviates"), "Q")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: unknown element 'Q'\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent.hier", "E")
    assert code == EXIT_INPUT


def test_instrument_text_marks_insertions(capsys):
    code, out, _ = run(capsys, "instrument", fx("h_alt_order"))
    assert code == EXIT_OK
    assert "E2: D2 B +A" in out
    assert "total additions: 1" in out


def test_instrument_machine(capsys):
    code, out, _ = run(capsys, "instrument", fx("c3deviates"), "--format", "machine")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total_added"] == 1
    assert payload["additions"] == {"E": ["B"]}
    assert payload["assignment"]["E"] == ["D", "C", "B"]


def test_instrument_requires_global_order(capsys):
    code, out, err = run(capsys, "instrument", fx("clash"))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: file has no global_order line\n"


def test_instrument_rejects_an_order_that_is_no_linear_extension(tmp_path, capsys):
    path = tmp_path / "upside_down.hier"
    path.write_text("elements: A B\ncover: B A\nglobal_order: A B\n")
    code, out, err = run(capsys, "instrument", str(path))
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == "error: ['A', 'B'] is not a linear extension\n"


def test_instrument_write_back(tmp_path, capsys):
    out_file = tmp_path / "fixed.hier"
    code, _, _ = run(capsys, "instrument", fx("h_alt_order"), "--write-back", str(out_file))
    assert code == EXIT_OK
    h = parse_hierarchy(out_file.read_text())
    p = h.to_poset()
    order = h.global_order_ids(p)
    mro = c3_mro(p, h.assignment_for(p), order[0])
    assert list(mro) == order


def test_check_fixed_passes_with_deviation_note(capsys):
    code, out, _ = run(capsys, "check", fx("c3fixed"))
    assert code == EXIT_OK
    assert "deviates" in out


def test_check_covers_only_all_ok(capsys):
    code, out, _ = run(capsys, "check", fx("c3deviates"))
    assert code == EXIT_OK
    assert "FAIL" not in out and "deviates" not in out


def test_check_clash_fails(capsys):
    code, out, _ = run(capsys, "check", fx("clash"))
    assert code == EXIT_DOMAIN
    assert "FAIL" in out


def _write_hierarchy(path, p: Poset, assignment) -> str:
    path.write_text(serialize_hierarchy(HierarchyFile(
        name="grown",
        elements=list(p.names),
        covers=[(p.names[c], p.names[a]) for c, a in sorted(p.covers)],
        precedence={p.names[c]: [p.names[x] for x in seq]
                    for c, seq in assignment.items() if seq},
    )))
    return str(path)


def _grown_hierarchies(seed: int):
    """A grown family with relaxed valid lists and with the covers-only
    lists a random linear extension induces."""
    p, relaxed = grown_relaxed_lists(seed, drop=0)
    induced = induced_assignment(p, random_extension(p, random.Random(seed)))
    return p, [relaxed, induced]


def _reference_check(p: Poset, assignment) -> tuple[list[dict], int]:
    """``check --format machine``'s rows and exit code, row by row from
    the public checkers."""
    rows = []
    all_ok = True
    for c in range(p.n):
        mro = c3_mro(p, assignment, c)
        if isinstance(mro, MergeFailure):
            rows.append({"element": p.names[c], "mro": "FAIL",
                         "local": "-", "extended": "-", "monotone": "-"})
            all_ok = False
            continue
        local = check_local_consistency(p, assignment, mro)
        try:
            monotone = check_monotone(p, assignment, c)
        except LinearizationFailedError:
            monotone = False
        rows.append({
            "element": p.names[c],
            "mro": "ok",
            "local": "ok" if local else "FAIL",
            "extended": "ok" if check_extended_consistency(p, assignment, mro) else "deviates",
            "monotone": "ok" if monotone else "FAIL",
        })
        all_ok = all_ok and local and monotone
    return rows, EXIT_OK if all_ok else EXIT_DOMAIN


def test_check_machine_equals_the_row_by_row_reference(tmp_path, capsys):
    codes = set()
    for seed in range(40):
        p, assignments = _grown_hierarchies(seed)
        for kind, assignment in enumerate(assignments):
            path = _write_hierarchy(tmp_path / f"{seed}_{kind}.hier", p, assignment)
            code, out, err = run(capsys, "check", path, "--format", "machine")
            rows, expected_code = _reference_check(p, assignment)
            assert (json.loads(out), code, err) == (rows, expected_code, ""), (seed, kind)
            codes.add(code)
    assert codes == {EXIT_OK, EXIT_DOMAIN}


def test_check_monotone_column_catches_a_corrupted_mro(tmp_path, capsys, monkeypatch):
    # Once every MRO is in the cache the command shares, the one of the
    # element with the most inferiors gets its two superiors after the
    # element swapped; the column must still equal check_monotone over
    # that cache.
    failed_rows = 0
    for seed in range(40):
        p, (assignment, _) = _grown_hierarchies(seed)
        mros = [c3_mro(p, assignment, c) for c in range(p.n)]
        candidates = [c for c, mro in enumerate(mros) if len(mro or ()) >= 3]
        if not candidates:
            continue
        victim = max(candidates, key=lambda v: sum(p.leq(c, v) for c in range(p.n)))
        caches = []

        def corrupted_mro(p, assignment, c, cache):
            if not caches:
                for x in range(p.n):
                    c3_mro(p, assignment, x, cache)
                mro = cache[victim]
                cache[victim] = (mro[0], mro[2], mro[1], *mro[3:])
            caches.append(cache)
            return cache[c]

        monkeypatch.setattr("c3control.cli.c3_mro", corrupted_mro)
        path = _write_hierarchy(tmp_path / f"{seed}.hier", p, assignment)
        _, out, _ = run(capsys, "check", path, "--format", "machine")
        cache = caches[0]
        assert all(c is cache for c in caches)
        for c, row in enumerate(json.loads(out)):
            if row["mro"] == "ok":
                expected = "ok" if check_monotone(p, assignment, c, cache) else "FAIL"
                assert row["monotone"] == expected, (seed, c)
                failed_rows += expected == "FAIL"
    assert failed_rows


def test_check_dot_export(tmp_path, capsys):
    dot_file = tmp_path / "h.dot"
    code, _, _ = run(capsys, "check", fx("c3deviates"), "--dot", str(dot_file))
    assert dot_file.read_text().startswith("digraph")


@pytest.mark.parametrize("argv", [
    ("instrument", fx("h_alt_order"), "--write-back"),
    ("check", fx("c3deviates"), "--dot"),
])
def test_unwritable_output_is_input_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *argv, str(target))
    assert code == EXIT_INPUT
    assert err.startswith(f"error: cannot write {target}:") and len(err.splitlines()) == 1


def test_search_text(capsys):
    code, out, _ = run(capsys, "search", "4")
    assert code == EXIT_OK
    assert "labeled posets : 40" in out
    assert "iso classes    : 16" in out
    assert "infeasible     : none" in out


def test_search_machine(capsys):
    code, out, _ = run(capsys, "search", "3", "--format", "machine")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["labeled_poset_count"] == 7
    assert payload["iso_class_count"] == 5
    assert payload["records_infeasible"] == []


def test_search_depth_gate(capsys):
    code, out, err = run(capsys, "search", "8")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "allow_large" in err


def test_search_starts_at_most_one_process_per_class(monkeypatch, capsys):
    # A stand-in pool records its size and maps in this process, so no
    # process starts; n = 3 has 5 classes.
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(search.multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=InProcessPool))
    single = run(capsys, "search", "3", "--format", "machine")
    assert run(capsys, "search", "3", "--jobs", "10000", "--format", "machine") == single
    assert sizes == [5]
    assert run(capsys, "search", "1", "--jobs", "4") == run(capsys, "search", "1")
    assert sizes == [5]


def test_search_negative_depth_is_input_error(capsys):
    code, out, err = run(capsys, "search", "-1")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flags", [("--jobs", "0"), ("--jobs", "-3")])
def test_search_out_of_range_option_is_input_error(capsys, flags):
    code, out, err = run(capsys, "search", "5", *flags)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert flags[0] in err


MALFORMED = {
    "list_misses_cover": "elements: A B C\ncover: C A\ncover: C B\nprecedence: C = A\n",
    "list_has_duplicate": "elements: A B C\ncover: C A\ncover: C B\nprecedence: C = A B A\n",
    "self_cover": "elements: A B\ncover: A A\n",
    "not_a_strict_superior": "elements: A B C\ncover: C B\ncover: B A\nprecedence: B = A C\n",
    "duplicate_cover": "elements: A B\ncover: B A\ncover: B A\n",
    "global_order_wrong_length": "elements: A B C\ncover: C B\ncover: B A\nglobal_order: C B\n",
    "cover_cycle": "elements: A B\ncover: A B\ncover: B A\n",
    "transitively_implied_cover": "elements: A B C\ncover: C B\ncover: B A\ncover: C A\n",
    "repeated_name": "name: X\nname: Y\nelements: A B\ncover: B A\n",
    "repeated_elements": "elements: A B C\nelements: A B\ncover: B A\n",
    "repeated_global_order": "elements: A B\ncover: B A\nglobal_order: B A\nglobal_order: B A\n",
    "repeated_precedence": (
        "elements: A B C\ncover: C A\ncover: C B\nprecedence: C = A B\nprecedence: C = B A\n"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_hierarchy_is_input_error(tmp_path, capsys, case):
    path = tmp_path / f"{case}.hier"
    path.write_text(MALFORMED[case])
    code, out, err = run(capsys, "check", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_undecodable_hierarchy_is_input_error(tmp_path, capsys):
    path = tmp_path / "not_utf8.hier"
    path.write_bytes(b"\xff\xfeelements: A B\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: cannot read") and len(err.splitlines()) == 1


def test_demo_h_quiet(capsys):
    code, out, _ = run(capsys, "demo-h", "--quiet")
    assert code == EXIT_OK
    assert out.strip() == "demo-h: noMRO ok, histogram ok"


def test_demo_h_full(capsys):
    code, out, _ = run(capsys, "demo-h")
    assert code == EXIT_OK
    assert "720/720" in out
    assert "histogram matches" in out
    assert out == (
        "Poset H, bottom element F:\n"
        "  induced-assignment C3 failures: 720/720 (ok)\n"
        "  additions per linear extension:\n"
        "    # additional elements     1     2     3     4     5\n"
        "    # linear extensions      36   108   180   216   180\n"
        "  histogram matches {1: 36, 2: 108, 3: 180, 4: 216, 5: 180}\n"
    )
