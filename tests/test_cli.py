"""Command line interface: exit codes, formats, and file outputs."""

from __future__ import annotations

import json

import pytest

from c3control import c3_mro
from c3control.cli import (
    EXIT_DOMAIN,
    EXIT_INPUT,
    EXIT_OK,
    fixture_path,
    main,
)
from c3control.hierarchy import parse_hierarchy


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
    code, _, err = run(capsys, "compute", fx("c3deviates"), "Q")
    assert code == EXIT_INPUT
    assert "unknown element" in err


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
    code, _, err = run(capsys, "instrument", fx("clash"))
    assert code == EXIT_INPUT
    assert "global_order" in err


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
    code, _, err = run(capsys, "search", "8")
    assert code == EXIT_DOMAIN
    assert "allow_large" in err


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
