"""Command-line surface: formats, exit codes, deterministic output."""

import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, strategies as st

from sepsys import (Family, binary_separating, dual, new_family, search,
                    spencer_completely_separating)
from sepsys.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    emit_family,
    main,
    parse_family,
    parse_family_json,
    parse_family_text,
)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- document formats --------------------------------------------------------


def test_parse_emit_json_roundtrip():
    f = new_family(3, [[0, 1], [2], []])
    text = emit_family(f)
    assert parse_family(text) == f
    assert json.loads(text) == {"ground_size": 3, "sets": [[0, 1], [2], []]}


def test_parse_json_accepts_unsorted_and_normalizes():
    f = parse_family('{"ground_size":3,"sets":[[2,0]]}')
    assert f.members == (0b101,)
    assert emit_family(f) == '{"ground_size":3,"sets":[[0,2]]}'


def test_parse_emit_text_roundtrip():
    f = new_family(3, [[0, 1], [2], []])
    text = emit_family(f, "text")
    assert text == "3 3\n110\n001\n000"
    assert parse_family(text) == f
    assert parse_family_text(text) == f


@pytest.mark.parametrize("members", [(), (0,), (0, 0, 0)])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_ground_0_roundtrip(fmt, members):
    # a ground-0 member is an empty row, which the text format cannot tell
    # from a blank line, so the header alone gives the member count
    f = Family(0, members)
    text = emit_family(f, fmt)
    assert parse_family(text) == f
    assert parse_family(text + "\n") == f  # as printed


def test_ground_0_rows_must_be_blank():
    with pytest.raises(ValueError, match="expected 2 member rows, got 1"):
        parse_family("0 2\n01")
    with pytest.raises(ValueError, match="line 2: expected 0 characters of 0/1, got '1'"):
        parse_family("0 1\n1")
    with pytest.raises(ValueError, match="expected -1 member rows, got 0"):
        parse_family("0 -1")


def test_ground_0_text_pipes_back(capsys, monkeypatch):
    doc = '{"ground_size":2,"sets":[]}\n'
    code, text, _ = run(capsys, ["dual", "--format", "text"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, text) == (EXIT_OK, "0 2\n\n\n")
    code, out, err = run(capsys, ["dual"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (EXIT_OK, doc, "")


def test_ground_0_member_count_is_bounded_by_the_document(capsys, monkeypatch):
    # each blank member row needs its line break, so a 12-byte header cannot
    # make the parser build a list of 10^9 rows
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="expected 1000000000 member rows, got 0"):
        parse_family("0 1000000000")
    code, out, err = run(capsys, ["dual"], "0 1000000000", monkeypatch)
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert "error: expected 1000000000 member rows, got 0" in err
    with pytest.raises(ValueError, match="expected 3 member rows, got 2"):
        parse_family("0 3\n\n")


def test_parse_errors_name_the_problem():
    with pytest.raises(ValueError, match="index 1"):
        parse_family('{"ground_size":1,"sets":[[1]]}')
    with pytest.raises(ValueError, match="JSON"):
        parse_family("{nope")
    with pytest.raises(ValueError, match="line 2"):
        parse_family("2 1\n012")
    with pytest.raises(ValueError, match="member rows"):
        parse_family("2 2\n01")
    with pytest.raises(ValueError, match="empty"):
        parse_family("   ")
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_family_json("[]")  # parse_family reads this as the text format
    with pytest.raises(ValueError, match="needs 'ground_size' and 'sets'"):
        parse_family('{"ground_size":1}')
    with pytest.raises(ValueError, match="'ground_size' must be an integer"):
        parse_family('{"ground_size":true,"sets":[]}')
    with pytest.raises(ValueError, match="'sets' must be a list of index lists"):
        parse_family('{"ground_size":1,"sets":[0]}')
    with pytest.raises(ValueError, match="member 1: index '0' is not an integer"):
        parse_family('{"ground_size":1,"sets":[[0],["0"]]}')
    with pytest.raises(ValueError, match="line 1: expected 'm n'"):
        parse_family("2\n01")
    with pytest.raises(ValueError, match="line 1: expected two integers"):
        parse_family("2 x\n01")


def test_parse_text_errors_count_blank_lines(capsys, monkeypatch):
    # line numbers are the document's, blank lines included
    with pytest.raises(ValueError, match="line 5: expected 2 characters of 0/1, got '0x'"):
        parse_family("2 2\n\n01\n\n0x\n")
    with pytest.raises(ValueError, match="line 3: expected 'm n'"):
        parse_family("\n  \n2\n01")
    with pytest.raises(ValueError, match="line 2: expected two integers"):
        parse_family("\n2 x\n01")
    with pytest.raises(ValueError, match="line 6: expected 2 characters of 0/1, got '012'"):
        parse_family("\n\n2 2\n10\n\n012\n")
    assert parse_family("\n\n2 2\n\n10\n\n01\n\n") == new_family(2, [[0], [1]])
    code, out, err = run(capsys, ["dual"], stdin="2 2\n\n01\n\n0x\n", monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_USAGE, "")
    assert "line 5: expected 2 characters of 0/1, got '0x'" in err


@pytest.mark.parametrize("row", ["0_1", "+01", "-01", "0 1", "01", "0101", "012"])
def test_parse_text_refuses_rows_of_other_than_m_0s_and_1s(row):
    # int(row, 2) alone reads the first three as numbers
    with pytest.raises(ValueError) as e:
        parse_family(f"3 1\n{row}")
    assert str(e.value) == f"line 2: expected 3 characters of 0/1, got {row!r}"


def test_parse_text_error_order():
    # the header, then the row count, then each row, then the ground's capacity
    wide = "1" * 65
    cases = [
        ("65\n" + wide, "line 1: expected 'm n', got '65'"),
        ("65 2\n" + wide, "expected 2 member rows, got 1"),
        ("65 1\n" + wide[1:], f"line 2: expected 65 characters of 0/1, got {wide[1:]!r}"),
        ("65 1\n" + wide, "ground_size 65 exceeds the 64-element capacity"),
        ("-1 0", "ground_size must be >= 0, got -1"),
    ]
    for doc, message in cases:
        with pytest.raises(ValueError) as e:
            parse_family(doc)
        assert str(e.value) == message


@st.composite
def wide_families(draw):
    m = draw(st.integers(0, 64))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=8))
    return Family(m, tuple(words))


@pytest.mark.parametrize("fmt", ["json", "text"])
@given(f=wide_families())
@example(f=Family(0, (0, 0, 0)))
@example(f=Family(64, ((1 << 64) - 1, 0, 1 << 63)))
def test_parse_inverts_emit(fmt, f):
    assert parse_family(emit_family(f, fmt)) == f


def test_witness_attachment_shape():
    from sepsys.core import SeparatorWitness

    f = new_family(2, [[0]])
    text = emit_family(f, role="dual", witnesses=[(0, SeparatorWitness(0b01, 0b01))])
    doc = json.loads(text)
    assert doc["role"] == "dual"
    assert doc["witnesses"] == [{"member_index": 0, "separator": [0], "key": [0]}]


# --- verify ------------------------------------------------------------------


def test_verify_nice_m4_family(capsys, monkeypatch):
    doc = (
        '{"ground_size":4,"sets":[[],[0],[1],[0,2],[1,3],[0,2,3],[1,2,3],[0,1,2,3]]}'
    )
    code, out, _ = run(
        capsys, ["verify", "--property", "nice", "--k", "2"], doc, monkeypatch
    )
    assert code == EXIT_OK
    assert out.startswith("PASS nice k=2")
    assert out.count("separator") == 8


def test_verify_separating_fail(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        ["verify", "--property", "separating"],
        '{"ground_size":2,"sets":[[0,1]]}',
        monkeypatch,
    )
    assert code == EXIT_FAIL
    assert "FAIL separating" in out and "(0, 1)" in out


def test_verify_hcs_construction(capsys, monkeypatch):
    from sepsys import k_hcs_minimal

    doc = emit_family(k_hcs_minimal(10, 2))
    code, out, _ = run(
        capsys, ["verify", "--property", "hcs", "--k", "2"], doc, monkeypatch
    )
    assert code == EXIT_OK and "PASS" in out


def test_verify_hcs_duplicates_fail_promptly():
    # 28 copies of {0,1}: no subfamily isolates 0, which the members holding
    # 0 already show; trying every subfamily of up to 12 copies took minutes
    doc = json.dumps({"ground_size": 2, "sets": [[0, 1]] * 28})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "sepsys.cli", "verify", "--property", "hcs", "--k", "12"],
        input=doc, capture_output=True, text=True, env=_cli_env(), timeout=10,
    )
    seconds = time.monotonic() - t0
    assert proc.returncode == EXIT_FAIL, proc.stderr
    assert "counterexample 0" in proc.stdout
    assert seconds < 1, f"verify took {seconds:.1f}s"


def test_verify_nice_huge_k_above_table_fails_promptly():
    # a 13-element ground is scanned lazily; the scan stops at size 13, not
    # at k, which took 1.9 s at k = 10**7
    doc = "13 3\n1000000000000\n1000000000000\n0100000000000\n"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "sepsys.cli", "verify", "--property", "nice", "--k", "10000000"],
        input=doc, capture_output=True, text=True, env=_cli_env(), timeout=10,
    )
    seconds = time.monotonic() - t0
    assert proc.returncode == EXIT_FAIL, proc.stderr
    assert proc.stdout == "FAIL nice: counterexample 0\n"
    assert seconds < 1, f"verify took {seconds:.1f}s"


def test_verify_requires_k(capsys, monkeypatch):
    code, _, err = run(
        capsys,
        ["verify", "--property", "nice"],
        '{"ground_size":1,"sets":[[0]]}',
        monkeypatch,
    )
    assert code == EXIT_USAGE and "--k is required" in err


def test_verify_bad_document_is_usage_error(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["verify", "--property", "separating"], "{bad json", monkeypatch
    )
    assert code == EXIT_USAGE and "error" in err


@pytest.mark.parametrize("argv", [["verify", "--property", "separating"], ["canon"]])
def test_unreadable_input_is_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, [*argv, "--input", str(missing)])
    assert code == EXIT_USAGE and out == ""
    assert "cannot read --input" in err and "missing.json" in err
    code, _, err = run(capsys, [*argv, "--input", str(tmp_path)])  # a directory
    assert code == EXIT_USAGE and "cannot read --input" in err


def test_verify_reads_input_file(capsys, tmp_path):
    doc = tmp_path / "m4.txt"
    doc.write_text("4 3\n1100\n1010\n0110\n")
    code, out, err = run(capsys, ["verify", "--property", "nice", "--k", "2", "--input", str(doc)])
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == [
        "PASS nice k=2",
        "  member 0 {0,1}: separator {2} key {}",
        "  member 1 {0,2}: separator {1} key {}",
        "  member 2 {1,2}: separator {0} key {}",
    ]


# --- construct ---------------------------------------------------------------


def test_construct_hs2_n8(capsys):
    code, out, _ = run(capsys, ["construct", "--kind", "hs2", "--n", "8"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ground_size"] == 8 and len(doc["sets"]) == 4
    assert doc["role"] == "primal"


def test_construct_nice_small_attaches_witnesses(capsys):
    code, out, _ = run(capsys, ["construct", "--kind", "nice-small", "--m", "4"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["role"] == "dual"
    assert len(doc["sets"]) == 8
    assert len(doc["witnesses"]) == 8
    # witnesses are the deterministic separator outputs; re-check one
    assert doc["witnesses"][0] == {"member_index": 0, "separator": [0, 1], "key": []}


def test_construct_pipes_into_verify(capsys, monkeypatch):
    code, out, _ = run(capsys, ["construct", "--kind", "spencer", "--n", "12"])
    assert code == EXIT_OK
    code, out2, _ = run(
        capsys, ["verify", "--property", "completely"], out, monkeypatch
    )
    assert code == EXIT_OK and "PASS" in out2


def _completely_report(f):
    """The `verify --property completely` report written per ordered pair
    from the definition: for each element v, each other element v2 in order
    with the lowest member that holds v and misses v2, or the first pair
    that no member splits."""
    lines = ["PASS completely"]
    for v in range(f.ground_size):
        pairs = []
        for v2 in range(f.ground_size):
            held = [i for i, w in enumerate(f.members) if w >> v & 1 and not w >> v2 & 1]
            if v2 != v and not held:
                return f"FAIL completely: counterexample {(v, v2)}\n"
            if v2 != v:
                pairs.append(f"{v}|{v2}->set{held[0]}")
        lines.append(f"  element {v}: " + " ".join(pairs))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("make, first", [
    *((lambda n=n: spencer_completely_separating(n), "PASS completely") for n in (3, 7, 20)),
    (lambda: new_family(4, [[0, 1], [0, 2], [1, 2], [2, 3], [0, 3]]), "PASS completely"),
    (lambda: binary_separating(4), "FAIL completely: counterexample (0, 1)"),
    (lambda: new_family(3, [[0], [1], [0, 2]]), "FAIL completely: counterexample (2, 0)"),
], ids=["spencer-3", "spencer-7", "spencer-20", "mixed-indices", "binary-4", "late-failure"])
def test_verify_completely_report_pinned(capsys, monkeypatch, make, first):
    f = make()
    argv = ["verify", "--property", "completely"]
    code, out, err = run(capsys, argv, emit_family(f), monkeypatch)
    assert (code, err) == (EXIT_OK if first.startswith("PASS") else EXIT_FAIL, "")
    assert out.splitlines()[0] == first
    assert out == _completely_report(f)
    if len(f) == 3 and first.startswith("PASS"):
        assert out == (
            "PASS completely\n"
            "  element 0: 0|1->set0 0|2->set0\n"
            "  element 1: 1|0->set1 1|2->set1\n"
            "  element 2: 2|0->set2 2|1->set2\n"
        )


def test_construct_text_format_roundtrip(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["construct", "--kind", "binary", "--n", "5", "--format", "text"]
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "5 3"
    code, out2, _ = run(
        capsys, ["verify", "--property", "separating"], out, monkeypatch
    )
    assert code == EXIT_OK


def test_construct_usage_errors(capsys):
    code, _, err = run(capsys, ["construct", "--kind", "binary"])
    assert code == EXIT_USAGE and "--n is required" in err
    code, _, err = run(capsys, ["construct", "--kind", "nice-small", "--m", "9"])
    assert code == EXIT_USAGE
    code, out, err = run(capsys, ["construct", "--kind", "hcs", "--n", "5"])
    assert code == EXIT_USAGE and out == "" and "--k is required" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["construct", "--kind", "binary", "--n", "4", "--k", "7", "--m", "3"], "--k"),
        (["construct", "--kind", "binary", "--n", "4", "--m", "3"], "--m"),
        (["construct", "--kind", "hs2", "--n", "8", "--k", "2"], "--k"),
        (["construct", "--kind", "nice-small", "--m", "4", "--n", "3"], "--n"),
        (["verify", "--property", "separating", "--k", "5"], "--k"),
        (["verify", "--property", "completely", "--k", "2"], "--k"),
    ],
    ids=["binary_k", "binary_m", "hs2_k", "nice-small_n", "separating_k", "completely_k"],
)
def test_construct_and_verify_reject_flags_they_ignore(capsys, monkeypatch, argv, flag):
    # as in search: a flag that would silently change nothing is refused
    # before any input is read or any family is built
    code, out, err = run(capsys, argv, '{"ground_size":2,"sets":[[0],[1]]}', monkeypatch)
    what = "kind" if argv[0] == "construct" else "property"
    assert code == EXIT_USAGE and out == ""
    assert f"error: {flag} has no effect on {what} '{argv[2]}'" in err


def test_construct_oversized_ground_fails_fast(capsys):
    # the capacity check comes before any subset of the 100 000 is built
    t0 = time.monotonic()
    code, out, err = run(capsys, ["construct", "--kind", "hcs", "--n", "100000", "--k", "2"])
    assert time.monotonic() - t0 < 1.0
    assert code == EXIT_USAGE and out == "" and "capacity" in err


# --- bounds ------------------------------------------------------------------


def test_bounds_line_format(capsys):
    code, out, _ = run(capsys, ["bounds", "--n", "100", "--k", "2"])
    assert code == EXIT_OK
    assert out.strip() == "8 ≤ f(100,2) ≤ 15 [pair-family]"


def test_bounds_clamped_tag(capsys):
    code, out, _ = run(capsys, ["bounds", "--n", "9", "--k", "2"])
    assert code == EXIT_OK
    assert "clamped" in out


@pytest.mark.parametrize(
    "n, k, want",
    [
        ("1" + "0" * 24, "2", "707106781188 ≤ f(1000000000000000000000000,2) ≤ 1414213562374"
         " [pair-family]"),
        ("10", "1000000", "4 ≤ f(10,1000000) ≤ 5 [info-theoretic]"),
    ],
)
def test_bounds_huge_input_returns_promptly(n, k, want):
    # in a subprocess, so that a hang is cut by the timeout instead of the suite
    proc = subprocess.run(
        [sys.executable, "-m", "sepsys.cli", "bounds", "--n", n, "--k", k],
        capture_output=True, text=True, env=_cli_env(), timeout=5,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.strip() == want


# --- dual / switch / canon ---------------------------------------------------


def test_dual_switch_canon_pipeline(capsys, monkeypatch):
    doc = '{"ground_size":2,"sets":[[0,1],[1]]}'
    code, out, _ = run(capsys, ["dual"], doc, monkeypatch)
    assert code == EXIT_OK
    code, out2, _ = run(capsys, ["dual"], out, monkeypatch)
    assert json.loads(out2) == json.loads(doc)

    code, out3, _ = run(capsys, ["switch", "--v", "0"], doc, monkeypatch)
    assert json.loads(out3)["sets"] == [[1], [0, 1]]

    code, out4, _ = run(capsys, ["canon"], '{"ground_size":2,"sets":[[0,1]]}', monkeypatch)
    assert json.loads(out4)["sets"] == [[]]
    code, out5, _ = run(
        capsys,
        ["canon", "--group", "perm"],
        '{"ground_size":2,"sets":[[1]]}',
        monkeypatch,
    )
    assert json.loads(out5)["sets"] == [[0]]


def test_canon_large_ground_is_usage_error(capsys, monkeypatch):
    doc = emit_family(new_family(40, [[0], [1, 39]]))
    code, out, err = run(capsys, ["canon"], doc, monkeypatch)
    assert code == EXIT_USAGE and out == "" and "cap of 8" in err


@pytest.mark.parametrize(
    "words, want",
    [(range(0, 256, 8), list(range(32))), (range(256), list(range(256)))],
    ids=["cube-high-bits", "all-words"],
)
def test_canon_ground_8_returns_promptly(words, want):
    # at the cap, in a subprocess so that a slow canonical form is cut by the
    # timeout instead of stalling the suite
    doc = emit_family(Family(8, tuple(words)))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "sepsys.cli", "canon", "--group", "perm+switch"],
        input=doc, capture_output=True, text=True, env=_cli_env(), timeout=10,
    )
    seconds = time.monotonic() - t0
    assert proc.returncode == EXIT_OK, proc.stderr
    assert parse_family(proc.stdout).members == tuple(want)
    assert seconds < 2, f"canon took {seconds:.1f}s"


# --- search ------------------------------------------------------------------


def test_search_g(capsys):
    code, out, _ = run(capsys, ["search", "--problem", "g", "--m", "3", "--k", "2"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "g(3,2) = 6 (exhausted)"
    assert lines[1].startswith("nodes: ")
    json.loads(lines[2])


def test_search_g_k3_notes_no_reference(capsys):
    code, out, _ = run(capsys, ["search", "--problem", "g", "--m", "3", "--k", "3"])
    assert code == EXIT_OK
    assert "g(3,3) = 8" in out
    assert "no known exact reference" in out


def test_search_min_m(capsys):
    code, out, _ = run(capsys, ["search", "--problem", "min-m", "--n", "11", "--k", "2"])
    assert code == EXIT_OK
    assert "f(11,2) = 6 (exhausted)" in out


def test_search_exists(capsys):
    code, out, _ = run(
        capsys, ["search", "--problem", "exists", "--m", "5", "--n", "11", "--k", "2"]
    )
    assert code == EXIT_OK
    assert "proven-absent" in out


def test_search_unique_subset_and_pair_family(capsys):
    code, out, _ = run(
        capsys, ["search", "--problem", "unique-subset", "--m", "4", "--k", "2"]
    )
    assert code == EXIT_OK and "max-unique-subset(4,2) = 6 (exhausted)" in out
    code, out, _ = run(
        capsys, ["search", "--problem", "pair-family", "--m", "4", "--k", "2"]
    )
    assert code == EXIT_OK and "max-pair-family(4,2) = 24" in out
    pairs = json.loads(out.splitlines()[-1])
    assert len(pairs["pairs"]) == 24
    # every k >= 1 is a pair-family problem, as for the other searches
    code, out, _ = run(capsys, ["search", "--problem", "pair-family", "--m", "5", "--k", "3"])
    assert code == EXIT_OK and "max-pair-family(5,3) = 80 (exhausted)" in out


def test_search_pair_family_past_the_search_cap(capsys):
    # the pair family is built, not searched, so m is not held to 6
    code, out, _ = run(capsys, ["search", "--problem", "pair-family", "--m", "12", "--format",
                                "text"])
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[:2] == ["max-pair-family(12,2) = 264 (exhausted)", "nodes: 0"]
    assert len(lines) == 2 + 264 and lines[2] == "separator {0,1} key {}"


def test_search_pair_family_refuses_an_oversized_family():
    # (64, 8) would list about 10^12 pairs; it is refused before any is built
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sepsys.cli", "search", "--problem", "pair-family", "--m", "64",
         "--k", "8"],
        capture_output=True, text=True, env=_cli_env(), timeout=10,
    )
    assert time.perf_counter() - t0 < 1
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == (
        "error: max-pair-family(64,8) has 1133098334208 pairs, above 65536\n"
    )


def test_search_pair_family_formats(capsys):
    argv = ["search", "--problem", "pair-family", "--m", "2", "--k", "1"]
    head = ["max-pair-family(2,1) = 4 (exhausted)", "nodes: 0"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out.splitlines() == head + [
        '{"pairs":[{"separator":[0],"key":[]},{"separator":[1],"key":[]},'
        '{"separator":[0],"key":[0]},{"separator":[1],"key":[1]}]}'
    ]
    code, out, _ = run(capsys, [*argv, "--format", "text"])
    assert code == EXIT_OK
    assert out.splitlines() == head + [
        "separator {0} key {}",
        "separator {1} key {}",
        "separator {0} key {0}",
        "separator {1} key {1}",
    ]


def test_search_deterministic_output(capsys):
    a = run(capsys, ["search", "--problem", "g", "--m", "4", "--k", "2"])
    c = run(capsys, ["search", "--problem", "g", "--m", "4", "--k", "2", "--no-symmetry"])
    assert c[1].splitlines()[0] == a[1].splitlines()[0]  # same value, same line


def test_search_budget_env(capsys):
    code, out, _ = run(
        capsys, ["search", "--problem", "g", "--m", "5", "--k", "2", "--budget-ms", "0"]
    )
    assert code == EXIT_OK
    assert "budget-exhausted" in out


def test_search_exists_expired_budget_fails(capsys):
    code, out, _ = run(
        capsys, ["search", "--problem", "exists", "--m", "5", "--n", "11", "--budget-ms", "0"]
    )
    assert code == EXIT_FAIL
    assert out.splitlines()[0] == "exists(m=5,k=2,n=11): budget-exhausted"


def test_search_min_m_not_found(capsys):
    # a proven absence up to m_max is an answer; an expired budget is not
    argv = ["search", "--problem", "min-m", "--n", "11", "--m-max", "5"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert "f(11,2) not found up to m_max=5 (exhausted)" in out.splitlines()
    code, out, _ = run(capsys, [*argv, "--budget-ms", "0"])
    assert code == EXIT_FAIL
    assert "f(11,2) not found up to m_max=5 (budget-exhausted)" in out.splitlines()


def test_search_usage_errors(capsys):
    code, _, err = run(capsys, ["search", "--problem", "g"])
    assert code == EXIT_USAGE and "--m is required" in err
    code, out, err = run(capsys, ["search", "--problem", "exists", "--m", "4"])
    assert code == EXIT_USAGE and out == "" and "--n is required" in err
    # a negative m_max is refused by name, before any shift by it
    code, out, err = run(capsys, ["search", "--problem", "min-m", "--n", "5", "--m-max", "-1"])
    assert code == EXIT_USAGE and out == "" and "m must be >= 0, got -1" in err
    assert "shift" not in err
    # a negative budget is refused
    code, out, err = run(capsys, ["search", "--problem", "g", "--m", "3", "--budget-ms", "-1"])
    assert code == EXIT_USAGE and out == "" and "error: a budget must be >= 0 ms, got -1" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--problem", "min-m", "--n", "11", "--no-symmetry"], "--no-symmetry"),
        (["--problem", "pair-family", "--m", "4", "--no-symmetry"], "--no-symmetry"),
        (["--problem", "pair-family", "--m", "4", "--budget-ms", "0"], "--budget-ms"),
        (["--problem", "g", "--m", "4", "--m-max", "4"], "--m-max"),
        (["--problem", "min-m", "--n", "5", "--m", "3"], "--m"),
        (["--problem", "g", "--m", "3", "--n", "99"], "--n"),
        (["--problem", "unique-subset", "--m", "3", "--n", "9"], "--n"),
        (["--problem", "pair-family", "--m", "3", "--n", "9"], "--n"),
    ],
    ids=["min-m_no-symmetry", "pair-family_no-symmetry", "pair-family_budget-ms", "g_m-max",
         "min-m_m", "g_n", "unique-subset_n", "pair-family_n"],
)
def test_search_rejects_flags_the_problem_ignores(capsys, argv, flag):
    # a flag that would silently change nothing must not pass for an
    # unreduced or bounded run
    code, out, err = run(capsys, ["search", *argv])
    assert code == EXIT_USAGE and out == ""
    assert f"error: {flag} has no effect on problem '{argv[1]}'" in err


# --- flag rules --------------------------------------------------------------

# The rules of README's CLI section, written out here rather than read from
# the tables in sepsys.cli: for each variant of a subcommand, every flag the
# subcommand declares is required, read or refused.
REQ, READ, NO = "required", "read", "refused"
_VERIFY = {"--k": NO, "--input": READ}
_VERIFY_K = {"--k": REQ, "--input": READ}
_CONSTRUCT_N = {"--n": REQ, "--m": NO, "--k": NO, "--format": READ}
_SEARCH_M = {"--m": REQ, "--n": NO, "--k": READ, "--m-max": NO, "--budget-ms": READ,
             "--no-symmetry": READ, "--format": READ}
FLAG_RULES = {
    ("verify", "--property", "property"): {
        "separating": _VERIFY, "completely": _VERIFY,
        "hcs": _VERIFY_K, "hs": _VERIFY_K, "nice": _VERIFY_K,
    },
    ("construct", "--kind", "kind"): {
        "binary": _CONSTRUCT_N, "spencer": _CONSTRUCT_N, "hs2": _CONSTRUCT_N,
        "hcs": dict(_CONSTRUCT_N, **{"--k": REQ}),
        "nice-small": dict(_CONSTRUCT_N, **{"--n": NO, "--m": REQ}),
    },
    ("search", "--problem", "problem"): {
        "g": _SEARCH_M, "unique-subset": _SEARCH_M,
        "exists": dict(_SEARCH_M, **{"--n": REQ}),
        "min-m": dict(_SEARCH_M, **{"--m": NO, "--n": REQ, "--m-max": READ, "--no-symmetry": NO}),
        "pair-family": dict(_SEARCH_M, **{"--budget-ms": NO, "--no-symmetry": NO}),
    },
}
# each value that a read flag is given changes the output of the command
# without it: --k 3 against the default 2, exists(4,2,9) is proven absent
# in 11 nodes with symmetry and 271 without, f(9,2) = 5 lies above --m-max 4;
# but a proven-absent exists prints no document to format
_VALUES = {"--m": ["4"], "--n": ["9"], "--k": ["3"], "--m-max": ["4"], "--budget-ms": ["0"],
           "--no-symmetry": [], "--format": ["text"]}
_UNSEEN = {("exists", "--format")}
_STDIN_DOC = '{"ground_size":2,"sets":[[0],[1]]}'
_INPUT_DOC = '{"ground_size":3,"sets":[[0],[1],[0,2]]}'
_FLAG_CASES = [
    (cmd, variant, flag, rule)
    for cmd, variants in FLAG_RULES.items()
    for variant, rules in variants.items()
    for flag, rule in rules.items()
]


@pytest.mark.parametrize("cmd", FLAG_RULES, ids=[cmd[0] for cmd in FLAG_RULES])
def test_flag_rules_cover_every_declared_flag_and_variant(capsys, cmd):
    with pytest.raises(SystemExit):
        main([cmd[0], "--help"])
    usage = capsys.readouterr().out
    variants = re.search(re.escape(cmd[1]) + r" \{([^}]*)\}", usage).group(1).split(",")
    assert sorted(FLAG_RULES[cmd]) == sorted(variants)
    declared = set(re.findall(r"--[a-z][a-z-]*", usage)) - {"--help", cmd[1]}
    for rules in FLAG_RULES[cmd].values():
        assert sorted(rules) == sorted(declared)


@pytest.mark.parametrize(
    "cmd, variant, flag, rule", _FLAG_CASES,
    ids=[f"{c[0]}-{v}-{f[2:]}" for c, v, f, _ in _FLAG_CASES],
)
def test_flag_matrix(capsys, monkeypatch, tmp_path, cmd, variant, flag, rule):
    values = dict(_VALUES, **{"--input": [str(tmp_path / "doc.json")]})
    (tmp_path / "doc.json").write_text(_INPUT_DOC)
    base = [cmd[0], cmd[1], variant]
    for f, r in FLAG_RULES[cmd][variant].items():
        if r == REQ and f != flag:
            base += [f, *values[f]]
    if rule == REQ:
        code, out, err = run(capsys, base, _STDIN_DOC, monkeypatch)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: {flag} is required for {cmd[2]} '{variant}'" in err
        return
    code, out, err = run(capsys, [*base, flag, *values[flag]], _STDIN_DOC, monkeypatch)
    if rule == NO:
        assert (code, out) == (EXIT_USAGE, "")
        assert f"error: {flag} has no effect on {cmd[2]} '{variant}'" in err
        return
    assert code in (EXIT_OK, EXIT_FAIL) and err == ""
    base_code, base_out, base_err = run(capsys, base, _STDIN_DOC, monkeypatch)
    assert (base_code, base_err) == (EXIT_OK, "")
    if (variant, flag) not in _UNSEEN:
        assert out != base_out, "the flag changed nothing"


@pytest.mark.parametrize(
    "argv, message",
    [
        # two refused flags: the first of --k, --m, --n is named
        (["construct", "--kind", "binary", "--n", "4", "--m", "3", "--k", "2"],
         "--k has no effect on kind 'binary'"),
        # search names the first in the order the problems declare their flags
        (["search", "--problem", "min-m", "--n", "5", "--no-symmetry", "--m", "3"],
         "--m has no effect on problem 'min-m'"),
        (["search", "--problem", "pair-family", "--m", "3", "--n", "9", "--no-symmetry",
          "--budget-ms", "0"], "--budget-ms has no effect on problem 'pair-family'"),
        # a missing flag is named before a refused one, and --k before --n
        (["construct", "--kind", "nice-small", "--n", "3"],
         "--m is required for kind 'nice-small'"),
        (["construct", "--kind", "hcs"], "--k is required for kind 'hcs'"),
    ],
)
def test_flag_errors_name_one_flag_in_a_fixed_order(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


def test_parser_defaults_and_required_flags(capsys):
    code, out, _ = run(capsys, ["bounds", "--n", "100"])
    assert (code, out) == (EXIT_OK, "8 ≤ f(100,2) ≤ 15 [pair-family]\n")
    with pytest.raises(SystemExit) as exc:
        main(["switch"])
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "the following arguments are required: --v" in err


# --- table -------------------------------------------------------------------


def test_table_rows_and_search_checks(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "12", "--check-search-up-to", "8"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 11  # n = 2..12
    row10 = next(ln for ln in lines if ln.startswith(" 10"))
    assert "5" in row10
    checked = [ln for ln in lines if "search:" in ln]
    assert len(checked) == 7  # n = 2..8
    assert all("✓" in ln for ln in checked)


def test_table_known_rows(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "21"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[2].split()[:2] == ["4", "2"]  # f(4,2) = 2
    assert lines[-1].split()[:2] == ["21", "7"]  # f(21,2) = 7


def test_table_caps(capsys):
    code, _, err = run(capsys, ["table", "--n-max", "500"])
    assert code == EXIT_USAGE
    code, _, err = run(capsys, ["table", "--check-search-up-to", "16"])
    assert code == EXIT_USAGE


def test_table_lower_limits(capsys):
    # a table needs a row, and a negative search limit is not silently none
    code, out, err = run(capsys, ["table", "--n-max", "1"])
    assert code == EXIT_USAGE and out == "" and "error: --n-max must be >= 2, got 1" in err
    code, out, err = run(capsys, ["table", "--check-search-up-to", "-3"])
    assert code == EXIT_USAGE and out == ""
    assert "error: --check-search-up-to must be >= 0, got -3" in err


def test_table_search_reaches_the_m6_cap(capsys):
    # n = 11, 12 lie above g(5,2) = 10, so their min-m searches prove every
    # m <= 5 empty and find a family at m = 6
    code, out, _ = run(capsys, ["table", "--n-max", "12", "--check-search-up-to", "12"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert all(ln.endswith("✓") for ln in lines)
    assert [ln.split()[-2] for ln in lines[-2:]] == ["search:6", "search:6"]


def test_table_search_reach_follows_the_search_cap(capsys):
    # rows 13-15 still have f = 6, so the m <= 6 search certifies them; row
    # 16 needs m = 7 and is refused before any row is printed
    code, out, _ = run(capsys, ["table", "--n-max", "16", "--check-search-up-to", "15"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [ln.split()[0] for ln in lines[-4:-1]] == ["13", "14", "15"]
    assert all(ln.endswith("search:6 ✓") for ln in lines[-4:-1])
    assert "search:" not in lines[-1]
    code, out, err = run(capsys, ["table", "--n-max", "16", "--check-search-up-to", "16"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --check-search-up-to 16: row 16 needs m = 7, above the search cap of 6\n"


def test_table_expired_budget_is_not_a_pass(capsys):
    code, out, _ = run(
        capsys, ["table", "--n-max", "6", "--check-search-up-to", "6", "--budget-ms", "0"]
    )
    assert code == EXIT_FAIL
    assert all(ln.endswith("search:None ✗") for ln in out.splitlines())


def test_table_negative_budget_is_usage_error(capsys):
    code, out, err = run(capsys, ["table", "--n-max", "6", "--budget-ms", "-5"])
    assert code == EXIT_USAGE and out == ""
    assert "error: a budget must be >= 0 ms, got -5" in err


def test_table_expired_row_fails_alone(capsys, monkeypatch):
    import sepsys.cli as cli

    # row 5's search "expires" before settling: only that row is unproven
    real = cli.search.min_m_hyperseparating

    def expiring(n, k, m_max, budget_ms=None):
        if n == 5:
            return search.SearchReport(None, None, False, 1, levels=((3, "budget-exhausted"),))
        return real(n, k, m_max, budget_ms)

    monkeypatch.setattr(cli.search, "min_m_hyperseparating", expiring)
    code, out, _ = run(capsys, ["table", "--n-max", "8", "--check-search-up-to", "8"])
    assert code == EXIT_FAIL
    assert [ln.split("search:")[1] for ln in out.splitlines()] == [
        "1 ✓", "2 ✓", "2 ✓", "None ✗", "3 ✓", "4 ✓", "4 ✓",
    ]


TABLE_30_CHECKED_TO_12 = """\
  2   1  [1 ≤ 1 ≤ 2]  search:1 ✓
  3   2  [2 ≤ 2 ≤ 3]  search:2 ✓
  4   2  [2 ≤ 2 ≤ 4]  search:2 ✓
  5   3  [3 ≤ 3 ≤ 4]  search:3 ✓
  6   3  [3 ≤ 3 ≤ 4]  search:3 ✓
  7   4  [3 ≤ 4 ≤ 5]  search:4 ✓
  8   4  [3 ≤ 4 ≤ 5]  search:4 ✓
  9   5  [4 ≤ 5 ≤ 5]  search:5 ✓
 10   5  [4 ≤ 5 ≤ 5]  search:5 ✓
 11   6  [4 ≤ 6 ≤ 6]  search:6 ✓
 12   6  [4 ≤ 6 ≤ 6]  search:6 ✓
 13   6  [4 ≤ 6 ≤ 6]
 14   6  [4 ≤ 6 ≤ 6]
 15   6  [4 ≤ 6 ≤ 6]
 16   7  [4 ≤ 7 ≤ 7]
 17   7  [5 ≤ 7 ≤ 7]
 18   7  [5 ≤ 7 ≤ 7]
 19   7  [5 ≤ 7 ≤ 7]
 20   7  [5 ≤ 7 ≤ 7]
 21   7  [5 ≤ 7 ≤ 7]
 22   8  [5 ≤ 8 ≤ 8]
 23   8  [5 ≤ 8 ≤ 8]
 24   8  [5 ≤ 8 ≤ 8]
 25   8  [5 ≤ 8 ≤ 8]
 26   8  [5 ≤ 8 ≤ 8]
 27   8  [5 ≤ 8 ≤ 8]
 28   8  [5 ≤ 8 ≤ 8]
 29   9  [5 ≤ 9 ≤ 9]
 30   9  [5 ≤ 9 ≤ 9]
"""


def test_table_full_output_pinned(capsys):
    code, out, _ = run(capsys, ["table", "--n-max", "30", "--check-search-up-to", "12"])
    assert code == EXIT_OK
    assert out == TABLE_30_CHECKED_TO_12


def test_table_mismatch_exits_nonzero(capsys, monkeypatch):
    import sepsys.cli as cli

    real = cli.bounds.f2_exact
    monkeypatch.setattr(cli.bounds, "f2_exact", lambda n: real(n) + (n == 4))
    code, out, _ = run(capsys, ["table", "--n-max", "5", "--check-search-up-to", "5"])
    assert code == EXIT_FAIL
    assert "✗" in out


def test_construct_self_check_sentinel(capsys, monkeypatch):
    import sepsys.cli as cli
    from sepsys import Family

    # a deliberately broken constructor must trip the bug sentinel, exit 3
    monkeypatch.setattr(
        cli.construct, "binary_separating", lambda n: Family(2, (0b11, 0b11))
    )
    code, _, err = run(capsys, ["construct", "--kind", "binary", "--n", "4"])
    assert code == 3
    assert "internal error" in err


def test_table_self_check_sentinel(capsys, monkeypatch):
    import sepsys.cli as cli

    # a searched row whose example is not 2-hyperseparating must exit 3
    # before that row is printed
    real = cli.search.min_m_hyperseparating
    bad = dual(Family(2, (0b01, 0b01, 0b10, 0b11)))

    def broken(n, k, m_max, budget_ms=None):
        if n == 4:
            return search.SearchReport(2, bad, True, 1, levels=((2, "found"),))
        return real(n, k, m_max, budget_ms)

    monkeypatch.setattr(cli.search, "min_m_hyperseparating", broken)
    code, out, err = run(capsys, ["table", "--n-max", "6", "--check-search-up-to", "6"])
    assert code == 3
    assert "internal error" in err and "table row 4" in err
    assert [ln.split()[0] for ln in out.splitlines()] == ["2", "3"]


@pytest.mark.parametrize(
    "problem, name, result",
    [
        ("g", "max_nice_size", lambda bad: search.SearchReport(2, bad, True, 1)),
        ("exists", "exists_nice_of_size", lambda bad: search.ExistenceResult(bad, True, 1)),
        (
            "min-m",
            "min_m_hyperseparating",
            lambda bad: search.SearchReport(
                2, dual(bad), True, 1, levels=((1, "infeasible"), (2, "found"))
            ),
        ),
    ],
)
def test_search_self_check_sentinel(capsys, monkeypatch, problem, name, result):
    import sepsys.cli as cli

    # a search returning a family that is not nice must exit 3 and print nothing
    bad = Family(2, (0b01, 0b01))
    monkeypatch.setattr(cli.search, name, lambda *a, **kw: result(bad))
    sizes = {"g": ["--m", "2"], "exists": ["--m", "2", "--n", "2"], "min-m": ["--n", "2"]}
    code, out, err = run(capsys, ["search", "--problem", problem, *sizes[problem]])
    assert code == 3
    assert out == ""
    assert "internal error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--kind", "nice-small", "--m", "4"],
        ["construct", "--kind", "hcs", "--n", "10", "--k", "2"],
        ["search", "--problem", "g", "--m", "3"],
        ["search", "--problem", "exists", "--m", "3", "--n", "6"],
        ["search", "--problem", "min-m", "--n", "5"],
        ["search", "--problem", "unique-subset", "--m", "3"],
        ["search", "--problem", "pair-family", "--m", "3"],
    ],
)
def test_recheck_failure_is_self_check_error(capsys, monkeypatch, argv):
    import sepsys.cli as cli

    # a result that fails its independent recheck must never be printed;
    # unique-subset and pair-family results carry no certificate, so their
    # recheck is their own predicate
    check = {"unique-subset": "owns_unique_subsets", "pair-family": "pair_family_valid"}
    monkeypatch.setattr(cli.verify, check.get(argv[2], "recheck_certificate"), lambda *a: False)
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "failed its recheck" in err


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required --property
    assert exc.value.code == EXIT_USAGE
    # verify prints a report, so it has no output format to choose
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--property", "separating", "--format", "text"])
    assert exc.value.code == EXIT_USAGE


def _cli_env():
    import sepsys

    src = os.path.dirname(os.path.dirname(os.path.abspath(sepsys.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_cli_import_loads_no_introspection_modules():
    # start-up is most of a CLI command's wall time, and importing dataclasses
    # pulls in all of these
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, sepsys.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.strip() == "[]"


# the layer probe runs one command in a fresh interpreter and prints its exit
# code and the layers that were executed; type() does not go through a lazy
# module's attribute lookup, so the probe itself loads nothing
_LAYER_PROBE = """
import contextlib, io, json, sys, types
import sepsys.cli
sys.stdin = io.StringIO({stdin!r})
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = sepsys.cli.main({argv!r})
    except SystemExit as e:
        rc = e.code
print(json.dumps([rc, sorted(
    name[len("sepsys."):] for name, mod in sys.modules.items()
    if name.startswith("sepsys.") and type(mod) is types.ModuleType
)]))
"""
_DOC = '{"ground_size":3,"sets":[[0],[1],[0,2]]}'


_LAYER_CASES = [
    (["canon"], _DOC, ["cli", "core"]),
    (["verify", "--property", "separating"], _DOC, ["cli", "core", "verify"]),
    (["construct", "--kind", "binary", "--n", "5"], "",
     ["bounds", "cli", "construct", "core", "verify"]),
    (["bounds", "--n", "10"], "", ["bounds", "cli", "core"]),
    (["search", "--problem", "exists", "--m", "4", "--n", "5"], "",
     ["cli", "core", "search", "verify"]),
    (["table", "--n-max", "8"], "", ["bounds", "cli", "core"]),
    (["table", "--n-max", "8", "--check-search-up-to", "1"], "", ["bounds", "cli", "core"]),
    (["table", "--n-max", "8", "--check-search-up-to", "4"], "",
     ["bounds", "cli", "core", "search", "verify"]),
    (["--help"], "", ["cli", "core"]),
    (["search", "--help"], "", ["cli", "core"]),
]


@pytest.mark.parametrize(
    "argv, stdin, layers", _LAYER_CASES, ids=["_".join(c[0]) for c in _LAYER_CASES]
)
def test_cli_command_executes_only_its_layers(argv, stdin, layers):
    # a fresh interpreter compiles every layer it executes, which is a large
    # share of a short command's wall time
    code = _LAYER_PROBE.format(argv=argv, stdin=stdin)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(), timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout) == [EXIT_OK, layers]


def test_traced_benchmark_child_runs_canon(tmp_path):
    # the benchmark runs traced commands through perfbench/cli_child.py, which
    # wraps each layer's functions, read through sys.modules
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spans_path = tmp_path / "spans.json"
    env = dict(_cli_env(), PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "cli_child.py"), str(spans_path),
         env["PYTHONPATH"], "canon"],
        input=_DOC, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == '{"ground_size":3,"sets":[[],[0],[1,2]]}\n'
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    assert {"cli.main.canon", "core.canonical_form", "cli.emit_family"} <= names


def test_module_entry_point_exit_codes(tmp_path):
    # run as a user would, so an uncaught exception shows as a traceback
    env = _cli_env()
    deep = tmp_path / "deep.json"
    deep.write_text('{"ground_size":2,"sets":' + "[" * 200_000 + "]" * 200_000 + "}")
    cases = [
        (["construct", "--kind", "binary", "--n", "5"], "", EXIT_OK),
        (["verify", "--property", "separating"], '{"ground_size":2,"sets":[[0,1]]}', EXIT_FAIL),
        (["verify", "--property", "separating", "--input", str(tmp_path / "no.json")], "", EXIT_USAGE),
        (["verify", "--property", "nice"], '{"ground_size":1,"sets":[[0]]}', EXIT_USAGE),
        (["canon"], "{bad json", EXIT_USAGE),
        # nested past the decoder's recursion limit: invalid input, not a FAIL
        (["verify", "--property", "separating", "--input", str(deep)], "", EXIT_USAGE),
        (["search", "--problem", "exists", "--m", "4"], "", EXIT_USAGE),
        (["verify"], "", EXIT_USAGE),
    ]
    for argv, stdin, want in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "sepsys.cli", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == want, (argv, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


def test_closed_stdout_exits_without_traceback():
    # the reader is gone before the command writes: `dual` reads its whole
    # input first, and the read end is closed before any input is sent
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepsys.cli", "dual"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    proc.stdout.close()
    proc.stdin.write(_DOC.encode())
    proc.stdin.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_FAIL, err
    assert "Traceback" not in err and "Exception ignored" not in err, err
