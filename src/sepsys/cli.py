"""Command-line surface: verification, construction, bounds, search, tables.

Family documents travel on stdin/stdout in two formats: a JSON object
{"ground_size": m, "sets": [[indices]], ...} and a terse text format whose
first line is "m n" followed by n rows of m '0'/'1' characters (columns are
ground elements, rows are members).  Output is byte-deterministic for a
fixed command line.

Exit codes: 0 success/PASS, 1 property FAIL, table mismatch or a stdout
closed before the output was written, 2 usage or input error, 3 internal
self-verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from . import bounds, construct, search, verify
from .core import (
    Family,
    PERMUTATIONS_AND_SWITCHING,
    PERMUTATIONS_ONLY,
    SeparatorWitness,
    bits,
    canonical_form,
    dual,
    family_from_words,
    member_lists,
    new_family,
    switch,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SELFCHECK = 3

class SelfCheckError(Exception):
    """A constructed or searched family failed its own oracle; emitting it
    would be a bug."""


def parse_family(text: str) -> Family:
    """Parse either document format (sniffed on the first non-space char)."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty input document")
    if stripped[0] == "{":
        return parse_family_json(text)
    return parse_family_text(text)


def parse_family_json(text: str) -> Family:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nested too deep
        raise ValueError(f"invalid JSON document: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if "ground_size" not in doc or "sets" not in doc:
        raise ValueError("document needs 'ground_size' and 'sets' fields")
    gs = doc["ground_size"]
    sets = doc["sets"]
    if not isinstance(gs, int) or isinstance(gs, bool):
        raise ValueError("'ground_size' must be an integer")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise ValueError("'sets' must be a list of index lists")
    for pos, s in enumerate(sets):
        for idx in s:
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise ValueError(f"member {pos}: index {idx!r} is not an integer")
    return new_family(gs, sets)


def parse_family_text(text: str) -> Family:
    # (document line number, stripped line) of each non-blank line
    lines = [(t, ln) for t, ln in enumerate((raw.strip() for raw in text.splitlines()), 1) if ln]
    if not lines:
        raise ValueError("empty input document")
    t, ln = lines[0]
    head = ln.split()
    if len(head) != 2:
        raise ValueError(f"line {t}: expected 'm n', got {ln!r}")
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"line {t}: expected two integers, got {ln!r}") from None
    body = lines[1:]
    if m == 0 and not body:
        # ground-0 member rows are blank and were dropped above; emit_family
        # puts a line break before each, so count the breaks after the header
        # (the appended "." gives a final break a line of its own)
        body = [(t, "")] * min(n, len((text + ".").splitlines()) - t)
    if len(body) != n:
        raise ValueError(f"expected {n} member rows, got {len(body)}")
    for t, ln in body:
        if len(ln) != m or ln.strip("01"):
            raise ValueError(f"line {t}: expected {m} characters of 0/1, got {ln!r}")
    # column v is bit v; a ground-0 row is empty, which int() refuses
    return family_from_words(m, [int(ln[::-1] or "0", 2) for _, ln in body])


def emit_family(
    f: Family,
    fmt: str = "json",
    role: str | None = None,
    witnesses: list[tuple[int, SeparatorWitness]] | None = None,
) -> str:
    if fmt == "text":
        top = 1 << f.ground_size  # pads each row to m digits, cut off once reversed
        rows = (format(w | top, "b")[:0:-1] for w in f.members)  # column v is bit v
        return "\n".join([f"{f.ground_size} {len(f.members)}", *rows])
    doc: dict = {"ground_size": f.ground_size, "sets": member_lists(f)}
    if role is not None:
        doc["role"] = role
    if witnesses is not None:
        doc["witnesses"] = [
            {"member_index": i, "separator": bits(w.separator), "key": bits(w.key)}
            for i, w in witnesses
        ]
    return json.dumps(doc, separators=(",", ":"))


def _fmt_set(word: int) -> str:
    return "{" + ",".join(str(i) for i in bits(word)) + "}"


def _read_input(args) -> Family:
    if getattr(args, "input", None):
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read --input {args.input!r}: {e.strerror}") from None
    else:
        text = sys.stdin.read()
    return parse_family(text)


def _flags(args, needs, among, what: str) -> None:
    """Reject the command line unless every flag of ``among`` that is in
    ``needs`` was given and no other flag of ``among`` was.  A missing flag
    is reported before a refused one, each first in the order of ``among``."""
    for flag in among:
        if flag in needs and getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for {what}")
    for flag in among:
        if flag not in needs and getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} has no effect on {what}")


class _Property(NamedTuple):
    oracle: str  # name in ``verify``, looked up at call time
    takes_k: bool
    line: Callable  # (family, index, witness) -> one witness line of the report


PROPERTIES = {
    "separating": _Property(
        "is_separating", False,
        lambda f, v, sig: f"element {v}: signature {_fmt_set(sig)}",
    ),
    "completely": _Property(
        "is_completely_separating", False,
        lambda f, v, row: f"element {v}: " + " ".join(  # each (i, mask) as pairs, in v2 order
            f"{v}|{v2}->set{i}" for v2, i in sorted((v2, i) for i, out in row for v2 in bits(out))),
    ),
    "hcs": _Property(
        "is_k_hypercompletely_separating", True,
        lambda f, v, idxs: f"element {v}: intersection of members {list(idxs)}",
    ),
    "hs": _Property(
        "is_k_hyperseparating", True,
        lambda f, v, w: f"element {v}: witness members {bits(w.separator)},"
        f" contained in exactly {bits(w.key)}",
    ),
    "nice": _Property(  # reads the family as a dual family
        "is_nice", True,
        lambda f, i, w: f"member {i} {_fmt_set(f.members[i])}: separator"
        f" {_fmt_set(w.separator)} key {_fmt_set(w.key)}",
    ),
}


def _oracle(prop: str, f: Family, k: int | None):
    entry = PROPERTIES[prop]
    oracle = getattr(verify, entry.oracle)
    return oracle(f, k) if entry.takes_k else oracle(f)


def _self_check(prop: str, f: Family | None, k: int | None, what: str):
    """Certify a family before it is printed: its oracle must pass and every
    witness must survive the independent recheck.  Returns the certificate;
    None, for a search that found nothing, passes."""
    if f is None:
        return None
    cert = _oracle(prop, f, k)
    if not cert:
        raise SelfCheckError(f"{what} failed its oracle at {cert.failure}")
    if not verify.recheck_certificate(f, cert):
        raise SelfCheckError(f"{what}'s certificate failed its recheck")
    return cert


def cmd_verify(args) -> int:
    prop = PROPERTIES[args.property]
    _flags(args, ("k",) if prop.takes_k else (), ("k",), f"property {args.property!r}")
    f = _read_input(args)
    cert = _oracle(args.property, f, args.k)
    if not cert:
        print(f"FAIL {args.property}: counterexample {cert.failure}")
        return EXIT_FAIL
    print(f"PASS {args.property}" + (f" k={cert.k}" if cert.k is not None else ""))
    for i, w in enumerate(cert.witnesses):
        print("  " + prop.line(f, i, w))
    return EXIT_OK


class _Kind(NamedTuple):
    build: str  # constructor in ``construct``, looked up at call time
    flags: tuple[str, ...]  # the flags the constructor takes, in call order
    prop: str  # the property in PROPERTIES that certifies it
    k: int | None  # k of that property, unless --k is one of the flags
    role: str


KINDS = {
    "binary": _Kind("binary_separating", ("n",), "separating", None, "primal"),
    "spencer": _Kind("spencer_completely_separating", ("n",), "completely", None, "primal"),
    "hcs": _Kind("k_hcs_minimal", ("n", "k"), "hcs", None, "primal"),
    "hs2": _Kind("hyperseparating_minimal_2", ("n",), "hs", 2, "primal"),
    "nice-small": _Kind("nice_small_m", ("m",), "nice", 2, "dual"),
}


def cmd_construct(args) -> int:
    kind = KINDS[args.kind]
    _flags(args, kind.flags, ("k", "m", "n"), f"kind {args.kind!r}")
    fam = getattr(construct, kind.build)(*(getattr(args, flag) for flag in kind.flags))
    k = args.k if "k" in kind.flags else kind.k
    cert = _self_check(kind.prop, fam, k, f"construction {args.kind}")
    wits = list(enumerate(cert.witnesses)) if cert.prop == verify.NICE else None
    print(emit_family(fam, args.format, role=kind.role, witnesses=wits))
    return EXIT_OK


def cmd_bounds(args) -> int:
    n, k = args.n, args.k
    pair = bounds.f_bounds(n, k)
    tag = pair.lower_source + (", clamped" if pair.lower_clamped else "")
    print(f"{pair.lower} ≤ f({n},{k}) ≤ {pair.upper} [{tag}]")
    return EXIT_OK


def cmd_dual(args) -> int:
    print(emit_family(dual(_read_input(args)), args.format))
    return EXIT_OK


def cmd_switch(args) -> int:
    print(emit_family(switch(_read_input(args), args.v), args.format))
    return EXIT_OK


GROUPS = {"perm": PERMUTATIONS_ONLY, "perm+switch": PERMUTATIONS_AND_SWITCHING}


def cmd_canon(args) -> int:
    print(emit_family(canonical_form(_read_input(args), GROUPS[args.group]), args.format))
    return EXIT_OK


def _budget_ms(args) -> int | None:
    budget = args.budget_ms
    if budget is not None and budget < 0:
        raise ValueError(f"a budget must be >= 0 ms, got {budget}")
    return budget


# search problem -> (the flags it requires, the optional flags it reads);
# every problem reads --k and --format, and a flag that another problem
# takes and this one does not is refused
PROBLEMS = {
    "g": (("m",), ("budget_ms", "no_symmetry")),
    "exists": (("m", "n"), ("budget_ms", "no_symmetry")),
    "min-m": (("n",), ("m_max", "budget_ms")),
    "unique-subset": (("m",), ("budget_ms", "no_symmetry")),
    "pair-family": (("m",), ()),
}


def cmd_search(args) -> int:
    problem = args.problem
    needs, reads = PROBLEMS[problem]
    among = [flag for row in PROBLEMS.values() for flag in row[0] + row[1] if flag not in reads]
    _flags(args, needs, among, f"problem {problem!r}")
    budget = _budget_ms(args)
    sym = not args.no_symmetry
    k = args.k
    if problem == "g":
        rep = search.max_nice_size(args.m, k, budget, use_symmetry=sym)
        _self_check("nice", rep.example, k, "search example")
        print(f"g({args.m},{k}) = {rep.best} ({_status(rep.exhausted)})")
        if k >= 3:
            print("note: no known exact reference for k >= 3; value is search evidence")
        print(f"nodes: {rep.nodes_visited}")
        print(emit_family(rep.example, args.format, role="dual"))
    elif problem == "exists":
        res = search.exists_nice_of_size(args.m, k, args.n, budget, use_symmetry=sym)
        _self_check("nice", res.family, k, "search example")
        print(f"exists(m={args.m},k={k},n={args.n}): {res.status}")
        print(f"nodes: {res.nodes_visited}")
        if res.family is not None:
            print(emit_family(res.family, args.format, role="dual"))
        elif not res.exhausted:
            return EXIT_FAIL
    elif problem == "min-m":
        m_max = args.m_max if args.m_max is not None else search.SEARCH_MAX_GROUND
        rep = search.min_m_hyperseparating(args.n, k, m_max, budget)
        _self_check("hs", rep.example, k, "search example")
        for m, status in rep.levels or ():
            print(f"  m={m}: {status}")
        if rep.best is None:
            print(f"f({args.n},{k}) not found up to m_max={m_max} ({_status(rep.exhausted)})")
            print(f"nodes: {rep.nodes_visited}")
            # a proven absence is a definitive answer; only an expired budget fails
            return EXIT_OK if rep.exhausted else EXIT_FAIL
        print(f"f({args.n},{k}) = {rep.best} ({_status(rep.exhausted)})")
        print(f"nodes: {rep.nodes_visited}")
        print(emit_family(rep.example, args.format, role="primal"))
    elif problem == "unique-subset":
        rep = search.max_unique_subset_family(args.m, k, budget, use_symmetry=sym)
        if not verify.owns_unique_subsets(rep.example, k):
            raise SelfCheckError("unique-subset example failed its recheck")
        print(f"max-unique-subset({args.m},{k}) = {rep.best} ({_status(rep.exhausted)})")
        print(f"nodes: {rep.nodes_visited}")
        print(emit_family(rep.example, args.format))
    else:  # pair-family
        rep = search.max_pair_family(args.m, k)
        pairs = rep.example_pairs
        if len(pairs) != rep.best or verify.pair_family_valid(pairs, args.m, k) is not True:
            raise SelfCheckError("pair family failed its recheck")
        print(f"max-pair-family({args.m},{k}) = {rep.best} ({_status(rep.exhausted)})")
        print(f"nodes: {rep.nodes_visited}")
        if args.format == "text":
            for w in pairs:
                print(f"separator {_fmt_set(w.separator)} key {_fmt_set(w.key)}")
        else:
            doc = [{"separator": bits(w.separator), "key": bits(w.key)} for w in pairs]
            print(json.dumps({"pairs": doc}, separators=(",", ":")))
    return EXIT_OK


def _status(exhausted: bool) -> str:
    return "exhausted" if exhausted else "budget-exhausted"


def cmd_table(args) -> int:
    n_max = args.n_max
    check_up_to = args.check_search_up_to
    if n_max < 2:
        raise ValueError(f"--n-max must be >= 2, got {n_max}")
    if n_max > 200:
        raise ValueError(f"--n-max is capped at 200, got {n_max}")
    if check_up_to < 0:
        raise ValueError(f"--check-search-up-to must be >= 0, got {check_up_to}")
    # f2_exact is nondecreasing, so the last searched row decides; row 1 is never searched
    if check_up_to >= 2 and (m := bounds.f2_exact(check_up_to)) > search.SEARCH_MAX_GROUND:
        raise ValueError(f"--check-search-up-to {check_up_to}: row {check_up_to} needs m = {m},"
                         f" above the search cap of {search.SEARCH_MAX_GROUND}")
    budget = _budget_ms(args)
    bad = 0
    for n in range(2, n_max + 1):
        f2 = bounds.f2_exact(n)
        pair = bounds.f_bounds(n, 2)
        line = f"{n:>3}  {f2:>2}  [{pair.lower} ≤ {f2} ≤ {pair.upper}]"
        if n <= check_up_to:
            # best is set only once every lower m was proven empty
            rep = search.min_m_hyperseparating(n, 2, search.SEARCH_MAX_GROUND, budget)
            _self_check("hs", rep.example, 2, f"table row {n}")
            mark = "✓" if rep.best == f2 else "✗"
            if rep.best != f2:
                bad += 1
            line += f"  search:{rep.best} {mark}"
        print(line)
    return EXIT_FAIL if bad else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sepsys",
        description="Construct, verify, and exhaustively search extremal separating set systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, input_doc=False):
        sp.add_argument("--format", choices=("json", "text"), default="json")
        if input_doc:
            sp.add_argument("--input", help="read the family document from a file instead of stdin")

    sp = sub.add_parser("verify", help="check a separation property of a family document")
    sp.add_argument("--property", required=True, choices=PROPERTIES)
    sp.add_argument("--k", type=int)
    # no --format: verify prints a report, not a document
    sp.add_argument("--input", help="read the family document from a file instead of stdin")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("construct", help="emit a self-verified construction")
    sp.add_argument("--kind", required=True, choices=KINDS)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--k", type=int)
    common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("bounds", help="print the lower/upper sandwich for f(n,k)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("search", help="run an extremal search")
    sp.add_argument("--problem", required=True, choices=PROBLEMS)
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--m-max", type=int)
    sp.add_argument("--budget-ms", type=int)
    sp.add_argument("--no-symmetry", action="store_true", default=None)
    common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("table", help="reproduce the f(n,2) table with bound and search checks")
    sp.add_argument("--n-max", type=int, default=30)
    sp.add_argument("--check-search-up-to", type=int, default=0)
    sp.add_argument("--budget-ms", type=int)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("dual", help="dualize a family document")
    common(sp, input_doc=True)
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("switch", help="complement one ground element across all members")
    sp.add_argument("--v", type=int, required=True)
    common(sp, input_doc=True)
    sp.set_defaults(func=cmd_switch)

    sp = sub.add_parser("canon", help="canonical form under the chosen symmetry group")
    sp.add_argument("--group", choices=GROUPS, default="perm+switch")
    common(sp, input_doc=True)
    sp.set_defaults(func=cmd_canon)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot fail again (the SIGPIPE note in the docs
        # of Python's signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL
    except SelfCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_SELFCHECK
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
