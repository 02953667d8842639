"""The benchmark's three workloads, built from a seed.

A workload is a fixed list of steps (``build``).  Each step makes one call
into sepsys and returns its output; the step's check runs after the pass,
outside the timed region, and returns None or what was wrong.  Steps marked
``sample`` are the operations behind op_p50_ms and op_p90_ms.  The seed picks
the inputs (job order, documents, sizes, random families); sepsys sees only
those inputs.

search-proofs  Exhaustive symmetry-reduced searches in-process with warm
               caches: g(5,2), g(5,3), unreduced g(5,2), exists(5,2,11/10),
               exists(5,3,20), unique-subset(5,2/3), pair-family(6,2).  Almost all time is in
               the subtree DFS, so node-count and DFS-kernel changes show
               here; m=5 canonical_form is under 2 %.  The m=6 proofs take
               over a minute and stay out.
cli-m6         CLI commands, each in a fresh interpreter: table, g(6,1),
               exists(6,2,12), min-m(11), canon on m=6 documents and construct
               piped into verify.  Start-up, import and cold m=6
               canonical_form dominate and the DFS does little, so a DFS change
               should leave it unchanged.
certify-io     No search: construct -> oracle -> recheck -> JSON and text
               round-trip for every kind and n = 2..60, k_hcs_minimal(60,3),
               is_nice on random m=5 families, and involutions and
               canonical_form at m <= 5.  verify, construct and core changes
               show here; a search change should not.

The per-pass op mix of cli-m6 (4 slow commands among 25) puts p50 inside the
cluster of cheap commands and p90 inside the exists(6,2,12) cluster for any
number of passes, so the percentiles do not jump between clusters.  On
search-proofs a pass has 9 operations: four take under 5 ms, so the median
operation is the absence proof exists(5,2,11) or a search of similar length,
and p90 falls inside g(5,3), with fewer than ten samples beyond it.
exists(5,3,20) is in the list partly for that reason: with 8 operations the
median would fall in the gap between the cheap and the dear half.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout, suppress
from dataclasses import dataclass
from functools import cache
from typing import Callable

from sepsys import bounds, cli, construct, core, search, verify

import checks
import hostprobe
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "cli_child.py")
CLI_TIMEOUT_S = 30

SEARCH_JOBS = (
    "g_5_2",
    "g_5_3",
    "g_5_2_nosym",
    "exists_5_2_11",
    "exists_5_2_10",
    "exists_5_3_20",
    "unique_5_2",
    "unique_5_3",
    "pair_6_2",
    "table",
    "g_6_1",
    "exists_6_2_12",
    "min_m_11",
)


@dataclass
class Step:
    job: str
    run: Callable[[Tracer | None], object]
    check: Callable[[object], str | None]
    sample: bool = True


def _nice_example(fam, k: int, size: int) -> str | None:
    """Re-verify a search example with the oracle and the witness re-checker."""
    if fam is None or len(fam) != size or not core.is_proper(fam):
        return f"example {fam} is not {size} distinct members"
    cert = verify.is_nice(fam, k)
    if not cert or not verify.recheck_certificate(fam, cert):
        return f"example {fam} is not nice for k={k}"
    return None


# --- search-proofs -----------------------------------------------------------


def _max_check(best: int, k: int | None, nice: bool = True):
    def check(rep):
        if rep.best != best or not rep.exhausted:
            return f"best={rep.best} exhausted={rep.exhausted}, want {best} exhausted"
        if nice:
            return _nice_example(rep.example, k, best)
        members = rep.example.members
        if len(set(members)) != best or not checks.owns_unique_subsets(5, members, k):
            return f"example {rep.example} does not own unique subsets"
        return None

    return check


def _exists_check(status: str, k: int, size: int):
    def check(res):
        if res.status != status:
            return f"status {res.status}, want {status}"
        return _nice_example(res.family, k, size) if status == "found" else None

    return check


def _pair_check(rep):
    if rep.best != checks.PAIR_6_2 or len(rep.example_pairs) != checks.PAIR_6_2:
        return f"pair family of {rep.best}, want {checks.PAIR_6_2}"
    if verify.pair_family_valid(rep.example_pairs, 6, 2) is not True:
        return "pair family invalid"
    return None


def _same_nodes(check):
    """Add the check that a job's node count repeats exactly across passes."""
    seen = []

    def wrapped(rep):
        seen.append(rep.nodes_visited)
        if seen[0] != seen[-1]:
            return f"nodes_visited {seen[-1]} differs from first pass {seen[0]}"
        return check(rep)

    return wrapped


def search_proofs(seed: int, tiny: bool) -> list[Step]:
    jobs = [
        ("g_5_2", lambda: search.max_nice_size(5, 2), _max_check(checks.G_5_2, 2)),
        ("g_5_3", lambda: search.max_nice_size(5, 3), _max_check(checks.G_5_3, 3)),
        (
            "g_5_2_nosym",
            lambda: search.max_nice_size(5, 2, use_symmetry=False),
            _max_check(checks.G_5_2, 2),
        ),
        (
            "exists_5_2_11",
            lambda: search.exists_nice_of_size(5, 2, checks.G_5_2 + 1),
            _exists_check("proven-absent", 2, 0),
        ),
        (
            "exists_5_2_10",
            lambda: search.exists_nice_of_size(5, 2, checks.G_5_2),
            _exists_check("found", 2, checks.G_5_2),
        ),
        (
            "exists_5_3_20",
            lambda: search.exists_nice_of_size(5, 3, checks.G_5_3),
            _exists_check("found", 3, checks.G_5_3),
        ),
        (
            "unique_5_2",
            lambda: search.max_unique_subset_family(5, 2),
            _max_check(checks.UNIQUE_5, 2, nice=False),
        ),
        (
            "unique_5_3",
            lambda: search.max_unique_subset_family(5, 3),
            _max_check(checks.UNIQUE_5, 3, nice=False),
        ),
        ("pair_6_2", lambda: search.max_pair_family(6, 2), _pair_check),
    ]
    if tiny:
        jobs = [j for j in jobs if j[0] not in ("g_5_3", "g_5_2_nosym")]
    random.Random(f"search-proofs/{seed}").shuffle(jobs)
    return [Step(job, lambda _t, fn=fn: fn(), _same_nodes(chk)) for job, fn, chk in jobs]


# --- cli-m6 ------------------------------------------------------------------


def cli_env(src: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SEPSYS_BUDGET_MS", None)  # a budget would change what is measured
    return env


def run_cli(args, stdin: str, tracer: Tracer | None, src: str, scratch: str):
    """One CLI command in a fresh interpreter; returns (exit code, stdout).

    Traced runs go through cli_child.py, whose spans are merged under the
    current span, with a ``bench.startup`` span from spawn to the end of
    ``import sepsys.cli``.  While a host probe is active the child probes
    itself instead of the parent, and its samples join the parent's.
    """
    env = cli_env(src)
    probe = hostprobe.active
    if tracer is None:
        cmd = [sys.executable, "-m", "sepsys.cli", *args]
    else:
        spans_path = os.path.join(scratch, "cli_spans.json")
        with suppress(FileNotFoundError):
            os.remove(spans_path)  # never read a previous command's spans
        cmd = [sys.executable, CHILD, spans_path, src, *args]
    if probe is not None:
        samples_path = os.path.join(scratch, "cli_probe.json")
        with suppress(FileNotFoundError):
            os.remove(samples_path)
        env = hostprobe.child_env(env, samples_path)
    spawned = time.perf_counter()
    with probe.paused() if probe is not None else nullcontext():
        proc = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S
        )
    if probe is not None:
        probe.add_child(samples_path)
    if tracer is not None:
        with open(spans_path, encoding="utf-8") as fh:
            data = json.load(fh)
        parent = tracer.current()
        tracer.spans.append(["bench.startup", spawned, data["imported_at"], parent, None])
        tracer.add_spans(data["spans"], parent)
    return proc.returncode, proc.stdout


def _lines_check(expect_first: list[str], example_check=None):
    """Exit code 0, the given leading lines, then an optional JSON example."""

    def check(out):
        rc, stdout = out
        lines = stdout.splitlines()
        if rc != 0:
            return f"exit code {rc}"
        if lines[: len(expect_first)] != expect_first:
            return f"output starts {lines[: len(expect_first)]}, want {expect_first}"
        if example_check is not None:
            return example_check(cli.parse_family(lines[-1]))
        return None

    return check


def _table_check(out):
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}"
    want = []
    for n in range(2, 31):
        line = f"{n:>3}  {checks.f2(n):>2}  "
        want.append(line)
    lines = stdout.splitlines()
    if len(lines) != len(want) or any(not a.startswith(b) for a, b in zip(lines, want)):
        return "table rows differ from f(n,2)"
    for n, line in zip(range(2, 13), lines):
        if not line.endswith(f"search:{checks.f2(n)} ✓"):
            return f"row {n}: {line}"
    return None


def _canon_check(want):
    def check(out):
        rc, stdout = out
        if rc != 0:
            return f"exit code {rc}"
        got = cli.parse_family(stdout).members
        return None if got == want else f"canonical form {got}, want {want}"

    return check


def _min_m_example(fam):
    if fam.ground_size != 11 or len(fam) != checks.F_11_2:
        return f"primal example {fam} has the wrong shape"
    return _nice_example(core.dual(fam), 2, 11)


# (construct kind, its extra arguments, verify arguments, expected size)
CONSTRUCT_PIPES = (
    ("binary", (), ("--property", "separating"), checks.separating_min),
    ("spencer", (), ("--property", "completely"), checks.spencer_min),
    ("hcs", ("--k", "2"), ("--property", "hcs", "--k", "2"), lambda n: checks.hcs_min(n, 2)),
    ("hcs", ("--k", "3"), ("--property", "hcs", "--k", "3"), lambda n: checks.hcs_min(n, 3)),
    ("hs2", (), ("--property", "hs", "--k", "2"), checks.f2),
    ("nice-small", (), ("--property", "nice", "--k", "2"), lambda m: 2 * m),
    ("spencer", (), ("--property", "completely"), checks.spencer_min),
)
CANON_SIZES = (8, 9, 10, 11, 12, 13, 14)


def cli_m6(seed: int, tiny: bool, src: str, scratch: str) -> list[Step]:
    rng = random.Random(f"cli-m6/{seed}")

    def cli_step(job, args, check, stdin=lambda: ""):
        return Step(job, lambda t: run_cli(args, stdin(), t, src, scratch), check)

    steps = [
        cli_step(
            "table", ["table", "--n-max", "30", "--check-search-up-to", "12"], _table_check
        ),
        cli_step(
            "g_6_1",
            ["search", "--problem", "g", "--m", "6", "--k", "1"],
            _lines_check(
                [f"g(6,1) = {checks.G_6_1} (exhausted)"],
                lambda f: _nice_example(f, 1, checks.G_6_1),
            ),
        ),
        cli_step(
            "exists_6_2_12",
            ["search", "--problem", "exists", "--m", "6", "--n", "12"],
            _lines_check(["exists(m=6,k=2,n=12): found"], lambda f: _nice_example(f, 2, 12)),
        ),
        cli_step(
            "min_m_11",
            ["search", "--problem", "min-m", "--n", "11"],
            _lines_check(
                [f"  m={m}: infeasible" for m in (1, 2, 3)]
                + [f"  m={m}: proven-absent" for m in (4, 5)]
                + ["  m=6: found", f"f(11,2) = {checks.F_11_2} (exhausted)"],
                _min_m_example,
            ),
        ),
    ]

    pipes = CONSTRUCT_PIPES[:1] if tiny else CONSTRUCT_PIPES
    for kind, cargs, vargs, size_of in pipes:
        n = rng.randint(1, 4) if kind == "nice-small" else rng.randint(20, 60)
        size_flag = "--m" if kind == "nice-small" else "--n"
        doc: dict[str, str] = {}

        def construct_run(t, kind=kind, cargs=cargs, size_flag=size_flag, n=n, doc=doc):
            rc, out = run_cli(["construct", "--kind", kind, size_flag, str(n), *cargs], "", t, src, scratch)
            doc["text"] = out
            return rc, out

        def construct_check(out, n=n, size=size_of(n), kind=kind):
            rc, stdout = out
            if rc != 0:
                return f"construct {kind}: exit code {rc}"
            fam = cli.parse_family(stdout)
            if fam.ground_size != n or len(fam) != size:
                return f"construct {kind} n={n}: {len(fam)} members on {fam.ground_size}, want {size}"
            return None

        prop = vargs[1]
        k = vargs[3] if len(vargs) > 2 else None
        steps.append(Step(f"construct_{kind}", construct_run, construct_check))
        steps.append(
            cli_step(
                f"verify_{prop}",
                ["verify", *vargs],
                _lines_check([f"PASS {prop}" + (f" k={k}" if k else "")]),
                stdin=lambda doc=doc: doc.get("text", ""),
            )
        )

    for size in CANON_SIZES[:1] if tiny else CANON_SIZES:
        members = rng.sample(range(64), size)
        text = cli.emit_family(core.family_from_words(6, members))
        want = checks.canonical(6, members, switching=True)
        steps.append(
            cli_step("canon", ["canon", "--group", "perm+switch"], _canon_check(want),
                     stdin=lambda text=text: text)
        )
    return steps


# --- certify-io --------------------------------------------------------------

# kind -> (construct, oracle, program's size formula, reference size formula).
# The lambdas look sepsys functions up at call time, so traced passes see them.
KINDS = {
    "binary": (
        lambda n: construct.binary_separating(n),
        lambda f: verify.is_separating(f),
        lambda n: bounds.separating_min(n),
        checks.separating_min,
    ),
    "spencer": (
        lambda n: construct.spencer_completely_separating(n),
        lambda f: verify.is_completely_separating(f),
        lambda n: bounds.spencer_min(n),
        checks.spencer_min,
    ),
    "hcs2": (
        lambda n: construct.k_hcs_minimal(n, 2),
        lambda f: verify.is_k_hypercompletely_separating(f, 2),
        lambda n: bounds.min_m_hcs(n, 2),
        lambda n: checks.hcs_min(n, 2),
    ),
    "hcs3": (
        lambda n: construct.k_hcs_minimal(n, 3),
        lambda f: verify.is_k_hypercompletely_separating(f, 3),
        lambda n: bounds.min_m_hcs(n, 3),
        lambda n: checks.hcs_min(n, 3),
    ),
    "hs2": (
        lambda n: construct.hyperseparating_minimal_2(n),
        lambda f: verify.is_k_hyperseparating(f, 2),
        lambda n: _sandwiched(bounds.f2_exact(n), bounds.f_bounds(n, 2)),
        checks.f2,
    ),
    "nice-small": (
        lambda m: construct.nice_small_m(m),
        lambda f: verify.is_nice(f, 2),
        lambda m: 2 * m,
        lambda m: 2 * m,
    ),
}


def _sandwiched(value: int, pair) -> int | None:
    return value if pair.lower <= value <= pair.upper else None


def _roundtrip(kind: str, n: int):
    make, oracle, size_of, _ = KINDS[kind]
    size = size_of(n)
    fam = make(n)
    cert = oracle(fam)
    rechecked = bool(cert) and verify.recheck_certificate(fam, cert)
    via_json = cli.parse_family(cli.emit_family(fam, "json"))
    via_text = cli.parse_family(cli.emit_family(fam, "text"))
    return size, fam, bool(cert), rechecked, via_json, via_text


def _roundtrip_check(kind: str, n: int):
    want = KINDS[kind][3](n)

    def check(out):
        size, fam, ok, rechecked, via_json, via_text = out
        if size != want or len(fam) != want or fam.ground_size != n:
            return f"{kind} n={n}: size {size}/{len(fam)} on {fam.ground_size}, want {want}"
        if not ok or not rechecked:
            return f"{kind} n={n}: oracle {ok}, recheck {rechecked}"
        if via_json != fam or via_text != fam:
            return f"{kind} n={n}: document round-trip changed the family"
        return None

    return check


def _nice_random(members):
    fam = core.family_from_words(5, members)
    cert = verify.is_nice(fam, 2)
    return cert, bool(cert) and verify.recheck_certificate(fam, cert)


def _nice_random_check(members):
    expected = cache(lambda: checks.nice_first_failure(5, members, 2))

    def check(out):
        cert, rechecked = out
        want = expected()
        if want is None and not (cert and rechecked):
            return f"{members}: nice family rejected"
        if want is not None and (cert or cert.failure != want):
            return f"{members}: first failure {cert.failure}, want {want}"
        return None

    return check


def _symmetry(m, members, v, perm, switching):
    fam = core.family_from_words(m, members)
    group = core.PERMUTATIONS_AND_SWITCHING if switching else core.PERMUTATIONS_ONLY
    image = core.relabel(core.switch(fam, v) if switching else fam, perm)
    return (
        fam,
        core.dual(core.dual(fam)),
        core.switch(core.switch(fam, v), v),
        core.canonical_form(fam, group),
        core.canonical_form(image, group),
    )


def _symmetry_check(m, members, switching):
    expected = cache(lambda: checks.canonical(m, members, switching))

    def check(out):
        fam, dd, ss, c1, c2 = out
        if dd != fam or ss != fam:
            return f"{members}: dual or switch is not an involution"
        if c1 != c2 or c1.members != expected():
            return f"{members}: canonical form {c1.members} / {c2.members}"
        return None

    return check


def certify_io(seed: int, tiny: bool) -> list[Step]:
    rng = random.Random(f"certify-io/{seed}")
    n_max = 12 if tiny else 60
    trips = [(kind, n) for kind in ("binary", "spencer", "hcs2", "hs2") for n in range(2, n_max + 1)]
    trips += [("nice-small", m) for m in range(1, 5)] + [("hcs3", 60)]
    rng.shuffle(trips)
    steps = [
        Step(f"roundtrip_{kind}", lambda _t, k=kind, n=n: _roundtrip(k, n), _roundtrip_check(kind, n))
        for kind, n in trips
    ]
    for _ in range(200 if tiny else 10_000):
        members = rng.sample(range(32), rng.randint(3, 12))
        steps.append(
            Step("nice_random", lambda _t, w=members: _nice_random(w), _nice_random_check(members), False)
        )
    for i in range(20 if tiny else 300):
        m = rng.randint(2, 5)
        members = rng.sample(range(1 << m), rng.randint(1, min(8, 1 << m)))
        v = rng.randrange(m)
        perm = rng.sample(range(m), m)
        switching = i % 2 == 0
        steps.append(
            Step(
                "symmetry",
                lambda _t, a=(m, members, v, perm, switching): _symmetry(*a),
                _symmetry_check(m, members, switching),
                False,
            )
        )
    return steps


# --- warm-up -----------------------------------------------------------------


def warm_up(name: str) -> None:
    """The call a fresh process makes before it is ready for the workload."""
    if name == "search-proofs":
        search.max_nice_size(5, 2)
    elif name == "cli-m6":
        with redirect_stdout(io.StringIO()):
            cli.main(["bounds", "--n", "10"])
    else:
        _roundtrip("hs2", 12)


def build(name: str, seed: int, tiny: bool, src: str, scratch: str) -> list[Step]:
    if name == "search-proofs":
        return search_proofs(seed, tiny)
    if name == "cli-m6":
        return cli_m6(seed, tiny, src, scratch)
    return certify_io(seed, tiny)
