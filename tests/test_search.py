"""Searches re-derive extremal values; reports are deterministic and sound."""

import os
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import sepsys.search as search
from sepsys import (
    CapacityError,
    binom,
    dual,
    f2_exact,
    is_k_hyperseparating,
    is_nice,
    k_prime,
    pair_family_valid,
)
from sepsys.core import (
    PERMUTATIONS_AND_SWITCHING,
    PERMUTATIONS_ONLY,
    Family,
    bits,
    canonical_form,
    is_canonical,
    relabel,
    switch_set,
)
from sepsys.verify import separator_table
from sepsys.search import (
    SYMMETRY_DEPTH,
    ExistenceResult,
    exists_nice_of_size,
    max_nice_size,
    max_pair_family,
    max_unique_subset_family,
    min_m_hyperseparating,
)


# --- independent naive oracles (no masks, no symmetry, no pruning) -----------


def _naive_has_separator(words, i, k, m):
    for size in range(0, k + 1):
        for idxs in combinations(range(m), size):
            s = sum(1 << t for t in idxs)
            key = words[i] & s
            if all(words[j] & s != key for j in range(len(words)) if j != i):
                return True
    return False


def _naive_g(m, k):
    best = 0

    def ext(prefix, start):
        nonlocal best
        best = max(best, len(prefix))
        for w in range(start, 1 << m):
            nxt = prefix + [w]
            if all(_naive_has_separator(nxt, i, k, m) for i in range(len(nxt))):
                ext(nxt, w + 1)

    ext([], 0)
    return best


def _naive_owns(words, i, k, m):
    wi = words[i]
    for size in range(0, k + 1):
        for idxs in combinations(range(m), size):
            s = sum(1 << t for t in idxs)
            if s & ~wi:
                continue
            if all(s & ~words[j] for j in range(len(words)) if j != i):
                return True
    return False


def _naive_unique_max(m, k):
    best = 0

    def ext(prefix, start):
        nonlocal best
        best = max(best, len(prefix))
        for w in range(start, 1 << m):
            nxt = prefix + [w]
            if all(_naive_owns(nxt, i, k, m) for i in range(len(nxt))):
                ext(nxt, w + 1)

    ext([], 0)
    return best


# --- max_nice_size -----------------------------------------------------------


def test_max_nice_size_matches_naive_small():
    for m in range(0, 4):
        for k in (1, 2, 3):
            rep = max_nice_size(m, k)
            assert rep.best == _naive_g(m, k), (m, k)
            assert rep.exhausted


def test_max_nice_size_known_values():
    assert max_nice_size(2, 2).best == 4
    assert max_nice_size(4, 2).best == 8
    rep = max_nice_size(4, 2)
    assert rep.exhausted and len(rep.example) == 8
    assert is_nice(rep.example, 2)


def test_max_nice_size_m5(g5_report):
    assert g5_report.best == 10
    assert g5_report.exhausted
    assert is_nice(g5_report.example, 2)
    assert len(g5_report.example) == 10


def _report_key(rep):
    if isinstance(rep, ExistenceResult):
        return rep.status, rep.family, rep.exhausted
    return rep.best, rep.example, rep.exhausted


def test_max_nice_size_symmetry_cross_check():
    # Symmetry pruning must not change any report: the example is the first
    # optimum in DFS order with or without it.
    runs = [lambda sym: max_nice_size(5, 2, use_symmetry=sym)]
    for m in range(0, 5):
        for k in (1, 2, 3):
            runs.append(lambda sym, m=m, k=k: max_nice_size(m, k, use_symmetry=sym))
            runs.append(lambda sym, m=m, k=k: max_unique_subset_family(m, k, use_symmetry=sym))
            runs += [
                lambda sym, m=m, k=k, n=n: exists_nice_of_size(m, k, n, use_symmetry=sym)
                for n in range(0, (1 << m) + 2)
            ]
    for run in runs:
        assert _report_key(run(True)) == _report_key(run(False))


def test_max_nice_size_monotone_in_m_and_k():
    vals = {}
    for m in range(0, 5):
        for k in (1, 2, 3):
            vals[m, k] = max_nice_size(m, k).best
    for m in range(1, 5):
        for k in (1, 2, 3):
            assert vals[m, k] >= vals[m - 1, k]
    for m in range(0, 5):
        for k in (1, 2):
            assert vals[m, k + 1] >= vals[m, k]


def test_max_nice_size_budget_expiry():
    rep = max_nice_size(5, 2, budget_ms=0)
    assert not rep.exhausted
    assert rep.wall_budget_ms == 0


def test_max_nice_size_capacity_guard():
    with pytest.raises(CapacityError):
        max_nice_size(7, 2)
    with pytest.raises(ValueError):
        max_nice_size(3, 0)


# --- exists_nice_of_size -----------------------------------------------------


def test_exists_nice_examples():
    res = exists_nice_of_size(3, 2, 7)
    assert res.family is None and res.exhausted
    assert res.status == "proven-absent"

    res = exists_nice_of_size(4, 2, 8)
    assert res.family is not None and len(res.family) == 8
    assert is_nice(res.family, 2)
    assert res.status == "found"

    res = exists_nice_of_size(2, 2, 5)  # more members than subsets
    assert res.status == "proven-absent" and res.nodes_visited == 0


def test_exists_nice_matches_naive_small():
    # the naive g(4, 3) alone takes about 10 s
    for m, k in [(m, k) for m in range(0, 4) for k in (1, 2, 3)] + [(4, 1), (4, 2)]:
        g = _naive_g(m, k)
        for n in range(0, (1 << m) + 2):
            res = exists_nice_of_size(m, k, n)
            assert res.exhausted, (m, k, n)
            assert (res.family is not None) == (n <= g), (m, k, n)
            if res.family is not None:
                assert len(set(res.family.members)) == n
                assert is_nice(res.family, k), (m, k, n)


def test_exists_nice_budget_status():
    res = exists_nice_of_size(5, 2, 11, budget_ms=0)
    assert res.status == "budget-exhausted"


# --- min_m_hyperseparating ---------------------------------------------------


def test_min_m_examples():
    rep = min_m_hyperseparating(8, 2, 5)
    assert rep.best == 4 and rep.exhausted
    assert rep.example.ground_size == 8
    assert is_k_hyperseparating(rep.example, 2)

    rep = min_m_hyperseparating(3, 2, 3)
    assert rep.best == 2 and rep.exhausted


def test_min_m_duality_consistency_small():
    for n in range(2, 9):
        rep = min_m_hyperseparating(n, 2, 6)
        assert rep.best == f2_exact(n), n
        assert rep.exhausted
        # the found dual family is the dual of the emitted primal example
        assert is_nice(dual(rep.example), 2)


def test_min_m_not_found_report():
    rep = min_m_hyperseparating(9, 2, 4)  # f(9,2) = 5 > 4
    assert rep.best is None and rep.example is None
    assert rep.exhausted  # all levels proven absent
    assert rep.levels[-1] == (4, "proven-absent")


def test_min_m_validates_inputs():
    with pytest.raises(ValueError):
        min_m_hyperseparating(1, 2, 5)
    with pytest.raises(ValueError):
        min_m_hyperseparating(200, 2, 6)
    with pytest.raises(CapacityError):
        min_m_hyperseparating(8, 2, 7)
    with pytest.raises(ValueError, match="k must be"):
        min_m_hyperseparating(5, 0, 4)
    with pytest.raises(ValueError, match="m must be >= 0"):
        min_m_hyperseparating(5, 2, -1)


# --- max_unique_subset_family ------------------------------------------------


def test_max_unique_matches_naive():
    for m in range(1, 5):
        for k in (1, 2, 3):
            rep = max_unique_subset_family(m, k)
            assert rep.best == _naive_unique_max(m, k), (m, k)
            assert rep.exhausted


def test_max_unique_known_values():
    assert max_unique_subset_family(2, 2).best == 2
    assert max_unique_subset_family(3, 2).best == 3
    assert max_unique_subset_family(4, 2).best == 6
    rep = max_unique_subset_family(5, 2)
    assert rep.best == 10 == binom(5, k_prime(5, 2))
    # the example family really has the ownership property
    words = rep.example.members
    assert all(
        _naive_owns(words, i, 2, rep.example.ground_size) for i in range(len(words))
    )


def test_max_unique_capacity():
    with pytest.raises(CapacityError):
        max_unique_subset_family(6, 2)


def test_max_unique_agrees_with_binomial_formula():
    # the search independently confirms the closed form behind min_m_hcs
    for k in (1, 2, 3):
        for m in range(1, 6):
            rep = max_unique_subset_family(m, k)
            assert rep.exhausted
            assert rep.best == binom(m, k_prime(m, k)), (m, k)


# --- pinned reports ----------------------------------------------------------

# Exact reports of the searches: (best or status, example members, exhausted).
# Pruning changes may lower node counts but must not change any of these.
PINNED_REPORTS = {
    "g(5,2)": (
        lambda: max_nice_size(5, 2),
        (10, (0, 1, 2, 5, 10, 21, 26, 29, 30, 31), True),
    ),
    "exists(5,2,10)": (
        lambda: exists_nice_of_size(5, 2, 10),
        ("found", (0, 1, 2, 5, 10, 21, 26, 29, 30, 31), True),
    ),
    "exists(5,2,11)": (
        lambda: exists_nice_of_size(5, 2, 11),
        ("proven-absent", None, True),
    ),
    "unique(5,2)": (
        lambda: max_unique_subset_family(5, 2),
        (10, (3, 5, 6, 9, 10, 12, 17, 18, 20, 24), True),
    ),
    "unique(5,3)": (
        lambda: max_unique_subset_family(5, 3),
        (10, (3, 5, 6, 9, 10, 12, 17, 18, 20, 24), True),
    ),
    "g(5,3)": (
        lambda: max_nice_size(5, 3),
        (20, (0, 1, 2, 4, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22, 27, 29, 30, 31), True),
    ),
    "g(6,1)": (
        lambda: max_nice_size(6, 1),
        (6, (0, 3, 5, 9, 17, 33), True),
    ),
    "exists(6,2,12)": (
        lambda: exists_nice_of_size(6, 2, 12),
        ("found", (0, 1, 2, 5, 10, 21, 42, 53, 58, 61, 62, 63), True),
    ),
    # (separator, key) words, key by key
    "pair-family(6,2)": (
        lambda: max_pair_family(6, 2),
        (60, (
            (3, 0), (5, 0), (6, 0), (9, 0), (10, 0), (12, 0), (17, 0), (18, 0),
            (20, 0), (24, 0), (33, 0), (34, 0), (36, 0), (40, 0), (48, 0),
            (3, 1), (5, 1), (9, 1), (17, 1), (33, 1),
            (3, 2), (6, 2), (10, 2), (18, 2), (34, 2), (3, 3),
            (5, 4), (6, 4), (12, 4), (20, 4), (36, 4), (5, 5), (6, 6),
            (9, 8), (10, 8), (12, 8), (24, 8), (40, 8), (9, 9), (10, 10), (12, 12),
            (17, 16), (18, 16), (20, 16), (24, 16), (48, 16),
            (17, 17), (18, 18), (20, 20), (24, 24),
            (33, 32), (34, 32), (36, 32), (40, 32), (48, 32),
            (33, 33), (34, 34), (36, 36), (40, 40), (48, 48),
        ), True),
    ),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_search_reports_pinned(name):
    run, want = PINNED_REPORTS[name]
    rep = run()
    if isinstance(rep, ExistenceResult):
        head, fam = rep.status, rep.family
    else:
        head, fam = rep.best, rep.example
    members = None if fam is None else fam.members
    if getattr(rep, "example_pairs", None) is not None:
        members = tuple((p.separator, p.key) for p in rep.example_pairs)
    assert (head, members, rep.exhausted) == want


# Nodes the DFS visits.  Sharper pruning may lower these, never raise them.
PINNED_NODES = {
    "g(5,2)": (lambda: max_nice_size(5, 2), 104),
    "exists(5,2,11)": (lambda: exists_nice_of_size(5, 2, 11), 90),
    "unique(5,2)": (lambda: max_unique_subset_family(5, 2), 40),
    "unique(5,3)": (lambda: max_unique_subset_family(5, 3), 46),
    "unique(5,2)-nosym": (lambda: max_unique_subset_family(5, 2, use_symmetry=False), 160),
    "pair-family(6,2)": (lambda: max_pair_family(6, 2), 164),
    "pair-family(4,2)": (lambda: max_pair_family(4, 2), 48),
    "g(6,1)": (lambda: max_nice_size(6, 1), 8),
    "g(5,3)": (lambda: max_nice_size(5, 3), 3220),
    # 3504 before the root split: later roots start from the first root's 12
    "g(6,2)": (lambda: max_nice_size(6, 2), 3506),
    "exists(6,2,16)": (lambda: exists_nice_of_size(6, 2, 16), 1634),
}


@pytest.mark.parametrize("name", PINNED_NODES)
def test_dfs_node_counts_pinned(name):
    run, want = PINNED_NODES[name]
    assert run().nodes_visited == want


# --- the free-pair bound -----------------------------------------------------


def _pair_runs(m, k):
    """Each witness S with the mask of its run of 2^|S| bits in ``pairs``."""
    runs, base = [], 0
    for S in separator_table(m, k)[0]:
        width = 1 << S.bit_count()
        runs.append((S, ((1 << width) - 1) << base))
        base += width
    return runs


def test_pair_bits_are_the_keys():
    # two words share the bit of S exactly when their keys on S are equal
    cases = [(m, k) for m in range(0, 5) for k in range(1, m + 2)]
    cases += [(5, 1), (5, 2), (5, 3), (6, 2)]
    for m, k in cases:
        pairs = search._witness_tables(m, k)[3]
        runs = _pair_runs(m, k)
        width = sum(run.bit_count() for _, run in runs)
        for w in range(1 << m):
            assert pairs[w] >> width == 0
            assert all((pairs[w] & run).bit_count() == 1 for _, run in runs), (m, k, w)
        for S, run in runs:
            for w1 in range(1 << m):
                for w2 in range(1 << m):
                    shared = pairs[w1] & pairs[w2] & run != 0
                    assert shared == (w1 & S == w2 & S), (m, k, S, w1, w2)


def _check_free_pair_count(members, m, k):
    """|Q| <= the pairs of Q that P does not hold, for every split F = P + Q
    of a nice family F.  Subset ORs are built from the subset less its
    lowest member, so the 2^|F| splits cost one OR each."""
    pairs = search._witness_tables(m, k)[3]
    n = len(members)
    held = [0] * (1 << n)
    for q in range(1, 1 << n):
        low = q & -q
        held[q] = held[q ^ low] | pairs[members[low.bit_length() - 1]]
    everyone = (1 << n) - 1
    for q in range(1 << n):
        assert q.bit_count() <= (held[q] & ~held[everyone ^ q]).bit_count(), (m, k, members, q)


@st.composite
def nice_families(draw):
    """A nice family: words in a drawn order, each kept while the family
    stays nice, up to a drawn size."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 12))
    members = []
    for w in draw(st.permutations(range(1 << m))):
        if len(members) == cap:
            break
        if is_nice(Family(m, (*members, w)), k):
            members.append(w)
    return m, k, members


@settings(max_examples=60, deadline=None)
@given(nice_families())
def test_free_pair_count_bounds_every_split(case):
    m, k, members = case
    assert is_nice(Family(m, tuple(members)), k)
    _check_free_pair_count(members, m, k)


def test_free_pair_count_on_the_optimum():
    rep = max_nice_size(6, 2)
    assert rep.best == 15
    _check_free_pair_count(list(rep.example.members), 6, 2)


# Nodes with the free-pair bound off: the counts before it was added, but
# for g(6,2), which the root split moved.
UNBOUNDED_NODES = {
    "g(5,2)": 113,
    "exists(5,2,11)": 99,
    "g(5,3)": 3285,
    "g(6,1)": 15,
    "g(6,2)": 4652,  # 4647 before the root split
    "exists(6,2,16)": 2767,
}


@pytest.mark.parametrize("name", UNBOUNDED_NODES)
def test_free_pair_bound_cuts_only_nodes(name, monkeypatch):
    # With one private pair per word, every candidate but the child brings
    # a free pair of its own, which the cardinality bound already counts:
    # the bound is off.  The reports must not change, only the nodes.
    run = PINNED_NODES[name][0]
    bounded = run()
    tables = search._witness_tables

    def private_pairs(m, k):
        keep, full, own, _ = tables(m, k)
        return keep, full, own, tuple(1 << w for w in range(1 << m))

    monkeypatch.setattr(search, "_witness_tables", private_pairs)
    unbounded = run()
    assert unbounded.nodes_visited == UNBOUNDED_NODES[name]
    fields = [f for f in type(bounded).__slots__ if f != "nodes_visited"]
    assert [getattr(unbounded, f) for f in fields] == [getattr(bounded, f) for f in fields]


# --- the root split ----------------------------------------------------------


SPLIT_CASES = {
    # name: (search, whether a helper is forked)
    "g(5,2)-nosym": (lambda: max_nice_size(5, 2, use_symmetry=False), True),
    "exists(5,2,11)-nosym": (lambda: exists_nice_of_size(5, 2, 11, use_symmetry=False), True),
    "g(5,3)": (lambda: max_nice_size(5, 3), False),
    "g(6,2)": (lambda: max_nice_size(6, 2), True),
    "exists(6,2,13)": (lambda: exists_nice_of_size(6, 2, 13), False),
    "exists(6,2,16)": (lambda: exists_nice_of_size(6, 2, 16), True),
}


def _fields(rep):
    out = [getattr(rep, f) for f in type(rep).__slots__]
    return out + [rep.status] if isinstance(rep, ExistenceResult) else out


def _count_shares(monkeypatch):
    shares = []
    share = search._share

    def counted(*args):
        shares.append(args[1:3])
        return share(*args)

    monkeypatch.setattr(search, "_share", counted)
    return shares


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_reports_same_with_and_without_helper(name, monkeypatch):
    run, forks = SPLIT_CASES[name]
    shares = _count_shares(monkeypatch)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    alone = run()
    assert shares == []
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    helped = run()
    assert bool(shares) == forks
    assert _fields(helped) == _fields(alone)


@pytest.mark.parametrize("name", PINNED_NODES)
def test_split_moves_only_the_g62_count(name, monkeypatch):
    # Roots queued once SPLIT_MIN_NODES nodes are visited start from the
    # best reached before them, not from the running best.  Only g(6,2)
    # improves on its first root's best in a later root, so only its
    # count moves; searches that queue nothing cannot move at all.
    run = PINNED_NODES[name][0]
    split = run()
    monkeypatch.setattr(search, "SPLIT_MIN_NODES", float("inf"))
    whole = run()
    assert whole.nodes_visited == (3504 if name == "g(6,2)" else split.nodes_visited)
    fields = [f for f in type(split).__slots__ if f != "nodes_visited"]
    assert [getattr(whole, f) for f in fields] == [getattr(split, f) for f in fields]


def _in_helper(parent=os.getpid()):
    return os.getpid() != parent


def test_split_helper_without_results_runs_its_roots_here(monkeypatch):
    run = SPLIT_CASES["g(5,2)-nosym"][0]
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    alone = run()
    replay = search._replay

    def dying(*args):
        if _in_helper():
            os._exit(1)
        return replay(*args)

    shares = _count_shares(monkeypatch)
    monkeypatch.setattr(search, "_replay", dying)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    assert _fields(run()) == _fields(alone)
    assert shares


@pytest.mark.parametrize("name", ["g(5,2)-nosym", "exists(5,2,11)-nosym"])
def test_split_budget_expiry(name, monkeypatch):
    # The budget expires in the fourth root either side runs: after the
    # helper is forked in this process, and at once in the helper.
    started = []
    replay = search._replay

    def counted(*args):
        started.append(args[3])
        return replay(*args)

    def check(budget):
        budget.expired = budget.expired or len(started) >= 4
        return budget.expired

    shares = _count_shares(monkeypatch)
    monkeypatch.setattr(search, "_replay", counted)
    monkeypatch.setattr(search._Budget, "check", check)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    rep = SPLIT_CASES[name][0]()
    assert shares
    assert rep.exhausted is False
    if isinstance(rep, ExistenceResult):
        assert rep.status == "budget-exhausted"
    else:
        assert rep.best == 10 and is_nice(rep.example, 2)


def test_split_interrupt_reaps_the_helper(monkeypatch):
    replay = search._replay
    started = []

    def interrupted(*args):
        started.append(args[3])
        if not _in_helper() and len(started) == 4:
            raise KeyboardInterrupt
        return replay(*args)

    shares = _count_shares(monkeypatch)
    monkeypatch.setattr(search, "_replay", interrupted)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        max_nice_size(5, 2, use_symmetry=False)
    assert shares


def test_share_runs_roots_from_both_ends():
    parent = os.getpid()

    def run(i):
        time.sleep(0.1 if os.getpid() == parent else 0.001)
        return os.getpid(), None, False

    done = search._share(run, 2, 8, False)
    assert sorted(done) == list(range(2, 8))
    mine = [i for i in done if done[i][0] == parent]
    assert mine and mine == list(range(2, 2 + len(mine))) and len(mine) < 6


def test_share_kills_the_helper_when_this_side_finds():
    parent = os.getpid()

    def run(i):
        if os.getpid() != parent:
            time.sleep(5)
        return 1, (i,) if i == 1 else None, False

    t0 = time.monotonic()
    done = search._share(run, 0, 8, True)
    assert time.monotonic() - t0 < 2.5
    assert done == {0: (1, None, False), 1: (1, (1,), False)}


def _brute_least_image(m, words, switching):
    """The least sorted image over every relabel x switch_set, explicitly."""
    f = Family(m, tuple(words))
    masks = range(1 << m) if switching else (0,)
    return min(
        tuple(sorted(switch_set(relabel(f, perm), mask).members))
        for perm in permutations(range(m))
        for mask in masks
    )


def test_canonical_prefix_matches_brute_force():
    rng = random.Random(6)
    cases = []
    for m in range(0, 6):
        words = range(1 << m)
        cases += [
            (m, list(words)),  # the cube
            (m, [w for w in words if w.bit_count() == m // 2]),  # middle layer
            (m, [w for w in words if w.bit_count() % 2 == 0]),  # even weight
        ]
        for _ in range(60 if m < 5 else 25):
            members = rng.sample(words, rng.randrange(0, min(10, 1 << m) + 1))
            if members and rng.random() < 0.2:
                members.append(rng.choice(members))  # duplicate members are allowed
            cases.append((m, members))
    for m, members in cases:
        for group, switching in ((PERMUTATIONS_ONLY, False), (PERMUTATIONS_AND_SWITCHING, True)):
            want = _brute_least_image(m, members, switching)
            assert canonical_form(Family(m, tuple(members)), group).members == want
            ws = tuple(sorted(members))
            assert is_canonical(ws, m, group) == (want == ws), (m, ws, group)
    # every 1- and 2-word prefix at m = 6: the early-exit test against the
    # full least image
    for group in (PERMUTATIONS_ONLY, PERMUTATIONS_AND_SWITCHING):
        for ws in (*combinations(range(64), 1), *combinations(range(64), 2)):
            want = canonical_form(Family(6, ws), group).members == ws
            assert is_canonical(ws, 6, group) == want, (group, ws)


def _orbits(m, d, switching):
    """The d-word roots on m columns, grouped into orbits by union-find under
    the group generators: adjacent transpositions of the ground, and single
    switches when ``switching``."""
    gens = []
    for i in range(m - 1):
        swap = list(range(m))
        swap[i], swap[i + 1] = i + 1, i
        gens.append(lambda f, swap=swap: relabel(f, swap))
    if switching:
        gens += [lambda f, v=v: switch_set(f, 1 << v) for v in range(m)]
    roots = list(combinations(range(1 << m), d))
    parent = {r: r for r in roots}

    def find(r):
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        return r

    for root in roots:
        for gen in gens:
            image = tuple(sorted(gen(Family(m, root)).members))
            parent[find(image)] = find(root)
    orbits = {}
    for root in roots:
        orbits.setdefault(find(root), []).append(root)
    return orbits.values()


def _check_orbits(group, switching, cases):
    # Checks the symmetry pruning without the canonicalizer's own reasoning
    # and without rerunning any tree: each orbit of d-word roots keeps
    # exactly one root, all of whose prefixes pass the DFS's test, and it is
    # the orbit's least member, which the search's soundness argument needs.
    for m, depth in cases:
        for d in range(1, depth + 1):
            for orbit in _orbits(m, d, switching):
                kept = [
                    r for r in orbit
                    if all(is_canonical(r[:j], m, group) for j in range(1, d + 1))
                ]
                assert kept == [min(orbit)], (m, group, orbit)


def test_every_root_maps_onto_a_kept_root_under_switching():
    cases = [(m, SYMMETRY_DEPTH) for m in range(0, 5)] + [(5, 4), (6, 3)]
    _check_orbits(PERMUTATIONS_AND_SWITCHING, True, cases)


def test_every_root_maps_onto_a_kept_root_under_permutations():
    # the owned-subset group has relabelings only; its search stops at m = 5
    cases = [(m, SYMMETRY_DEPTH) for m in range(0, 5)] + [(5, 4), (6, 2)]
    _check_orbits(PERMUTATIONS_ONLY, False, cases)


# --- max_pair_family ---------------------------------------------------------


def _naive_pair_max(m, k):
    cand = []
    for s in range(1 << m):
        if s.bit_count() > k:
            continue
        sub = s
        while True:
            cand.append((s, sub))
            if sub == 0:
                break
            sub = (sub - 1) & s
    best = 0

    def compatible(chosen, p):
        s, key = p
        for s2, key2 in chosen:
            if (s2, key2) == (s, key):
                return False
            if key2 == key and (s & ~s2 == 0 or s2 & ~s == 0):
                return False
        return True

    def ext(chosen, start):
        nonlocal best
        best = max(best, len(chosen))
        if len(chosen) + len(cand) - start <= best:
            return
        for t in range(start, len(cand)):
            if compatible(chosen, cand[t]):
                chosen.append(cand[t])
                ext(chosen, t + 1)
                chosen.pop()

    ext([], 0)
    return best


def test_max_pair_family_matches_naive():
    for m in (2, 3):
        for k in (1, 2):
            assert max_pair_family(m, k).best == _naive_pair_max(m, k), (m, k)


def test_max_pair_family_known_values():
    assert max_pair_family(4, 2).best == 24
    assert max_pair_family(2, 1).best == 4
    assert max_pair_family(3, 1).best == 6
    # below the m >= 2k threshold the bound does not apply
    assert max_pair_family(2, 2).best == 5


def test_max_pair_family_examples_validate():
    for m, k in ((2, 1), (3, 1), (4, 2), (5, 2)):
        rep = max_pair_family(m, k)
        assert len(rep.example_pairs) == rep.best
        assert pair_family_valid(list(rep.example_pairs), m, k) is True


def test_max_pair_family_example_pinned():
    # per key, the first maximum antichain in word order
    pairs = [
        ([0], []), ([1], []), ([2], []),
        ([0, 1], [0]), ([0, 2], [0]),
        ([0, 1], [1]), ([1, 2], [1]),
        ([0, 1], [0, 1]),
        ([0, 2], [2]), ([1, 2], [2]),
        ([0, 2], [0, 2]),
        ([1, 2], [1, 2]),
    ]
    rep = max_pair_family(3, 2)
    assert [(bits(p.separator), bits(p.key)) for p in rep.example_pairs] == pairs


def test_max_pair_family_bound_direction():
    for k in (1, 2):
        for m in range(2 * k, 7):
            assert max_pair_family(m, k).best == (1 << k) * binom(m, k), (m, k)


def test_max_pair_family_validates_inputs():
    with pytest.raises(ValueError):
        max_pair_family(4, 3)
    with pytest.raises(CapacityError):
        max_pair_family(7, 2)
