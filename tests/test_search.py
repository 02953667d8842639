"""Searches re-derive extremal values; reports are deterministic and sound."""

import hashlib
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
    owns_unique_subsets,
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
from sepsys.bounds import pair_family_size
from sepsys.verify import pair_table, separator_table
from sepsys.search import (
    DEEP_SYMMETRY_DEPTH,
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


def test_exists_nice_rejects_negative_target():
    with pytest.raises(ValueError, match="target_n must be >= 0, got -1"):
        exists_nice_of_size(5, 2, -1)


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
        max_unique_subset_family(search.SEARCH_MAX_GROUND + 1, 2)


def test_max_unique_agrees_with_binomial_formula():
    # the search independently confirms the closed form behind min_m_hcs
    for k in (1, 2, 3):
        for m in range(1, 7):
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
    "exists(5,3,20)": (
        lambda: exists_nice_of_size(5, 3, 20),
        ("found", (0, 1, 2, 4, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22, 27, 29, 30, 31),
         True),
    ),
    "unique(5,2)": (
        lambda: max_unique_subset_family(5, 2),
        (10, (3, 5, 6, 9, 10, 12, 17, 18, 20, 24), True),
    ),
    "unique(5,3)": (
        lambda: max_unique_subset_family(5, 3),
        (10, (3, 5, 6, 9, 10, 12, 17, 18, 20, 24), True),
    ),
    "unique(6,2)": (
        lambda: max_unique_subset_family(6, 2),
        (15, (3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 33, 34, 36, 40, 48), True),
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
    "g(5,2)": (lambda: max_nice_size(5, 2), 86),
    "exists(5,2,11)": (lambda: exists_nice_of_size(5, 2, 11), 72),
    "exists(5,2,10)": (lambda: exists_nice_of_size(5, 2, 10), 12),
    "exists(5,3,20)": (lambda: exists_nice_of_size(5, 3, 20), 52),
    # the free-pair count cut nothing in the owned searches while it
    # counted the pairs of every witness: unique(5,2) visited 40 nodes then
    "unique(5,2)": (lambda: max_unique_subset_family(5, 2), 28),
    "unique(5,3)": (lambda: max_unique_subset_family(5, 3), 46),
    # 266 while the count took in every witness
    "unique(6,2)": (lambda: max_unique_subset_family(6, 2), 98),
    # 160 while the count took in every witness
    "unique(5,2)-nosym": (lambda: max_unique_subset_family(5, 2, use_symmetry=False), 103),
    # built, not searched; the per-key owned searches visited 164 and 48
    "pair-family(6,2)": (lambda: max_pair_family(6, 2), 0),
    "pair-family(4,2)": (lambda: max_pair_family(4, 2), 0),
    "g(6,1)": (lambda: max_nice_size(6, 1), 8),
    "g(5,3)": (lambda: max_nice_size(5, 3), 692),
    # 2595 unsplit: later roots start from the best reached before the queue
    "g(6,2)": (lambda: max_nice_size(6, 2), 2597),
    "exists(6,2,16)": (lambda: exists_nice_of_size(6, 2, 16), 1245),
    "exists(6,2,12)": (lambda: exists_nice_of_size(6, 2, 12), 20),
    # most of the work of these two lies in queued roots
    "g(5,2)-nosym": (lambda: max_nice_size(5, 2, use_symmetry=False), 21794),
    "exists(5,2,11)-nosym": (lambda: exists_nice_of_size(5, 2, 11, use_symmetry=False), 21780),
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
        pairs = search._witness_tables(m, k, False)[0]
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


def test_owned_pairs_are_the_subsets_and_holders_the_transpose():
    # an owned word holds one pair per witness T <= w, and in both tables a
    # pair's holders are exactly the words whose pairs have its bit
    for m, k in [(m, k) for m in range(0, 5) for k in range(1, m + 2)] + [(5, 2), (6, 2)]:
        seps = separator_table(m, k)[0]
        for owned in (False, True):
            pairs, holders = search._witness_tables(m, k, owned)[:2]
            if not owned:  # the separator model reads the table is_nice reads
                assert pairs is pair_table(m, k)[1]
            if owned:
                assert len(holders) == len(seps)
                for w in range(1 << m):
                    want = sum(1 << i for i, T in enumerate(seps) if T & w == T)
                    assert pairs[w] == want, (m, k, w)
            for p, held in enumerate(holders):
                assert held == sum(1 << w for w in range(1 << m) if pairs[w] >> p & 1)
            assert all(p >> len(holders) == 0 for p in pairs)


def test_byte_tables_are_the_ors_of_their_bytes():
    # entry b of byte table j is the OR of the items 8j + i over the bits i
    # of b, for the pairs of every word and the holders of every pair
    for m in range(0, 7):
        for k in range(1, m + 2):
            for owned in (False, True):
                pairs, holders, _, pair_bytes, holder_bytes = search._witness_tables(m, k, owned)
                for items, tables in ((pairs, pair_bytes), (holders, holder_bytes)):
                    assert len(tables) == (len(items) + 7) // 8, (m, k, owned)
                    for j, t in enumerate(tables):
                        byte = items[8 * j:8 * j + 8]
                        want = [0] * 256
                        for b in range(256):
                            for i, item in enumerate(byte):
                                if b >> i & 1:
                                    want[b] |= item
                        assert list(t) == want, (m, k, owned, j)


def _check_free_pair_count(members, m, k, owned=False):
    """|Q| <= the pairs of Q that P does not hold, for every split F = P + Q
    of a nice family F, or of a unique-subset family on the owned table.
    Subset ORs are built from the subset less its lowest member, so the
    2^|F| splits cost one OR each."""
    pairs = search._witness_tables(m, k, owned)[0]
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
    """A nice family, or a unique-subset family when ``owned``: words in a
    drawn order, each kept while the family keeps its property, up to a
    drawn size."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    owned = draw(st.booleans())
    cap = draw(st.integers(0, 12))
    members = []
    for w in draw(st.permutations(range(1 << m))):
        if len(members) == cap:
            break
        if _holds(m, k, owned, (*members, w)):
            members.append(w)
    return m, k, owned, members


@settings(max_examples=60, deadline=None)
@given(nice_families())
def test_free_pair_count_bounds_every_split(case):
    m, k, owned, members = case
    assert _holds(m, k, owned, members)
    _check_free_pair_count(members, m, k, owned)


def test_free_pair_count_on_the_optimum():
    rep = max_nice_size(6, 2)
    assert rep.best == 15
    _check_free_pair_count(list(rep.example.members), 6, 2)
    rep = max_unique_subset_family(6, 2)
    assert rep.best == 15
    _check_free_pair_count(list(rep.example.members), 6, 2, owned=True)


# Nodes with the free-pair bound off.  In the owned searches it cut nothing
# until each witness model had its own table.
UNBOUNDED_NODES = {
    "g(5,2)": 91,
    "exists(5,2,11)": 77,
    "g(5,3)": 720,
    "g(6,1)": 14,
    "g(6,2)": 3329,
    "exists(6,2,16)": 2024,
    "unique(5,2)": 39,
    "pair-family(6,2)": 0,
}


@pytest.mark.parametrize("name", UNBOUNDED_NODES)
def test_free_pair_bound_cuts_only_nodes(name, monkeypatch):
    # With one bit per word above the table in every node's ``reach``, a
    # child always sees more free pairs than it has later candidates, which
    # the cardinality bound already counts: the bound is off, while the
    # witnesses stay as they were.  The reports must not change, only the
    # nodes.
    run = PINNED_NODES[name][0]
    bounded = run()
    dfs_run = search._DFS.run

    def unbounded_run(self, members, cands, used, twice, reach):
        above = ((1 << len(self.pairs)) - 1) << len(self.holders)
        return dfs_run(self, members, cands, used, twice, reach | above)

    monkeypatch.setattr(search._DFS, "run", unbounded_run)
    unbounded = run()
    assert unbounded.nodes_visited == UNBOUNDED_NODES[name]
    fields = [f for f in type(bounded).__slots__ if f != "nodes_visited"]
    assert [getattr(unbounded, f) for f in fields] == [getattr(bounded, f) for f in fields]


# --- the canonical-prefix test rule -----------------------------------------


# Nodes when every prefix of up to DEEP_SYMMETRY_DEPTH words is tested, and
# when none past SYMMETRY_DEPTH is; the searches without symmetry and the
# short ones are untouched.
PREFIX_RULE_NODES = {
    "g(5,2)": (79, 90),
    "exists(5,2,11)": (66, 76),
    "exists(5,2,10)": (12, 12),
    "exists(5,3,20)": (52, 91),
    "unique(5,2)": (28, 28),
    "unique(5,3)": (46, 46),
    "unique(6,2)": (69, 98),
    "unique(5,2)-nosym": (103, 103),
    "pair-family(6,2)": (0, 0),
    "pair-family(4,2)": (0, 0),
    "g(6,1)": (8, 8),
    "g(5,3)": (688, 2243),
    "g(6,2)": (858, 2786),
    "exists(6,2,16)": (482, 1361),
    "exists(6,2,12)": (18, 20),
    "g(5,2)-nosym": (21794, 21794),
    "exists(5,2,11)-nosym": (21780, 21780),
}


@pytest.mark.parametrize("rule", ["every-prefix", "depth-5"])
@pytest.mark.parametrize("name", PINNED_NODES)
def test_prefix_test_rule_moves_only_nodes(name, rule, monkeypatch):
    # A prefix left untested only keeps more of the tree, and the
    # lexicographically least optimum has canonical prefixes at every
    # depth, so which prefixes are tested may move the node count alone.
    run = PINNED_NODES[name][0]
    gated = run()
    if rule == "every-prefix":
        monkeypatch.setattr(search, "DEEP_MIN_LEFT", (0,) * len(search.DEEP_MIN_LEFT))
    else:
        monkeypatch.setattr(search, "DEEP_SYMMETRY_DEPTH", SYMMETRY_DEPTH)
    other = run()
    every, depth5 = PREFIX_RULE_NODES[name]
    assert other.nodes_visited == (every if rule == "every-prefix" else depth5)
    fields = [f for f in type(gated).__slots__ if f != "nodes_visited"]
    assert [getattr(other, f) for f in fields] == [getattr(gated, f) for f in fields]


# --- the child filter --------------------------------------------------------


def _holds(m, k, owned, words):
    """Whether every member of ``words`` owns a subset of at most k
    elements (``owned``) or has a separator of at most k elements."""
    fam = Family(m, tuple(words))
    return owns_unique_subsets(fam, k) if owned else bool(is_nice(fam, k))


# The child filter is tested at every node these searches visit.  Children
# whose free pairs span no more bytes than their later words are built from
# the byte tables, the others by walking the words.  exists(6,2,12) takes
# the tables on the eight bytes of an m = 6 word mask and exists(5,3,20)
# walks most of its children, but neither drops a word there; g(5,3) drops
# 11 while walking, and exists(6,2,16) 186 from the tables and 9 walking.
CHILD_FILTER_CASES = ["g(5,2)", "exists(5,3,20)", "exists(6,2,12)", "g(5,3)", "exists(6,2,16)",
                      "unique(5,2)", "unique(5,2)-nosym"]


def test_child_filter_keeps_exactly_the_words_that_can_join(monkeypatch):
    # At every node, ``cands`` is the mask of the search's words above the
    # last member that can join the family, ``reach`` the OR of their pairs,
    # ``used`` the OR of the members' pairs and ``twice`` the pairs that two
    # or more members hold.  A search's words are the root's candidates.
    dfs_run = search._DFS.run
    nodes = [0]
    words = []

    def checked_run(self, members, cands, used, twice, reach):
        if not members:
            words[:] = [w for w in range(1 << self.m) if cands >> w & 1]
        pairs = self.pairs
        above = [w for w in words if not members or w > members[-1]]
        want = [w for w in above if _holds(self.m, self.k, self.owned, members + [w])]
        assert cands == sum(1 << w for w in want), (members, bin(cands))
        want_reach = want_used = want_twice = 0
        for w in want:
            want_reach |= pairs[w]
        for x in members:
            want_twice |= want_used & pairs[x]
            want_used |= pairs[x]
        assert (reach, used, twice) == (want_reach, want_used, want_twice), members
        nodes[0] += 1
        return dfs_run(self, members, cands, used, twice, reach)

    monkeypatch.setattr(search._DFS, "run", checked_run)
    # every node is checked and counted in this process
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    for name in CHILD_FILTER_CASES:
        nodes[0] = 0
        assert PINNED_NODES[name][0]().nodes_visited == nodes[0], name


# --- the forced-completion look-ahead ---------------------------------------


# name: (search, children the look-ahead drops).  The owned searches up to
# m = 6 drop only one child, in unique(6,3): a member's owned subsets are
# rarely all inside the candidates left to it.
LOOK_AHEAD_CASES = {
    "g(5,2)": (PINNED_NODES["g(5,2)"][0], 13),
    "g(5,3)": (PINNED_NODES["g(5,3)"][0], 125),
    "g(5,2)-nosym": (PINNED_NODES["g(5,2)-nosym"][0], 7063),
    "exists(6,2,16)": (PINNED_NODES["exists(6,2,16)"][0], 264),
    "unique(5,2)": (PINNED_NODES["unique(5,2)"][0], 0),
    "unique(6,3)": (lambda: max_unique_subset_family(6, 3), 1),
}


@pytest.mark.parametrize("name", LOOK_AHEAD_CASES)
def test_look_ahead_drops_only_children_whose_forced_completion_fails(name, monkeypatch):
    # A child the look-ahead drops has no slack: it needs every word that
    # can still join it (each of the searches' words above its last one
    # that keeps the family nice, or its subsets owned) to beat the best.
    # That forced completion must fail, so no family that beats the best
    # is lost.
    run, drops = LOOK_AHEAD_CASES[name]
    completes = search._DFS.completes
    dropped = []

    def recorded(self, w, members, held):
        ok = completes(self, w, members, held)
        if not ok:
            dropped.append((self.m, self.k, self.owned, self.best, (*members, w)))
        return ok

    monkeypatch.setattr(search._DFS, "completes", recorded)
    # every drop is recorded in this process
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    run()
    assert len(dropped) == drops
    for m, k, owned, best, child in dropped:
        later = tuple(y for y in range(child[-1] + 1, 1 << m)
                      if _holds(m, k, owned, (*child, y)))
        assert len(child) + len(later) == best + 1, (child, later)
        assert not _holds(m, k, owned, child + later), (child, later)


# --- the root split ----------------------------------------------------------


SPLIT_CASES = {
    # name: (search, queued roots of 2 and of 3 members, whether a helper is
    # forked)
    "g(5,2)-nosym": (lambda: max_nice_size(5, 2, use_symmetry=False), (245, 16), True),
    "exists(5,2,11)-nosym": (
        lambda: exists_nice_of_size(5, 2, 11, use_symmetry=False), (245, 16), True,
    ),
    "g(5,3)": (lambda: max_nice_size(5, 3), (2, 1), False),
    "g(6,2)": (lambda: max_nice_size(6, 2), (4, 3), False),
    "exists(6,2,13)": (lambda: exists_nice_of_size(6, 2, 13), (4, 3), False),
    "exists(6,2,16)": (lambda: exists_nice_of_size(6, 2, 16), (4, 2), False),
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


def _count_roots(monkeypatch):
    """The queued roots of 2 and of 3 members, one entry per search."""
    queued = []
    run_roots = search._run_roots

    def counted(dfs):
        sizes = [len(args[0]) for args, _ in dfs.roots]
        queued.append((sizes.count(2), sizes.count(3)))
        assert len(sizes) == sum(queued[-1])
        return run_roots(dfs)

    monkeypatch.setattr(search, "_run_roots", counted)
    return queued


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_reports_same_with_and_without_helper(name, monkeypatch):
    # every field, nodes_visited included, and the queued roots are the
    # same for one and two usable CPUs
    run, roots, forks = SPLIT_CASES[name]
    shares = _count_shares(monkeypatch)
    queued = _count_roots(monkeypatch)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    alone = run()
    assert shares == []
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    helped = run()
    assert bool(shares) == forks
    assert queued == [roots, roots]
    assert _fields(helped) == _fields(alone)


@pytest.mark.parametrize("name", ["g(5,3)", "g(6,2)", "exists(6,2,13)", "exists(6,2,16)"])
def test_split_reports_same_with_a_helper_for_every_queue(name, monkeypatch):
    # With the fork gate at one root, the helper runs roots of the short
    # symmetric queues too, roots of 3 members among them, and every field
    # is still the same as with no helper.
    run = SPLIT_CASES[name][0]
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    alone = run()
    shares = _count_shares(monkeypatch)
    monkeypatch.setattr(search, "SPLIT_MIN_ROOTS", 1)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    assert _fields(run()) == _fields(alone)
    assert shares


@pytest.mark.parametrize("name", PINNED_NODES)
def test_split_moves_only_the_g62_count(name, monkeypatch):
    # Roots queued once SPLIT_MIN_NODES nodes are visited start from the
    # best reached before them, not from the running best.  Only g(6,2)
    # improves on that best in a queued root, so only its count moves;
    # searches that queue nothing cannot move at all.
    run = PINNED_NODES[name][0]
    split = run()
    monkeypatch.setattr(search, "SPLIT_MIN_NODES", float("inf"))
    whole = run()
    assert whole.nodes_visited == (2595 if name == "g(6,2)" else split.nodes_visited)
    fields = [f for f in type(split).__slots__ if f != "nodes_visited"]
    assert [getattr(whole, f) for f in fields] == [getattr(split, f) for f in fields]


def test_kill_memo_is_bounded_and_changes_no_report(monkeypatch):
    kills = search._witness_tables(6, 3, False)[2]
    assert exists_nice_of_size(6, 3, 27, budget_ms=300).status == "budget-exhausted"
    assert len(kills) <= 1 << 15
    runs = [lambda: max_nice_size(5, 3), lambda: exists_nice_of_size(6, 2, 16)]
    memos = [search._witness_tables(m, k, False)[2] for m, k in ((5, 3), (6, 2))]
    warm = [_fields(run()) for run in runs]
    for memo in memos:
        memo.clear()
    assert [_fields(run()) for run in runs] == warm
    # a memo cleared every few masks
    monkeypatch.setattr(search, "KILLS_MEMO_SIZE", 4)
    for memo in memos:
        memo.clear()
    assert [_fields(run()) for run in runs] == warm
    assert all(len(memo) <= 4 for memo in memos)


def test_every_k_from_m_up_shares_one_witness_table(monkeypatch):
    # a k of m or more allows every set as a witness, so one table and kill
    # memo serve them all
    tables = []
    witness_tables = search._witness_tables

    def recorded(m, k, owned):
        tables.append(witness_tables(m, k, owned))
        return tables[-1]

    monkeypatch.setattr(search, "_witness_tables", recorded)
    assert max_nice_size(5, 5) == max_nice_size(5, 9)
    assert tables[0][0] is tables[1][0]


def _in_helper(parent=os.getpid()):
    return os.getpid() != parent


def _on_root_start(monkeypatch, hook):
    """Call hook(prefix) as each queued root's own DFS starts, before its
    first node: the only ``_DFS.run`` call on a fresh DFS with members."""
    dfs_run = search._DFS.run

    def run(self, members, *args):
        if self.nodes == 0 and members:
            hook(tuple(members))
        return dfs_run(self, members, *args)

    monkeypatch.setattr(search._DFS, "run", run)


def test_split_helper_without_results_runs_its_roots_here(monkeypatch):
    run = SPLIT_CASES["g(5,2)-nosym"][0]
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    alone = run()

    def dying(prefix):
        if _in_helper():
            os._exit(1)

    shares = _count_shares(monkeypatch)
    _on_root_start(monkeypatch, dying)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    assert _fields(run()) == _fields(alone)
    assert shares


@pytest.mark.parametrize("name", ["g(5,2)-nosym", "exists(5,2,11)-nosym"])
def test_split_budget_expiry(name, monkeypatch):
    # The helper is forked before any queued root runs, and the budget
    # expires in the fourth root each side runs.
    started = []

    def check(budget):
        budget.expired = budget.expired or len(started) >= 4
        return budget.expired

    shares = _count_shares(monkeypatch)
    _on_root_start(monkeypatch, started.append)
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
    started = []

    def interrupted(prefix):
        started.append(prefix)
        if not _in_helper() and len(started) == 4:
            raise KeyboardInterrupt

    shares = _count_shares(monkeypatch)
    _on_root_start(monkeypatch, interrupted)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        max_nice_size(5, 2, use_symmetry=False)
    assert shares


def test_share_runs_roots_from_both_ends():
    parent = os.getpid()

    def run(i):
        time.sleep(0.1 if os.getpid() == parent else 0.001)
        return os.getpid(), (), False

    done = search._share(run, 2, 8, 1)
    assert sorted(done) == list(range(2, 8))
    mine = [i for i in done if done[i][0] == parent]
    assert mine and mine == list(range(2, 2 + len(mine))) and len(mine) < 6


def test_share_kills_the_helper_when_this_side_finds():
    parent = os.getpid()

    def run(i):
        if os.getpid() != parent:
            time.sleep(5)
        return 1, (i,) if i == 1 else (), False

    t0 = time.monotonic()
    done = search._share(run, 0, 8, 1)
    assert time.monotonic() - t0 < 2.5
    assert done == {0: (1, (), False), 1: (1, (1,), False)}


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


# Every depth the DFS may test, up to m = 4: the roots of 6 to 8 words add
# about 3 s to these two tests on a 2-vCPU host.
def test_every_root_maps_onto_a_kept_root_under_switching():
    cases = [(m, DEEP_SYMMETRY_DEPTH) for m in range(0, 5)] + [(5, 4), (6, 3)]
    _check_orbits(PERMUTATIONS_AND_SWITCHING, True, cases)


def test_every_root_maps_onto_a_kept_root_under_permutations():
    # the owned-subset group has relabelings only; its search stops at m = 5
    cases = [(m, DEEP_SYMMETRY_DEPTH) for m in range(0, 5)] + [(5, 4), (6, 2)]
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
        for k in (1, 2, 3):
            assert max_pair_family(m, k).best == _naive_pair_max(m, k), (m, k)


def test_max_pair_family_known_values():
    assert max_pair_family(4, 2).best == 24
    assert max_pair_family(2, 1).best == 4
    assert max_pair_family(3, 1).best == 6
    # below the m >= 2k threshold the bound does not apply
    assert max_pair_family(2, 2).best == 5
    assert max_pair_family(5, 3).best == 80
    assert max_pair_family(6, 3).best == 160  # 2^3 * C(6, 3)


def test_max_pair_family_examples_validate():
    for m, k in ((2, 1), (3, 1), (4, 2), (5, 2), (5, 3), (5, 4), (5, 5)):
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
    for k in (1, 2, 3):
        for m in range(2 * k, 7):
            assert max_pair_family(m, k).best == (1 << k) * binom(m, k), (m, k)


def test_max_pair_family_validates_inputs():
    with pytest.raises(ValueError):
        max_pair_family(4, 0)
    with pytest.raises(ValueError):
        max_pair_family(-1, 2)
    # the search cap does not apply; the 64-element ground and the pair cap do
    assert max_pair_family(7, 2).best == 84
    with pytest.raises(CapacityError):
        max_pair_family(65, 1)
    assert pair_family_size(64, 8) > search.PAIR_FAMILY_CAP
    with pytest.raises(CapacityError, match="1133098334208 pairs"):
        max_pair_family(64, 8)


# sha256 of "separator:key,..." over the example pairs of the per-key
# owned-subset search that built max_pair_family before the LYM
# construction, with its value, for every m <= 6 and k <= 7 (keys in word
# order, each key's first maximum antichain in DFS order)
SEARCHED_PAIRS = {
    (0, 1): (1, "ac72368a586a18c1"), (1, 1): (2, "f55f0cf216db8a8a"),
    (2, 1): (4, "9b7ed02447f68c0a"), (2, 2): (5, "4368df6338c41b96"),
    (3, 1): (6, "38b3ca197442c4ca"), (3, 2): (12, "7fe2f990555295e2"),
    (3, 3): (13, "d254e52a27d4581a"), (4, 1): (8, "a7a78789cee339c1"),
    (4, 2): (24, "bb32435a47c0d535"), (4, 3): (34, "ac2bf223aa2f076f"),
    (4, 4): (35, "661a98452532e839"), (5, 1): (10, "f1eacfd6c25d3855"),
    (5, 2): (40, "ca045f6a703af51d"), (5, 3): (80, "cae84d01e9ecc3b1"),
    (5, 4): (95, "7e4f6cd951a499b5"), (5, 5): (96, "b3b2229f43e88b58"),
    (6, 1): (12, "95f65f6bb1c97687"), (6, 2): (60, "b250f9162f921fba"),
    (6, 3): (160, "7b02e920313154e1"), (6, 4): (245, "8260fc503e3a4b44"),
    (6, 5): (266, "a3d98a498821f94b"), (6, 6): (267, "cf3ef645684ce4cf"),
}


def test_max_pair_family_reproduces_the_searched_optima():
    # every k >= m gives the k = m family; ties between levels, as for the
    # key 0 at (3,2), where levels 1 and 2 both hold 3 sets, take the lower
    for m in range(7):
        for k in range(1, 8):
            rep = max_pair_family(m, k)
            text = ",".join(f"{p.separator}:{p.key}" for p in rep.example_pairs)
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert (rep.best, digest) == SEARCHED_PAIRS[m, min(k, m) or 1], (m, k)
            assert (rep.exhausted, rep.nodes_visited, rep.example) == (True, 0, None)

