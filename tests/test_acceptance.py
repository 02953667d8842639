"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from sepsys import (
    Family,
    SeparatorWitness,
    antichain_lift,
    binary_separating,
    binom,
    check_separator_witness,
    dual,
    f2_exact,
    f_bounds,
    hyperseparating_minimal_2,
    is_completely_separating,
    is_k_hypercompletely_separating,
    is_k_hyperseparating,
    is_nice,
    is_proper,
    is_separating,
    is_sperner,
    k_hcs_minimal,
    k_prime,
    min_m_hcs,
    new_family,
    nice_small_m,
    proof_step_reduction,
    recheck_certificate,
    separating_min,
    spencer_completely_separating,
    spencer_min,
    switch,
)
from sepsys.bounds import pair_family_size
from sepsys.construct import CASE_NO_REDUCTION
from sepsys.core import word_of
from sepsys.search import (
    exists_nice_of_size,
    max_nice_size,
    max_pair_family,
    max_unique_subset_family,
    min_m_hyperseparating,
)
from sepsys.verify import pair_family_valid
from conftest import all_families


@contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL — {desc}")
        raise
    print(f"[acceptance] criterion {num}: PASS — {desc} ({time.time() - t0:.1f}s)")


def test_criterion_1_g_table(g5_report, g5_seconds):
    with criterion(1, "g(m,2) = 2,4,6,8,10 for m = 1..5, exhausted"):
        t0 = time.time()
        for m, expected in zip(range(1, 5), (2, 4, 6, 8)):
            rep = max_nice_size(m, 2)
            assert rep.exhausted, m
            assert rep.best == expected, (m, rep.best)
            assert is_nice(rep.example, 2) and len(rep.example) == expected
        small_elapsed = time.time() - t0
        assert small_elapsed < 1.0, f"m <= 4 took {small_elapsed:.2f}s"
        assert g5_seconds < 60, f"m = 5 took {g5_seconds:.0f}s"
        assert g5_report.exhausted
        assert g5_report.best == 10, g5_report.best
        assert is_nice(g5_report.example, 2) and len(g5_report.example) == 10


def test_criterion_2_f_n2_exactness():
    with criterion(2, "search min-m equals f2_exact(n) for n = 2..12, exhausted"):
        t0 = time.time()
        for n in range(2, 13):
            rep = min_m_hyperseparating(n, 2, 6)
            assert rep.exhausted, n
            assert rep.best == f2_exact(n), (n, rep.best)
            assert is_k_hyperseparating(rep.example, 2), n
            assert rep.example.ground_size == n
            assert len(rep.example) == rep.best
        assert time.time() - t0 < 900, "exceeded the 15-minute budget"


# the m=4 reference listing, 0-indexed: member sets with their separators
_M4_WITNESSES = [
    ([], [0, 1]),
    ([0], [0, 2]),
    ([1], [1, 3]),
    ([0, 2], [2, 3]),
    ([1, 3], [2, 3]),
    ([0, 2, 3], [1, 3]),
    ([1, 2, 3], [0, 2]),
    ([0, 1, 2, 3], [0, 1]),
]


def test_criterion_3_m4_construction_and_witnesses():
    with criterion(3, "m=4 family of 8 sets is nice; all 8 listed witnesses re-check"):
        fam = nice_small_m(4)
        cert = is_nice(fam, 2)
        assert cert and recheck_certificate(fam, cert)
        assert [sorted(s) for s in _members_as_lists(fam)] == [m for m, _ in _M4_WITNESSES]
        for i, (member, sep) in enumerate(_M4_WITNESSES):
            s = word_of(sep)
            w = SeparatorWitness(s, fam.members[i] & s)
            assert check_separator_witness(fam, i, w, 2), (i, member, sep)


def _members_as_lists(f):
    from sepsys.core import member_lists

    return member_lists(f)


def test_criterion_4_unique_subset_sharpness():
    with criterion(4, "max unique-subset family equals C(m, k'(m,k)) at desk scale"):
        t0 = time.time()
        for k, m in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4)):
            rep = max_unique_subset_family(m, k)
            assert rep.exhausted, (k, m)
            assert rep.best == binom(m, k_prime(m, k)), (k, m, rep.best)
        assert time.time() - t0 < 300, "exceeded the 5-minute budget"


def test_criterion_5_pair_family_and_sandwich():
    with criterion(5, "max pair family equals the LYM count at every m <= 6 and at"
                      " (64,2); bound sandwich to n = 200"):
        t0 = time.time()
        cases = [(k, m) for m in range(7) for k in range(1, 8)] + [(2, 64)]
        for k, m in cases:
            rep = max_pair_family(m, k)
            assert rep.best == pair_family_size(m, k), (k, m, rep.best)
            if m >= 2 * k:
                assert rep.best == (1 << k) * binom(m, k), (k, m, rep.best)
            if m <= 6:
                # per key of j elements, the owned-subset search on the rest
                per_key = [binom(m, j) * (max_unique_subset_family(m - j, k - j).best
                                          if j < k else 1) for j in range(min(k, m) + 1)]
                assert rep.best == sum(per_key), (k, m, rep.best)
            assert len(rep.example_pairs) == rep.best
            assert pair_family_valid(list(rep.example_pairs), m, k) is True
        assert max_pair_family(64, 2).best == 8064
        for n in range(2, 201):
            b = f_bounds(n, 2)
            assert b.lower <= f2_exact(n) <= b.upper, n
        assert time.time() - t0 < 60, "exceeded the 1-minute budget"


def test_criterion_6_construction_sweep():
    with criterion(6, "all constructions pass their oracles at formula size, n = 2..30"):
        t0 = time.time()
        for n in range(2, 31):
            f = binary_separating(n)
            assert is_separating(f) and len(f) == separating_min(n), n
            f = spencer_completely_separating(n)
            assert is_completely_separating(f) and len(f) == spencer_min(n), n
            for k in (1, 2, 3):
                f = k_hcs_minimal(n, k)
                assert len(f) == min_m_hcs(n, k), (n, k)
                assert is_k_hypercompletely_separating(f, k), (n, k)
                assert is_k_hyperseparating(f, k), (n, k)
            f = hyperseparating_minimal_2(n)
            assert is_k_hyperseparating(f, 2) and len(f) == f2_exact(n), n
        assert time.time() - t0 < 60, "exceeded the 1-minute budget"


def _check_property_bundle(f):
    """The cross-property invariants on one primal family."""
    sep = bool(is_separating(f))
    prev_hcs = prev_hs = False
    for k in (1, 2, 3):
        hcs_cert = is_k_hypercompletely_separating(f, k)
        hs_cert = is_k_hyperseparating(f, k)
        hcs, hs = bool(hcs_cert), bool(hs_cert)
        assert not hcs or hs, (f, k)
        assert not hs or sep, (f, k)
        assert not prev_hcs or hcs, (f, k)
        assert not prev_hs or hs, (f, k)
        prev_hcs, prev_hs = hcs, hs
        if hcs:
            assert recheck_certificate(f, hcs_cert)
        if hs:
            assert recheck_certificate(f, hs_cert)
    d = dual(f)
    assert bool(is_completely_separating(f)) == (is_proper(d) and is_sperner(d)), f
    if is_proper(f) and sep:
        assert dual(dual(f)) == f


def _check_lift(f):
    if not f.members or not is_proper(f) or not is_sperner(f):
        return
    m = f.ground_size
    lvl = min(w.bit_count() for w in f.members)
    if lvl + 1 >= m - lvl:
        return
    old_max = max(w.bit_count() for w in f.members)
    out = antichain_lift(f)
    assert len(out) > len(f), f
    assert is_proper(out) and is_sperner(out), f
    assert max(w.bit_count() for w in out.members) <= max(old_max, lvl + 1)


def _check_reduction_chain(d):
    m0, n0 = d.ground_size, len(d)
    assert n0 <= max(2 * m0, binom(m0, 2)), d
    cur = d
    while cur.ground_size >= 2:
        out = proof_step_reduction(cur)
        if out.case == CASE_NO_REDUCTION:
            assert len(cur) <= binom(cur.ground_size, 2), (d, cur)
            return
        assert out.removed_members in (1, 2)
        assert out.reduced.ground_size == cur.ground_size - 1
        assert len(out.reduced) == len(cur) - out.removed_members
        assert is_nice(out.reduced, 2)
        cur = out.reduced
    assert len(cur) <= 2, (d, cur)


def test_criterion_7_property_suites():
    with criterion(7, "property suites: exhaustive ground <= 4, randomized m = 5"):
        # exhaustive sweep, duplicates included
        for m in range(0, 5):
            for f in all_families(m, 4, with_duplicates=True):
                _check_property_bundle(f)
                _check_lift(f)
        # switch-invariance of niceness, exhaustive over dual families
        for m in range(1, 5):
            for d in all_families(m, 4):
                for k in (1, 2, 3):
                    base = bool(is_nice(d, k))
                    for v in range(m):
                        assert bool(is_nice(switch(d, v), k)) == base, (d, k, v)
        # the reduction runs on every nice family of ground <= 4
        for m in (2, 3, 4):
            words = list(range(1 << m))
            for size in range(0, (1 << m) + 1):
                for combo in combinations(words, size):
                    d = Family(m, combo)
                    if is_nice(d, 2):
                        _check_reduction_chain(d)
        # randomized cases at m = 5
        rng = random.Random(20250808)
        for case in range(10_000):
            n_members = rng.randint(0, 7)
            f = Family(5, tuple(rng.randrange(32) for _ in range(n_members)))
            _check_property_bundle(f)
            _check_lift(f)
            d = Family(5, tuple(sorted(rng.sample(range(32), rng.randint(0, 10)))))
            v = rng.randrange(5)
            assert bool(is_nice(switch(d, v), 2)) == bool(is_nice(d, 2)), (d, v)


def test_criterion_8_g6_exhaustive():
    with criterion(8, "g(6,2) = 15 exhausted and no nice family of 16 at m = 6, each < 2 s"):
        t0 = time.time()
        rep = max_nice_size(6, 2)
        g6_seconds = time.time() - t0
        assert rep.exhausted and rep.best == 15, rep.best
        assert rep.example.members == (0, 3, 5, 9, 17, 34, 36, 39, 40, 43, 45, 48, 51, 53, 57)
        assert is_nice(rep.example, 2)
        assert g6_seconds < 2, f"g(6,2) took {g6_seconds:.1f}s"
        t0 = time.time()
        res = exists_nice_of_size(6, 2, 16)
        absent_seconds = time.time() - t0
        assert res.status == "proven-absent", res.status
        assert absent_seconds < 2, f"exists(6,2,16) took {absent_seconds:.1f}s"
