"""Closed-form formulas: spot values, monotonicity, and the bound sandwich."""

from itertools import combinations
from math import comb

import pytest

from sepsys import (
    binom,
    f2_exact,
    f_bounds,
    k_prime,
    min_m_hcs,
    separating_min,
    spencer_min,
)
from sepsys.bounds import INFO_THEORETIC, PAIR_FAMILY, pair_family_size


def test_binom_values():
    assert binom(5, 2) == 10
    assert binom(4, 0) == 1
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_k_prime_values():
    assert k_prime(5, 3) == 3  # 5 >= 2*3-1
    assert k_prime(4, 3) == 2  # below the threshold: floor(4/2)
    assert k_prime(3, 2) == 2  # boundary m = 2k-1 takes the k branch
    assert k_prime(1, 1) == 1
    assert k_prime(1, 2) == 0
    with pytest.raises(ValueError):
        k_prime(0, 1)
    with pytest.raises(ValueError):
        k_prime(3, 0)


def test_k_prime_boundary_binomials_agree():
    for k in range(1, 8):
        m = 2 * k - 1
        assert comb(m, k) == comb(m, m // 2)


def test_min_m_hcs_values():
    assert min_m_hcs(10, 2) == 5  # C(5,2) = 10
    assert min_m_hcs(2, 2) == 2  # C(1,0) = 1 < 2 <= C(2,1)
    assert min_m_hcs(4, 3) == 4  # k'(4,3) = 2: C(3,1) = 3 < 4 <= C(4,2)
    with pytest.raises(ValueError):
        min_m_hcs(1, 2)


def test_min_m_hcs_k1_degeneracy():
    # one-member witnesses force every singleton, so the answer is n itself
    for n in range(2, 21):
        assert min_m_hcs(n, 1) == n


def test_separating_min_values():
    assert separating_min(1) == 0
    assert separating_min(8) == 3
    assert separating_min(9) == 4
    with pytest.raises(ValueError):
        separating_min(0)


def test_spencer_min_values():
    assert spencer_min(2) == 2
    assert spencer_min(3) == 3
    assert spencer_min(6) == 4  # C(3,1) = 3 < 6 <= 6 = C(4,2)
    assert spencer_min(70) == 8  # C(8,4) = 70
    assert spencer_min(71) == 9


def test_spencer_min_and_f2_exact_match_binomial_loops():
    # references counted up from m = 1, independent of min_m_hcs
    def least_m(reaches):
        m = 1
        while not reaches(m):
            m += 1
        return m

    for n in range(2, 2001):
        assert spencer_min(n) == least_m(lambda m: comb(m, m // 2) >= n), n
        two = least_m(lambda m: comb(m, 2) >= n)
        assert f2_exact(n) == ((n + 1) // 2 if n <= 10 else two), n


def test_f2_exact_values():
    assert f2_exact(10) == 5  # both branches meet here
    assert f2_exact(8) == 4
    assert f2_exact(21) == 7  # C(7,2) = 21
    assert f2_exact(2) == 1
    for n in (0, 1):
        with pytest.raises(ValueError):
            f2_exact(n)


def test_f_bounds_examples():
    b = f_bounds(100, 2)
    assert (b.lower, b.upper, b.lower_source) == (8, 15, PAIR_FAMILY)
    assert not b.lower_clamped
    b = f_bounds(4, 2)
    assert (b.lower, b.upper, b.lower_source) == (2, 4, PAIR_FAMILY)
    b = f_bounds(3, 2)
    assert (b.lower, b.upper, b.lower_source) == (2, 3, INFO_THEORETIC)


def test_f_bounds_clamp_binds_near_threshold():
    # at n = 9, k = 2 the pair formula gives 3 but separation already needs 4
    b = f_bounds(9, 2)
    assert b.lower == 4 and b.lower_clamped and b.lower_source == PAIR_FAMILY


def test_pair_family_size_values():
    assert pair_family_size(0, 1) == 1  # the empty pair
    assert pair_family_size(2, 2) == 5  # 2 + 2 + 1, above 2^2 * C(2,2)
    assert pair_family_size(3, 2) == 12  # the empty key takes a level of 3
    assert pair_family_size(6, 3) == 160 == 8 * comb(6, 3)
    assert pair_family_size(64, 2) == 8064
    # every k >= m gives the k = m count: each key takes its middle level
    for m in range(8):
        want = sum(comb(m, j) * comb(m - j, (m - j) // 2) for j in range(m + 1))
        assert pair_family_size(m, max(m, 1)) == pair_family_size(m, m + 5) == want, m
    # from m = 2k - 1 on, each key takes its top level, and the keys' terms
    # sum to 2^k * C(m, k), which the count returns from m = 2k on
    for m in range(1, 40):
        for k in range(1, (m + 1) // 2 + 1):
            terms = [comb(m, j) * comb(m - j, min(k - j, (m - j) // 2)) for j in range(k + 1)]
            assert pair_family_size(m, k) == sum(terms) == (1 << k) * comb(m, k), (m, k)
    with pytest.raises(ValueError):
        pair_family_size(-1, 2)
    with pytest.raises(ValueError):
        pair_family_size(3, 0)


def test_f_bounds_lower_side_matches_the_old_pair_rule():
    # The lower side read min{m : 2^k * C(m, k) >= n} before it read the
    # pair count.  The two agree from m = 2k - 1 on.  Below, the old rule
    # is smaller than the count, and its least m was larger: at these four
    # points the count reaches n one set earlier, below the separating
    # floor, so the floor is unchanged but now marked clamped.
    flagged = {(5, 2), (11, 3), (12, 3), (13, 3)}
    for k in range(1, 12):
        m = 1
        for n in range(2, 4097):
            while (1 << k) * comb(m, k) < n:
                m += 1
            b = f_bounds(n, k)
            if b.lower_source == INFO_THEORETIC:
                assert comb(2 * k - 1, k) >= n, (n, k)
                assert (b.lower, b.lower_clamped) == (separating_min(n), False), (n, k)
                continue
            assert comb(2 * k - 1, k) < n, (n, k)
            floor = separating_min(n)
            clamped = m < floor or (n, k) in flagged
            assert (b.lower, b.lower_clamped) == (max(m, floor), clamped), (n, k)


def test_f_bounds_sandwich_up_to_200():
    for n in range(2, 201):
        b = f_bounds(n, 2)
        assert b.lower <= f2_exact(n) <= b.upper, n


def test_bound_functions_nondecreasing():
    for fn in (separating_min, spencer_min, f2_exact):
        lo = 1 if fn is separating_min else 2
        vals = [fn(n) for n in range(lo, 120)]
        assert vals == sorted(vals)
    for k in (1, 2, 3):
        vals = [min_m_hcs(n, k) for n in range(2, 120)]
        assert vals == sorted(vals)
        lows = [f_bounds(n, k).lower for n in range(2, 120)]
        ups = [f_bounds(n, k).upper for n in range(2, 120)]
        assert lows == sorted(lows)
        assert ups == sorted(ups)


def _nice_naive(words, m, k=2):
    for i, wi in enumerate(words):
        good = False
        for size in range(0, k + 1):
            for idxs in combinations(range(m), size):
                s = sum(1 << t for t in idxs)
                if all(words[j] & s != wi & s for j in range(len(words)) if j != i):
                    good = True
                    break
            if good:
                break
        if not good:
            return False
    return True


def test_f2_exact_matches_naive_minimum_for_small_n():
    # independent route: enumerate all n-subsets of the powerset per level
    for n in range(2, 7):
        m = 0
        while True:
            if (1 << m) >= n and any(
                _nice_naive(fam, m) for fam in combinations(range(1 << m), n)
            ):
                break
            m += 1
        assert m == f2_exact(n), n
