"""Constructions match their oracles and the size formulas; proof devices."""

from itertools import combinations

import pytest

from sepsys import (
    Family,
    antichain_lift,
    binary_separating,
    binom,
    dual,
    f2_exact,
    hyperseparating_minimal_2,
    is_completely_separating,
    is_k_hypercompletely_separating,
    is_k_hyperseparating,
    is_nice,
    is_proper,
    is_separating,
    is_sperner,
    k_hcs_minimal,
    min_m_hcs,
    new_family,
    nice_small_m,
    proof_step_reduction,
    spencer_completely_separating,
    spencer_min,
    separating_min,
)
from sepsys.construct import (
    CASE_KEYS_DIFFER_BY_ONE,
    CASE_KEYS_DIFFER_BY_TWO,
    CASE_NO_REDUCTION,
    CASE_SINGLETON_SEPARATOR,
    ReductionOutcome,
)
from sepsys.core import word_of
from conftest import all_families


def test_binary_separating_n4():
    f = binary_separating(4)
    assert f.members == (word_of([1, 3]), word_of([2, 3]))
    assert is_separating(f)


def test_binary_separating_n1():
    assert binary_separating(1).members == ()
    assert is_separating(binary_separating(1))


def test_binary_separating_n5():
    f = binary_separating(5)
    assert len(f) == 3
    assert is_separating(f)


def test_spencer_n6_is_two_subsets_of_four():
    f = spencer_completely_separating(6)
    assert len(f) == 4
    assert is_completely_separating(f)
    # the dual is exactly the six 2-subsets of a 4-set, in index order
    d = dual(f)
    assert d.members == tuple(word_of(s) for s in combinations(range(4), 2))


def test_spencer_tiny():
    f = spencer_completely_separating(2)
    assert f.members == (0b01, 0b10)
    f = spencer_completely_separating(3)
    assert len(f) == 3 and is_completely_separating(f)


def test_k_hcs_minimal_examples():
    f = k_hcs_minimal(10, 2)
    assert len(f) == 5
    assert is_k_hypercompletely_separating(f, 2)
    # every pair of members meets in exactly one element
    for a, b in combinations(f.members, 2):
        assert (a & b).bit_count() == 1

    f = k_hcs_minimal(4, 3)
    assert len(f) == 4 == min_m_hcs(4, 3)
    assert is_k_hypercompletely_separating(f, 3)

    f = k_hcs_minimal(2, 2)
    assert f.members == (0b01, 0b10)


def test_subset_assignment_covers_the_ground():
    # an uncovered ground index would leave an empty member in the dual
    for n in range(2, 65):
        fams = [spencer_completely_separating(n)] + [k_hcs_minimal(n, k) for k in range(1, 7)]
        for f in fams:
            assert all(f.members), (n, f)


def test_nice_small_m_families():
    assert nice_small_m(1).members == (0, 1)
    assert nice_small_m(2).members == (0, 1, 2, 3)
    assert len(nice_small_m(3)) == 6
    m4 = nice_small_m(4)
    assert m4.members == tuple(
        word_of(s) for s in ([], [0], [1], [0, 2], [1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 2, 3])
    )
    for m in (1, 2, 3, 4):
        fam = nice_small_m(m)
        assert len(fam) == 2 * m
        assert is_nice(fam, 2)
    for m in (0, 5):
        with pytest.raises(ValueError):
            nice_small_m(m)


def test_hyperseparating_minimal_2_examples():
    f = hyperseparating_minimal_2(8)
    assert f.ground_size == 8 and len(f) == 4
    assert is_k_hyperseparating(f, 2)

    f = hyperseparating_minimal_2(11)
    assert len(f) == 6
    assert is_k_hyperseparating(f, 2)

    f = hyperseparating_minimal_2(3)
    assert f.ground_size == 3 and len(f) == 2
    assert is_k_hyperseparating(f, 2)


def test_construction_sweep_sizes_and_oracles():
    for n in range(2, 31):
        f = binary_separating(n)
        assert len(f) == separating_min(n) and is_separating(f)

        f = spencer_completely_separating(n)
        assert len(f) == spencer_min(n) and is_completely_separating(f)

        for k in (1, 2, 3):
            f = k_hcs_minimal(n, k)
            assert len(f) == min_m_hcs(n, k)
            assert is_k_hypercompletely_separating(f, k)
            assert is_k_hyperseparating(f, k)

        f = hyperseparating_minimal_2(n)
        assert len(f) == f2_exact(n)
        assert is_k_hyperseparating(f, 2)


# --- antichain_lift ----------------------------------------------------------


def test_antichain_lift_singleton():
    f = new_family(4, [[0]])
    out = antichain_lift(f)
    assert out.members == (word_of([0, 1]), word_of([0, 2]), word_of([0, 3]))


def test_antichain_lift_mixed_levels():
    f = new_family(4, [[0], [1, 2]])
    out = antichain_lift(f)
    assert out.members == (
        word_of([1, 2]),
        word_of([0, 1]),
        word_of([0, 2]),
        word_of([0, 3]),
    )
    assert is_sperner(out)


def test_antichain_lift_rejects_middle_layer():
    f = new_family(4, [list(s) for s in combinations(range(4), 2)])
    with pytest.raises(ValueError, match="counting condition"):
        antichain_lift(f)


def test_antichain_lift_rejects_bad_inputs():
    with pytest.raises(ValueError, match="empty"):
        antichain_lift(new_family(4, []))
    with pytest.raises(ValueError, match="duplicate"):
        antichain_lift(new_family(4, [[0], [0]]))
    with pytest.raises(ValueError, match="Sperner"):
        antichain_lift(new_family(4, [[0], [0, 1]]))


def test_antichain_lift_growth_and_level_preservation():
    # sweep all Sperner families on grounds 4 and 5 with <= 4 members
    for m in (4, 5):
        for f in all_families(m, 4):
            if not f.members or not is_proper(f) or not is_sperner(f):
                continue
            lvl = min(w.bit_count() for w in f.members)
            old_max = max(w.bit_count() for w in f.members)
            if lvl + 1 >= m - lvl:
                continue
            out = antichain_lift(f)
            assert len(out) > len(f)
            assert is_proper(out) and is_sperner(out)
            new_max = max(w.bit_count() for w in out.members)
            assert new_max <= max(old_max, lvl + 1)
            if lvl < old_max:  # non-uniform: the top level is untouched
                assert new_max == old_max


# --- proof_step_reduction ----------------------------------------------------


def test_reduction_full_square_ground_two():
    d = new_family(2, [[], [0], [1], [0, 1]])
    out = proof_step_reduction(d)
    assert out.case == CASE_KEYS_DIFFER_BY_ONE
    assert out.removed_members == 2
    assert out.reduced.ground_size == 1 and len(out.reduced) == 2
    assert is_nice(out.reduced, 2)


def test_reduction_no_reduction_on_two_subsets_of_five():
    d = new_family(5, [[i, j] for i in range(5) for j in range(i + 1, 5)])
    out = proof_step_reduction(d)
    assert out == ReductionOutcome(CASE_NO_REDUCTION, None, 0)
    assert len(d) == binom(5, 2)


def test_reduction_case_two_on_two_subsets_of_four():
    # on ground 4 the complement of a 2-subset is unique, giving key pairs
    # that differ in both separator elements
    d = new_family(4, [[i, j] for i in range(4) for j in range(i + 1, 4)])
    out = proof_step_reduction(d)
    assert out.case == CASE_KEYS_DIFFER_BY_TWO
    assert out.reduced.ground_size == 3 and len(out.reduced) == 4
    assert is_nice(out.reduced, 2)


def test_reduction_singleton_case():
    # lone member: its singleton separators apply, nothing shares a 2-set
    d = new_family(2, [[0]])
    out = proof_step_reduction(d)
    assert out.case == CASE_SINGLETON_SEPARATOR
    assert out.removed_members == 1
    assert out.reduced.ground_size == 1 and len(out.reduced) == 0


def test_reduction_preconditions():
    with pytest.raises(ValueError, match="ground_size"):
        proof_step_reduction(new_family(1, [[], [0]]))
    with pytest.raises(ValueError, match="duplicate"):
        proof_step_reduction(new_family(2, [[0], [0]]))
    # the full cube on three elements has no separator for the empty member
    all_eight = new_family(3, [[i for i in range(3) if (w >> i) & 1] for w in range(8)])
    with pytest.raises(ValueError, match="not nice"):
        proof_step_reduction(all_eight)
    with pytest.raises(ValueError, match="k = 2"):
        proof_step_reduction(new_family(2, [[0]]), 3)


def test_reduction_iterates_to_exhaustion_ground_three():
    for d in all_families(3, 8):
        if not is_nice(d, 2):
            continue
        assert len(d) <= max(2 * 3, binom(3, 2))
        cur = d
        while cur.ground_size >= 2:
            out = proof_step_reduction(cur)
            if out.case == CASE_NO_REDUCTION:
                assert len(cur) <= binom(cur.ground_size, 2)
                break
            assert out.reduced.ground_size == cur.ground_size - 1
            assert len(out.reduced) == len(cur) - out.removed_members
            cur = out.reduced
        else:
            assert len(cur) <= 2


def test_reduction_on_search_maximum_m5(g5_report):
    cur = g5_report.example
    assert is_nice(cur, 2)
    while cur.ground_size >= 2:
        out = proof_step_reduction(cur)
        if out.case == CASE_NO_REDUCTION:
            assert len(cur) <= binom(cur.ground_size, 2)
            break
        cur = out.reduced
    assert len(g5_report.example) <= max(2 * 5, binom(5, 2))
