"""Explicit constructions and the constructive proof devices.

Every constructor returns a family that passes its target oracle; the sizes
match the closed-form formulas in ``bounds`` exactly.  ``k_hcs_minimal`` is
the one subset-assignment construction: Spencer's systems are its case
k >= n, and the minimum 2-hyperseparating systems are its k = 2 case
wherever that reaches f(n, 2).
"""

from __future__ import annotations

from itertools import combinations, islice

from .core import (
    Family,
    _check_ground,
    dual,
    family_from_words,
    is_proper,
    is_sperner,
    new_family,
    switch_set,
)
from .core import Value, _set
from .verify import is_nice, words_of_size
from .bounds import binom, f2_exact, k_prime, min_m_hcs, separating_min

CASE_KEYS_DIFFER_BY_ONE = "SharedSeparatorKeysDifferByOne"
CASE_KEYS_DIFFER_BY_TWO = "SharedSeparatorKeysDifferByTwo"
CASE_SINGLETON_SEPARATOR = "SingletonSeparator"
CASE_NO_REDUCTION = "NoReduction"


class ReductionOutcome(Value):
    """Which case of the size-bound case analysis applied, and its result.

    ``reduced`` (absent for NoReduction) lives on one fewer ground element
    and has been re-verified nice for the same k.
    """

    __slots__ = ("case", "reduced", "removed_members")

    def __init__(self, case: str, reduced: Family | None, removed_members: int) -> None:
        _set(self, "case", case)
        _set(self, "reduced", reduced)
        _set(self, "removed_members", removed_members)


def binary_separating(n: int) -> Family:
    """Separating system from binary digits: member i holds the ground
    elements whose i-th bit is one.  separating_min(n) members."""
    m = separating_min(n)
    _check_ground(n)
    return dual(family_from_words(m, range(n)))


def k_hcs_minimal(n: int, k: int) -> Family:
    """Minimum k-hypercompletely separating system: assign each element a
    distinct k'-subset and dualize.  Exactly min_m_hcs(n, k) members.

    The elements take the first n k'-subsets of range(m) in lexicographic
    order.  They cover the ground, so no member of the dual is empty: index
    u >= k'-1 first appears in subset number u-k'+2 (counting from 1), so
    the first m-k'+1 subsets cover everything, and m is least with
    C(m, k'(m)) >= n, whence n > C(m-1, k'(m-1)) >= m-1 >= m-k' (the
    binomial is at least m-1 because 0 < k'(m-1) < m-1 once m > 2, and
    C(1, k'(1)) = 1 at m = 2).
    """
    m = min_m_hcs(n, k)
    _check_ground(n)  # before building n subsets that could not fit
    return dual(new_family(m, islice(combinations(range(m), k_prime(m, k)), n)))


def spencer_completely_separating(n: int) -> Family:
    """Minimum completely separating system (Spencer): k_hcs_minimal with
    k >= n, which assigns each element a distinct middle-layer subset."""
    return k_hcs_minimal(n, n)


_NICE_SMALL = {
    1: [[], [0]],
    2: [[], [0], [1], [0, 1]],
    3: [[0], [1], [2], [0, 1], [0, 2], [1, 2]],
    4: [[], [0], [1], [0, 2], [1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 2, 3]],
}


def nice_small_m(m: int) -> Family:
    """The explicit size-2m families on ground m <= 4 in which every member
    has a separator of size at most 2."""
    if m not in _NICE_SMALL:
        raise ValueError(f"m must be in 1..4, got {m}")
    return new_family(m, _NICE_SMALL[m])


def hyperseparating_minimal_2(n: int) -> Family:
    """2-hyperseparating system of the exact minimum size f2_exact(n).

    Where min_m_hcs(n, 2) reaches f2_exact(n) (n >= 9) the
    k-hypercompletely-separating construction is already optimal.  Below,
    it is the dual of the first n members of the size-2m nice family on
    m = ceil(n/2) elements; removing a member can only relax the
    uniqueness constraints, so niceness survives.
    """
    m = f2_exact(n)
    if min_m_hcs(n, 2) == m:
        return k_hcs_minimal(n, 2)
    return dual(Family(m, nice_small_m(m).members[:n]))


def antichain_lift(f: Family) -> Family:
    """Replace the minimum-size layer by all its immediate supersets.

    Requires a proper, nonempty Sperner family whose minimum member size l
    satisfies l + 1 < ground_size - l.  Each minimum-layer member is then
    contained in ground_size - l supersets while each superset covers at
    most l + 1 of them, so the result is strictly larger; it is Sperner
    again because no surviving member can compare with the new layer.
    """
    if not f.members:
        raise ValueError("family is empty")
    if not is_proper(f):
        raise ValueError("family has duplicate members")
    if not is_sperner(f):
        raise ValueError("family is not Sperner")
    m = f.ground_size
    lvl = min(w.bit_count() for w in f.members)
    if lvl + 1 >= m - lvl:
        raise ValueError(
            f"counting condition fails: l+1 = {lvl + 1} is not below m-l = {m - lvl}"
        )
    low = [w for w in f.members if w.bit_count() == lvl]
    keep = [w for w in f.members if w.bit_count() != lvl]
    lifted = {w | 1 << t for w in low for t in range(m) if not w >> t & 1}
    return Family(m, tuple(keep + sorted(lifted)))


def _drop_ground_bit(w: int, bit: int) -> int:
    below = bit - 1
    return (w & below) | ((w >> 1) & ~below)


def _delete_members(f: Family, gone) -> list[int]:
    return [w for i, w in enumerate(f.members) if i not in gone]


def proof_step_reduction(d: Family, k: int = 2) -> ReductionOutcome:
    """One step of the size-bound case analysis on a nice family.

    Looks for a 2-set that separates two distinct members (checking each
    member's full separator set, not just the canonical one), preferring key
    difference one over two; failing that, a singleton separator.  The
    chosen case is normalized by switching, the touched members and ground
    element(s) are deleted, and the reduced family is re-verified nice.
    With no applicable case, asserts |members| <= C(ground_size, 2).
    """
    if k != 2:
        raise ValueError("the case analysis is specific to k = 2")
    if d.ground_size < 2:
        raise ValueError(f"ground_size must be >= 2, got {d.ground_size}")
    if not is_proper(d):
        raise ValueError("family has duplicate members")
    if not is_nice(d, 2):
        raise ValueError("family is not nice for k = 2")
    m, words, n = d.ground_size, d.members, len(d.members)

    def separated_by(S: int) -> list[int]:
        traces = list(map(S.__and__, words))
        return [i for i, t in enumerate(traces) if traces.count(t) == 1]

    shared = []
    for S in words_of_size(m, 2):
        idxs = separated_by(S)
        if len(idxs) >= 2:
            shared.append((S, idxs))
    for want in (1, 2):
        for S, idxs in shared:
            for a, b in combinations(idxs, 2):
                if ((words[a] ^ words[b]) & S).bit_count() == want:
                    return _reduce_shared(d, S, a, b, want)
    for S in words_of_size(m, 1):
        hit = separated_by(S)
        if hit:
            return _reduce_singleton(d, S, hit[0])
    assert n <= binom(m, 2), "no case applies yet the family exceeds C(m, 2)"
    return ReductionOutcome(CASE_NO_REDUCTION, None, 0)


def _reverify(reduced: Family) -> Family:
    cert = is_nice(reduced, 2)
    if not cert:
        raise AssertionError(
            f"reduced family failed the niceness re-check at member {cert.failure}"
        )
    return reduced


def _reduce_shared(d: Family, S: int, a: int, b: int, diff: int) -> ReductionOutcome:
    words = d.members
    ka, kb = words[a] & S, words[b] & S
    if diff == 1:
        big = a if ka.bit_count() > kb.bit_count() else b
        # switching S minus the larger key turns the keys into S and S-minus-
        # difference; the element both keys then share can be deleted
        sw = switch_set(d, S & ~words[big])
        drop = S & ~(words[a] ^ words[b])
        keep = _delete_members(sw, (a, b))
        # after normalization only the two deleted members contained it
        assert all(w & drop == 0 for w in keep)
        reduced = Family(
            d.ground_size - 1, tuple(_drop_ground_bit(w, drop) for w in keep)
        )
        return ReductionOutcome(CASE_KEYS_DIFFER_BY_ONE, _reverify(reduced), 2)
    # keys are complementary in S: normalize to (S, empty), delete both
    # separator elements, and record "had x but not y" on a fresh element
    sw = switch_set(d, S & ~words[a])
    x_bit = S & -S
    y_bit = S ^ x_bit
    keep = _delete_members(sw, (a, b))
    out = []
    for w in keep:
        z = bool(w & x_bit) and not (w & y_bit)
        w2 = _drop_ground_bit(w & ~x_bit & ~y_bit, x_bit)
        if z:
            w2 |= 1 << (y_bit.bit_length() - 2)  # the fresh element reuses y's slot
        out.append(w2)
    reduced = Family(d.ground_size - 1, tuple(out))
    return ReductionOutcome(CASE_KEYS_DIFFER_BY_TWO, _reverify(reduced), 2)


def _reduce_singleton(d: Family, S: int, i: int) -> ReductionOutcome:
    sw = d if d.members[i] & S else switch_set(d, S)
    keep = _delete_members(sw, (i,))
    # member i was the unique one containing the separator element
    assert all(w & S == 0 for w in keep)
    reduced = Family(d.ground_size - 1, tuple(_drop_ground_bit(w, S) for w in keep))
    return ReductionOutcome(CASE_SINGLETON_SEPARATOR, _reverify(reduced), 1)
