"""Closed-form extremal formulas and bound sandwiches.

``min_m_hcs`` is the one minimum formula: Spencer's minimum is its case
k >= n, and f(n, 2) the smaller of its k = 2 value and ceil(n/2).

Everything is exact integer arithmetic: each least m is found by doubling
then bisecting over a function nondecreasing in m, with no floating-point
inversions anywhere, so results are reproducible bit-exactly and a huge n
costs only a logarithmic number of evaluations.

``pair_family_size(m, k)`` is the most distinct (separator, key) pairs, each
key inside a separator of at most k of m elements, whose separators form a
Sperner family per key: the paper's count.  A key of j elements carries the
separators key | T, T among the other m - j elements, and by LYM (Lubell
1966, J. Combin. Theory 1) their largest antichains are the largest full
levels, of C(m - j, min(k - j, floor((m - j)/2))) sets; the sum over keys is
2^k * C(m, k) once m >= 2k.  Members that each own a subset of at most k
elements, contained in no other member, number at most C(m, min(k,
floor(m/2))), the paper's C(m, k'): each owned T and the complement of its
member form a set pair of Bollobas (1965, Acta Math. Acad. Sci. Hungar. 16).
So a key of j < k elements adds the largest such family for m - j and k - j.
"""

from __future__ import annotations

from math import comb

from .core import Value, _require_k, _require_n, _set

PAIR_FAMILY = "pair-family"
INFO_THEORETIC = "info-theoretic"


class BoundPair(Value):
    """A lower/upper sandwich for the minimum k-hyperseparating system size.

    lower_source reports which argument produced the lower bound;
    lower_clamped is set when the pair count fell below the
    information-theoretic floor and was raised to it.
    """

    __slots__ = ("lower", "upper", "lower_source", "lower_clamped")

    def __init__(self, lower: int, upper: int, lower_source: str, lower_clamped: bool = False):
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "lower_source", lower_source)
        _set(self, "lower_clamped", lower_clamped)


def _least_m(reaches, lo: int) -> int:
    """Smallest m >= lo with reaches(m), for a predicate that is false and
    then true as m grows: double the step until it holds, then bisect."""
    if reaches(lo):
        return lo
    below, step = lo, 1  # reaches(below) is false
    while not reaches(below + step):
        below += step
        step *= 2
    above = below + step  # reaches(above) is true
    while above - below > 1:
        mid = (below + above) // 2
        if reaches(mid):
            above = mid
        else:
            below = mid
    return above


def binom(m: int, j: int) -> int:
    """C(m, j); zero when j < 0 or j > m."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if j < 0 or j > m:
        return 0
    return comb(m, j)


def pair_family_size(m: int, k: int) -> int:
    """The most (separator, key) pairs on m elements (see the module docstring)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    _require_k(k)
    if m >= 2 * k:  # the top level fits every key
        return (1 << k) * comb(m, k)
    return sum(comb(m, j) * comb(m - j, min(k - j, (m - j) // 2)) for j in range(min(k, m) + 1))


def k_prime(m: int, k: int) -> int:
    """Effective witness-set size on an m-element ground: k itself once the
    ground is large enough (m >= 2k-1), else floor(m/2)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    _require_k(k)
    if m >= 2 * k - 1:  # at m = 2k-1 both branches give C(m, k)
        return k
    return m // 2


def min_m_hcs(n: int, k: int) -> int:
    """Smallest m with C(m, k'(m, k)) >= n.

    C(m, k'(m, k)) is nondecreasing in m, so the search finds the true
    minimum.
    """
    _require_n(n)
    return _least_m(lambda m: binom(m, k_prime(m, k)) >= n, 1)


def separating_min(n: int) -> int:
    """ceil(log2 n), the exact minimum size of a separating system."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def spencer_min(n: int) -> int:
    """Minimum size of a completely separating system on n elements
    (Spencer): the k >= n case of min_m_hcs, where k'(m, n) = floor(m/2)."""
    return min_m_hcs(n, n)


def f2_exact(n: int) -> int:
    """Exact minimum size of a 2-hyperseparating system on n elements; the
    forms agree for n = 9..12, so this is ceil(n/2) up to n = 10, then the
    smallest m with C(m, 2) >= n."""
    return min((n + 1) // 2, min_m_hcs(n, 2))


def f_bounds(n: int, k: int) -> BoundPair:
    """Sandwich for the minimum k-hyperseparating system size on n elements.

    Upper bound: the k-hypercompletely-separating construction size.  Lower
    bound: min{m : pair_family_size(m, k) >= n} when n > C(2k-1, k), raised
    to the separating floor ceil(log2 n), which every k-hyperseparating
    system needs; otherwise that floor itself.
    """
    upper = min_m_hcs(n, k)  # rejects n < 2 and k < 1 first
    floor_sep = separating_min(n)
    # n > C(2k-1, k), the middle binomial of 2k-1, without building it for a huge k
    if spencer_min(n) > 2 * k - 1:
        m = _least_m(lambda m: pair_family_size(m, k) >= n, 1)
        pair = BoundPair(max(m, floor_sep), upper, PAIR_FAMILY, lower_clamped=m < floor_sep)
    else:
        pair = BoundPair(floor_sep, upper, INFO_THEORETIC)
    assert pair.lower <= pair.upper
    return pair
