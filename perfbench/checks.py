"""Reference values the benchmark checks sepsys's outputs against.

These are written from the definitions and the paper's closed forms, not from
sepsys's code, so that a wrong answer from the program cannot also be the
expected one.  They run outside the timed region.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

# Known extremal values (paper, and the seed's acceptance suite).
G_5_2 = 10  # max nice family size g(5,2)
G_5_3 = 20  # g(5,3)
G_6_1 = 6  # g(6,1)
UNIQUE_5 = 10  # max unique-subset family at m=5, k=2 and k=3: C(5, 2)
PAIR_6_2 = 60  # max pair family at m=6, k=2: 2^k * C(m, k)
F_11_2 = 6  # minimum 2-hyperseparating system on 11 elements


def separating_min(n: int) -> int:
    """ceil(log2 n)."""
    return (n - 1).bit_length()


def spencer_min(n: int) -> int:
    """Smallest m with C(m, floor(m/2)) >= n (Sperner/Spencer)."""
    m = 1
    while comb(m, m // 2) < n:
        m += 1
    return m


def hcs_min(n: int, k: int) -> int:
    """Smallest m with C(m, k') >= n, k' = k when m >= 2k-1 else floor(m/2)."""
    m = 1
    while comb(m, k if m >= 2 * k - 1 else m // 2) < n:
        m += 1
    return m


def f2(n: int) -> int:
    """Exact minimum 2-hyperseparating system size on n elements."""
    if n <= 10:
        return (n + 1) // 2
    m = 2
    while comb(m, 2) < n:
        m += 1
    return m


def _small_sets(m: int, k: int) -> list[int]:
    return [s for s in range(1 << m) if s.bit_count() <= k]


def nice_first_failure(m: int, members, k: int) -> int | None:
    """Index of the first member with no separator of size <= k, else None.

    S separates member i when no other member agrees with it on S, that is
    when S meets every difference between member i and another member.
    """
    sets = _small_sets(m, k)
    for i, wi in enumerate(members):
        diffs = [wi ^ w for j, w in enumerate(members) if j != i]
        if not any(all(d & s for d in diffs) for s in sets):
            return i
    return None


def owns_unique_subsets(m: int, members, k: int) -> bool:
    """Every member contains a set of size <= k that no other member contains."""
    sets = _small_sets(m, k)
    for i, wi in enumerate(members):
        others = [w for j, w in enumerate(members) if j != i]
        if not any(s & ~wi == 0 and all(s & ~w for w in others) for s in sets):
            return False
    return True


def canonical(m: int, members, switching: bool) -> tuple[int, ...]:
    """Least sorted member tuple over all relabelings (and all switch masks).

    Brute force over the whole group: m! permutations times 2^m masks.
    """
    best = None
    masks = range(1 << m) if switching else (0,)
    for perm in permutations(range(m)):
        imgs = []
        for w in members:
            x = 0
            for v in range(m):
                if w >> v & 1:
                    x |= 1 << perm[v]
            imgs.append(x)
        for mask in masks:
            cand = tuple(sorted(x ^ mask for x in imgs))
            if best is None or cand < best:
                best = cand
    return best if best is not None else ()
