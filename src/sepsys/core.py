"""Bit-word set families over small ground sets, with their symmetry operations.

A family is an ordered list of member sets over ground elements
0..ground_size-1.  Each member is a single machine word (bit v set means
ground element v is in the member), which keeps all set operations O(1)
and makes exhaustive search affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

MAX_GROUND = 64
CANONICAL_MAX_GROUND = 8  # canonical_form tries all m! relabelings

PERMUTATIONS_ONLY = "permutations"
PERMUTATIONS_AND_SWITCHING = "permutations+switching"


class CapacityError(ValueError):
    """A ground set (or dual ground set) would not fit in one machine word."""


@dataclass(frozen=True)
class Family:
    """Ordered list of member bit-words over ground elements 0..ground_size-1.

    Duplicate members are representable (duals of degenerate systems produce
    them); ``is_proper`` reports whether all members are pairwise distinct.
    Member order is preserved by every transformation that does not add or
    remove members.
    """

    ground_size: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SeparatorWitness:
    """A separator set with its key, both bit-words over the same ground.

    The key is the intersection of the witnessed member with the separator,
    so it is always a subset of the separator.
    """

    separator: int
    key: int

    def __post_init__(self) -> None:
        if self.key & ~self.separator:
            raise ValueError("key must be a subset of the separator")


def bits(word: int) -> list[int]:
    """Indices of the set bits of a word, ascending."""
    out = []
    v = word
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def word_of(indices) -> int:
    w = 0
    for i in indices:
        w |= 1 << i
    return w


def _check_ground(ground_size: int) -> None:
    if ground_size < 0:
        raise ValueError(f"ground_size must be >= 0, got {ground_size}")
    if ground_size > MAX_GROUND:
        raise CapacityError(
            f"ground_size {ground_size} exceeds the {MAX_GROUND}-element capacity"
        )


def new_family(ground_size: int, members) -> Family:
    """Build a Family from lists of ground-element indices."""
    _check_ground(ground_size)
    words = []
    for pos, member in enumerate(members):
        w = 0
        for idx in member:
            if not 0 <= idx < ground_size:
                raise ValueError(
                    f"member {pos}: index {idx} out of range for ground size {ground_size}"
                )
            w |= 1 << idx
        words.append(w)
    return Family(ground_size, tuple(words))


def family_from_words(ground_size: int, words) -> Family:
    """Build a Family from raw bit-words, validating them against the ground."""
    _check_ground(ground_size)
    ws = tuple(int(w) for w in words)
    for pos, w in enumerate(ws):
        if w < 0 or w >> ground_size:
            raise ValueError(
                f"member {pos}: word {w:#x} has bits outside ground size {ground_size}"
            )
    return Family(ground_size, ws)


def member_lists(f: Family) -> list[list[int]]:
    """Members as ascending index lists (for serialization and display)."""
    return [bits(w) for w in f.members]


def is_proper(f: Family) -> bool:
    """True iff all members are pairwise distinct."""
    return len(set(f.members)) == len(f.members)


def signatures(f: Family) -> list[int]:
    """Element signatures: entry v is the word {i : v in f.members[i]}.

    Unlike ``dual``, this has no cap on the member count.
    """
    sigs = []
    for v in range(f.ground_size):
        bit = 1 << v
        s = 0
        for i, w in enumerate(f.members):
            if w & bit:
                s |= 1 << i
        sigs.append(s)
    return sigs


def dual(f: Family) -> Family:
    """The family of element signatures, on the members of f as ground set.

    Member v of the dual is the signature {i : v in f.members[i]}.  Member
    order follows the ground-element order of f.  Duals of systems that do
    not separate some pair contain duplicate members.
    """
    n = len(f.members)
    if n > MAX_GROUND:
        raise CapacityError(
            f"dual ground would need {n} elements, exceeding capacity {MAX_GROUND}"
        )
    return Family(n, tuple(signatures(f)))


def switch(f: Family, v: int) -> Family:
    """Complement ground element v's membership across all members."""
    if not 0 <= v < f.ground_size:
        raise ValueError(f"element {v} out of range for ground size {f.ground_size}")
    b = 1 << v
    return Family(f.ground_size, tuple(w ^ b for w in f.members))


def switch_set(f: Family, mask: int) -> Family:
    """Switch every ground element in the given bit-mask at once."""
    if mask < 0 or mask >> f.ground_size:
        raise ValueError(f"switch mask {mask:#x} outside ground size {f.ground_size}")
    return Family(f.ground_size, tuple(w ^ mask for w in f.members))


def relabel(f: Family, perm) -> Family:
    """Map every member through a permutation of the ground indices."""
    perm = tuple(perm)
    if sorted(perm) != list(range(f.ground_size)):
        raise ValueError("perm must be a bijection on 0..ground_size-1")
    return Family(f.ground_size, tuple(_permute_word(w, perm) for w in f.members))


def _permute_word(w: int, perm) -> int:
    out = 0
    v = w
    while v:
        low = v & -v
        out |= 1 << perm[low.bit_length() - 1]
        v ^= low
    return out


def canonical_form(f: Family, group: str = PERMUTATIONS_ONLY) -> Family:
    """Lexicographically least sorted member list over the orbit of f.

    The orbit ranges over all ground relabelings, plus every switch-subset
    when group is PERMUTATIONS_AND_SWITCHING.  Two families have equal
    canonical forms iff one group element maps one to the other.  Cost is
    m! (times the member count for the switching group), so grounds above
    CANONICAL_MAX_GROUND raise CapacityError.
    """
    if group not in (PERMUTATIONS_ONLY, PERMUTATIONS_AND_SWITCHING):
        raise ValueError(f"unknown symmetry group {group!r}")
    if f.ground_size > CANONICAL_MAX_GROUND:
        raise CapacityError(
            f"canonical form of a {f.ground_size}-element ground exceeds the cap of"
            f" {CANONICAL_MAX_GROUND}"
        )
    if not f.members:
        return Family(f.ground_size, ())
    best = None
    switching = group == PERMUTATIONS_AND_SWITCHING
    for perm in permutations(range(f.ground_size)):
        imgs = [_permute_word(w, perm) for w in f.members]
        if switching:
            # The minimum starts with the empty set, and only switch masks
            # equal to a permuted member can put the empty set in the image.
            for mask in set(imgs):
                cand = tuple(sorted(x ^ mask for x in imgs))
                if best is None or cand < best:
                    best = cand
        else:
            cand = tuple(sorted(imgs))
            if best is None or cand < best:
                best = cand
    return Family(f.ground_size, best)


def is_sperner(f: Family) -> bool:
    """True iff no member is contained in a different member.

    Duplicate members fail: each copy is a subset of the other.
    """
    ws = f.members
    n = len(ws)
    for i in range(n):
        wi = ws[i]
        for j in range(n):
            if i != j and wi & ~ws[j] == 0:
                return False
    return True
