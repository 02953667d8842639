"""Bit-word set families over small ground sets, with their symmetry operations.

A family is an ordered list of member sets over ground elements
0..ground_size-1.  Each member is a single machine word (bit v set means
ground element v is in the member), which keeps all set operations O(1)
and makes exhaustive search affordable.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

MAX_GROUND = 64
_INF = float("inf")
CANONICAL_MAX_GROUND = 8  # canonical_form can still branch on up to m! relabelings

PERMUTATIONS_ONLY = "permutations"
PERMUTATIONS_AND_SWITCHING = "permutations+switching"


class CapacityError(ValueError):
    """A ground set (or dual ground set) would not fit in one machine word."""


_set = object.__setattr__  # how a Value's own __init__ fills its slots


class Value:
    """Immutable value: equality, hash, repr and pickling follow its ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)  # one tuple of field values

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields(self) == self._fields(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._fields(self)


class Family(Value):
    """Ordered list of member bit-words over ground elements 0..ground_size-1.

    Duplicate members are representable (duals of degenerate systems produce
    them); ``is_proper`` reports whether all members are pairwise distinct.
    Member order is preserved by every transformation that does not add or
    remove members.
    """

    __slots__ = ("ground_size", "members")

    def __init__(self, ground_size: int, members: tuple[int, ...]) -> None:
        _set(self, "ground_size", ground_size)
        _set(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)


class SeparatorWitness(Value):
    """A separator set with its key, both bit-words over the same ground.

    The key is the intersection of the witnessed member with the separator,
    so it is always a subset of the separator.
    """

    __slots__ = ("separator", "key")

    def __init__(self, separator: int, key: int) -> None:
        if separator < 0:
            raise ValueError(f"separator must be >= 0, got {separator}")
        if key & ~separator:
            raise ValueError("key must be a subset of the separator")
        _set(self, "separator", separator)
        _set(self, "key", key)


def bits(word: int) -> list[int]:
    """Indices of the set bits of a word, ascending."""
    if word < 0:  # infinitely many set bits
        raise ValueError(f"word must be >= 0, got {word}")
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
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


def _require_k(k: int) -> None:
    # k = 0 is rejected rather than defined: only a single-member family has a size-0 separator
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _require_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


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
    ws = tuple(map(int, words))
    _check_words(ground_size, ws)
    return Family(ground_size, ws)


def _check_words(m: int, ws: tuple[int, ...]) -> None:
    """Raise ValueError naming the first word with bits outside the m-element ground."""
    if ws and (min(ws) < 0 or max(ws).bit_length() > m):
        pos, w = next((p, w) for p, w in enumerate(ws) if w < 0 or w.bit_length() > m)
        raise ValueError(f"member {pos}: word {w:#x} has bits outside ground size {m}")


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
    sigs = [0] * f.ground_size
    full = (1 << f.ground_size) - 1  # bits outside the ground are ignored
    for i, w in enumerate(f.members):
        bit, w = 1 << i, w & full
        while w:  # each set bit of the member, lowest first
            low = w & -w
            sigs[low.bit_length() - 1] |= bit
            w ^= low
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
    return switch_set(f, 1 << v)


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


def _least_image(words: tuple[int, ...], m: int, switching: bool, bound=None):
    """The least sorted image of the sorted tuple ``words`` on m columns (see
    canonical_form).  With a ``bound``, an image of ``words``, it returns
    ``bound`` if no image lies below it, and otherwise stops at the first
    image prefix that does and returns it."""
    best = (_INF,) if bound is None else bound  # above every image

    def descend(rows, cells, img):
        # ``cells`` holds (columns, lowest position, size), lowest first, and
        # ``img`` the chosen rows' images.  True stops the whole search.
        nonlocal best
        images = []
        for r in rows:
            v = 0
            cut = False
            for c, pos, size in cells:
                n = (r & c).bit_count()
                v |= ((1 << n) - 1) << pos
                cut = cut or 0 < n < size
            images.append((v, cut, r))
        split = [v for v, cut, _ in images if cut]
        least = min(split) if split else _INF
        img += tuple(sorted(v for v, _, _ in images if v < least)) + (least,) * bool(split)
        head = best[: len(img)]
        if img > head:
            return False
        if img < head and bound is not None:
            best = img
            return True
        if not split:
            best = min(best, img)
            return False
        rest = [r for v, _, r in images if v >= least]
        tried = []
        for r in dict.fromkeys(r for v, _, r in images if v == least):
            if any(_swaps(t, r, cells, rows) for t in tried):
                continue
            tried.append(r)
            refined = []
            for c, pos, size in cells:
                a = r & c
                n = a.bit_count()
                refined += [(a, pos, n), (c ^ a, pos + n, size - n)] if 0 < n < size else [(c, pos, size)]
            i = rest.index(r)
            if descend((*rest[:i], *rest[i + 1:]), refined, img):
                return True
        return False

    cells = [((1 << m) - 1, 0, m)] if m else []
    masks = words if switching and words else (0,)
    for rows in dict.fromkeys(tuple(sorted(x ^ mask for x in words)) for mask in masks):
        if descend(rows, cells, ()):
            break
    return best


def _swaps(t: int, r: int, cells, rows) -> bool:
    """Whether a swap of two columns in one cell maps t to r and rows to rows."""
    d = t ^ r
    if d.bit_count() != 2 or not any(d & c == d for c, _, _ in cells):
        return False
    return tuple(sorted(x ^ d if x & d not in (0, d) else x for x in rows)) == rows


def canonical_form(f: Family, group: str = PERMUTATIONS_ONLY) -> Family:
    """Lexicographically least sorted member list over the orbit of f.

    The orbit ranges over all ground relabelings, plus every switch-subset
    when group is PERMUTATIONS_AND_SWITCHING.  Two families have equal
    canonical forms iff one group element maps one to the other.

    The image is chosen row by row, least first.  The columns stay in an
    ordered partition into cells (blocks of positions, lowest first), each
    held wholly or not at all by every chosen row.  A row's least image puts
    its bits at the bottom of each cell, and the relabelings that give it
    that image are exactly those that split each cell into (in-row, below)
    and (out-of-row, above).  So the next row's least image is the least of
    these; choosing it refines the cells.  Ties are branched on, except for
    a row that a transposition within one cell maps from a tried one while
    it fixes the remaining rows.  Rows that split no cell keep their images
    and are taken at once.  Under switching the least image holds the empty
    set, so each member is tried as the switch mask.
    """
    if group not in (PERMUTATIONS_ONLY, PERMUTATIONS_AND_SWITCHING):
        raise ValueError(f"unknown symmetry group {group!r}")
    if f.ground_size > CANONICAL_MAX_GROUND:
        raise CapacityError(
            f"canonical form of a {f.ground_size}-element ground exceeds the cap of"
            f" {CANONICAL_MAX_GROUND}"
        )
    switching = group == PERMUTATIONS_AND_SWITCHING
    return Family(f.ground_size, _least_image(tuple(sorted(f.members)), f.ground_size, switching))


@lru_cache(maxsize=1 << 15)
def is_canonical(words: tuple[int, ...], m: int, group: str) -> bool:
    """Whether no element of group maps the increasing ``words`` below them."""
    return _least_image(words, m, group == PERMUTATIONS_AND_SWITCHING, words) == words


def first_contained(words) -> tuple[int, int] | None:
    """The first (i, j) in (i, j) order with i != j and words[i] inside words[j], or None."""
    return next(((i, j) for i, a in enumerate(words) for j, b in enumerate(words)
                 if i != j and a & ~b == 0), None)


def is_sperner(f: Family) -> bool:
    """True iff no member is contained in a different member.

    Duplicate members fail: each copy is a subset of the other.
    """
    return first_contained(f.members) is None
