"""Decision oracles with certificates for every separation property.

Each oracle returns a Certificate that is truthy on success and carries
either per-element/per-member witnesses or a concrete counterexample.  All
tie-breaking is (size, numeric word value), so results are reproducible
bit-exactly.  ``recheck_certificate`` re-validates witnesses from the
definitions: one word test per (member, mask) pair of a completely-separating
row, and one AND of member columns per separator witness, with no dual built.

This module owns two tables of the sets of at most k elements in that
order.  ``separator_table(m, k)`` holds, for every word d, the mask of the
sets that meet d; ``pair_table(m, k)`` holds, for every word w, one bit per
set S for w's key w & S, so two words share the bit of S exactly when their
keys on S are equal.  ``is_nice`` reads the pair table where it fits, the
separator table elsewhere up to SEPARATOR_TABLE_MAX_GROUND, and above it
calls ``find_separator``, a lazy scan that reads no table.  The search
builds its witness tables from both.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

from .core import (CapacityError, Family, SeparatorWitness, Value, _check_ground, _check_words,
                   _require_k, _set, dual, first_contained, signatures)

SEPARATING = "separating"
COMPLETELY_SEPARATING = "completely-separating"
HYPERCOMPLETELY = "hypercompletely-separating"
HYPERSEPARATING = "hyperseparating"
NICE = "nice"


class Certificate(Value):
    """Outcome of a separation check.

    On success, ``witnesses`` holds one certifying object per ground element
    (primal checks) or per member (dual checks); a completely-separating one
    is a row of (member index, mask) pairs.  On failure, ``failure`` holds
    the counterexample: an element, a member index, or a pair.
    """

    __slots__ = ("prop", "ok", "k", "witnesses", "failure")

    def __init__(self, prop: str, ok: bool, k: int | None = None, witnesses: tuple = (),
                 failure: object = None) -> None:
        _set(self, "prop", prop)
        _set(self, "ok", ok)
        _set(self, "k", k)
        _set(self, "witnesses", witnesses)
        _set(self, "failure", failure)

    def __bool__(self) -> bool:
        return self.ok


class PairFamilyViolation(Value):
    """Why a separator/key pair family is invalid.  Falsy by design."""

    __slots__ = ("kind", "key", "separators", "message")

    def __init__(self, kind: str, key: int | None, separators: tuple[int, ...], message: str):
        _set(self, "kind", kind)  # "duplicate" | "oversized" | "containment"
        _set(self, "key", key)
        _set(self, "separators", separators)
        _set(self, "message", message)

    def __bool__(self) -> bool:
        return False


def _require_member(d: Family, i: int) -> None:
    # Python would wrap a negative index and raise IndexError past the end
    if not 0 <= i < len(d.members):
        raise ValueError(f"member index {i} out of range for {len(d.members)} members")


def words_of_size(m: int, size: int):
    """All words with `size` bits among the low m, in ascending word order."""
    if size == 0:
        yield 0
        return
    limit = 1 << m
    w = (1 << size) - 1
    while w < limit:
        yield w
        u = w & -w
        v = w + u
        w = v | (((w ^ v) // u) >> 2)


def is_separating(f: Family) -> Certificate:
    """Some member splits every pair of ground elements.

    Equivalent to all element signatures being pairwise distinct; witnesses
    are the signatures, failure is a pair of elements sharing one.
    """
    sigs = signatures(f)
    seen: dict[int, int] = {}
    for v, s in enumerate(sigs):
        if s in seen:
            return Certificate(SEPARATING, False, failure=(seen[s], v))
        seen[s] = v
    return Certificate(SEPARATING, True, witnesses=tuple(sigs))


def is_completely_separating(f: Family) -> Certificate:
    """For every ordered pair (v, v2), some member contains v but not v2.

    The witness of element v is a row of ``(i, mask)`` pairs in ascending i,
    where the mask holds each v2 whose lowest member with v but not v2 is i;
    failure is the first bad ordered pair.
    """
    sigs, ws, wit = signatures(f), f.members, []
    ground = (1 << f.ground_size) - 1
    for v, sv in enumerate(sigs):
        # the members holding v, lowest first, take from rest the elements they
        # miss.  d ^ d - 1 keeps the lowest set bit of d and all below it;
        # unlike d & -d it builds no negative int, which CPython handles slowly
        rest, row = ground ^ 1 << v, []
        while rest and sv:
            i = (sv ^ sv - 1).bit_length() - 1
            sv &= sv - 1
            if out := rest & ws[i] ^ rest:
                row.append((i, out))
                rest ^= out
        if rest:
            return Certificate(COMPLETELY_SEPARATING, False,
                               failure=(v, (rest ^ rest - 1).bit_length() - 1))
        wit.append(tuple(row))
    return Certificate(COMPLETELY_SEPARATING, True, witnesses=tuple(wit))


def is_k_hypercompletely_separating(f: Family, k: int) -> Certificate:
    """Every ground element is the exact intersection of <= k members.

    Repeating a member never changes an intersection, so witnesses are
    nonempty subfamilies of at most k distinct members; the stored witness
    per element is minimal in (size, index order).  Failure is the first
    element with no witness.
    """
    _require_k(k)
    ws = f.members
    wit = []
    for v in range(f.ground_size):
        target = 1 << v
        # Only members holding v can take part, and when all of them meet in
        # more than v, so does every subfamily of them.
        holders = [i for i, w in enumerate(ws) if w & target]
        common = -1
        for i in holders:
            common &= ws[i]
        found = _least_subfamily(ws, holders, k, target) if common == target else None
        if found is None:
            return Certificate(HYPERCOMPLETELY, False, k=k, failure=v)
        wit.append(found)
    return Certificate(HYPERCOMPLETELY, True, k=k, witnesses=tuple(wit))


def _least_subfamily(ws, holders, k, target):
    """The first tuple of at most k indices from ``holders``, in (size,
    index) order, whose members intersect in exactly ``target``, or None."""
    for size in range(1, min(k, len(holders)) + 1):
        for idxs in combinations(holders, size):
            acc = ws[idxs[0]]
            for t in idxs[1:]:
                acc &= ws[t]
            if acc == target:
                return idxs
    return None


# Measured on one core (CPython 3.11) at m = 12: the k = 2 separator table
# builds in about 0.6 ms, the k = 12 one (2 MB) in about 5 ms, and the
# k = 2 and 3 pair tables in about 1-2 and 3-4 ms.  Each further element
# doubles the words and, for k = m, quadruples a table's time and memory, so
# bigger grounds keep the lazy scan.  A pair table of at most 2^24 bits, the
# size of that k = 12 table, covers every k for m <= 9, k <= 5 at m = 10,
# k <= 4 at m = 11 and k <= 3 at m = 12.
SEPARATOR_TABLE_MAX_GROUND = 12
PAIR_TABLE_MAX_BITS = 1 << 24


def separator_table(m: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The separator table of the m-ground for size <= k: ``(seps, meet)``.

    ``seps`` lists every set of at most k elements in (size, value) order,
    and bit t of ``meet[d]`` is set when ``seps[t]`` meets the word d.  A
    member x keeps the separator S against w exactly when S meets x ^ w, so
    x's separators form the AND of ``meet[x ^ w]`` over the other members,
    and the lowest bit of that mask is the first in (size, value) order.
    Tables are cached per (m, min(k, m)) for the life of the process.
    """
    if not 0 <= m <= SEPARATOR_TABLE_MAX_GROUND:
        raise CapacityError(
            f"m = {m} is outside the separator-table range 0..{SEPARATOR_TABLE_MAX_GROUND}"
        )
    _require_k(k)
    return _separator_table(m, min(k, m))


@lru_cache(maxsize=None)
def _separator_table(m: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    seps = _small_sets(m, k)
    holds, meet = columns(seps, m), [0] * (1 << m)  # holds[v]: the sets holding v
    # a word meets S iff its lowest element is in S or the rest of it meets S
    for d in range(1, 1 << m):
        low = d & -d
        meet[d] = meet[d ^ low] | holds[low.bit_length() - 1]
    return seps, tuple(meet)


def _small_sets(m: int, k: int) -> tuple[int, ...]:
    return tuple(chain.from_iterable(words_of_size(m, size) for size in range(k + 1)))


def columns(rows, width: int) -> tuple[int, ...]:
    """The transpose of a bit matrix: bit j of entry i is bit i of ``rows[j]``."""
    text = [format(row, f"0{width}b") for row in reversed(rows)]
    return tuple(int("".join(col), 2) for col in zip(*text))[::-1]


def pair_table(m: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The witness-pair table of the m-ground for size <= k: ``(owner, pairs)``.

    Each set S of at most k elements, in (size, value) order, owns a run of
    2^|S| bits, one per key, a subset of S: the key S first, then the rest
    in descending order.  ``pairs[w]`` holds the bit of (S, w & S) for every
    S, and ``owner[b]`` is the S of bit b.  Cached per (m, min(k, m)); a table
    past SEPARATOR_TABLE_MAX_GROUND or PAIR_TABLE_MAX_BITS raises CapacityError.
    """
    _require_k(k)
    if not 0 <= m <= SEPARATOR_TABLE_MAX_GROUND or (table := _pair_table(m, min(k, m))) is None:
        raise CapacityError(f"no pair table for m = {m}, k = {k} within the caps")
    return table


@lru_cache(maxsize=None)
def _pair_table(m: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    seps = _small_sets(m, k)
    if sum(1 << S.bit_count() for S in seps) << m > PAIR_TABLE_MAX_BITS:
        return None
    # moves[e][t]: the runs of the sets whose t-th lowest element is e, from
    # t = 0; adding e to a word moves its bit in each such run 2^t down.  The
    # words with lowest element e start from those without e, so e runs down.
    owner, empty, moves = [], 0, [[0] * min(k, e + 1) for e in range(m)]
    for S in seps:
        width = 1 << S.bit_count()
        run = (1 << width) - 1 << len(owner)
        owner += [S] * width
        empty |= 1 << len(owner) - 1  # the key 0 comes last
        for t, e in enumerate(e for e in range(m) if S >> e & 1):
            moves[e][t] |= run
    pairs = [empty] * (1 << m)
    for e in reversed(range(m)):
        block = pairs[::2 << e]
        for t, run in enumerate(moves[e]):
            shift = 1 << t
            block = [p ^ (x := p & run) ^ x >> shift for p in block]
        pairs[1 << e::2 << e] = block
    return tuple(owner), tuple(pairs)


def find_separator(d: Family, i: int, k: int) -> SeparatorWitness | None:
    """Deterministic separator for member i of a dual family, or None.

    Scans the sets of at most k elements in (size, numeric word value) order
    and returns the first S on which member i's key, its intersection with
    S, differs from every other member's.  Returns None when no separator
    exists (in particular when member i has a duplicate).  This is the
    reference scan; it reads no table and stops at the first set that
    settles member i.
    """
    _require_member(d, i)
    _require_k(k)
    ws, m = d.members, d.ground_size
    wi, others = ws[i], ws[:i] + ws[i + 1:]
    for size in range(min(k, m) + 1):
        for S in words_of_size(m, size):
            key = wi & S
            if key not in map(S.__and__, others):
                return SeparatorWitness(S, key)
    return None


def is_nice(d: Family, k: int) -> Certificate:
    """Every member of the dual family has a separator of size <= k.

    The witnesses and the failing member are those of find_separator.  Where
    the pair table fits, one pass gathers ``twice``, the pairs two or more
    members hold, and member i's separators are the pairs of ``ws[i]``
    outside it; elsewhere up to SEPARATOR_TABLE_MAX_GROUND, the AND of
    ``meet[ws[i] ^ w]`` over the other members.  Above it each member is
    scanned with find_separator, but one with a duplicate fails unscanned.
    Bits outside the ground raise ValueError."""
    _require_k(k)
    ws, m = d.members, d.ground_size
    _check_words(m, ws)
    firsts = []
    if m > SEPARATOR_TABLE_MAX_GROUND:
        # a member with a duplicate has no separator, and its scan would
        # walk every set of at most k elements to find none
        seen, repeated = set(), set()
        for w in ws:
            (repeated if w in seen else seen).add(w)
        for i, wi in enumerate(ws):
            if wi in repeated or (wit := find_separator(d, i, k)) is None:
                return Certificate(NICE, False, k=k, failure=i)
            firsts.append(wit.separator)
    elif (table := _pair_table(m, min(k, m))) is None:
        seps, meet = separator_table(m, k)
        for i, wi in enumerate(ws):
            alive = (1 << len(seps)) - 1
            for j, w in enumerate(ws):
                if j != i:
                    alive &= meet[wi ^ w]  # a duplicate of wi reads meet[0] = 0
                    if not alive:
                        return Certificate(NICE, False, k=k, failure=i)
            firsts.append(seps[(alive & -alive).bit_length() - 1])
    else:
        owner, pairs = table
        used = twice = 0
        for w in ws:
            p = pairs[w]
            twice |= used & p
            used |= p
        once = ~twice  # a duplicate of a member holds each of its pairs twice
        for i, wi in enumerate(ws):
            alive = pairs[wi] & once
            if not alive:
                return Certificate(NICE, False, k=k, failure=i)
            firsts.append(owner[(alive & -alive).bit_length() - 1])
    return Certificate(NICE, True, k=k,
                       witnesses=tuple(SeparatorWitness(S, wi & S) for wi, S in zip(ws, firsts)))


def owns_unique_subsets(d: Family, k: int) -> bool:
    """True iff every member contains a set of at most k elements that no
    other member contains.  Duplicate members fail: every subset of one
    copy lies in the other."""
    _require_k(k)
    ws = d.members
    for i, wi in enumerate(ws):
        # S lies inside w exactly when S & ~w == 0
        outside = [~w for w in ws[:i] + ws[i + 1:]]
        bits = [1 << t for t in range(d.ground_size) if wi >> t & 1]
        if not any(
            0 not in map(sum(c).__and__, outside)
            for size in range(min(k, len(bits)) + 1)
            for c in combinations(bits, size)
        ):
            return False
    return True


def is_k_hyperseparating(f: Family, k: int) -> Certificate:
    """Every element is pinned down by its pattern on some <= k members.

    Decided through the dual: the witness separator indexes the witness
    member sets, and the key says which of them must contain the element.
    """
    _require_k(k)  # before the dual, which may not fit
    cert = is_nice(dual(f), k)
    return Certificate(
        HYPERSEPARATING, cert.ok, k=k, witnesses=cert.witnesses, failure=cert.failure
    )


def pair_family_valid(pairs, m: int, k: int):
    """Validate a family of (separator, key) pairs on an m-element ground.

    True iff all pairs are distinct, every separator has at most k elements,
    and for each fixed key the separators carrying it form a Sperner family.
    Returns a falsy PairFamilyViolation naming the offending key and
    separators otherwise.  Malformed pairs (key not inside separator,
    separator outside the ground) raise.
    """
    _require_k(k)
    seen = set()
    by_key: dict[int, list[int]] = {}
    for p in pairs:
        if p.key & ~p.separator:
            raise ValueError(
                f"malformed pair: key {p.key:#x} not contained in separator {p.separator:#x}"
            )
        if p.separator < 0 or p.separator >> m:
            raise ValueError(
                f"separator {p.separator:#x} uses indices beyond ground size {m}"
            )
        t = (p.separator, p.key)
        if t in seen:
            return PairFamilyViolation(
                "duplicate", p.key, (p.separator,),
                f"pair (separator {p.separator:#x}, key {p.key:#x}) appears twice",
            )
        seen.add(t)
        if p.separator.bit_count() > k:
            return PairFamilyViolation(
                "oversized", p.key, (p.separator,),
                f"separator {p.separator:#x} has more than {k} elements",
            )
        by_key.setdefault(p.key, []).append(p.separator)
    for key, seps in by_key.items():
        # distinct separators of one size cannot nest, and a key's
        # separators are distinct once no pair appears twice
        one_size = seps[0].bit_count()
        if all(S.bit_count() == one_size for S in seps):
            continue
        if found := first_contained(seps):
            a, b = (seps[t] for t in found)
            return PairFamilyViolation("containment", key, (a, b),
                                       f"key {key:#x}: separator {a:#x} contained in {b:#x}")
    return True


def _separator_witnesses_hold(cols, size: int, k: int, witnesses) -> bool:
    """True iff, for each pair (i, witness), the witness's separator S is a
    set of at most k of the ``len(cols)`` ground elements, its key lies in
    S, and member i alone of the ``size`` members meets S in the key.  Those
    members are the AND over e in S of ``cols[e]``, the mask of the members
    holding e, for e in the key and of its complement otherwise."""
    everyone = (1 << size) - 1
    for i, wit in witnesses:
        S, key = wit.separator, wit.key
        if S < 0 or S >> len(cols) or S.bit_count() > k or key & ~S:
            return False
        agree = everyone
        while S:
            e = (S ^ S - 1).bit_length() - 1
            S &= S - 1
            agree &= cols[e] if key >> e & 1 else ~cols[e]
        if agree != 1 << i:
            return False
    return True


def check_separator_witness(d: Family, i: int, witness: SeparatorWitness, k: int) -> bool:
    """Independent full-scan re-validation of one separator witness."""
    _require_member(d, i)
    _require_k(k)
    return _separator_witnesses_hold(signatures(d), len(d.members), k, [(i, witness)])


def recheck_certificate(f: Family, cert: Certificate) -> bool:
    """Re-validate every witness of a successful certificate by full scan.

    Each stored witness is checked against the whole family from the
    definitions, reading neither table, building no dual and relying
    on no search order, so the recheck stays independent of the oracles.
    Each ``(i, mask)`` of a completely-separating row needs member i to hold
    v and miss the mask, and the masks to cover the ground but v.  Separator
    witnesses are read off member columns: ``signatures(f)`` for a nice
    certificate, f's own members for a hyperseparating one.  A certificate
    whose ``k`` is not an int >= 1 fails.
    """
    if not cert.ok:
        raise ValueError("can only recheck a successful certificate")
    if cert.prop == SEPARATING:
        sigs = signatures(f)
        return (
            len(cert.witnesses) == f.ground_size
            and list(cert.witnesses) == sigs
            and len(set(sigs)) == len(sigs)
        )
    # member indices are range-checked before use: Python would wrap a
    # negative index and raise on one past the end
    members, m = range(len(f.members)), f.ground_size
    if cert.prop == COMPLETELY_SEPARATING:
        if len(cert.witnesses) != m:
            return False
        ws, ground = f.members, (1 << m) - 1
        for v, row in enumerate(cert.witnesses):
            union = 0
            for idx, out in row:
                if idx not in members:
                    return False
                w = ws[idx]
                if not w >> v & 1 or w & out:
                    return False
                union |= out
            if union != ground ^ 1 << v:  # so also for a negative mask or an outside bit
                return False
        return True
    if cert.prop not in (HYPERCOMPLETELY, NICE, HYPERSEPARATING):
        raise ValueError(f"unknown certificate property {cert.prop!r}")
    k = cert.k
    if not isinstance(k, int) or k < 1:
        return False
    if cert.prop == HYPERCOMPLETELY:
        if len(cert.witnesses) != m:
            return False
        for v, idxs in enumerate(cert.witnesses):
            if not 1 <= len(idxs) <= k or len(set(idxs)) != len(idxs):
                return False
            if not all(t in members for t in idxs):
                return False
            acc = f.members[idxs[0]]
            for t in idxs[1:]:
                acc &= f.members[t]
            if acc != 1 << v:
                return False
        return True
    if cert.prop == NICE:
        cols, size = signatures(f), len(f.members)
    else:  # the nice certificate of the dual, whose columns are f's members
        _check_ground(len(f.members))  # the dual's ground
        cols, size = f.members, m
    return len(cert.witnesses) == size and _separator_witnesses_hold(
        cols, size, k, enumerate(cert.witnesses)
    )
