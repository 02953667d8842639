"""Decision oracles with certificates for every separation property.

Each oracle returns a Certificate that is truthy on success and carries
either per-element/per-member witnesses or a concrete counterexample.  All
tie-breaking is (size, numeric word value), so results are reproducible
bit-exactly.

This module owns the separator table, ``separator_table(m, k)``: the sets
of at most k elements in that order and, for every word d, the mask of
those that meet d.  ``is_nice`` reads it on grounds up to
SEPARATOR_TABLE_MAX_GROUND and calls ``find_separator``, a lazy scan of
the sets that reads no table, above it; the search builds its witness
table from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

from .core import (CapacityError, Family, SeparatorWitness, Value, _check_words, _require_k,
                   _set, dual, first_contained, signatures)

SEPARATING = "separating"
COMPLETELY_SEPARATING = "completely-separating"
HYPERCOMPLETELY = "hypercompletely-separating"
HYPERSEPARATING = "hyperseparating"
NICE = "nice"


class Certificate(Value):
    """Outcome of a separation check.

    On success, ``witnesses`` holds one certifying object per ground element
    (primal checks) or per member (dual checks).  On failure, ``failure``
    holds the counterexample: an element, a member index, or a pair.
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

    Witnesses store, per element v, the lowest distinguishing member index
    against each other element; failure is the first bad ordered pair.
    """
    sigs = signatures(f)
    wit = []
    for v, sv in enumerate(sigs):
        # v drops out of its own row, as sv & ~sv is 0; any other v2 that does fails
        # d ^ d - 1 keeps the lowest set bit of d and all below it; unlike
        # d & -d it builds no negative int, which CPython handles slowly
        row = [(v2, (d ^ d - 1).bit_length() - 1) for v2, s in enumerate(sigs) if (d := sv & ~s)]
        if len(row) < len(sigs) - 1:
            v2 = next(v2 for v2, s in enumerate(sigs) if not sv & ~s and v2 != v)
            return Certificate(COMPLETELY_SEPARATING, False, failure=(v, v2))
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


# Measured on one core (CPython 3.11): at m = 12 the k = 2 table builds in
# about 0.6 ms and the k = 12 one (2 MB) in about 5 ms; on the hs2 duals
# (grounds 6-12, up to 60 members) the table path is 1.6-1.8x faster than
# the scan with a cold build and about 4x with a warm one.  Each further
# element doubles the words and, for k = m, quadruples the table's time and
# memory, so bigger grounds keep the lazy scan.
SEPARATOR_TABLE_MAX_GROUND = 12


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
    seps = tuple(chain.from_iterable(words_of_size(m, size) for size in range(k + 1)))
    # holds[v]: the sets holding element v, read off column v of their
    # binary rows with seps[0] in the lowest bit
    rows = [format(S, f"0{m}b") for S in reversed(seps)]
    holds = [int("".join(col), 2) for col in zip(*rows)][::-1]
    # a word meets S iff its lowest element is in S or the rest of it meets S
    meet = [0] * (1 << m)
    for d in range(1, 1 << m):
        low = d & -d
        meet[d] = meet[d ^ low] | holds[low.bit_length() - 1]
    return seps, tuple(meet)


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

    The witnesses and the failing member are those of find_separator.  On
    grounds up to SEPARATOR_TABLE_MAX_GROUND they are read off the separator
    table: member i's separators are the AND of ``meet[ws[i] ^ w]`` over the
    other members, and its witness is the lowest bit of that mask.  Above
    the cap each member is scanned with find_separator.  A member with bits
    outside the ground raises ValueError."""
    _require_k(k)
    ws, m = d.members, d.ground_size
    _check_words(m, ws)
    if m > SEPARATOR_TABLE_MAX_GROUND:
        wits = []
        for i in range(len(ws)):
            wit = find_separator(d, i, k)
            if wit is None:
                return Certificate(NICE, False, k=k, failure=i)
            wits.append(wit)
        return Certificate(NICE, True, k=k, witnesses=tuple(wits))
    seps, meet = separator_table(m, k)
    full = (1 << len(seps)) - 1
    masks = []
    for i, wi in enumerate(ws):
        alive = full
        for j, w in enumerate(ws):
            if j != i:
                alive &= meet[wi ^ w]  # a duplicate of wi reads meet[0] = 0
                if not alive:
                    return Certificate(NICE, False, k=k, failure=i)
        masks.append(alive)
    wits = []
    for wi, alive in zip(ws, masks):
        S = seps[(alive & -alive).bit_length() - 1]
        wits.append(SeparatorWitness(S, wi & S))
    return Certificate(NICE, True, k=k, witnesses=tuple(wits))


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


def _separator_witnesses_hold(d: Family, k: int, witnesses) -> bool:
    """True iff, for each pair (i, witness), the witness's separator is a set
    of at most k ground elements and member i's key, its intersection with
    the separator, is the witness's key and that of no other member.  The
    witnesses are grouped by separator, so each separator's keys are read
    once however many members it witnesses."""
    owners: dict[int, list] = {}
    for i, wit in witnesses:
        owners.setdefault(wit.separator, []).append((i, wit.key))
    for S, group in owners.items():
        if S < 0 or S >> d.ground_size or S.bit_count() > k:
            return False
        keys = [w & S for w in d.members]
        for i, key in group:
            if keys[i] != key or keys.count(key) != 1:
                return False
    return True


def check_separator_witness(d: Family, i: int, witness: SeparatorWitness, k: int) -> bool:
    """Independent full-scan re-validation of one separator witness."""
    _require_member(d, i)
    _require_k(k)
    return _separator_witnesses_hold(d, k, [(i, witness)])


def recheck_certificate(f: Family, cert: Certificate) -> bool:
    """Re-validate every witness of a successful certificate by full scan.

    Each stored witness is checked against the whole family from the
    definitions, reading no separator table and relying on no search order,
    so the recheck stays independent of the oracles.  Only the work is
    shared: a completely-separating row is checked once per member index it
    names, and separator witnesses once per distinct separator.  A
    certificate whose ``k`` is not an int >= 1 fails.
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
    # member indices and elements are range-checked before use: Python would
    # wrap a negative index and raise on one past the end
    members, m = range(len(f.members)), f.ground_size
    if cert.prop == COMPLETELY_SEPARATING:
        if len(cert.witnesses) != m:
            return False
        bit = {v2: 1 << v2 for v2 in range(m)}
        full = (1 << m) - 1
        for v, row in enumerate(cert.witnesses):
            # per member index, the elements it must leave out; a v2 outside
            # the ground raises KeyError and forces no shift
            outs: dict[int, int] = {}
            try:
                for v2, idx in row:
                    outs[idx] = outs.get(idx, 0) | bit[v2]
            except KeyError:
                return False
            union = 0
            for idx, out in outs.items():
                if idx not in members:
                    return False
                w = f.members[idx]
                if not w >> v & 1 or w & out:
                    return False
                union |= out
            if union != full ^ 1 << v:
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
    # a hyperseparating certificate is the nice certificate of the dual
    d = f if cert.prop == NICE else dual(f)
    return len(cert.witnesses) == len(d.members) and _separator_witnesses_hold(
        d, k, enumerate(cert.witnesses)
    )
