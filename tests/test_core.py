"""Family representation, dualization, switching, canonical forms."""

import copy
import pickle
import signal
from itertools import permutations

import pytest
from hypothesis import example, given, strategies as st

from sepsys import (
    CapacityError,
    Family,
    PERMUTATIONS_AND_SWITCHING,
    PERMUTATIONS_ONLY,
    SeparatorWitness,
    canonical_form,
    dual,
    family_from_words,
    is_proper,
    is_separating,
    is_sperner,
    new_family,
    relabel,
    switch,
)
from sepsys.bounds import BoundPair
from sepsys.construct import CASE_NO_REDUCTION, ReductionOutcome
from sepsys.core import bits, signatures, switch_set, word_of
from sepsys.search import ExistenceResult, SearchReport
from sepsys.verify import NICE, Certificate, PairFamilyViolation


@st.composite
def families(draw, max_ground=5, max_members=6):
    m = draw(st.integers(min_value=0, max_value=max_ground))
    words = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=max_members))
    return Family(m, tuple(words))


def test_new_family_encodes_members():
    f = new_family(2, [[0, 1], [1]])
    assert f.ground_size == 2
    assert f.members == (0b11, 0b10)


def test_new_family_empty():
    f = new_family(3, [])
    assert f.ground_size == 3
    assert f.members == ()


def test_new_family_rejects_out_of_range_index():
    with pytest.raises(ValueError, match=r"member 0: index 1"):
        new_family(1, [[1]])


def test_new_family_rejects_negative_ground():
    with pytest.raises(ValueError, match="ground_size must be >= 0, got -1"):
        new_family(-1, [])


def test_new_family_rejects_oversized_ground():
    with pytest.raises(CapacityError):
        new_family(65, [])
    new_family(64, [[63]])  # boundary is fine


def test_family_from_words_validates_bits():
    with pytest.raises(ValueError, match="member 1"):
        family_from_words(2, [0b11, 0b100])


def test_bits_word_roundtrip():
    assert bits(0b10110) == [1, 2, 4]
    assert word_of([1, 2, 4]) == 0b10110
    assert bits(0) == []


def _within(seconds, call):
    """call(), with an alarm that turns a hang into a failure."""

    def hang(signum, frame):
        raise TimeoutError(f"took over {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("word", [-1, -3, -(1 << 64)])
def test_bits_rejects_a_negative_word(word):
    # a negative word has infinitely many set bits
    with pytest.raises(ValueError, match=f"word must be >= 0, got {word}"):
        _within(5, lambda: bits(word))


@pytest.mark.parametrize("separator, key", [(-1, 0), (-1, -1), (-2, 2)])
def test_separator_witness_rejects_a_negative_separator(separator, key):
    with pytest.raises(ValueError, match=f"separator must be >= 0, got {separator}"):
        _within(5, lambda: SeparatorWitness(separator, key))


@given(families(max_ground=64, max_members=64))
@example(Family(64, ((1 << 64) - 1,) * 64))
@example(Family(0, (0, 0)))
def test_signatures_by_definition(f):
    want = [sum(1 << i for i, w in enumerate(f.members) if w >> v & 1) for v in range(f.ground_size)]
    assert signatures(f) == want


def test_signatures_ignore_bits_outside_the_ground():
    f = Family(2, (-1, 4, 5, 1 << 70))
    assert _within(5, lambda: signatures(f)) == [0b101, 0b001]


def test_family_from_words_names_the_first_word_outside_the_ground():
    for words, pos, shown in [([1, 2, 8], 2, "0x8"), ([0, -1, 16], 1, "-0x1"), ([16, -1], 0, "0x10")]:
        with pytest.raises(ValueError) as e:
            family_from_words(3, words)
        assert str(e.value) == f"member {pos}: word {shown} has bits outside ground size 3"
    assert family_from_words(64, [(1 << 64) - 1, 0]).members == ((1 << 64) - 1, 0)
    assert family_from_words(0, [0, 0]).members == (0, 0)


def test_dual_by_definition():
    # ground {a,b,c} with members {a,b} and {b,c}
    f = new_family(3, [[0, 1], [1, 2]])
    d = dual(f)
    assert d.ground_size == 2
    assert d.members == (word_of([0]), word_of([0, 1]), word_of([1]))


def test_dual_involution_simple():
    f = new_family(2, [[0, 1], [1]])
    assert dual(dual(f)) == f


def test_dual_of_duplicate_members_is_improper():
    f = new_family(2, [[0, 1], [0, 1]])
    d = dual(f)
    assert d.members == (0b11, 0b11)
    assert not is_proper(d)


def test_dual_capacity_error():
    f = Family(1, (0,) * 65)
    with pytest.raises(CapacityError):
        dual(f)


@given(families())
def test_dual_involution_on_proper_separating(f):
    if is_proper(f) and is_separating(f):
        assert dual(dual(f)) == f


def test_switch_complements_one_element():
    f = new_family(1, [[], [0]])
    assert switch(f, 0).members == (1, 0)


def test_switch_out_of_range():
    with pytest.raises(ValueError):
        switch(new_family(2, [[0]]), 2)


@given(families(), st.integers(0, 4))
def test_switch_involution(f, v):
    if v < f.ground_size:
        assert switch(switch(f, v), v) == f


def test_switch_all_two_subsets():
    family = new_family(5, [[i, j] for i in range(5) for j in range(i + 1, 5)])
    out = switch(family, 0)
    expected = []
    for i in range(5):
        for j in range(i + 1, 5):
            if i == 0:
                expected.append(word_of([j]))
            else:
                expected.append(word_of([0, i, j]))
    assert out.members == tuple(expected)


def test_switch_set_composes_switches():
    f = new_family(3, [[0], [1, 2]])
    assert switch_set(f, 0b101) == switch(switch(f, 0), 2)


def test_switch_set_rejects_mask_outside_ground():
    f = new_family(3, [[0], [1, 2]])
    with pytest.raises(ValueError, match="outside ground size 3"):
        switch_set(f, 1 << f.ground_size)


def test_relabel_identity_and_transposition():
    f = new_family(2, [[0]])
    assert relabel(f, [0, 1]) == f
    assert relabel(f, [1, 0]).members == (0b10,)


def test_relabel_rejects_non_bijection():
    with pytest.raises(ValueError):
        relabel(new_family(2, [[0]]), [0, 0])


@given(families(), st.randoms())
def test_relabel_inverse(f, rng):
    perm = list(range(f.ground_size))
    rng.shuffle(perm)
    inv = [0] * f.ground_size
    for i, p in enumerate(perm):
        inv[p] = i
    assert relabel(relabel(f, perm), inv) == f


@given(families(max_ground=4), st.randoms())
def test_switch_commutes_with_relabel(f, rng):
    if f.ground_size == 0:
        return
    perm = list(range(f.ground_size))
    rng.shuffle(perm)
    v = rng.randrange(f.ground_size)
    assert relabel(switch(f, v), perm) == switch(relabel(f, perm), perm[v])


def test_canonical_form_relabels_to_least():
    f = new_family(2, [[1]])
    assert canonical_form(f, PERMUTATIONS_ONLY).members == (0b01,)


def test_canonical_form_switching_reaches_empty_set():
    f = new_family(2, [[0, 1]])
    assert canonical_form(f, PERMUTATIONS_AND_SWITCHING).members == (0,)


def test_canonical_form_of_empty_family():
    f = new_family(3, [])
    for group in (PERMUTATIONS_ONLY, PERMUTATIONS_AND_SWITCHING):
        assert canonical_form(f, group) == f


def test_canonical_form_rejects_unknown_group():
    with pytest.raises(ValueError, match="unknown symmetry group 'bogus'"):
        canonical_form(new_family(3, [[0], [1, 2]]), "bogus")


def test_canonical_form_capacity_error():
    # the refinement can still branch on up to m! relabelings: refuse grounds above 8
    for m in (9, 40):
        f = new_family(m, [[0], [m - 1]])
        for group in (PERMUTATIONS_ONLY, PERMUTATIONS_AND_SWITCHING):
            with pytest.raises(CapacityError, match="cap of 8"):
                canonical_form(f, group)


@given(families(max_ground=4), st.sampled_from([PERMUTATIONS_ONLY, PERMUTATIONS_AND_SWITCHING]))
def test_canonical_form_idempotent(f, group):
    c = canonical_form(f, group)
    assert canonical_form(c, group) == c


@given(families(max_ground=4, max_members=4), st.randoms())
def test_canonical_form_constant_on_orbit(f, rng):
    perm = list(range(f.ground_size))
    rng.shuffle(perm)
    mask = rng.randrange(1 << f.ground_size) if f.ground_size else 0
    g = switch_set(relabel(f, perm), mask)
    assert canonical_form(g, PERMUTATIONS_AND_SWITCHING) == canonical_form(
        f, PERMUTATIONS_AND_SWITCHING
    )


@given(families(max_ground=4, max_members=4), st.randoms())
def test_canonical_form_constant_on_relabel_orbit(f, rng):
    perm = list(range(f.ground_size))
    rng.shuffle(perm)
    g = relabel(f, perm)
    assert canonical_form(g, PERMUTATIONS_ONLY) == canonical_form(f, PERMUTATIONS_ONLY)


def test_canonical_form_brute_force_agreement():
    # the switching shortcut must match a full sweep over all switch masks
    f = new_family(3, [[0, 2], [1], [0, 1, 2]])
    best = None
    for perm in permutations(range(3)):
        relabeled = relabel(f, perm)
        for mask in range(8):
            cand = tuple(sorted(switch_set(relabeled, mask).members))
            if best is None or cand < best:
                best = cand
    assert canonical_form(f, PERMUTATIONS_AND_SWITCHING).members == best


def test_is_sperner_examples():
    assert is_sperner(new_family(3, [[0, 1], [0, 2], [1, 2]]))
    assert not is_sperner(new_family(1, [[], [0]]))
    m4 = new_family(4, [[], [0], [1], [0, 2], [1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 2, 3]])
    assert not is_sperner(m4)  # {0} inside {0,2}
    assert not is_sperner(new_family(2, [[0], [0]]))  # duplicates fail


def test_is_sperner_relabel_invariant_but_not_switch_invariant():
    # relabel invariance on a small sweep
    for words in [(0b01, 0b10), (0b011, 0b101), (0b1, 0b111)]:
        f = Family(2 if max(words) < 4 else 3, words)
        for perm in permutations(range(f.ground_size)):
            assert is_sperner(relabel(f, perm)) == is_sperner(f)
    # switching does not preserve the property: exhibit a violating pair
    violations = []
    for m in (1, 2):
        for w1 in range(1 << m):
            for w2 in range(w1 + 1, 1 << m):
                f = Family(m, (w1, w2))
                for v in range(m):
                    if is_sperner(f) != is_sperner(switch(f, v)):
                        violations.append((f, v))
    assert violations, "expected switching to break the Sperner property somewhere"


def test_separator_witness_validates_key():
    SeparatorWitness(0b11, 0b01)
    with pytest.raises(ValueError):
        SeparatorWitness(0b01, 0b10)


# every value class: (build, a different value, a field, its repr)
VALUES = [
    (lambda: Family(3, (1, 2)), Family(3, (2, 1)), "members",
     "Family(ground_size=3, members=(1, 2))"),
    (lambda: SeparatorWitness(0b11, 0b01), SeparatorWitness(0b11, 0b10), "key",
     "SeparatorWitness(separator=3, key=1)"),
    (lambda: Certificate(NICE, False, k=2, failure=0), Certificate(NICE, False, 2, (), 1), "ok",
     "Certificate(prop='nice', ok=False, k=2, witnesses=(), failure=0)"),
    (lambda: PairFamilyViolation("duplicate", 3, (3, 3), "key 3 twice"),
     PairFamilyViolation("duplicate", None, (3, 3), "key 3 twice"), "kind",
     "PairFamilyViolation(kind='duplicate', key=3, separators=(3, 3), message='key 3 twice')"),
    (lambda: BoundPair(4, 5, "pair-family", lower_clamped=True), BoundPair(4, 5, "pair-family"),
     "lower", "BoundPair(lower=4, upper=5, lower_source='pair-family', lower_clamped=True)"),
    (lambda: ReductionOutcome(CASE_NO_REDUCTION, None, 0),
     ReductionOutcome(CASE_NO_REDUCTION, None, 1), "reduced",
     "ReductionOutcome(case='NoReduction', reduced=None, removed_members=0)"),
    (lambda: SearchReport(None, None, False, 1, levels=((3, "budget-exhausted"),)),
     SearchReport(None, None, False, 1), "levels",
     "SearchReport(best=None, example=None, exhausted=False, nodes_visited=1,"
     " wall_budget_ms=None, example_pairs=None, levels=((3, 'budget-exhausted'),))"),
    (lambda: ExistenceResult(Family(3, (1, 2)), True, 5), ExistenceResult(None, True, 5),
     "family",
     "ExistenceResult(family=Family(ground_size=3, members=(1, 2)), exhausted=True,"
     " nodes_visited=5)"),
]


@pytest.mark.parametrize(
    "build, other, field, want", VALUES, ids=[want.split("(")[0] for *_, want in VALUES]
)
def test_value_semantics(build, other, field, want):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and not a == other
    assert repr(a) == want
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert repr(a) == want
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a and copy.copy(a) == a
    with pytest.raises(ValueError):
        SeparatorWitness(1, 2)  # a key outside its separator is refused
