"""Exhaustive and branch-and-bound searches with symmetry reduction.

The searches re-derive the small-case extremal values independently of the
closed-form formulas.  Families are built as strictly increasing sequences
of member words, which kills member-permutation duplicates for free; on top
of that, a prefix must be canonical under the applicable symmetry group
(orderly generation, Read 1978), as decided by ``core.is_canonical``, when
it has at most SYMMETRY_DEPTH words, or at most DEEP_SYMMETRY_DEPTH words
and at least DEEP_MIN_LEFT[m] of its parent's candidates lie above its last
word.  This is sound because the lexicographically least member of any
orbit has only canonical prefixes: inserting the image of its largest word
into a smaller sorted list keeps that list smaller.  So a prefix left
untested only keeps more of the tree, and which prefixes are tested changes
node counts alone.

Every problem runs on one witness model, forward-checked (Haralick &
Elliott 1980).  A witness is a set S of at most k elements; it serves
member x while x's key x & S is its own, i.e. while no other member has
that key on S.  A word holds one (witness, key) pair per witness, so x's
witnesses are the pairs it holds alone, and a node's state is two pair
sets: ``used``, the pairs its members hold, and ``twice``, those two or
more of them hold.  Its candidates are only words that keep a witness of
their own (a pair outside ``used``) and leave every member one.
Witnesses only die as members are added, so a word that fails this test
fails it in every descendant; it is dropped when the child's candidates
are built, and the cardinality bound ``size + candidates`` counts only
addable words.

Each model has its own pair table.  Nice families hold every pair, and
their table is ``verify.pair_table``, the one ``is_nice`` reads too.  A
member that must own a subset T of itself, contained in no other member,
has only the pairs (T, T): a word holds (T, T) exactly when T <= w.

A node's candidates are one 2^m-bit word mask, walked low bit first,
after the bitset candidate sets of San Segundo, Rodriguez-Losada & Jimenez
(2011).  A word kills member x, leaving it no witness, exactly when it
holds every pair x holds alone; the words that do are the AND of the
2^m-bit word masks of those pairs, memoized per pair set.  Adding w shrinks
only the pair sets of w itself and of the members that held a pair w now
shares, so the child's candidates are the later words outside their kill
masks that still hold a free pair.  The killed words are counted by
popcount, w's own kill mask first and then one member's at a time, so about
half the hopeless children are given up before any member or word is
walked.  The words kept still need a free pair that w does not take, and
the child needs their reach: byte tables of the witness table give the OR
of ``holders`` over those free pairs, and then the OR of ``pairs`` over the
words it keeps, one lookup per byte of each mask.  Where the free pairs
span more bytes than there are words left, as in most k >= 3 tables, the
words are walked one at a time instead.

A second bound is the paper's count behind g(m,2) <= C(m,2): each member
needs a (witness, key) pair of its own.  A pair (S, key) is free while no
member's key on S equals it.  A word added below a node ends with a
witness S on which its key y & S is its own, so that pair is free at the
node, held by one of its candidates, and held by no other added word.  A
node therefore also carries ``reach``, the pairs its candidates hold; a
child w needs as many more words as there are free pairs in ``reach``
that w does not take.  Every pair of a table is a witness pair, so the
count holds in every model.

A third bound looks ahead where a child has no slack left, i.e. needs
every one of its candidates to beat the best: the only such family below it
is its members, w and all of them.  That family holds only if w and every
member keep a pair that none of its other words holds, one outside the
pairs held twice and the child's reach, so the child is dropped when one of
them keeps none.  The test is exact for the members and w in both witness
models; the candidates' own witnesses are left to the child's nodes.

A fourth bound caps each side of the top element, m - 1, by the paper's
restriction step.  The members of a nice family that miss an element v are
a nice family on the other m - 1 elements, and so are those that hold it,
with v deleted: a separator S of member x, less v, still tells x apart from
every member on its side, as they agree on v.  An owned subset T of x, less
v, stays owned there: a member on x's side holding T - {v} holds T.  So a
family below a child has at most G = g(m - 1, k) words on each side, and the
child is dropped when min(G, x) + min(G, y) <= best, x and y being the
words of its members, w and candidates without and with the top element.
The words from 2^(m - 1) on hold it.  A child among them, after the other
bounds, beats the best by its own words, so it is dropped exactly when the
members below 2^(m - 1) and G words above cannot, and then so is every
later child: the loop stops there.  G comes from the search itself:
``_half_cap`` runs the DFS on the m - 1 ground, in the same witness model, k
and group, the first time a DFS reaches SPLIT_MIN_NODES nodes, and caches
it per process once proved.  Its nodes are not counted, so node counts are
the same cold and warm, and a search that ends sooner never pays for it.
An unreduced search reads an unreduced G: it cross-checks the symmetry
reduction, so no canonical-prefix test may decide any of its cuts.

The bounds are tested in the parent's candidate loop, before a child is
expanded (Carraghan & Pardalos 1990), and the pair count before its
canonical-prefix test: a child that cannot beat the best is never built,
and building stops as soon as enough later words have been dropped to make
it hopeless.  A search for a family of n members is one that beats the
best n - 1 and stops at the first family it finds.

Reports are deterministic: a branch is cut only when it cannot beat the
best found before it strictly, so the example reported is the first optimum
in DFS order.

Roots are families of SPLIT_DEPTH or SPLIT_DEPTH + 1 members.  Once the DFS
has visited SPLIT_MIN_NODES nodes, it queues each later child of those
sizes that passes the tests of its parents, as the arguments it has just
built to visit it, if a family of the child's size has been reached.  So
the DFS walks the first roots itself, and the larger roots are the later
children of the SPLIT_DEPTH-member root it is walking when it passes
SPLIT_MIN_NODES nodes: the first root of the unreduced searches holds most
of the tree outside the queue.  Each queued root then runs as its own DFS,
which queues nothing, from its arguments and the best reached before the
queue, and the results merge in root order (parallel DFS by splitting the
tree, Rao & Kumar 1987).  A root's result and node count depend only on its
arguments and that starting best, so results and node counts are the same
for any number of workers.  A helper process, forked with the queue, runs
roots from the back of it while this one runs them from the front.  It is
forked at once when SPLIT_MIN_ROOTS or more roots are queued, and only
where ``os.fork`` exists, at least two CPUs are usable and the process runs
a single thread.  The unreduced searches queue over a hundred roots and
fork.  The symmetry-reduced ones queue a few (g(5,3) 3, exists(6,2,16) 4,
g(6,2) 6) and do not: ``core.is_canonical`` caches its results per
process, so the helper's canonical-prefix tests die with it and this
process repeats them in later searches.
"""

from __future__ import annotations

import os
import sys
import time
from bisect import bisect_left
from functools import lru_cache

from . import bounds
from .core import (
    CapacityError,
    Family,
    PERMUTATIONS_AND_SWITCHING,
    PERMUTATIONS_ONLY,
    SeparatorWitness,
    dual,
    is_canonical,
)
from .core import Value, _check_ground, _require_k, _require_n, _set
from .verify import columns, pair_table, separator_table, words_of_size

# A child prefix of d words is tested for canonicity when d <= SYMMETRY_DEPTH,
# or when d <= DEEP_SYMMETRY_DEPTH and at least DEEP_MIN_LEFT[m] later words
# remain in its parent's candidate mask.  A cold test at depths 6 to 8 costs
# 60 to 120 us when it rejects and 140 to 350 us when it passes (m = 5 and
# 6), and most of that time goes to prefixes that pass, so a deep test pays
# only above a subtree of many words.  Measured on a 2-vCPU host, CPython
# 3.11: depth 4 visits 3.5x the nodes of depth 5; ungated, depth 6 doubles
# cold g(6,2) and depth 8 takes it from about 120 to 670 ms.  Gated, depth
# 8 at 10 words cuts warm g(5,3) from 3 220 to 854 nodes, and at 32 words on
# m = 6 keeps cold g(6,2) flat while exists(6,3,24) falls from 100 418 to
# 27 756 nodes; 21 words there double cold g(6,2).
SYMMETRY_DEPTH = 5
DEEP_SYMMETRY_DEPTH = 8
DEEP_MIN_LEFT = (10, 10, 10, 10, 10, 10, 32)  # by m
SEARCH_MAX_GROUND = 6  # the largest m any search accepts
# Roots are families of SPLIT_DEPTH or SPLIT_DEPTH + 1 members; splitting
# deeper would queue single-digit subtrees in the symmetric searches.  The
# DFS reads g(m - 1, k) and starts queueing roots once it has visited
# SPLIT_MIN_NODES nodes, and forks a helper for SPLIT_MIN_ROOTS or more of
# them.  A fork, its join and the copy-on-write faults that follow cost
# about 3.5 ms in a 15 MB process (2-vCPU host, CPython 3.11), and 256 nodes
# take about 3.3 ms.  A gate of 4 roots forks for g(6,2), whose helper's
# canonical-prefix tests are then lost to this process: repeated calls took
# about 47-55 ms against 22-24 ms (medians of 15 per process), though the
# first, cold call was faster.
SPLIT_DEPTH = 2
SPLIT_MIN_NODES = 256
SPLIT_MIN_ROOTS = 8
PAIR_FAMILY_CAP = 1 << 16  # the most pairs max_pair_family lists; (64, 8) has about 10^12
# The most kill masks memoized per witness table, as many as
# ``core.is_canonical`` caches; the memo is cleared when full.
KILLS_MEMO_SIZE = 1 << 15


class SearchReport(Value):
    """Result of an extremal search.

    ``exhausted`` is True only when the full symmetry-reduced space was
    covered, making ``best`` a proven optimum; it is False whenever the wall
    budget expired first.  ``nodes_visited`` counts the nodes the DFS
    visited, a deterministic number for a search that ran to the end; a
    search for a family of given size counts up to the first root that
    found one, as the serial DFS stops there.
    """

    __slots__ = ("best", "example", "exhausted", "nodes_visited", "wall_budget_ms",
                 "example_pairs", "levels")

    def __init__(self, best: int | None, example: Family | None, exhausted: bool,
                 nodes_visited: int, wall_budget_ms: int | None = None,
                 example_pairs: tuple[SeparatorWitness, ...] | None = None,
                 levels: tuple[tuple[int, str], ...] | None = None) -> None:
        _set(self, "best", best)
        _set(self, "example", example)
        _set(self, "exhausted", exhausted)
        _set(self, "nodes_visited", nodes_visited)
        _set(self, "wall_budget_ms", wall_budget_ms)
        _set(self, "example_pairs", example_pairs)
        _set(self, "levels", levels)


class ExistenceResult(Value):
    """Three-valued outcome of a fixed-size existence search."""

    __slots__ = ("family", "exhausted", "nodes_visited")

    def __init__(self, family: Family | None, exhausted: bool, nodes_visited: int) -> None:
        _set(self, "family", family)
        _set(self, "exhausted", exhausted)
        _set(self, "nodes_visited", nodes_visited)

    @property
    def status(self) -> str:
        if self.family is not None:
            return "found"
        return "proven-absent" if self.exhausted else "budget-exhausted"


@lru_cache(maxsize=None)
def _witness_tables(m: int, k: int, owned: bool):
    """The witness pair table of the m-ground, the memo of kill masks and
    the byte tables of both masks: ``(pairs, holders, kills, pair_bytes,
    holder_bytes)``.

    Witnesses are the sets of at most k elements in (size, value) order.
    For separators ``pairs`` is ``verify.pair_table(m, k)``: ``pairs[w]``
    holds the pair (S, w & S) of every witness S.  For owned subsets the
    pairs are only the (T, T), one bit per witness T, and ``pairs[w]`` holds
    those with T <= w.  Either way a member's witnesses are the pairs it
    holds alone, and ``holders[p]``, the transpose, is the mask of the words
    holding pair p.  ``kills`` is the memo of ``_DFS.killers``, kept with
    the table it reads.  ``pair_bytes[j][b]`` is the OR of ``pairs`` over
    the words set in byte b of a word mask at byte j, and
    ``holder_bytes[j][b]`` the OR of ``holders`` over the pairs set in byte
    b of a pair mask at byte j, so a mask's OR is one lookup per byte.
    ``_DFS`` asks for k = min(k, m), at least 1 as the tables need, so every
    k >= m shares one table and memo.
    """
    if owned:  # T <= w exactly when T misses the rest of the ground
        seps, meet = separator_table(m, k)
        full = (1 << len(seps)) - 1
        pairs = tuple(full ^ meet[(1 << m) - 1 ^ w] for w in range(1 << m))
    else:
        seps, pairs = pair_table(m, k)
    holders = columns(pairs, len(seps))
    return pairs, holders, {}, _byte_tables(pairs), _byte_tables(holders)


def _byte_tables(items):
    """For each byte j of a mask over ``items``, the 256 ORs of
    ``items[8 * j + i]`` over the bits i of each byte value; bits past the
    last item add nothing."""
    tables = []
    for base in range(0, len(items), 8):
        # the entries with bit i set are those below them, each with item i
        t = [0]
        for item in items[base:base + 8]:
            t += [x | item for x in t]
        while len(t) < 256:
            t += t
        tables.append(tuple(t))
    return tuple(tables)


class _Budget:
    def __init__(self, budget_ms: int | None):
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self.expired = False

    def check(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.expired = True
        return self.expired


class _DFS:
    """Depth-first search over strictly increasing member sequences.

    The best size is shared by the whole tree and a branch is cut only when
    it cannot beat it strictly, so ``best_members`` is the first optimum in
    DFS order.  The search stops at the first family of ``stop`` members; a
    target n is the best n - 1 to beat with stop n.  Prefixes of length <=
    SYMMETRY_DEPTH, and deeper ones below many later words (see
    DEEP_MIN_LEFT), must be canonical under ``group``; ``group=None`` turns
    the reduction off.  Members own separators, or subsets of themselves
    when ``owned``.
    """

    __slots__ = (
        "pairs", "holders", "kills", "pair_bytes", "holder_bytes", "m", "k", "owned",
        "group", "min_left", "stop", "budget", "best", "best_members", "nodes", "split",
        "roots", "half", "cap",
    )

    def __init__(self, m, k, owned, group, best, stop, budget, split=False):
        (self.pairs, self.holders, self.kills, self.pair_bytes,
         self.holder_bytes) = _witness_tables(m, max(1, min(k, m)), owned)
        self.m = m
        self.k = k
        self.owned = owned
        self.group = group
        # min_left[s] is the fewest later words for which a child of s + 1
        # members is tested; 1 << m, more words than there are, tests none
        never = 1 << m
        tested = 0 if group is None else DEEP_SYMMETRY_DEPTH
        always = min(tested, SYMMETRY_DEPTH)
        self.min_left = ((0,) * always + (DEEP_MIN_LEFT[m],) * (tested - always)
                         + (never,) * (never + 1 - tested))
        self.stop = stop
        self.budget = budget
        self.best = best
        self.best_members: tuple[int, ...] = ()
        self.nodes = 0
        # the sizes of the nodes whose children may be queued as roots
        self.split = (SPLIT_DEPTH - 1, SPLIT_DEPTH) if split else ()
        self.roots = []  # queued roots: (``run`` arguments, nodes before)
        # the words from ``half`` on hold the top element; ``cap`` is g(m - 1,
        # k) of this search's model and group, read at SPLIT_MIN_NODES nodes
        self.half = (1 << m) >> 1
        self.cap = None

    def search(self):
        """Visit the empty family, whose candidates are every word of the
        ground and whose reach is every pair."""
        self.run([], (1 << (1 << self.m)) - 1, 0, 0, (1 << len(self.holders)) - 1)

    def run(self, members, cands, used, twice, reach):
        """Visit the family ``members``.  ``used`` is the OR of ``pairs``
        over the members and ``twice`` holds the pairs that two or more of
        them hold, so member x's witnesses are ``pairs[x] & ~twice``.
        ``cands`` is the mask of the words that can be added: each keeps a
        witness of its own, ``pairs[w] & ~used``, and leaves every member
        one.  ``reach`` is the OR of ``pairs`` over the candidates.

        The bounds are tested here only for the children, in the candidate
        loop, so every visited node can beat the best by its own size and
        candidates."""
        self.nodes += 1
        if self.nodes == SPLIT_MIN_NODES and self.cap is None:
            self.cap = _half_cap(self.m - 1, self.k, self.owned, self.group, self.budget)
        # the budget is checked on the first node, then on every 1024th
        if self.budget.expired or (self.nodes & 1023 == 1 and self.budget.check()):
            return
        s = len(members)
        if s > self.best:
            self.best = s
            self.best_members = tuple(members)
            if s >= self.stop:
                return
        pairs = self.pairs
        pair_bytes = self.pair_bytes
        holder_bytes = self.holder_bytes
        memo = self.kills.get
        free = reach & ~used
        min_left = self.min_left[s]
        # whether the children are roots, which may be queued
        queue = s in self.split
        later = cands
        left = cands.bit_count()
        # Each side of the top element holds at most cap words of a family
        # below a child (see the module docstring).  The children from half
        # on hold it, and once the members below half and cap words above it
        # cannot beat the best, none of them can.  Best and cap change only
        # in a visited child, so ``cut`` is renewed after each.
        cap = self.cap
        below = 0 if cap is None else bisect_left(members, self.half)
        cut = cap is not None and below + cap <= self.best
        # the children in increasing word order: the lowest bit of later
        while later:
            low = later & -later
            later ^= low
            left -= 1
            w = low.bit_length() - 1
            if cut and w >= self.half:
                return
            # The child holds at most the ``left`` later words and needs
            # ``need`` of them to beat the best.  ``slack`` is how many it
            # may still lose; best only grows and later children have fewer
            # words, so once it is negative no later child can do better
            # either.
            need = self.best - s
            slack = left - need
            if slack < 0:
                return
            # Each word added below the child takes a free pair of its own
            # that w does not hold (see the module docstring); the child's
            # candidates are some of ours.
            pw = pairs[w]
            fw = free & ~pw
            if fw.bit_count() < need:
                continue
            if left >= min_left and not is_canonical((*members, w), self.m, self.group):
                continue
            # The child's candidates (see the module docstring): its slack
            # goes first to the later words that kill w, then to those that
            # kill a member w shrinks, then to those left with no free pair.
            shared = pw & used
            fresh = shared & ~twice
            child_twice = twice | shared
            # a kill mask is never 0, as a word holds its own pairs
            u = pw & ~used
            dead = (memo(u) or self.killers(u)) & later
            if fresh and dead.bit_count() <= slack:
                for x in members:
                    px = pairs[x]
                    if px & fresh:
                        u = px & ~child_twice
                        dead |= (memo(u) or self.killers(u)) & later
                        if dead.bit_count() > slack:
                            break
            slack -= dead.bit_count()
            if slack < 0:
                continue
            # A later word can join while it holds a pair of fw: its pairs
            # lie in reach, so one outside used and pw is in fw.  From the
            # byte tables, the words holding a pair of fw take one lookup
            # per byte of fw, and their reach one per byte of the word mask
            # above w; when fw spans more bytes than there are words left,
            # as in most k >= 3 tables, walking the words takes fewer steps.
            child = rest = later & ~dead
            words = rest.bit_count()
            if (fw.bit_length() + 7) >> 3 <= words:
                keep = 0
                x = fw
                for t in holder_bytes:
                    keep |= t[x & 255]
                    x >>= 8
                    if not x:
                        break
                child &= keep
                slack -= words - child.bit_count()
                if slack < 0:
                    continue
                # the child's words lie above w, from the byte of w + 1 on
                child_reach = 0
                j = (w + 1) >> 3
                x = child >> (j << 3)
                while x:
                    child_reach |= pair_bytes[j][x & 255]
                    x >>= 8
                    j += 1
            else:
                child_reach = 0
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    p2 = pairs[bit.bit_length() - 1]
                    if p2 & fw:
                        child_reach |= p2
                    else:
                        child ^= bit
                        slack -= 1
                        if slack < 0:
                            break
                if slack < 0:
                    continue
            # With no slack left every later word must join, so the only
            # family that can beat the best is the members, w and all of
            # child: it fails unless w and every member keep a pair that no
            # other of its words holds.
            if slack == 0 and not self.completes(w, members, child_twice | child_reach):
                continue
            # Below half the members lie below it too, so the child's words
            # there are the members, w and ``under - s - 1`` of child, and
            # ``above`` above it.  From half on ``cut`` decides, as a child
            # that passed the tests above beats the best by its own words.
            if cap is not None and w < self.half:
                above = (child >> self.half).bit_count()
                under = s + 1 + child.bit_count() - above
                if (under if under < cap else cap) + (above if above < cap else cap) <= self.best:
                    continue
            members.append(w)
            # a root is queued once a family of its size has been reached
            if queue and self.nodes >= SPLIT_MIN_NODES and self.best > s:
                args = (members[:], child, used | pw, child_twice, child_reach)
                self.roots.append((args, self.nodes))
            else:
                self.run(members, child, used | pw, child_twice, child_reach)
            members.pop()
            if self.budget.expired or self.best >= self.stop:
                return
            if not cut and self.cap is not None:
                if cap is None:
                    cap = self.cap
                    below = bisect_left(members, self.half)
                cut = below + cap <= self.best

    def completes(self, w, members, held):
        """Whether the new word w and every member keep a pair outside
        ``held``, the pairs that two or more of them hold or that a word
        still to join holds."""
        pairs = self.pairs
        free = ~held
        if not pairs[w] & free:
            return False
        for x in members:
            if not pairs[x] & free:
                return False
        return True

    def killers(self, u):
        """The mask of the words that hold every pair of u, the AND of
        ``holders`` over them: adding one leaves a member whose witnesses
        are u none.  Stored in the memo ``kills``, which ``run`` reads
        first and which is cleared once it holds KILLS_MEMO_SIZE masks."""
        holders = self.holders
        dead = -1
        rest = u
        while rest:
            low = rest & -rest
            dead &= holders[low.bit_length() - 1]
            rest ^= low
        kills = self.kills
        if len(kills) >= KILLS_MEMO_SIZE:
            kills.clear()
        kills[u] = dead
        return dead


def _search(m, k, group, best, stop, budget, owned=False):
    """Run the DFS from the empty family, whose candidates are every word
    of the m-ground and whose reach is every pair, and then the roots it
    queued, under ``budget``, a _Budget, to beat ``best`` and stop at
    ``stop`` members.  Returns (members, exhausted, nodes): members is the
    first family in DFS order that beats ``best`` with the most members up
    to ``stop``, the best so far on expiry, and () if none beats it."""
    dfs = _DFS(m, k, owned, group, best, stop, budget, split=True)
    dfs.search()
    if dfs.roots and not budget.expired:
        _run_roots(dfs)
    return dfs.best_members, not budget.expired, dfs.nodes


# g(m, k) per (m, k, owned, group), each proved by a DFS of its own
_half_caps = {}


def _half_cap(m, k, owned, group, budget):
    """The most members of a family on the m-ground in the witness model
    ``owned``, proved by an unsplit DFS under ``group`` and ``budget`` and
    cached; None, and nothing cached, if the budget expires.  Its nodes are
    not counted by the search that asks."""
    key = (m, k, owned, group)
    if key not in _half_caps:
        dfs = _DFS(m, k, owned, group, 0, (1 << m) + 1, budget)
        dfs.search()
        if budget.expired:
            return None
        _half_caps[key] = dfs.best
    return _half_caps[key]


def _run_roots(dfs):
    """Run the roots ``dfs`` queued, each as its own DFS from the best
    reached before them, and merge their results in root order.

    Nodes are summed; the best changes only on a strictly better root, and
    once it reaches ``stop`` the nodes count up to that root.  An expired
    budget in any root expires the search.  When SPLIT_MIN_ROOTS or more
    are queued, ``_share`` runs them with a helper from the start.
    """
    roots, start, stop, budget = dfs.roots, dfs.best, dfs.stop, dfs.budget

    def run(i):
        job = _DFS(dfs.m, dfs.k, dfs.owned, dfs.group, start, stop, budget)
        job.cap = dfs.cap
        job.run(*roots[i][0])
        return job.nodes, job.best_members, budget.expired

    done = {}
    if len(roots) >= SPLIT_MIN_ROOTS and _helper_allowed():
        done = _share(run, 0, len(roots), stop)
    extra = 0
    for i, (_, at) in enumerate(roots):
        if i not in done:
            if budget.expired:
                break
            done[i] = run(i)
        nodes, found, expired = done[i]
        extra += nodes
        budget.expired = budget.expired or expired
        if len(found) > dfs.best:
            dfs.best, dfs.best_members = len(found), found
            if dfs.best >= stop:
                dfs.nodes = at + extra
                return
    dfs.nodes += extra


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _helper_allowed() -> bool:
    """A helper is forked only into a single-threaded process with a second
    CPU to run on."""
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork")
        and _usable_cpus() >= 2
        and (threading is None or threading.active_count() == 1)
    )


def _share(run, lo, hi, stop):
    """Run roots lo, lo + 1, ... here while one forked helper runs hi - 1,
    hi - 2, ...; returns {root: run(root)} for the roots either finished.

    A shared byte per root marks it taken, and each side stops at the first
    root the other took; a root both took runs twice, with the same result.
    The helper sends its results through a pipe and exits.  When this side
    finds a family of ``stop`` members (the helper's roots are later ones)
    or is interrupted, the helper is killed instead.  It is always reaped,
    and it stops between roots if this process is gone.
    """
    import marshal
    import mmap
    import signal

    taken = mmap.mmap(-1, hi)
    rfd, wfd = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        taken.close()
        return {}
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            out = {}
            for i in range(hi - 1, lo - 1, -1):
                if taken[i] or os.getppid() != parent:
                    break
                taken[i] = 1
                out[i] = res = run(i)
                if res[2]:
                    break
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(marshal.dumps(out))
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    done = {}
    data = None
    try:
        found = False
        for i in range(lo, hi):
            if taken[i]:
                break
            taken[i] = 1
            done[i] = res = run(i)
            found = len(res[1]) >= stop
            if found or res[2]:
                break
        if not found:
            with os.fdopen(rfd, "rb", closefd=False) as pipe:
                data = pipe.read()
    finally:
        os.close(rfd)
        if data is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        taken.close()
    try:
        theirs = marshal.loads(data) if data else {}
    except (EOFError, ValueError, TypeError):
        theirs = {}
    return {**theirs, **done}


def max_nice_size(
    m: int,
    k: int,
    budget_ms: int | None = None,
    use_symmetry: bool = True,
) -> SearchReport:
    """Largest family of distinct subsets of an m-ground in which every
    member has a separator of size <= k, by exhaustive symmetry-reduced DFS.

    The example is the lexicographically least optimum visited.
    """
    return _max_family(m, k, budget_ms, use_symmetry, PERMUTATIONS_AND_SWITCHING, owned=False)


def _max_family(m, k, budget_ms, use_symmetry, group, owned) -> SearchReport:
    _check_mk(m, k)
    group = group if use_symmetry else None
    members, exhausted, nodes = _search(
        m, k, group, 0, (1 << m) + 1, _Budget(budget_ms), owned=owned
    )
    return SearchReport(
        len(members), Family(m, members), exhausted, nodes, wall_budget_ms=budget_ms
    )


def exists_nice_of_size(
    m: int,
    k: int,
    target_n: int,
    budget_ms: int | None = None,
    use_symmetry: bool = True,
) -> ExistenceResult:
    """Decision form of max_nice_size with early exit on the first witness."""
    _check_mk(m, k)
    if target_n < 0:
        raise ValueError(f"target_n must be >= 0, got {target_n}")
    if target_n > 1 << m:
        return ExistenceResult(None, True, 0)  # more members than distinct subsets
    group = PERMUTATIONS_AND_SWITCHING if use_symmetry else None
    return _exists(m, k, target_n, group, _Budget(budget_ms))


def _exists(m, k, target_n, group, budget) -> ExistenceResult:
    members, exhausted, nodes = _search(m, k, group, target_n - 1, target_n, budget)
    return ExistenceResult(
        Family(m, members) if len(members) == target_n else None, exhausted, nodes
    )


def min_m_hyperseparating(
    n: int,
    k: int,
    m_max: int,
    budget_ms: int | None = None,
) -> SearchReport:
    """Smallest m <= m_max carrying a nice-for-k family of n distinct
    subsets; by duality this is the minimum k-hyperseparating system size.

    The example is the primal system (the dual of the found family).  Levels
    below ceil(log2 n) cannot hold n distinct subsets and are skipped.
    """
    _require_n(n)
    _check_mk(m_max, k)  # before 1 << m_max, and before any level runs
    if n > 1 << m_max:
        raise ValueError(f"n = {n} exceeds 2^m_max = {1 << m_max}")
    budget = _Budget(budget_ms)  # one deadline for every level
    nodes = 0
    levels: list[tuple[int, str]] = []
    for m in range(1, m_max + 1):
        if n > 1 << m:
            levels.append((m, "infeasible"))
            continue
        res = _exists(m, k, n, PERMUTATIONS_AND_SWITCHING, budget)
        nodes += res.nodes_visited
        levels.append((m, res.status))
        if res.family is not None:
            return SearchReport(
                m, dual(res.family), not budget.expired, nodes,
                wall_budget_ms=budget_ms, levels=tuple(levels),
            )
        if budget.expired:
            break
    return SearchReport(
        None, None, not budget.expired, nodes, wall_budget_ms=budget_ms, levels=tuple(levels)
    )


def max_unique_subset_family(
    m: int,
    k: int,
    budget_ms: int | None = None,
    use_symmetry: bool = True,
) -> SearchReport:
    """Largest family of distinct subsets where each member owns a subset of
    size <= k contained in no other member.

    Symmetry reduction uses relabelings only; switching does not preserve
    the ownership property.
    """
    return _max_family(m, k, budget_ms, use_symmetry, PERMUTATIONS_ONLY, owned=True)


def max_pair_family(m: int, k: int) -> SearchReport:
    """Largest family of distinct (separator, key) pairs with per-key
    Sperner separators of size <= k, built without a search: by LYM (see
    ``bounds``) each key, in word order, takes its separators in word order
    from the lowest largest level that fits, the lexicographically least
    optimum.  More than PAIR_FAMILY_CAP pairs are refused before any is built."""
    _check_ground(m)
    best = bounds.pair_family_size(m, k)
    if best > PAIR_FAMILY_CAP:
        raise CapacityError(f"max-pair-family({m},{k}) has {best} pairs, above {PAIR_FAMILY_CAP}")
    pairs = []
    for key in sorted(w for j in range(min(k, m) + 1) for w in words_of_size(m, j)):
        j = key.bit_count()
        level = words_of_size(m, min(k - j, (m - j) // 2))
        pairs += [SeparatorWitness(key | t, key) for t in level if not t & key]
    return SearchReport(best, None, True, 0, example_pairs=tuple(pairs))


def _check_mk(m: int, k: int) -> None:
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > SEARCH_MAX_GROUND:
        raise CapacityError(f"m = {m} exceeds the exhaustive-search cap of {SEARCH_MAX_GROUND}")
    _require_k(k)
