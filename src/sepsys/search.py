"""Exhaustive and branch-and-bound searches with symmetry reduction.

The searches re-derive the small-case extremal values independently of the
closed-form formulas.  Families are built as strictly increasing sequences
of member words, which kills member-permutation duplicates for free; on top
of that, prefixes of up to SYMMETRY_DEPTH words must be canonical under the
applicable symmetry group (orderly generation, Read 1978), as decided by
``core.is_canonical``.  This is sound because the lexicographically least
member of any orbit has only canonical prefixes: inserting the image of
its largest word into a smaller sorted list keeps that list smaller.

Every problem runs on one witness model, forward-checked (Haralick &
Elliott 1980).  A witness is a set S of at most k elements; it serves
member x while S meets x ^ w for every other member w, i.e. while x's key
x & S is its own.  Each node carries per-member masks of surviving
witnesses, and its candidate list holds only words that keep a witness of
their own and leave every member one.  Masks only shrink as members are
added, so a word that fails this test fails it in every descendant; it is
dropped when the child's list is built, and the cardinality bound
``size + candidates`` counts only addable words.  The witnesses and their
masks come from ``verify.separator_table``, which owns the table that
``is_nice`` reads too.

Nice families start every word with every witness.  A member that must own
a subset T of itself, contained in no other member, starts with the
witnesses inside it: for T <= x, (x ^ w) & T == 0 exactly when T <= w.  A
pair family is, per key, such a search over separators of at most k
elements; each owns itself, so it keeps a witness while it is incomparable
with every other member.

A second bound is the paper's count behind g(m,2) <= C(m,2): each member
needs a (witness, key) pair of its own.  A pair (S, key) is free while no
member's key on S equals it.  A word added below a node ends with a
witness S on which its key y & S is its own, so that pair is free at the
node, held by one of its candidates, and held by no other added word.  A
node therefore carries ``used``, the pairs its members hold, and
``reach``, the pairs its candidates hold; a child w needs as many more
words as there are free pairs in ``reach`` that w does not take.  An
owned witness T is the pair (T, T), so the count holds in every mode.

Both bounds are tested in the parent's candidate loop, before a child is
expanded (Carraghan & Pardalos 1990), and the pair count before its
canonical-prefix test: a child that cannot beat the best (or reach the
target) is never built, and building stops as soon as enough later words
have been dropped to make it hopeless.

Reports are deterministic: a branch is cut only when it cannot beat the
best found before it strictly, so the example reported is the first optimum
in DFS order.

Roots are the families of SPLIT_DEPTH members.  The DFS walks the first
root, and the next ones until SPLIT_MIN_NODES nodes are visited, with one
best shared by every branch.  It queues each later root that passes the
tests of its parents by its prefix alone.  Each queued root then runs as
its own DFS, from the best reached before the queue or towards the target,
and the results merge in root order (parallel DFS by splitting the tree,
Rao & Kumar 1987).  A root's result and node count depend only on its
prefix and that starting best, so results and node counts are the same for
any number of workers.  A helper process runs roots from the back of the
queue while this one runs them from the front.  It is forked once the
queued roots run here have visited SPLIT_MIN_NODES nodes and two or more
are left, and only where ``os.fork`` exists, at least two CPUs are usable
and the process runs a single thread.
"""

from __future__ import annotations

import os
import sys
import time
from functools import lru_cache

from .core import (
    CapacityError,
    Family,
    PERMUTATIONS_AND_SWITCHING,
    PERMUTATIONS_ONLY,
    SeparatorWitness,
    dual,
    is_canonical,
)
from .core import Value, _set
from .verify import separator_table

SYMMETRY_DEPTH = 5  # measured: depth 4 visits 3.5x the nodes, depth 6 doubles cold g(6,2)
SEARCH_MAX_GROUND = 6  # the largest m any search accepts
# Roots are the families of SPLIT_DEPTH members; splitting deeper would
# queue single-digit subtrees in the symmetric searches.  SPLIT_MIN_NODES
# is about the DFS work that pays for one helper: a fork, its join and the
# copy-on-write faults that follow cost about 3.5 ms in a 15 MB process
# (2-vCPU host, CPython 3.11), and 256 nodes take about 3.3 ms.
SPLIT_DEPTH = 2
SPLIT_MIN_NODES = 256


class SearchReport(Value):
    """Result of an extremal search.

    ``exhausted`` is True only when the full symmetry-reduced space was
    covered, making ``best`` a proven optimum; it is False whenever the wall
    budget expired first.  ``nodes_visited`` counts the nodes the DFS
    visited, a deterministic number for a search that ran to the end.
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
def _witness_tables(m: int, k: int):
    """The witness table of the m-ground, its two starting masks and the
    pair masks, read off ``verify.separator_table``.

    Witnesses are all words of at most k bits.  ``keep[w][x]`` is the mask
    of member x's witnesses that survive when member w is added: those that
    meet x ^ w.  ``full`` holds every witness and ``own[w]`` those inside w,
    i.e. disjoint from its complement.  On a mask inside ``own[x]``,
    ``keep[w][x]`` kills exactly the witnesses contained in w, so owned
    subsets need no table of their own.

    A pair is a witness S with a key, a subset of S; each witness owns a
    run of 2^|S| bits, in table order, one per key.  ``pairs[w]`` holds the
    pair (S, w & S) of every witness S, so two words share the bit of S
    exactly when their keys on S are equal.
    """
    seps, meet = separator_table(m, k)
    words = range(1 << m)
    full = (1 << len(seps)) - 1
    keep = tuple(tuple(meet[x ^ w] for x in words) for w in words)
    own = tuple(full & ~meet[w ^ words[-1]] for w in words)
    pairs = [0] * len(words)
    base = 0
    for S in seps:
        # the bit of each key of S: its rank among the subsets of S
        bit = {}
        key = S
        while True:
            bit[key] = 1 << (base + len(bit))
            if not key:
                break
            key = (key - 1) & S
        base += len(bit)
        for w in words:
            pairs[w] |= bit[w & S]
    return keep, full, own, tuple(pairs)


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
    DFS order.  With a target, the search stops at the first family of that
    size.  Prefixes of length <= SYMMETRY_DEPTH must be canonical under
    ``group``; ``group=None`` turns the reduction off.
    """

    __slots__ = (
        "keep", "pairs", "m", "group", "sym_depth", "target", "budget",
        "best", "best_members", "nodes", "found", "roots",
    )

    def __init__(self, keep, pairs, m, group, target, budget):
        self.keep = keep
        self.pairs = pairs
        self.m = m
        self.group = group
        self.sym_depth = 0 if group is None else SYMMETRY_DEPTH
        self.target = target
        self.budget = budget
        self.best = 0
        self.best_members: tuple[int, ...] = ()
        self.nodes = 0
        self.found = None
        # None: run every root here; a list: queue later roots into it
        self.roots = None

    def run(self, members, survs, cands, used, reach):
        """Visit the family ``members``: ``survs[i]`` is the mask of member
        i's surviving witnesses, ``cands`` the (word, witness mask) pairs
        that can be added: each keeps a witness of its own and leaves every
        member one.  ``used`` is the OR of ``pairs`` over the members and
        ``reach`` the OR over the candidates.

        The bounds are tested here only for the children, in the candidate
        loop, so every visited node can beat the best (or reach the target)
        by its own size and candidates."""
        self.nodes += 1
        # the budget is checked on the first node, then on every 1024th
        if self.budget.expired or (self.nodes & 1023 == 1 and self.budget.check()):
            return
        s = len(members)
        if s > self.best:
            self.best = s
            self.best_members = tuple(members)
        target = self.target
        if target is not None and s >= target:
            self.found = tuple(members)
            return
        keep = self.keep
        pairs = self.pairs
        free = reach & ~used
        check_prefix = s < self.sym_depth
        # a list while the children are roots that ``_search`` may queue
        queue = self.roots if s == SPLIT_DEPTH - 1 else None
        last = len(cands) - 1
        for idx, (w, alive) in enumerate(cands):
            # Child idx holds at most the last - idx later words and needs
            # ``need`` of them to beat the best (or to reach the target).
            # ``slack`` is how many it may still lose; best only grows and
            # later children have fewer words, so once it is negative no
            # later child can do better either.
            need = self.best - s if target is None else target - s - 1
            slack = last - idx - need
            if slack < 0:
                return
            # Each word added below the child takes a free pair of its own
            # that w does not hold (see the module docstring); the child's
            # candidates are some of ours.
            pw = pairs[w]
            if (free & ~pw).bit_count() < need:
                continue
            if check_prefix and not is_canonical((*members, w), self.m, self.group):
                continue
            kw = keep[w]
            # A later word stays a candidate only if it keeps a witness of its
            # own and leaves one to w and to every member whose mask just
            # shrank; it left one to the other members when ``cands`` was built.
            new_survs = []
            shrunk = [(w, alive)]
            for x, sv in zip(members, survs):
                ns = sv & kw[x]
                new_survs.append(ns)
                if ns != sv:
                    shrunk.append((x, ns))
            child = []
            child_reach = 0
            for w2, a2 in cands[idx + 1:]:
                a = a2 & kw[w2]
                if a:
                    k2 = keep[w2]
                    for x, ns in shrunk:
                        if not ns & k2[x]:
                            break
                    else:
                        child.append((w2, a))
                        child_reach |= pairs[w2]
                        continue
                slack -= 1
                if slack < 0:
                    break
            if slack < 0:
                continue
            new_survs.append(alive)
            members.append(w)
            # best >= SPLIT_DEPTH once the first root has been visited
            if queue is not None and self.nodes >= SPLIT_MIN_NODES and self.best >= SPLIT_DEPTH:
                queue.append((tuple(members), self.nodes))
            else:
                self.run(members, new_survs, child, used | pw, child_reach)
            members.pop()
            if self.budget.expired or self.found is not None:
                return


def _search(m, k, group, target, budget, words=None, owned=False):
    """Run the DFS from the empty family under ``budget``, a _Budget.

    The candidates are ``words`` (by default every word of the m-ground),
    each starting with every witness, or with only those inside it when
    ``owned``.  Returns (members, exhausted, nodes): members is the first
    optimum in DFS order (the best so far on expiry), or with a target the
    first family of that size, None if there is none.

    Roots queued by the DFS run in ``_run_roots``; the results and node
    counts do not depend on which process ran them.
    """
    keep, full, own, pairs = _witness_tables(m, k)
    words = range(1 << m) if words is None else words
    cands = [(w, own[w] if owned else full) for w in words]
    reach = 0
    for w in words:
        reach |= pairs[w]
    dfs = _DFS(keep, pairs, m, group, target, budget)
    dfs.roots = []
    dfs.run([], [], cands, 0, reach)
    if dfs.roots and not budget.expired:
        _run_roots(dfs, cands)
    members = dfs.best_members if target is None else dfs.found
    return members, not budget.expired, dfs.nodes


def _replay(keep, pairs, cands, prefix):
    """The arguments ``_DFS.run`` visits the family ``prefix`` with, rebuilt
    from the top-level candidates ``cands``.  Checking a later word against
    every member, not only those whose masks shrank, keeps the same words."""
    members, survs, used = [], [], 0
    for w in prefix:
        idx = next(i for i, (x, _) in enumerate(cands) if x == w)
        kw = keep[w]
        survs = [sv & kw[x] for x, sv in zip(members, survs)]
        survs.append(cands[idx][1])
        members.append(w)
        used |= pairs[w]
        cands = [
            (w2, a) for w2, a2 in cands[idx + 1:]
            if (a := a2 & kw[w2]) and all(ns & keep[w2][x] for x, ns in zip(members, survs))
        ]
    reach = 0
    for w, _ in cands:
        reach |= pairs[w]
    return members, survs, cands, used, reach


def _run_roots(dfs, cands):
    """Run the roots ``dfs`` queued, each as its own DFS from the best
    reached before them (or towards the target), and merge their results in
    root order.

    A root's nodes and result depend only on its prefix and that starting
    best, so they are the same whichever process runs it.  Nodes are summed,
    with a target up to the first root that found one; the best changes
    only on a strict improvement, and an expired budget in any root
    expires the search.  Roots run here in order until they have visited
    SPLIT_MIN_NODES nodes; if two or more are left then, ``_share`` runs
    them with a helper.
    """
    roots, start, target, budget = dfs.roots, dfs.best, dfs.target, dfs.budget

    def run(i):
        job = _DFS(dfs.keep, dfs.pairs, dfs.m, dfs.group, target, budget)
        job.best = start
        job.run(*_replay(dfs.keep, dfs.pairs, cands, roots[i][0]))
        found = job.best_members if target is None else job.found
        return job.nodes, found or None, budget.expired

    done = {}
    shared = False
    extra = 0
    for i, (_, at) in enumerate(roots):
        if i not in done:
            if budget.expired:
                break
            if not shared and extra >= SPLIT_MIN_NODES and len(roots) - i > 1:
                shared = True
                if _helper_allowed():
                    done = _share(run, i, len(roots), target is not None)
            if i not in done:
                done[i] = run(i)
        nodes, found, expired = done[i]
        extra += nodes
        budget.expired = budget.expired or expired
        if found is None:
            continue
        if target is not None:
            dfs.found, dfs.nodes = found, at + extra
            return
        if len(found) > dfs.best:
            dfs.best, dfs.best_members = len(found), found
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


def _share(run, lo, hi, target):
    """Run roots lo, lo + 1, ... here while one forked helper runs hi - 1,
    hi - 2, ...; returns {root: run(root)} for the roots either finished.

    A shared byte per root marks it taken, and each side stops at the first
    root the other took; a root both took runs twice, with the same result.
    The helper sends its results through a pipe and exits.  When this side
    finds the target (the helper's roots are later ones) or is interrupted,
    the helper is killed instead.  It is always reaped, and it stops between
    roots if this process is gone.
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
            found = target and res[1] is not None
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
    _check_mk(m, k, m_cap=SEARCH_MAX_GROUND)
    group = PERMUTATIONS_AND_SWITCHING if use_symmetry else None
    members, exhausted, nodes = _search(m, k, group, None, _Budget(budget_ms))
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
    _check_mk(m, k, m_cap=SEARCH_MAX_GROUND)
    if target_n < 0:
        raise ValueError(f"target_n must be >= 0, got {target_n}")
    if target_n > 1 << m:
        return ExistenceResult(None, True, 0)  # more members than distinct subsets
    group = PERMUTATIONS_AND_SWITCHING if use_symmetry else None
    return _exists(m, k, target_n, group, _Budget(budget_ms))


def _exists(m, k, target_n, group, budget) -> ExistenceResult:
    members, exhausted, nodes = _search(m, k, group, target_n, budget)
    return ExistenceResult(
        None if members is None else Family(m, members), exhausted, nodes
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
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_mk(m_max, k, m_cap=SEARCH_MAX_GROUND)  # before 1 << m_max, and before any level runs
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
    # Not a cost limit: measured at m = 6, k = 1..3 exhausts in 37-879 nodes
    # and at most 30 ms, at C(6, k'(6, k)).  It stays one below
    # SEARCH_MAX_GROUND only because raising a public cap is its own change.
    _check_mk(m, k, m_cap=5)
    group = PERMUTATIONS_ONLY if use_symmetry else None
    members, exhausted, nodes = _search(m, k, group, None, _Budget(budget_ms), owned=True)
    return SearchReport(
        len(members), Family(m, members), exhausted, nodes, wall_budget_ms=budget_ms
    )


def max_pair_family(m: int, k: int) -> SearchReport:
    """Largest family of distinct (separator, key) pairs with per-key
    Sperner separators of size <= k.

    Keys constrain nothing across groups, so the optimum decomposes as an
    independent maximum antichain per key.  Each is an owned-subset search
    over the separators carrying the key: a separator owns itself, so it
    keeps a witness exactly while it is incomparable with the others.
    """
    if not 1 <= k <= 2:
        raise ValueError(f"k must be 1 or 2, got {k}")
    if not 1 <= m <= SEARCH_MAX_GROUND:
        raise CapacityError(f"m must be in 1..{SEARCH_MAX_GROUND}, got {m}")
    words = range(1 << m)
    budget = _Budget(None)
    nodes = 0
    pairs: list[SeparatorWitness] = []
    for key in words:
        if key.bit_count() > k:
            continue
        seps = [S for S in words if S & key == key and S.bit_count() <= k]
        members, _, n = _search(m, k, None, None, budget, words=seps, owned=True)
        nodes += n
        pairs.extend(SeparatorWitness(S, key) for S in members)
    return SearchReport(len(pairs), None, True, nodes, example_pairs=tuple(pairs))


def _check_mk(m: int, k: int, m_cap: int) -> None:
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > m_cap:
        raise CapacityError(f"m = {m} exceeds the exhaustive-search cap of {m_cap}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
