"""In-memory call spans around sepsys's public functions, and the per-layer
numbers derived from them.

A span is ``[name, start, end, parent, nodes]``: ``start``/``end`` come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans written by a child
process line up with the parent's), ``parent`` is the index of the enclosing
span or -1, and ``nodes`` is the search report's ``nodes_visited`` for
search-layer spans.  The first dotted component of a span name is its layer;
``bench.*`` spans are the benchmark's own operations and belong to no layer.

``install`` swaps each public function listed in ``LAYERS`` for a wrapper
wherever a ``sepsys`` module holds it by name, so calls between modules (for
example ``canonical_form`` as imported by ``sepsys.search``) are recorded too.
The program's own code is not changed; ``uninstall`` restores it.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = {
    "search": (
        "max_nice_size",
        "exists_nice_of_size",
        "min_m_hyperseparating",
        "max_unique_subset_family",
        "max_pair_family",
    ),
    "core": (
        "canonical_form",
        "dual",
        "switch",
        "relabel",
        "new_family",
        "family_from_words",
        "is_proper",
        "is_sperner",
    ),
    "verify": (
        "is_separating",
        "is_completely_separating",
        "is_k_hypercompletely_separating",
        "is_k_hyperseparating",
        "is_nice",
        "recheck_certificate",
    ),
    "construct": (
        "binary_separating",
        "spencer_completely_separating",
        "k_hcs_minimal",
        "nice_small_m",
        "hyperseparating_minimal_2",
        "antichain_lift",
        "proof_step_reduction",
    ),
    "bounds": (
        "binom",
        "k_prime",
        "min_m_hcs",
        "separating_min",
        "spencer_min",
        "f2_exact",
        "f_bounds",
    ),
    "cli": ("parse_family", "emit_family"),
}

ORACLES = (
    "is_separating",
    "is_completely_separating",
    "is_k_hypercompletely_separating",
    "is_k_hyperseparating",
    "is_nice",
)

CLI_SUBCOMMANDS = ("table", "search", "canon", "construct", "verify")


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_nodes = name.startswith("search.")

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counts_nodes:
                rec[4] = result.nodes_visited
            return result

        traced.__wrapped__ = fn
        return traced

    def add_spans(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, nodes in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base, nodes])


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every function in LAYERS; returns the undo list for uninstall."""
    mods = [m for n, m in sorted(sys.modules.items()) if n == "sepsys" or n.startswith("sepsys.")]
    undo = []
    for layer, names in LAYERS.items():
        home = sys.modules[f"sepsys.{layer}"]
        for fname in names:
            orig = getattr(home, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, attr, orig in reversed(undo):
        setattr(mod, attr, orig)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list], jobs) -> dict[str, float]:
    """Per-layer numbers for one traced pass.

    ``<layer>.calls`` counts entries into the layer (spans with no enclosing
    span of the same layer); ``<layer>.busy_s`` is self time, each span's
    duration minus the durations of the spans directly inside it.  Per-name
    ``.s`` figures are inclusive and count a name once where it nests in
    itself.  Search nodes are the entry calls' ``nodes_visited``, attributed
    to the enclosing ``bench.<job>`` span.
    """
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def ancestor(i, pred):
        p = spans[i][3]
        while p >= 0:
            if pred(spans[p][0]):
                return p
            p = spans[p][3]
        return -1

    layer_names = tuple(LAYERS)
    calls = dict.fromkeys(layer_names, 0)
    busy = dict.fromkeys(layer_names, 0.0)
    incl: dict[str, float] = {}
    by_job = dict.fromkeys(jobs, 0)
    search_s = canon_in_search_s = 0.0
    canon_calls = 0
    nodes = 0
    cmd_ms: dict[str, list[float]] = {c: [] for c in CLI_SUBCOMMANDS}
    startup_ms: list[float] = []
    for i, (name, start, end, _, nv) in enumerate(spans):
        layer = _layer(name)
        dur = end - start
        if name == "bench.startup":
            startup_ms.append(dur * 1000.0)
        if layer not in busy:
            continue
        busy[layer] += dur - child[i]
        if ancestor(i, lambda a: a == name) < 0:
            incl[name] = incl.get(name, 0.0) + dur
        if name == "core.canonical_form":
            canon_calls += 1
            if ancestor(i, lambda a: _layer(a) == "search") >= 0:
                canon_in_search_s += dur
        if name.startswith("cli.main."):
            cmd_ms[name[len("cli.main."):]].append(dur * 1000.0)
        if ancestor(i, lambda a: _layer(a) == layer) >= 0:
            continue
        calls[layer] += 1
        if layer == "search":
            search_s += dur
            nodes += nv
            job = ancestor(i, lambda a: a.startswith("bench."))
            key = spans[job][0][len("bench."):] if job >= 0 else None
            if key in by_job:
                by_job[key] += nv

    out: dict[str, float] = {}
    for layer in layer_names:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
    out["search.nodes"] = nodes
    for job in jobs:
        out[f"search.nodes.{job}"] = by_job[job]
    out["search.nodes_per_s"] = nodes / search_s if search_s else 0.0
    out["search.canonical_share"] = canon_in_search_s / search_s if search_s else 0.0
    out["core.canonical_form.calls"] = canon_calls
    out["core.canonical_form.s"] = incl.get("core.canonical_form", 0.0)
    for oracle in ORACLES:
        out[f"verify.{oracle}.s"] = incl.get(f"verify.{oracle}", 0.0)
    out["verify.recheck.s"] = incl.get("verify.recheck_certificate", 0.0)
    out["cli.parse_family.s"] = incl.get("cli.parse_family", 0.0)
    out["cli.emit_family.s"] = incl.get("cli.emit_family", 0.0)
    out["cli.startup_ms"] = statistics.median(startup_ms) if startup_ms else 0.0
    for sub, vals in cmd_ms.items():
        out[f"cli.cmd_ms.{sub}"] = statistics.median(vals) if vals else 0.0
    return out
