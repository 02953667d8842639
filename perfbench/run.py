"""sepsys benchmark: one workload per process, closed loop, one caller.

Usage, from the root of a checkout with the sources under ``src/``::

    python3 perfbench/run.py --workload {search-proofs,cli-m6,certify-io} \\
        --seed N --seconds S --trace {0,1}

The seed builds the workload's inputs (see workloads.py).  After set-up the
run repeats passes over the workload's fixed step list until ``--seconds``
would be exceeded (but makes at least ``MIN_PASSES`` passes), checks every
output against a known value and prints, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Their times are normalised to
the host's speed during each operation, measured by a probe that runs inside
the measured process (see hostprobe.py), because raw wall times on a shared
host spread by more than a quarter between runs of the same code.

- ``pass_s``       median normalised time of one pass over the step list;
- ``op_p50_ms``,
  ``op_p90_ms``    normalised latency of one operation (a search call, a CLI
                   command or a certify round-trip), pooled over the passes;
- ``setup_s``      median over fresh processes of the normalised time from
                   spawn through imports and the workload's warm-up call until
                   the process is ready;
- ``peak_rss_mb``  peak resident memory of this process and its children;
- ``ok_frac``      operations with a correct answer, exit code and finished
                   budget, over operations attempted.

``--trace 1`` alternates probed, untraced passes with traced ones and reports
the per-layer metrics of the traced ones (see tracing.py), plus, from the
untraced passes, ``host.wall_s``, the raw median pass wall time less the
probe's own time, and ``host.probe_ms``, the probe kernel's mean time, and
``trace.overhead_frac``, the traced pass wall time over ``host.wall_s``.

Every run also writes a record with the seed, machine info, raw and
normalised times of every pass and operation and, when traced, the spans of
the last traced pass to
``perfbench/results/BENCH_<workload>_seed<seed>_trace<0|1>.json``.  Any wrong
output makes ``correct`` false and the exit code 1.  Without sources under
``src/`` the run prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import suppress

import hostprobe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("search-proofs", "cli-m6", "certify-io")
SETUP_PROBES = 7
# search-proofs has 9 operations a pass, one of them g(5,3); from three passes
# on, op_p90_ms falls inside the g(5,3) cluster, with two it falls in the gap
# below it.  Three passes of search-proofs take about 36 s.
MIN_PASSES = 3
SETUP_CODE = (
    "import sys; sys.path[:0] = [{here!r}, {src!r}]; import workloads; "
    "workloads.warm_up({name!r}); print('ready', flush=True)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a reduced step list, for smoke tests")
    return p.parse_args(argv)


def measure_setup(name: str, env: dict[str, str]) -> tuple[float, float]:
    """Medians of the normalised and the raw seconds from spawning a fresh
    interpreter until it is ready."""
    code = SETUP_CODE.format(here=HERE, src=SRC, name=name)
    probe = hostprobe.Probe()
    probe.prime()
    samples_path = os.path.join(RESULTS, "setup_probe.json")
    env = hostprobe.child_env(env, samples_path)
    norm, raw = [], []
    for _ in range(SETUP_PROBES):
        with suppress(FileNotFoundError):
            os.remove(samples_path)
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        lo = len(probe.samples)
        probe.add_child(samples_path, until=ready)
        norm.append(probe.normalise(ready - start, lo, len(probe.samples)))
        raw.append(ready - start)
    return statistics.median(norm), statistics.median(raw)


def run_pass(steps, tracer, probe=None):
    """Run every step once.

    Returns the pass wall time, the per-step latencies, the per-step ranges
    ``(lo, hi)`` of the probe samples taken during each step, and the outputs.
    """
    clock = time.perf_counter
    lat, ranges, outs = [], [], []
    count = (lambda: len(probe.samples)) if probe is not None else (lambda: 0)
    start = clock()
    for st in steps:
        t0 = clock()
        lo = count()
        try:
            if tracer is None:
                out = st.run(None)
            else:
                with tracer.span(f"bench.{st.job}"):
                    out = st.run(tracer)
        except Exception as exc:  # a crashed operation is a failed one; its check reports it
            out = exc
        ranges.append((lo, count()))
        lat.append(clock() - t0)
        outs.append(out)
    return clock() - start, lat, ranges, outs


def check_pass(steps, outs) -> list[str]:
    errors = []
    for st, out in zip(steps, outs):
        if isinstance(out, Exception):
            err = f"raised {out!r}"
        else:
            try:
                err = st.check(out)
            except Exception as exc:  # malformed output
                err = f"check raised {exc!r}"
        if err is not None:
            errors.append(f"{st.job}: {err}")
    return errors


def machine_info() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **git_info(),
    }


def git_info() -> dict:
    """Revision and dirty flag of the checkout, or None outside a git work tree."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()

    try:
        if os.path.realpath(git("rev-parse", "--show-toplevel") or "/nonexistent") != os.path.realpath(ROOT):
            return {"git_rev": None, "git_dirty": None}
        return {
            "git_rev": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.TimeoutExpired):
        return {"git_rev": None, "git_dirty": None}


def unit(metric: str) -> str:
    """Unit of a metric, from its name."""
    if metric.endswith("nodes_per_s"):
        return "1/s"
    if metric.endswith(("_share", "_frac")):
        return "ratio"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ms") or ".cmd_ms." in metric:
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sepsys", "cli.py")):
        print(f"error: no sepsys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    env = workloads.cli_env(SRC)
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(args.workload, env)
    workloads.warm_up(args.workload)
    steps = workloads.build(args.workload, args.seed, args.tiny, SRC, RESULTS)
    sampled = [st.sample for st in steps]

    probe = hostprobe.Probe()
    passes, samples, per_layer, spans = [], [], [], []
    jobs = [st.job for st in steps if st.sample]
    errors: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                wall, lat, ranges, outs = run_pass(steps, tracer)
            finally:
                tracing.uninstall(undo)
        else:
            with probe.running():
                wall, lat, ranges, outs = run_pass(steps, None, probe)
        attempted += len(outs)
        errors += check_pass(steps, outs)
        if traced:
            passes.append({"traced": True, "wall_s": wall})
            per_layer.append(tracing.summarize(tracer.spans, workloads.SEARCH_JOBS))
            spans = tracer.spans  # the record keeps the last traced pass only
        else:
            norm = [probe.normalise(t, lo, hi) for t, (lo, hi) in zip(lat, ranges)]
            taken = [d for _, d in probe.samples[ranges[0][0] : ranges[-1][1]]]
            passes.append({
                "traced": False,
                "wall_s": wall,
                "pass_s": sum(norm),
                "probe_s": sum(taken),
                "probe_ms": statistics.fmean(taken) * 1000.0 if taken else None,
            })
            samples += [(t, n) for t, n, s in zip(lat, norm, sampled) if s]
        if len(passes) >= MIN_PASSES and time.perf_counter() + wall > deadline:
            break

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = {
            key: statistics.median(d[key] for d in per_layer) for key in per_layer[0]
        }
        host_wall = statistics.median(p["wall_s"] - p["probe_s"] for p in untraced)
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        metrics["trace.overhead_frac"] = traced_wall / host_wall
        metrics["host.wall_s"] = host_wall
        metrics["host.probe_ms"] = statistics.median(
            p["probe_ms"] for p in untraced if p["probe_ms"] is not None
        )
    else:
        q = statistics.quantiles([n for _, n in samples], n=10)
        metrics = {
            "pass_s": statistics.median(p["pass_s"] for p in untraced),
            "op_p50_ms": q[4] * 1000.0,
            "op_p90_ms": q[8] * 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (attempted - len(errors)) / attempted,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_info(),
        "setup_raw_s": setup_raw_s,
        "passes": passes,
        "op_samples_ms": [  # job, raw and normalised latency
            [j, t * 1000.0, n * 1000.0] for j, (t, n) in zip(jobs * len(passes), samples)
        ],
        "metrics": metrics,
        "failures": errors,
        "spans": spans,
    }
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(RESULTS, f"BENCH_{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for err in errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"# {label}: {len(passes)} passes, {len(samples)} op samples"
          f" ({len(samples) // 10} beyond p90)")
    print(f"# machine {json.dumps(record['machine'])}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
