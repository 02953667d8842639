"""Smoke tests for the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py``.
Each test runs a tiny pass (``--tiny``) of the benchmark in a subprocess.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostprobe  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result(workload, trace, seed=7):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_pass_emits_exactly_the_declared_metrics(workload, trace, section):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared


def test_search_nodes_repeat_exactly():
    def nodes(res):
        return {
            k: v["value"]
            for k, v in res["metrics"].items()
            if k == "search.nodes" or k.startswith("search.nodes.")
        }

    first, second = result("search-proofs", 1, seed=1), result("search-proofs", 1, seed=2)
    assert nodes(first) == nodes(second)
    assert nodes(first)["search.nodes.g_5_2"] == 42150


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("certify-io", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_is_span_minus_children():
    spans = [
        ["bench.job", 0.0, 10.0, -1, None],
        ["verify.is_nice", 1.0, 7.0, 0, None],
        ["core.dual", 2.0, 3.0, 1, None],
        ["verify.is_nice", 4.0, 6.0, 1, None],
    ]
    out = tracing.summarize(spans, ())
    assert out["verify.busy_s"] == pytest.approx(5.0)  # outer 6 - 1 - 2, plus the nested 2
    assert out["core.busy_s"] == pytest.approx(1.0)
    assert out["verify.calls"] == 1  # the nested is_nice is not an entry
    assert out["verify.is_nice.s"] == pytest.approx(6.0)  # counted once where it nests


def test_normalise_scales_by_the_probe_window():
    probe = hostprobe.Probe()
    ref = hostprobe.REFERENCE_MS / 1000.0
    probe.samples = [(i, 2 * ref) for i in range(hostprobe.WINDOW)]  # a host at half speed
    probe.samples += [(10 + i, 4 * ref) for i in range(hostprobe.WINDOW)]  # then at a quarter
    # A long operation is scaled by its own samples, after their time is taken out.
    took = 1.0 + hostprobe.WINDOW * 4 * ref
    assert probe.normalise(took, hostprobe.WINDOW, 2 * hostprobe.WINDOW) == pytest.approx(0.25)
    # A short one with no samples of its own is scaled by the last WINDOW samples.
    assert probe.normalise(1.0, hostprobe.WINDOW, hostprobe.WINDOW) == pytest.approx(0.5)


def test_child_process_probes_itself(tmp_path):
    out = tmp_path / "samples.json"
    env = hostprobe.child_env(dict(os.environ), str(out))
    busy = "import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < 0.3: pass"
    subprocess.run([sys.executable, "-c", busy], env=env, check=True, timeout=60)
    probe = hostprobe.Probe()
    got = probe.add_child(str(out))
    assert len(got) >= hostprobe.WINDOW and all(d > 0 for _, d in got)
    assert probe.samples == got
