"""Host-speed probe: a fixed pure-Python kernel timed at regular intervals.

The benchmark shares its host's cores with other machines.  Their load slows
the interpreter down by 10-40 % in spells of seconds to minutes, and a long
search spans many spells, so raw wall times of the same code spread by more
than a quarter between runs.  The probe measures that slowdown where it
happens: a SIGALRM timer runs ``kernel`` every ``PERIOD_S`` seconds in the
measured process, between the bytecodes of whatever sepsys is doing, and
records how long the kernel took.  The kernel is the benchmark's own code and
does not change with sepsys.

An operation's normalised time is its wall time minus the probe's own time,
scaled by ``REFERENCE_MS`` over the mean kernel time during the operation (or,
for an operation shorter than ``WINDOW`` probe periods, over the last
``WINDOW`` kernel times).  It reads as the operation's wall time on a host
running at the kernel's reference speed.  On a quiet host the kernel takes
about ``REFERENCE_MS``, so normalised and raw times agree there.

Child processes (CLI commands, set-up probes) run the probe too: with
``PROBE_ENV`` set and ``CHILD_SITE`` on ``PYTHONPATH``, the child's
``sitecustomize`` starts it at interpreter start-up and writes the samples to
the file named by ``PROBE_ENV`` at exit; ``Probe.add_child`` reads them back.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.02
# The kernel's time on a quiet 2-vCPU Xeon VM under CPython 3.11.  A constant,
# so that normalised times read in seconds and do not inherit the noise of a
# per-run calibration.
REFERENCE_MS = 0.8
WINDOW = 5
PROBE_ENV = "PERFBENCH_PROBE_OUT"
CHILD_SITE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "childsite")

_WORDS = (3, 5, 6, 9, 10, 12, 17)


def kernel():
    """Canonical image of a fixed 5-bit word list under all 120 relabellings."""
    best = None
    for perm in itertools.permutations(range(5)):
        img = []
        for w in _WORDS:
            x = 0
            for i, p in enumerate(perm):
                if w >> i & 1:
                    x |= 1 << p
            img.append(x)
        key = tuple(sorted(img))
        if best is None or key < best:
            best = key
    return best


class Probe:
    """Kernel samples ``(end, seconds)``, ``end`` on the ``perf_counter`` clock."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self.sample()

    def sample(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # Not SIG_DFL: a tick already on its way would then end the process.
        signal.signal(signal.SIGALRM, _late_tick)

    def prime(self):
        """Take samples until there are ``WINDOW``, so every operation has a window."""
        while len(self.samples) < WINDOW:
            self.sample()

    @contextmanager
    def running(self):
        """Probe the enclosed code; the probe is ``active`` meanwhile."""
        global active
        self.prime()
        active = self
        self.start()
        try:
            yield self
        finally:
            self.stop()
            active = None

    @contextmanager
    def paused(self):
        """Stop probing while a child process probes itself."""
        self.stop()
        try:
            yield
        finally:
            self.start()

    def add_child(self, path: str, until: float | None = None) -> list[tuple[float, float]]:
        """Append a child's samples (those ending by ``until``); returns them."""
        with open(path, encoding="utf-8") as fh:
            got = [tuple(s) for s in json.load(fh) if until is None or s[0] <= until]
        self.samples += got
        return got

    def normalise(self, seconds: float, lo: int, hi: int) -> float:
        """Normalised time of an operation that took ``seconds`` of wall time
        while the samples ``lo:hi`` were taken."""
        own = sum(d for _, d in self.samples[lo:hi])
        window = self.samples[min(lo, max(0, hi - WINDOW)) : hi]
        mean = statistics.fmean(d for _, d in window)
        return (seconds - own) * REFERENCE_MS / 1000.0 / mean


active: Probe | None = None


def _late_tick(signum, frame):
    pass


def start_child(out_path: str) -> None:
    """Probe this whole process and write the samples to ``out_path`` at exit."""
    probe = Probe()

    def finish():
        probe.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(probe.samples, fh)

    atexit.register(finish)
    probe.start()


def child_env(env: dict[str, str], out_path: str) -> dict[str, str]:
    """``env`` for a child process that probes itself into ``out_path``."""
    path = os.pathsep.join(p for p in (env.get("PYTHONPATH"), CHILD_SITE) if p)
    return dict(env, PYTHONPATH=path, **{PROBE_ENV: out_path})
