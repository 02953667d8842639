"""Starts the host-speed probe in a benchmark child process (see hostprobe.py).

Python imports this module at start-up when its directory is on PYTHONPATH;
it does nothing unless the probe's output variable is set.
"""

import os

if os.environ.get("PERFBENCH_PROBE_OUT"):
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    try:
        import hostprobe
    finally:
        del sys.path[0]
    hostprobe.start_child(os.environ["PERFBENCH_PROBE_OUT"])
