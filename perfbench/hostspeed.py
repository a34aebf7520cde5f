"""How fast the host runs right now, from a fixed pure-Python kernel.

On a shared machine the same work can take up to twice as long,
depending on what else the hardware is doing, in regimes that last from
under a second to minutes.  A run therefore times this kernel between
its units of work and scales each unit's time to a nominal host speed:
``scaled = measured * NOMINAL_S / fastest nearby kernel time``.

Slowdowns do not hit all code alike, so the kernel mixes the three kinds
of work the workloads do: interpreter-bound updates scattered over an
8 MiB table (the simulator's object graph does not fit in a private
cache either), system calls on the file system (the service's cache
files and sockets), and JSON encoding (cache entries and wire frames).
It lives here, not in the program, so a change to the program cannot
speed it up or slow it down.  The garbage collector is paused while it
runs, so heap size left by the program does not leak into the reading.
"""

import array
import gc
import json
import os
import time

#: Fastest time of one kernel call on the host the benchmark was tuned
#: on (2-vCPU x86-64 Linux, Python 3.11), in its fast regime.
NOMINAL_S = 0.0025

_SLOTS = 1 << 20
_BLOB = {"k%d" % i: [i, str(i), {"v": i * 0.5}] for i in range(40)}


class HostClock:
    """Kernel samples taken over a run."""

    def __init__(self):
        self.samples = []
        self._table = array.array("q", bytes(8 * _SLOTS))
        self._path = os.path.dirname(os.path.abspath(__file__))

    def kernel(self):
        table = self._table
        for i in range(8000):
            j = (i * 2654435761) & (_SLOTS - 1)
            table[j] = (table[j] + i) & 0xFFFF
        for _ in range(100):
            os.stat(self._path)
        for _ in range(8):
            json.loads(json.dumps(_BLOB, sort_keys=True))

    def sample(self, reps=1):
        """Time ``reps`` kernel calls; returns the fastest."""
        enabled = gc.isenabled()
        gc.disable()
        block = []
        try:
            for _ in range(reps):
                t = time.perf_counter()
                self.kernel()
                block.append(time.perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        self.samples += block
        return min(block)

    def scale(self, fastest=None):
        """Factor turning host seconds into nominal ones, from the
        fastest kernel time of the run or of the samples given."""
        return NOMINAL_S / (fastest if fastest is not None
                            else min(self.samples))
