"""The simulator is dependency-free: no code path imports numpy.

numpy is a test-only dependency (the kernel reference oracles use it),
so every lane has it installed.  A fresh interpreter that imports the
public entry points and runs one workstation point and one
multiprocessor point on the default burst engine must still finish
without ``numpy`` in ``sys.modules``.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = textwrap.dedent("""
    import sys

    import repro.api
    import repro.experiments.cli
    import repro.service
    from repro.api import Simulation
    from repro.config import MultiprocessorParams

    ws = Simulation(scheme="interleaved", n_contexts=2,
                    engine="burst").load("DC")
    assert ws.run(warmup=1_000, measure=4_000).retired > 0
    mp = Simulation(MultiprocessorParams(n_nodes=2), scheme="interleaved",
                    n_contexts=2, engine="burst").load("mp3d", scale=0.25)
    assert mp.run().completed
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
    assert not loaded, loaded
""")


def test_simulator_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
