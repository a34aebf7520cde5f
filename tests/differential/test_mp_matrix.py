"""DSM multiprocessor engine-identity matrix.

mp3d and cholesky (the lock- and barrier-heavy SPLASH stand-ins) run to
completion on a 2-node machine at 0.25 scale; both engines must agree
bit for bit at every issue width.  On the multiprocessor the burst
engine additionally exercises the external-wake veto (another node's
lock handoff or barrier release landing mid-window) and the cross-node
lockstep protocol of its event loop, so this matrix is where width x
synchronisation interactions would surface.
"""

import pytest

from .harness import WIDTHS, assert_identical, run_mp

ENGINES = ("naive", "burst")


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("app", ("mp3d", "cholesky"))
class TestMPMatrix:
    def test_engines_bit_identical(self, app, width):
        results = {
            engine: run_mp(app, "interleaved", 2, engine, width=width)
            for engine in ENGINES
        }
        for engine, result in results.items():
            assert result.completed, "%s did not complete %s" % (engine,
                                                                 app)
        assert_identical(results,
                         context="%s interleaved x2 width=%d"
                                 % (app, width))


@pytest.mark.slow
@pytest.mark.parametrize("width", (2, 4))
@pytest.mark.parametrize("scheme,n_contexts",
                         [("blocked", 2), ("blocked", 4),
                          ("interleaved", 4)])
class TestMPSchemeSweep:
    def test_engines_bit_identical(self, scheme, n_contexts, width):
        results = {
            engine: run_mp("mp3d", scheme, n_contexts, engine,
                           width=width)
            for engine in ENGINES
        }
        assert_identical(results,
                         context="mp3d %s x%d width=%d"
                                 % (scheme, n_contexts, width))
