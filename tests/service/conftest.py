"""A ``serve --listen`` server run through the real CLI, for the tests
that drive the ``submit``/``jobs`` client verbs against it."""

import queue
import threading

import pytest

from repro.experiments.cli import main as cli_main


class CliServer:
    """``serve --listen 127.0.0.1:0`` in a thread; ``address`` is the
    bound ``host:port`` to pass to ``--connect``."""

    def __init__(self, cache_dir):
        bound = queue.Queue()
        self.rc = None

        def run():
            # _serve exercises the real CLI wiring; _ready fires post-bind.
            self.rc = cli_main(
                ["serve", "--listen", "127.0.0.1:0", "--workers", "2",
                 "--serve-seconds", "120", "--cache-dir", cache_dir],
                _ready=bound.put)

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        self._server = bound.get(timeout=30)
        self.address = "%s:%d" % (self._server.host, self._server.port)

    def stop(self):
        """Stop serving and wait for the verb; returns its exit code."""
        self._server.stop()
        self._thread.join(timeout=60)
        assert not self._thread.is_alive()
        return self.rc


@pytest.fixture
def cli_server(tmp_path, monkeypatch, capsys):
    """A CLI server working in ``tmp_path`` with its result cache in
    ``tmp_path/rc``; it must exit 0 when stopped at teardown."""
    monkeypatch.chdir(tmp_path)
    server = CliServer("rc")
    capsys.readouterr()                # drop the "listening on" line
    yield server
    assert server.stop() == 0
