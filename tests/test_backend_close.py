"""ProcessPoolBackend.close() with large results still in flight."""

import threading
import time

from repro.fsimpl import config_by_name
from repro.harness import backends
from repro.harness.backends import ProcessPoolBackend
from repro.script import parse_script

#: A trace text of about 200 kB (a long comment line): large enough that
#: a few results fill the pool's result pipe.
_BIG_TRACE = "@type trace\n# " + "x" * 200_000 + "\n"


def _big_result_worker(args):
    index, _quirks, _script = args
    time.sleep(0.01)  # keep tasks in flight when the stream is abandoned
    return index, _BIG_TRACE


def test_close_returns_with_large_results_in_flight(monkeypatch):
    monkeypatch.setattr(backends, "_execute_worker", _big_result_worker)
    script = parse_script('@type script\n# Test t\nmkdir "a" 0o755\n')
    quirks = config_by_name("linux_ext4")
    for attempt in range(5):
        backend = ProcessPoolBackend(2, chunksize=1)
        stream = backend.execute_iter(quirks, [script] * 64)
        next(stream)  # abandon the stream after its first result
        closer = threading.Thread(target=backend.close, daemon=True)
        started = time.monotonic()
        closer.start()
        closer.join(timeout=20)
        assert not closer.is_alive(), f"close() hung on attempt {attempt}"
        assert time.monotonic() - started < 10
