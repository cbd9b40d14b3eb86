import os
import signal
import sys
from contextlib import contextmanager

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@contextmanager
def _deadline(seconds, what):
    """Fail the block with TimeoutError once it has run ``seconds`` seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def deadline():
    """``with deadline(seconds, what):`` turns a hang or a refusal that comes
    too late into a failure that names ``what``.  Session-scoped, so that
    property tests may take it once for all their examples."""
    return _deadline
