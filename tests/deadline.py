"""A wall-clock deadline for a test that must not hang.

    with deadline(5):
        call_that_must_return()

fails the test once the block has run for the given seconds, from a
SIGALRM timer.  The failure is pytest's own outcome exception, which
derives from BaseException, so a broad `except Exception` in the code
under test cannot swallow it.  Main thread, POSIX only.
"""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        pytest.fail("deadline of %g s passed" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
