"""Shared fixtures."""
import signal
from contextlib import contextmanager

import pytest


class TimeLimitExceeded(Exception):
    pass


@pytest.fixture
def time_limit():
    """time_limit(seconds) is a context manager that raises TimeLimitExceeded
    when its block runs longer than seconds, so a hang fails the test."""

    @contextmanager
    def limit(seconds):
        def on_alarm(signum, frame):
            raise TimeLimitExceeded(f"no result within {seconds} s")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return limit
