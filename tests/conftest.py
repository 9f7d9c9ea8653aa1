import contextlib
import json
import signal
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_fixture(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def mutate(tree, path, value):
    """tree with the value at path (keys and list indices) replaced in
    place; the empty path replaces the whole tree."""
    if not path:
        return value
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


class Overrun(BaseException):
    """Raised by time_limit's alarm; a BaseException, so no handler for
    program errors catches it."""


def _overrun(signum, frame):
    raise Overrun


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise Overrun in the block once it has run for `seconds` (an int;
    SIGALRM, so the main thread of a POSIX process only)."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
