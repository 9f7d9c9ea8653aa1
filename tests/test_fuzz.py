"""Seeded mutation fuzz of model files through the command line.

Each run replaces one field of one fixture (any value in its JSON tree,
the whole file included) with a wrong-typed value from POOL, then runs
one model verb on the result in-process through `cli.main`. Every run
must return 0, 1, 2 or 3 with no exception escaping, and every nonzero
exit must print `error: <CelintError subclass>:`. POOL varies types; the
size fuzz varies integer size: it sets each integer leaf of each fixture
in turn to HUGE and runs every model verb (`zeta` as `zeta --degree`),
each run within LIMIT_S seconds.

The test suite runs RUNS mutations drawn from SEED. Running the file directly
draws more, or replays one mutation:

    python tests/test_fuzz.py RUNS SEED
    python tests/test_fuzz.py FIXTURE PATH VALUE VERB

PATH is a JSON list of keys and list indices, VALUE is JSON and VERB is
a verb with its options, such as "zeta --degree". Each failing mutation
is printed as one line of the second form, followed by what went wrong.
"""

import contextlib
import io
import json
import random
import re
import shlex
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from celint import cli, errors  # noqa: E402

from conftest import (  # noqa: E402
    FIXTURES,
    Overrun,
    mutate,
    read_fixture,
    time_limit,
)

RUNS = 1000
SEED = 7

POOL = ("", "x", "1/0", [], [1], {}, {"a": 1}, None, True, False,
        2.5, 1e308, 0, -1)
VERBS = ("ring", "integrate", "degree", "zeta", "csm", "ix", "stringy")
# an integer too large to factor by trial division
HUGE = 10**18 + 8
SIZE_VERBS = tuple("zeta --degree" if verb == "zeta" else verb for verb in VERBS)
LIMIT_S = 5

CELINT_ERRORS = frozenset(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.CelintError)
)
ERROR_LINE = re.compile(r"error: (\w+): ")


def _paths(value, path=()):
    """Every path in a JSON tree, the empty path (the root) first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def mutations(runs: int, seed: int):
    """(fixture, path, value, verb) for each of `runs` seeded mutations."""
    rng = random.Random(seed)
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    paths = {name: list(_paths(read_fixture(name))) for name in names}
    for _ in range(runs):
        name = rng.choice(names)
        yield name, rng.choice(paths[name]), rng.choice(POOL), rng.choice(VERBS)


def size_mutations():
    """(fixture, path, HUGE, verb) for every integer leaf of every
    fixture and every verb of SIZE_VERBS."""
    for name in sorted(p.name for p in FIXTURES.glob("*.json")):
        tree = read_fixture(name)
        for path in _paths(tree):
            leaf = tree
            for key in path:
                leaf = leaf[key]
            if type(leaf) is int:
                for verb in SIZE_VERBS:
                    yield name, path, HUGE, verb


def write_mutation(fixture, path, value, workdir) -> str:
    """Write the mutated fixture into workdir; returns the file's path."""
    model = Path(workdir) / "model.json"
    model.write_text(json.dumps(mutate(read_fixture(fixture), path, value)))
    return str(model)


def run_mutation(fixture, path, value, verb, workdir):
    """What went wrong when `verb` ran on the mutated fixture, or None."""
    model = write_mutation(fixture, path, value, workdir)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(verb.split() + [model])
    except Exception as exc:
        return f"{type(exc).__name__} escaped: {exc}"
    if code not in (0, 1, 2, 3):
        return f"exit {code!r}"
    match = ERROR_LINE.match(err.getvalue())
    if code and (match is None or match.group(1) not in CELINT_ERRORS):
        return f"exit {code} with stderr {err.getvalue()[:200]!r}"
    return None


def replay_line(fixture, path, value, verb) -> str:
    """The command that replays one mutation."""
    return shlex.join(["python", "tests/test_fuzz.py", fixture,
                       json.dumps(list(path)), json.dumps(value), verb])


def explore(runs: int, seed: int, workdir) -> list:
    """One line per failing mutation: its replay command, then the fault."""
    failures = []
    for fixture, path, value, verb in mutations(runs, seed):
        problem = run_mutation(fixture, path, value, verb, workdir)
        if problem is not None:
            failures.append(f"{replay_line(fixture, path, value, verb)}  # {problem}")
    return failures


def test_mutated_model_files_fail_cleanly(tmp_path):
    failures = explore(RUNS, SEED, tmp_path)
    assert not failures, f"{len(failures)} of {RUNS} runs:\n" + "\n".join(failures)


def test_huge_integers_finish_in_time(tmp_path):
    failures = []
    runs = 0
    for fixture, path, value, verb in size_mutations():
        runs += 1
        try:
            with time_limit(LIMIT_S):
                problem = run_mutation(fixture, path, value, verb, tmp_path)
        except Overrun:
            problem = f"ran past {LIMIT_S} s"
        if problem is not None:
            failures.append(f"{replay_line(fixture, path, value, verb)}  # {problem}")
    assert runs >= 7 * len(list(FIXTURES.glob("*.json")))
    assert not failures, f"{len(failures)} of {runs} runs:\n" + "\n".join(failures)


def test_mutations_cover_every_verb_and_fixture():
    drawn = list(mutations(RUNS, SEED))
    assert {verb for *_, verb in drawn} == set(VERBS)
    assert {fixture for fixture, *_ in drawn} == {
        p.name for p in FIXTURES.glob("*.json")
    }
    assert len(drawn) == RUNS


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as workdir:
        if len(argv) == 4:
            fixture, path, value, verb = argv
            # no capture: an escaping exception prints its traceback
            return cli.main(verb.split() + [write_mutation(
                fixture, json.loads(path), json.loads(value), workdir)])
        if len(argv) != 2:
            print("usage: python tests/test_fuzz.py RUNS SEED\n"
                  "       python tests/test_fuzz.py FIXTURE PATH VALUE VERB",
                  file=sys.stderr)
            return 2
        runs, seed = int(argv[0]), int(argv[1])
        failures = explore(runs, seed, workdir)
    for line in failures:
        print(line)
    print(f"{len(failures)} of {runs} runs failed (seed {seed})")
    return int(bool(failures))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
