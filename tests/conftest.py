import json
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
