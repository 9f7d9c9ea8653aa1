"""Record the golden CLI outputs that `tests/test_golden.py` replays.

Each case is one `celint` invocation run in-process through `cli.main`
from the repository root: the seven model verbs and `zeta --degree` on
every fixture in both output formats; on every fixture the stored
selection overridden by `whole`, `empty` and `closed:` its first
component, the coefficients evaluated at m = 3/2, and each stored chain
pushed through `--manifest`, on each verb that takes the option; plus
two seeded `verify all` runs, in text and in JSON. The exit code,
stdout and stderr of each are written to `tests/golden/outputs.json`.

Re-record only when an output is meant to change:

    PYTHONPATH=src python3 tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from celint import cli

ROOT = Path(__file__).resolve().parents[2]
OUTPUTS = Path(__file__).resolve().parent / "outputs.json"
VERBS = ("ring", "integrate", "degree", "zeta", "csm", "ix", "stringy")
SELECTION_VERBS = (
    ("integrate",), ("degree",), ("zeta",), ("csm",), ("ix",),
    ("zeta", "--degree"),
)
EVAL_VERBS = (
    ("integrate",), ("degree",), ("zeta",), ("ix",), ("stringy",),
    ("zeta", "--degree"),
)
CHAIN_VERBS = ("integrate", "zeta", "csm", "stringy")


def cases():
    """The argument lists of every case, fixture paths relative to the root."""
    fixtures = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    out = [
        [*verb, f"fixtures/{name}", "--format", fmt]
        for name in fixtures
        for verb in [(v,) for v in VERBS] + [("zeta", "--degree")]
        for fmt in ("text", "json")
    ]
    for name in fixtures:
        with open(ROOT / "fixtures" / name, encoding="utf-8") as handle:
            data = json.load(handle)
        path = f"fixtures/{name}"
        selections = ["whole", "empty"]
        if data.get("components"):
            selections.append("closed:" + data["components"][0]["name"])
        out += [
            [*verb, path, "--selection", text]
            for verb in SELECTION_VERBS for text in selections
        ]
        out += [[*verb, path, "--eval", "m=3/2"] for verb in EVAL_VERBS]
        out += [
            [verb, path, "--manifest", chain]
            for chain in sorted(data.get("chains") or {}) for verb in CHAIN_VERBS
        ]
    out.append(["verify", "all", "--instances", "20", "--seed", "1"])
    out.append(["verify", "all", "--instances", "30", "--seed", "7", "--format", "json"])
    return out


def run_case(argv):
    """Exit code, stdout and stderr of one invocation; run from ROOT."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main():
    os.chdir(ROOT)
    recorded = {" ".join(argv): run_case(argv) for argv in cases()}
    with open(OUTPUTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(recorded)} cases in {OUTPUTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
