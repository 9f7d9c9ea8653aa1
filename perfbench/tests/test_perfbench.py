"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_gives_identical_inputs():
    for seed in (1, 17):
        assert inputs.dumps(inputs.wide_round(seed, 3)) == inputs.dumps(inputs.wide_round(seed, 3))
        assert inputs.dumps(inputs.cli_round(seed, 2)) == inputs.dumps(inputs.cli_round(seed, 2))
        assert inputs.dumps(inputs.verify_ops(seed, 40, 30)) == inputs.dumps(
            inputs.verify_ops(seed, 40, 30))
    assert inputs.dumps(inputs.wide_round(1, 0)) != inputs.dumps(inputs.wide_round(2, 0))
    assert inputs.dumps(inputs.cli_round(1, 0)) != inputs.dumps(inputs.cli_round(2, 0))


def test_round_composition_does_not_depend_on_the_seed():
    def shape(groups):
        return sorted((g["kind"], g.get("ring", ""), len(g["components"]),
                       tuple((op["sel"][0], len(op["sel"][1]) if op["sel"][0] == "closed" else 0)
                             for op in g["ops"]))
                      for g in groups)

    assert shape(inputs.wide_round(1, 0)) == shape(inputs.wide_round(99, 5))


def test_readme_cases_match_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for case in inputs.README_CASES:
        command = "$ celint " + " ".join(case["args"])
        assert command in readme
        after = readme.split(command, 1)[1]
        expected = case.get("stdout") or ("...\n" + case["tail"] + "\n")
        assert after.startswith("\n" + expected)


@pytest.mark.parametrize("name", ["wide", "verify"])
def test_a_wrong_expected_output_is_one_failed_op(name):
    run.load_celint()
    workload = WORKLOADS[name](ROOT)
    workload.setup()
    recorded = run.measure(workload, 5, max_ops=12, record=True, sweeps=1)
    assert not recorded.failures and len(recorded.digests) == 12
    expected = list(recorded.digests)
    expected[4] = "00000000" if expected[4] != "00000000" else "11111111"
    checked = run.measure(workload, 5, max_ops=12, expected=expected, sweeps=1)
    assert [f[0] for f in checked.failures] == [4]
    assert checked.attempted == 12
    # every sweep checks its copy of the op again
    swept = run.measure(workload, 5, max_ops=12, expected=expected, sweeps=3)
    assert [f[0] for f in swept.failures] == [4, 4, 4]
    assert swept.attempted == 36 and len(swept.fastest) == 12


def test_a_run_takes_whole_rounds():
    run.load_celint()
    workload = WORKLOADS["verify"](ROOT)
    result = run.measure(workload, 3, seconds=0.001, sweeps=1)
    # min_ops is 100; the run finishes the 7-op round it is in
    assert result.attempted == 105
    assert sum(workload.inputs.values()) == 105


def test_wide_references_reject_a_wrong_output():
    run.load_celint()
    workload = WORKLOADS["wide"](ROOT)
    workload.setup()
    kinds = set()
    for op in workload.ops(8):
        if not op.label.startswith(("integrate ", "csm ")):
            continue
        out = op.run()
        assert op.check(out)
        assert not op.check(out + out.ring.basis_class(out.ring.point))
        kinds.add(op.label.split()[0])
        if op.index > 20:
            break
    assert kinds == {"integrate", "csm"}


def test_cli_reference_rejects_a_wrong_output():
    run.load_celint()
    workload = WORKLOADS["cli"](ROOT)
    workload.setup()
    try:
        op = next(op for op in workload.ops(3) if not op.documented)
        out = op.run()
        assert op.check(out)
        code, stdout, stderr = out
        assert not op.check((code, stdout + "x", stderr))
        assert not op.check((1, stdout, stderr))
    finally:
        workload.close()


@pytest.mark.parametrize("name", ["wide", "verify", "cli"])
def test_traced_counts_repeat_at_a_fixed_seed(name):
    runs = [result_line(bench("--workload", name, "--seed", "4", "--seconds", "1",
                              "--trace", "1", "--max-ops", "14"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith((".calls", ".strata", ".strata_visited"))} for r in runs]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    assert set(runs[0]["metrics"]) == {m for m, _ in run.per_layer_names()}


@pytest.mark.parametrize("name", ["wide", "verify", "cli"])
@pytest.mark.parametrize("seed", ["1", "23"])
def test_smoke_run_passes(name, seed):
    line = result_line(bench("--workload", name, "--seed", seed, "--seconds", "1",
                             "--trace", "0", "--max-ops", "6"))
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 6 * WORKLOADS[name].sweeps
    assert set(line["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_fails_without_the_source_tree():
    bare = BENCH / "_work" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
