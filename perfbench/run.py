"""Benchmark of celint: CLI calls, identity suites and wide integrals.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload {cli,verify,wide} --seed N \\
        --seconds S --trace {0,1}

Each workload is a closed loop with one client over a fixed seeded
sequence of ops (see BENCHMARK.json for why each exists). Every op's
output is checked. With --trace 0 the run takes whole rounds of ops for
the time given (verify: for a share of it, then fresh copies of the same
ops in shuffled sweeps, keeping each op's fastest run) and prints the
end-to-end metrics;
with --trace 1 it runs a fixed number of ops with every celint entry
point wrapped (spans.py), each followed by an untraced twin, and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
is a JSON report with the environment, input properties and sample
counts.

celint is imported from ./src of the tree holding this directory; the
run fails (exit 2, no result line) when that tree has no celint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from workloads import WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
DIGESTS = HERE / "expected" / "digests.json"
DEFAULT_SEEDS = (1, 2)

IMPORT_REPEATS = 7  # fresh interpreters per run, for setup_s and import_ms
SETUP_REPEATS = 3  # in-process workload set-ups per run
HASH_SEED = "0"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("exactnum", "exprparse", "chow", "model", "celestial", "verify", "cli")
# span name -> per-layer metrics taken from its aggregate
SPAN_METRICS = {
    "exactnum.poly_mul": ("calls", "self_ms"),
    "exactnum.poly_gcd": ("calls", "self_ms", "nontrivial_ratio"),
    "exactnum.rf_new": ("calls", "self_ms"),
    "exactnum.rational_poles": ("calls", "self_ms"),
    "exprparse.parse": ("calls", "self_ms"),
    "chow.class_mul": ("calls", "self_ms"),
    "chow.inverse": ("calls", "self_ms"),
    "chow.ring_build": ("calls", "self_ms"),
    "chow.blowup": ("calls", "self_ms", "repeat_ratio"),
    "chow.map_build": ("calls", "self_ms"),
    "chow.render": ("self_ms",),
    "model.load_model": ("calls", "self_ms"),
    "model.selection_new": ("calls", "strata", "self_ms"),
    "model.blowup_transport": ("calls", "self_ms"),
    "celestial.selection_class": ("calls", "self_ms", "strata_visited"),
    "celestial.integrate_degree": ("calls", "self_ms", "strata_visited"),
    "celestial.log_chern": ("calls", "self_ms", "cached_ratio"),
    "celestial.manifest": ("self_ms",),
    "cli.main": ("self_ms",),
}
# ratio metric -> counter it divides by the call count
RATIOS = {"nontrivial_ratio": "nontrivial", "repeat_ratio": "repeat",
          "cached_ratio": "cached"}
INPUT_METRICS = ("input.components_mean", "input.mlinear_share",
                 "input.strata_visited_mean")


def per_layer_names():
    """Every per-layer metric, with its unit, in report order."""
    from inputs import VERIFY_SUITES

    out = []
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            unit = ("ms" if field.endswith("_ms") else
                    "ratio" if field.endswith("_ratio") else "count")
            out.append((f"{span}.{field}", unit))
    for suite in VERIFY_SUITES:
        out += [(f"verify.{suite}.p50_ms", "ms"), (f"verify.{suite}.failed", "count")]
    out += [(f"{layer}.import_ms", "ms") for layer in LAYERS]
    out += [("celint.import_ms", "ms"), ("trace.overhead_ratio", "ratio")]
    out += [(name, "count" if name.endswith("_mean") else "ratio")
            for name in INPUT_METRICS]
    return out


class TreeError(Exception):
    """The tree around the benchmark holds no importable celint."""


def load_celint():
    src = ROOT / "src"
    if not (src / "celint" / "__init__.py").is_file():
        raise TreeError(f"no celint package under {src}")
    sys.path.insert(0, str(src))
    import celint

    if Path(celint.__file__).resolve().parent != (src / "celint").resolve():
        raise TreeError(f"celint was imported from {celint.__file__}, not {src}")


# -- environment and drift probe -------------------------------------------


def git_state():
    if not (ROOT / ".git").exists():
        return {"head": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"head": None, "dirty": None}
    if head.returncode != 0:
        return {"head": None, "dirty": None}
    return {"head": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git": git_state(),
    }


def fraction_probe():
    """A fixed pure-Python Fraction loop; recorded to show machine drift,
    never used to rescale a metric."""
    wall, cpu = perf_counter(), process_time()
    for i in range(1, 40_001):
        Fraction(i, 7) * Fraction(3, i + 1) + Fraction(i % 5, 11)
    wall, cpu = perf_counter() - wall, process_time() - cpu
    return {"iterations": 40_000, "wall_s": round(wall, 6), "cpu_s": round(cpu, 6)}


# -- set-up ------------------------------------------------------------------


def time_import():
    """Wall time of a fresh interpreter through `import celint, celint.cli`."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import celint, celint.cli"],
                          cwd=ROOT, env=child_env(ROOT), capture_output=True,
                          text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise TreeError(f"import celint failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def import_times():
    """Median self import time per celint module, from -X importtime."""
    samples = {}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import celint.cli"], cwd=ROOT, env=child_env(ROOT),
                              capture_output=True, text=True, timeout=120)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if not m:
                continue
            own, cumulative, name = int(m[1]), int(m[2]), m[3]
            if name == "celint.cli":
                samples.setdefault("celint", []).append(cumulative / 1000)
            if name.startswith("celint."):
                samples.setdefault(name[len("celint."):], []).append(own / 1000)
    return {f"{layer}.import_ms": statistics.median(samples.get(layer, [0.0]))
            for layer in LAYERS + ("celint",)}


# -- measuring ---------------------------------------------------------------


def load_digests(workload, seed):
    if seed not in DEFAULT_SEEDS or not DIGESTS.is_file():
        return []
    with open(DIGESTS, encoding="utf-8") as handle:
        packed = json.load(handle).get(workload, {}).get(str(seed), "")
    return [packed[i:i + 8] for i in range(0, len(packed), 8)]


class Result:
    def __init__(self):
        self.latencies = []
        self.labels = []
        self.failures = []  # (op index, label, reason)
        self.digests = []
        self.fastest = {}  # op index -> its fastest latency over the sweeps

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy(self):
        return sum(self.latencies)


def measure(workload, seed, seconds=None, max_ops=None, expected=(), record=False,
            sweeps=None):
    """Run the seeded rounds whole until a 1/sweeps share of the time has
    passed (and at least min_ops ops have run), or up to max_ops ops;
    then run fresh copies of the same ops in each further sweep, units
    in a shuffled order. Time each call; check each output outside the
    timing."""
    sweeps = workload.sweeps if sweeps is None else sweeps
    result = Result()
    deadline = None if seconds is None else perf_counter() + seconds / sweeps
    taken = []  # (unit, first op index, ops run)
    first = 0
    for units in workload.rounds(seed):
        for unit in units:
            if max_ops is not None and first >= max_ops:
                break
            ops = workload.build(unit, first)
            if max_ops is not None:
                ops = ops[:max_ops - first]
            for op in ops:
                run_op(op, result, expected, record=record)
            taken.append((unit, first, len(ops)))
            first += len(ops)
        if max_ops is not None and first >= max_ops:
            break
        if (deadline is not None and first >= workload.min_ops
                and perf_counter() >= deadline):
            break
    order = random.Random(f"sweeps:{seed}")
    for _ in range(1, sweeps):
        for unit, first, n in order.sample(taken, len(taken)):
            for op in workload.build(unit, first)[:n]:
                run_op(op, result, expected)
    return result


def run_op(op, result, expected=(), tracer=None, record=False):
    """Time one op (traced when a tracer is given), then check its output."""
    from celint.errors import CelintError

    if tracer is not None:
        tracer.op_id = op.index
        tracer.active = True
    error = None
    start = perf_counter()
    try:
        out = op.run()
    except CelintError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash is a failed op; keep measuring
        error = f"crash {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    result.latencies.append(elapsed)
    result.labels.append(op.label)
    result.fastest[op.index] = min(elapsed, result.fastest.get(op.index, elapsed))
    if error is None:
        error = _check(op, out, expected, result, record)
    if error is not None:
        result.failures.append((op.index, op.label, error))


def _check(op, out, expected, result, record):
    """None when the output is right, else the reason it is not."""
    from checks import digest

    try:
        if record:
            result.digests.append(digest(op.render(out)))
        if op.documented:
            return None if op.check(out) else "differs from the documented output"
        if op.index >= len(expected):
            return None if op.check(out) else "fails its reference identity"
        if digest(op.render(out)) != expected[op.index]:
            return "differs from the recorded digest"
        return None
    except Exception as exc:  # a check that crashes marks the op failed
        return f"check crashed: {type(exc).__name__}: {exc}"


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def input_properties(counter):
    configs = counter.get("configs", 0)
    hist = {int(k.split("=")[1]): v for k, v in counter.items()
            if k.startswith("components=")}
    props = {"component_histogram": {str(k): hist[k] for k in sorted(hist)}}
    if configs:
        props["components_mean"] = counter["components"] / configs
        props["mlinear_share"] = counter["mlinear"] / max(counter["components"], 1)
    suites = {k.split("=")[1]: v for k, v in counter.items() if k.startswith("suite=")}
    if suites:
        props["suite_mix"] = dict(sorted(suites.items()))
    return props


# -- the two kinds of run ----------------------------------------------------


def run_end_to_end(name, seed, seconds, max_ops):
    imports = [time_import() for _ in range(IMPORT_REPEATS // 2 + 1)]
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[name](ROOT)
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
        if len(setups) < SETUP_REPEATS:
            workload.close()
    try:
        result = measure(workload, seed, seconds, max_ops, load_digests(name, seed))
    finally:
        workload.close()
    imports += [time_import() for _ in range(IMPORT_REPEATS // 2)]
    lat_ms = [x * 1000 for x in result.fastest.values()]
    metrics = {
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": quantile(lat_ms, 90),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    notes = {
        "ops_per_s": f"{len(lat_ms)} ops in {sum(lat_ms) / 1000:.3f} s busy"
                     + (f", fastest of {workload.sweeps} runs each"
                        if workload.sweeps > 1 else ""),
        "latency_p50_ms": f"n={len(lat_ms)}",
        "latency_p90_ms": f"n={len(lat_ms)}, "
                          f"{sum(x > metrics['latency_p90_ms'] for x in lat_ms)} beyond",
        "setup_s": f"median of {len(imports)} fresh imports "
                   f"({statistics.median(imports):.4f} s) + median of "
                   f"{len(setups)} workload set-ups ({statistics.median(setups):.4f} s)",
        "peak_rss_mb": "largest child process" if name == "cli" else "this process",
    }
    extra = {"inputs": input_properties(workload.inputs),
             "samples": len(lat_ms), "runs": result.attempted,
             "error_rate": _rate(result),
             "failures": result.failures[:10]}
    return result, metrics, dict(END_TO_END), notes, extra


def _rate(result):
    return len(result.failures) / result.attempted if result.attempted else 0.0


def run_traced(name, seed, max_ops):
    import spans

    n_ops = WORKLOADS[name].trace_ops
    if max_ops is not None:
        n_ops = min(n_ops, max_ops)
    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer()
    traced_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT))
    workload, plain_workload = WORKLOADS[name](ROOT), WORKLOADS[name](ROOT)
    traced, plain = Result(), Result()
    try:
        workload.setup()
        plain_workload.setup()
        if name == "cli":
            workload.trace_dir = traced_dir
        traced_ops, plain_ops = workload.ops(seed), plain_workload.ops(seed)
        # each op runs traced, then its twin untraced, so both passes see
        # the same machine speed; the wrappers are off for the twin
        for _ in range(n_ops):
            tracer.install()
            try:
                run_op(next(traced_ops), traced, tracer=tracer)
            finally:
                tracer.uninstall()
            run_op(next(plain_ops), plain)
    finally:
        workload.close()
        plain_workload.close()
        traced_dir.rmdir()
    aggregates = tracer.aggregates()
    for part in getattr(workload, "child_aggregates", ()):
        spans.merge_aggregates(aggregates, part["aggregates"])
        for span in part["spans"]:
            if len(tracer.spans) < tracer.max_spans:
                tracer.spans.append((part["names"][span[0]], *span[1:]))
    metrics = layer_metrics(aggregates)
    metrics.update(import_times())
    metrics.update(suite_metrics(plain))
    metrics["trace.overhead_ratio"] = traced.busy / plain.busy
    # generated configurations where the benchmark builds them; otherwise
    # (verify) the ones celint builds itself, counted at NCConfig
    configs = workload.inputs
    if not configs.get("configs"):
        row = aggregates.get("model.config_new", {"calls": 0, "counters": {}})
        configs = dict(row["counters"], configs=row["calls"])
    metrics.update(_input_metrics(aggregates, configs))
    tracer.dump(OUT / f"spans-{name}-seed{seed}.json",
                extra={"aggregates": aggregates})
    units = dict(per_layer_names())
    metrics = {k: metrics.get(k, 0) for k in units}
    extra = {"inputs": input_properties(configs),
             "traced_ops": traced.attempted, "untraced_ops": plain.attempted,
             "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
             "error_rate": _rate(traced), "failures": (traced.failures + plain.failures)[:10]}
    combined = Result()
    combined.latencies = traced.latencies + plain.latencies
    combined.failures = traced.failures + plain.failures
    notes = {"trace.overhead_ratio": f"traced busy {traced.busy:.3f} s over "
                                     f"untraced busy {plain.busy:.3f} s, {n_ops} ops each"}
    return combined, metrics, units, notes, extra


def _input_metrics(aggregates, counter):
    configs = counter.get("configs", 0)
    visited = calls = 0
    for span in ("celestial.selection_class", "celestial.integrate_degree"):
        row = aggregates.get(span)
        if row:
            visited += row["counters"].get("strata_visited", 0)
            calls += row["calls"]
    return {
        "input.components_mean": counter.get("components", 0) / configs if configs else 0,
        "input.mlinear_share": (counter.get("mlinear", 0) / counter["components"]
                                if counter.get("components") else 0),
        "input.strata_visited_mean": visited / calls if calls else 0,
    }


def layer_metrics(aggregates):
    out = {}
    for span, fields in SPAN_METRICS.items():
        row = aggregates.get(span, {"calls": 0, "self_ns": 0, "counters": {}})
        for field in fields:
            if field == "calls":
                value = row["calls"]
            elif field == "self_ms":
                value = row["self_ns"] / 1e6
            elif field in RATIOS:
                hits = row["counters"].get(RATIOS[field], 0)
                value = hits / row["calls"] if row["calls"] else 0
            else:
                value = row["counters"].get(field, 0)
            out[f"{span}.{field}"] = value
    return out


def suite_metrics(result):
    out = {}
    by_suite = {}
    for label, latency in zip(result.labels, result.latencies):
        by_suite.setdefault(label, []).append(latency * 1000)
    failed = {}
    for _, label, _ in result.failures:
        failed[label] = failed.get(label, 0) + 1
    from inputs import VERIFY_SUITES

    for suite in VERIFY_SUITES:
        if suite in by_suite:
            out[f"verify.{suite}.p50_ms"] = statistics.median(by_suite[suite])
            out[f"verify.{suite}.failed"] = failed.get(suite, 0)
    return out


# -- output ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "verify", "wide"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many ops (smoke tests)")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set and frozenset iteration order, and so the exact work of a
        # stratum sum, depends on string hashing; fix it so counts repeat
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    try:
        load_celint()
        probe_before = fraction_probe()
        if args.trace:
            outcome = run_traced(args.workload, args.seed, args.max_ops)
        else:
            outcome = run_end_to_end(args.workload, args.seed, args.seconds,
                                     args.max_ops)
        result, metrics, units, notes, extra = outcome
        probe_after = fraction_probe()
    except TreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = len(result.failures)
    print(f"celint benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {result.attempted} ops, {failed} failed "
          f"(error_rate {failed / result.attempted:.4f})")
    for key, value in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:40s} {value:14.6g} {units[key]:6s} {note}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(),
              "probe": {"before": probe_before, "after": probe_after},
              "units": units, "notes": notes}
    report.update(extra)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
