"""The three workloads: their op streams, how one op runs, how it is checked.

A workload draws rounds of units in a fixed seeded order: plain data,
one unit per configuration (wide) or per op (verify, cli), and every
round of a workload has the same composition. `build` turns a unit into
fresh ops, so a later sweep can run the same ops again on new objects. `Op.run` is the timed call into celint; everything else
(building inputs from the generated data, rendering, checking) happens
outside the timed region and outside tracing. An op's output is
checked against the digest recorded for its seed and position when
there is one, and otherwise against a reference value from `checks`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import count
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
# m-linear multiplicities here are a*m + k with a, k >= 0, so 1 + m_i is
# nonzero at any positive m
CHECK_POINT = Fraction(29, 7)


def child_env(root: Path) -> dict:
    """The environment for a child interpreter that imports celint from root/src."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


class Op:
    """One timed call. `render` gives the text a digest is taken of;
    `check` compares the output with a reference value."""

    __slots__ = ("index", "label", "run", "render", "check", "documented")

    def __init__(self, index, label, run, render, check, documented=False):
        self.index = index
        self.label = label
        self.run = run
        self.render = render
        self.check = check
        # documented outputs are compared as such, never by digest
        self.documented = documented


class Workload:
    name = ""
    # enough samples to leave at least ten beyond p90
    min_ops = 100
    # ops in the traced pass of a --trace 1 run
    trace_ops = 0
    # times each op runs in an end-to-end run; its latency is the fastest
    sweeps = 1

    def __init__(self, root: Path):
        self.root = root
        self.inputs = Counter()  # input properties of the generated data

    def setup(self):
        """Program-side set-up paid once per process (timed as part of setup_s)."""

    def rounds(self, seed: int):
        """The seeded rounds, each a list of units in run order; counts
        the input properties of each round as it is drawn."""
        raise NotImplementedError

    def build(self, unit, first: int) -> list:
        """Fresh ops for one unit, indexed from `first`."""
        raise NotImplementedError

    def ops(self, seed: int):
        first = 0
        for units in self.rounds(seed):
            for unit in units:
                ops = self.build(unit, first)
                first += len(ops)
                yield from ops

    def close(self):
        pass


# -- wide ------------------------------------------------------------------


class Wide(Workload):
    name = "wide"
    trace_ops = 64  # one round

    def setup(self):
        from celint.model import load_ring

        self.rings = {name: load_ring(desc)
                      for name, desc in inputs.WIDE_RINGS.items()}

    def rounds(self, seed):
        for r in count():
            groups = inputs.wide_round(seed, r)
            for group in groups:
                self._note_components(group["components"])
            yield groups

    def build(self, group, first):
        return list(getattr(self, "_" + group["kind"])(group, count(first)))

    def _note_components(self, comps):
        self.inputs[f"components={len(comps)}"] += 1
        self.inputs["components"] += len(comps)
        self.inputs["configs"] += 1
        self.inputs["mlinear"] += sum(c["mult"][0] == "lin" for c in comps)

    def _class_comps(self, group):
        from celint.chow import ChowClass
        from celint.exactnum import rf
        from celint.model import Component

        ring, _ = self.rings[group["ring"]]
        comps = []
        for c in group["components"]:
            mult = checks.mult_rf(c["mult"])
            dec = ((Fraction(c["mult"][1]), Fraction(c["mult"][2]))
                   if c["mult"][0] == "lin" else None)
            divisor = ChowClass(ring, {n: rf(v) for n, v in c["class"].items()})
            comps.append(Component(c["name"], mult, divisor, dec))
        return ring, comps

    def _class(self, group, index):
        from celint.celestial import integrate_class
        from celint.model import NCConfig

        ring, comps = self._class_comps(group)
        config = NCConfig(ring, comps)
        triples = [(c.name, c.divisor, c.mult) for c in comps]
        if all(c.mult.is_constant() for c in comps):
            reference = checks.Integrand(ring, triples)

            def check(out, s):
                return out == reference.integral(s)
        else:
            # an exact reference costs a large share of the op itself;
            # compare values at one point where no 1 + m_i vanishes
            reference = checks.Integrand(ring, triples, at=CHECK_POINT)

            def check(out, s):
                return out.evaluate(CHECK_POINT) == reference.integral(s)
        for spec in group["ops"]:
            sel = spec["sel"]
            yield Op(next(index), f"integrate {group['ring']} c={len(comps)} {sel[0]}",
                     _bind(lambda s: integrate_class(config, _selection(config.names, s)), sel),
                     _render, _bind(check, sel))

    def _csm(self, group, index):
        from celint.celestial import csm_set
        from celint.model import NCConfig

        ring, comps = self._class_comps(group)
        _, chain = self.rings[group["ring"]]
        config = NCConfig(ring, comps)
        reference = checks.Integrand(ring, [(c.name, c.divisor, c.mult) for c in comps])
        for spec in group["ops"]:
            sel = spec["sel"]
            yield Op(next(index), f"csm {group['ring']} c={len(comps)} {sel[0]}",
                     _bind(lambda s: csm_set(config, _selection(config.names, s), chain), sel),
                     _render,
                     _bind(lambda out, s: out == checks.push(reference.integral(s), chain), sel))

    def _degree(self, group, index):
        from celint.celestial import integrate_degree, zeta_degree
        from celint.model import DegreeConfig

        names = tuple(c["name"] for c in group["components"])
        raw = [c["mult"] for c in group["components"]]
        mults = {n: checks.mult_rf(m) for n, m in zip(names, raw)}
        decs = {n: (Fraction(m[1]), Fraction(m[2]))
                for n, m in zip(names, raw) if m[0] == "lin"}
        chi = checks.chi_table(group["chi_closed"])
        config = DegreeConfig(names, mults, chi, decompositions=decs)

        def zeta_ok(out, s):
            value = checks.degree_value(chi, mults, s)
            return out[0] == value and out[1] == checks.poles(value, raw)

        for spec in group["ops"]:
            sel = spec["sel"]
            if spec["verb"] == "zeta":
                yield Op(next(index), f"zeta_degree c={len(names)}",
                         _bind(lambda s: zeta_degree(config, _selection(names, s)), sel),
                         lambda out: f"{out[0].render()}|{out[1].render()}",
                         _bind(zeta_ok, sel))
            else:
                yield Op(next(index), f"integrate_degree c={len(names)}",
                         _bind(lambda s: integrate_degree(config, _selection(names, s)), sel),
                         _render,
                         _bind(lambda out, s: out == checks.degree_value(chi, mults, s), sel))

    def _ix(self, group, index):
        from celint.celestial import ix_function
        from celint.model import FiberedConfig, StratumSelection

        names = tuple(c["name"] for c in group["components"])
        mults = {c["name"]: checks.mult_rf(c["mult"]) for c in group["components"]}
        fiber = checks.fiber_table(group["fiber"])
        base = {k: Fraction(v) for k, v in group["base_strata"].items()}
        config = FiberedConfig(names, mults, StratumSelection.whole(names), base, fiber)
        for spec in group["ops"]:
            sel = spec["sel"]
            yield Op(next(index), f"ix c={len(names)} {sel[0]}",
                     _bind(lambda s: ix_function(
                         config, None if s[0] == "stored" else _selection(names, s)), sel),
                     _render,
                     _bind(lambda out, s: list(out.entries) == checks.ix_values(
                         list(base), fiber, mults, s), sel))


def _bind(fn, sel):
    """Freeze the loop variable into a closure."""
    return lambda *args: fn(*args, sel)


def _render(out):
    return out.render()


def _selection(names, sel):
    from celint.model import StratumSelection

    if sel[0] == "whole":
        return StratumSelection.whole(names)
    if sel[0] == "closed":
        return StratumSelection.from_closed(names, sel[1])
    return StratumSelection.from_strata(names, inputs.explicit_strata(sel))


# -- verify ----------------------------------------------------------------


class Verify(Workload):
    name = "verify"
    trace_ops = 7 * 40
    # ops take a few ms, so a run fits 12 copies of 400-700 ops; the
    # fastest copy often falls in a spell of full speed, and the many
    # distinct ops keep the mix of instance costs (0.1-12 ms) steady
    sweeps = 12

    def rounds(self, seed):
        n = len(inputs.VERIFY_SUITES)
        for r in count():
            specs = inputs.verify_ops(seed, r * n, n)
            for spec in specs:
                self.inputs[f"suite={spec['suite']}"] += 1
            yield specs

    def build(self, spec, first):
        from celint import verify

        return [Op(first, spec["suite"],
                   _bind(lambda s: verify.run_suite(s["suite"], 1, s["seed"]), spec),
                   _reports_text,
                   lambda out: bool(out) and all(r.passed for r in out))]


def _reports_text(reports):
    return "\n".join(f"{r.name}|{r.passed}|{r.lhs}|{r.rhs}|{r.context}"
                     for r in reports)


# -- cli -------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    trace_ops = len(inputs.README_CASES) + len(inputs.CLI_VERBS) * inputs.CLI_PER_VERB

    def __init__(self, root):
        super().__init__(root)
        self.workdir = HERE / "_work" / f"cli-{os.getpid()}-{id(self)}"
        self.env = child_env(root)
        self.trace_dir = None  # set to run ops through the tracing launcher
        self.child_aggregates = []

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self):
        if self.workdir.exists():
            for path in self.workdir.iterdir():
                path.unlink()
            self.workdir.rmdir()

    def call(self, args, index):
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "celint.cli", *args]
        else:
            out = self.trace_dir / f"child-{index}.json"
            argv = [sys.executable, str(HERE / "childtrace.py"), str(out),
                    str(self.root), str(index), *args]
        proc = subprocess.run(argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if self.trace_dir is not None and out.exists():
            with open(out, encoding="utf-8") as handle:
                self.child_aggregates.append(json.load(handle))
            out.unlink()
        return proc.returncode, proc.stdout, proc.stderr

    def rounds(self, seed):
        for r in count():
            items = inputs.cli_round(seed, r)
            for item in items:
                if "case" in item:
                    self._note_case(item["case"])
            yield items

    def build(self, item, i):
        if "readme" in item:
            case = inputs.README_CASES[item["readme"]]
            return [Op(i, "readme " + case["args"][0],
                       _bind(lambda c: self.call(c["args"], i), case),
                       _cli_text,
                       _bind(_readme_ok, case), documented=True)]
        case = item["case"]
        path = self.workdir / f"op{i}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case["model"], handle)
        args = [case["verb"], str(path.relative_to(self.root)), *case["options"]]
        return [Op(i, case["verb"], _bind(lambda a: self.call(a, i), args),
                   _cli_text, _bind(_case_ok, case))]

    def _note_case(self, case):
        comps = case["model"].get("components", [])
        if case["verb"] == "ring":
            return
        self.inputs[f"components={len(comps)}"] += 1
        self.inputs["components"] += len(comps)
        self.inputs["configs"] += 1
        self.inputs["mlinear"] += sum(m[0] == "lin" for m in case["mults"])


def _cli_text(out):
    code, stdout, _ = out
    return f"{code}\n{stdout}"


def _readme_ok(out, case):
    code, stdout, _ = out
    if code != 0:
        return False
    if "tail" in case:
        lines = stdout.rstrip("\n").split("\n")
        return lines[-1] == case["tail"]
    return stdout == case["stdout"]


def _option(options, flag):
    return options[options.index(flag) + 1] if flag in options else None


def _case_ok(out, case):
    code, stdout, _ = out
    return code == 0 and stdout == expected_stdout(case)


def expected_stdout(case) -> str:
    """What the CLI must print for a generated case, from `checks`."""
    from celint.model import load_model

    model = load_model(case["model"])
    options = case["options"]
    if case["verb"] == "ring":
        if model.ring.require_tangent_chern().degree().as_fraction() != case["euler"]:
            return "<tangent Chern class has the wrong degree>"
        return model.ring.describe() + "\n"
    override = _option(options, "--selection")
    sel = ["closed", override[len("closed:"):].split(",")] if override else None
    if case["level"] == "degree":
        raw = case["mults"]
        mults = {c.name: c.mult for c in model.components}
        if case["verb"] == "ix":
            fiber = checks.fiber_table(case["model"]["fiber"])
            values = checks.ix_values(list(model.fibered.base_strata), fiber,
                                      mults, sel or ["stored"])
            return "".join(f"{label}: {v.render()}\n" for label, v in values)
        chi = checks.chi_table(case["model"]["chi_closed"])
        value = checks.degree_value(chi, mults, sel or ["whole"])
        if case["verb"] == "zeta":
            return f"{value.render()}\npoles: {checks.poles(value, raw).render()}\n"
        return value.render() + "\n"
    reference = checks.Integrand(
        model.ring, [(c.name, c.divisor, c.mult) for c in model.config.components])
    cls = reference.integral(case.get("selection", ["whole"]))
    chain = _option(options, "--manifest")
    if chain:
        cls = checks.push(cls, model.chains[chain])
    at = _option(options, "--eval")
    if at:
        cls = cls.evaluate(Fraction(at[2:]))
    return cls.render() + "\n"


WORKLOADS = {w.name: w for w in (Cli, Verify, Wide)}
