"""Seeded input generators for the three workloads.

Everything here is plain data (dicts, lists, strings, ints), so the
same seed gives byte-identical inputs whatever the program does with
them. Every stream is cut into rounds; a round has a fixed composition
(ring, component count, multiplicity kind and, for wide, the size of
each closed selection per group) and the seed draws the classes,
multiplicities, selections and tables inside it, so runs at different
seeds do comparable work. Group order inside a round is shuffled, so a
run cut short (--max-ops) sees an unbiased sample of its last round.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb

# the seven suites of celint.verify at the commit that defined the benchmark
VERIFY_SUITES = ("additivity", "altexp", "csmnorm", "denloe", "key",
                 "necfacts", "specialize")

# -- wide: rings built once in set-up ----------------------------------------

# name -> catalog description, as in a model file
WIDE_RINGS = {
    "P2": {"catalog": "projective", "n": 2},
    "P3": {"catalog": "projective", "n": 3},
    "P4": {"catalog": "projective", "n": 4},
    "P5": {"catalog": "projective", "n": 5},
    "P1xP2": {"catalog": "product", "factors": [1, 2]},
    "Bl2P2": {"catalog": "blowup_point", "count": 2,
              "base": {"catalog": "projective", "n": 2}},
    "BlP3": {"catalog": "blowup_point", "count": 1,
             "base": {"catalog": "projective", "n": 3}},
}

# codimension-1 basis names of each wide ring
_DIVISOR_NAMES = {
    "P2": ("h",), "P3": ("h",), "P4": ("h",), "P5": ("h",),
    "P1xP2": ("h1", "h2"), "Bl2P2": ("h", "e1", "e2"), "BlP3": ("h", "e1"),
}

# (ring, components, m-linear) for the class-level groups of one round:
# three integrals each (whole, closed, explicit) on one configuration
WIDE_CLASS_CELLS = (
    ("P2", 9, False), ("P2", 8, True),
    ("Bl2P2", 8, False), ("Bl2P2", 7, True),
    ("P3", 8, False), ("P3", 7, True),
    ("BlP3", 7, False), ("BlP3", 6, True),
    ("P1xP2", 7, False), ("P1xP2", 6, True),
    ("P4", 6, False), ("P4", 6, True),
    ("P5", 6, False), ("P5", 5, True),
)
# (ring with a construction chain, components): csm_set whole and closed
WIDE_CSM_CELLS = (("Bl2P2", 7), ("BlP3", 6), ("Bl2P2", 5))
# components of the degree-level groups: zeta_degree and integrate_degree
WIDE_DEGREE_CELLS = (5, 6, 7, 8, 9)
# (components, m-linear) of the fibered groups: ix_function twice
WIDE_IX_CELLS = ((5, True), (7, False), (9, True))


def _names(count, prefix="D"):
    return [f"{prefix}{i + 1}" for i in range(count)]


def _mult(rng, linear):
    """A multiplicity: ["lin", a, k] for a*m + k, or ["const", q]."""
    if linear:
        return ["lin", rng.randint(1, 3), rng.randint(0, 4)]
    den = rng.choice((1, 1, 2, 3))
    return ["const", str(Fraction(rng.randint(0, 6 * den), den))]


def _divisor(rng, names):
    while True:
        coeffs = {n: rng.choice((-1, 0, 1, 1, 2, 3)) for n in names}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if coeffs:
            return coeffs


def _closed(rng, names, size=None):
    """Closures of one or two components; a wide cell fixes the count, as
    it halves the strata of the op."""
    if size is None:
        size = rng.randint(1, min(2, len(names)))
    return sorted(rng.sample(names, size))


def _explicit(rng, names):
    """A down-set of a 3-set plus two further index sets."""
    core = sorted(rng.sample(names, min(3, len(names))))
    extras = [sorted(rng.sample(names, rng.randint(1, min(3, len(names)))))
              for _ in range(2)]
    return {"core": core, "extras": extras}


def _rng(seed, *parts):
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _chi_table(rng, names, max_key=3):
    """Euler characteristics of closed strata, keyed "A,B"; "" is the space."""
    table = {"": rng.randint(1, 8)}
    for name in names:
        table[name] = rng.randint(-2, 4)
    for size in range(2, min(max_key, len(names)) + 1):
        for _ in range(len(names) // size + 1):
            key = sorted(rng.sample(names, size))
            table[",".join(key)] = rng.randint(-2, 3)
    return table


def _fiber(rng, names, labels):
    fiber = {}
    for label in labels:
        row = {"": rng.randint(0, 2)}
        for _ in range(rng.randint(2, 4)):
            key = sorted(rng.sample(names, rng.randint(1, min(3, len(names)))))
            row[",".join(key)] = rng.randint(-1, 3)
        fiber[label] = row
    return fiber


def wide_round(seed: int, r: int) -> list:
    """The groups of round r of the wide workload, in run order."""
    groups = []
    for i, (ring, count, linear) in enumerate(WIDE_CLASS_CELLS):
        rng = _rng(seed, "wide", r, "class", i)
        names = _names(count)
        groups.append({
            "kind": "class", "ring": ring,
            "components": [
                {"name": n, "class": _divisor(rng, _DIVISOR_NAMES[ring]),
                 "mult": _mult(rng, linear)} for n in names],
            "ops": [{"sel": ["whole"]},
                    {"sel": ["closed", _closed(rng, names, 1 + i % 2)]},
                    {"sel": ["explicit", _explicit(rng, names)]}],
        })
    for i, (ring, count) in enumerate(WIDE_CSM_CELLS):
        rng = _rng(seed, "wide", r, "csm", i)
        names = _names(count)
        groups.append({
            "kind": "csm", "ring": ring,
            "components": [
                {"name": n, "class": _divisor(rng, _DIVISOR_NAMES[ring]),
                 "mult": _mult(rng, False)} for n in names],
            "ops": [{"sel": ["whole"]},
                    {"sel": ["closed", _closed(rng, names, 1 + i % 2)]}],
        })
    for i, count in enumerate(WIDE_DEGREE_CELLS):
        rng = _rng(seed, "wide", r, "degree", i)
        names = _names(count, "C")
        groups.append({
            "kind": "degree",
            "components": [{"name": n, "mult": _mult(rng, True)} for n in names],
            "chi_closed": _chi_table(rng, names),
            "ops": [{"verb": "zeta", "sel": ["whole"]},
                    {"verb": "degree", "sel": ["closed", _closed(rng, names, 1 + i % 2)]}],
        })
    for i, (count, linear) in enumerate(WIDE_IX_CELLS):
        rng = _rng(seed, "wide", r, "ix", i)
        names = _names(count, "F")
        labels = [f"S{j}" for j in range(rng.randint(2, 4))]
        groups.append({
            "kind": "ix",
            "components": [{"name": n, "mult": _mult(rng, linear)} for n in names],
            "base_strata": {label: rng.randint(-1, 3) for label in labels},
            "fiber": _fiber(rng, names, labels),
            "ops": [{"sel": ["stored"]},
                    {"sel": ["closed", _closed(rng, names, 1 + i % 2)]}],
        })
    _rng(seed, "wide", r, "order").shuffle(groups)
    return groups


# -- verify ------------------------------------------------------------------


def verify_ops(seed: int, start: int, count: int) -> list:
    """Ops start..start+count-1: round-robin suites, one instance seed each."""
    return [{"suite": VERIFY_SUITES[i % len(VERIFY_SUITES)],
             "seed": _rng(seed, "verify", i).randrange(2 ** 63)}
            for i in range(start, start + count)]


# -- cli ---------------------------------------------------------------------

# the invocations documented in the README, with their documented output;
# "tail" compares only the last line (the README elides the report lines)
README_CASES = (
    {"args": ["integrate", "fixtures/p2_line.json"],
     "stdout": "[V] + (5/2)*h + 2*h^2\n"},
    {"args": ["degree", "fixtures/conic.json"],
     "stdout": "(3 + m)/(1 + m)\n"},
    {"args": ["zeta", "fixtures/cusp.json", "--degree"],
     "stdout": "(15 + 6*m)/(5 + 6*m)\npoles: -5/6\n"},
    {"args": ["integrate", "fixtures/flop.json", "--manifest", "toX",
              "--eval", "m=-2"],
     "stdout": "[X] + [D]\n"},
    {"args": ["csm", "fixtures/csm_cusp.json", "--manifest", "toP2"],
     "stdout": "3*h + 2*h^2\n"},
    {"args": ["ix", "fixtures/idsex.json", "--selection", "closed:D"],
     "stdout": "X_off_D: 0\nD: 1/(1 + m)\n"},
    {"args": ["verify", "key", "--instances", "100"],
     "tail": "suite key: 100/100 passed (seed 20260818)"},
)

CLI_VERBS = ("ring", "integrate", "degree", "zeta", "csm", "ix", "stringy")
CLI_PER_VERB = 2


def _ring_choice(rng, kinds):
    """(ring description, codim-1 names, Euler number, blow-up count, base n)."""
    kind = rng.choice(kinds)
    if kind == "literal":
        if rng.random() < 0.5:
            n = rng.randint(2, 3)
            return _literal_projective(n), ["x1"], n + 1, 0, None
        return _literal_quadric(), ["u", "v"], 4, 0, None
    if kind == "projective":
        n = rng.randint(2, 4)
        return {"catalog": "projective", "n": n}, ["h"], n + 1, 0, None
    if kind == "product":
        a, b = rng.choice(((1, 1), (1, 2), (2, 2)))
        return ({"catalog": "product", "factors": [a, b]}, ["h1", "h2"],
                (a + 1) * (b + 1), 0, None)
    n = rng.randint(2, 4)
    count = rng.randint(1, 5 if n == 2 else 3)
    return ({"catalog": "blowup_point", "count": count,
             "base": {"catalog": "projective", "n": n}},
            ["h"] + [f"e{j + 1}" for j in range(count)],
            n + 1 + count * (n - 1), count, n)


def _literal_projective(n):
    """P^n written out as a literal presentation with plain names."""
    names = ["[W]"] + [f"x{k}" for k in range(1, n + 1)]
    products = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            products[f"{names[i]},{names[j]}"] = names[i + j] if i + j <= n else 0
    chern = " + ".join(["1"] + [f"{comb(n + 1, k)}*{names[k]}"
                                for k in range(1, n + 1)])
    return {"catalog": "literal", "presentation": {
        "dim": n, "basis": [[x] for x in names], "products": products,
        "degree": {names[n]: 1}, "chern": chern, "point": names[n]}}


def _literal_quadric():
    """P^1 x P^1 as a literal presentation."""
    return {"catalog": "literal", "presentation": {
        "dim": 2, "basis": [["[W]"], ["u", "v"], ["p"]],
        "products": {"u,u": 0, "v,v": 0, "u,v": "p"},
        "degree": {"p": 1}, "chern": "1 + 2*u + 2*v + 4*p", "point": "p"}}


_CATALOG = ("projective", "product", "blowup", "blowup")
# ring kinds per verb: csm and stringy push through a blow-down chain
_RING_KINDS = {"ring": _CATALOG + ("literal",), "integrate": _CATALOG + ("literal",),
               "zeta": _CATALOG, "csm": ("blowup",), "stringy": ("blowup",)}


def _class_text(coeffs):
    return " + ".join(f"({c})*{n}" for n, c in coeffs.items())


def _mult_json(mult, style):
    """JSON form of a multiplicity; m-linear ones as {"a","k"} or a string."""
    if mult[0] == "const":
        q = Fraction(mult[1])
        return q.numerator if q.denominator == 1 else mult[1]
    if style == "pair":
        return {"a": mult[1], "k": mult[2]}
    return f"{mult[1]}*m + {mult[2]}"


def _explicit_chain(count, n):
    """The blow-down of `count` point blow-ups of P^n as one literal map."""
    base = ["[V]"] + ["h" if k == 1 else f"h^{k}" for k in range(1, n + 1)]
    forward = {name: name for name in base}
    for j in range(1, count + 1):
        for k in range(1, n):
            forward["e%d" % j if k == 1 else "e%d^%d" % (j, k)] = 0
    return [{"target": {"catalog": "projective", "n": n},
             "forward": forward,
             "pullback": {name: name for name in base},
             "label": "blow-down"}]


def _selection_spec(rng, names, allow_explicit=True):
    kinds = ["whole", "closed"] + (["explicit"] if allow_explicit else [])
    kind = rng.choice(kinds)
    if kind == "whole":
        return ["whole"]
    if kind == "closed":
        return ["closed", _closed(rng, names)]
    return ["explicit", _explicit(rng, names)]


def _selection_json(sel):
    if sel[0] == "whole":
        return {"whole": True}
    if sel[0] == "closed":
        return {"closed": sel[1]}
    return {"strata": explicit_strata(sel)}


def explicit_strata(sel):
    """The index sets of an ["explicit", {core, extras}] selection:
    every subset of the core, then the extras."""
    core = sel[1]["core"]
    down = [[n for j, n in enumerate(core) if mask >> j & 1]
            for mask in range(2 ** len(core))]
    return down + sel[1]["extras"]


def cli_case(seed: int, r: int, verb: str, j: int) -> dict:
    """One generated CLI op: the model file, the arguments and what to check."""
    rng = _rng(seed, "cli", r, verb, j)
    case = {"verb": verb, "options": []}
    if verb == "ring":
        desc, _, euler, _, _ = _ring_choice(rng, _RING_KINDS["ring"])
        case.update(model={"ring": desc}, euler=euler)
        return case
    count = rng.randint(1, 6)
    names = _names(count, rng.choice(("D", "E", "F")))
    if verb in ("degree", "ix") or (verb == "zeta" and rng.random() < 0.5):
        mults = [_mult(rng, True) for _ in names]
        model = {"components": [{"name": n, "mult": _mult_json(m, "pair")}
                                for n, m in zip(names, mults)]}
        if verb == "ix":
            labels = [f"S{i}" for i in range(rng.randint(1, 3))]
            model["base_strata"] = {lab: rng.randint(-1, 3) for lab in labels}
            model["fiber"] = _fiber(rng, names, labels)
            if rng.random() < 0.5:
                case["options"] = ["--selection", "closed:" + ",".join(
                    _closed(rng, names))]
        else:
            model["chi_closed"] = _chi_table(rng, names, max_key=2)
            if verb == "zeta":
                case["options"] = ["--degree"]
            if rng.random() < 0.5:
                case["options"] += ["--selection", "closed:" + ",".join(
                    _closed(rng, names))]
        case.update(model=model, mults=mults, level="degree")
        return case
    constant = verb in ("csm", "stringy")
    linear = not constant and (verb == "zeta" or rng.random() < 0.5)
    desc, divisor_names, _, count_bl, base_n = _ring_choice(rng, _RING_KINDS[verb])
    mults = [_mult(rng, linear) for _ in names]
    style = "pair" if verb == "zeta" or rng.random() < 0.5 else "text"
    model = {"ring": desc, "components": [
        {"name": n, "class": _class_text(_divisor(rng, divisor_names)),
         "mult": _mult_json(m, style)} for n, m in zip(names, mults)]}
    if verb != "stringy":
        sel = _selection_spec(rng, names, allow_explicit=verb != "csm")
        model["selection"] = _selection_json(sel)
        case["selection"] = sel
    if count_bl:
        model["chains"] = {"construction": "construction",
                           "explicit": _explicit_chain(count_bl, base_n)}
        if constant or rng.random() < 0.6:
            case["options"] = ["--manifest",
                               rng.choice(("construction", "explicit"))]
    if linear and rng.random() < 0.3:
        case["options"] += ["--eval", f"m={rng.randint(0, 3)}"]
    case.update(model=model, mults=mults, level="class")
    return case


def cli_round(seed: int, r: int) -> list:
    """Round r of the cli workload: the README invocations and the
    generated cases, shuffled."""
    ops = [{"readme": i} for i in range(len(README_CASES))]
    ops += [{"case": cli_case(seed, r, verb, j)}
            for verb in CLI_VERBS for j in range(CLI_PER_VERB)]
    _rng(seed, "cli", r, "order").shuffle(ops)
    return ops


def dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
