"""Checkers for the structural identities, plus seeded random suites.

Each checker computes the two sides of one asserted identity through
independent code paths and reports them rendered, with pass meaning
exact structural equality. The randomized suites draw catalog rings,
divisor classes, multiplicities, selections, and blow-up steps from a
seeded generator, so every reported failure is reproducible.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .catalog import ring_blowup_point, ring_product, ring_projective
from .celestial import (
    alternate_form2,
    alternate_form3,
    csm_stratum,
    integrate_class,
    integrate_degree,
)
from .chow import ChowClass, ChowRing
from .errors import RingMismatch
from .exactnum import RF_M, rf
from .model import (
    BlowupStep,
    Component,
    DegreeConfig,
    NCConfig,
    StratumSelection,
    blowup_transport,
    blowup_transport_degree,
    sorted_strata,
)

DEFAULT_SEED = 20260818


class CheckReport(namedtuple("CheckReport", "name passed lhs rhs context")):
    """One checked identity: both sides rendered, and whether they agree."""

    __slots__ = ()

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.context}"


def _compare(name, lhs, rhs, context) -> CheckReport:
    ls, rs = lhs.render(), rhs.render()
    return CheckReport(name, ls == rs and lhs == rhs, ls, rs, context)


def _describe_config(config: NCConfig) -> str:
    parts = [
        f"{c.name}={c.divisor.render()}@{c.mult.render()}"
        for c in config.components
    ]
    return f"dim {config.ring.dim}; " + ("; ".join(parts) if parts else "no components")


def check_key(config: NCConfig, selection: StratumSelection,
              step: BlowupStep) -> CheckReport:
    """Blow-up invariance: push-forward of the transported integral
    equals the original integral."""
    before = integrate_class(config, selection)
    new_config, new_selection, blowdown = blowup_transport(config, selection, step)
    after = blowdown.push(integrate_class(new_config, new_selection))
    context = (
        f"{_describe_config(config)}; selection {selection.describe()}; "
        f"center on {{{','.join(sorted(step.contains))}}}"
    )
    return _compare("key", after, before, context)


def check_denloe(config: DegreeConfig, steps: list,
                 selection: StratumSelection) -> CheckReport:
    """Degree-level invariance of the weighted Euler sum under point
    blow-ups of a surface configuration."""
    before = integrate_degree(config, selection)
    current, sel = config, selection
    for step in steps:
        current, sel = blowup_transport_degree(current, sel, step)
    after = integrate_degree(current, sel)
    context = (
        f"components {','.join(config.names) or '(none)'}; "
        f"{len(steps)} blow-up step(s); selection {selection.describe()}"
    )
    return _compare("denloe", after, before, context)


def check_altexp(config: NCConfig) -> CheckReport:
    """The whole-space integral written three ways gives one class."""
    form1 = integrate_class(config, None)
    form2 = alternate_form2(config)
    form3 = alternate_form3(config)
    passed = form1 == form2 == form3
    rhs = form2 if form1 != form2 else form3
    return CheckReport(
        "altexp", passed, form1.render(), rhs.render(), _describe_config(config)
    )


def check_necfacts(base: ChowRing, divisors=()) -> list:
    """Push-forward identities of a point blow-up, returned one report
    per identity. Divisors, when given, are classes through the center
    and enable the log-twisted identity."""
    upstairs, blowdown, e = ring_blowup_point(base)
    d = base.dim
    ctw = upstairs.require_tangent_chern()
    ctv = base.require_tangent_chern()
    pt = base.basis_class(base.point)
    one = upstairs.one()
    log_ctw = ctw * (one + e).inverse()
    context = f"blow-up of a point in a dim-{d} catalog ring"
    reports = [
        _compare(
            "necfacts2",
            blowdown.push(ctw),
            ctv + pt.scale(rf(d - 1)),
            context,
        ),
        _compare(
            "necfacts3",
            blowdown.push(log_ctw * e),
            pt.scale(rf(d)),
            context,
        ),
        _compare(
            "necfacts4",
            blowdown.push(log_ctw),
            ctv - pt,
            context,
        ),
    ]
    if divisors:
        rhs = ctv
        for div in divisors:
            if div.ring is not base:
                raise RingMismatch("necfacts divisors must live in the base ring")
            transform = blowdown.pull(div) - e
            log_ctw = log_ctw * (one + transform).inverse()
            rhs = rhs * (base.one() + div).inverse()
        reports.append(_compare(
            "necfacts5",
            blowdown.push(log_ctw),
            rhs,
            context + f"; {len(divisors)} divisor(s) through the center",
        ))
    return reports


def _rand_fraction(rng: random.Random) -> Fraction:
    """Small rational in (-1, 5]."""
    den = rng.choice((1, 1, 1, 2, 2, 3, 4))
    num = rng.randint(-den + 1, 5 * den)
    return Fraction(num, den)


# The catalog rings the instance generators draw from; the first four
# are the surfaces P^2, P^1 x P^1, Bl P^2 and Bl^2 P^2.
_Pool = namedtuple("_Pool", "plane quadric once twice space")


@cache
def _pool() -> _Pool:
    """Build the ring pool on first use, not at import. Every instance
    and suite shares it, so a blow-up of a pooled ring is built and
    validated once and then taken from the ring (`ring_blowup_point`)."""
    plane = ring_projective(2)
    once = ring_blowup_point(plane)[0]
    return _Pool(
        plane,
        ring_product(ring_projective(1), ring_projective(1)),
        once,
        ring_blowup_point(once)[0],
        ring_projective(3),
    )


def _rand_surface(rng: random.Random) -> ChowRing:
    return _pool()[rng.randrange(4)]


def _rand_divisor(rng: random.Random, ring: ChowRing) -> ChowClass:
    coeffs = {}
    names = ring.basis[1]
    while not coeffs:
        for name in names:
            c = rng.choice((-1, 0, 0, 1, 1, 2))
            if c:
                coeffs[name] = c
    return ChowClass(ring, coeffs)


def _rand_config(rng: random.Random, ring: ChowRing,
                 with_decomposition=False) -> NCConfig:
    count = rng.randint(0, 3)
    components = []
    for idx in range(count):
        if with_decomposition:
            a = Fraction(rng.randint(0, 3))
            k = _rand_fraction(rng)
            mult = rf(a) * RF_M + rf(k)
            components.append(Component(
                f"C{idx + 1}", mult, _rand_divisor(rng, ring), (a, k)
            ))
        else:
            components.append(Component(
                f"C{idx + 1}", rf(_rand_fraction(rng)), _rand_divisor(rng, ring)
            ))
    return NCConfig(ring, components)


def _rand_selection(rng: random.Random, names) -> StratumSelection:
    kind = rng.randrange(4)
    if kind == 0:
        return StratumSelection.whole(names)
    if kind == 1 and names:
        size = rng.randint(1, len(names))
        return StratumSelection.from_closed(names, rng.sample(list(names), size))
    if kind == 2:
        return StratumSelection.empty(names)
    pool = sorted_strata(StratumSelection.whole(names).strata)
    return StratumSelection.from_strata(
        names, [s for s in pool if rng.random() < 0.5]
    )


def _instance_key(rng: random.Random) -> CheckReport:
    ring = _rand_surface(rng)
    config = _rand_config(rng, ring)
    selection = _rand_selection(rng, config.names)
    size = rng.randint(0, min(2, len(config.names)))
    contains = frozenset(rng.sample(list(config.names), size))
    step = BlowupStep(contains, "E0")
    return check_key(config, selection, step)


def _instance_altexp(rng: random.Random) -> CheckReport:
    dim_choice = rng.randrange(3)
    if dim_choice == 2:
        ring = _pool().space
    else:
        ring = _rand_surface(rng)
    config = _rand_config(rng, ring)
    return check_altexp(config)


def _instance_additivity(rng: random.Random) -> CheckReport:
    ring = _rand_surface(rng)
    config = _rand_config(rng, ring)
    s1 = _rand_selection(rng, config.names)
    s2 = _rand_selection(rng, config.names)
    union = integrate_class(config, s1.union(s2))
    inter = integrate_class(config, s1.intersect(s2))
    left = integrate_class(config, s1)
    right = integrate_class(config, s2)
    incexc_l = union + inter
    incexc_r = left + right
    disjoint = s2.difference(s1)
    disj_l = integrate_class(config, s1.union(disjoint))
    disj_r = left + integrate_class(config, disjoint)
    lhs = f"incexc={incexc_l.render()}; disjoint={disj_l.render()}"
    rhs = f"incexc={incexc_r.render()}; disjoint={disj_r.render()}"
    passed = incexc_l == incexc_r and disj_l == disj_r
    context = (
        f"{_describe_config(config)}; |S1|={len(s1.strata)}, |S2|={len(s2.strata)}"
    )
    return CheckReport("additivity", passed, lhs, rhs, context)


def _rand_degree_config(rng: random.Random) -> DegreeConfig:
    count = rng.randint(0, 3)
    names = tuple(f"C{i + 1}" for i in range(count))
    mults = {name: rf(_rand_fraction(rng)) for name in names}
    table = {frozenset(): Fraction(rng.randint(1, 6))}
    pool = sorted_strata(StratumSelection.whole(names).strata)
    for key in pool:
        if key and rng.random() < 0.6:
            table[key] = Fraction(rng.randint(-3, 5))
    return DegreeConfig(names, mults, table, dim=2)


def _instance_denloe(rng: random.Random) -> CheckReport:
    config = _rand_degree_config(rng)
    selection = _rand_selection(rng, config.names)
    steps = []
    names = list(config.names)
    for idx in range(rng.randint(1, 4)):
        size = rng.randint(0, min(2, len(names)))
        contains = frozenset(rng.sample(names, size))
        new = f"E{idx}"
        steps.append(BlowupStep(contains, new))
        names.append(new)
    return check_denloe(config, steps, selection)


def _instance_necfacts(rng: random.Random) -> list:
    pool = _pool()
    base = (pool.plane, pool.space, pool.quadric, pool.once)[rng.randrange(4)]
    divisors = [_rand_divisor(rng, base) for _ in range(rng.randint(0, 2))]
    return check_necfacts(base, divisors)


def _instance_csmnorm(rng: random.Random) -> CheckReport:
    ring = _rand_surface(rng)
    config = _rand_config(rng, ring)
    total = ring.zero()
    pool = sorted_strata(StratumSelection.whole(config.names).strata)
    for index in pool:
        total = total + csm_stratum(config, index)
    return _compare(
        "csmnorm", total, ring.require_tangent_chern(), _describe_config(config)
    )


def _instance_specialize(rng: random.Random) -> CheckReport:
    ring = _rand_surface(rng)
    config = _rand_config(rng, ring, with_decomposition=True)
    point = Fraction(rng.randint(0, 3))
    family = integrate_class(config, None).evaluate(point)
    specialized = NCConfig(ring, [
        Component(c.name, rf(c.mult.evaluate(point)), c.divisor)
        for c in config.components
    ])
    direct = integrate_class(specialized, None)
    return _compare(
        "specialize", family, direct,
        f"{_describe_config(config)}; at m={point}",
    )


SUITES = {
    "key": _instance_key,
    "altexp": _instance_altexp,
    "additivity": _instance_additivity,
    "denloe": _instance_denloe,
    "necfacts": _instance_necfacts,
    "csmnorm": _instance_csmnorm,
    "specialize": _instance_specialize,
}


def run_suite(name: str, instances: int = 100, seed: int = DEFAULT_SEED) -> list:
    """Run one named suite; returns the flat list of reports.

    Instance seeds derive deterministically from the suite seed, so
    results are reproducible.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    instance_fn = SUITES[name]
    master = random.Random(f"{seed}:{name}")
    instance_seeds = [master.randrange(2**63) for _ in range(instances)]

    out = []
    for instance_seed in instance_seeds:
        result = instance_fn(random.Random(instance_seed))
        for r in result if isinstance(result, list) else [result]:
            out.append(r._replace(context=f"{r.context} [seed {instance_seed}]"))
    return out

