"""The integral and its derived invariants.

Everything here evaluates one expression and its relatives: the total
log-twisted Chern class of a resolution paired against a selection of
open strata, with each stratum weighted by the reciprocals 1/(1+m_i)
of its component multiplicities. Degree-level versions work from Euler
characteristic tables alone; push-forward chains move class-level
answers to any other model of the same space.
"""

from __future__ import annotations

from fractions import Fraction

from .chow import ChowClass
from .errors import (
    MissingDecomposition,
    PreconditionViolated,
    RingMismatch,
    SchemaError,
)
from .exactnum import (RF_ONE, RF_ZERO, PoleReport, RationalFunction, cleared,
                       stratum_sum)
from .model import DegreeConfig, FiberedConfig, NCConfig, StratumSelection


class ConstructibleFunction:
    """Rational-function values attached to named base strata, as the
    (label, value) pairs of `entries`."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    def render(self) -> str:
        return "\n".join(f"{name}: {v.render()}" for name, v in self.entries)


def manifest(c: ChowClass, chain) -> ChowClass:
    """Push a class through a chain: None or a sequence of maps that
    compose; the empty chain is the identity."""
    maps = () if chain is None else tuple(chain)
    for first, second in zip(maps, maps[1:]):
        if first.target is not second.source:
            raise RingMismatch("chain maps do not compose")
    if maps and c.ring is not maps[0].source:
        raise RingMismatch("class does not live at the start of the chain")
    for f in maps:
        c = f.push(c)
    return c


def log_chern(config: NCConfig) -> ChowClass:
    """c(TV) divided by the product of (1 + E_j) over the components. The
    divisors are constant, so the product is one integer `times_one_plus`
    pass (p = q = 1) and one inverse; Q(m) never enters."""
    # configurations never change after construction, so the class is
    # computed once and kept on the configuration
    if config._log_chern is None:
        ring = config.ring
        product = ring.one().times_one_plus(
            (1, 1, comp.divisor) for comp in config.components)
        config._log_chern = ring.require_tangent_chern() * product.inverse()
    return config._log_chern


def _selection_for(config, selection) -> StratumSelection:
    if selection is None:
        return StratumSelection.whole(config.names)
    selection.check_universe(config.names)
    return selection


def _weighted_product(config: NCConfig, names, start: ChowClass) -> ChowClass:
    """start times F_i = 1 + E_i/(1+m_i) over names. A constant m_i = a/b
    gives F_i = 1 + (p/q)*E_i with p = b and q = a + b, and these factors
    are taken first, in integers; the m-dependent ones follow in Q(m)."""
    one = config.ring.one()
    constant, dependent = [], []
    for name in names:
        mult = config.mult_of(name)
        if mult.is_constant():
            m = mult.as_fraction()
            constant.append(
                (m.denominator, m.numerator + m.denominator, config.divisor_of(name)))
        else:
            dependent.append(name)
    if start.is_constant():
        total = start.times_one_plus(constant)
    else:
        total = start * one.times_one_plus(constant)
    for name in dependent:
        weight = RF_ONE / (RF_ONE + config.mult_of(name))
        total = total * (one + config.divisor_of(name).scale(weight))
    return total


def selection_class(config: NCConfig, selection: StratumSelection) -> ChowClass:
    """The integral: log_chern(config) times the sum over selected index
    sets I of the product of E_i/(1+m_i), i in I.

    With F_i = 1 + E_i/(1+m_i), the whole sum is the product of all F_i,
    and closed(L)'s the product over i outside L times (the product over
    L, minus 1). Each pass starts from log_chern (closed(L)'s outside
    pass from log_chern times that difference), with the constant F_i in
    one integer `times_one_plus` pass and the m-dependent ones in Q(m).
    For each listed I of at most dim members, an explicit selection
    builds the integer class log_chern * prod_I E_i from its longest
    prefix, and one `stratum_sum` call sums them.
    """
    start = log_chern(config)
    selection = _selection_for(config, selection)
    ring = config.ring
    if selection.kind == "whole":
        return _weighted_product(config, config.names, start)
    if selection.kind == "closed":
        core = selection.core
        inside = _weighted_product(
            config, (n for n in config.names if n in core), start)
        return _weighted_product(
            config, (n for n in config.names if n not in core), inside - start)
    order = {name: i for i, name in enumerate(config.names)}
    products, terms = {(): start}, []
    for index in selection.strata:
        if len(index) <= ring.dim:
            key = tuple(sorted(index, key=order.get))
            for j in range(1, len(key) + 1):
                if key[:j] not in products:
                    products[key[:j]] = products[key[:j - 1]] * config.divisor_of(key[j - 1])
            terms.append((index, products[key]._den, products[key]._ints))
    den, sums = stratum_sum(terms, config.mults)
    return ChowClass._make(ring, sums) if den is None else ChowClass._from_ints(ring, den, sums)


def integrate_class(config: NCConfig, selection: StratumSelection = None) -> ChowClass:
    """The integral at the resolving ring, as a class with Q(m) coefficients."""
    config.warn_if_outside()
    return selection_class(config, selection)


def _values(den, sums: dict) -> dict:
    """The sums of `stratum_sum` as RationalFunctions by key."""
    return sums if den is None else {
        key: RationalFunction.constant(Fraction(c, den)) for key, c in sums.items()}


def integrate_degree(config: DegreeConfig,
                     selection: StratumSelection = None) -> RationalFunction:
    """Degree of the integral from the Euler characteristics of strata.

    Over the whole space, the sum over open strata E_I of
    chi(E_I) * prod_{i in I} 1/(1+m_i) is the sum over the keys J of the
    closed-strata table of chi_J * prod_{j in J} x_j, with
    x_j = 1/(1+m_j) - 1. Over closed(L), a key J contributes
    chi_J * (prod_J x - (-1)^|J & L| * prod_{J - L} x), which is zero when
    J misses L. An explicit selection sums its own strata, each weighted
    by the Euler characteristic of its open stratum.
    """
    config.warn_if_outside()
    selection = _selection_for(config, selection)
    if selection.kind == "explicit":
        terms = [(index, config.chi_of_open(index)) for index in selection.strata]
    elif selection.kind == "whole":
        terms = config.chi_closed.items()
    else:
        terms = []
        for key, chi in config.chi_closed.items():
            inside = key & selection.core
            if inside:
                terms += [(key, chi), (key - inside, chi if len(inside) % 2 else -chi)]
    # the degree is the one entry of each coefficient vector
    sums = _values(*stratum_sum(
        ((index, chi.denominator, {0: chi.numerator}) for index, chi in terms),
        config.mults, less_one=selection.kind != "explicit"))
    return sums.get(0, RF_ZERO)


def alternate_form2(config: NCConfig) -> ChowClass:
    """Whole-space integral as a signed combination of Chern classes of
    the closed strata, each weighted by products of m_i/(1+m_i).

    The sum over index sets I of (-1)^|I| prod_{i in I} w_i E_i/(1+E_i),
    with w_i = m_i/(1+m_i), times c(TV), factors as
    c(TV) * prod_i (1 - w_i E_i/(1+E_i)): c products and c inverses.
    """
    one = config.ring.one()
    total = config.ring.require_tangent_chern()
    for comp in config.components:
        weight = comp.mult / (RF_ONE + comp.mult)
        quotient = comp.divisor * (one + comp.divisor).inverse()
        total = total * (one - quotient.scale(weight))
    return total


def alternate_form3(config: NCConfig) -> ChowClass:
    """Whole-space integral as a weighted average of log-twisted Chern
    classes of the sub-configurations.

    The sum over index sets I of prod_{i in I} m_i/(1+E_i), times c(TV)
    and prod_i 1/(1+m_i), factors as
    prod_i 1/(1+m_i) * c(TV) * prod_i (1 + m_i/(1+E_i)).
    """
    one = config.ring.one()
    total = config.ring.require_tangent_chern()
    prefactor = RF_ONE
    for comp in config.components:
        prefactor = prefactor / (RF_ONE + comp.mult)
        total = total * (one + (one + comp.divisor).inverse().scale(comp.mult))
    return total.scale(prefactor)


def _require_decompositions(names, decompositions: dict):
    for name in names:
        if decompositions.get(name) is None:
            raise MissingDecomposition(
                f"component {name!r} has no a*m + k decomposition"
            )


def zeta_class(config: NCConfig, selection: StratumSelection = None) -> ChowClass:
    """Class-level zeta value: the integral with multiplicities a_j*m + k_j."""
    _require_decompositions(
        config.names, {c.name: c.decomposition for c in config.components}
    )
    return integrate_class(config, selection)


def zeta_degree(config: DegreeConfig, selection: StratumSelection = None):
    """Degree-level zeta function with its rational pole report.

    The value's denominator divides the product of the factors
    1 + m_j = a_j*m + k_j + 1, so its poles lie among the -(1 + k_j)/a_j
    with a_j nonzero; the report keeps those where the denominator
    vanishes. That equals rational_poles(value), without its search
    over the divisors of the denominator's coefficients.
    """
    _require_decompositions(config.names, config.decompositions)
    value = integrate_degree(config, selection)
    candidates = {Fraction(-1 - k) / a for a, k in config.decompositions.values() if a}
    return value, PoleReport(r for r in candidates if value.den.evaluate(r) == 0)


def csm_stratum(config: NCConfig, index) -> ChowClass:
    """CSM class of one open stratum: the log-twisted Chern class times
    the product of the components in the index set. Multiplicities do
    not enter."""
    index = frozenset(index)
    unknown = index - frozenset(config.names)
    if unknown:
        raise SchemaError(f"unknown components {sorted(unknown)} in stratum index")
    cls = log_chern(config)
    for name in index:
        cls = cls * config.divisor_of(name)
    return cls


def _require_constant_mults(config: NCConfig, what: str):
    for comp in config.components:
        if not comp.mult.is_constant():
            raise PreconditionViolated(
                f"{what} needs constant discrepancy multiplicities; "
                f"component {comp.name!r} depends on m"
            )


def csm_set(config: NCConfig, selection: StratumSelection = None,
            chain=None) -> ChowClass:
    """CSM class of the selected constructible set, manifested through
    the chain. The configuration must carry the discrepancies of the
    resolving map as its (constant) multiplicities."""
    _require_constant_mults(config, "csm_set")
    return manifest(integrate_class(config, selection), chain)


def ix_function(config: FiberedConfig,
                selection: StratumSelection = None) -> ConstructibleFunction:
    """The stratumwise constructible function of a fibered configuration,
    over its stored selection unless another one is given: at each base
    stratum, the fiber Euler characteristics of the selected open strata
    E_I weighted by prod_{i in I} 1/(1+m_i). One `stratum_sum` call sums
    every base label at once, with each selected E_I carrying its fiber
    values by label, all cleared to ints over one denominator; Q(m) enters
    only in the one value built per label."""
    selection = config.selection if selection is None else _selection_for(config, selection)
    d, ints = cleared(config.fiber.values())
    vectors = {}
    for (label, index), c in zip(config.fiber, ints):
        if index in selection:
            vectors.setdefault(index, {})[label] = c
    sums = _values(*stratum_sum(
        ((index, d, vector) for index, vector in vectors.items()), config.mults))
    return ConstructibleFunction(
        (label, sums.get(label, RF_ZERO)) for label in config.base_strata)


def stringy_class(config: NCConfig, chain=None) -> ChowClass:
    """Identity manifestation of the whole-space integral of discrepancy
    data; its degree is the stringy Euler number."""
    _require_constant_mults(config, "stringy_class")
    return manifest(integrate_class(config, None), chain)

