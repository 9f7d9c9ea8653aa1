"""The degree-level kernel against the pairwise sums it replaced.

`reference_stratum_sum` and `reference_integrate_degree` are the
earlier implementations: each index set's weight is built by dividing
by 1 + m_i one name at a time, and every open stratum below a key of the
Euler table is visited. Every step reduces a RationalFunction, so the
references are slow but share no code with the kernel beyond Q(m)
arithmetic. The zeta pole report is checked against `rational_poles`,
which searches the divisors of the denominator's coefficients.
"""

import random
import warnings
from fractions import Fraction
from itertools import chain, combinations

import pytest

from celint.celestial import integrate_degree, ix_function, zeta_degree
from celint.errors import RegimeWarning, ZeroDenominator
from celint.exactnum import RF_M, Polynomial, rational_poles, rf
from celint.exprparse import parse_rf
from celint.model import DegreeConfig, FiberedConfig, StratumSelection, stratum_sum

from conftest import time_limit

# constant (including values <= -1), m-linear and parsed multiplicities;
# 1 + (m^2 + 3*m + 1) = (m + 1)(m + 2) is a reducible non-linear factor
PARSED = ("1/(1+m^2)", "m^2+1", "m^2 + 3*m + 1", "1/m", "(m - 2)/(m + 3)")
DECOMPOSED = ((0, 0), (0, 2), (0, -2), (0, Fraction(-3, 2)), (0, Fraction(1, 2)),
              (0, Fraction(1, 3)), (0, 10**18 + 7),
              (1, 0), (1, 1), (2, 1), (3, -2), (-1, 4), (Fraction(1, 2), 0),
              (6, 4), (2, 10**6 + 2))
CONSTANT = tuple(pair for pair in DECOMPOSED if pair[0] == 0)


def all_subsets(names):
    names = tuple(names)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(names, r) for r in range(len(names) + 1))]


def reference_stratum_sum(selection, mults, terms):
    total = rf(0)
    for index, c in terms:
        if c == 0 or index not in selection:
            continue
        weight = rf(c)
        for name in index:
            weight = weight / (rf(1) + mults[name])
        total = total + weight
    return total


def reference_integrate_degree(config, selection):
    below = set()
    for key in config.chi_closed:
        below |= set(all_subsets(key))
    return reference_stratum_sum(
        selection, config.mults,
        ((index, config.chi_of_open(index)) for index in below),
    )


def reference_value_at(fibered, label, selection):
    return reference_stratum_sum(
        selection, fibered.mults,
        ((index, c) for (lab, index), c in fibered.fiber.items() if lab == label),
    )


def draw_mults(rng, names, parsed, constant=False):
    """Multiplicities and the a*m + k decompositions of the linear ones;
    only constants when constant is set, so the kernel sums in Fractions."""
    mults, decompositions = {}, {}
    for name in names:
        if parsed and rng.random() < 0.3:
            mults[name] = parse_rf(rng.choice(PARSED))
        else:
            a, k = rng.choice(CONSTANT if constant else DECOMPOSED)
            mults[name] = rf(a) * RF_M + rf(k)
            decompositions[name] = (Fraction(a), Fraction(k))
    return mults, decompositions


def draw_selections(rng, names):
    subsets = all_subsets(names)
    yield StratumSelection.whole(names)
    yield StratumSelection.empty(names)
    if names:
        for _ in range(2):
            core = rng.sample(names, rng.randint(1, len(names)))
            yield StratumSelection.from_closed(names, core)
    for _ in range(2):
        listed = rng.sample(subsets, rng.randint(0, len(subsets)))
        yield StratumSelection.from_strata(names, listed)


def draw_table(rng, names):
    subsets = all_subsets(names)
    table = {frozenset(): Fraction(rng.randint(-3, 6))}
    for key in rng.sample(subsets, min(len(subsets), rng.randint(0, 6))):
        table[key] = Fraction(rng.randint(-3, 5), rng.choice((1, 1, 2)))
    return table


# seeds from 40 on draw constant multiplicities only
@pytest.mark.parametrize("seed", range(60))
def test_integrate_degree_matches_pairwise_sums(seed):
    rng = random.Random(seed)
    names = tuple(f"E{i}" for i in range(rng.randint(0, 6)))
    mults, decompositions = draw_mults(
        rng, names, parsed=seed % 2 == 0 and seed < 40, constant=seed >= 40)
    config = DegreeConfig(names, mults, draw_table(rng, names), dim=2,
                          decompositions=decompositions)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        for selection in draw_selections(rng, names):
            want = reference_integrate_degree(config, selection)
            assert integrate_degree(config, selection) == want
            if len(decompositions) == len(names):
                value, report = zeta_degree(config, selection)
                assert value == want
                assert report == rational_poles(want)


# seeds from 20 on draw constant multiplicities only
@pytest.mark.parametrize("seed", range(30))
def test_fibered_values_match_pairwise_sums(seed):
    rng = random.Random(1000 + seed)
    names = tuple(f"D{i}" for i in range(rng.randint(0, 5)))
    mults, _ = draw_mults(rng, names, parsed=seed < 20, constant=seed >= 20)
    subsets = all_subsets(names)
    fiber = {
        (label, key): Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
        for label in ("p", "q")
        for key in rng.sample(subsets, min(len(subsets), rng.randint(0, 7)))
    }
    stored = StratumSelection.from_strata(
        names, rng.sample(subsets, rng.randint(0, len(subsets))))
    fibered = FiberedConfig(names, mults, stored, {"p": 1, "q": -2}, fiber)
    stored_values = {label: reference_value_at(fibered, label, stored)
                     for label in ("p", "q")}
    for label, want in stored_values.items():
        assert fibered.value_at(label) == want
    total = ix_function(fibered).paired_total(fibered.base_strata)
    assert total == stored_values["p"] - rf(2) * stored_values["q"]
    for selection in draw_selections(rng, names):
        fn = ix_function(fibered, selection)
        for label in ("p", "q"):
            assert fn.value(label) == reference_value_at(fibered, label, selection)


def test_zeta_poles_of_nineteen_digit_multiplicities():
    # rational_poles would search the divisors of 19-digit coefficients
    huge = 10**18 + 8
    names = ("D", "E1", "E2", "E3")
    decompositions = {"D": (1, 0), "E1": (2, 1), "E2": (3, 2), "E3": (1, huge)}
    mults = {n: rf(a) * RF_M + rf(k) for n, (a, k) in decompositions.items()}
    table = {frozenset(): 6, **{frozenset({n}): 2 for n in names},
             frozenset({"D", "E3"}): 1, frozenset({"E1", "E3"}): 1,
             frozenset({"E2", "E3"}): 1}
    config = DegreeConfig(names, mults, table, dim=2, decompositions=decompositions)
    for selection in (StratumSelection.whole(names),
                      StratumSelection.from_closed(names, ["E3"]),
                      StratumSelection.from_strata(names, [{"E3"}, {"D", "E3"}])):
        value, report = zeta_degree(config, selection)
        assert value == reference_integrate_degree(config, selection)
        for pole in report.poles:
            assert value.den.evaluate(pole) == 0
        assert not report.nonrational_factors
        # the denominator splits into the linear factors at the poles
        assert len(report.poles) == value.den.degree
    assert zeta_degree(config)[1].render() == f"{-(huge + 1)}, -1"


def test_large_key_with_nineteen_digit_multiplicities_finishes_fast():
    # one key of 16 names, each with a 19-digit k: the subset sum over the
    # key took minutes; one gcd on the degree-16 denominator takes 0.5 s
    names = [f"N{i}" for i in range(16)]
    decompositions = {n: (1 + i % 3, 10**18 + i) for i, n in enumerate(names)}
    mults = {n: rf(a) * RF_M + rf(k) for n, (a, k) in decompositions.items()}
    table = {frozenset(): 5, frozenset(names): 1, frozenset(names[:1]): 2,
             frozenset(names[1:3]): -1}
    config = DegreeConfig(names, mults, table, decompositions=decompositions)
    point = Fraction(1, 3)
    with time_limit(5):
        value, report = zeta_degree(config)
        closed = integrate_degree(config, StratumSelection.from_closed(names, names[2:5]))
    x = {n: 1 / (1 + m.evaluate(point)) - 1 for n, m in mults.items()}

    def product(key):
        out = Fraction(1)
        for name in key:
            out *= x[name]
        return out

    core = frozenset(names[2:5])
    assert value.evaluate(point) == sum(chi * product(key) for key, chi in table.items())
    assert closed.evaluate(point) == sum(
        chi * (product(key) - (-1) ** len(key & core) * product(key - core))
        for key, chi in table.items())
    assert len(report.poles) == value.den.degree == 16
    assert all(value.den.evaluate(pole) == 0 for pole in report.poles)


def test_kernel_sums_repeated_index_sets():
    mults = {"A": RF_M, "B": parse_rf("m^2 + 3*m + 1"), "C": rf(-3)}
    terms = [(frozenset("A"), 2), (frozenset("AB"), Fraction(1, 3)),
             (frozenset("A"), -1), (frozenset(), 5), (frozenset("BC"), 0)]
    whole = StratumSelection.whole("ABC")
    assert stratum_sum(terms, mults) == reference_stratum_sum(
        whole, mults, [(frozenset("A"), 1), (frozenset("AB"), Fraction(1, 3)),
                       (frozenset(), 5)])
    # x - 1 = -m/(1+m): a key A with chi 1 and the empty key with chi -1
    # give 1/(1+m) - 2
    assert stratum_sum([(frozenset("A"), 1), (frozenset(), -1)], mults,
                       less_one=True) == rf(1) / (rf(1) + RF_M) - rf(2)
    assert stratum_sum([(frozenset("A"), 1), (frozenset("A"), -1)], mults) == rf(0)
    assert stratum_sum([], mults) == rf(0)
    # with constant multiplicities only, the kernel sums in Fractions
    constant = {"A": rf(-2), "B": rf(Fraction(-3, 2)), "C": rf(Fraction(1, 3)),
                "D": rf(10**18 + 7)}
    listed = [(frozenset("A"), 2), (frozenset("AB"), Fraction(1, 3)),
              (frozenset("A"), -1), (frozenset(), 5), (frozenset("BCD"), 7),
              (frozenset("CD"), Fraction(-5, 2))]
    merged = [(frozenset("A"), 1)] + listed[1:2] + listed[3:]
    assert stratum_sum(listed, constant) == reference_stratum_sum(
        StratumSelection.whole("ABCD"), constant, merged)
    # x - 1 = -m/(1+m) = -2 at m = -2, and 1/(10^18 + 8) - 1 at D
    assert stratum_sum([(frozenset("A"), 3), (frozenset("D"), 1)], constant,
                       less_one=True) == rf(-6) + rf(Fraction(1, 10**18 + 8)) - rf(1)


@pytest.mark.parametrize("less_one", [False, True])
def test_kernel_rejects_a_multiplicity_of_minus_one(less_one):
    # 1 + m vanishes, on the Fraction path and on the Q(m) path alike
    for other in (rf(2), RF_M):
        mults = {"A": rf(-1), "B": other}
        with pytest.raises(ZeroDenominator):
            stratum_sum([(frozenset("AB"), 1)], mults, less_one=less_one)


def test_constant_weights_fold_into_the_coefficients(monkeypatch):
    # four names, one of them m-linear: only its factor enters polynomial
    # arithmetic, so a call makes one product per term and one for the
    # denominator, and one sum per term and one for d + n
    mults = {"A": rf(2), "B": rf(Fraction(1, 3)), "C": RF_M + rf(1),
             "D": rf(Fraction(-5, 2))}
    terms = [(frozenset(), Fraction(3)), (frozenset("A"), Fraction(1)),
             (frozenset("AC"), Fraction(-2)), (frozenset("BCD"), Fraction(1, 2)),
             (frozenset("C"), Fraction(4)), (frozenset("ABD"), Fraction(5))]
    whole = StratumSelection.whole("ABCD")

    def reference_less_one(terms):
        total = rf(0)
        for index, c in terms:
            value = rf(c)
            for name in index:
                value = value * (rf(-1) * mults[name] / (rf(1) + mults[name]))
            total = total + value
        return total

    want = [reference_stratum_sum(whole, mults, terms), reference_less_one(terms)]
    calls = {"__mul__": 0, "__add__": 0}
    for name in calls:
        original = getattr(Polynomial, name)

        def counting(self, other, original=original, name=name):
            calls[name] += 1
            return original(self, other)

        monkeypatch.setattr(Polynomial, name, counting)
    got = [stratum_sum(terms, mults), stratum_sum(terms, mults, less_one=True)]
    assert calls == {"__mul__": 14, "__add__": 14}
    assert got == want
