"""The degree-level kernel against the pairwise sums it replaced.

`reference_stratum_sum` and `reference_integrate_degree` are the
earlier implementations: each index set's weight is built by dividing
by 1 + m_i one name at a time, and every open stratum below a key of the
Euler table is visited. Every step reduces a RationalFunction, so the
references are slow but share no code with the kernel beyond Q(m)
arithmetic. `euclid_stratum_sum` puts the literal sum over the full
denominator and reduces it by one Euclid gcd over Q, the reduction the
kernel made before it divided by its own denominator factors. When SymPy
is installed, `sympy.cancel` of the literal subset sum is a further,
independent oracle. The zeta pole report is
checked against `rational_poles`, which searches the divisors of the
denominator's coefficients, and `oracles.nonrational_factors` checks
that the denominator has no factor beyond the reported poles.
"""

import random
import time
import warnings
from fractions import Fraction
from itertools import chain, combinations
from math import lcm

import pytest

from celint.celestial import integrate_degree, ix_function, zeta_degree
from celint.errors import RegimeWarning, ZeroDenominator
from celint.exactnum import (RF_M, Polynomial, RationalFunction, as_fraction,
                             rational_poles, rf, stratum_sum)
from celint.exprparse import parse_rf
from celint.model import DegreeConfig, FiberedConfig, StratumSelection

from conftest import time_limit
from oracles import nonrational_factors, paired_total

# constant (including values <= -1), m-linear and parsed multiplicities;
# 1 + (m^2 + 3*m + 1) = (m + 1)(m + 2) is a reducible non-linear factor
PARSED = ("1/(1+m^2)", "m^2+1", "m^2 + 3*m + 1", "1/m", "(m - 2)/(m + 3)")
DECOMPOSED = ((0, 0), (0, 2), (0, -2), (0, Fraction(-3, 2)), (0, Fraction(1, 2)),
              (0, Fraction(1, 3)), (0, 10**18 + 7),
              (1, 0), (1, 1), (2, 1), (3, -2), (-1, 4), (Fraction(1, 2), 0),
              (6, 4), (2, 10**6 + 2))
CONSTANT = tuple(pair for pair in DECOMPOSED if pair[0] == 0)


def values(result):
    """The (den, sums) of `stratum_sum` as RationalFunctions by key; den
    is a positive int when the sums are int numerators over it."""
    den, sums = result
    if den is None:
        return sums
    assert den > 0 and all(type(c) is int and c for c in sums.values())
    return {key: rf(Fraction(c, den)) for key, c in sums.items()}


def cleared_terms(terms):
    """(I, vector) pairs, vector a dict of rationals by key, in the
    kernel's input form (I, d, dict of int numerators over d)."""
    out = []
    for index, vector in terms:
        vector = {key: as_fraction(c) for key, c in vector.items()}
        d = lcm(*(c.denominator for c in vector.values()))
        out.append((index, d, {key: c.numerator * (d // c.denominator)
                               for key, c in vector.items()}))
    return out


def kernel(terms, mults, less_one=False):
    """`stratum_sum` on (I, c) pairs, each c the one entry of its vector."""
    sums = stratum_sum(cleared_terms((index, {0: c}) for index, c in terms),
                       mults, less_one)
    return values(sums).get(0, rf(0))


def all_subsets(names):
    names = tuple(names)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(names, r) for r in range(len(names) + 1))]


def reference_stratum_sum(selection, mults, terms, less_one=False):
    """x_i = 1/(1+m_i), or x_i - 1 = -m_i/(1+m_i) when less_one."""
    total = rf(0)
    for index, c in terms:
        if c == 0 or index not in selection:
            continue
        weight = rf(c)
        for name in index:
            weight = weight / (rf(1) + mults[name])
            if less_one:
                weight = weight * (rf(-1) * mults[name])
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
    fn = ix_function(fibered)
    assert dict(fn.entries) == stored_values
    total = paired_total(fn, fibered.base_strata)
    assert total == stored_values["p"] - rf(2) * stored_values["q"]
    for selection in draw_selections(rng, names):
        values = dict(ix_function(fibered, selection).entries)
        for label in ("p", "q"):
            assert values[label] == reference_value_at(fibered, label, selection)


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
        assert not nonrational_factors(value, report.poles)
        # the denominator splits into the linear factors at the poles
        assert len(report.poles) == value.den.degree
    assert zeta_degree(config)[1].render() == f"{-(huge + 1)}, -1"


def test_large_key_with_nineteen_digit_multiplicities_finishes_fast():
    # one key of 16 names, each with a 19-digit k: the subset sum over the
    # key took minutes, and a Euclid gcd on the degree-16 denominator took
    # 0.5 s; reducing by the denominator's own linear factors takes ms
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


@pytest.mark.parametrize("count", [24, 32])
def test_one_key_of_many_names_with_nineteen_digit_multiplicities_is_fast(count):
    # with a Euclid gcd over Q at the end, zeta_degree took 9.4 s on the
    # 24-name key
    names = [f"N{i}" for i in range(count)]
    decompositions = {n: (1 + i % 3, 10**18 + i) for i, n in enumerate(names)}
    mults = {n: rf(a) * RF_M + rf(k) for n, (a, k) in decompositions.items()}
    table = {frozenset(): 5, frozenset(names): 1, frozenset(names[:1]): 2,
             frozenset(names[1:3]): -1}
    config = DegreeConfig(names, mults, table, decompositions=decompositions)
    core = frozenset(names[2:5])
    with time_limit(5):
        start = time.process_time()
        value, report = zeta_degree(config)
        closed = integrate_degree(config, StratumSelection.from_closed(names, core))
        spent = time.process_time() - start
    assert spent < 1
    point = Fraction(1, 3)
    x = {n: 1 / (1 + m.evaluate(point)) - 1 for n, m in mults.items()}

    def product(key):
        out = Fraction(1)
        for name in key:
            out *= x[name]
        return out

    assert value.evaluate(point) == sum(chi * product(key) for key, chi in table.items())
    assert closed.evaluate(point) == sum(
        chi * (product(key) - (-1) ** len(key & core) * product(key - core))
        for key, chi in table.items())
    assert len(report.poles) == value.den.degree == count


def test_kernel_sums_repeated_index_sets():
    mults = {"A": RF_M, "B": parse_rf("m^2 + 3*m + 1"), "C": rf(-3)}
    terms = [(frozenset("A"), 2), (frozenset("AB"), Fraction(1, 3)),
             (frozenset("A"), -1), (frozenset(), 5), (frozenset("BC"), 0)]
    whole = StratumSelection.whole("ABC")
    assert kernel(terms, mults) == reference_stratum_sum(
        whole, mults, [(frozenset("A"), 1), (frozenset("AB"), Fraction(1, 3)),
                       (frozenset(), 5)])
    # x - 1 = -m/(1+m): a key A with chi 1 and the empty key with chi -1
    # give 1/(1+m) - 2
    assert kernel([(frozenset("A"), 1), (frozenset(), -1)], mults,
                       less_one=True) == rf(1) / (rf(1) + RF_M) - rf(2)
    assert kernel([(frozenset("A"), 1), (frozenset("A"), -1)], mults) == rf(0)
    assert kernel([], mults) == rf(0)
    # with constant multiplicities only, the kernel sums in Fractions
    constant = {"A": rf(-2), "B": rf(Fraction(-3, 2)), "C": rf(Fraction(1, 3)),
                "D": rf(10**18 + 7)}
    listed = [(frozenset("A"), 2), (frozenset("AB"), Fraction(1, 3)),
              (frozenset("A"), -1), (frozenset(), 5), (frozenset("BCD"), 7),
              (frozenset("CD"), Fraction(-5, 2))]
    merged = [(frozenset("A"), 1)] + listed[1:2] + listed[3:]
    assert kernel(listed, constant) == reference_stratum_sum(
        StratumSelection.whole("ABCD"), constant, merged)
    # x - 1 = -m/(1+m) = -2 at m = -2, and 1/(10^18 + 8) - 1 at D
    assert kernel([(frozenset("A"), 3), (frozenset("D"), 1)], constant,
                       less_one=True) == rf(-6) + rf(Fraction(1, 10**18 + 8)) - rf(1)


def test_vector_keys_sum_their_own_terms():
    # one call sums each key over its own terms alone: key q meets only
    # the constant name C, so it keeps no factor of A or B, and the
    # terms of z cancel
    mults = {"A": RF_M, "B": parse_rf("m^2 + 3*m + 1"), "C": rf(Fraction(-5, 2))}
    terms = [(frozenset("A"), {"p": 2, "z": 1}),
             (frozenset("AB"), {"p": Fraction(1, 3), "q": 0}),
             (frozenset("C"), {"q": 4}),
             (frozenset(), {"p": -1, "q": Fraction(1, 2)}),
             (frozenset("A"), {"z": -1})]
    whole = StratumSelection.whole("ABC")
    for less_one in (False, True):
        sums = values(stratum_sum(cleared_terms(terms), mults, less_one))
        assert set(sums) <= {"p", "q", "z"}
        for key in ("p", "q", "z"):
            own = [(index, vector.get(key, 0)) for index, vector in terms]
            assert sums.get(key, rf(0)) == reference_stratum_sum(
                whole, mults, own, less_one)
        assert sums.get("z", rf(0)) == rf(0)
        assert sums["q"].is_constant()
    assert values(stratum_sum([], mults)) == {}
    assert values(stratum_sum(
        cleared_terms([(frozenset("A"), {}), (frozenset("B"), {"p": 0})]), mults)) == {}


@pytest.mark.parametrize("less_one", [False, True])
def test_integer_input_form(less_one):
    # terms come in as (I, d, dict of ints over d); each result is the
    # reference sum of the rationals c/d of its own key
    whole = StratumSelection.whole("ABC")

    def check(terms, mults):
        sums = values(stratum_sum(terms, mults, less_one))
        for key in ("x", "y", "z"):
            own = [(index, Fraction(vector.get(key, 0), d)) for index, d, vector in terms]
            assert sums.get(key, rf(0)) == reference_stratum_sum(
                whole, mults, own, less_one)
        return sums

    # denominators d > 1 that differ between terms
    differ = [(frozenset("A"), 3, {"x": 1, "y": 2}), (frozenset("AB"), 4, {"x": 5, "y": -2}),
              (frozenset(), 6, {"y": 1}), (frozenset("BC"), 10, {"x": -7})]
    linear = {"A": RF_M, "B": rf(2) * RF_M + rf(1), "C": rf(Fraction(1, 3))}
    constant = {"A": rf(2), "B": rf(Fraction(1, 2)), "C": rf(Fraction(1, 3))}
    for mults in (linear, constant):
        assert set(check(differ, mults)) == {"x", "y"}
    # all constant, with 1 + m < 0 at A and B: the sums are ints over a
    # positive denominator
    negative = {"A": rf(Fraction(-5, 2)), "B": rf(-3), "C": rf(7)}
    den, sums = stratum_sum(differ, negative, less_one)
    assert den > 0 and set(sums) == {"x", "y"}
    check(differ, negative)
    # m = 2m + 1 at A: q = 2 + 2m has content 2
    content = {"A": rf(2) * RF_M + rf(1), "B": RF_M, "C": rf(-2)}
    sums = check(differ, content)
    assert all(v.den.coeffs[-1] == 1 for v in sums.values())
    # a key whose terms cancel, and an index set that occurs twice
    cancel = [(frozenset("A"), 2, {"x": 1, "z": 3}), (frozenset("AB"), 1, {"z": 5}),
              (frozenset("A"), 4, {"x": 1, "z": -6}), (frozenset("AB"), 3, {"z": -15}),
              (frozenset("C"), 1, {"y": 2})]
    for mults in (linear, constant, negative, content):
        sums = check(cancel, mults)
        assert "z" not in sums and set(sums) == {"x", "y"}
    assert values(stratum_sum([], linear)) == {}


# seeds cycle through constant, m-linear, parsed and mixed multiplicities
@pytest.mark.parametrize("seed", range(24))
def test_vector_form_matches_the_reference_per_key(seed):
    rng = random.Random(5000 + seed)
    names = [f"E{i}" for i in range(rng.randint(0, 5))]
    mults = {name: draw_mult(rng, KINDS[seed % 4]) for name in names}
    subsets = all_subsets(names)
    keys = ("a", "b", "c")
    terms = [(rng.choice(subsets),
              {key: rng.choice(COEFFS) for key in rng.sample(keys, rng.randint(0, 3))})
             for _ in range(rng.randint(0, 10))]
    # the terms of key c cancel: each is listed again, negated
    terms += [(index, {"c": -as_fraction(vector["c"])})
              for index, vector in terms if "c" in vector]
    whole = StratumSelection.whole(names)
    for less_one in (False, True):
        sums = values(stratum_sum(cleared_terms(terms), mults, less_one))
        assert sums.get("c", rf(0)) == rf(0)
        for key in keys:
            own = [(index, vector[key]) for index, vector in terms if key in vector]
            assert sums.get(key, rf(0)) == reference_stratum_sum(
                whole, mults, own, less_one)


@pytest.mark.parametrize("less_one", [False, True])
def test_kernel_rejects_a_multiplicity_of_minus_one(less_one):
    # 1 + m vanishes, on the Fraction path and on the Q(m) path alike
    for other in (rf(2), RF_M):
        mults = {"A": rf(-1), "B": other}
        with pytest.raises(ZeroDenominator):
            kernel([(frozenset("AB"), 1)], mults, less_one=less_one)


def test_constant_weights_fold_into_the_coefficients(monkeypatch):
    # four names, one of them m-linear: the kernel multiplies integer
    # lists, never a Polynomial, and reduces by its own factors in
    # integers, with no Polynomial.gcd and no RationalFunction.__init__
    mults = {"A": rf(2), "B": rf(Fraction(1, 3)), "C": RF_M + rf(1),
             "D": rf(Fraction(-5, 2))}
    terms = [(frozenset(), Fraction(3)), (frozenset("A"), Fraction(1)),
             (frozenset("AC"), Fraction(-2)), (frozenset("BCD"), Fraction(1, 2)),
             (frozenset("C"), Fraction(4)), (frozenset("ABD"), Fraction(5))]
    constant = {**mults, "C": rf(Fraction(7, 2))}
    whole = StratumSelection.whole("ABCD")
    want = [reference_stratum_sum(whole, table, terms, less_one)
            for table in (mults, constant) for less_one in (False, True)]
    calls = {"__mul__": 0, "gcd": 0, "__init__": 0}
    for cls, name in ((Polynomial, "__mul__"), (Polynomial, "gcd"),
                      (RationalFunction, "__init__")):
        original = getattr(cls, name)

        def counting(self, *args, original=original, name=name):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counting)
    got = [kernel(terms, mults), kernel(terms, mults, less_one=True)]
    got += [kernel(terms, constant), kernel(terms, constant, less_one=True)]
    assert calls == {"__mul__": 0, "gcd": 0, "__init__": 0}
    assert got == want


# coefficients with zeros, repeats of one value, halves and a 21-digit int
COEFFS = (0, 0, 1, -1, 2, 5, Fraction(1, 2), Fraction(-3, 4), Fraction(7, 6), 10**20 + 3)
DEGREE_3 = ("m^3 - 2*m + 1/2", "(m^3 + 1)/(2*m - 1)", "1/(m^3 + m + 1)")
KINDS = ("constant", "linear", "parsed", "mixed")


def draw_mult(rng, kind):
    """A constant, an m-linear a*m + k with rational a and k, or a parsed
    multiplicity of degree 2 or 3; a mixed draw picks one of the three."""
    if kind == "mixed":
        kind = rng.choice(KINDS[:3])
    if kind == "constant":
        return rf(rng.choice(CONSTANT)[1])
    if kind == "linear":
        a = rng.choice((1, 2, -1, Fraction(1, 2), Fraction(-2, 3)))
        return rf(a) * RF_M + rf(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))))
    return parse_rf(rng.choice(PARSED + DEGREE_3))


# seeds cycle through constant, m-linear, parsed and mixed multiplicities
@pytest.mark.parametrize("seed", range(48))
def test_kernel_matches_the_reference_sum(seed):
    rng = random.Random(2000 + seed)
    names = [f"E{i}" for i in range(rng.randint(0, 5))]
    mults = {name: draw_mult(rng, KINDS[seed % 4]) for name in names}
    subsets = all_subsets(names)
    terms = [(rng.choice(subsets), rng.choice(COEFFS)) for _ in range(rng.randint(0, 10))]
    terms += rng.sample(terms, min(len(terms), 3))
    whole = StratumSelection.whole(names)
    for less_one in (False, True):
        assert kernel(terms, mults, less_one) == reference_stratum_sum(
            whole, mults, terms, less_one)
    if not names:
        return
    # m = -1 at one name raises once a nonzero term holds that name
    bad = rng.choice(names)
    mults[bad] = rf(-1)
    for less_one in (False, True):
        if any(c and bad in index for index, c in terms):
            with pytest.raises(ZeroDenominator):
                kernel(terms, mults, less_one)
        else:
            assert kernel(terms, mults, less_one) == reference_stratum_sum(
                whole, mults, terms, less_one)


@pytest.mark.parametrize("count, linear, k0", [(14, 7, 0), (12, 12, 10**18)],
                         ids=["c14-half-linear", "c12-linear-19-digit"])
def test_full_table_of_many_names_sums_fast(count, linear, k0):
    # the Euler table holds every subset of the names; summing term by
    # term in Q(m) took 3 s for either table
    rng = random.Random(count)
    names = [f"N{i}" for i in range(count)]
    mults = {n: rf(1 + i % 3) * RF_M + rf(k0 + i) if i < linear
             else rf(Fraction(i + 1, 2)) for i, n in enumerate(names)}
    table = {key: Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
             for key in all_subsets(names)}
    config = DegreeConfig(names, mults, table)
    with time_limit(10):
        start = time.process_time()
        value = integrate_degree(config)
        spent = time.process_time() - start
    assert spent < 1
    for point in (Fraction(1, 3), Fraction(7, 2)):
        x = {n: 1 / (1 + m.evaluate(point)) - 1 for n, m in mults.items()}
        want = Fraction(0)
        for key, chi in table.items():
            for name in key:
                chi *= x[name]
            want += chi
        assert value.evaluate(point) == want


@pytest.mark.parametrize("seed", range(12))
def test_kernel_agrees_with_sympy_cancel(seed):
    # SymPy puts the literal sum over every subset on one denominator
    # and reduces it
    sympy = pytest.importorskip("sympy")
    m = sympy.Symbol("m")

    def to_sympy(value):
        num, den = (sum(sympy.Rational(c.numerator, c.denominator) * m**k
                        for k, c in enumerate(part.coeffs))
                    for part in (value.num, value.den))
        return num / den

    rng = random.Random(3000 + seed)
    names = [f"E{i}" for i in range(rng.randint(1, 6))]
    mults = {name: draw_mult(rng, "mixed") for name in names}
    terms = [(index, rng.choice(COEFFS)) for index in all_subsets(names)]
    less_one = seed % 2 == 1
    x = {}
    for name, mult in mults.items():
        mu = to_sympy(mult)
        x[name] = -mu / (1 + mu) if less_one else 1 / (1 + mu)
    literal = sympy.cancel(sympy.together(sum(
        sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        * sympy.Mul(*(x[name] for name in index)) for index, c in terms)))
    got = kernel(terms, mults, less_one)
    assert sympy.cancel(to_sympy(got) - literal) == 0
    assert sympy.degree(sympy.denom(literal), m) == got.den.degree


def euclid_stratum_sum(terms, mults, less_one=False):
    """The literal sum over the full denominator prod_i q_i of the names
    that occur, with x_i = p_i/q_i as in the kernel, in Polynomial
    arithmetic, reduced by one RationalFunction (a Euclid gcd over Q)."""
    terms = [(index, c) for index, c in terms if c]
    names = sorted(set().union(*(index for index, _ in terms)))
    parts = {}
    for name in names:
        n, d = mults[name].num, mults[name].den
        parts[name] = (-n if less_one else d, d + n)
    num, den = Polynomial(()), Polynomial([1])
    for index, c in terms:
        product = Polynomial([c])
        for name in names:
            p, q = parts[name]
            product = product * (p if name in index else q)
        num = num + product
    for name in names:
        den = den * parts[name][1]
    return RationalFunction(num, den)


# a small pool, so that multiplicities repeat and den holds q_i^2; q_i
# is 2m + 2 (not primitive), -2m - 2 (negative leading coefficient),
# m + 10^18 + 8, (m + 1)(m + 2) and m^2 + 2 (degree 2), 1 with
# p_i = 1 + m (-m/(1+m)), 2m + 1 with p_i = m + 3, and constants
POOL = ("m", "m + 1", "2*m + 1", "-2*m - 3", "m/2 + 3/2", "m + 1000000000000000007",
        "m^2 + 3*m + 1", "m^2 + 1", "-m/(1 + m)", "(m - 2)/(m + 3)",
        "2", "1/3", "-5/2", "1000000000000000007")


def draw_cancelling_terms(rng, names, mults):
    """Terms whose sum cancels a factor of the denominator."""
    shape = rng.randrange(4)
    a, b = rng.sample(names, 2) if len(names) > 1 else (names[0], None)
    c = rng.choice(COEFFS[2:])
    if shape == 0 and b:
        # x_a - x_b with m_a = m_b: both q's cancel, and x_a + x_b keeps one
        mults[b] = mults[a]
        return [(frozenset({a}), c), (frozenset({b}), rng.choice((c, -c)))]
    if shape == 1 and b:
        # x_a * x_b = 1 for m_a = m and m_b = -m/(1 + m): p_b = 1 + m = q_a
        mults[a], mults[b] = parse_rf("m"), parse_rf("-m/(1 + m)")
        return [(frozenset({a, b}), c), (frozenset({b}), rng.choice(COEFFS))]
    if shape == 2 and b:
        # q_a = (m + 1)(m + 2) shares m + 1 with the numerator
        mults[a], mults[b] = parse_rf("m^2 + 3*m + 1"), parse_rf("m")
        return [(frozenset({a}), c), (frozenset({b}), rng.choice(COEFFS[2:]))]
    # a sum of 0
    terms = [(frozenset(rng.sample(names, rng.randint(0, len(names)))), rng.choice(COEFFS))
             for _ in range(rng.randint(1, 4))]
    return terms + [(index, -as_fraction(c)) for index, c in terms]


@pytest.mark.parametrize("seed", range(210))
def test_reduction_matches_euclid_over_the_full_denominator(seed):
    rng = random.Random(4000 + seed)
    names = [f"E{i}" for i in range(rng.randint(1, 6))]
    mults = {name: parse_rf(rng.choice(POOL)) for name in names}
    subsets = all_subsets(names)
    terms = [(rng.choice(subsets), rng.choice(COEFFS)) for _ in range(rng.randint(1, 8))]
    if seed % 2:
        terms += draw_cancelling_terms(rng, names, mults)
    whole = StratumSelection.whole(names)
    for less_one in (False, True):
        got = kernel(terms, mults, less_one)
        assert got == euclid_stratum_sum(terms, mults, less_one)
        assert got == reference_stratum_sum(whole, mults, terms, less_one)
