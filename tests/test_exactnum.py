from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celint.errors import (
    DivisionByZero,
    ParseError,
    PoleError,
    ZeroDenominator,
)
from celint.exactnum import (
    Polynomial,
    RationalFunction,
    cleared,
    rational_poles,
    rf,
)
from celint.exprparse import parse_rf


def poly(*coeffs):
    return Polynomial([Fraction(c) for c in coeffs])


def test_polynomial_canonical_form():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly().degree == -1
    assert poly(0).degree == -1
    assert poly(5).degree == 0
    assert poly(0, 0, 3).degree == 2
    assert poly(0, 0, 3).leading() == Fraction(3)


def test_polynomial_arithmetic():
    p = poly(1, 1)
    q = poly(-1, 1)
    assert p * q == poly(-1, 0, 1)
    assert p + q == poly(0, 2)
    assert p - p == poly()
    assert p ** 3 == poly(1, 3, 3, 1)


def test_polynomial_divmod():
    num = poly(-1, 0, 1)
    quo, rem = num.divmod(poly(-1, 1))
    assert quo == poly(1, 1)
    assert rem == poly()
    quo, rem = poly(1, 0, 1).divmod(poly(-1, 1))
    assert quo == poly(1, 1)
    assert rem == poly(2)
    with pytest.raises(DivisionByZero):
        num.divmod(poly())


def test_polynomial_gcd_is_monic():
    a = poly(-2, 2) * poly(1, 1)
    b = poly(-2, 2) * poly(3)
    g = a.gcd(b)
    assert g == poly(-1, 1)
    assert g.leading() == 1


def euclid_gcd(a, b):
    """Monic gcd of two ascending Fraction lists by Euclid's algorithm,
    written out here apart from `Polynomial`."""
    def strip(p):
        p = list(p)
        while p and not p[-1]:
            p.pop()
        return p

    a, b = strip(a), strip(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            t, shift = r[-1] / b[-1], len(r) - len(b)
            for j, c in enumerate(b):
                r[shift + j] -= t * c
            r = strip(r)
        a, b = b, r
    return [c / a[-1] for c in a] if a else []


def linear_gcd_cases(seed):
    """(linear factor, other side) pairs drawn at one seed: non-monic
    factors with Fraction coefficients, against multiples of the factor,
    random polynomials, constants and zero."""
    import random

    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def nonzero():
        return frac() or Fraction(rng.choice((-3, 2, 7)), rng.randint(1, 5))

    def random_poly(degree):
        return [frac() for _ in range(degree)] + [nonzero()]

    cases = []
    for _ in range(12):
        linear = [frac(), nonzero()]
        multiple = (Polynomial(linear) * Polynomial(random_poly(rng.randint(0, 4)))).coeffs
        cases += [(linear, list(multiple)), (linear, random_poly(rng.randint(0, 5))),
                  (linear, [nonzero()]), (linear, []), (linear, [frac(), nonzero()])]
    # a shared root by construction: the other side vanishes at -1/2
    cases.append(([Fraction(3), Fraction(6)], [Fraction(1), Fraction(4), Fraction(4)]))
    return cases


@pytest.mark.parametrize("seed", range(5))
def test_linear_gcd_matches_euclid(seed):
    degrees = set()
    for linear, other in linear_gcd_cases(seed):
        want = Polynomial(euclid_gcd(linear, other))
        for a, b in ((linear, other), (other, linear)):
            assert Polynomial(a).gcd(Polynomial(b)) == want, (a, b)
        degrees.add(want.degree)
    assert degrees == {0, 1}


def test_linear_gcd_runs_no_division(monkeypatch):
    cases = [case for seed in range(3) for case in linear_gcd_cases(seed)]
    expected = [Polynomial(euclid_gcd(a, b)) for a, b in cases]

    def forbidden(self, other):
        raise AssertionError("divided polynomials")

    monkeypatch.setattr(Polynomial, "divmod", forbidden)
    assert [Polynomial(a).gcd(Polynomial(b)) for a, b in cases] == expected
    assert [Polynomial(b).gcd(Polynomial(a)) for a, b in cases] == expected


def test_linear_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    m = sympy.Symbol("m")

    def to_sympy(coeffs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(coeffs)] or [0], m, domain="QQ")

    for seed in range(3):
        for linear, other in linear_gcd_cases(seed):
            got = Polynomial(linear).gcd(Polynomial(other))
            want = sympy.gcd(to_sympy(linear), to_sympy(other)).monic()
            assert to_sympy(got.coeffs) == want, (linear, other)


def test_polynomial_evaluate():
    p = poly(1, -3, 2)
    assert p.evaluate(Fraction(0)) == 1
    assert p.evaluate(Fraction(1)) == 0
    assert p.evaluate(Fraction(1, 2)) == 0
    assert Polynomial(()).evaluate(Fraction(-2, 3)) == 0
    # against Horner's rule in Fractions, with coefficient denominators,
    # zero coefficients and 19-digit values
    coeffs = (0, 1, -2, Fraction(1, 2), Fraction(-7, 6), 10**18 + 7, Fraction(1, 10**18 + 9))
    points = (0, 3, -1, Fraction(1, 3), Fraction(-5, 4), Fraction(10**18 + 1, 7))
    for n in range(len(coeffs)):
        p = Polynomial(coeffs[n:] + coeffs[:n])
        for x in points:
            want = Fraction(0)
            for c in reversed(p.coeffs):
                want = want * x + c
            assert p.evaluate(x) == want


def test_cleared():
    assert cleared([]) == (1, [])
    assert cleared([Fraction(3)]) == (1, [3])
    assert cleared((Fraction(1, 4), Fraction(-5, 6), Fraction(0), Fraction(7))) == (
        12, [3, -10, 0, 84])
    assert cleared([Fraction(2, 3), Fraction(-4, 9)]) == (9, [6, -4])


def test_squarefree_factors():
    # (m-1)^2 * (m+2)
    p = poly(-1, 1) * poly(-1, 1) * poly(2, 1)
    factors = p.squarefree_factors()
    assert (poly(2, 1), 1) in factors
    assert (poly(-1, 1), 2) in factors
    rebuilt = poly(1)
    for base, mult in factors:
        rebuilt = rebuilt * base ** mult
    assert rebuilt.monic() == p.monic()


def test_rational_function_reduces():
    f = RationalFunction(poly(-1, 0, 1), poly(-1, 1))
    assert f == parse_rf("m + 1")
    g = RationalFunction(poly(0, 2), poly(0, 0, 4))
    assert g == parse_rf("1/(2*m)")
    with pytest.raises(ZeroDenominator):
        RationalFunction(poly(1), poly())


def test_rational_function_field_ops():
    f = parse_rf("(3 + 2*m)/(1 + m)")
    g = parse_rf("m/(1 + m)")
    assert f + g == parse_rf("(3 + 3*m)/(1 + m)")
    assert f - f == rf(0)
    assert f * (rf(1) / f) == rf(1)
    assert (f / g) * g == f
    assert f ** 0 == rf(1)
    assert f ** -1 == rf(1) / f
    with pytest.raises(DivisionByZero):
        f / rf(0)


def test_rational_function_constants():
    assert rf(Fraction(5, 2)).is_constant()
    assert rf(3).as_fraction() == 3
    assert not parse_rf("m").is_constant()
    with pytest.raises(ValueError):
        parse_rf("m").as_fraction()


def test_evaluate_values_and_poles():
    f = parse_rf("(3 + 2*m)/(1 + m)")
    assert f.evaluate(Fraction(0)) == 3
    assert f.evaluate(1) == Fraction(5, 2)
    # the numerator and denominator both flip sign at m = -2
    assert f.evaluate(-2) == 1
    with pytest.raises(PoleError):
        f.evaluate(-1)


def test_evaluate_after_reduction_clears_common_roots():
    # reduction removes the shared root, so the value is defined there
    f = RationalFunction(poly(-1, 0, 1), poly(-1, 1))
    assert f.evaluate(1) == 2
    g = parse_rf("0/(1 + m)")
    assert g == rf(0)
    assert g.evaluate(-1) == 0


def test_render_canonical():
    assert parse_rf("(15 + 6*m)/(5 + 6*m)").render() == "(15 + 6*m)/(5 + 6*m)"
    assert parse_rf("m").render() == "m"
    assert rf(Fraction(-5, 6)).render() == "-5/6"
    assert parse_rf("1/(1+m)^2").render() == "1/(1 + 2*m + m^2)"
    assert rf(0).render() == "0"


def test_parse_render_round_trip():
    for text in ("m", "3 - 12*m/(5 + 6*m)", "(2 + m)/(1 + m)^2", "-7/3"):
        f = parse_rf(text)
        assert parse_rf(f.render()) == f


def test_parse_errors():
    for bad in ("", "m +", "2 ** 3", "(1", "m^x", "1/*2"):
        with pytest.raises(ParseError):
            parse_rf(bad)
    with pytest.raises(ParseError):
        parse_rf(17)


def test_parse_rejects_large_exponents_before_computing():
    for bad in ("(1+m)^3000", "((1+m)^64)^64", "m^65", "(1+m)^" + "9" * 5000,
                "+".join(["(1+m)"] * 40), "*".join(["(1+m)"] * 40)):
        with pytest.raises(ParseError):
            parse_rf(bad)
    with pytest.raises(ParseError):
        parse_rf("9" * 5000)
    assert parse_rf("m^64").num.degree == 64
    assert parse_rf("(1+m)^32") == parse_rf("(1+m)^16") ** 2
    assert parse_rf("2^-3") == rf(Fraction(1, 8))


def test_rational_poles_plain():
    report = rational_poles(parse_rf("(15 + 6*m)/(5 + 6*m)"))
    assert report.poles == frozenset({Fraction(-5, 6)})
    assert report.nonrational_factors == ()
    assert report.render() == "-5/6"


def test_rational_poles_multiple_and_none():
    report = rational_poles(parse_rf("1/((1 + m)*(2 + m))"))
    assert report.poles == frozenset({Fraction(-1), Fraction(-2)})
    assert report.render() == "-2, -1"
    assert rational_poles(rf(7)).render() == "none"


def test_rational_poles_nonrational_leftover():
    report = rational_poles(parse_rf("1/((1 + m)*(m^2 - 2))"))
    assert report.poles == frozenset({Fraction(-1)})
    assert len(report.nonrational_factors) == 1
    leftover = report.nonrational_factors[0]
    assert leftover.monic() == poly(-2, 0, 1)
    assert "nonrational" in report.render()


fraction_st = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


@st.composite
def rational_functions(draw):
    num = draw(st.lists(fraction_st, min_size=1, max_size=3))
    den = draw(st.lists(fraction_st, min_size=1, max_size=3))
    den_poly = Polynomial(den)
    if den_poly.degree < 0:
        den_poly = Polynomial([Fraction(1)])
    return RationalFunction(Polynomial(num), den_poly)


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions(), rational_functions())
def test_field_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + rf(0) == f
    assert f * rf(1) == f


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions(), fraction_st)
def test_evaluation_is_a_homomorphism(f, g, x):
    try:
        fx, gx = f.evaluate(x), g.evaluate(x)
    except PoleError:
        return
    assert (f + g).evaluate(x) == fx + gx
    assert (f * g).evaluate(x) == fx * gx


@settings(max_examples=40, deadline=None)
@given(rational_functions())
def test_render_round_trips_exactly(f):
    assert parse_rf(f.render()) == f


# Differential tests: the trusted constructors and fast paths of the
# arithmetic against the full constructor, which reduces by a gcd and
# normalizes the denominator.


FACTORS = (poly(1, 1), poly(0, 1), poly(2, -1), poly(1, 2), poly(1, 0, 1))


@st.composite
def factored_polys(draw, min_size):
    """Products from a small pool of factors, so common factors are frequent."""
    out = Polynomial([draw(fraction_st.filter(bool))])
    for f in draw(st.lists(st.sampled_from(FACTORS), min_size=min_size, max_size=2)):
        out = out * f
    return out


@st.composite
def mixed_rational_functions(draw):
    """Constants, polynomials and proper fractions, so every fast path runs."""
    shape = draw(st.sampled_from(("constant", "polynomial", "fraction")))
    if shape == "constant":
        return rf(draw(fraction_st))
    num = draw(st.one_of(
        factored_polys(0), st.lists(fraction_st, max_size=4).map(Polynomial)
    ))
    den = Polynomial([1]) if shape == "polynomial" else draw(factored_polys(1))
    return RationalFunction(num, den)


def assert_canonical(f):
    assert all(type(c) is Fraction for c in f.num.coeffs + f.den.coeffs)
    assert not f.num.coeffs or f.num.coeffs[-1] != 0
    assert f.den.coeffs and f.den.coeffs[-1] == 1
    if f.num.is_zero():
        assert f.den == Polynomial([1])
    else:
        assert f.num.gcd(f.den) == Polynomial([1])


def reference(num, den):
    """The full constructor on polynomials rebuilt from plain lists."""
    return RationalFunction(Polynomial(list(num.coeffs)), Polynomial(list(den.coeffs)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_rational_functions(), mixed_rational_functions(), fraction_st)
def test_fast_paths_match_the_full_constructor(f, g, c):
    results = {
        "sum": (f + g, reference(f.num * g.den + g.num * f.den, f.den * g.den)),
        "difference": (f - g, reference(f.num * g.den - g.num * f.den, f.den * g.den)),
        "product": (f * g, reference(f.num * g.num, f.den * g.den)),
        "negation": (-f, reference(-f.num, f.den)),
        "cube": (f ** 3, reference(f.num ** 3, f.den ** 3)),
        "constant": (rf(c), reference(Polynomial([c]), Polynomial([1]))),
        "integer constant": (
            rf(c.numerator), reference(Polynomial([c.numerator]), Polynomial([1]))),
    }
    if c != 0:
        results["quotient"] = (f / rf(c), reference(f.num, f.den.scale(c)))
        results["constant quotient"] = (
            rf(c + 1) / rf(c), reference(Polynomial([c + 1]), Polynomial([c])))
    if not g.is_zero():
        results["division"] = (f / g, reference(f.num * g.den, f.den * g.num))
    for name, (fast, full) in results.items():
        assert fast == full, name
        assert hash(fast) == hash(full), name
        assert_canonical(fast)
    # a constant renders as the constant polynomial does
    assert rf(c).render() == Polynomial([c]).render()
    assert rf(c).render() == str(c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(fraction_st, max_size=5), st.lists(fraction_st, max_size=5))
def test_polynomial_fast_paths_match_plain_lists(a, b):
    p, q = Polynomial(a), Polynomial(b)
    product = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    assert p * q == Polynomial(product)
    assert p + q == Polynomial(
        [x + y for x, y in zip(a + [0] * len(b), b + [0] * len(a))]
    )
    assert -p == Polynomial([-x for x in a])
    for value in (p * q, p + q, -p, p.derivative(), p.scale(Fraction(3, 2))):
        assert all(type(x) is Fraction for x in value.coeffs)
        assert not value.coeffs or value.coeffs[-1] != 0
        assert hash(value) == hash(Polynomial(list(value.coeffs)))
    if not q.is_zero():
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.degree < q.degree


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mixed_rational_functions())
def test_integer_cleared_has_content_one(f):
    # the lcm scale alone leaves no common factor, so rendering needs no
    # content step
    n, d = f._integer_cleared()
    ints = [c.numerator for c in n.coeffs + d.coeffs]
    assert all(c.denominator == 1 for c in n.coeffs + d.coeffs)
    assert gcd(*ints) == 1
    assert RationalFunction(n, d) == f


def test_equal_values_by_different_routes_hash_alike():
    routes = [
        parse_rf("(1 + m)/(2 + m)"),
        parse_rf("(2 + 2*m)/(4 + 2*m)"),
        parse_rf("1 - 1/(2 + m)"),
        RationalFunction(poly(1, 1), poly(2, 1)),
        rf(1) - rf(1) / parse_rf("2 + m"),
        parse_rf("(1 + m)^2/((2 + m)*(1 + m))"),
    ]
    constants = [rf(2), parse_rf("4/2"), rf(1) + rf(1), rf(4) * rf(Fraction(1, 2)),
                 parse_rf("(2 + 2*m)/(1 + m)"), parse_rf("m + 2 - m")]
    for group in (routes, constants):
        assert len({hash(f) for f in group}) == 1
        assert all(f == group[0] for f in group)
        assert len(set(group)) == 1


def test_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    m = sympy.Symbol("m")

    def to_sympy(f):
        return (sum(sympy.Rational(c.numerator, c.denominator) * m**k
                    for k, c in enumerate(f.num.coeffs))
                / sum(sympy.Rational(c.numerator, c.denominator) * m**k
                      for k, c in enumerate(f.den.coeffs)))

    values = [parse_rf(t) for t in (
        "3", "-1/2", "m", "2*m^2 - 3", "(15 + 6*m)/(5 + 6*m)", "m/(1 + m)",
        "1/(1 + m)^2", "(m^2 - 1)/(3*m + 3)",
    )]
    for f in values:
        for g in values:
            for fast, oracle in ((f + g, to_sympy(f) + to_sympy(g)),
                                 (f * g, to_sympy(f) * to_sympy(g))):
                assert sympy.cancel(to_sympy(fast) - oracle) == 0


def test_parse_bounds_nesting_depth():
    from celint.exprparse import MAX_DEPTH

    m = parse_rf("m")
    assert parse_rf("(" * MAX_DEPTH + "m" + ")" * MAX_DEPTH) == m
    assert parse_rf("+" * MAX_DEPTH + "m") == m
    assert parse_rf("-" * MAX_DEPTH + "m") == rf((-1) ** MAX_DEPTH) * m
    for bad in ("(" * (MAX_DEPTH + 1) + "m" + ")" * (MAX_DEPTH + 1),
                "-" * (MAX_DEPTH + 1) + "m", "+-" * 1500 + "m",
                "(" * 100_000 + "m"):
        with pytest.raises(ParseError):
            parse_rf(bad)
