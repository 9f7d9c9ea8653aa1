import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celint.catalog import (
    ring_blowup_point,
    ring_point,
    ring_product,
    ring_projective,
)
from celint.chow import (
    ChowClass,
    ChowRing,
    PushForwardMap,
    parse_class,
)
from celint.errors import (
    DivisionByZero,
    NotADivisor,
    ParseError,
    PresentationError,
    RingMismatch,
    UnsupportedCatalog,
)
from celint.exactnum import rf
from celint.exprparse import parse_rf
from celint.modelfile import ring_literal

from oracles import proper_transform, reference_inverse

P2 = ring_projective(2)
P3 = ring_projective(3)
RF_M = parse_rf("m")


def test_point_ring():
    pt = ring_point()
    assert pt.dim == 0
    assert pt.one().degree() == rf(1)
    assert pt.require_tangent_chern() == pt.one()


def test_projective_space_presentation():
    assert P2.all_names == ("[V]", "h", "h^2")
    assert P2.point == "h^2"
    h = P2.basis_class("h")
    assert (h * h).degree() == rf(1)
    assert (h ** 3).is_zero()
    # c(TP^n) = (1+h)^(n+1) truncated
    assert P2.require_tangent_chern() == parse_class("1 + 3*h + 3*h^2", P2)
    assert P3.require_tangent_chern() == parse_class(
        "1 + 4*h + 6*h^2 + 4*h^3", P3
    )


def test_projective_line_and_degree():
    p1 = ring_projective(1)
    h = p1.basis_class("h")
    assert h.degree() == rf(1)
    assert p1.one().degree() == rf(0)


def test_product_ring_basis_order():
    q = ring_product(ring_projective(1), ring_projective(1))
    # within each codimension the first-factor power comes first
    assert q.basis == (("[V]",), ("h1", "h2"), ("h1*h2",))
    h1 = q.basis_class("h1")
    h2 = q.basis_class("h2")
    assert (h1 * h1).is_zero()
    assert (h1 * h2).degree() == rf(1)
    assert q.require_tangent_chern() == parse_class(
        "1 + 2*h1 + 2*h2 + 4*h1*h2", q
    )


def test_product_ring_mixed_dims():
    q = ring_product(P2, ring_projective(1))
    assert q.basis[1] == ("h1", "h2")
    assert q.basis[2] == ("h1^2", "h1*h2")
    assert q.basis[3] == ("h1^2*h2",)
    top = q.basis_class("h1") ** 2 * q.basis_class("h2")
    assert top.degree() == rf(1)


def test_product_ring_rejects_non_projective():
    bl, _, _ = ring_blowup_point(P2)
    with pytest.raises(UnsupportedCatalog):
        ring_product(bl, P2)


def test_blowup_point_surface():
    bl, down, e = ring_blowup_point(P2)
    assert (e * e).degree() == rf(-1)
    h = bl.basis_class("h")
    assert (h * e).is_zero()
    assert down.push(e).is_zero()
    assert down.pull(P2.basis_class("h")) == h
    # c(T Bl_p P^2) = 1 + (3h - e) + chi(Bl_p P^2) pt
    assert bl.require_tangent_chern() == parse_class("1 + 3*h - e1 + 4*h^2", bl)
    assert bl.require_tangent_chern().degree() == rf(4)


def test_blowup_point_threefold():
    bl, down, e = ring_blowup_point(P3)
    assert (e ** 3).degree() == rf(1)
    assert (e ** 2 * bl.basis_class("h")).is_zero()
    assert down.push(e ** 2).is_zero()
    # Euler characteristic gains chi(P^2) - 1 = 2
    assert bl.require_tangent_chern().degree() == rf(6)


def test_blowup_iterated_names_and_orthogonality():
    bl1, _, e1 = ring_blowup_point(P2)
    bl2, down2, e2 = ring_blowup_point(bl1)
    assert "e2" in bl2.codim_of
    lifted_e1 = bl2.basis_class("e1")
    assert (lifted_e1 * e2).is_zero()
    assert (e2 * e2).degree() == rf(-1)
    assert down2.push(lifted_e1) == e1


def test_blowup_requires_point():
    spec = {
        "dim": 1,
        "basis": [["[C]"], ["p"]],
        "products": {},
        "degree": {"p": 1},
    }
    ring = ring_literal(spec)
    assert ring.point is None
    with pytest.raises(UnsupportedCatalog):
        ring_blowup_point(ring)


def test_class_arithmetic_and_grading():
    h = P2.basis_class("h")
    c = P2.one() + h.scale(rf(2)) + (h * h).scale(rf(5))
    assert c._select(lambda k: k == 1) == h.scale(rf(2))
    assert c.positive_part() == c - P2.one()
    assert c.coefficient("h^2") == rf(5)
    assert (-c) + c == P2.zero()
    assert c.is_pure_codim(0) is False
    assert h.is_pure_codim(1)


def test_class_inverse_geometric_series():
    c = parse_class("1 + h", P2)
    assert c.inverse() == parse_class("1 - h + h^2", P2)
    assert c * c.inverse() == P2.one()
    assert (P2.one().scale(rf(2))).inverse() == P2.one().scale(rf(Fraction(1, 2)))
    with pytest.raises(DivisionByZero):
        P2.basis_class("h").inverse()


def test_class_division():
    num = parse_class("1 + 3*h + 3*h^2", P2)
    den = parse_class("1 + h", P2)
    assert num / den == parse_class("1 + 2*h + h^2", P2)


def test_class_symbolic_coefficients():
    h = P2.basis_class("h")
    c = P2.one() + h.scale(RF_M)
    inv = c.inverse()
    assert inv.coefficient("h") == -RF_M
    assert inv.coefficient("h^2") == RF_M * RF_M
    at2 = c.evaluate(Fraction(2))
    assert at2 == parse_class("1 + 2*h", P2)


def test_class_equality_hash():
    h = P2.basis_class("h")
    assert hash(h + h) == hash(h.scale(rf(2)))
    assert (h + h) == h.scale(rf(2))
    assert h != P2.one()


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        P2.basis_class("h") + P3.basis_class("h")
    other = ring_projective(2)
    with pytest.raises(RingMismatch):
        P2.basis_class("h") * other.basis_class("h")


def test_parse_render_round_trip():
    texts = [
        "[V] + (5/2)*h + 2*h^2",
        "h - h^2",
        "0",
        "(3*m)/(1 + m)*h",
    ]
    for text in texts:
        c = parse_class(text, P2)
        assert parse_class(c.render(), P2) == c


def test_render_follows_basis_order():
    c = parse_class("h^2 + h + 1", P2)
    assert c.render() == "[V] + h + h^2"
    assert P2.zero().render() == "0"


def test_parse_unknown_name():
    with pytest.raises(ParseError):
        parse_class("1 + x", P2)


def test_literal_ring_validation_failures():
    good = {
        "dim": 2,
        "basis": [["[V]"], ["h"], ["p"]],
        "products": {"h,h": "p"},
        "degree": {"p": 1},
        "point": "p",
    }
    ring_literal(good)

    bad_grading = dict(good, products={"h,h": "h"})
    with pytest.raises(PresentationError):
        ring_literal(bad_grading)

    missing_degree = dict(good, degree={})
    with pytest.raises(PresentationError):
        ring_literal(missing_degree)

    unknown_name = dict(good, products={"h,q": "p"})
    with pytest.raises(PresentationError):
        ring_literal(unknown_name)

    bad_unit = dict(good, products={"[V],h": "2*h"})
    with pytest.raises(PresentationError):
        ring_literal(bad_unit)

    bad_levels = dict(good, basis=[["[V]"], ["h"]])
    with pytest.raises(PresentationError):
        ring_literal(bad_levels)

    duplicate = dict(good, basis=[["[V]"], ["h"], ["h"]])
    with pytest.raises(PresentationError):
        ring_literal(duplicate)

    # literal data is linear in the basis names: a power of a name is a
    # parse error (exit 2), a power of a constant is a number
    squared = dict(good, products={"h,h": "h^2"})
    with pytest.raises(ParseError, match="powers") as failure:
        ring_literal(squared)
    assert failure.value.exit_code == 2
    halved = ring_literal(dict(good, products={"h,h": "2^-1*p"}))
    assert halved.products[("h", "h")] == {"p": Fraction(1, 2)}


def test_literal_ring_associativity_check():
    spec = {
        "dim": 3,
        "basis": [["[V]"], ["a", "b"], ["c"], ["p"]],
        "products": {
            "a,a": "c",
            "a,b": "c",
            "b,b": 0,
            "a,c": "p",
            "b,c": "p",
        },
        "degree": {"p": 1},
    }
    # (b*b)*a = 0 but b*(b*a) = b*c = p
    with pytest.raises(PresentationError):
        ring_literal(spec)
    # with a*a = x/2, a*b = x/3, a*x = p and b*x = (2/3)*p, associativity
    # asks b*b = (2/9)*x: (a*b)*b = (2/9)*p = (b*b)*a
    rational = {
        "dim": 3,
        "basis": [["[V]"], ["a", "b"], ["x"], ["p"]],
        "products": {
            "a,a": "(1/2)*x",
            "a,b": "(1/3)*x",
            "b,b": "(2/9)*x",
            "a,x": "p",
            "b,x": "(2/3)*p",
        },
        "degree": {"p": 1},
    }
    assert ring_literal(rational).table[0] == 18
    rational["products"]["b,b"] = "(1/5)*x"
    with pytest.raises(PresentationError, match="associativity"):
        ring_literal(rational)


def test_literal_ring_commutativity_conflict():
    spec = {
        "dim": 2,
        "basis": [["[V]"], ["h"], ["p"]],
        "products": {"h,h": "p"},
        "degree": {"p": 1},
    }
    ring_literal(spec)  # sanity
    spec_conflict = {
        "dim": 2,
        "basis": [["[V]"], ["a", "b"], ["p"]],
        "products": {"a,b": "p", "b,a": "2*p", "a,a": 0, "b,b": 0},
        "degree": {"p": 1},
    }
    with pytest.raises(PresentationError):
        ring_literal(spec_conflict)


def test_literal_ring_chern_must_be_constant():
    spec = {
        "dim": 1,
        "basis": [["[V]"], ["p"]],
        "products": {},
        "degree": {"p": 1},
        "chern": "1 + 2*p",
        "point": "p",
    }
    ring = ring_literal(spec)
    assert ring.require_tangent_chern().degree() == rf(2)


def test_pushforward_validation_failures():
    bl, down, e = ring_blowup_point(P2)
    # forward images must cover every source basis element
    partial = {n: down.forward[n] for n in list(bl.all_names)[:-1]}
    with pytest.raises(PresentationError):
        PushForwardMap(bl, P2, partial, down.pullback)
    # breaking the degree axiom: send the point class to zero
    broken = dict(down.forward)
    broken["h^2"] = P2.zero()
    with pytest.raises(PresentationError):
        PushForwardMap(bl, P2, broken, down.pullback)


def test_pushforward_ring_checks():
    _, down, _ = ring_blowup_point(P2)
    with pytest.raises(RingMismatch):
        down.push(P2.basis_class("h"))
    with pytest.raises(RingMismatch):
        down.pull(down.source.basis_class("h"))


def test_proper_transform_conic_through_point():
    bl, down, e = ring_blowup_point(P2)
    conic = P2.basis_class("h").scale(rf(2))
    strict = proper_transform(down, e, conic, 1)
    assert strict == parse_class("2*h - e1", bl)
    assert (strict * strict).degree() == rf(3)


def test_proper_transform_rejects_bad_input():
    bl, down, e = ring_blowup_point(P2)
    with pytest.raises(RingMismatch):
        proper_transform(down, e, bl.basis_class("h"), 1)
    with pytest.raises(NotADivisor):
        proper_transform(down, e, P2.one(), 1)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def class_on(ring):
    return st.fixed_dictionaries(
        {name: small_fracs for name in ring.all_names}
    ).map(lambda d: ChowClass(ring, {n: rf(c) for n, c in d.items()}))


@settings(max_examples=40, deadline=None)
@given(a=class_on(P2), b=class_on(P2), c=class_on(P2))
def test_ring_axioms_hold_on_random_classes(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(a=class_on(P2))
def test_inverse_property(a):
    unit = a + P2.one().scale(rf(1) - a.coefficient("[V]"))
    assert unit * unit.inverse() == P2.one()


@settings(max_examples=25, deadline=None)
@given(a=class_on(P2))
def test_blowdown_projection_formula(a):
    bl, down, e = ring_blowup_point(P2)
    lifted = down.pull(a)
    assert down.push(lifted * (bl.one() + e)) == a * P2.one()
    assert down.push(lifted) == a


# ChowClass.__mul__ sums products of constant classes in integers, and
# otherwise adds a coefficient product directly when the structure
# constant is 1; the reference multiplies by rf(f) in Q(m) every time.


def reference_product(x, y):
    ring = x.ring
    out = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            if a == ring.fundamental:
                table = {b: 1}
            elif b == ring.fundamental:
                table = {a: 1}
            else:
                key = (a, b) if ring.index_of[a] <= ring.index_of[b] else (b, a)
                table = ring.products.get(key, {})
            for name, f in table.items():
                out[name] = out.get(name, rf(0)) + ca * cb * rf(f)
    return ChowClass(ring, out)


# in dimension 2, e_i^2 is minus the point class; in dimension 3 every
# structure constant of the blow-up is 1
BLOWN_UP = [
    ring_blowup_point(ring_blowup_point(P2)[0])[0],
    ring_blowup_point(ring_blowup_point(P3)[0])[0],
]
COEFF_TEXTS = ("0", "1", "-1", "2", "-3/2", "m", "1 + m", "m/(1 + m)",
               "(2 - m)/(3 + m)^2", "1/(1 + 2*m)")


@st.composite
def blown_up_pairs(draw):
    ring = draw(st.sampled_from(BLOWN_UP))

    def cls():
        return ChowClass(ring, {
            name: parse_rf(draw(st.sampled_from(COEFF_TEXTS)))
            for name in ring.all_names
        })

    return cls(), cls()


def test_blown_up_rings_have_unit_and_other_structure_constants():
    constants = {
        f for ring in BLOWN_UP for table in ring.products.values()
        for f in table.values()
    }
    assert constants == {1, -1}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(blown_up_pairs())
def test_class_product_matches_reference_product(pair):
    x, y = pair
    product = x * y
    expected = reference_product(x, y)
    assert product == expected
    assert hash(product) == hash(expected)
    assert product.render() == expected.render()
    assert all(not c.is_zero() for c in product.coeffs.values())
    assert x * y - y * x == x.ring.zero()
    assert (x + y) * y == x * y + y * y


RATIONAL_LITERAL = ring_literal({
    "dim": 2,
    "basis": [["[S]"], ["a", "b"], ["p"]],
    "products": {"a,a": "(1/2)*p", "a,b": "(1/3)*p", "b,b": "-(2/5)*p"},
    "degree": {"p": 1},
    "point": "p",
})
BL_P2 = ring_blowup_point(P2)[0]
P1P1 = ring_product(ring_projective(1), ring_projective(1))
CONSTANT_RINGS = [P2, BL_P2, P1P1, P3, RATIONAL_LITERAL]
CONSTANT_TEXTS = ("0", "1", "-1", "2", "-3", "1/2", "-3/2", "2/3", "-7/6")


def assert_canonical_constant(c):
    q = c.as_fraction()
    assert q != 0 and type(q) is Fraction
    assert c.num.coeffs == (q,) and c.den.coeffs == (Fraction(1),)


@st.composite
def constant_pairs(draw):
    ring = draw(st.sampled_from(CONSTANT_RINGS))

    def cls():
        return ChowClass(ring, {
            name: parse_rf(draw(st.sampled_from(CONSTANT_TEXTS)))
            for name in ring.all_names if draw(st.booleans())
        })

    return cls(), cls()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(constant_pairs())
@example((P2.zero(), P2.one().scale(rf(-2))))
@example((P2.one().scale(rf(Fraction(2, 3))), P2.one().scale(rf(Fraction(3, 2)))))
@example((parse_class("h + e1", BL_P2), parse_class("h + e1", BL_P2)))
@example((parse_class("h1 + h2", P1P1), parse_class("h1 - h2", P1P1)))
@example((parse_class("6*a - 5*b", RATIONAL_LITERAL),
          parse_class("a + b", RATIONAL_LITERAL)))
@example((parse_class("1 - h/2", P3), parse_class("1 - h/2", P3).inverse()))
def test_constant_products_match_the_qm_loop(pair):
    x, y = pair
    product = x * y
    expected = reference_product(x, y)
    assert product == expected
    assert hash(product) == hash(expected)
    assert product.render() == expected.render()
    assert list(product.coeffs) == list(expected.coeffs)
    for c in product.coeffs.values():
        assert_canonical_constant(c)
    # one m-linear coefficient sends the product through the Q(m) loop
    z = y + x.ring.one().scale(RF_M)
    assert x * z == reference_product(x, z)
    assert (x * z).render() == reference_product(x, z).render()


# A class in integer form meets a Q(m) class as Fractions on the left of
# each coefficient product, in either order of the factors.

QM_TEXTS = ("m", "1 + m", "m/(1 + m)", "(2 - m)/(3 + m)^2", "1/(1 + 2*m)")


@st.composite
def mixed_pairs(draw):
    """A class in integer form and a class with an m-dependent
    coefficient, on one ring."""
    ring = draw(st.sampled_from(CONSTANT_RINGS + BLOWN_UP))
    names = ring.all_names
    constant = ChowClass(ring, {
        name: parse_rf(draw(st.sampled_from(CONSTANT_TEXTS)))
        for name in names if draw(st.booleans())})
    dependent = {name: parse_rf(draw(st.sampled_from(MIXED_TEXTS)))
                 for name in names if draw(st.booleans())}
    dependent[draw(st.sampled_from(names))] = parse_rf(draw(st.sampled_from(QM_TEXTS)))
    return constant, ChowClass(ring, dependent)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_pairs())
@example((parse_class("1/2 + 6*a - 5*b", RATIONAL_LITERAL),
          parse_class("m*a + b/(1 + m) - p", RATIONAL_LITERAL)))
@example((parse_class("-2/3 + a/7", RATIONAL_LITERAL),
          parse_class("1 + (2 - m)*b/(3 + m)^2", RATIONAL_LITERAL)))
def test_mixed_products_match_reference_product(pair):
    x, y = pair
    assert x.is_constant() and not y.is_constant()
    assert_same(x * y, reference_product(x, y))
    assert_same(y * x, reference_product(y, x))
    assert x * y == y * x


def test_integer_table_has_one_common_denominator():
    assert [ring.table[0] for ring in CONSTANT_RINGS] == [1, 1, 1, 1, 30]
    d, rows = RATIONAL_LITERAL.table
    assert rows["a"]["b"] == (("p", 10),) and rows["b"]["b"] == (("p", -12),)
    assert rows["[S]"]["a"] == (("a", 30),)


def test_constant_products_skip_polynomial_arithmetic(monkeypatch):
    from celint.exactnum import Polynomial

    x = parse_class("2 - 3*h + e1/2 + 5*h^2", BL_P2)
    y = parse_class("-1 + h/3 - 4*e1", BL_P2)
    expected = reference_product(x, y)

    def forbidden(self, other):
        raise AssertionError("multiplied polynomials")

    monkeypatch.setattr(Polynomial, "__mul__", forbidden)
    assert x * y == expected
    assert x * x * y == y * x * x


# ChowClass.inverse against the geometric series in plain class products
# (`oracles.reference_inverse`).


INVERSE_RINGS = [
    P2,
    ring_blowup_point(P2)[0],
    P3,
    ring_product(ring_projective(1), ring_projective(2)),
]
UNIT_TEXTS = ("1", "-1", "2", "-3/2", "m", "1 + m", "2 - 3*m", "m/(1 + m)")


@st.composite
def invertible_classes(draw):
    ring = draw(st.sampled_from(INVERSE_RINGS))
    coeffs = {ring.fundamental: parse_rf(draw(st.sampled_from(UNIT_TEXTS)))}
    for name in ring.all_names[1:]:
        coeffs[name] = parse_rf(draw(st.sampled_from(COEFF_TEXTS)))
    return ChowClass(ring, coeffs)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(invertible_classes())
def test_inverse_matches_geometric_series(x):
    inverse = x.inverse()
    expected = reference_inverse(x)
    assert inverse == expected
    assert hash(inverse) == hash(expected)
    assert inverse.render() == expected.render()
    assert all(not c.is_zero() for c in inverse.coeffs.values())
    assert x * inverse == x.ring.one()


def test_blowup_is_built_and_validated_once_per_ring(monkeypatch):
    validated = []
    validate = PushForwardMap._validate

    def counting(self):
        validated.append(self.label)
        validate(self)

    monkeypatch.setattr(PushForwardMap, "_validate", counting)
    base = ring_projective(2)
    first = ring_blowup_point(base)
    second = ring_blowup_point(base)
    assert second is first
    assert validated == ["blowdown_e1"]
    assert base.blown_up is first
    # the memo is per ring object, not per presentation
    other = ring_blowup_point(ring_projective(2))
    assert other[0] is not first[0]
    assert validated == ["blowdown_e1", "blowdown_e1"]
    # a curve blows up to itself, once
    line = ring_projective(1)
    assert ring_blowup_point(line) is ring_blowup_point(line)
    assert validated[2:] == ["id"]


def test_failing_blowup_raises_on_every_call():
    no_point = ring_literal({
        "dim": 1,
        "basis": [["[C]"], ["p"]],
        "products": {},
        "degree": {"p": 1},
    })
    taken = ring_literal({
        "dim": 2,
        "basis": [["[S]"], ["e1"], ["p"]],
        "products": {"e1,e1": "p"},
        "degree": {"p": 1},
        "point": "p",
    })
    for ring, error in ((no_point, UnsupportedCatalog), (taken, PresentationError)):
        for _ in range(2):
            with pytest.raises(error):
                ring_blowup_point(ring)
        assert ring.blown_up is None


# A class with constant coefficients is held as integers over one
# denominator; every operation on that form is checked against the same
# operation done coefficient by coefficient in Q(m).


def reference_render(x):
    """The render of a class from its Q(m) coefficients alone."""
    pieces = []
    for name in x.ring.all_names:
        c = x.coeffs.get(name)
        if c is None:
            continue
        lead = c.num.leading()
        cabs = -c if lead < 0 else c
        if cabs == rf(1):
            body = name
        else:
            s = cabs.render()
            if cabs.den.degree == 0 and sum(1 for t in cabs.num.coeffs if t) > 1:
                s = f"({s})"
            elif cabs.is_constant() and cabs.as_fraction().denominator != 1:
                s = f"({s})"
            body = f"{s}*{name}"
        pieces.append((lead < 0, body))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


def assert_integer_form(x):
    """The representation invariant of ChowClass."""
    constant = all(c.is_constant() for c in x.coeffs.values())
    assert x.is_constant() == constant
    if constant:
        assert type(x._den) is int and x._den > 0
        assert all(type(v) is int and v for v in x._ints.values())
        assert math.gcd(x._den, *x._ints.values()) == 1
        assert {n: Fraction(v, x._den) for n, v in x._ints.items()} == {
            n: c.as_fraction() for n, c in x.coeffs.items()}
    else:
        assert x._den is None and x._ints is None


def assert_same(result, expected):
    assert result == expected and expected == result
    assert hash(result) == hash(expected)
    assert result.render() == expected.render() == reference_render(expected)
    assert_integer_form(result)


MIXED_TEXTS = CONSTANT_TEXTS + ("m", "1 + m", "m/(1 + m)", "(2 - m)/(3 + m)^2")
SCALARS = (0, 1, -1, 3, Fraction(-2, 3), rf(Fraction(5, 4)), parse_rf("m"),
           parse_rf("1/(1 + 2*m)"), parse_rf("(2 - m)/(3 + m)^2"))


@st.composite
def class_pairs(draw):
    """Two classes on one ring, each mostly constant, and a scalar."""
    ring = draw(st.sampled_from(CONSTANT_RINGS))

    def cls():
        texts = draw(st.sampled_from((CONSTANT_TEXTS, CONSTANT_TEXTS, MIXED_TEXTS)))
        return ChowClass(ring, {
            name: parse_rf(draw(st.sampled_from(texts)))
            for name in ring.all_names if draw(st.booleans())
        })

    return cls(), cls(), draw(st.sampled_from(SCALARS))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(class_pairs())
@example((P2.one().scale(Fraction(1, 2)), P2.one().scale(Fraction(1, 2)), 2))
@example((parse_class("h/2 + h^2/3", P2), parse_class("-h/2", P2), Fraction(6)))
@example((RATIONAL_LITERAL.zero(), RATIONAL_LITERAL.one(), rf(0)))
def test_class_arithmetic_matches_coefficientwise_qm(triple):
    x, y, s = triple
    ring = x.ring
    cx = {n: x.coefficient(n) for n in ring.all_names}
    cy = {n: y.coefficient(n) for n in ring.all_names}
    for c in (x, y):
        assert_integer_form(c)
        assert_same(ChowClass(ring, {n: c.coefficient(n) for n in ring.all_names}), c)
    assert_same(x + y, ChowClass(ring, {n: cx[n] + cy[n] for n in cx}))
    assert_same(x - y, ChowClass(ring, {n: cx[n] - cy[n] for n in cx}))
    assert_same(-x, ChowClass(ring, {n: -cx[n] for n in cx}))
    assert_same(x.scale(s), ChowClass(ring, {n: cx[n] * rf(s) for n in cx}))
    for k in range(ring.dim + 1):
        assert_same(x._select(lambda j: j == k), ChowClass(ring, {
            n: c for n, c in cx.items() if ring.codim_of[n] == k}))
    assert_same(x.positive_part(), ChowClass(ring, {
        n: c for n, c in cx.items() if ring.codim_of[n] > 0}))
    assert_same(x * y, reference_product(x, y))
    top = [n for n in ring.all_names if ring.codim_of[n] == ring.dim]
    degree = rf(0)
    for n in top:
        degree = degree + cx[n] * rf(ring.degree_values[n])
    assert x.degree() == degree
    point = Fraction(29, 7)
    constant = x.evaluate(point)
    assert_same(constant, ChowClass(ring, {
        n: rf(c.evaluate(point)) for n, c in cx.items()}))
    for q in (RF_M, parse_rf("1/(1 + m)"), parse_rf("(2 - m)/(3 + m)^2")):
        assert_same(constant.scale(q), ChowClass(ring, {
            n: c * q for n, c in constant.coeffs.items()}))
    if not cx[ring.fundamental].is_zero():
        inverse = x.inverse()
        assert_same(inverse, reference_inverse(x))
        assert_same(x * inverse, ring.one())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(CONSTANT_RINGS), st.sampled_from(CONSTANT_TEXTS[1:]),
       st.lists(st.sampled_from(CONSTANT_TEXTS), min_size=8, max_size=8))
def test_constant_inverse_with_unit_and_other_c0(ring, c0, rest):
    x = ChowClass(ring, {ring.fundamental: parse_rf(c0), **{
        n: parse_rf(t) for n, t in zip(ring.all_names[1:], rest)}})
    inverse = x.inverse()
    assert_same(inverse, reference_inverse(x))
    assert x * inverse == ring.one() == inverse * x


def test_equal_values_from_every_construction_agree():
    h = P2.basis_class("h")
    built = ChowClass(P2, {P2.fundamental: Fraction(1, 2), "h": rf(1), "h^2": 3})
    by_arithmetic = [
        (P2.one() + h.scale(2) + (h * h).scale(6)).scale(Fraction(1, 2)),
        P2.one().scale(Fraction(1, 2)) + h - (-(h * h)).scale(3),
        parse_class("1/2 + h + 3*h^2", P2),
        (P2.one().scale(2) + h.scale(4) + (h * h).scale(12)).scale(rf(Fraction(1, 4))),
        parse_class("(1 + m)/2 + h + 3*h^2", P2) - P2.one().scale(RF_M / rf(2)),
    ]
    for value in by_arithmetic:
        assert value == built and hash(value) == hash(built)
        assert_integer_form(value)
    assert len({built, *by_arithmetic}) == 1
    assert built != ChowClass(P2, {P2.fundamental: RF_M}) != built
    assert P2.zero() == ChowClass(P2, {"h": 0}) == h - h
    assert hash(P2.zero()) == hash(h - h)


def count_rational_functions(monkeypatch):
    """Patch both RationalFunction constructors to record each call;
    return the record."""
    from celint.exactnum import RationalFunction

    built = []
    make = RationalFunction._make
    init = RationalFunction.__init__

    def counting_make(cls, num, den):
        built.append("make")
        return make(num, den)

    def counting_init(self, *args):
        built.append("init")
        init(self, *args)

    monkeypatch.setattr(RationalFunction, "_make", classmethod(counting_make))
    monkeypatch.setattr(RationalFunction, "__init__", counting_init)
    return built


def test_constant_chain_builds_no_rational_function(monkeypatch):
    x = parse_class("2 - 3*h + e1/2 + 5*h^2", BL_P2)
    y = parse_class("-1 + h/3 - 4*e1", BL_P2)
    built = count_rational_functions(monkeypatch)
    z = (x * y + y.scale(Fraction(-3, 7))) * x - y * y
    w = (z + BL_P2.one().scale(5)).inverse() * x
    down = ring_blowup_point(P2)[1]
    v = down.pull(down.push(w.scale(Fraction(2, 9))) + P2.basis_class("h")) * w
    assert built == []
    assert w.render() and w._select(lambda k: k == 1).is_pure_codim(1)
    assert v.render() and v.is_constant()
    assert built == []
    coefficients = w.coeffs
    assert len(built) == len(coefficients) > 0
    assert w.coeffs is coefficients and len(built) == len(coefficients)


def count_from_ints(monkeypatch):
    """Patch ChowClass._from_ints to record each call; return the record."""
    calls = []
    from_ints = ChowClass._from_ints.__func__

    def counting(cls, ring, den, ints):
        calls.append(den)
        return from_ints(cls, ring, den, ints)

    monkeypatch.setattr(ChowClass, "_from_ints", classmethod(counting))
    return calls


def forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"called {name}")

    monkeypatch.setattr(owner, name, forbidden)


# A Q(m) gcd runs only where both sides of a product depend on m.


def count_gcds(monkeypatch):
    """Patch Polynomial.gcd to record each call; return the record."""
    from celint.exactnum import Polynomial

    calls = []
    gcd = Polynomial.gcd

    def counting(self, other):
        calls.append((self, other))
        return gcd(self, other)

    monkeypatch.setattr(Polynomial, "gcd", counting)
    return calls


BL2_P2 = ring_blowup_point(BL_P2)[0]


@pytest.mark.parametrize("ring, x, divisor, gcds", [
    (P2, "3/2 - h/4 + 2*h^2", "2*h", 2),
    (BL2_P2, "1 + 3*h/2 - e1 + e2/3 - 2*h^2", "h - e1 - 2*e2", 6),
], ids=("P2", "Bl2P2"))
def test_mixed_class_arithmetic_runs_gcds_only_in_sums(monkeypatch, ring, x, divisor, gcds):
    x, divisor = parse_class(x, ring), parse_class(divisor, ring)
    weight = parse_rf("1/(1 + m)")
    factor = ring.one() + divisor.scale(weight)
    expected = (ChowClass(ring, {n: c * weight for n, c in x.coeffs.items()}),
                reference_product(x, factor))
    calls = count_gcds(monkeypatch)
    scaled = x.scale(weight)
    assert calls == []
    product = x * factor
    # the gcds come from the sums of the table products, whose
    # denominators are all 1 + m
    assert len(calls) == gcds
    assert all(b == parse_rf("1 + m").num for _, b in calls)
    monkeypatch.undo()
    assert_same(scaled, expected[0])
    assert_same(product, expected[1])


@pytest.mark.parametrize("ring", [P2, BL2_P2, RATIONAL_LITERAL], ids=("P2", "Bl2P2", "literal"))
def test_constant_coefficients_build_no_rational_function(monkeypatch, ring):
    values = [3, -1, Fraction(2, 3), 0, Fraction(-5, 6), 4, 7, 1]
    coeffs = dict(zip(ring.all_names, values))
    expected = ChowClass(ring, {n: rf(c) for n, c in coeffs.items()})
    built = count_rational_functions(monkeypatch)
    got = ChowClass(ring, coeffs)
    integral = ChowClass(ring, {ring.all_names[-1]: 2})
    assert built == []
    monkeypatch.undo()
    assert_same(got, expected)
    assert_same(integral, ring.basis_class(ring.all_names[-1]).scale(2))


# The integer-form inverse and push/pull are each one integer pass,
# normalized by a single `_from_ints` at the end.


@pytest.mark.parametrize("text, ring", [
    ("3/2 - h + 2*h^2/3 - h^3 + 5*h^5/7", ring_projective(5)),
    ("-1 + h/4 - h^2 + h^4", ring_projective(5)),
    ("-2/3 + a - b/2 + 3*p", RATIONAL_LITERAL),
    ("5 + a/7", RATIONAL_LITERAL),
], ids=("P5", "P5-negative-unit", "literal", "literal-short"))
def test_integer_inverse_normalizes_once_and_makes_no_product(monkeypatch, text, ring):
    x = parse_class(text, ring)
    expected = reference_inverse(x)
    calls = count_from_ints(monkeypatch)
    forbid(monkeypatch, ChowClass, "__mul__")
    inverse = x.inverse()
    assert len(calls) == 1
    monkeypatch.undo()
    assert_same(inverse, expected)
    assert x * inverse == ring.one()


def test_integer_push_and_pull_normalize_once(monkeypatch):
    from celint import chow

    bl2, down, _ = ring_blowup_point(BL_P2)
    x = parse_class("-2/3 + h/5 - 7*e1/4 + e2/6 + 3*h^2/10", bl2)
    y = parse_class("1/2 - 3*h + 4*e1/9 - h^2", BL_P2)
    expected = (down.push(x), down.pull(y))
    calls = count_from_ints(monkeypatch)
    forbid(monkeypatch, ChowClass, "scale")
    forbid(monkeypatch, chow, "_sum_ints")
    pushed = down.push(x)
    assert len(calls) == 1
    pulled = down.pull(y)
    assert len(calls) == 2
    monkeypatch.undo()
    assert (pushed, pulled) == expected
    assert_same(pushed, parse_class("-2/3 + h/5 - 7*e1/4 + 3*h^2/10", BL_P2))
    assert_same(pulled, parse_class("1/2 - 3*h + 4*e1/9 - h^2", bl2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(MIXED_TEXTS), min_size=4, max_size=4),
       st.lists(st.sampled_from(MIXED_TEXTS), min_size=3, max_size=3))
def test_push_and_pull_match_coefficientwise_qm(upstairs, downstairs):
    _, down, _ = ring_blowup_point(P2)
    x = ChowClass(BL_P2, dict(zip(BL_P2.all_names, map(parse_rf, upstairs))))
    y = ChowClass(P2, dict(zip(P2.all_names, map(parse_rf, downstairs))))
    for f, c, images, ring in ((down.push, x, down.forward, P2),
                               (down.pull, y, down.pullback, BL_P2)):
        expected = {n: rf(0) for n in ring.all_names}
        for name, coeff in c.coeffs.items():
            for n, v in images[name].coeffs.items():
                expected[n] = expected[n] + coeff * v
        assert_same(f(c), ChowClass(ring, expected))


# -- catalog constructors against the per-kind reference ----------------------
# The reference builds each catalog kind with code of its own, apart from
# the one constructor that the catalog shares between them.


def reference_point():
    return ChowRing(
        basis=[["[V]"]], products={},
        degree_values={"[V]": Fraction(1)},
        tangent_chern_coeffs={"[V]": Fraction(1)},
        point="[V]", kind=("projective", 0),
    )


def reference_proj_name(i):
    if i == 0:
        return "[V]"
    return "h" if i == 1 else f"h^{i}"


def reference_projective(n):
    if n == 0:
        return reference_point()
    name = reference_proj_name
    products = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i + j <= n:
                products[(name(i), name(j))] = {name(i + j): Fraction(1)}
    return ChowRing(
        basis=[[name(i)] for i in range(n + 1)], products=products,
        degree_values={name(n): Fraction(1)},
        tangent_chern_coeffs={name(k): Fraction(math.comb(n + 1, k))
                              for k in range(n + 1)},
        point=name(n), kind=("projective", n),
    )


def reference_product_name(i, j):
    parts = []
    if i > 0:
        parts.append("h1" if i == 1 else f"h1^{i}")
    if j > 0:
        parts.append("h2" if j == 1 else f"h2^{j}")
    return "*".join(parts) if parts else "[V]"


def reference_ring_product(a, b):
    name = reference_product_name
    basis = [[name(i, c - i) for i in range(min(c, a), max(0, c - b) - 1, -1)]
             for c in range(a + b + 1)]
    index = {n: k for k, n in enumerate(x for level in basis for x in level)}
    pairs = [(i, j) for i in range(a + 1) for j in range(b + 1) if i + j > 0]
    products = {}
    for i1, j1 in pairs:
        for i2, j2 in pairs:
            n1, n2 = name(i1, j1), name(i2, j2)
            if index[n1] <= index[n2] and i1 + i2 <= a and j1 + j2 <= b:
                products[(n1, n2)] = {name(i1 + i2, j1 + j2): Fraction(1)}
    chern = {name(i, j): Fraction(math.comb(a + 1, i) * math.comb(b + 1, j))
             for i in range(a + 1) for j in range(b + 1)}
    return ChowRing(
        basis=basis, products=products,
        degree_values={name(a, b): Fraction(1)}, tangent_chern_coeffs=chern,
        point=name(a, b), kind=("product", (a, b)),
    )


def ring_facts(ring):
    return (ring.basis, ring.all_names, list(ring.products.items()),
            ring.degree_values, ring.tangent_chern.coeffs, ring.point, ring.kind)


def test_catalog_matches_the_per_kind_reference():
    pairs = [(ring_point(), reference_point())]
    pairs += [(ring_projective(n), reference_projective(n)) for n in range(9)]
    pairs += [(ring_product(ring_projective(a), ring_projective(b)),
               reference_ring_product(a, b))
              for a in range(6) for b in range(6)]
    assert len(pairs) == 46
    for ring, reference in pairs:
        assert ring_facts(ring) == ring_facts(reference)
