"""Exact univariate arithmetic over the rationals.

The coefficient field for the whole package is Q(m): rational functions
in one indeterminate m with arbitrary-precision rational coefficients.
Values are immutable and canonical. A polynomial never stores trailing
zero coefficients, and a rational function is always reduced with a
monic denominator, so structural equality coincides with equality of
values.

The arithmetic keeps that invariant without re-checking it where it
holds by construction. `Polynomial._make` takes a list that already
holds `Fraction`s and only strips trailing zeros; `RationalFunction._make`
takes a numerator and denominator that are already coprime, with the
denominator monic (or the numerator zero and the denominator 1). A
monic constant denominator is 1, which is coprime to every numerator,
so sums and products of two polynomial values, negations and
nonnegative powers are built through it without a gcd. A quotient of
two constants is taken in `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from math import isqrt, lcm as _ilcm

from .errors import (
    DivisionByZero,
    IndeterminateError,
    PoleError,
    ZeroDenominator,
)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


def _fraction_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def power(base, k: int, one):
    """base**k for an int k >= 0 by repeated squaring; one is base**0."""
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def join_terms(pieces) -> str:
    """A signed sum from its (negated, body) terms: `a - b + c`."""
    neg, body = pieces[0]
    out = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


_set = object.__setattr__
_ZERO = Fraction(0)


class Polynomial:
    """Dense univariate polynomial over Q, coefficients stored by ascending exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _set(self, "coeffs", tuple(cs))

    @classmethod
    def _make(cls, cs: list) -> "Polynomial":
        """Trusted constructor: cs holds Fractions only; strips trailing zeros."""
        while cs and not cs[-1]:
            cs.pop()
        self = object.__new__(cls)
        _set(self, "coeffs", tuple(cs))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is reported as -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._make(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO_POLY
        if len(a) == 1 and len(b) == 1:
            return Polynomial._make([a[0] * b[0]])
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Polynomial._make(out)

    def scale(self, c) -> "Polynomial":
        c = as_fraction(c)
        if c == 0:
            return ZERO_POLY
        return Polynomial._make([x * c for x in self.coeffs])

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k, ONE_POLY)

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        if len(rem) - 1 < d:
            return ZERO_POLY, self
        quot = [_ZERO] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quot[i - d] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= q * oc
        return Polynomial._make(quot), Polynomial._make(rem)

    def div_exact(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return self.scale(1 / lead)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def derivative(self) -> "Polynomial":
        return Polynomial._make([c * k for k, c in enumerate(self.coeffs) if k])

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def squarefree_factors(self):
        """Yun decomposition as (monic squarefree factor, multiplicity) pairs."""
        f = self.monic()
        if f.degree < 1:
            return ()
        df = f.derivative()
        a = f.gcd(df)
        b = f.div_exact(a)
        c = df.div_exact(a)
        d = c - b.derivative()
        parts = []
        mult = 1
        while b.degree > 0:
            a = b.gcd(d)
            if a.degree > 0:
                parts.append((a, mult))
            b = b.div_exact(a)
            c = d.div_exact(a)
            d = c - b.derivative()
            mult += 1
        return tuple(parts)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = _fraction_str(abs(c))
            else:
                v = "m" if k == 1 else f"m^{k}"
                body = v if abs(c) == 1 else f"{_fraction_str(abs(c))}*{v}"
            pieces.append((c < 0, body))
        return join_terms(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.render()!r})"


ZERO_POLY = Polynomial(())
ONE_POLY = Polynomial((Fraction(1),))
M_POLY = Polynomial((Fraction(0), Fraction(1)))


class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = ONE_POLY):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            num, den = ZERO_POLY, ONE_POLY
        else:
            # a constant denominator is coprime to every numerator
            if den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.div_exact(g)
                    den = den.div_exact(g)
            lead = den.leading()
            if lead != 1:
                num = num.scale(1 / lead)
                den = den.scale(1 / lead)
        _set(self, "num", num)
        _set(self, "den", den)

    @classmethod
    def _make(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Trusted constructor: num and den coprime with den monic, or num zero and den 1."""
        self = object.__new__(cls)
        _set(self, "num", num)
        _set(self, "den", den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        """The canonical constant c, an int or a Fraction."""
        q = as_fraction(c)
        if not q:
            return RF_ZERO
        return cls._make(Polynomial._make([q]), ONE_POLY)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return len(self.num.coeffs) <= 1 and len(self.den.coeffs) == 1

    def sign(self) -> int:
        """Sign (-1, 0 or 1) of the leading coefficient of the numerator;
        the denominator is monic."""
        lead = self.num.leading()
        return (lead > 0) - (lead < 0)

    def is_sum(self) -> bool:
        """True when `render` shows a polynomial of more than one term,
        which needs parentheses as a factor of a product."""
        return len(self.den.coeffs) == 1 and sum(1 for c in self.num.coeffs if c) > 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # A canonical denominator of degree 0 is 1, so len(den.coeffs) == 1
    # tests for a polynomial value, whose sums and products need no gcd.

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if len(self.den.coeffs) == 1 and len(other.den.coeffs) == 1:
            num = self.num + other.num
            return RationalFunction._make(num, ONE_POLY) if num.coeffs else RF_ZERO
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._make(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        if len(self.den.coeffs) == 1 and len(other.den.coeffs) == 1:
            return RationalFunction._make(self.num * other.num, ONE_POLY)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __rmul__(self, k) -> "RationalFunction":
        """k * self for a nonzero int or Fraction k, which keeps the form canonical."""
        return RationalFunction._make(self.num.scale(k), self.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        if self.is_constant() and other.is_constant():
            return RationalFunction.constant(self.as_fraction() / other.as_fraction())
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RationalFunction(self.den ** (-k), self.num ** (-k))
        # powers of coprime polynomials stay coprime, and of a monic one monic
        return RationalFunction._make(self.num**k, self.den**k)

    def evaluate(self, x) -> Fraction:
        x = as_fraction(x)
        d = self.den.evaluate(x)
        if d == 0:
            n = self.num.evaluate(x)
            if n == 0:
                raise IndeterminateError(
                    f"indeterminate value of {self} at m = {x}"
                )
            raise PoleError(f"{self} has a pole at m = {x}")
        return self.num.evaluate(x) / d

    def _integer_cleared(self):
        """Return (num, den) scaled to integer coefficients with trivial common content."""
        denoms = [c.denominator for c in self.num.coeffs + self.den.coeffs]
        scale = _ilcm(*denoms) if denoms else 1
        n = self.num.scale(scale)
        d = self.den.scale(scale)
        nums = [abs(c.numerator) for c in n.coeffs + d.coeffs if c != 0]
        g = _igcd(*nums) if nums else 1
        if g > 1:
            n = n.scale(Fraction(1, g))
            d = d.scale(Fraction(1, g))
        return n, d

    def render(self) -> str:
        if self.is_zero():
            return "0"
        if self.is_constant():
            return _fraction_str(self.num.coeffs[0])
        n, d = self._integer_cleared()
        nstr = n.render()
        if d == ONE_POLY:
            return nstr
        if sum(1 for c in n.coeffs if c != 0) > 1:
            nstr = f"({nstr})"
        dstr = d.render()
        if any(ch in dstr for ch in "+-*"):
            dstr = f"({dstr})"
        return f"{nstr}/{dstr}"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RationalFunction({self.render()!r})"


RF_ZERO = RationalFunction(ZERO_POLY)
RF_ONE = RationalFunction(ONE_POLY)
RF_M = RationalFunction(M_POLY)


def rf(c) -> RationalFunction:
    """Coerce an int, Fraction, Polynomial, or RationalFunction into Q(m)."""
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, Polynomial):
        return RationalFunction(c)
    return RationalFunction.constant(c)


def _divisors(n: int):
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return out


class PoleReport:
    """Rational poles of a rational function, plus any leftover denominator factors.

    The leftover factors are monic, squarefree, and free of rational
    roots; they are reported without further factorization.
    """

    __slots__ = ("poles", "nonrational_factors")

    def __init__(self, poles, nonrational_factors=()):
        object.__setattr__(self, "poles", frozenset(poles))
        object.__setattr__(self, "nonrational_factors", tuple(nonrational_factors))

    def __setattr__(self, name, value):
        raise AttributeError("PoleReport is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PoleReport)
            and self.poles == other.poles
            and self.nonrational_factors == other.nonrational_factors
        )

    def render(self) -> str:
        parts = [_fraction_str(p) for p in sorted(self.poles)]
        out = ", ".join(parts) if parts else "none"
        if self.nonrational_factors:
            extra = ", ".join(f.render() for f in self.nonrational_factors)
            out += f"; nonrational factors: {extra}"
        return out


def rational_poles(f: RationalFunction) -> PoleReport:
    """All rational roots of the denominator, found by exact rational-root search."""
    den = f.den
    if den.degree < 1:
        return PoleReport(frozenset())
    scale = _ilcm(*[c.denominator for c in den.coeffs])
    ints = [int(c * scale) for c in den.coeffs]
    poles = set()
    low = 0
    while ints[low] == 0:
        low += 1
    if low > 0:
        poles.add(Fraction(0))
    trail, lead = ints[low], ints[-1]
    candidates = set()
    for p in _divisors(trail):
        for q in _divisors(lead):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for r in candidates:
        if den.evaluate(r) == 0:
            poles.add(r)
    leftover = den.monic()
    for r in sorted(poles):
        linear = Polynomial((-r, Fraction(1)))
        while leftover.degree >= 1 and leftover.evaluate(r) == 0:
            leftover = leftover.div_exact(linear)
    factors = leftover.squarefree_factors() if leftover.degree >= 1 else ()
    return PoleReport(frozenset(poles), tuple(base for base, _ in factors))
