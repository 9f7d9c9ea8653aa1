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

The module is also the home of integer arithmetic. `cleared` puts a
sequence of Fractions over the lcm of their denominators; evaluation,
rendering, the pole search, `stratum_sum` and the integer form of
constant Chow classes read their integers through it. `stratum_sum` is
the one integer kernel behind the degree, zeta, stratumwise and explicit
class-level integrals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm

from .errors import DivisionByZero, PoleError, ZeroDenominator


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational number, got {type(x).__name__}")


def cleared(fractions) -> tuple:
    """(d, ints) for a sequence of Fractions: d is the lcm of their
    denominators (1 for none) and ints their numerators over d."""
    d = lcm(*(q.denominator for q in fractions))
    return d, [q.numerator * (d // q.denominator) for q in fractions]


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
        """The monic gcd by Euclid over Q; with a side of degree 1, that side
        made monic if the other vanishes at its root, else 1."""
        a, b = (other, self) if other.degree == 1 else (self, other)
        if a.degree == 1:
            return a.monic() if not b.evaluate(-a.coeffs[0] / a.coeffs[1]) else ONE_POLY
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def derivative(self) -> "Polynomial":
        return Polynomial._make([c * k for k, c in enumerate(self.coeffs) if k])

    def evaluate(self, x) -> Fraction:
        """The value at x, by Horner's rule in integers: with x = u/v and
        the coefficients over one denominator s, s*v^n*p(x) is an integer."""
        x = as_fraction(x)
        if not self.coeffs:
            return Fraction(0)
        u, v = x.numerator, x.denominator
        scale, ints = cleared(self.coeffs)
        acc, w = 0, 1
        for c in reversed(ints):
            acc = acc * u + c * w
            w *= v
        return Fraction(acc, scale * (w // v))

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
        """k * self for a nonzero int or Fraction k, canonical without a gcd."""
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
        # num and den are coprime, so they share no root
        d = self.den.evaluate(x)
        if d == 0:
            raise PoleError(f"{self} has a pole at m = {x}")
        return self.num.evaluate(x) / d

    def _integer_cleared(self):
        """(num, den) scaled by the lcm of all their coefficients'
        denominators to integer coefficients. Their common content is 1:
        for each prime power p^e of the lcm, some coefficient's
        denominator holds p^e and p does not divide its scaled numerator,
        and the monic den's leading coefficient scales to the lcm itself."""
        _, ints = cleared(self.num.coeffs + self.den.coeffs)
        k = len(self.num.coeffs)
        return Polynomial(ints[:k]), Polynomial(ints[k:])

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
    _, ints = cleared(den.coeffs)
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


def _int_mul(a: list, b: list) -> list:
    """Product of two integer coefficient lists, by ascending exponent."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        for i, x in enumerate(a):
            out[i + j] += x * y
    return out


def _primitive(a: list) -> tuple:
    """Content and primitive part of a nonzero integer list, trailing zeros
    dropped."""
    a = list(a)
    while not a[-1]:
        a.pop()
    c = gcd(*a)
    return c, [x // c for x in a]


def _remainder(a: list, b: list) -> list:
    """Primitive part of a pseudo-remainder of a by b, both integer lists
    with b nonzero and stripped; [] when b divides a. A step scales the
    running remainder by a factor of b's leading coefficient only when
    its own leading coefficient is not a multiple of it."""
    r, lead = list(a), b[-1]
    while len(r) >= len(b):
        c = r[-1]
        if c % lead:
            f = lead // gcd(c, lead)
            r = [x * f for x in r]
            c *= f
        t, shift = c // lead, len(r) - len(b)
        for j, y in enumerate(b):
            r[shift + j] -= t * y
        while r and not r[-1]:
            r.pop()
    return _primitive(r)[1] if r else []


def _quotient(a: list, b: list) -> list:
    """a / b for integer lists, b primitive and dividing a exactly, so
    (Gauss) every quotient coefficient is an integer."""
    r, lead = list(a), b[-1]
    out = [0] * (len(a) - len(b) + 1)
    for shift in reversed(range(len(out))):
        t = out[shift] = r[shift + len(b) - 1] // lead
        for j, y in enumerate(b):
            r[shift + j] -= t * y
    return out


def stratum_sum(terms, mults: dict, less_one: bool = False) -> tuple:
    """Sums of (c/d) * prod_{i in I} x_i by key (basis names, base labels
    or the one key of a degree) over the terms (I, d, dict of int c by
    key), with x_i = 1/(1+m_i), or x_i - 1 = -m_i/(1+m_i) when less_one.
    Returns (den, sums) without the zero sums: with no m-dependent name
    in a nonzero term, den > 0 and each sum an int over it, and no
    Fraction or RationalFunction is built; else den is None and each sum
    a RationalFunction. With m_i = n_i/d_i cleared by one scale,
    x_i = p_i/q_i for p_i = d_i (or -n_i) and q_i = d_i + n_i; every key
    goes over lcm(d) * prod q_i, a term's constant names folded into one
    int. The terms are grouped once by their m-dependent names, which
    `_eliminate` removes for all keys at once; Q(m) enters only in
    `_reduced`, once per key."""
    bits, fold, factors, live, whole = {}, {}, [], [], 1
    for index, d, vector in terms:
        if not any(vector.values()):
            continue
        for name in index:
            if name not in fold and name not in bits:
                p, q = _parts(mults[name], less_one)
                if len(q) > 1:
                    bits[name] = 1 << len(factors)
                    factors.append((p, q))
                else:
                    fold[name] = p[0] if p else 0, q[0]
                    whole *= q[0]
        live.append((index, d, vector))
    scale = lcm(*(d for _, d, _ in live))
    den = scale * whole
    groups, used = {}, {}
    for index, d, vector in live:
        top, bottom, mask = scale // d, 1, 0
        for name in index:
            if name in bits:
                mask |= bits[name]
            else:
                p, q = fold[name]
                top *= p
                bottom *= q
        f = top * (whole // bottom)
        for key, c in vector.items():
            if c:
                groups[mask, key] = groups.get((mask, key), 0) + c * f
                used[key] = used.get(key, 0) | mask
    if not factors:
        sign = -1 if den < 0 else 1
        return sign * den, {key: sign * c for (_, key), c in groups.items() if c}
    sums = {}
    for key, num in _eliminate(groups, factors, used).items():
        while num and not num[-1]:
            num.pop()
        if num:
            sums[key] = _reduced(num, den, [
                q for i, (_, q) in enumerate(factors) if used[key] >> i & 1])
    return None, sums


def _parts(mult: RationalFunction, less_one: bool) -> tuple:
    """The integer lists (p, q) with x = p/q for one multiplicity m."""
    num, den = mult.num.coeffs, mult.den.coeffs
    _, ints = cleared(num + den)
    n, d = ints[:len(num)], ints[len(num):]
    q = [a + b for a, b in zip_longest(d, n, fillvalue=0)]
    if q == [0]:
        raise ZeroDenominator("rational function with zero denominator")
    return ([-c for c in n] if less_one else d), q


def _eliminate(groups: dict, factors: list, used: dict) -> dict:
    """Each key's integer list over prod q_i, from the ints of groups by
    (mask, key): the name of bit i, with (p_i, q_i) = factors[i], goes by
    multiplying each group by p_i or q_i and merging it with the group
    that differs only at i, except for keys whose nonzero entries never
    hold it."""
    groups = {entry: [c] for entry, c in groups.items() if c}
    for i, (p, q) in enumerate(factors):
        bit = 1 << i
        merged = {}
        for (mask, key), poly in groups.items():
            if used[key] & bit:
                poly = _int_mul(poly, p if mask & bit else q)
                mask &= ~bit
            other = merged.get((mask, key))
            merged[mask, key] = [a + b for a, b in zip_longest(
                other, poly, fillvalue=0)] if other else poly
        groups = merged
    return {key: poly for (_, key), poly in groups.items()}


def _reduced(num: list, den: int, qs: list) -> RationalFunction:
    """num / (den * prod qs) in canonical form, num a nonzero stripped
    integer list. A common factor divides some q, so for each q: its
    content joins den, g = gcd(num, q) comes from the pseudo-remainder of
    num by q, and both are divided by g. No gcd runs on num itself."""
    kept = [1]
    for q in qs:
        content, q = _primitive(q)
        den *= content
        g, r = q, _remainder(num, q)
        while len(r) > 1:
            g, r = r, _remainder(g, r)
        if not r:
            num, q = _quotient(num, g), _quotient(q, g)
        kept = _int_mul(kept, q)
    lead = den * kept[-1]
    return RationalFunction._make(
        Polynomial._make([Fraction(c, lead) for c in num]),
        Polynomial._make([Fraction(c, kept[-1]) for c in kept]))
