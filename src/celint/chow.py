"""Finite presentations of Chow rings, classes, and proper push-forwards.

A ring here is a graded basis with rational structure constants, a
degree map on the top graded piece, and optionally a total tangent
Chern class and a designated point class. Catalog constructors cover
projective spaces, binary products of projective spaces, and iterated
point blow-ups; anything else enters through a literal presentation
that is validated exhaustively before use. The constructors live in
`celint.catalog` and are re-exported here.

Class coefficients live in Q(m), so one class value can carry a whole
family of computations; evaluation at a rational m specializes it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    DivisionByZero,
    MissingTangentClass,
    NotADivisor,
    ParseError,
    PresentationError,
    RingMismatch,
    UnsupportedCatalog,
)
from .exactnum import (
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    as_fraction,
    rf,
)
from .exprparse import parse_expression

class ChowRing:
    """Graded basis presentation with rational structure constants.

    Instances compare by identity; two rings built from the same data
    are still distinct carriers, and classes never cross between them.
    `blown_up` holds the result of `ring_blowup_point` on this ring once
    it has been built, and `integer_products` the table of
    `integer_table` once it has been asked for.
    """

    __slots__ = (
        "dim",
        "basis",
        "codim_of",
        "index_of",
        "all_names",
        "products",
        "degree_values",
        "fundamental",
        "tangent_chern",
        "point",
        "kind",
        "meta",
        "blown_up",
        "integer_products",
    )

    def __init__(self, dim, basis, products, degree_values, tangent_chern_coeffs,
                 point, kind, meta=None):
        self.dim = dim
        self.basis = tuple(tuple(level) for level in basis)
        self.codim_of = {}
        self.index_of = {}
        names = []
        for codim, level in enumerate(self.basis):
            for name in level:
                if name in self.codim_of:
                    raise PresentationError(f"duplicate basis name {name!r}")
                self.codim_of[name] = codim
                self.index_of[name] = len(names)
                names.append(name)
        self.all_names = tuple(names)
        if len(self.basis) != dim + 1:
            raise PresentationError(
                f"expected {dim + 1} graded pieces, found {len(self.basis)}"
            )
        if len(self.basis[0]) != 1:
            raise PresentationError(
                "codimension 0 must hold exactly one basis element"
            )
        self.fundamental = self.basis[0][0]
        self.products = products
        self.degree_values = dict(degree_values)
        self.point = point
        self.kind = kind
        self.meta = dict(meta or {})
        self.blown_up = None
        self.integer_products = None
        self.tangent_chern = None
        self._validate()
        if tangent_chern_coeffs is not None:
            self.tangent_chern = ChowClass(self, {
                name: rf(c) for name, c in tangent_chern_coeffs.items()
            })
            self._validate_chern()

    def _validate(self):
        for level in self.basis:
            for name in level:
                if not name or "," in name or any(ch.isspace() for ch in name):
                    raise PresentationError(f"invalid basis name {name!r}")
        for (a, b), table in self.products.items():
            for x in (a, b):
                if x not in self.codim_of:
                    raise PresentationError(f"product key names unknown element {x!r}")
            if self.index_of[a] > self.index_of[b]:
                raise PresentationError(f"product key ({a},{b}) is not in canonical order")
            total = self.codim_of[a] + self.codim_of[b]
            for name, c in table.items():
                if name not in self.codim_of:
                    raise PresentationError(
                        f"product {a}*{b} names unknown element {name!r}"
                    )
                if total > self.dim:
                    raise PresentationError(
                        f"product {a}*{b} exceeds the dimension but is nonzero"
                    )
                if self.codim_of[name] != total:
                    raise PresentationError(
                        f"product {a}*{b} violates the grading at {name!r}"
                    )
        top = self.basis[self.dim]
        for name in top:
            if name not in self.degree_values:
                raise PresentationError(f"degree map is missing {name!r}")
        for name, value in self.degree_values.items():
            if name not in self.codim_of or self.codim_of[name] != self.dim:
                raise PresentationError(
                    f"degree map defined on non-top element {name!r}"
                )
            self.degree_values[name] = as_fraction(value)
        if self.point is not None:
            if self.point not in self.codim_of:
                raise PresentationError(f"point class {self.point!r} is not a basis element")
            if self.codim_of[self.point] != self.dim:
                raise PresentationError(f"point class {self.point!r} has wrong codimension")
            if self.degree_values[self.point] != 1:
                raise PresentationError(f"point class {self.point!r} must have degree 1")
        nonunit = [n for n in self.all_names if n != self.fundamental]
        for a in nonunit:
            for b in nonunit:
                ab = self.mul_basis(a, b)
                for c in nonunit:
                    left = self._mul_dict_basis(ab, c)
                    right = self._mul_basis_dict(a, self.mul_basis(b, c))
                    if left != right:
                        raise PresentationError(
                            f"associativity fails on ({a}*{b})*{c}"
                        )

    def _validate_chern(self):
        chern = self.tangent_chern
        for name, c in chern.coeffs.items():
            if not c.is_constant():
                raise PresentationError(
                    f"tangent Chern coefficient on {name!r} must be constant"
                )
        if chern.coefficient(self.fundamental) != RF_ONE:
            raise PresentationError(
                "tangent Chern class must have codimension-0 part 1"
            )

    def mul_basis(self, a: str, b: str) -> dict:
        if a == self.fundamental:
            return {b: Fraction(1)}
        if b == self.fundamental:
            return {a: Fraction(1)}
        if self.index_of[a] > self.index_of[b]:
            a, b = b, a
        return self.products.get((a, b), {})

    def integer_table(self):
        """The structure constants over one common denominator d.

        Returns (d, rows), where rows[a][b] holds the pairs (name, k)
        with a*b = sum of (k/d)*name, for each pair of basis names whose
        product is nonzero. Built on first use; d is the lcm of the
        denominators of the structure constants, 1 for catalog rings.
        """
        if self.integer_products is None:
            d = 1
            for table in self.products.values():
                for f in table.values():
                    d = lcm(d, f.denominator)
            rows = {}
            for a in self.all_names:
                row = rows[a] = {}
                for b in self.all_names:
                    table = self.mul_basis(a, b)
                    if table:
                        row[b] = tuple(
                            (name, f.numerator * (d // f.denominator))
                            for name, f in table.items()
                        )
            self.integer_products = (d, rows)
        return self.integer_products

    def _mul_dict_basis(self, d: dict, c: str) -> dict:
        out = {}
        for name, coeff in d.items():
            for res, f in self.mul_basis(name, c).items():
                v = out.get(res, Fraction(0)) + coeff * f
                if v == 0:
                    out.pop(res, None)
                else:
                    out[res] = v
        return out

    def _mul_basis_dict(self, a: str, d: dict) -> dict:
        out = {}
        for name, coeff in d.items():
            for res, f in self.mul_basis(a, name).items():
                v = out.get(res, Fraction(0)) + coeff * f
                if v == 0:
                    out.pop(res, None)
                else:
                    out[res] = v
        return out

    def zero(self) -> "ChowClass":
        return ChowClass(self, {})

    def one(self) -> "ChowClass":
        return ChowClass(self, {self.fundamental: RF_ONE})

    def basis_class(self, name: str) -> "ChowClass":
        if name not in self.codim_of:
            raise RingMismatch(f"{name!r} is not a basis element of this ring")
        return ChowClass(self, {name: RF_ONE})

    def require_tangent_chern(self) -> "ChowClass":
        if self.tangent_chern is None:
            raise MissingTangentClass(
                "this ring carries no tangent Chern class"
            )
        return self.tangent_chern

    def describe(self) -> str:
        lines = [f"dimension {self.dim}"]
        for codim, level in enumerate(self.basis):
            lines.append(f"codim {codim}: " + ", ".join(level))
        if self.tangent_chern is not None:
            lines.append(f"tangent chern: {self.tangent_chern.render()}")
        if self.point is not None:
            lines.append(f"point class: {self.point}")
        return "\n".join(lines)


class ChowClass:
    """Linear combination of basis elements with coefficients in Q(m)."""

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring: ChowRing, coeffs: dict):
        object.__setattr__(self, "ring", ring)
        clean = {}
        for name, c in coeffs.items():
            if name not in ring.codim_of:
                raise RingMismatch(f"{name!r} is not a basis element of this ring")
            c = rf(c)
            if not c.is_zero():
                clean[name] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _make(cls, ring: ChowRing, coeffs: dict) -> "ChowClass":
        """Trusted constructor: names are basis names of ring and values
        RationalFunctions; only zero coefficients are dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self, "coeffs", {n: c for n, c in coeffs.items() if c.num.coeffs}
        )
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ChowClass is immutable")

    def _check_ring(self, other: "ChowClass"):
        if self.ring is not other.ring:
            raise RingMismatch("classes live in different rings")

    def coefficient(self, name: str) -> RationalFunction:
        return self.coeffs.get(name, RF_ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, ChowClass)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((id(self.ring), frozenset(self.coeffs.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check_ring(other)
        out = dict(self.coeffs)
        for name, c in other.coeffs.items():
            prev = out.get(name)
            out[name] = c if prev is None else prev + c
        return ChowClass._make(self.ring, out)

    def __neg__(self) -> "ChowClass":
        return ChowClass._make(self.ring, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def scale(self, c) -> "ChowClass":
        c = rf(c)
        if c.is_zero():
            return self.ring.zero()
        return ChowClass._make(self.ring, {n: v * c for n, v in self.coeffs.items()})

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        """Product in the ring, by one of two paths with equal results.

        When every coefficient of both factors is a constant of Q(m)
        (numerator of degree at most 0, denominator 1), the product is
        summed in integers over the ring's `integer_table`, and each
        output coefficient is reduced once at the end. Any other pair
        goes through the loop over Q(m) coefficients below.
        """
        self._check_ring(other)
        if _all_constant(self.coeffs) and _all_constant(other.coeffs):
            return self._mul_integers(
                _integer_form(self.coeffs), _integer_form(other.coeffs))
        mul_basis = self.ring.mul_basis
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                table = mul_basis(a, b)
                if not table:
                    continue
                cab = ca * cb
                for name, f in table.items():
                    term = cab if f == 1 else cab * rf(f)
                    prev = out.get(name)
                    out[name] = term if prev is None else prev + term
        return ChowClass._make(self.ring, out)

    def _mul_integers(self, x, y) -> "ChowClass":
        """Product of two classes given in `_integer_form`."""
        d, rows = self.ring.integer_table()
        dx, xs = x
        dy, ys = y
        out = {}
        for a, xa in xs:
            row = rows[a]
            for b, yb in ys:
                entries = row.get(b)
                if entries:
                    xy = xa * yb
                    for name, k in entries:
                        out[name] = out.get(name, 0) + xy * k
        den = dx * dy * d
        constant = RationalFunction.constant
        return ChowClass._make(self.ring, {
            name: constant(Fraction(n) if den == 1 else Fraction(n, den))
            for name, n in out.items()
        })

    def __pow__(self, k: int) -> "ChowClass":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def graded_piece(self, codim: int) -> "ChowClass":
        return ChowClass._make(self.ring, {
            n: c for n, c in self.coeffs.items()
            if self.ring.codim_of[n] == codim
        })

    def positive_part(self) -> "ChowClass":
        return ChowClass._make(self.ring, {
            n: c for n, c in self.coeffs.items()
            if self.ring.codim_of[n] > 0
        })

    def inverse(self) -> "ChowClass":
        """Inverse of a class whose codimension-0 part c0 is nonzero.

        With u = -(positive part)/c0 the inverse is (1/c0) * sum u^k;
        u is nilpotent, so the series terminates after dim steps.
        """
        c0 = self.coefficient(self.ring.fundamental)
        if c0.is_zero():
            raise DivisionByZero(
                "cannot invert a class with zero codimension-0 part"
            )
        unit = c0 == RF_ONE
        u = -self.positive_part()
        if not unit:
            u = u.scale(RF_ONE / c0)
        result = power = self.ring.one()
        for _ in range(self.ring.dim):
            power = power * u
            if power.is_zero():
                break
            result = result + power
        return result if unit else result.scale(RF_ONE / c0)

    def __truediv__(self, other: "ChowClass") -> "ChowClass":
        self._check_ring(other)
        return self * other.inverse()

    def degree(self) -> RationalFunction:
        total = RF_ZERO
        for name, c in self.coeffs.items():
            if self.ring.codim_of[name] == self.ring.dim:
                total = total + c * rf(self.ring.degree_values[name])
        return total

    def evaluate(self, x) -> "ChowClass":
        return ChowClass(self.ring, {
            n: rf(c.evaluate(x)) for n, c in self.coeffs.items()
        })

    def is_pure_codim(self, codim: int) -> bool:
        return all(self.ring.codim_of[n] == codim for n in self.coeffs)

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for name in self.ring.all_names:
            c = self.coeffs.get(name)
            if c is None:
                continue
            pieces.append(_render_term(c, name))
        neg, body = pieces[0]
        out = ("-" if neg else "") + body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"ChowClass({self.render()!r})"


def _all_constant(coeffs: dict) -> bool:
    """True when no coefficient depends on m."""
    return all(map(RationalFunction.is_constant, coeffs.values()))


def _integer_form(coeffs: dict):
    """(d, [(name, n), ...]) with each coefficient equal to n/d, where d
    is the lcm of the coefficient denominators; every coefficient must
    be a constant of Q(m)."""
    items = []
    d = 1
    for name, c in coeffs.items():
        q = c.as_fraction()
        items.append((name, q))
        if q.denominator != 1:
            d = lcm(d, q.denominator)
    if d == 1:
        return 1, [(name, q.numerator) for name, q in items]
    return d, [(name, q.numerator * (d // q.denominator)) for name, q in items]


def _render_term(c: RationalFunction, name: str):
    """Return (negated, body) so callers can join terms with signs."""
    if c.is_constant():
        f = c.as_fraction()
        neg = f < 0
        a = abs(f)
        if a == 1:
            return neg, name
        if a.denominator == 1:
            return neg, f"{a.numerator}*{name}"
        return neg, f"({a.numerator}/{a.denominator})*{name}"
    lead = c.num.leading()
    neg = lead < 0
    cabs = -c if neg else c
    s = cabs.render()
    if cabs.den.degree == 0 and sum(1 for x in cabs.num.coeffs if x != 0) > 1:
        s = f"({s})"
    return neg, f"{s}*{name}"


class PushForwardMap:
    """Proper push-forward between two ring presentations.

    Carries the forward images of the source basis and the pullback
    images of the target basis; validation checks the projection
    formula, forward-after-pullback identity, pullback
    multiplicativity, grading, and degree preservation on every basis
    combination.
    """

    __slots__ = ("source", "target", "forward", "pullback", "label", "meta")

    def __init__(self, source, target, forward, pullback, label="", meta=None):
        self.source = source
        self.target = target
        self.forward = dict(forward)
        self.pullback = dict(pullback)
        self.label = label
        self.meta = dict(meta or {})
        self._validate()

    def push(self, c: ChowClass) -> ChowClass:
        if c.ring is not self.source:
            raise RingMismatch("class does not live in the source ring of this map")
        out = self.target.zero()
        for name, coeff in c.coeffs.items():
            out = out + self.forward[name].scale(coeff)
        return out

    def pull(self, c: ChowClass) -> ChowClass:
        if c.ring is not self.target:
            raise RingMismatch("class does not live in the target ring of this map")
        out = self.source.zero()
        for name, coeff in c.coeffs.items():
            out = out + self.pullback[name].scale(coeff)
        return out

    def then(self, other: "PushForwardMap") -> "PushForwardMap":
        """Compose with a further push-forward applied after this one."""
        if self.target is not other.source:
            raise RingMismatch("maps do not compose: target and source differ")
        forward = {n: other.push(cls) for n, cls in self.forward.items()}
        pullback = {n: self.pull(cls) for n, cls in other.pullback.items()}
        label = f"{self.label}+{other.label}" if self.label and other.label else ""
        return PushForwardMap(self.source, other.target, forward, pullback, label)

    def _validate(self):
        src, tgt = self.source, self.target
        if set(self.forward) != set(src.all_names):
            raise PresentationError("forward map must be given on every source basis element")
        if set(self.pullback) != set(tgt.all_names):
            raise PresentationError("pullback must be given on every target basis element")
        for name, cls in self.forward.items():
            if cls.ring is not tgt:
                raise PresentationError(f"forward image of {name!r} lives in the wrong ring")
            for res, c in cls.coeffs.items():
                if not c.is_constant():
                    raise PresentationError(f"forward image of {name!r} must have constant coefficients")
                if tgt.codim_of[res] != src.codim_of[name]:
                    raise PresentationError(f"forward image of {name!r} violates the grading")
        for name, cls in self.pullback.items():
            if cls.ring is not src:
                raise PresentationError(f"pullback of {name!r} lives in the wrong ring")
            for res, c in cls.coeffs.items():
                if not c.is_constant():
                    raise PresentationError(f"pullback of {name!r} must have constant coefficients")
                if src.codim_of[res] != tgt.codim_of[name]:
                    raise PresentationError(f"pullback of {name!r} violates the grading")
        for name in tgt.all_names:
            if self.push(self.pullback[name]) != tgt.basis_class(name):
                raise PresentationError(
                    f"forward of pullback fails to be the identity on {name!r}"
                )
        for a in tgt.all_names:
            pa = self.pullback[a]
            for b in tgt.all_names:
                if tgt.index_of[a] > tgt.index_of[b]:
                    continue
                left = pa * self.pullback[b]
                right = self.pull(tgt.basis_class(a) * tgt.basis_class(b))
                if left != right:
                    raise PresentationError(
                        f"pullback fails multiplicativity on {a!r}*{b!r}"
                    )
        for b in tgt.all_names:
            pb = self.pullback[b]
            bcls = tgt.basis_class(b)
            for a in src.all_names:
                left = self.push(pb * src.basis_class(a))
                right = bcls * self.forward[a]
                if left != right:
                    raise PresentationError(
                        f"projection formula fails on pull({b!r})*{a!r}"
                    )
        for name in src.basis[src.dim]:
            before = rf(src.degree_values[name])
            after = self.forward[name].degree()
            if before != after:
                raise PresentationError(
                    f"push-forward does not preserve the degree of {name!r}"
                )


def identity_map(ring: ChowRing) -> PushForwardMap:
    ident = {n: ring.basis_class(n) for n in ring.all_names}
    return PushForwardMap(ring, ring, ident, dict(ident), label="id")


class _ClassAlgebra:
    """Full expression algebra over one ring: names are basis elements or m."""

    def __init__(self, ring: ChowRing):
        self.ring = ring

    def const(self, c: Fraction) -> ChowClass:
        return self.ring.one().scale(rf(c))

    def name(self, name: str) -> ChowClass:
        if name == "m" and "m" not in self.ring.codim_of:
            from .exactnum import RF_M

            return self.ring.one().scale(RF_M)
        if name in self.ring.codim_of:
            return self.ring.basis_class(name)
        raise ParseError(f"unknown name {name!r} in class expression")

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def pow(a, k: int):
        return a**k


def parse_class(text: str, ring: ChowRing) -> ChowClass:
    """Parse a class expression whose names are basis elements of the ring."""
    return parse_expression(text, _ClassAlgebra(ring))


def proper_transform(f: PushForwardMap, divisor: ChowClass,
                     center_multiplicity) -> ChowClass:
    """Pull back a divisor class and subtract the center multiplicity on the exceptional."""
    if "exceptional" not in f.meta:
        raise UnsupportedCatalog(
            "proper transform needs a blow-down map with a recorded exceptional class"
        )
    if divisor.ring is not f.target:
        raise RingMismatch("divisor class does not live in the blow-down target")
    if not divisor.is_pure_codim(1):
        raise NotADivisor("proper transform applies to codimension-1 classes only")
    e = f.source.basis_class(f.meta["exceptional"])
    return f.pull(divisor) - e.scale(rf(center_multiplicity))


def degree_of_class(c: ChowClass) -> RationalFunction:
    return c.degree()


# The constructors build on the classes above. They sit in a module of
# their own so that no module is large: without a bytecode cache each
# module is compiled from source, and compiling a large one holds more
# memory at once than compiling it in two halves.
from .catalog import (  # noqa: E402
    ring_blowup_point,
    ring_literal,
    ring_point,
    ring_product,
    ring_projective,
)
