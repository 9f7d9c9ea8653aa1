"""Finite presentations of Chow rings, classes, and proper push-forwards.

A ring here is a graded basis with rational structure constants, a
degree map on the top graded piece, and optionally a total tangent
Chern class and a designated point class. Catalog constructors cover
projective spaces, binary products of projective spaces, and iterated
point blow-ups; anything else enters through a literal presentation
that is validated exhaustively before use. The constructors live in
`celint.catalog`.

Class coefficients live in Q(m), so one class value can carry a whole
family of computations; evaluation at a rational m specializes it. A
class whose coefficients all lie in Q, the common case, is held as one
vector of Python ints over a positive common denominator, reduced so
that the denominator and the numerators share no factor; its sums,
scalings, products and inverses stay in ints. Only a class with an
m-dependent coefficient holds RationalFunctions, and it takes the Q(m)
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    RF_M,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    as_fraction,
    join_terms,
    power,
    rf,
)
from .exprparse import Operators, parse_expression

_set = object.__setattr__


class ChowRing:
    """Graded basis presentation with rational structure constants.

    Instances compare by identity; two rings built from the same data
    are still distinct carriers, and classes never cross between them.
    `blown_up` holds the result of `ring_blowup_point` on this ring once
    it has been built.

    `table` holds the structure constants over one common denominator,
    built once with the ring: it is (d, rows), where rows[a][b] holds
    the pairs (name, k) with a*b = sum of (k/d)*name, for each pair of
    basis names whose product is nonzero, the unit law included. d is
    the lcm of the denominators of the structure constants, 1 for
    catalog rings. Validation and every class product read it.
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
        "table",
    )

    def __init__(self, basis, products, degree_values, tangent_chern_coeffs,
                 point, kind, meta=None):
        self.basis = tuple(tuple(level) for level in basis)
        self.dim = len(self.basis) - 1
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
        if not self.basis or len(self.basis[0]) != 1:
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
        self.tangent_chern = None
        self._validate()
        if tangent_chern_coeffs is not None:
            self.tangent_chern = ChowClass(self, tangent_chern_coeffs)
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
        self.table = self._structure_table()
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
        rows = self.table[1]
        nonunit = [n for n in self.all_names if n != self.fundamental]
        for a in nonunit:
            row = rows[a]
            for b in nonunit:
                ab = row.get(b, ())
                row_b = rows[b]
                for c in nonunit:
                    bc = row_b.get(c, ())
                    if (ab or bc) and _times(rows, ab, c) != _times(rows, bc, a):
                        raise PresentationError(
                            f"associativity fails on ({a}*{b})*{c}"
                        )

    def _structure_table(self):
        """The (d, rows) of `table`; the unit law overrides any product
        listed for the fundamental class, and zero constants are left out."""
        d = lcm(*(f.denominator for t in self.products.values() for f in t.values()))
        rows = {a: {} for a in self.all_names}
        for (a, b), t in self.products.items():
            entries = tuple(
                (name, f.numerator * (d // f.denominator)) for name, f in t.items() if f)
            if entries:
                rows[a][b] = rows[b][a] = entries
        unit = self.fundamental
        for a in self.all_names:
            rows[unit][a] = rows[a][unit] = ((a, d),)
        return d, rows

    def _validate_chern(self):
        chern = self.tangent_chern
        if not chern.is_constant():
            name = next(n for n, c in chern.coeffs.items() if not c.is_constant())
            raise PresentationError(
                f"tangent Chern coefficient on {name!r} must be constant"
            )
        if chern.coefficient(self.fundamental) != RF_ONE:
            raise PresentationError(
                "tangent Chern class must have codimension-0 part 1"
            )

    def zero(self) -> "ChowClass":
        return ChowClass._from_ints(self, 1, {})

    def one(self) -> "ChowClass":
        return ChowClass._from_ints(self, 1, {self.fundamental: 1})

    def basis_class(self, name: str) -> "ChowClass":
        if name not in self.codim_of:
            raise RingMismatch(f"{name!r} is not a basis element of this ring")
        return ChowClass._from_ints(self, 1, {name: 1})

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
    """Linear combination of basis elements with coefficients in Q(m).

    A class whose coefficients all lie in Q is held in integer form: a
    denominator `_den` > 0 and a dict `_ints` of nonzero int numerators
    by basis name, with gcd(_den, *_ints.values()) = 1, so the
    coefficient on a name is _ints[name]/_den. Any other class holds its
    nonzero coefficients as RationalFunctions in `_coeffs`, and `_den`
    and `_ints` are None. Each value has exactly one such form, so `==`
    and `hash` compare forms directly. `coeffs` is the RationalFunction
    view of either form, built on first read for an integer form.
    """

    __slots__ = ("ring", "_den", "_ints", "_coeffs")

    def __init__(self, ring: ChowRing, coeffs: dict):
        values = {}
        for name, c in coeffs.items():
            if name not in ring.codim_of:
                raise RingMismatch(f"{name!r} is not a basis element of this ring")
            values[name] = rf(c)
        _fill(self, ring, values)

    @classmethod
    def _make(cls, ring: ChowRing, coeffs: dict) -> "ChowClass":
        """Trusted constructor: names are basis names of ring and values
        RationalFunctions; zero coefficients are dropped."""
        self = object.__new__(cls)
        _fill(self, ring, coeffs)
        return self

    @classmethod
    def _from_ints(cls, ring: ChowRing, den: int, ints: dict) -> "ChowClass":
        """Trusted constructor of the integer form: den > 0 and ints maps
        basis names of ring to nonzero ints; common factors are removed."""
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {n: v // g for n, v in ints.items()}
        self = object.__new__(cls)
        _set(self, "ring", ring)
        _set(self, "_den", den)
        _set(self, "_ints", ints)
        _set(self, "_coeffs", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ChowClass is immutable")

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as RationalFunctions, by basis name."""
        if self._coeffs is None:
            d = self._den
            constant = RationalFunction.constant
            _set(self, "_coeffs", {
                n: constant(Fraction(v, d)) for n, v in self._ints.items()
            })
        return self._coeffs

    def fractions(self) -> dict:
        """The nonzero coefficients of a constant class as Fractions, by
        basis name, read from the integer form."""
        d = self._den
        return {n: Fraction(v, d) for n, v in self._ints.items()}

    def _check_ring(self, other: "ChowClass"):
        if self.ring is not other.ring:
            raise RingMismatch("classes live in different rings")

    def coefficient(self, name: str) -> RationalFunction:
        return self.coeffs.get(name, RF_ZERO)

    def is_constant(self) -> bool:
        """True when no coefficient depends on m."""
        return self._ints is not None

    def is_zero(self) -> bool:
        return self._ints is not None and not self._ints

    def __eq__(self, other):
        if not isinstance(other, ChowClass) or self.ring is not other.ring:
            return False
        if self._ints is not None:
            return self._den == other._den and self._ints == other._ints
        return other._ints is None and self._coeffs == other._coeffs

    def __hash__(self):
        if self._ints is not None:
            key = (self._den, frozenset(self._ints.items()))
        else:
            key = frozenset(self._coeffs.items())
        return hash((id(self.ring), key))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check_ring(other)
        if self._ints is not None and other._ints is not None:
            return _sum_ints(self, other)
        out = dict(self.coeffs)
        for name, c in other.coeffs.items():
            prev = out.get(name)
            out[name] = c if prev is None else prev + c
        return ChowClass._make(self.ring, out)

    def __neg__(self) -> "ChowClass":
        if self._ints is not None:
            return ChowClass._from_ints(
                self.ring, self._den, {n: -v for n, v in self._ints.items()})
        return ChowClass._make(self.ring, {n: -c for n, c in self._coeffs.items()})

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def scale(self, c) -> "ChowClass":
        c = _scalar(c)
        if c == 0:
            return self.ring.zero()
        if self._ints is not None and type(c) is Fraction:
            k = c.numerator
            return ChowClass._from_ints(
                self.ring, self._den * c.denominator,
                {n: v * k for n, v in self._ints.items()})
        c = rf(c)
        return ChowClass._make(self.ring, {n: v * c for n, v in self.coeffs.items()})

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        """Product in the ring, in one loop over the ring's `table`.

        Two classes in integer form multiply in Python ints, with the
        common factors removed once at the end. Any other pair
        multiplies its Q(m) coefficients and divides by the table's
        denominator once at the end.
        """
        self._check_ring(other)
        xs, ys = self._ints, other._ints
        ints = xs is not None and ys is not None
        if not ints:
            xs, ys = self.coeffs, other.coeffs
        d, rows = self.ring.table
        out = {}
        for a, xa in xs.items():
            row = rows[a]
            for b, yb in ys.items():
                entries = row.get(b)
                if entries:
                    xy = xa * yb
                    for name, k in entries:
                        term = xy if k == 1 else k * xy
                        prev = out.get(name)
                        out[name] = term if prev is None else prev + term
        if ints:
            return ChowClass._from_ints(
                self.ring, self._den * other._den * d,
                {n: v for n, v in out.items() if v})
        if d != 1:
            inv = Fraction(1, d)
            out = {n: inv * v for n, v in out.items()}
        return ChowClass._make(self.ring, out)

    def __pow__(self, k: int) -> "ChowClass":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, self.ring.one())

    def _select(self, keep) -> "ChowClass":
        """The part of this class on the basis names whose codimension
        satisfies keep."""
        codim_of = self.ring.codim_of
        if self._ints is not None:
            return ChowClass._from_ints(self.ring, self._den, {
                n: v for n, v in self._ints.items() if keep(codim_of[n])})
        return ChowClass._make(self.ring, {
            n: c for n, c in self._coeffs.items() if keep(codim_of[n])})

    def graded_piece(self, codim: int) -> "ChowClass":
        return self._select(lambda k: k == codim)

    def positive_part(self) -> "ChowClass":
        return self._select(lambda k: k > 0)

    def inverse(self) -> "ChowClass":
        """Inverse of a class whose codimension-0 part c0 is nonzero.

        With u = -(positive part)/c0 the inverse is (1/c0) * sum u^k;
        u is nilpotent, so the series terminates after dim steps.
        """
        fundamental = self.ring.fundamental
        if self._ints is not None:
            n0 = self._ints.get(fundamental)
            inv_c0 = None if n0 is None else Fraction(self._den, n0)
        else:
            c0 = self._coeffs.get(fundamental)
            inv_c0 = None if c0 is None else _scalar(RF_ONE / c0)
        if inv_c0 is None:
            raise DivisionByZero(
                "cannot invert a class with zero codimension-0 part"
            )
        unit = inv_c0 == 1
        u = -self.positive_part()
        if not unit:
            u = u.scale(inv_c0)
        result = power = self.ring.one()
        for _ in range(self.ring.dim):
            power = power * u
            if power.is_zero():
                break
            result = result + power
        return result if unit else result.scale(inv_c0)

    def __truediv__(self, other: "ChowClass") -> "ChowClass":
        self._check_ring(other)
        return self * other.inverse()

    def degree(self) -> RationalFunction:
        ring = self.ring
        if self._ints is not None:
            total = sum(
                (v * ring.degree_values[n] for n, v in self._ints.items()
                 if ring.codim_of[n] == ring.dim), Fraction(0))
            return RationalFunction.constant(total / self._den)
        total = RF_ZERO
        for name, c in self._coeffs.items():
            if ring.codim_of[name] == ring.dim:
                total = total + c * rf(ring.degree_values[name])
        return total

    def evaluate(self, x) -> "ChowClass":
        if self._ints is not None:
            return self
        return ChowClass(self.ring, {
            n: c.evaluate(x) for n, c in self._coeffs.items()
        })

    def is_pure_codim(self, codim: int) -> bool:
        names = self._ints if self._ints is not None else self._coeffs
        return all(self.ring.codim_of[n] == codim for n in names)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        names = self.ring.all_names
        if self._ints is not None:
            ints, d = self._ints, self._den
            pieces = [_render_ratio(ints[n], d, n) for n in names if n in ints]
        else:
            coeffs = self._coeffs
            pieces = [_render_term(coeffs[n], n) for n in names if n in coeffs]
        return join_terms(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"ChowClass({self.render()!r})"


def _fill(self: ChowClass, ring: ChowRing, values: dict):
    """Set the slots of a new class from RationalFunction coefficients,
    in integer form when every nonzero coefficient is a constant."""
    clean = {n: c for n, c in values.items() if not c.is_zero()}
    _set(self, "ring", ring)
    _set(self, "_coeffs", clean)
    if all(map(RationalFunction.is_constant, clean.values())):
        fracs = {n: c.as_fraction() for n, c in clean.items()}
        den = lcm(*(q.denominator for q in fracs.values()))
        _set(self, "_den", den)
        _set(self, "_ints", {
            n: q.numerator * (den // q.denominator) for n, q in fracs.items()})
    else:
        _set(self, "_den", None)
        _set(self, "_ints", None)


def _times(rows: dict, entries, c: str) -> dict:
    """The nonzero numerators, over the table's d^2, of the product with
    c of the combination sum of k*name over entries."""
    out = {}
    for name, k in entries:
        for res, kc in rows[name].get(c, ()):
            out[res] = out.get(res, 0) + k * kc
    return {n: v for n, v in out.items() if v}


def _sum_ints(x: ChowClass, y: ChowClass) -> ChowClass:
    """x + y for two classes in integer form."""
    den = x._den if x._den == y._den else lcm(x._den, y._den)
    sx, sy = den // x._den, den // y._den
    out = dict(x._ints) if sx == 1 else {n: v * sx for n, v in x._ints.items()}
    for name, v in y._ints.items():
        total = out.get(name, 0) + v * sy
        if total:
            out[name] = total
        else:
            del out[name]
    return ChowClass._from_ints(x.ring, den, out)


def _scalar(c):
    """c as a Fraction when it is a constant of Q(m), else as a
    RationalFunction."""
    if isinstance(c, (int, Fraction)):
        return as_fraction(c)
    c = rf(c)
    return c.as_fraction() if c.is_constant() else c


def _render_term(c: RationalFunction, name: str):
    """Return (negated, body) for the coefficient c on name, so callers
    can join terms with signs."""
    if c.is_constant():
        q = c.as_fraction()
        return _render_ratio(q.numerator, q.denominator, name)
    neg = c.sign() < 0
    s = (-c if neg else c).render()
    if c.is_sum():
        s = f"({s})"
    return neg, f"{s}*{name}"


def _render_ratio(n: int, d: int, name: str):
    """`_render_term` for the constant coefficient n/d, with d > 0."""
    g = gcd(n, d)
    a, d = abs(n) // g, d // g
    if d != 1:
        return n < 0, f"({a}/{d})*{name}"
    return n < 0, name if a == 1 else f"{a}*{name}"


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
        return _image(self.target, self.forward, c)

    def pull(self, c: ChowClass) -> ChowClass:
        if c.ring is not self.target:
            raise RingMismatch("class does not live in the target ring of this map")
        return _image(self.source, self.pullback, c)

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
            if not cls.is_constant():
                raise PresentationError(f"forward image of {name!r} must have constant coefficients")
            if not cls.is_pure_codim(src.codim_of[name]):
                raise PresentationError(f"forward image of {name!r} violates the grading")
        for name, cls in self.pullback.items():
            if cls.ring is not src:
                raise PresentationError(f"pullback of {name!r} lives in the wrong ring")
            if not cls.is_constant():
                raise PresentationError(f"pullback of {name!r} must have constant coefficients")
            if not cls.is_pure_codim(tgt.codim_of[name]):
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


def _image(ring: ChowRing, images: dict, c: ChowClass) -> ChowClass:
    """The sum over the basis names of c of its coefficient times images[name]."""
    terms, d = (c._ints, c._den) if c.is_constant() else (c._coeffs, 1)
    out = ring.zero()
    for name, coeff in terms.items():
        out = out + images[name].scale(coeff)
    return out if d == 1 else out.scale(Fraction(1, d))


def identity_map(ring: ChowRing) -> PushForwardMap:
    ident = {n: ring.basis_class(n) for n in ring.all_names}
    return PushForwardMap(ring, ring, ident, dict(ident), label="id")


class _ClassAlgebra(Operators):
    """Full expression algebra over one ring: names are basis elements or m."""

    def __init__(self, ring: ChowRing):
        self.ring = ring

    def const(self, c: Fraction) -> ChowClass:
        return self.ring.one().scale(c)

    def name(self, name: str) -> ChowClass:
        if name == "m" and "m" not in self.ring.codim_of:
            return self.ring.one().scale(RF_M)
        if name in self.ring.codim_of:
            return self.ring.basis_class(name)
        raise ParseError(f"unknown name {name!r} in class expression")


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


# The constructors build on the classes above. They sit in a module of
# their own so that no module is large: without a bytecode cache each
# module is compiled from source, and compiling a large one holds more
# memory at once than compiling it in two halves. Callers import them
# from `celint.catalog`; this name is kept here only because the
# benchmark traces `celint.chow.ring_blowup_point`.
from .catalog import ring_blowup_point  # noqa: E402,F401
