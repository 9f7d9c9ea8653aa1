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
that the denominator and the numerators share no factor. Its sums and
scalings stay in ints, and its products, inverses, push-forwards and
pullbacks each run as one pass over unreduced int numerators, reduced
once at the end. Only a class with an m-dependent coefficient holds
RationalFunctions. A constant factor or scalar meets it as Fractions,
which scale its numerators with no gcd, so Q(m) gcds run only in sums
and in products of two such classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    MissingTangentClass,
    ParseError,
    PresentationError,
    RingMismatch,
)
from .exactnum import (
    RF_M,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    as_fraction,
    cleared,
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
        "blown_up",
        "table",
    )

    def __init__(self, basis, products, degree_values, tangent_chern_coeffs,
                 point, kind):
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
        """Ints and Fractions go to the integer form with no RationalFunction."""
        for name in coeffs:
            if name not in ring.codim_of:
                raise RingMismatch(f"{name!r} is not a basis element of this ring")
        if all(type(c) in (int, Fraction) for c in coeffs.values()):
            den, ints = cleared(coeffs.values())
            _set_ints(self, ring, den, {n: v for n, v in zip(coeffs, ints) if v})
        else:
            _fill(self, ring, {n: rf(c) for n, c in coeffs.items()})

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
        self = object.__new__(cls)
        _set_ints(self, ring, den, ints)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ChowClass is immutable")

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as RationalFunctions, by basis name."""
        if self._coeffs is None:
            constant = RationalFunction.constant
            _set(self, "_coeffs", {n: constant(q) for n, q in self._values().items()})
        return self._coeffs

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
        """c times this class: in ints when both are constant, else with
        any constant side as a Fraction on the left, which
        `RationalFunction.__rmul__` takes with no gcd."""
        c = _scalar(c)
        if c == 0:
            return self.ring.zero()
        if type(c) is not Fraction:
            return ChowClass._make(self.ring, {n: x * c for n, x in self._values().items()})
        if self._ints is None:
            return ChowClass._make(self.ring, {n: c * v for n, v in self._coeffs.items()})
        k = c.numerator
        return ChowClass._from_ints(
            self.ring, self._den * c.denominator, {n: v * k for n, v in self._ints.items()})

    def _values(self) -> dict:
        """The nonzero coefficients: Fractions for an integer form."""
        if self._ints is None:
            return self._coeffs
        d = self._den
        return {n: Fraction(v, d) for n, v in self._ints.items()}

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        """Product in the ring, in one loop over the ring's `table`.

        Two classes in integer form multiply in Python ints, with the
        common factors removed once at the end. Any other pair
        multiplies its coefficients in Q(m) and divides by the table's
        denominator once at the end; a factor in integer form enters as
        Fractions on the left (the table is symmetric), so its products
        take `RationalFunction.__rmul__` and run no gcd.
        """
        self._check_ring(other)
        d, rows = self.ring.table
        if self._ints is not None and other._ints is not None:
            out = _table_times(rows, self._ints, other._ints, {})
            return ChowClass._from_ints(
                self.ring, self._den * other._den * d,
                {n: v for n, v in out.items() if v})
        x, y = (other, self) if other._ints is not None else (self, other)
        out = _table_times(rows, x._values(), y._coeffs, {})
        if d != 1:
            inv = Fraction(1, d)
            out = {n: inv * v for n, v in out.items()}
        return ChowClass._make(self.ring, out)

    def times_one_plus(self, factors) -> "ChowClass":
        """This class, in integer form, times the product of 1 + (p/q)*x
        over the (p, q, x) in factors, with p and q nonzero ints and x a
        class in integer form.

        With x = X/e, each factor is (q*e + p*X)/(q*e). Its integer
        numerator multiplies the running one over the ring's `table`, as
        in `__mul__`, and its denominator joins a running int; the
        result is normalized once, at the end.
        """
        d, rows = self.ring.table
        den, ints = self._den, self._ints
        for p, q, x in factors:
            scale = q * x._den * d
            xs = x._ints if p == 1 else {b: p * w for b, w in x._ints.items()}
            ints = _table_times(rows, ints, xs, {n: v * scale for n, v in ints.items()})
            den *= scale
        sign = -1 if den < 0 else 1
        return ChowClass._from_ints(
            self.ring, sign * den, {n: sign * v for n, v in ints.items() if v})

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

    def positive_part(self) -> "ChowClass":
        return self._select(lambda k: k > 0)

    def inverse(self) -> "ChowClass":
        """Inverse of a class whose codimension-0 part c0 is nonzero.

        With u = -(positive part)/c0 the inverse is (1/c0) * sum u^k;
        u is nilpotent, so the series terminates after dim steps.

        In integer form (n0 + N)/D, with d the table's denominator, the
        raw powers W_0 = 1 and W_k = W_(k-1)*(-N) over the table give
        u^k = W_k/(n0*d)^k, so the inverse is D * sum W_k*(n0*d)^(dim-k)
        over n0*(n0*d)^dim, reduced once.
        """
        fundamental = self.ring.fundamental
        coeffs = self._coeffs if self._ints is None else self._ints
        if fundamental not in coeffs:
            raise DivisionByZero(
                "cannot invert a class with zero codimension-0 part"
            )
        if self._ints is not None:
            n0 = self._ints[fundamental]
            d, rows = self.ring.table
            step, dim = n0 * d, self.ring.dim
            minus = {n: -v for n, v in self._ints.items() if n != fundamental}
            scale = top = step ** dim
            total = {fundamental: scale}
            power = {n: v * d for n, v in minus.items()}
            # W_k holds names of codimension k or more, so W_(dim+1) = 0
            while any(power.values()):
                scale //= step
                for n, v in power.items():
                    total[n] = total.get(n, 0) + v * scale
                power = _table_times(rows, power, minus, {})
            den = n0 * top
            sign = self._den if den > 0 else -self._den
            return ChowClass._from_ints(
                self.ring, abs(den), {n: sign * v for n, v in total.items() if v})
        inv_c0 = _scalar(RF_ONE / self._coeffs[fundamental])
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


def _set_ints(self: ChowClass, ring: ChowRing, den: int, ints: dict):
    """Set the slots of a new class in integer form, as `_from_ints` says."""
    if den != 1:
        g = gcd(den, *ints.values())
        if g != 1:
            den //= g
            ints = {n: v // g for n, v in ints.items()}
    _set(self, "ring", ring)
    _set(self, "_den", den)
    _set(self, "_ints", ints)
    _set(self, "_coeffs", None)


def _fill(self: ChowClass, ring: ChowRing, values: dict):
    """Set the slots of a new class from RationalFunction coefficients,
    in integer form when every nonzero coefficient is a constant."""
    clean = {n: c for n, c in values.items() if not c.is_zero()}
    _set(self, "ring", ring)
    _set(self, "_coeffs", clean)
    if all(map(RationalFunction.is_constant, clean.values())):
        den, ints = cleared([c.as_fraction() for c in clean.values()])
        _set(self, "_den", den)
        _set(self, "_ints", dict(zip(clean, ints)))
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


def _table_times(rows: dict, xs: dict, ys: dict, out: dict) -> dict:
    """out plus the numerators, over the table's d, of the product of the
    combinations xs and ys (by basis name) read off the table's rows."""
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
    return out


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

    __slots__ = ("source", "target", "forward", "pullback", "label")

    def __init__(self, source, target, forward, pullback, label=""):
        self.source = source
        self.target = target
        self.forward = dict(forward)
        self.pullback = dict(pullback)
        self.label = label
        self._validate()

    def push(self, c: ChowClass) -> ChowClass:
        if c.ring is not self.source:
            raise RingMismatch("class does not live in the source ring of this map")
        return _image(self.target, self.forward, c)

    def pull(self, c: ChowClass) -> ChowClass:
        if c.ring is not self.target:
            raise RingMismatch("class does not live in the target ring of this map")
        return _image(self.source, self.pullback, c)

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
    """The sum over the basis names of c of its coefficient times images[name].
    The images are constant (`PushForwardMap._validate` checks that first),
    so a class in integer form maps in one integer pass: with L the lcm of
    the images' denominators e_n, sum v_n*(L/e_n)*images[n] over c._den*L."""
    if c._ints is None:
        return sum((images[n].scale(v) for n, v in c._coeffs.items()), ring.zero())
    common = lcm(*(images[n]._den for n in c._ints))
    out = {}
    for name, v in c._ints.items():
        image = images[name]
        k = v * (common // image._den)
        for n, w in image._ints.items():
            out[n] = out.get(n, 0) + k * w
    return ChowClass._from_ints(
        ring, c._den * common, {n: v for n, v in out.items() if v})


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


# The constructors build on the classes above. They sit in a module of
# their own so that no module is large: without a bytecode cache each
# module is compiled from source, and compiling a large one holds more
# memory at once than compiling it in two halves. Callers import them
# from `celint.catalog`; this name is kept here only because the
# benchmark traces `celint.chow.ring_blowup_point`.
from .catalog import ring_blowup_point  # noqa: E402,F401
