"""Catalog and literal ring presentations.

Catalog constructors build the point, projective spaces, binary
products of projective spaces and iterated point blow-ups, with their
tangent Chern classes and blow-down maps. Any other ring enters through
a literal presentation, validated exhaustively before use.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .chow import ChowRing, PushForwardMap, identity_map
from .errors import ParseError, PresentationError, UnsupportedCatalog
from .exprparse import parse_expression



def ring_point() -> ChowRing:
    return ChowRing(
        dim=0,
        basis=[["[V]"]],
        products={},
        degree_values={"[V]": Fraction(1)},
        tangent_chern_coeffs={"[V]": Fraction(1)},
        point="[V]",
        kind=("projective", 0),
    )


def _proj_name(i: int) -> str:
    if i == 0:
        return "[V]"
    return "h" if i == 1 else f"h^{i}"


def ring_projective(n: int) -> ChowRing:
    """Projective space of dimension n; n = 0 is the point ring."""
    if n < 0:
        raise UnsupportedCatalog("projective space needs dimension >= 0")
    if n == 0:
        return ring_point()
    basis = [[_proj_name(i)] for i in range(n + 1)]
    products = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i + j <= n:
                products[(_proj_name(i), _proj_name(j))] = {
                    _proj_name(i + j): Fraction(1)
                }
    chern = {_proj_name(k): Fraction(comb(n + 1, k)) for k in range(n + 1)}
    return ChowRing(
        dim=n,
        basis=basis,
        products=products,
        degree_values={_proj_name(n): Fraction(1)},
        tangent_chern_coeffs=chern,
        point=_proj_name(n),
        kind=("projective", n),
    )


def _product_name(i: int, j: int) -> str:
    parts = []
    if i > 0:
        parts.append("h1" if i == 1 else f"h1^{i}")
    if j > 0:
        parts.append("h2" if j == 1 else f"h2^{j}")
    return "*".join(parts) if parts else "[V]"


def ring_product(r1: ChowRing, r2: ChowRing) -> ChowRing:
    """Product of two projective spaces from the catalog."""
    for r in (r1, r2):
        if r.kind[0] != "projective":
            raise UnsupportedCatalog(
                "ring products are supported for projective factors only"
            )
    a, b = r1.dim, r2.dim
    basis = []
    for c in range(a + b + 2 - 1):
        level = []
        for i in range(min(c, a), max(0, c - b) - 1, -1):
            level.append(_product_name(i, c - i))
        basis.append(level)
    products = {}
    index = {}
    for codim, level in enumerate(basis):
        for name in level:
            index[name] = len(index)
    pairs = [(i, j) for i in range(a + 1) for j in range(b + 1) if i + j > 0]
    for i1, j1 in pairs:
        for i2, j2 in pairs:
            n1, n2 = _product_name(i1, j1), _product_name(i2, j2)
            if index[n1] > index[n2]:
                continue
            if i1 + i2 <= a and j1 + j2 <= b:
                products[(n1, n2)] = {
                    _product_name(i1 + i2, j1 + j2): Fraction(1)
                }
    chern = {}
    for i in range(a + 1):
        for j in range(b + 1):
            chern[_product_name(i, j)] = Fraction(comb(a + 1, i) * comb(b + 1, j))
    top = _product_name(a, b)
    return ChowRing(
        dim=a + b,
        basis=basis,
        products=products,
        degree_values={top: Fraction(1)},
        tangent_chern_coeffs=chern,
        point=top,
        kind=("product", (a, b)),
    )


def _epower_name(e: str, k: int) -> str:
    return e if k == 1 else f"{e}^{k}"


def ring_blowup_point(base: ChowRing):
    """Blow up the designated point class of a catalog or literal ring.

    Returns (new ring, blow-down push-forward, exceptional divisor
    class). Every positive-codimension pulled-back class is orthogonal
    to the exceptional powers, which is what makes iterated and
    infinitely-near centers work with the same presentation; the top
    power of the exceptional collapses onto the point class.

    The first call builds and validates the triple and keeps it on
    base; later calls on the same ring object return that same triple.
    A call that raises keeps nothing, so it raises again next time.
    """
    if base.blown_up is None:
        base.blown_up = _blowup_point(base)
    return base.blown_up


def _blowup_point(base: ChowRing):
    if base.point is None:
        raise UnsupportedCatalog("blow-up needs a ring with a designated point class")
    n = base.dim
    if n == 0:
        raise UnsupportedCatalog("cannot blow up a point of a zero-dimensional ring")
    if n == 1:
        m = identity_map(base)
        return base, m, base.basis_class(base.point)
    depth = base.meta.get("blowup_depth", 0) + 1
    e = f"e{depth}"
    if e in base.codim_of:
        raise PresentationError(f"name {e!r} already used in the base ring")
    basis = [list(level) for level in base.basis]
    for k in range(1, n):
        basis[k].append(_epower_name(e, k))
    products = dict(base.products)
    sign = Fraction((-1) ** (n - 1))
    for i in range(1, n):
        for j in range(i, n):
            key = (_epower_name(e, i), _epower_name(e, j))
            if i + j < n:
                products[key] = {_epower_name(e, i + j): Fraction(1)}
            elif i + j == n:
                products[key] = {base.point: sign}
    chern = None
    if base.tangent_chern is not None:
        chern = {
            name: c.as_fraction() for name, c in base.tangent_chern.coeffs.items()
        }
        for k in range(1, n + 1):
            coeff = Fraction((-1) ** (k - 1) * (comb(n, k - 1) - comb(n, k)))
            if coeff == 0:
                continue
            if k < n:
                name = _epower_name(e, k)
                chern[name] = chern.get(name, Fraction(0)) + coeff
            else:
                chern[base.point] = chern.get(base.point, Fraction(0)) + coeff * sign
    ring = ChowRing(
        dim=n,
        basis=basis,
        products=products,
        degree_values=dict(base.degree_values),
        tangent_chern_coeffs=chern,
        point=base.point,
        kind=("blowup",) + base.kind,
        meta={"blowup_depth": depth},
    )
    forward = {}
    for name in base.all_names:
        forward[name] = base.basis_class(name)
    for k in range(1, n):
        forward[_epower_name(e, k)] = base.zero()
    pullback = {name: ring.basis_class(name) for name in base.all_names}
    blowdown = PushForwardMap(
        ring, base, forward, pullback,
        label=f"blowdown_{e}",
        meta={"exceptional": e},
    )
    return ring, blowdown, ring.basis_class(e)


class _LinCombAlgebra:
    """Expression values for literal ring data: constant + linear basis part."""

    @staticmethod
    def const(c: Fraction):
        return (c, {})

    @staticmethod
    def name(name: str):
        return (Fraction(0), {name: Fraction(1)})

    @staticmethod
    def add(a, b):
        ca, va = a
        cb, vb = b
        out = dict(va)
        for k, v in vb.items():
            out[k] = out.get(k, Fraction(0)) + v
        return (ca + cb, {k: v for k, v in out.items() if v != 0})

    @staticmethod
    def sub(a, b):
        return _LinCombAlgebra.add(a, _LinCombAlgebra.neg(b))

    @staticmethod
    def neg(a):
        c, v = a
        return (-c, {k: -x for k, x in v.items()})

    @staticmethod
    def mul(a, b):
        ca, va = a
        cb, vb = b
        if va and vb:
            raise ParseError(
                "literal ring data must be linear in the basis names"
            )
        if va:
            return (ca * cb, {k: v * cb for k, v in va.items() if v * cb != 0})
        return (ca * cb, {k: v * ca for k, v in vb.items() if v * ca != 0})

    @staticmethod
    def div(a, b):
        cb, vb = b
        if vb or cb == 0:
            raise ParseError("literal ring data may divide by nonzero constants only")
        ca, va = a
        return (ca / cb, {k: v / cb for k, v in va.items()})

    @staticmethod
    def pow(a, k: int):
        c, v = a
        if v:
            if k == 1:
                return a
            raise ParseError("literal ring data cannot raise basis names to powers")
        if k < 0 and c == 0:
            raise ParseError("zero to a negative power in literal ring data")
        return (c**k, {})


def _parse_lincomb(text: str, fundamental: str | None) -> dict:
    c, vec = parse_expression(text, _LinCombAlgebra)
    out = dict(vec)
    if c != 0:
        if fundamental is None:
            raise ParseError("constant term is not allowed here")
        out[fundamental] = out.get(fundamental, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def ring_literal(spec: dict) -> ChowRing:
    """Build a ring from a literal JSON presentation, validating every axiom."""
    if not isinstance(spec, dict):
        raise PresentationError("literal ring presentation must be an object")
    try:
        dim = int(spec["dim"])
        basis = spec["basis"]
    except KeyError as exc:
        raise PresentationError(f"literal ring is missing valid dim/basis: {exc}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise PresentationError(f"literal ring dim must be a whole number: {exc}")
    if not isinstance(basis, list) or not all(isinstance(level, list) for level in basis):
        raise PresentationError("literal basis must be a list of lists by codimension")
    for level in basis:
        for name in level:
            if not isinstance(name, str):
                raise PresentationError(f"literal basis name {name!r} must be a string")
    if len(basis) != dim + 1 or not basis or len(basis[0]) != 1:
        raise PresentationError(
            "literal basis must have dim+1 graded pieces with a single codimension-0 element"
        )
    fundamental = basis[0][0]
    known = {name for level in basis for name in level}
    index = {}
    for level in basis:
        for name in level:
            index[name] = len(index)
    products = {}
    for key, value in (spec.get("products") or {}).items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2:
            raise PresentationError(f"product key {key!r} must name two elements")
        a, b = parts
        for x in (a, b):
            if x not in known:
                raise PresentationError(f"product key {key!r} names unknown element {x!r}")
        table = _parse_lincomb(str(value), fundamental) if value != 0 else {}
        for name in table:
            if name not in known:
                raise PresentationError(
                    f"product {key!r} result names unknown element {name!r}"
                )
        if fundamental in (a, b):
            other = b if a == fundamental else a
            if table != {other: Fraction(1)}:
                raise PresentationError(f"product {key!r} breaks the unit law")
            continue
        if index[a] > index[b]:
            a, b = b, a
        if (a, b) in products and products[(a, b)] != table:
            raise PresentationError(
                f"products {a},{b} and {b},{a} disagree: commutativity fails"
            )
        products[(a, b)] = table
    degree = {}
    for name, value in (spec.get("degree") or {}).items():
        try:
            degree[name] = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError):
            raise PresentationError(f"degree of {name!r} must be rational")
    chern = None
    if spec.get("chern") is not None:
        chern = _parse_lincomb(str(spec["chern"]), fundamental)
    point = spec.get("point")
    return ChowRing(
        dim=dim,
        basis=basis,
        products=products,
        degree_values=degree,
        tangent_chern_coeffs=chern,
        point=point,
        kind=("literal",),
    )
