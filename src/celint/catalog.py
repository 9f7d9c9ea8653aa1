"""Catalog ring presentations.

Catalog constructors build the point, projective spaces, binary
products of projective spaces and iterated point blow-ups, with their
tangent Chern classes and blow-down maps. Any other ring enters through
a literal presentation, which `celint.modelfile` reads and validates
exhaustively before use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import add, le

from .chow import ChowRing, PushForwardMap, identity_map
from .errors import PresentationError, UnsupportedCatalog


def _monomial_name(exponents) -> str:
    """h^i on a single factor, h1^i*h2^j on two; [V] for the unit."""
    letters = ("h",) if len(exponents) == 1 else ("h1", "h2")
    parts = [x if e == 1 else f"{x}^{e}" for x, e in zip(letters, exponents) if e]
    return "*".join(parts) or "[V]"


def _projective_product(dims, kind) -> ChowRing:
    """The product of projective spaces of the given dimensions.

    The basis is the monomials in one hyperplane class per factor,
    ordered by codimension and then by descending exponent on the first
    factor; the tangent Chern class is the product of the (1 + h)^(n+1).
    """
    monomials = list(product(*(range(n + 1) for n in dims)))
    order = sorted(monomials, key=lambda e: (sum(e), [-x for x in e]))
    position = {e: k for k, e in enumerate(order)}
    name = {e: _monomial_name(e) for e in monomials}
    basis = [[] for _ in range(sum(dims) + 1)]
    for e in order:
        basis[sum(e)].append(name[e])
    products = {}
    for e1 in monomials[1:]:
        for e2 in monomials[1:]:
            e = tuple(map(add, e1, e2))
            if position[e1] <= position[e2] and all(map(le, e, dims)):
                products[(name[e1], name[e2])] = {name[e]: Fraction(1)}
    chern = {name[e]: Fraction(prod(map(comb, (n + 1 for n in dims), e)))
             for e in monomials}
    point = name[tuple(dims)]
    return ChowRing(
        basis=basis,
        products=products,
        degree_values={point: Fraction(1)},
        tangent_chern_coeffs=chern,
        point=point,
        kind=kind,
    )


def ring_point() -> ChowRing:
    return _projective_product((0,), ("projective", 0))


def ring_projective(n: int) -> ChowRing:
    """Projective space of dimension n; n = 0 is the point ring."""
    if n < 0:
        raise UnsupportedCatalog("projective space needs dimension >= 0")
    return _projective_product((n,), ("projective", n))


def ring_product(r1: ChowRing, r2: ChowRing) -> ChowRing:
    """Product of two projective spaces from the catalog."""
    for r in (r1, r2):
        if r.kind[0] != "projective":
            raise UnsupportedCatalog(
                "ring products are supported for projective factors only"
            )
    return _projective_product((r1.dim, r2.dim), ("product", (r1.dim, r2.dim)))


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
