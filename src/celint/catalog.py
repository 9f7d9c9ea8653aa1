"""Catalog and literal ring presentations.

Catalog constructors build the point, projective spaces, binary
products of projective spaces and iterated point blow-ups, with their
tangent Chern classes and blow-down maps. Any other ring enters through
a literal presentation, which `celint.modelfile` reads and validates
exhaustively before use.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .chow import ChowRing, PushForwardMap, identity_map
from .errors import PresentationError, UnsupportedCatalog


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


def ring_literal(spec: dict) -> ChowRing:
    """Build a ring from a literal JSON presentation, validating every axiom.

    `celint.modelfile` owns the file format and reads the presentation;
    it builds on this module, so it is imported at call time."""
    from .modelfile import ring_literal as read_literal

    return read_literal(spec)
