"""Model files: JSON objects validated into the structures they describe.

A model file holds at most one ring (catalog or literal), divisor
components with multiplicities, a stratum selection, Euler
characteristic tables, fibered data and named push-forward chains.

Every field is read through one of the typed readers below: object,
list, name, whole number, exact rational and expression. A field of
the wrong type or range raises an exit-2 error whose message names the
field's JSON path, such as `components[2].mult.a`. Faults inside a
literal ring presentation are PresentationErrors, all others are
SchemaErrors.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .catalog import ring_blowup_point, ring_point, ring_product, ring_projective
from .chow import ChowRing, PushForwardMap, parse_class
from .errors import (
    CelintError,
    DivisionByZero,
    ParseError,
    PresentationError,
    SchemaError,
)
from .exactnum import RF_M, rf
from .exprparse import parse_expression, parse_rf
from .model import (
    Component,
    DegreeConfig,
    FiberedConfig,
    NCConfig,
    StratumSelection,
)

# Validating a ring checks associativity on every triple of basis
# elements, so it costs the cube of the basis size, and each blow-up of
# a point adds dim - 1 basis elements. On a 2-vCPU VM (CPU time,
# Python 3.11), P^63 (64 basis elements) builds in 0.31 s, P^7 x P^7 (64)
# in 0.20 s, 32 blow-ups of P^2 (35) in 0.30 s, and P^10 x P^10 (121)
# in 1.1 s.
MAX_BLOWUPS = 32
MAX_BASIS = 64

_REQUIRED = object()
_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def _at(path: str, key) -> str:
    """The JSON path of a member of the field at path: `path.key` for an
    identifier, `path[3]` for a list index, `path["E1,E3"]` otherwise."""
    if isinstance(key, str) and key.isidentifier():
        return f"{path}.{key}" if path else key
    return f"{path}[{json.dumps(key)}]"


def _fault(value, path: str, kind: str, error=SchemaError, what=None):
    """Raise error: the field at path, or `what` in it, is not of kind."""
    shown = json.dumps(value, default=repr, skipkeys=True)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    if what is not None:
        raise error(f"{what} must be {kind}, got {shown} in field {path}")
    subject = f"field {path}" if path else "the top-level value"
    raise error(f"{subject} must be {kind}, got {shown}")


def read_object(value, path: str, default=_REQUIRED, error=SchemaError) -> dict:
    """A JSON object; null reads as the default, when one is given."""
    if value is None and default is not _REQUIRED:
        return default
    if not isinstance(value, dict):
        _fault(value, path, "an object", error)
    return value


def read_list(value, path: str, error=SchemaError) -> list:
    if not isinstance(value, list):
        _fault(value, path, "a list", error)
    return value


def read_names(value, path: str, error=SchemaError, what=None) -> list:
    """A list of names; with `what`, a bad name's message starts `{what} {name!r}`."""
    return [read_name(x, _at(path, i), error=error,
                      what=None if what is None else f"{what} {x!r}")
            for i, x in enumerate(read_list(value, path, error))]


def read_name(value, path: str, default=_REQUIRED, error=SchemaError,
              what=None) -> str:
    """A nonempty string; null reads as the default, when one is given."""
    if value is None and default is not _REQUIRED:
        return default
    if not isinstance(value, str) or not value:
        kind = "a nonempty string" if isinstance(value, str) else "a string"
        _fault(value, path, kind, error, what)
    return value


def _whole(value):
    """value as an int when it is a JSON integer or a float with no
    fractional part, else None; booleans are not numbers here."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    return value if type(value) is int else None


def read_whole(value, path: str, lo=None, error=SchemaError, what=None) -> int:
    """A whole number, at least lo when lo is given."""
    n = _whole(value)
    if n is None or (lo is not None and n < lo):
        bounds = "" if lo is None else f" >= {lo}"
        _fault(value, path, f"a whole number (an integer{bounds})", error, what)
    return n


def read_rational(value, path: str, error=SchemaError, what=None) -> Fraction:
    """An exact rational: a whole number, or a string "p/q" or "n"."""
    n = _whole(value)
    if n is not None:
        return Fraction(n)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # q = 0, or too many digits
            pass
    _fault(value, path, 'rational (an integer or a "p/q" string)', error, what)


def read_expression(value, path: str, error=SchemaError) -> str:
    """Expression text: a string, or a JSON integer written as its digits."""
    if type(value) is int:
        return str(value)
    if not isinstance(value, str):
        _fault(value, path, "an expression (a string or an integer)", error)
    return value


def read_class(value, path: str, ring: ChowRing):
    """A class expression over ring. Malformed text is a ParseError; text
    that names a value the ring cannot form, such as a quotient by a
    class with no codimension-0 part, is a SchemaError naming the field."""
    text = read_expression(value, path)
    try:
        return parse_class(text, ring)
    except DivisionByZero as exc:
        raise SchemaError(f"field {path} holds an invalid class: {exc}")


def _check_basis_size(size: int, path: str):
    """Reject a ring of more than MAX_BASIS basis elements before it is built."""
    if size > MAX_BASIS:
        raise SchemaError(
            f"field {path} asks for {size} basis elements; "
            f"at most {MAX_BASIS} are allowed"
        )


def _component(name: str, names, path: str) -> str:
    """name, which the field at path gives and which must be a component."""
    if name not in names:
        raise SchemaError(f"field {path} names unknown component {name!r}")
    return name


def _read_key(key: str, names, path: str) -> frozenset:
    """The index set of a table key: component names joined by commas."""
    key = key.strip()
    if not key:
        return frozenset()
    return frozenset(_component(part.strip(), names, path) for part in key.split(","))


def load_mult(value, path: str = ""):
    """Multiplicity from JSON: an expression, or an {"a", "k"} pair
    meaning a*m + k.

    Returns (mult, decomposition); only the pair form records a
    decomposition (a, k).
    """
    if isinstance(value, dict):
        if set(value) != {"a", "k"}:
            _fault(value, path, 'an expression or an object of "a" and "k"')
        a = read_rational(value["a"], _at(path, "a"))
        k = read_rational(value["k"], _at(path, "k"))
        return rf(a) * RF_M + rf(k), (a, k)
    text = read_expression(value, path)
    try:
        return parse_rf(text), None
    except CelintError as exc:
        raise SchemaError(f"field {path} holds an invalid multiplicity: {exc}")


def load_ring(obj, path: str = "", allowed: int = MAX_BLOWUPS):
    """Build a catalog or literal ring; returns (ring, construction maps).

    Construction maps are the blow-down maps of an iterated blow-up,
    listed from the final ring toward the base, so pushing a class
    through them in order lands it on the base. At most `allowed` point
    blow-ups are made in all, counted before the base is loaded, so
    nesting depth is bounded too.
    """
    obj = read_object(obj, path)
    catalog = obj.get("catalog")
    if catalog == "point":
        return ring_point(), []
    if catalog == "projective":
        n = read_whole(obj.get("n"), _at(path, "n"))
        _check_basis_size(n + 1, _at(path, "n"))
        return ring_projective(n), []
    if catalog == "product":
        at = _at(path, "factors")
        factors = read_list(obj.get("factors"), at)
        if len(factors) != 2:
            _fault(factors, at, "a list of two dimensions")
        dims = [read_whole(x, _at(at, i)) for i, x in enumerate(factors)]
        a, b = (max(d, 0) + 1 for d in dims)
        _check_basis_size(a * b, at)
        return ring_product(ring_projective(dims[0]), ring_projective(dims[1])), []
    if catalog == "blowup_point":
        at = _at(path, "count")
        count = read_whole(obj.get("count", 1), at, 1)
        if count > allowed:
            raise SchemaError(
                f"field {at} asks for {count} blow-ups, but only {allowed} "
                f"of the {MAX_BLOWUPS} allowed in all remain"
            )
        base, maps = load_ring(obj.get("base"), _at(path, "base"), allowed - count)
        _check_basis_size(len(base.all_names) + count * max(base.dim - 1, 0), at)
        ring = base
        for _ in range(count):
            ring, blowdown, _ = ring_blowup_point(ring)
            maps = [blowdown] + maps
        return ring, maps
    if catalog == "literal":
        at = _at(path, "presentation")
        spec = read_object(obj.get("presentation"), at)
        _check_basis_size(sum(map(len, _read_basis(spec, at))), _at(at, "basis"))
        return ring_literal(spec, at), []
    _fault(catalog, _at(path, "catalog"),
           "one of point, projective, product, blowup_point and literal")


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


def _parse_lincomb(text: str, fundamental: str) -> dict:
    c, vec = parse_expression(text, _LinCombAlgebra)
    out = dict(vec)
    if c != 0:
        out[fundamental] = out.get(fundamental, Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def _read_basis(spec: dict, path: str) -> list:
    """The basis of a literal presentation: name lists by codimension."""
    at = _at(path, "basis")
    return [read_names(level, _at(at, i), PresentationError, "literal basis name")
            for i, level in enumerate(read_list(spec.get("basis"), at,
                                                PresentationError))]


def ring_literal(spec, path: str = "") -> ChowRing:
    """Build a ring from the literal presentation at path, validating
    every axiom.

    The basis-size bound of model files is checked by load_ring, not
    here, so rings built in code may be larger.
    """
    spec = read_object(spec, path, error=PresentationError)
    dim = read_whole(spec.get("dim"), _at(path, "dim"), 0,
                     error=PresentationError, what="literal ring dim")
    basis = _read_basis(spec, path)
    if len(basis) != dim + 1 or len(basis[0]) != 1:
        raise PresentationError(
            "literal basis must have dim+1 graded pieces with a single codimension-0 element"
        )
    fundamental = basis[0][0]
    index = {name: i for i, name in enumerate(chain.from_iterable(basis))}
    products = {}
    at = _at(path, "products")
    table_obj = read_object(spec.get("products"), at, {}, PresentationError)
    for key, value in table_obj.items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2:
            raise PresentationError(f"product key {key!r} must name two elements")
        a, b = parts
        for x in (a, b):
            if x not in index:
                raise PresentationError(f"product key {key!r} names unknown element {x!r}")
        text = read_expression(value, _at(at, key), PresentationError)
        table = _parse_lincomb(text, fundamental)
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
    at = _at(path, "degree")
    degree = {
        name: read_rational(value, _at(at, name), PresentationError,
                            what=f"degree of {name!r}")
        for name, value in read_object(spec.get("degree"), at, {},
                                       PresentationError).items()
    }
    chern = spec.get("chern")
    if chern is not None:
        at = _at(path, "chern")
        chern = _parse_lincomb(read_expression(chern, at, PresentationError), fundamental)
        for name in chern:
            if name not in index:
                raise PresentationError(f"field {at} names unknown element {name!r}")
    return ChowRing(
        basis=basis,
        products=products,
        degree_values=degree,
        tangent_chern_coeffs=chern,
        point=read_name(spec.get("point"), _at(path, "point"), None,
                        PresentationError),
        kind=("literal",),
    )


def load_selection(obj, names, path: str = "") -> StratumSelection:
    if obj is None:
        return StratumSelection.whole(names)
    known = frozenset(names)
    obj = read_object(obj, path)
    keys = set(obj)
    if keys in ({"whole"}, {"empty"}):
        form = keys.pop()
        if obj[form] is not True:
            _fault(obj[form], _at(path, form), "true")
        return getattr(StratumSelection, form)(names)
    if keys == {"closed"}:
        at = _at(path, "closed")
        closed = read_names(obj["closed"], at)
        if not closed:
            _fault(closed, at, "a nonempty list of names")
        return StratumSelection.from_closed(names, [
            _component(x, known, _at(at, i)) for i, x in enumerate(closed)])
    if keys == {"strata"}:
        at = _at(path, "strata")
        return StratumSelection.from_strata(names, [
            frozenset(_component(x, known, _at(_at(at, i), j))
                      for j, x in enumerate(read_names(stratum, _at(at, i))))
            for i, stratum in enumerate(read_list(obj["strata"], at))
        ])
    _fault(obj, path, "an object with exactly one of whole, empty, closed and strata")


def load_component(obj, ring, path: str = "") -> Component:
    obj = read_object(obj, path)
    name = read_name(obj.get("name"), _at(path, "name"))
    mult, decomposition = load_mult(obj.get("mult"), _at(path, "mult"))
    divisor = None
    if obj.get("class") is not None:
        if ring is None:
            raise SchemaError(
                f"component {name!r} has a class but the model has no ring"
            )
        divisor = read_class(obj["class"], _at(path, "class"), ring)
    elif ring is not None:
        raise SchemaError(f"component {name!r} is missing its class")
    return Component(name, mult, divisor, decomposition)


def _read_images(obj, path: str, ring: ChowRing) -> dict:
    """A forward or pullback table: basis names to class expressions."""
    return {
        name: read_class(text, _at(path, name), ring)
        for name, text in read_object(obj, path, {}).items()
    }


def load_chain(obj, source: ChowRing, construction, path: str = ""):
    """A chain is "construction" or one literal map or a list of either."""
    if obj == "construction":
        if construction is None:
            raise SchemaError("this model's ring has no construction chain")
        return list(construction)
    entries = [obj] if isinstance(obj, dict) else read_list(obj, path)
    maps = []
    current = source
    for i, entry in enumerate(entries):
        at = path if isinstance(obj, dict) else _at(path, i)
        entry = read_object(entry, at)
        target, _ = load_ring(entry.get("target"), _at(at, "target"))
        forward = _read_images(entry.get("forward"), _at(at, "forward"), target)
        pullback = _read_images(entry.get("pullback"), _at(at, "pullback"), current)
        label = read_name(entry.get("label"), _at(at, "label"), "")
        maps.append(PushForwardMap(current, target, forward, pullback, label=label))
        current = target
    return maps


class LoadedModel(namedtuple("LoadedModel", "ring construction components config "
                             "selection degree_data fibered chains raw")):
    """Everything a model file can carry, already validated."""

    __slots__ = ()


def _read_table(obj, path: str) -> dict:
    """An object of exact rationals, such as an Euler characteristic table."""
    return {key: read_rational(value, _at(path, key))
            for key, value in read_object(obj, path).items()}


def load_model(obj) -> LoadedModel:
    """Validate a parsed model file and build every structure it describes."""
    obj = read_object(obj, "")
    ring = None
    construction = None
    if obj.get("ring") is not None:
        ring, construction = load_ring(obj["ring"], "ring")
    components = tuple(
        load_component(c, ring, _at("components", i))
        for i, c in enumerate(read_list(obj.get("components", []), "components"))
    )
    names = tuple(c.name for c in components)
    known = set()
    for i, name in enumerate(names):
        if name in known:
            raise SchemaError(f"field components[{i}].name repeats the component "
                              f"name {name!r}")
        known.add(name)
    config = None if ring is None else NCConfig(ring, components)
    dim = obj.get("dim")
    if dim is not None:
        dim = read_whole(dim, "dim", 0)
    if ring is not None:
        if dim is not None and dim != ring.dim:
            raise SchemaError(
                f"field dim is {dim}, but the ring has dimension {ring.dim}"
            )
        dim = ring.dim
    selection = load_selection(obj.get("selection"), names, "selection")
    mults = {c.name: c.mult for c in components}
    degree_data = None
    if obj.get("chi_closed") is not None:
        table = _read_table(obj["chi_closed"], "chi_closed")
        degree_data = DegreeConfig(
            names,
            mults,
            {_read_key(k, known, _at("chi_closed", k)): v for k, v in table.items()},
            dim=dim,
            decompositions={c.name: c.decomposition for c in components},
        )
    fibered = None
    if obj.get("base_strata") is not None or obj.get("fiber") is not None:
        base = _read_table(obj.get("base_strata"), "base_strata")
        fiber = {}
        for label, row in read_object(obj.get("fiber"), "fiber").items():
            at = _at("fiber", label)
            if label not in base:
                raise SchemaError(f"field {at} names unknown base stratum {label!r}")
            for key, value in _read_table(row, at).items():
                fiber[(label, _read_key(key, known, _at(at, key)))] = value
        fibered = FiberedConfig(names, mults, selection, base, fiber)
    chains = {}
    for label, chain_obj in read_object(obj.get("chains"), "chains", {}).items():
        if ring is None:
            raise SchemaError("chains require a ring")
        chains[label] = load_chain(chain_obj, ring, construction,
                                   _at("chains", label))
    return LoadedModel(
        ring, construction, components, config, selection,
        degree_data, fibered, chains, obj,
    )
