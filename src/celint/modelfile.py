"""Model files: JSON objects validated into the structures they describe.

A model file holds at most one ring (catalog or literal), divisor
components with multiplicities, a stratum selection, Euler
characteristic tables, fibered data and named push-forward chains.
"""

from __future__ import annotations

from .chow import (
    ChowRing,
    PushForwardMap,
    parse_class,
    ring_blowup_point,
    ring_literal,
    ring_point,
    ring_product,
    ring_projective,
)
from .errors import SchemaError
from .exactnum import RF_M, as_fraction, rf
from .exprparse import parse_rf
from .model import (
    Component,
    DegreeConfig,
    FiberedConfig,
    NCConfig,
    StratumSelection,
)

# Validating a ring checks associativity on every triple of basis
# elements, so it costs the cube of the basis size, and each blow-up of
# a point adds dim - 1 basis elements. On a 2-vCPU VM, P^63 (64 basis
# elements) builds in 0.9 s, P^7 x P^7 (64) in 0.34 s, 32 blow-ups of
# P^2 (35) in 0.45 s, and P^10 x P^10 (121) in 4.1 s.
MAX_BLOWUPS = 32
MAX_BASIS = 64


def _check_basis_size(size: int, field: str):
    """Reject a ring of more than MAX_BASIS basis elements before it is built."""
    if size > MAX_BASIS:
        raise SchemaError(
            f"ring field {field} asks for {size} basis elements; "
            f"at most {MAX_BASIS} are allowed"
        )


def _key_to_index(key: str) -> frozenset:
    key = key.strip()
    if not key:
        return frozenset()
    return frozenset(part.strip() for part in key.split(","))


def load_mult(value):
    """Multiplicity from JSON: a number, an a/k pair, or an expression string.

    Returns (mult, decomposition); only the pair form records a
    decomposition mult = a*m + k.
    """
    if isinstance(value, bool):
        raise SchemaError("multiplicity cannot be a boolean")
    if isinstance(value, (int, float, str)) and not isinstance(value, str):
        try:
            return rf(as_fraction(value)), None
        except (TypeError, ValueError):
            raise SchemaError(f"invalid multiplicity {value!r}")
    if isinstance(value, str):
        try:
            return parse_rf(value), None
        except Exception as exc:
            raise SchemaError(f"invalid multiplicity expression {value!r}: {exc}")
    if isinstance(value, dict) and set(value) == {"a", "k"}:
        try:
            a = as_fraction(value["a"])
            k = as_fraction(value["k"])
        except (TypeError, ValueError):
            raise SchemaError(f"invalid multiplicity pair {value!r}")
        return rf(a) * RF_M + rf(k), (a, k)
    raise SchemaError(f"invalid multiplicity {value!r}")


def _blowup_count(value, allowed: int) -> int:
    """The count field of a blow-up ring: a whole number from 1 to allowed."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or (count != value and not isinstance(value, str)):
        raise SchemaError(f"blow-up field count must be a whole number, got {value!r}")
    if not 1 <= count <= allowed:
        raise SchemaError(
            f"blow-up field count must be from 1 to {allowed} "
            f"({MAX_BLOWUPS} blow-ups in all), got {count}"
        )
    return count


def load_ring(obj):
    """Build a catalog or literal ring; returns (ring, construction maps).

    Construction maps are the blow-down maps of an iterated blow-up,
    listed from the final ring toward the base, so pushing a class
    through them in order lands it on the base.
    """
    return _load_ring(obj, MAX_BLOWUPS)


def _load_ring(obj, allowed: int):
    """load_ring with at most `allowed` point blow-ups in all, counted
    before the base is loaded, so nesting depth is bounded too."""
    if not isinstance(obj, dict):
        raise SchemaError("ring description must be an object")
    catalog = obj.get("catalog")
    if catalog == "point":
        return ring_point(), []
    if catalog == "projective":
        try:
            n = int(obj["n"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise SchemaError("projective ring needs an integer field n")
        _check_basis_size(n + 1, "n")
        return ring_projective(n), []
    if catalog == "product":
        factors = obj.get("factors")
        if (not isinstance(factors, list)) or len(factors) != 2:
            raise SchemaError("product ring needs a two-element factors list")
        try:
            dims = [int(x) for x in factors]
        except (TypeError, ValueError, OverflowError):
            raise SchemaError("product factors must be integers")
        a, b = (max(d, 0) + 1 for d in dims)
        _check_basis_size(a * b, "factors")
        return ring_product(ring_projective(dims[0]), ring_projective(dims[1])), []
    if catalog == "blowup_point":
        base_obj = obj.get("base")
        if base_obj is None:
            raise SchemaError("blow-up ring needs a base ring")
        count = _blowup_count(obj.get("count", 1), allowed)
        base, maps = _load_ring(base_obj, allowed - count)
        _check_basis_size(
            len(base.all_names) + count * max(base.dim - 1, 0), "count"
        )
        ring = base
        for _ in range(count):
            ring, blowdown, _ = ring_blowup_point(ring)
            maps = [blowdown] + maps
        return ring, maps
    if catalog == "literal":
        presentation = obj.get("presentation")
        if presentation is None:
            raise SchemaError("literal ring needs a presentation object")
        basis = presentation.get("basis") if isinstance(presentation, dict) else None
        if isinstance(basis, list):
            _check_basis_size(
                sum(len(level) for level in basis if isinstance(level, list)),
                "presentation.basis",
            )
        return ring_literal(presentation), []
    raise SchemaError(f"unknown ring catalog {catalog!r}")


def load_selection(obj, names) -> StratumSelection:
    if obj is None:
        return StratumSelection.whole(names)
    if not isinstance(obj, dict):
        raise SchemaError("selection must be an object")
    keys = set(obj)
    if keys == {"whole"}:
        if obj["whole"] is not True:
            raise SchemaError("selection field whole must be true")
        return StratumSelection.whole(names)
    if keys == {"empty"}:
        if obj["empty"] is not True:
            raise SchemaError("selection field empty must be true")
        return StratumSelection.empty(names)
    if keys == {"closed"}:
        closed = obj["closed"]
        if not isinstance(closed, list):
            raise SchemaError("selection field closed must be a list of names")
        return StratumSelection.from_closed(names, closed)
    if keys == {"strata"}:
        strata = obj["strata"]
        if not isinstance(strata, list) or not all(isinstance(s, list) for s in strata):
            raise SchemaError("selection field strata must be a list of name lists")
        return StratumSelection.from_strata(names, [frozenset(s) for s in strata])
    raise SchemaError(f"unknown selection form {sorted(keys)}")


def load_component(obj, ring) -> Component:
    if not isinstance(obj, dict) or "name" not in obj or "mult" not in obj:
        raise SchemaError("component needs name and mult fields")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("component name must be a nonempty string")
    mult, decomposition = load_mult(obj["mult"])
    divisor = None
    if "class" in obj and obj["class"] is not None:
        if ring is None:
            raise SchemaError(
                f"component {name!r} has a class but the model has no ring"
            )
        divisor = parse_class(str(obj["class"]), ring)
    elif ring is not None:
        raise SchemaError(f"component {name!r} is missing its class")
    return Component(name, mult, divisor, decomposition)


def load_chain(obj, source: ChowRing, construction):
    """A chain is "construction" or one literal map or a list of either."""
    if obj == "construction":
        if construction is None:
            raise SchemaError("this model's ring has no construction chain")
        return list(construction)
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise SchemaError("chain must be \"construction\", a map object, or a list")
    maps = []
    current = source
    for entry in obj:
        if entry == "construction":
            raise SchemaError("\"construction\" cannot be mixed into a literal chain")
        if not isinstance(entry, dict):
            raise SchemaError("chain entries must be map objects")
        target_obj = entry.get("target")
        if target_obj is None:
            raise SchemaError("chain map needs a target ring")
        target, _ = load_ring(target_obj)
        forward_obj = entry.get("forward") or {}
        pullback_obj = entry.get("pullback") or {}
        forward = {
            name: parse_class(str(text), target)
            for name, text in forward_obj.items()
        }
        pullback = {
            name: parse_class(str(text), current)
            for name, text in pullback_obj.items()
        }
        maps.append(PushForwardMap(current, target, forward, pullback,
                                   label=entry.get("label", "")))
        current = target
    return maps


class LoadedModel:
    """Everything a model file can carry, already validated."""

    __slots__ = (
        "ring", "construction", "components", "config", "selection",
        "degree_data", "fibered", "chains", "raw",
    )

    def __init__(self, ring, construction, components, config, selection,
                 degree_data, fibered, chains, raw):
        self.ring = ring
        self.construction = construction
        self.components = components
        self.config = config
        self.selection = selection
        self.degree_data = degree_data
        self.fibered = fibered
        self.chains = chains
        self.raw = raw


def load_model(obj) -> LoadedModel:
    """Validate a parsed model file and build every structure it describes."""
    if not isinstance(obj, dict):
        raise SchemaError("model file must hold a JSON object")
    ring = None
    construction = None
    if obj.get("ring") is not None:
        ring, construction = load_ring(obj["ring"])
    components_obj = obj.get("components", [])
    if not isinstance(components_obj, list):
        raise SchemaError("components must be a list")
    components = tuple(load_component(c, ring) for c in components_obj)
    names = tuple(c.name for c in components)
    if len(set(names)) != len(names):
        raise SchemaError("duplicate component name in model")
    config = None
    if ring is not None:
        config = NCConfig(ring, components)
    selection = load_selection(obj.get("selection"), names)
    degree_data = None
    if obj.get("chi_closed") is not None:
        chi_obj = obj["chi_closed"]
        if not isinstance(chi_obj, dict):
            raise SchemaError("chi_closed must be an object")
        table = {_key_to_index(k): v for k, v in chi_obj.items()}
        dim = ring.dim if ring is not None else obj.get("dim")
        decomps = {
            c.name: c.decomposition for c in components
            if c.decomposition is not None
        }
        degree_data = DegreeConfig(
            names,
            {c.name: c.mult for c in components},
            table,
            dim=dim,
            decompositions=decomps,
        )
    fibered = None
    if obj.get("base_strata") is not None or obj.get("fiber") is not None:
        base_obj = obj.get("base_strata")
        fiber_obj = obj.get("fiber")
        if not isinstance(base_obj, dict) or not isinstance(fiber_obj, dict):
            raise SchemaError("fibered data needs base_strata and fiber objects")
        fiber = {}
        for label, row in fiber_obj.items():
            if not isinstance(row, dict):
                raise SchemaError(f"fiber row for {label!r} must be an object")
            for key, value in row.items():
                fiber[(label, _key_to_index(key))] = value
        fibered = FiberedConfig(
            names,
            {c.name: c.mult for c in components},
            selection,
            base_obj,
            fiber,
        )
    chains = {}
    chains_obj = obj.get("chains") or {}
    if not isinstance(chains_obj, dict):
        raise SchemaError("chains must be an object of named chains")
    for label, chain_obj in chains_obj.items():
        if ring is None:
            raise SchemaError("chains require a ring")
        chains[label] = load_chain(chain_obj, ring, construction)
    return LoadedModel(
        ring, construction, components, config, selection,
        degree_data, fibered, chains, obj,
    )
