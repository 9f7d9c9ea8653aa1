"""Resolution data: divisor configurations, stratum selections, transports.

A configuration is a list of labeled divisor components on a ring, each
with a multiplicity in Q(m). A stratum selection names the index sets
I whose open strata E_I participate in an integral. Both kinds of data
can be rewritten under a point blow-up without changing any invariant;
the transports here implement that rewriting at class level and, for
surfaces, at the level of Euler characteristic tables alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .chow import (
    ChowClass,
    ChowRing,
    PushForwardMap,
    parse_class,
    ring_blowup_point,
    ring_literal,
    ring_point,
    ring_product,
    ring_projective,
)
from .errors import (
    NormalCrossingViolation,
    NotADivisor,
    PreconditionViolated,
    RegimeWarning,
    SchemaError,
    UndefinedMultiplicity,
    UniverseMismatch,
)
from .exactnum import RF_M, RationalFunction, as_fraction, rf
from .exprparse import parse_rf


@dataclass(frozen=True)
class Component:
    """One labeled normal-crossing divisor component.

    divisor is None for configurations that carry no ring (degree or
    fibered data). decomposition, when present, records mult as
    a*m + k with both parts rational constants.
    """

    name: str
    mult: RationalFunction
    divisor: ChowClass | None = None
    decomposition: tuple[Fraction, Fraction] | None = None


def _check_mult(name: str, mult: RationalFunction):
    if (rf(1) + mult).is_zero():
        raise UndefinedMultiplicity(
            f"component {name!r} has multiplicity identically -1"
        )


def _check_decomposition(name, mult, decomposition):
    if decomposition is None:
        return
    a, k = decomposition
    if mult != rf(a) * RF_M + rf(k):
        raise SchemaError(
            f"component {name!r} multiplicity disagrees with its decomposition"
        )


def _outside_log_terminal(mult: RationalFunction) -> bool:
    return mult.is_constant() and mult.as_fraction() <= -1


class NCConfig:
    """Divisor components with multiplicities on one ring."""

    __slots__ = ("ring", "components", "by_name", "names", "_log_chern")

    def __init__(self, ring: ChowRing, components):
        self.ring = ring
        self.components = tuple(components)
        self._log_chern = None
        self.by_name = {}
        for comp in self.components:
            if comp.name in self.by_name:
                raise SchemaError(f"duplicate component name {comp.name!r}")
            if comp.divisor is None:
                raise NotADivisor(f"component {comp.name!r} carries no divisor class")
            if comp.divisor.ring is not ring:
                raise NotADivisor(
                    f"component {comp.name!r} lives in a different ring"
                )
            if not comp.divisor.is_pure_codim(1):
                raise NotADivisor(
                    f"component {comp.name!r} is not a pure codimension-1 class"
                )
            for c in comp.divisor.coeffs.values():
                if not c.is_constant():
                    raise NotADivisor(
                        f"component {comp.name!r} must have constant coefficients"
                    )
            _check_mult(comp.name, comp.mult)
            _check_decomposition(comp.name, comp.mult, comp.decomposition)
            self.by_name[comp.name] = comp
        self.names = tuple(c.name for c in self.components)

    def mult_of(self, name: str) -> RationalFunction:
        return self.by_name[name].mult

    def divisor_of(self, name: str) -> ChowClass:
        return self.by_name[name].divisor

    def outside_log_terminal(self) -> bool:
        return any(_outside_log_terminal(c.mult) for c in self.components)

    def warn_if_outside(self):
        if self.outside_log_terminal():
            warnings.warn(
                "a component has constant multiplicity <= -1; values are formal",
                RegimeWarning,
                stacklevel=3,
            )

    def total_divisor_class(self) -> ChowClass:
        out = self.ring.zero()
        for comp in self.components:
            out = out + comp.divisor.scale(comp.mult)
        return out


def _all_subsets(names):
    items = tuple(names)
    return frozenset(
        frozenset(c) for c in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    )


class StratumSelection:
    """A set of index sets over a fixed universe of component names.

    A selection is kept in one canonical kind: "whole" (every index
    set), "closed" (the index sets meeting a nonempty core L) or
    "explicit" (a listed set of index sets). An explicit list equal to a
    whole or closed selection is stored as that kind, so equality,
    hashing and describe() see one form per set of strata. The strata
    of a whole or closed selection are built only when asked for.
    """

    __slots__ = ("universe", "kind", "core", "_names", "_strata")

    def __init__(self, universe, strata=(), kind="explicit", core=()):
        self.universe = tuple(universe)
        useen = set()
        for name in self.universe:
            if name in useen:
                raise SchemaError(f"duplicate name {name!r} in selection universe")
            useen.add(name)
        self._names = uset = frozenset(self.universe)
        self.core = frozenset(core)
        self._strata = None
        if kind == "explicit":
            clean = set()
            for s in strata:
                s = frozenset(s)
                if not s <= uset:
                    raise SchemaError(
                        f"selection stratum {sorted(s)} leaves the universe"
                    )
                clean.add(s)
            self._strata = frozenset(clean)
            kind, self.core = _classify(len(uset), self._strata)
        elif kind == "closed":
            if not self.core <= uset:
                raise SchemaError("closed-set names must lie in the universe")
            if not self.core:
                kind, self._strata = "explicit", frozenset()
        elif kind != "whole":
            raise ValueError(f"unknown selection kind {kind!r}")
        self.kind = kind

    @property
    def strata(self) -> frozenset:
        """Every selected index set, built on first use and then kept."""
        if self._strata is None:
            subsets = _all_subsets(self.universe)
            if self.kind == "closed":
                subsets = frozenset(s for s in subsets if s & self.core)
            self._strata = subsets
        return self._strata

    def __contains__(self, index) -> bool:
        index = frozenset(index)
        if not index <= self._names:
            return False
        if self.kind == "whole":
            return True
        if self.kind == "closed":
            return bool(index & self.core)
        return index in self._strata

    @classmethod
    def whole(cls, universe) -> "StratumSelection":
        return cls(universe, kind="whole")

    @classmethod
    def empty(cls, universe) -> "StratumSelection":
        return cls(universe, ())

    @classmethod
    def from_closed(cls, universe, closed_names) -> "StratumSelection":
        return cls(universe, kind="closed", core=closed_names)

    @classmethod
    def from_strata(cls, universe, strata) -> "StratumSelection":
        return cls(universe, strata)

    def _check(self, other: "StratumSelection"):
        if self._names != other._names:
            raise UniverseMismatch("selections have different component universes")

    def union(self, other: "StratumSelection") -> "StratumSelection":
        self._check(other)
        return StratumSelection(self.universe, self.strata | other.strata)

    def intersect(self, other: "StratumSelection") -> "StratumSelection":
        self._check(other)
        return StratumSelection(self.universe, self.strata & other.strata)

    def difference(self, other: "StratumSelection") -> "StratumSelection":
        self._check(other)
        return StratumSelection(self.universe, self.strata - other.strata)

    def complement(self) -> "StratumSelection":
        return StratumSelection(
            self.universe, _all_subsets(self.universe) - self.strata
        )

    def is_whole(self) -> bool:
        return self.kind == "whole"

    def is_empty(self) -> bool:
        return self.kind == "explicit" and not self._strata

    def closed_core(self):
        """Return L when this selection is exactly fromClosed(L), else None."""
        return self.core if self.kind == "closed" else None

    def _key(self):
        return (self._names, self.kind, self.core,
                self._strata if self.kind == "explicit" else None)

    def __eq__(self, other):
        return isinstance(other, StratumSelection) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def describe(self) -> str:
        if self.is_whole():
            return "whole"
        if self.is_empty():
            return "empty"
        core = self.closed_core()
        if core is not None:
            return "closed: " + ",".join(sorted(core))
        parts = []
        for s in sorted(self.strata, key=lambda s: (len(s), tuple(sorted(s)))):
            parts.append("{" + ",".join(sorted(s)) + "}")
        return "strata: " + "; ".join(parts)


def _classify(count: int, strata: frozenset):
    """The (kind, core) of an explicit list of distinct index sets over a
    universe of count names, decided by counting: a list of 2^c sets is
    every set, and a list of 2^c - 2^(c-|L|) sets that all meet L, the
    names listed as singletons, is every set meeting L."""
    if len(strata) == 1 << count:
        return "whole", frozenset()
    core = frozenset(x for s in strata if len(s) == 1 for x in s)
    if (core and len(strata) == (1 << count) - (1 << (count - len(core)))
            and all(s & core for s in strata)):
        return "closed", core
    return "explicit", frozenset()


def stratum_sum(selection: StratumSelection, mults: dict,
                terms) -> RationalFunction:
    """Sum of c * prod_{i in I} 1/(1+m_i) over the (I, c) in terms whose
    index set I the selection holds; terms name each index set once."""
    total = rf(0)
    for index, c in terms:
        if c == 0 or index not in selection:
            continue
        weight = rf(c)
        for name in index:
            weight = weight / (rf(1) + mults[name])
        total = total + weight
    return total


def chi_open(chi_closed: dict, index: frozenset) -> Fraction:
    """Euler characteristic of the open stratum, from the closed table.

    Absent keys are zero; the alternating sum runs over table keys that
    contain the index set.
    """
    index = frozenset(index)
    total = Fraction(0)
    for key, value in chi_closed.items():
        if index <= key:
            total += Fraction(-1) ** (len(key) - len(index)) * value
    return total


def chi_closed_from_open(chi_open_table: dict, index: frozenset) -> Fraction:
    index = frozenset(index)
    total = Fraction(0)
    for key, value in chi_open_table.items():
        if index <= key:
            total += value
    return total


class DegreeConfig:
    """Multiplicity and Euler characteristic data with no ring attached."""

    __slots__ = ("names", "mults", "decompositions", "chi_closed", "dim")

    def __init__(self, names, mults, chi_closed, dim=None, decompositions=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise SchemaError("duplicate component names")
        self.mults = dict(mults)
        if set(self.mults) != set(self.names):
            raise SchemaError("multiplicity table must cover exactly the components")
        for name, mult in self.mults.items():
            _check_mult(name, mult)
        self.decompositions = dict(decompositions or {})
        for name, dec in list(self.decompositions.items()):
            if dec is None:
                del self.decompositions[name]
                continue
            if name not in self.mults:
                raise SchemaError(f"decomposition for unknown component {name!r}")
            _check_decomposition(name, self.mults[name], dec)
        table = {}
        nameset = frozenset(self.names)
        for key, value in chi_closed.items():
            key = frozenset(key)
            if not key <= nameset:
                raise SchemaError(
                    f"Euler table key {sorted(key)} names unknown components"
                )
            table[key] = as_fraction(value)
        if frozenset() not in table:
            raise SchemaError("Euler table must include the empty key for the whole space")
        self.chi_closed = table
        self.dim = dim

    def chi_of_open(self, index) -> Fraction:
        return chi_open(self.chi_closed, frozenset(index))

    def outside_log_terminal(self) -> bool:
        return any(_outside_log_terminal(m) for m in self.mults.values())

    def warn_if_outside(self):
        if self.outside_log_terminal():
            warnings.warn(
                "a component has constant multiplicity <= -1; values are formal",
                RegimeWarning,
                stacklevel=3,
            )


class FiberedConfig:
    """Stratified base with per-stratum fiber Euler characteristics.

    base_strata maps a stratum label to its Euler characteristic; fiber
    maps (label, index set) to the Euler characteristic of the part of
    the fiber sitting on the open stratum E_I.
    """

    __slots__ = ("names", "mults", "selection", "base_strata", "fiber")

    def __init__(self, names, mults, selection, base_strata, fiber):
        self.names = tuple(names)
        self.mults = dict(mults)
        if set(self.mults) != set(self.names):
            raise SchemaError("multiplicity table must cover exactly the components")
        for name, mult in self.mults.items():
            _check_mult(name, mult)
        if frozenset(selection.universe) != frozenset(self.names):
            raise UniverseMismatch("selection universe differs from the components")
        self.selection = selection
        self.base_strata = {str(k): as_fraction(v) for k, v in base_strata.items()}
        nameset = frozenset(self.names)
        self.fiber = {}
        for (label, index), value in fiber.items():
            index = frozenset(index)
            if label not in self.base_strata:
                raise SchemaError(f"fiber entry names unknown stratum {label!r}")
            if not index <= nameset:
                raise SchemaError(
                    f"fiber entry at {label!r} names unknown components {sorted(index)}"
                )
            self.fiber[(label, index)] = as_fraction(value)

    def value_at(self, label: str,
                 selection: StratumSelection = None) -> RationalFunction:
        """The weighted fiber sum at one stratum, over the stored
        selection unless another one (on the same universe) is given."""
        if label not in self.base_strata:
            raise SchemaError(f"unknown stratum {label!r}")
        return stratum_sum(
            self.selection if selection is None else selection,
            self.mults,
            ((index, c) for (lab, index), c in self.fiber.items() if lab == label),
        )

    def values(self) -> dict:
        return {label: self.value_at(label) for label in self.base_strata}

    def total(self) -> RationalFunction:
        """Pairing against the base Euler characteristics."""
        total = rf(0)
        for label, chi in self.base_strata.items():
            total = total + rf(chi) * self.value_at(label)
        return total


@dataclass(frozen=True)
class BlowupStep:
    """Blow up a point lying on exactly the named components."""

    contains: frozenset
    new_name: str


def _transport_selection(selection: StratumSelection, contains: frozenset,
                         new_name: str) -> StratumSelection:
    universe = tuple(selection.universe) + (new_name,)
    strata = set(selection.strata)
    if frozenset(contains) in selection.strata:
        old = tuple(selection.universe)
        for s in _all_subsets(old):
            strata.add(s | {new_name})
    return StratumSelection(universe, strata)


def _check_step(step: BlowupStep, names, dim):
    if not step.contains <= frozenset(names):
        raise SchemaError("blow-up step names unknown components")
    if step.new_name in names:
        raise SchemaError(f"new component name {step.new_name!r} already in use")
    if dim is not None and len(step.contains) > dim:
        raise NormalCrossingViolation(
            f"{len(step.contains)} components through one point exceed the dimension"
        )


def _transport_decomposition(decomps: dict, contains, dim: int):
    parts = [decomps.get(name) for name in contains]
    if any(p is None for p in parts):
        return None
    a = sum((p[0] for p in parts), Fraction(0))
    k = sum((p[1] for p in parts), Fraction(dim - 1))
    return (a, k)


def blowup_transport(config: NCConfig, selection: StratumSelection,
                     step: BlowupStep):
    """Rewrite a configuration and selection under a point blow-up.

    Returns (new config, new selection, blow-down map). Contained
    components become proper transforms; the rest pull back; the new
    component is the exceptional divisor with multiplicity
    (dim - 1) + sum of the contained multiplicities.
    """
    ring = config.ring
    _check_step(step, config.names, ring.dim)
    if frozenset(selection.universe) != frozenset(config.names):
        raise UniverseMismatch("selection universe differs from the configuration")
    upstairs, blowdown, exceptional = ring_blowup_point(ring)
    new_components = []
    mult0 = rf(ring.dim - 1)
    decomps = {c.name: c.decomposition for c in config.components}
    for comp in config.components:
        pulled = blowdown.pull(comp.divisor)
        if comp.name in step.contains:
            pulled = pulled - exceptional
            mult0 = mult0 + comp.mult
        new_components.append(
            Component(comp.name, comp.mult, pulled, comp.decomposition)
        )
    new_components.append(Component(
        step.new_name, mult0, exceptional,
        _transport_decomposition(decomps, step.contains, ring.dim),
    ))
    new_config = NCConfig(upstairs, new_components)
    new_selection = _transport_selection(selection, step.contains, step.new_name)
    return new_config, new_selection, blowdown


def blowup_transport_degree(config: DegreeConfig, selection: StratumSelection,
                            step: BlowupStep):
    """Surface-level transport acting on the Euler table alone."""
    if config.dim != 2:
        raise PreconditionViolated(
            "Euler-table transport is defined for surfaces (dim 2)"
        )
    _check_step(step, config.names, 2)
    if frozenset(selection.universe) != frozenset(config.names):
        raise UniverseMismatch("selection universe differs from the configuration")
    new = step.new_name
    mult0 = rf(1)
    for name in step.contains:
        mult0 = mult0 + config.mults[name]
    mults = dict(config.mults)
    mults[new] = mult0
    table = dict(config.chi_closed)
    table[frozenset()] = table[frozenset()] + 1
    table[frozenset({new})] = Fraction(2)
    for name in step.contains:
        table[frozenset({new, name})] = Fraction(1)
    if len(step.contains) == 2:
        key = frozenset(step.contains)
        table[key] = table.get(key, Fraction(0)) - 1
    decomps = dict(config.decompositions)
    d0 = _transport_decomposition(decomps, step.contains, 2)
    if d0 is not None:
        decomps[new] = d0
    new_config = DegreeConfig(
        tuple(config.names) + (new,), mults, table, dim=2, decompositions=decomps
    )
    new_selection = _transport_selection(selection, step.contains, new)
    return new_config, new_selection


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


def load_ring(obj):
    """Build a catalog or literal ring; returns (ring, construction maps).

    Construction maps are the blow-down maps of an iterated blow-up,
    listed from the final ring toward the base, so pushing a class
    through them in order lands it on the base.
    """
    if not isinstance(obj, dict):
        raise SchemaError("ring description must be an object")
    catalog = obj.get("catalog")
    if catalog == "point":
        return ring_point(), []
    if catalog == "projective":
        try:
            n = int(obj["n"])
        except (KeyError, TypeError, ValueError):
            raise SchemaError("projective ring needs an integer field n")
        return ring_projective(n), []
    if catalog == "product":
        factors = obj.get("factors")
        if (not isinstance(factors, list)) or len(factors) != 2:
            raise SchemaError("product ring needs a two-element factors list")
        try:
            dims = [int(x) for x in factors]
        except (TypeError, ValueError):
            raise SchemaError("product factors must be integers")
        return ring_product(ring_projective(dims[0]), ring_projective(dims[1])), []
    if catalog == "blowup_point":
        base_obj = obj.get("base")
        if base_obj is None:
            raise SchemaError("blow-up ring needs a base ring")
        base, maps = load_ring(base_obj)
        count = obj.get("count", 1)
        try:
            count = int(count)
        except (TypeError, ValueError):
            raise SchemaError("blow-up count must be an integer")
        if count < 1:
            raise SchemaError("blow-up count must be positive")
        ring = base
        for _ in range(count):
            ring, blowdown, _ = ring_blowup_point(ring)
            maps = [blowdown] + maps
        return ring, maps
    if catalog == "literal":
        presentation = obj.get("presentation")
        if presentation is None:
            raise SchemaError("literal ring needs a presentation object")
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
