"""Resolution data: divisor configurations, stratum selections, transports.

A configuration is a list of labeled divisor components with
multiplicities in Q(m): on a ring (`NCConfig`), with an Euler
characteristic table of closed strata (`DegreeConfig`, read through
`chi_open`), or with fiber Euler characteristics over a stratified base
(`FiberedConfig`). A stratum selection names the index sets I whose
open strata E_I participate in an integral. Both kinds of data can be
rewritten under a point blow-up without changing any invariant; the
transports here implement that rewriting at class level and, for
surfaces, at the level of Euler characteristic tables alone. The
module holds data and its validation only: the integrals are computed
in `celint.celestial` and `celint.exactnum`, and model files are read
by `celint.modelfile`.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from fractions import Fraction
from itertools import chain, combinations

from .catalog import ring_blowup_point
from .chow import ChowClass, ChowRing
from .errors import (
    NormalCrossingViolation,
    NotADivisor,
    PreconditionViolated,
    RegimeWarning,
    SchemaError,
    UndefinedMultiplicity,
    UniverseMismatch,
)
from .exactnum import RationalFunction, as_fraction, rf


class Component(namedtuple(
        "Component", "name mult divisor decomposition", defaults=(None, None))):
    """One labeled normal-crossing divisor component.

    mult is a RationalFunction. divisor (a ChowClass) is None for
    configurations that carry no ring (degree or fibered data).
    decomposition, when present, records mult as a*m + k with both
    parts rational constants, as the pair (a, k).
    """

    __slots__ = ()


def _check_mult(name: str, mult: RationalFunction) -> bool:
    """Reject a multiplicity identically -1; return whether it is a
    constant below -1, outside the log-terminal range."""
    # values are canonical, so a multiplicity identically -1 is a constant
    if not mult.is_constant():
        return False
    value = mult.as_fraction()
    if value == -1:
        raise UndefinedMultiplicity(
            f"component {name!r} has multiplicity identically -1"
        )
    return value < -1


def _mult_table(names, mults) -> tuple:
    """mults as a dict, checked to cover exactly names and to hold no
    multiplicity identically -1, and whether one lies below -1."""
    table = dict(mults)
    if set(table) != set(names):
        raise SchemaError("multiplicity table must cover exactly the components")
    outside = False
    for name, mult in table.items():
        outside |= _check_mult(name, mult)
    return table, outside


def _check_decomposition(name, mult, decomposition):
    """Check mult against a*m + k, whose canonical form is the numerator
    (k, a) without trailing zeros over the denominator 1."""
    if decomposition is None:
        return
    a, k = decomposition
    want = (k, a) if a else (k,) if k else ()
    if mult.den.coeffs != (1,) or mult.num.coeffs != want:
        raise SchemaError(
            f"component {name!r} multiplicity disagrees with its decomposition"
        )


def _warn_if_outside(config):
    """The `warn_if_outside` method of NCConfig and DegreeConfig. The
    warning points at the code that called the integral which called
    this method."""
    if config._outside:
        warnings.warn(
            "a component has constant multiplicity <= -1; values are formal",
            RegimeWarning,
            stacklevel=3,
        )


class NCConfig:
    """Divisor components with multiplicities on one ring."""

    __slots__ = ("ring", "components", "by_name", "names", "mults", "_log_chern",
                 "_outside")

    def __init__(self, ring: ChowRing, components):
        self.ring = ring
        self.components = tuple(components)
        self._log_chern = None
        self._outside = False
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
            if not comp.divisor.is_constant():
                raise NotADivisor(
                    f"component {comp.name!r} must have constant coefficients"
                )
            self._outside |= _check_mult(comp.name, comp.mult)
            _check_decomposition(comp.name, comp.mult, comp.decomposition)
            self.by_name[comp.name] = comp
        self.names = tuple(c.name for c in self.components)
        self.mults = {c.name: c.mult for c in self.components}

    def mult_of(self, name: str) -> RationalFunction:
        return self.by_name[name].mult

    def divisor_of(self, name: str) -> ChowClass:
        return self.by_name[name].divisor

    warn_if_outside = _warn_if_outside


def _all_subsets(names):
    items = tuple(names)
    return frozenset(
        frozenset(c) for c in chain.from_iterable(
            combinations(items, r) for r in range(len(items) + 1)
        )
    )


def sorted_strata(strata) -> list:
    """The index sets by size, then by their sorted names: the order in
    which strata are listed and seeded draws visit them."""
    return sorted(strata, key=lambda s: (len(s), tuple(sorted(s))))


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
        self._names = uset = frozenset(self.universe)
        if len(uset) != len(self.universe):
            raise SchemaError(f"duplicate name in selection universe {self.universe}")
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

    def check_universe(self, names):
        """Raise UniverseMismatch unless the universe holds exactly names."""
        if self._names != frozenset(names):
            raise UniverseMismatch("selection universe differs from the components")

    def union(self, other: "StratumSelection") -> "StratumSelection":
        self.check_universe(other._names)
        return StratumSelection(self.universe, self.strata | other.strata)

    def intersect(self, other: "StratumSelection") -> "StratumSelection":
        self.check_universe(other._names)
        return StratumSelection(self.universe, self.strata & other.strata)

    def difference(self, other: "StratumSelection") -> "StratumSelection":
        self.check_universe(other._names)
        return StratumSelection(self.universe, self.strata - other.strata)

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
        for s in sorted_strata(self.strata):
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


class DegreeConfig:
    """Multiplicity and Euler characteristic data with no ring attached."""

    __slots__ = ("names", "mults", "decompositions", "chi_closed", "dim", "_outside")

    def __init__(self, names, mults, chi_closed, dim=None, decompositions=None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise SchemaError("duplicate component names")
        self.mults, self._outside = _mult_table(self.names, mults)
        self.decompositions = {name: dec for name, dec in
                               (decompositions or {}).items() if dec is not None}
        for name, dec in self.decompositions.items():
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

    warn_if_outside = _warn_if_outside


class FiberedConfig:
    """Stratified base with per-stratum fiber Euler characteristics.

    base_strata maps a stratum label to its Euler characteristic; fiber
    maps (label, index set) to the Euler characteristic of the part of
    the fiber sitting on the open stratum E_I.
    """

    __slots__ = ("names", "mults", "selection", "base_strata", "fiber")

    def __init__(self, names, mults, selection, base_strata, fiber):
        self.names = tuple(names)
        self.mults, _ = _mult_table(self.names, mults)
        selection.check_universe(self.names)
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


class BlowupStep(namedtuple("BlowupStep", "contains new_name")):
    """Blow up a point lying on exactly the named components (a frozenset)."""

    __slots__ = ()


def _transport_selection(selection: StratumSelection, contains: frozenset,
                         new_name: str) -> StratumSelection:
    """The selection after blowing up a point of the stratum `contains`:
    the old index sets, plus every set with the new name when the
    center's stratum is selected. So whole stays whole, and closed(L)
    with the center meeting L becomes closed(L + new)."""
    universe = tuple(selection.universe) + (new_name,)
    center_selected = frozenset(contains) in selection
    if selection.is_whole():
        return StratumSelection.whole(universe)
    core = selection.closed_core()
    if core is not None and center_selected:
        return StratumSelection.from_closed(universe, core | {new_name})
    strata = set(selection.strata)
    if center_selected:
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
    selection.check_universe(config.names)
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
    selection.check_universe(config.names)
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


# The loaders build on the classes above; see the note at the end of
# celint.chow on why they sit in a module of their own. Callers import
# them from `celint.modelfile`; these two names are kept here only
# because the benchmark reads `celint.model.load_ring` and traces
# `celint.model.load_model`.
from .modelfile import load_model, load_ring  # noqa: E402,F401
