"""Reference values for checking op outputs at seeds without recorded digests.

Each function evaluates an identity of the paper by a different route
than celint takes, using only celint's class and Q(m) arithmetic:

- the integral over a selection from the factored integrand
  c(TV) / prod(1 + E_i) * prod(1 + E_i/(1 + m_i)), so no 2^c stratum
  sum is needed for whole, closed or down-set selections;
- degree-level values from the closed-strata Euler characteristics,
  sum_J chi(E_J) prod_{j in J} (-m_j/(1 + m_j)), summing over the table
  keys rather than over the open strata;
- poles from the linear factors a_i*m + k_i + 1 of the multiplicities;
- constructible-function values by summing the fiber table's own keys.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:8]


def mult_rf(mult):
    """The Q(m) value of an ["lin", a, k] or ["const", q] multiplicity."""
    from celint.exactnum import RF_M, rf

    if mult[0] == "lin":
        return rf(mult[1]) * RF_M + rf(mult[2])
    return rf(Fraction(mult[1]))


def _weight(mult):
    from celint.exactnum import RF_ONE

    return RF_ONE / (RF_ONE + mult)


def in_selection(index: frozenset, sel) -> bool:
    """Membership in a whole or closed(L) selection; "stored" is the
    selection a generated fibered model keeps, which is always whole."""
    if sel[0] in ("whole", "stored"):
        return True
    if sel[0] == "closed":
        return bool(index & frozenset(sel[1]))
    raise ValueError(f"no membership test for {sel[0]} selections")


class Integrand:
    """The factored integrand of one configuration, kept for several selections.

    comps are (name, divisor, mult) triples. With `at`, every multiplicity
    is first evaluated at m = at, which gives the value of the integral at
    that point (evaluation commutes with integration away from poles).
    """

    def __init__(self, ring, comps, at=None):
        if at is not None:
            from celint.exactnum import rf

            comps = [(name, divisor, rf(mult.evaluate(at)))
                     for name, divisor, mult in comps]
        self.one = ring.one()
        self.log = ring.require_tangent_chern()
        self.terms = {}
        for name, divisor, mult in comps:
            self.log = self.log * (self.one + divisor).inverse()
            self.terms[name] = divisor.scale(_weight(mult))
        self._whole = None

    def _product(self, names):
        out = self.one
        for name in names:
            out = out * (self.one + self.terms[name])
        return out

    def whole(self):
        if self._whole is None:
            self._whole = self._product(self.terms)
        return self._whole

    def integral(self, sel):
        kind = sel[0]
        if kind == "whole":
            total = self.whole()
        elif kind == "closed":
            closed = set(sel[1])
            total = self.whole() - self._product(n for n in self.terms if n not in closed)
        else:
            core = frozenset(sel[1]["core"])
            total = self._product(sorted(core))
            for extra in {frozenset(e) for e in sel[1]["extras"]}:
                if not extra <= core:
                    term = self.one
                    for name in sorted(extra):
                        term = term * self.terms[name]
                    total = total + term
        return self.log * total


def push(cls, chain):
    for f in chain or ():
        cls = f.push(cls)
    return cls


def degree_value(chi_closed: dict, mults: dict, sel):
    """Degree-level integral over whole or closed(L) from the closed table.

    chi_closed maps frozensets to Euler characteristics of closed strata.
    """
    from celint.exactnum import RF_ZERO, rf

    u = {n: -(m * _weight(m)) for n, m in mults.items()}

    def total(closed):
        out = RF_ZERO
        for key, chi in chi_closed.items():
            if chi == 0:
                continue
            term = rf(chi)
            if len(key & closed) % 2:
                term = -term
            for name in key - closed:
                term = term * u[name]
            out = out + term
        return out

    whole = total(frozenset())
    if sel[0] == "whole":
        return whole
    if sel[0] != "closed":
        raise ValueError(f"no degree-level reference for {sel[0]} selections")
    return whole - total(frozenset(sel[1]))


def poles(value, mults):
    """Rational poles of a value whose denominator divides prod(1 + m_i)."""
    from celint.exactnum import PoleReport

    candidates = {Fraction(-(1 + m[2]), m[1]) for m in mults if m[0] == "lin"}
    return PoleReport(r for r in candidates if value.den.evaluate(r) == 0)


def ix_values(labels, fiber: dict, mults: dict, sel):
    """Stratumwise values; fiber maps (label, frozenset) to Euler numbers."""
    from celint.exactnum import RF_ZERO, rf

    out = []
    for label in labels:
        total = RF_ZERO
        for (lab, index), chi in fiber.items():
            if lab != label or chi == 0 or not in_selection(index, sel):
                continue
            term = rf(chi)
            for name in index:
                term = term * _weight(mults[name])
            total = total + term
        out.append((label, total))
    return out


def chi_table(raw: dict) -> dict:
    """Parse a {"A,B": chi} table into frozenset keys."""
    return {frozenset(k.split(",")) if k else frozenset(): Fraction(v)
            for k, v in raw.items()}


def fiber_table(raw: dict) -> dict:
    return {(label, frozenset(k.split(",")) if k else frozenset()): Fraction(v)
            for label, row in raw.items() for k, v in row.items()}
