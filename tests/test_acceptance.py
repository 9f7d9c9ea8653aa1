"""Acceptance checks, one per numbered criterion.

Every equality below is exact. Each passing check prints one line so a
verbose run doubles as a checklist.
"""

from fractions import Fraction

import pytest

from celint.celestial import (
    integrate_class,
    integrate_degree,
    ix_function,
    csm_set,
    manifest,
    stringy_class,
    stringy_hypersurface,
    zeta_degree,
)
from celint.catalog import ring_blowup_point, ring_product, ring_projective
from celint.chow import parse_class
from celint.errors import NotLogTerminal
from celint.exactnum import RF_M, rf
from celint.exprparse import parse_rf
from celint.model import Component, NCConfig, StratumSelection
from celint.modelfile import load_model
from celint.verify import SUITES, check_spell_elgen, run_suite

from conftest import read_fixture


SUITE_NAMES = (
    "key", "altexp", "additivity", "denloe", "necfacts",
    "csmnorm", "specialize",
)


def note(number, text):
    print(f"criterion {number:02d} PASS: {text}")


def test_criterion_01_chern_normalization():
    spaces = (
        (ring_projective(1), 2),
        (ring_projective(2), 3),
        (ring_projective(3), 4),
        (ring_product(ring_projective(1), ring_projective(1)), 4),
    )
    for ring, chi in spaces:
        empty = NCConfig(ring, [])
        total = integrate_class(empty)
        assert total == ring.require_tangent_chern()
        assert total.degree() == rf(chi)
    note(1, "empty-divisor integral is c(TX) with degree chi(X) on all four spaces")


def test_criterion_02_plane_with_line():
    model = load_model(read_fixture("p2_line.json"))
    expected = parse_class("1 + (5/2)*h + 2*h^2", model.ring)
    assert integrate_class(model.config, model.selection) == expected

    ring = ring_projective(2)
    symbolic = NCConfig(ring, [Component("D", RF_M, ring.basis_class("h"))])
    at_one = integrate_class(symbolic).evaluate(1)
    assert at_one == parse_class("1 + (5/2)*h + 2*h^2", ring)
    note(2, "(P2, line, m=1) integral is [P2] + (5/2)h + 2h^2")


DNOTDIV_CASES = (
    ("dnotdiv_p2_point.json", 2, "h^2"),
    ("dnotdiv_p3_point.json", 3, "h^3"),
    ("dnotdiv_p3_line.json", 2, "h^2 + 2*h^3"),
)


def test_criterion_03_center_not_on_divisor():
    for name, d, z_chern in DNOTDIV_CASES:
        model = load_model(read_fixture(name))
        chain = model.chains["toX"]
        lhs = manifest(integrate_class(model.config), chain)
        target = chain[-1].target
        weight = RF_M / (rf(d) + RF_M)
        rhs = target.require_tangent_chern() \
            - parse_class(z_chern, target).scale(weight)
        assert lhs == rhs
    note(3, "manifestation equals c(TX) - (m/(d+m)) c(TZ) on all three fixtures")


def test_criterion_04_chern_class_across_models():
    p2_model = load_model(read_fixture("diffman_p2.json"))
    in_quadric = stringy_class(p2_model.config, p2_model.chains["toQ"])
    quadric = p2_model.chains["toQ"][-1].target
    assert in_quadric == parse_class(
        "1 + (3/2)*h1 + (3/2)*h2 + 3*h1*h2", quadric
    )
    assert in_quadric.degree() == rf(3)

    q_model = load_model(read_fixture("diffman_q.json"))
    in_plane = stringy_class(q_model.config, q_model.chains["toP2"])
    plane = q_model.chains["toP2"][-1].target
    assert in_plane == parse_class("1 + (5/2)*h + 4*h^2", plane)
    assert in_plane.degree() == rf(4)
    note(4, "Chern classes of P2 and P1xP1 manifest across models with degrees 3 and 4")


def test_criterion_05_cusp_zeta():
    model = load_model(read_fixture("cusp.json"))
    value, poles = zeta_degree(model.degree_data, model.selection)
    assert value == parse_rf("3 - 12*m/(5 + 6*m)")
    assert poles.poles == frozenset({Fraction(-5, 6)})
    assert poles.render() == "-5/6"
    assert value.evaluate(1) == Fraction(21, 11)
    note(5, "cusp degree zeta is 3 - 12m/(5+6m), pole -5/6, value 21/11 at m=1")


def test_criterion_06_stratumwise_function():
    model = load_model(read_fixture("idsex.json"))
    one_over = parse_rf("1/(1 + m)")

    fn = ix_function(model.fibered)
    assert fn.value("X_off_D") == rf(1)
    assert fn.value("D") == rf(1) - RF_M * one_over
    assert fn.value("D") == one_over

    closed_d = StratumSelection.from_closed(model.fibered.names, ["D"])
    restricted = ix_function(model.fibered, closed_d)
    assert restricted.value("X_off_D") == rf(0)
    assert restricted.value("D") == one_over
    note(6, "function is 1_X - (m/(1+m)) 1_D, and 1_S - (m/(1+m)) 1_(S and D) under S")


def test_criterion_07_csm_of_cuspidal_cubic():
    model = load_model(read_fixture("csm_cusp.json"))
    cls = csm_set(model.config, model.selection, model.chains["toP2"])
    target = model.chains["toP2"][-1].target
    assert cls == parse_class("3*h + 2*h^2", target)
    assert cls.degree() == rf(2)

    assert ring_projective(1).require_tangent_chern().degree() == rf(2)
    assert integrate_degree(model.degree_data, model.selection) == rf(2)
    note(7, "CSM of the cuspidal cubic is 3h + 2h^2 and both degree oracles give 2")


def test_criterion_08_flop_class():
    model = load_model(read_fixture("flop.json"))
    cls = manifest(
        integrate_class(model.config, model.selection), model.chains["toX"]
    )
    target = model.chains["toX"][-1].target
    one_m = parse_rf("1 + m")
    expected = target.one() \
        + parse_class("[D]", target).scale(parse_rf("3 + 2*m") / one_m) \
        + parse_class("[L]", target).scale(
            parse_rf("2 + m") * parse_rf("4 + 3*m") / (one_m * one_m)) \
        + parse_class("[p]", target).scale(
            parse_rf("3 + m") * parse_rf("2 + m") / (one_m * one_m))
    assert cls == expected

    at_zero = cls.evaluate(0)
    assert at_zero == parse_class("1 + 3*[D] + 8*[L] + 6*[p]", target)
    assert at_zero.degree() == rf(6)
    assert cls.evaluate(-2) == parse_class("1 + [D]", target)
    note(8, "flop manifestation matches; m=0 gives the degree-6 stringy class, m=-2 gives [X]+[D]")


STRINGY_COEFFS = {
    (2, 2): (Fraction(0), Fraction(1)),
    (3, 2): (Fraction(1, 3), Fraction(1)),
    (3, 3): (Fraction(2), Fraction(8)),
    (4, 2): (Fraction(0), Fraction(1, 3)),
    (4, 3): (Fraction(-5, 2), Fraction(-4)),
    (4, 4): (Fraction(-15), Fraction(-57)),
}


def test_criterion_09_stringy_closed_forms():
    ring = ring_projective(2)
    zero = ring.zero()
    base = ring.one()
    for d in (2, 3, 4):
        for k in range(1, d + 1):
            for flavor_index, flavor in enumerate(("Omega", "omega")):
                got = stringy_hypersurface(4, d, k, zero, base, flavor)
                if k == 1:
                    assert got == zero
                else:
                    coeff = STRINGY_COEFFS[(d, k)][flavor_index]
                    assert got == base.scale(rf(coeff))
        with pytest.raises(NotLogTerminal):
            stringy_hypersurface(4, d, d + 1, zero, base, "omega")
        stringy_hypersurface(4, d, d + 1, zero, base, "Omega")
    note(9, "stringy grid d in 2..4, k in 1..d reproduced; k=1 zero; omega rejects k=d+1")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_criterion_10_property_suites(suite):
    reports = run_suite(suite, instances=100)
    assert len(reports) >= 100
    failures = [r for r in reports if not r.passed]
    assert failures == []
    note(10, f"suite {suite}: {len(reports)} checks over 100 seeded instances, zero failures")


def test_criterion_11_blowup_euler_identity_and_spell():
    plane = ring_projective(2)
    blown_plane, _, _ = ring_blowup_point(plane)
    chi = lambda r: r.require_tangent_chern().degree()
    assert chi(plane) == chi(blown_plane) \
        + rf(Fraction(1 - 2, 2)) * chi(ring_projective(1))

    space = ring_projective(3)
    blown_space, _, _ = ring_blowup_point(space)
    assert chi(space) == chi(blown_space) \
        + rf(Fraction(1 - 3, 3)) * chi(ring_projective(2))

    model = load_model(read_fixture("diffman_p2.json"))
    ring = model.config.ring
    config_x = model.config
    div_x = ring.zero()
    k_x = parse_class("e1 + e2", ring)
    eps = Component("Eps", rf(0), parse_class("h - e1 - e2", ring))
    config_y = NCConfig(ring, list(config_x.components) + [eps])
    div_y = parse_class("2*e1 + 2*e2", ring) - parse_class("h", ring)
    k_y = parse_class("h - e1 - e2", ring)
    for i in (0, 1):
        report = check_spell_elgen(
            (config_x, div_x, k_x), (config_y, div_y, k_y), i
        )
        assert report.passed
    note(11, "chi(X) = chi(Bl X) + ((1-d)/d) chi(E) twice; spell/elgen passes for i in {0,1}")


def test_criterion_12_large_scale_coverage():
    assert set(SUITES) == set(SUITE_NAMES)
    note(
        12,
        "fully general claims (all modifications, unrestricted zeta) are "
        "exercised only through the seeded finite instances of criterion 10, "
        "not proved at full scale",
    )
