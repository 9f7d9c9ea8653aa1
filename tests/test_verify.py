import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import celint
from celint import verify
from celint.catalog import ring_blowup_point, ring_projective
from celint.chow import PushForwardMap, parse_class
from celint.errors import (
    PreconditionViolated,
    RegimeWarning,
    RingMismatch,
)
from celint.exactnum import rf
from celint.exprparse import parse_rf
from celint.model import (
    BlowupStep,
    Component,
    DegreeConfig,
    NCConfig,
    StratumSelection,
)
from celint.modelfile import load_chain, load_model, ring_literal
from celint.verify import (
    SUITES,
    check_altexp,
    check_denloe,
    check_key,
    check_necfacts,
    run_suite,
)

from conftest import read_fixture
from oracles import (
    _constant_span_coeffs,
    check_can_degree,
    check_cov,
    check_spell_elgen,
)

RF_M = parse_rf("m")
P2 = ring_projective(2)


def test_check_key_line_through_center():
    config = NCConfig(P2, [Component("D", RF_M, P2.basis_class("h"))])
    sel = StratumSelection.whole(("D",))
    report = check_key(config, sel, BlowupStep(frozenset({"D"}), "E"))
    assert report.passed
    assert report.name == "key"
    assert report.line().startswith("[pass] key:")
    assert "center on {D}" in report.context


def test_check_key_center_off_components():
    config = NCConfig(P2, [Component("D", RF_M, P2.basis_class("h"))])
    sel = StratumSelection.from_closed(("D",), ["D"])
    report = check_key(config, sel, BlowupStep(frozenset(), "E"))
    assert report.passed


P1 = ring_projective(1)


@pytest.mark.parametrize("mult", [rf(3), RF_M], ids=["constant", "m-linear"])
@pytest.mark.parametrize("selection", [
    StratumSelection.whole(("A", "B")),
    StratumSelection.from_closed(("A", "B"), ["A"]),
    StratumSelection.from_strata(("A", "B"), [frozenset(), frozenset({"B"})]),
], ids=["whole", "closed", "explicit"])
def test_check_key_on_a_curve(selection, mult):
    # the point blow-up of a curve is the curve itself, with an identity
    # blow-down; the key identity must hold through it
    config = NCConfig(P1, [Component("A", mult, P1.basis_class("h")),
                           Component("B", rf(3), P1.basis_class("h").scale(rf(2)))])
    for contains in (frozenset(), frozenset({"A"})):
        assert check_key(config, selection, BlowupStep(contains, "E")).passed


def test_check_cov_identity():
    model = load_model(read_fixture("cusp.json"))
    report = check_cov(model.config, model.config)
    assert report.passed
    assert report.name == "cov"


def test_check_cov_across_rings():
    # integrating with no divisor downstairs equals integrating the
    # relative canonical data upstairs, once both reach the same ring
    plain = NCConfig(P2, [])
    bl, down, e = ring_blowup_point(P2)
    corrected = NCConfig(bl, [Component("E", rf(1), bl.basis_class("e1"))])
    report = check_cov(
        plain, corrected, krho=bl.basis_class("e1"), chain_y=[down]
    )
    assert report.passed
    assert report.lhs == P2.require_tangent_chern().render()


def test_check_cov_rejections():
    plain = NCConfig(P2, [])
    bl, down, e = ring_blowup_point(P2)
    corrected = NCConfig(bl, [Component("E", rf(1), bl.basis_class("e1"))])
    with pytest.raises(RingMismatch):
        check_cov(plain, corrected, krho=P2.basis_class("h"), chain_y=[down])
    with pytest.raises(PreconditionViolated):
        check_cov(plain, corrected, krho=bl.one(), chain_y=[down])
    with pytest.raises(PreconditionViolated):
        # h is not spanned by the single component e1
        check_cov(plain, corrected, krho=bl.basis_class("h"), chain_y=[down])
    with pytest.raises(RingMismatch):
        check_cov(plain, corrected)
    a = NCConfig(P2, [Component("D", RF_M, P2.basis_class("h"))])
    b = NCConfig(P2, [Component("D", RF_M + rf(1), P2.basis_class("h"))])
    with pytest.raises(PreconditionViolated):
        check_cov(a, b)


@pytest.mark.parametrize("classes, krho, spans", [
    (("h - e1", "h"), "e1", [-1, 1]),
    (("h", "2*h"), "h", [1, 0]),
    (("h", "2*h"), "e1", None),
], ids=["elimination", "dependent-column", "outside-span"])
def test_check_cov_solves_krho_over_the_components(classes, krho, spans):
    bl = ring_blowup_point(P2)[0]
    config = NCConfig(bl, [Component(f"C{i}", rf(1), parse_class(text, bl))
                           for i, text in enumerate(classes)])
    krho = parse_class(krho, bl)
    divisors = [c.divisor for c in config.components]
    assert _constant_span_coeffs(krho, divisors) == spans
    if spans is None:
        with pytest.raises(PreconditionViolated, match="not supported"):
            check_cov(config, config, krho=krho)
    else:
        assert check_cov(config, config, krho=krho).passed


def test_check_denloe_surface_steps():
    model = load_model(read_fixture("conic.json"))
    config = model.degree_data
    sel = StratumSelection.whole(config.names)
    on_divisor = BlowupStep(frozenset({"D"}), "E1")
    report = check_denloe(config, [on_divisor], sel)
    assert report.passed
    off_divisor = BlowupStep(frozenset(), "E1")
    assert check_denloe(config, [off_divisor], sel).passed
    two = [on_divisor, BlowupStep(frozenset({"D", "E1"}), "E2")]
    report = check_denloe(config, two, sel)
    assert report.passed
    assert "2 blow-up step(s)" in report.context


def test_check_denloe_with_selection():
    model = load_model(read_fixture("conic.json"))
    config = model.degree_data
    sel = StratumSelection.from_closed(config.names, ["D"])
    report = check_denloe(config, [BlowupStep(frozenset({"D"}), "E1")], sel)
    assert report.passed


def test_check_altexp_fixtures():
    for name in ("p2_line.json", "conic.json", "cusp.json"):
        model = load_model(read_fixture(name))
        report = check_altexp(model.config)
        assert report.passed, name
        assert report.lhs == report.rhs


def test_check_necfacts_identities():
    for n in (2, 3, 4):
        reports = check_necfacts(ring_projective(n))
        assert [r.name for r in reports] == [
            "necfacts2", "necfacts3", "necfacts4"
        ]
        assert all(r.passed for r in reports)


def test_check_necfacts_log_identity():
    line = P2.basis_class("h")
    reports = check_necfacts(P2, divisors=[line])
    assert [r.name for r in reports][-1] == "necfacts5"
    assert all(r.passed for r in reports)
    conic = P2.basis_class("h").scale(rf(2))
    reports = check_necfacts(P2, divisors=[line, conic])
    assert all(r.passed for r in reports)
    with pytest.raises(RingMismatch):
        check_necfacts(P2, divisors=[ring_projective(3).basis_class("h")])


def spell_fixture():
    p2 = ring_projective(2)
    bl1, _, _ = ring_blowup_point(p2)
    ring, _, _ = ring_blowup_point(bl1)
    comps = [
        Component("Lt", RF_M, parse_class("h - e1", ring)),
        Component("E1", RF_M + rf(1), parse_class("e1", ring)),
        Component("E2", rf(1), parse_class("e2", ring)),
    ]
    config_x = NCConfig(ring, comps)
    div_x = parse_class("h", ring).scale(RF_M)
    k_x = parse_class("e1 + e2", ring)
    # same data seen from the resolving space itself, padded with a
    # multiplicity-zero line that must not change the integral
    config_y = NCConfig(
        ring, comps + [Component("Lfree", rf(0), parse_class("h", ring))]
    )
    div_y = parse_class("h", ring).scale(RF_M) + parse_class("e1 + e2", ring)
    k_y = ring.zero()
    return ring, (config_x, div_x, k_x), (config_y, div_y, k_y)


def test_check_spell_elgen_passes():
    ring, data_x, data_y = spell_fixture()
    for i in (0, 1, 2):
        report = check_spell_elgen(data_x, data_y, i)
        assert report.passed, i
        assert report.name == "spell_elgen"
    report = check_spell_elgen(data_x, data_y, 0)
    config_x = data_x[0]
    from celint.celestial import integrate_class

    assert integrate_class(config_x, None).degree() == parse_rf(
        "(3 + m)/(1 + m)"
    )


def test_check_spell_elgen_rejections():
    ring, data_x, data_y = spell_fixture()
    config_x, div_x, k_x = data_x
    with pytest.raises(PreconditionViolated):
        check_spell_elgen(data_x, data_y, -1)
    with pytest.raises(PreconditionViolated):
        # K + D totals disagree
        check_spell_elgen(data_x, (data_y[0], div_x, k_x + div_x), 0)
    with pytest.raises(PreconditionViolated):
        # both sides agree with each other but not with the component sum
        h = ring.basis_class("h")
        config_y, div_y, k_y = data_y
        check_spell_elgen(
            (config_x, div_x + h, k_x), (config_y, div_y + h, k_y), 0
        )
    other = ring_projective(2)
    foreign = NCConfig(other, [])
    with pytest.raises(RingMismatch):
        check_spell_elgen((foreign, other.zero(), other.zero()), data_y, 0)


def test_check_spell_elgen_formal_regime_warns():
    config = NCConfig(P2, [Component("L", rf(-2), P2.basis_class("h"))])
    div = P2.basis_class("h").scale(rf(-2))
    k = P2.zero()
    with pytest.warns(RegimeWarning):
        report = check_spell_elgen((config, div, k), (config, div, k), 1)
    assert report.passed


def k3_ring(selfint):
    return ring_literal({
        "dim": 2,
        "basis": [["[S]"], ["H"], ["P"]],
        "products": {"H,H": f"{selfint}*P" if selfint else 0},
        "degree": {"P": 1},
        "point": "P",
        "chern": "1 + 24*P",
    })


def test_check_can_degree_trio():
    configs = [NCConfig(k3_ring(d), []) for d in (4, 2, 0)]
    report = check_can_degree(configs, expected=24)
    assert report.passed
    assert report.lhs == "{24}"
    assert check_can_degree(configs).passed


def test_check_can_degree_counts_generator_input():
    report = check_can_degree(NCConfig(k3_ring(d), []) for d in (4, 2, 0))
    assert report.passed
    assert report.context == "3 canonical model(s)"


def test_check_can_degree_detects_outlier():
    odd = ring_literal({
        "dim": 2,
        "basis": [["[S]"], ["H"], ["P"]],
        "products": {"H,H": "4*P"},
        "degree": {"P": 1},
        "point": "P",
        "chern": "1 + 23*P",
    })
    configs = [NCConfig(k3_ring(4), []), NCConfig(odd, [])]
    report = check_can_degree(configs)
    assert not report.passed
    assert report.lhs == "{23, 24}"


def test_check_can_degree_symbolic_expected():
    config = NCConfig(P2, [Component("D", RF_M, P2.basis_class("h"))])
    report = check_can_degree([config], expected=parse_rf("(3 + m)/(1 + m)"))
    assert report.passed


def test_suites_run_clean():
    for name in sorted(SUITES):
        reports = run_suite(name, instances=5, seed=7)
        assert reports, name
        failures = [r for r in reports if not r.passed]
        assert not failures, f"{name}: {[r.line() for r in failures]}"


def test_suite_reports_are_deterministic():
    first = run_suite("key", instances=5, seed=123)
    second = run_suite("key", instances=5, seed=123)
    assert first == second
    shifted = run_suite("key", instances=5, seed=124)
    assert first != shifted


def test_suite_runs_repeat_at_one_seed():
    first = run_suite("altexp", instances=6, seed=99)
    second = run_suite("altexp", instances=6, seed=99)
    assert first == second
    assert [r.line() for r in first] == [r.line() for r in second]


def test_seeded_reports_match_the_recorded_digest():
    # `verify --format json` lists both sides only of failing checks, so
    # the rendered sides of every check at seed 7 are pinned by a digest
    import hashlib
    import json

    rows = [[r.name, r.passed, r.lhs, r.rhs, r.context]
            for name in sorted(SUITES) for r in run_suite(name, 30, 7)]
    assert len(rows) == 294
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "803642bfdc554df9ef1f3748cf68393f9ffb616e8168b88b966cbf77ec6d39ee")


def test_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("bogus", instances=1)


def test_every_checker_in_the_package_runs_in_a_suite():
    # checkers that no suite runs belong with the test oracles
    called = set()
    for instance_fn in SUITES.values():
        called.update(instance_fn.__code__.co_names)
    checkers = {name for name, value in vars(verify).items()
                if name.startswith("check_") and callable(value)}
    assert checkers, "no checkers found"
    assert checkers <= called, sorted(checkers - called)


def test_necfacts_suite_emits_multiple_reports():
    reports = run_suite("necfacts", instances=4, seed=11)
    assert len(reports) > 4
    assert {r.name for r in reports} >= {"necfacts2", "necfacts3", "necfacts4"}


def test_suites_build_a_bounded_number_of_maps(monkeypatch):
    # The generators draw their rings from one pool, and each pooled ring
    # keeps its blow-up, so push-forward maps are built per ring, not per
    # instance: a second batch of instances builds none.
    built = []
    init = PushForwardMap.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PushForwardMap, "__init__", counting)
    verify._pool.cache_clear()
    counts = []
    for seed in (31, 32):
        for suite in ("necfacts", "key"):
            assert all(r.passed for r in run_suite(suite, 40, seed))
        counts.append(len(built))
    assert counts[0] <= len(verify._pool())
    assert counts[1] == counts[0]


def test_ring_pool_is_built_on_first_use():
    src = str(Path(celint.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import celint, celint.cli\n"
        "from celint import verify\n"
        "assert verify._pool.cache_info().currsize == 0\n"
        "verify.run_suite('key', 1, 5)\n"
        "assert verify._pool.cache_info().currsize == 1\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
