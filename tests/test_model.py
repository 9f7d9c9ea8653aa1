import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celint import model
from celint.catalog import ring_projective
from celint.celestial import integrate_class, integrate_degree, ix_function
from celint.chow import parse_class
from celint.errors import (
    NormalCrossingViolation,
    NotADivisor,
    PreconditionViolated,
    RegimeWarning,
    SchemaError,
    UndefinedMultiplicity,
    UniverseMismatch,
)
from celint.exactnum import rf
from celint.exprparse import parse_rf
from celint.model import (
    BlowupStep,
    Component,
    DegreeConfig,
    FiberedConfig,
    NCConfig,
    StratumSelection,
    blowup_transport,
    blowup_transport_degree,
    chi_closed_from_open,
    chi_open,
)
from celint.modelfile import (
    load_chain,
    load_model,
    load_mult,
    load_ring,
    load_selection,
)

from conftest import read_fixture

P2 = ring_projective(2)
RF_M = parse_rf("m")


def test_load_mult_forms():
    mult, dec = load_mult(3)
    assert mult == rf(3) and dec is None
    mult, dec = load_mult({"a": 2, "k": 1})
    assert mult == rf(2) * RF_M + rf(1)
    assert dec == (Fraction(2), Fraction(1))
    mult, dec = load_mult("(1 + 2*m)/(1 + m)")
    assert mult == parse_rf("(1 + 2*m)/(1 + m)") and dec is None


def test_load_mult_rejects_garbage():
    with pytest.raises(SchemaError):
        load_mult(True)
    with pytest.raises(SchemaError):
        load_mult({"a": 1})
    with pytest.raises(SchemaError):
        load_mult({"a": 1, "k": 0, "extra": 2})
    with pytest.raises(SchemaError):
        load_mult("1 +")
    with pytest.raises(SchemaError):
        load_mult([1, 2])


def test_config_basic_accessors():
    h = P2.basis_class("h")
    config = NCConfig(P2, [Component("D", rf(2) * RF_M, h.scale(rf(2)))])
    assert config.names == ("D",)
    assert config.mult_of("D") == rf(2) * RF_M
    assert config.divisor_of("D") == h.scale(rf(2))
    assert config.total_divisor_class() == h.scale(rf(4) * RF_M)


def test_config_rejects_bad_components():
    h = P2.basis_class("h")
    with pytest.raises(SchemaError):
        NCConfig(P2, [Component("D", rf(1), h), Component("D", rf(2), h)])
    with pytest.raises(NotADivisor):
        NCConfig(P2, [Component("D", rf(1), None)])
    with pytest.raises(NotADivisor):
        NCConfig(P2, [Component("D", rf(1), P2.one())])
    with pytest.raises(NotADivisor):
        NCConfig(P2, [Component("D", rf(1), h.scale(RF_M))])
    other = ring_projective(2)
    with pytest.raises(NotADivisor):
        NCConfig(P2, [Component("D", rf(1), other.basis_class("h"))])


def test_config_rejects_multiplicity_identically_minus_one():
    h = P2.basis_class("h")
    with pytest.raises(UndefinedMultiplicity):
        NCConfig(P2, [Component("D", rf(-1), h)])


def test_config_decomposition_consistency():
    h = P2.basis_class("h")
    Component("D", RF_M + rf(1), h, (Fraction(1), Fraction(1)))
    NCConfig(P2, [Component("D", RF_M + rf(1), h, (Fraction(1), Fraction(1)))])
    with pytest.raises(SchemaError):
        NCConfig(P2, [Component("D", RF_M, h, (Fraction(1), Fraction(1)))])


def test_config_regime_warning():
    h = P2.basis_class("h")
    config = NCConfig(P2, [Component("D", rf(-2), h)])
    assert config.outside_log_terminal()
    with pytest.warns(RegimeWarning):
        config.warn_if_outside()
    fine = NCConfig(P2, [Component("D", RF_M, h)])
    assert not fine.outside_log_terminal()


def test_selection_constructors():
    whole = StratumSelection.whole(("A", "B"))
    assert whole.is_whole() and len(whole.strata) == 4
    empty = StratumSelection.empty(("A", "B"))
    assert empty.is_empty()
    closed = StratumSelection.from_closed(("A", "B"), ["A"])
    assert closed.strata == frozenset({
        frozenset({"A"}), frozenset({"A", "B"})
    })
    listed = StratumSelection.from_strata(("A", "B"), [frozenset({"B"})])
    assert listed.strata == frozenset({frozenset({"B"})})


def test_selection_set_operations():
    u = ("A", "B")
    a = StratumSelection.from_closed(u, ["A"])
    b = StratumSelection.from_closed(u, ["B"])
    assert a.union(b).strata == a.strata | b.strata
    assert a.intersect(b).strata == {frozenset({"A", "B"})}
    assert a.difference(b).strata == {frozenset({"A"})}
    assert a.complement().union(a) == StratumSelection.whole(u)
    with pytest.raises(UniverseMismatch):
        a.union(StratumSelection.whole(("A",)))


def test_selection_describe_and_core():
    u = ("A", "B")
    assert StratumSelection.whole(u).describe() == "whole"
    assert StratumSelection.empty(u).describe() == "empty"
    closed = StratumSelection.from_closed(u, ["A"])
    assert closed.closed_core() == frozenset({"A"})
    assert closed.describe() == "closed: A"
    odd = StratumSelection.from_strata(u, [frozenset({"A", "B"})])
    assert odd.closed_core() is None
    assert odd.describe() == "strata: {A,B}"


def test_selection_rejects_foreign_names():
    with pytest.raises(SchemaError):
        StratumSelection(("A",), [frozenset({"B"})])
    with pytest.raises(SchemaError):
        StratumSelection.from_closed(("A",), ["B"])
    with pytest.raises(SchemaError):
        StratumSelection(("A", "A"), [])


def test_chi_moebius_inversion():
    table = {
        frozenset(): Fraction(6),
        frozenset({"D"}): Fraction(2),
        frozenset({"E"}): Fraction(2),
        frozenset({"D", "E"}): Fraction(1),
    }
    # open stratum of the whole space drops every closed component
    assert chi_open(table, frozenset()) == 6 - 2 - 2 + 1
    assert chi_open(table, frozenset({"D"})) == 2 - 1
    assert chi_open(table, frozenset({"D", "E"})) == 1
    # absent key means chi 0
    assert chi_open(table, frozenset({"missing"})) == 0


ALL_ABC = [
    frozenset(s)
    for s in [
        (), ("A",), ("B",), ("C",),
        ("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C"),
    ]
]


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(
    st.sampled_from(ALL_ABC),
    st.integers(min_value=-5, max_value=5),
))
def test_chi_inversion_round_trip(table):
    closed = {k: Fraction(v) for k, v in table.items()}
    opens = {index: chi_open(closed, index) for index in ALL_ABC}
    for index in ALL_ABC:
        assert chi_closed_from_open(opens, index) == closed.get(index, 0)


def test_degree_config_validation():
    good = DegreeConfig(
        ("D",), {"D": RF_M}, {frozenset(): 3, frozenset({"D"}): 2}
    )
    assert good.chi_of_open(frozenset()) == 1
    with pytest.raises(SchemaError):
        DegreeConfig(("D",), {"D": RF_M}, {frozenset({"D"}): 2})
    with pytest.raises(SchemaError):
        DegreeConfig(("D",), {}, {frozenset(): 3})
    with pytest.raises(SchemaError):
        DegreeConfig(("D",), {"D": RF_M}, {frozenset(): 3, frozenset({"X"}): 1})
    with pytest.raises(SchemaError):
        DegreeConfig(
            ("D",), {"D": RF_M}, {frozenset(): 3},
            decompositions={"D": (Fraction(1), Fraction(1))},
        )


def test_fibered_config_cone_values():
    model = load_model(read_fixture("ix_cone.json"))
    fib = model.fibered
    m = RF_M
    one = rf(1)
    assert fib.value_at("X_off_D") == one
    assert fib.value_at("D1_off") == one / (one + m)
    expected_vertex = (rf(2) + m) / ((one + m) * (one + m))
    assert fib.value_at("v") == expected_vertex
    assert expected_vertex.evaluate(Fraction(0)) == 2
    total = ix_function(fib).paired_total(fib.base_strata)
    assert total == (rf(2) + m) * (rf(3) + m) / ((one + m) * (one + m))
    assert total.evaluate(Fraction(0)) == 6


def test_fibered_config_validation():
    sel = StratumSelection.whole(("E",))
    with pytest.raises(SchemaError):
        FiberedConfig(("E",), {}, sel, {"b": 1}, {})
    with pytest.raises(UniverseMismatch):
        FiberedConfig(
            ("E",), {"E": RF_M}, StratumSelection.whole(("X",)), {"b": 1}, {}
        )
    with pytest.raises(SchemaError):
        FiberedConfig(
            ("E",), {"E": RF_M}, sel, {"b": 1},
            {("other", frozenset()): 1},
        )
    with pytest.raises(SchemaError):
        FiberedConfig(
            ("E",), {"E": RF_M}, sel, {"b": 1},
            {("b", frozenset({"X"})): 1},
        )
    fib = FiberedConfig(("E",), {"E": RF_M}, sel, {"b": 1}, {})
    with pytest.raises(SchemaError):
        fib.value_at("missing")


def test_blowup_transport_line_through_point():
    h = P2.basis_class("h")
    config = NCConfig(P2, [Component("D", RF_M, h, (Fraction(1), Fraction(0)))])
    sel = StratumSelection.whole(("D",))
    step = BlowupStep(frozenset({"D"}), "E")
    new_config, new_sel, down = blowup_transport(config, sel, step)
    assert new_config.names == ("D", "E")
    assert new_config.divisor_of("D") == parse_class("h - e1", new_config.ring)
    assert new_config.divisor_of("E") == parse_class("e1", new_config.ring)
    # exceptional multiplicity is (dim - 1) + contained multiplicities
    assert new_config.mult_of("E") == RF_M + rf(1)
    assert new_config.by_name["E"].decomposition == (Fraction(1), Fraction(1))
    assert new_sel.is_whole()
    assert down.push(new_config.divisor_of("D")) == h


def test_blowup_transport_center_off_divisor():
    h = P2.basis_class("h")
    config = NCConfig(P2, [Component("D", RF_M, h)])
    sel = StratumSelection.from_closed(("D",), ["D"])
    step = BlowupStep(frozenset(), "E")
    new_config, new_sel, _ = blowup_transport(config, sel, step)
    assert new_config.divisor_of("D") == parse_class("h", new_config.ring)
    assert new_config.mult_of("E") == rf(1)
    # nothing new enters a selection whose strata avoid the center
    assert new_sel.universe == ("D", "E")
    assert new_sel.strata == frozenset({frozenset({"D"})})


def subsets(names):
    return frozenset(
        frozenset(c) for r in range(len(names) + 1) for c in combinations(names, r)
    )


def test_transport_matches_the_subset_rule():
    names = ("A", "B", "C")
    every = subsets(names)
    selections = [StratumSelection.whole(names), StratumSelection.empty(names)]
    selections += [StratumSelection.from_closed(names, core) for core in every if core]
    selections += [
        StratumSelection.from_strata(names, {frozenset(), frozenset({"A", "B"})}),
        StratumSelection.from_strata(names, {frozenset({"C"})}),
    ]
    for sel in selections:
        for contains in every:
            got = model._transport_selection(sel, contains, "E")
            # the old index sets, plus every set with E when the center's
            # stratum is selected
            want = set(sel.strata)
            if contains in sel.strata:
                want |= {s | {"E"} for s in every}
            assert got == StratumSelection.from_strata(names + ("E",), want)
            assert got.strata == frozenset(want)
        assert sel.complement().strata == every - sel.strata
        assert sel.complement() == StratumSelection.from_strata(
            names, every - sel.strata
        )


def test_whole_and_closed_transport_never_enumerate(monkeypatch):
    real = model._all_subsets

    def guarded(names):
        names = tuple(names)
        if len(names) > 4:
            raise AssertionError(f"enumerated the subsets of {len(names)} names")
        return real(names)

    monkeypatch.setattr(model, "_all_subsets", guarded)
    h = P2.basis_class("h")
    names = tuple(f"D{i}" for i in range(24))
    config = NCConfig(P2, [Component(n, rf(i % 3), h) for i, n in enumerate(names)])
    whole = StratumSelection.whole(names)
    closed = StratumSelection.from_closed(names, names[:2])
    step = BlowupStep(frozenset({"D1"}), "E")
    _, new_whole, _ = blowup_transport(config, whole, step)
    assert new_whole == StratumSelection.whole(names + ("E",))
    _, new_closed, _ = blowup_transport(config, closed, step)
    assert new_closed == StratumSelection.from_closed(
        names + ("E",), ("D0", "D1", "E")
    )
    assert whole.complement() == StratumSelection.empty(names)
    assert StratumSelection.empty(names).complement() == whole


def test_blowup_transport_rejections():
    h = P2.basis_class("h")
    config = NCConfig(P2, [Component("D", RF_M, h)])
    sel = StratumSelection.whole(("D",))
    with pytest.raises(SchemaError):
        blowup_transport(config, sel, BlowupStep(frozenset({"X"}), "E"))
    with pytest.raises(SchemaError):
        blowup_transport(config, sel, BlowupStep(frozenset(), "D"))
    with pytest.raises(UniverseMismatch):
        blowup_transport(
            config, StratumSelection.whole(("other",)),
            BlowupStep(frozenset(), "E"),
        )
    wide = NCConfig(P2, [
        Component("A", RF_M, h),
        Component("B", RF_M, h.scale(rf(2))),
        Component("C", RF_M, h.scale(rf(3))),
    ])
    with pytest.raises(NormalCrossingViolation):
        blowup_transport(
            wide, StratumSelection.whole(("A", "B", "C")),
            BlowupStep(frozenset({"A", "B", "C"}), "E"),
        )


def test_blowup_transport_degree_tables():
    config = DegreeConfig(
        ("D",), {"D": RF_M},
        {frozenset(): Fraction(3), frozenset({"D"}): Fraction(2)},
        dim=2,
        decompositions={"D": (Fraction(1), Fraction(0))},
    )
    sel = StratumSelection.whole(("D",))
    step = BlowupStep(frozenset({"D"}), "E")
    new_config, new_sel = blowup_transport_degree(config, sel, step)
    assert new_config.mults["E"] == RF_M + rf(1)
    assert new_config.decompositions["E"] == (Fraction(1), Fraction(1))
    assert new_config.chi_closed[frozenset()] == 4
    assert new_config.chi_closed[frozenset({"E"})] == 2
    assert new_config.chi_closed[frozenset({"D", "E"})] == 1
    assert new_sel.is_whole()


def test_blowup_transport_degree_separates_crossing():
    config = DegreeConfig(
        ("A", "B"), {"A": RF_M, "B": RF_M},
        {
            frozenset(): Fraction(3),
            frozenset({"A"}): Fraction(2),
            frozenset({"B"}): Fraction(2),
            frozenset({"A", "B"}): Fraction(1),
        },
        dim=2,
    )
    sel = StratumSelection.whole(("A", "B"))
    new_config, _ = blowup_transport_degree(
        config, sel, BlowupStep(frozenset({"A", "B"}), "E")
    )
    # the crossing point moves onto the exceptional curve
    assert new_config.chi_closed[frozenset({"A", "B"})] == 0
    assert new_config.chi_closed[frozenset({"A", "E"})] == 1
    assert new_config.chi_closed[frozenset({"B", "E"})] == 1
    assert new_config.mults["E"] == rf(2) * RF_M + rf(1)


def test_blowup_transport_degree_needs_surface():
    config = DegreeConfig(("D",), {"D": RF_M}, {frozenset(): 4}, dim=3)
    sel = StratumSelection.whole(("D",))
    with pytest.raises(PreconditionViolated):
        blowup_transport_degree(config, sel, BlowupStep(frozenset(), "E"))


def test_load_ring_catalogs():
    ring, maps = load_ring({"catalog": "projective", "n": 3})
    assert ring.dim == 3 and maps == []
    ring, maps = load_ring({"catalog": "product", "factors": [1, 1]})
    assert ring.basis[1] == ("h1", "h2")
    ring, maps = load_ring({
        "catalog": "blowup_point",
        "base": {"catalog": "projective", "n": 2},
        "count": 2,
    })
    assert len(maps) == 2
    assert "e2" in ring.codim_of
    ring, _ = load_ring({"catalog": "point"})
    assert ring.dim == 0


def test_load_ring_rejections():
    with pytest.raises(SchemaError):
        load_ring({"catalog": "unknown"})
    with pytest.raises(SchemaError):
        load_ring({"catalog": "projective"})
    with pytest.raises(SchemaError):
        load_ring({"catalog": "product", "factors": [1]})
    with pytest.raises(SchemaError):
        load_ring({"catalog": "blowup_point", "count": 1})
    with pytest.raises(SchemaError):
        load_ring({"catalog": "blowup_point",
                   "base": {"catalog": "projective", "n": 2}, "count": 0})
    with pytest.raises(SchemaError):
        load_ring({"catalog": "literal"})
    with pytest.raises(SchemaError):
        load_ring("projective")


def test_load_selection_forms():
    names = ("A", "B")
    assert load_selection(None, names).is_whole()
    assert load_selection({"whole": True}, names).is_whole()
    assert load_selection({"empty": True}, names).is_empty()
    closed = load_selection({"closed": ["A"]}, names)
    assert closed.closed_core() == frozenset({"A"})
    listed = load_selection({"strata": [["A", "B"], []]}, names)
    assert frozenset() in listed.strata
    with pytest.raises(SchemaError):
        load_selection({"whole": False}, names)
    with pytest.raises(SchemaError):
        load_selection({"closed": "A"}, names)
    with pytest.raises(SchemaError):
        load_selection({"bogus": 1}, names)
    with pytest.raises(SchemaError):
        load_selection("whole", names)


def test_load_model_with_ring():
    model = load_model(read_fixture("conic.json"))
    assert model.ring.dim == 2
    assert model.config.mult_of("D") == RF_M
    assert model.config.divisor_of("D") == parse_class("2*h", model.ring)
    assert model.selection.is_whole()
    assert model.degree_data.chi_closed[frozenset()] == 3
    assert model.degree_data.chi_closed[frozenset({"D"})] == 2


def test_load_model_construction_chain():
    model = load_model(read_fixture("cusp.json"))
    assert model.ring.meta.get("blowup_depth") == 3
    chain = load_chain(model.raw["chains"]["toP2"], model.ring,
                       model.construction)
    assert len(chain) == 3
    pushed = chain[0].push(model.config.divisor_of("D"))
    pushed = chain[1].push(pushed)
    pushed = chain[2].push(pushed)
    assert pushed == parse_class("3*h", chain[2].target)


def test_load_model_literal_chain():
    model = load_model(read_fixture("flop.json"))
    chain = model.chains["toX"]
    assert len(chain) == 1
    target = chain[0].target
    assert chain[0].push(model.ring.one()) == target.one()
    reduced = parse_class("D1 + D2 + E", model.ring)
    assert chain[0].push(reduced) == parse_class("[D]", target)
    assert chain[0].pull(parse_class("[D]", target)) == reduced


def test_load_model_rejections():
    with pytest.raises(SchemaError):
        load_model([])
    with pytest.raises(SchemaError):
        load_model({"components": [{"name": "D"}]})
    with pytest.raises(SchemaError):
        load_model({
            "ring": {"catalog": "projective", "n": 2},
            "components": [{"name": "D", "mult": 1}],
        })
    with pytest.raises(SchemaError):
        load_model({
            "components": [{"name": "D", "mult": 1, "class": "h"}],
        })
    with pytest.raises(SchemaError):
        load_model({
            "ring": {"catalog": "projective", "n": 2},
            "components": [
                {"name": "D", "mult": 1, "class": "h"},
                {"name": "D", "mult": 2, "class": "h"},
            ],
        })


def test_load_chain_rejections():
    model = load_model(read_fixture("conic.json"))
    with pytest.raises(SchemaError):
        load_chain("construction", model.ring, None)
    with pytest.raises(SchemaError):
        load_chain(42, model.ring, None)
    with pytest.raises(SchemaError):
        load_chain([{"forward": {}}], model.ring, None)


def test_load_ring_bounds_the_blowup_count():
    from celint.modelfile import MAX_BLOWUPS

    plane = {"catalog": "projective", "n": 2}
    for count in (MAX_BLOWUPS + 1, 1000, 2.5, 0.5, float("inf"), "x", None):
        with pytest.raises(SchemaError, match="count"):
            load_ring({"catalog": "blowup_point", "base": plane, "count": count})
    # nesting blow-ups cannot get round the bound
    half = MAX_BLOWUPS // 2 + 1
    with pytest.raises(SchemaError, match="count"):
        load_ring({
            "catalog": "blowup_point", "count": half,
            "base": {"catalog": "blowup_point", "base": plane, "count": half},
        })
    deep = plane
    for _ in range(2000):
        deep = {"catalog": "blowup_point", "base": deep, "count": 1}
    with pytest.raises(SchemaError, match="count"):
        load_ring(deep)
    ring, maps = load_ring({"catalog": "blowup_point", "base": plane, "count": 2.0})
    assert len(maps) == 2 and "e2" in ring.codim_of
    line = {"catalog": "projective", "n": 1}
    _, maps = load_ring({"catalog": "blowup_point", "base": line,
                         "count": MAX_BLOWUPS})
    assert len(maps) == MAX_BLOWUPS


def test_load_ring_bounds_the_basis_size_before_building(monkeypatch):
    from celint import modelfile
    from celint.modelfile import MAX_BASIS

    def forbidden(*args, **kwargs):
        raise AssertionError("built a ring above the basis bound")

    for name in ("ring_projective", "ring_product", "ring_literal",
                 "ring_blowup_point"):
        monkeypatch.setattr(modelfile, name, forbidden)
    names = [f"x{i}" for i in range(MAX_BASIS)]
    for obj, field in (
        ({"catalog": "projective", "n": MAX_BASIS}, "n"),
        ({"catalog": "projective", "n": 10**9}, "n"),
        ({"catalog": "product", "factors": [40, 40]}, "factors"),
        ({"catalog": "product", "factors": [7, 8]}, "factors"),
        ({"catalog": "product", "factors": [10**9, -2]}, "factors"),
        ({"catalog": "literal", "presentation": {
            "dim": 1, "basis": [["[W]"], names], "degree": {"x0": 1},
        }}, "presentation.basis"),
    ):
        with pytest.raises(SchemaError, match=f"field {field} asks for"):
            load_ring(obj)
    for obj in ({"catalog": "projective", "n": float("inf")},
                {"catalog": "product", "factors": [float("inf"), 1]}):
        with pytest.raises(SchemaError, match="integer"):
            load_ring(obj)
    monkeypatch.undo()
    # P^4 gains 3 basis elements per blow-up: 20 of them give 65
    monkeypatch.setattr(modelfile, "ring_blowup_point", forbidden)
    with pytest.raises(SchemaError, match="field count asks for 65"):
        load_ring({"catalog": "blowup_point", "count": 20,
                   "base": {"catalog": "projective", "n": 4}})
    monkeypatch.undo()
    ring, _ = load_ring({"catalog": "product", "factors": [7, 7]})
    assert len(ring.all_names) == MAX_BASIS


def test_regime_warning_points_at_the_caller():
    h = P2.basis_class("h")
    config = NCConfig(P2, [Component("D", rf(-2), h)])
    degree = DegreeConfig(("D",), {"D": rf(-2)}, {frozenset(): 3}, dim=2)
    for call in (lambda: integrate_class(config), lambda: integrate_degree(degree)):
        with pytest.warns(RegimeWarning) as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


def test_numeric_fields_accept_every_documented_form():
    # rationals: JSON integers, integral floats and "p/q" or "n" strings
    _, dec = load_mult({"a": "1/2", "k": 2.0}, "mult")
    assert dec == (Fraction(1, 2), Fraction(2))
    model = load_model({
        "components": [{"name": "D", "mult": 0}, {"name": "E", "mult": "m"}],
        "chi_closed": {"": "-3/2", "D": 1.0, "E": " 4 ", "D,E": 1e3},
        "dim": 2.0,
    })
    assert model.degree_data.chi_closed == {
        frozenset(): Fraction(-3, 2), frozenset({"D"}): 1,
        frozenset({"E"}): 4, frozenset({"D", "E"}): 1000,
    }
    assert model.degree_data.dim == 2 and type(model.degree_data.dim) is int


@pytest.mark.parametrize("value", [
    True, False, None, 2.5, float("inf"), "x", "", "1/0", "0.5", "1e3",
    [1], {"p": 1},
])
def test_rational_fields_reject_wrong_types(value):
    with pytest.raises(SchemaError, match=r"^field mult\.a must be rational"):
        load_mult({"a": value, "k": 0}, "mult")


@pytest.mark.parametrize("value", [True, 2.5, [], {}, None])
def test_expression_fields_reject_wrong_types(value):
    with pytest.raises(SchemaError, match=r"^field components\[0\]\.mult "
                                          r"must be an expression"):
        load_model({"components": [{"name": "D", "mult": value}]})


def test_field_paths_follow_the_json_tree():
    cases = [
        ({"ring": {"catalog": "projective", "n": "2"}}, "ring.n"),
        ({"ring": {"catalog": "blowup_point", "count": 1,
                   "base": {"catalog": "product", "factors": [1, "2"]}}},
         "ring.base.factors[1]"),
        ({"ring": {"catalog": "projective", "n": 2}, "chains": {
            "down": [{"target": {"catalog": "projective", "n": 2},
                      "pullback": {"[V]": "[V]", "h^2": {}}}]}},
         'chains.down[0].pullback["h^2"]'),
        ({"components": [{"name": "D", "mult": 1}],
          "base_strata": {"b": 1}, "fiber": {"b": {"D": "x"}}},
         "fiber.b.D"),
        ({"components": [{"name": ["D"], "mult": 1}]}, "components[0].name"),
        ({"ring": {"catalog": "chow"}}, "ring.catalog"),
        ([], None),
    ]
    for obj, path in cases:
        subject = "the top-level value" if path is None else f"field {path}"
        with pytest.raises(SchemaError, match=f"^{re.escape(subject)} must be "):
            load_model(obj)
