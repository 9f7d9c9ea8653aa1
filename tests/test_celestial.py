import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celint import celestial, model
from celint.celestial import (
    ConstructibleFunction,
    alternate_form2,
    alternate_form3,
    csm_set,
    csm_stratum,
    divisor_action,
    integrate_class,
    integrate_degree,
    ix_function,
    log_chern,
    manifest,
    stringy_class,
    stringy_hypersurface,
    zeta,
    zeta_class,
    zeta_degree,
)
from celint.catalog import ring_blowup_point, ring_product, ring_projective
from celint.chow import ChowClass, parse_class
from celint.errors import (
    MissingDecomposition,
    NotADivisor,
    NotLogTerminal,
    PreconditionViolated,
    RegimeWarning,
    RingMismatch,
    SchemaError,
    UniverseMismatch,
)
from celint.exactnum import Polynomial, RationalFunction, rf
from celint.exprparse import parse_rf
from celint.model import (
    Component,
    DegreeConfig,
    FiberedConfig,
    NCConfig,
    StratumSelection,
)
from celint.modelfile import load_chain, load_model

from conftest import read_fixture, time_limit

P2 = ring_projective(2)
RF_M = parse_rf("m")


def line_config(mult=None):
    h = P2.basis_class("h")
    return NCConfig(P2, [Component("D", RF_M if mult is None else mult, h)])


def test_integral_of_empty_configuration_is_chern_class():
    config = NCConfig(P2, [])
    total = integrate_class(config)
    assert total == P2.require_tangent_chern()
    assert total.degree() == rf(3)


def test_integral_line_in_plane():
    config = line_config()
    total = integrate_class(config)
    # chi(P^2 - D) + chi(D)/(1+m)
    assert total.degree() == parse_rf("(3 + m)/(1 + m)")
    assert total.degree().evaluate(Fraction(0)) == 3
    assert total.coefficient("[V]") == rf(1)


def test_integral_empty_selection_is_zero():
    config = line_config()
    sel = StratumSelection.empty(("D",))
    assert integrate_class(config, sel).is_zero()


def test_integral_whole_selection_is_default():
    config = line_config()
    sel = StratumSelection.whole(("D",))
    assert integrate_class(config, sel) == integrate_class(config)


def test_integral_additive_over_disjoint_selections():
    config = line_config()
    on = StratumSelection.from_closed(("D",), ["D"])
    off = on.complement()
    total = integrate_class(config, on) + integrate_class(config, off)
    assert total == integrate_class(config)


def test_integral_selection_universe_checked():
    config = line_config()
    with pytest.raises(UniverseMismatch):
        integrate_class(config, StratumSelection.whole(("X",)))


def test_integral_regime_warning():
    config = line_config(rf(-2))
    with pytest.warns(RegimeWarning):
        total = integrate_class(config)
    assert total.degree() == rf(-1)


def test_log_chern_line():
    config = line_config()
    assert log_chern(config) == parse_class("1 + 2*h + h^2", P2)


def test_integrate_degree_matches_class_degree():
    model = load_model(read_fixture("conic.json"))
    by_class = integrate_class(model.config).degree()
    by_table = integrate_degree(model.degree_data)
    assert by_class == by_table
    assert by_table == parse_rf("(3 + m)/(1 + m)")


def test_cusp_class_and_degree_integrals_agree():
    model = load_model(read_fixture("cusp.json"))
    by_class = integrate_class(model.config).degree()
    by_table = integrate_degree(model.degree_data)
    assert by_class == by_table


def test_alternate_forms_agree_with_definition():
    for name in ("p2_line.json", "conic.json", "cusp.json"):
        model = load_model(read_fixture(name))
        whole = integrate_class(model.config)
        assert alternate_form2(model.config) == whole
        assert alternate_form3(model.config) == whole


# alternate_form2 and alternate_form3 are products over the components;
# the references below are the sums over all index sets they factor.


def subset_sum_form2(config):
    ring = config.ring
    total = ring.zero()
    for size in range(len(config.names) + 1):
        for index in combinations(config.names, size):
            weight = rf(1)
            cls = ring.require_tangent_chern()
            for name in index:
                m = config.mult_of(name)
                weight = weight * (m / (rf(1) + m))
                div = config.divisor_of(name)
                cls = cls * div * (ring.one() + div).inverse()
            total = total + cls.scale(weight if size % 2 == 0 else -weight)
    return total


def subset_sum_form3(config):
    ring = config.ring
    prefactor = rf(1)
    for comp in config.components:
        prefactor = prefactor / (rf(1) + comp.mult)
    total = ring.zero()
    for size in range(len(config.names) + 1):
        for index in combinations(config.names, size):
            weight = rf(1)
            cls = ring.require_tangent_chern()
            for name in index:
                weight = weight * config.mult_of(name)
                cls = cls * (ring.one() + config.divisor_of(name)).inverse()
            total = total + cls.scale(weight)
    return total.scale(prefactor)


ALTERNATE_RINGS = [P2, ring_blowup_point(P2)[0], ring_projective(3)]
CONSTANT_MULTS = ("0", "1", "2", "1/2", "-1/2", "-2", "3/5")
LINEAR_MULTS = ("m", "2*m", "m + 1", "3*m - 1", "m/2 + 1/3")


@st.composite
def alternate_configs(draw):
    ring = draw(st.sampled_from(ALTERNATE_RINGS))
    comps = []
    for i in range(draw(st.integers(0, 8))):
        divisor = ChowClass(ring, {
            name: rf(draw(st.integers(-2, 3))) for name in ring.basis[1]
        })
        texts = draw(st.sampled_from((CONSTANT_MULTS, LINEAR_MULTS)))
        comps.append(Component(f"E{i}", parse_rf(draw(st.sampled_from(texts))),
                               divisor))
    return NCConfig(ring, comps)


def per_component_log_chern(config):
    """c(TV) times the inverse of each (1 + E_j) in turn."""
    ring = config.ring
    total = ring.require_tangent_chern()
    for comp in config.components:
        total = total * (ring.one() + comp.divisor).inverse()
    return total


@pytest.mark.parametrize(
    "ring", ALTERNATE_RINGS + [ring_product(ring_projective(1), P2)],
    ids=("P2", "BlP2", "P3", "P1xP2"))
def test_log_chern_matches_per_component_inverses(ring):
    rng = random.Random(ring.dim * 10 + len(ring.basis[1]))
    for count in range(9):
        comps = [
            Component(f"E{i}", rf(0), ChowClass(ring, {
                name: rf(rng.randint(-3, 3)) for name in ring.basis[1]}))
            for i in range(count)
        ]
        config = NCConfig(ring, comps)
        assert log_chern(config) == per_component_log_chern(config)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(alternate_configs())
def test_alternate_forms_match_subset_sums(config):
    form2 = alternate_form2(config)
    form3 = alternate_form3(config)
    assert form2 == subset_sum_form2(config)
    assert form3 == subset_sum_form3(config)
    assert form2.render() == form3.render()


def test_alternate_forms_never_enumerate(monkeypatch):
    real = model._all_subsets

    def guarded(names):
        names = tuple(names)
        if len(names) > 4:
            raise AssertionError(f"enumerated the subsets of {len(names)} names")
        return real(names)

    monkeypatch.setattr(model, "_all_subsets", guarded)
    monkeypatch.setattr(celestial, "_all_subsets", guarded, raising=False)
    h = P2.basis_class("h")
    mults = (rf(0), rf(Fraction(1, 2)), RF_M, rf(2))
    config = NCConfig(P2, [
        Component(f"E{i}", mults[i % 4], h.scale(rf(1 + i % 3)))
        for i in range(24)
    ])
    whole = integrate_class(config)
    assert alternate_form2(config) == whole
    assert alternate_form3(config) == whole


def test_zeta_cusp_value_and_poles():
    model = load_model(read_fixture("cusp.json"))
    value, report = zeta_degree(model.degree_data)
    assert value == parse_rf("(15 + 6*m)/(5 + 6*m)")
    assert value.evaluate(Fraction(1)) == Fraction(21, 11)
    assert report.poles == frozenset({Fraction(-5, 6)})
    assert report.render() == "-5/6"


def test_zeta_dispatch():
    model = load_model(read_fixture("cusp.json"))
    assert zeta(model.config) == zeta_class(model.config)
    value, _ = zeta(model.degree_data)
    assert value == zeta_degree(model.degree_data)[0]
    with pytest.raises(SchemaError):
        zeta("not a config")


def test_zeta_requires_decompositions():
    config = line_config()
    with pytest.raises(MissingDecomposition):
        zeta_class(config)
    model = load_model(read_fixture("p2_line.json"))
    assert model.degree_data is None or True
    # degree-level: strip the decomposition and expect the same refusal
    from celint.model import DegreeConfig

    plain = DegreeConfig(("D",), {"D": RF_M}, {frozenset(): 3, frozenset({"D"}): 2})
    with pytest.raises(MissingDecomposition):
        zeta_degree(plain)


def test_zeta_matches_integral_on_decomposed_config():
    model = load_model(read_fixture("cusp.json"))
    assert zeta_class(model.config) == integrate_class(model.config)


def test_csm_of_line():
    config = line_config(rf(0))
    sel = StratumSelection.from_closed(("D",), ["D"])
    cls = csm_set(config, sel)
    assert cls == parse_class("h + 2*h^2", P2)
    assert cls.degree() == rf(2)


def test_csm_stratum_is_mult_free():
    config_a = line_config(rf(0))
    config_b = line_config(rf(7))
    assert csm_stratum(config_a, {"D"}) == csm_stratum(config_b, {"D"})
    assert csm_stratum(config_a, {"D"}) == parse_class("h + 2*h^2", P2)
    with pytest.raises(SchemaError):
        csm_stratum(config_a, {"X"})


def test_csm_cusp_through_chain():
    model = load_model(read_fixture("csm_cusp.json"))
    chain = model.chains["toP2"]
    cls = csm_set(model.config, model.selection, chain)
    assert cls == parse_class("3*h + 2*h^2", chain[-1].target)
    assert cls.degree() == rf(2)


def test_csm_rejects_symbolic_multiplicities():
    config = line_config()
    with pytest.raises(PreconditionViolated):
        csm_set(config)
    with pytest.raises(PreconditionViolated):
        stringy_class(config)


def test_csm_whole_space_is_chern_class():
    config = line_config(rf(0))
    assert csm_set(config) == P2.require_tangent_chern()


def test_stringy_smooth_is_chern_class():
    config = NCConfig(P2, [])
    cls = stringy_class(config)
    assert cls == P2.require_tangent_chern()
    assert cls.degree() == rf(3)


def test_stringy_smooth_target_is_its_chern_class():
    # discrepancy data of the blow-down: manifesting recovers the
    # tangent Chern class of the blow-down target
    model = load_model(read_fixture("diffman_p2.json"))
    chain = load_chain("construction", model.ring, model.construction)
    cls = stringy_class(model.config, chain)
    target = chain[-1].target
    assert cls == target.require_tangent_chern()
    assert cls.degree() == rf(3)
    # the same data routed to the other minimal model keeps degree 3
    # but is not that model's Chern class
    other = stringy_class(model.config, model.chains["toQ"])
    q = model.chains["toQ"][-1].target
    assert other.degree() == rf(3)
    assert other != q.require_tangent_chern()


def test_stringy_remembers_its_own_discrepancies():
    # discrepancy data of the collapse onto the other minimal model,
    # manifested on the plane: the degree is that model's Euler
    # characteristic, not the plane's
    model = load_model(read_fixture("diffman_q.json"))
    chain = model.chains["toP2"]
    cls = stringy_class(model.config, chain)
    target = chain[-1].target
    assert cls == parse_class("1 + (5/2)*h + 4*h^2", target)
    assert cls.degree() == rf(4)


def test_stringy_flop_degree():
    model = load_model(read_fixture("flop_stringy.json"))
    chain = model.chains["toX"]
    cls = stringy_class(model.config, chain)
    assert cls.degree() == rf(6)


def test_manifest_checks_source_ring():
    model = load_model(read_fixture("cusp.json"))
    chain = load_chain("construction", model.ring, model.construction)
    with pytest.raises(RingMismatch):
        manifest(P2.one(), chain)
    assert manifest(P2.one(), None) == P2.one()


def test_manifest_takes_none_one_map_or_a_list():
    blown_up, down, e = ring_blowup_point(P2)
    cls = blown_up.one() + e
    assert manifest(cls, None) is cls
    assert manifest(cls, down) == down.push(cls) == P2.one()
    assert manifest(cls, [down]) == manifest(cls, (down,)) == P2.one()
    # composition is checked before the source ring, whatever the class
    for c in (cls, P2.one()):
        with pytest.raises(RingMismatch, match="^chain maps do not compose$"):
            manifest(c, [down, down])
    with pytest.raises(RingMismatch, match="start of the chain"):
        manifest(P2.one(), [down])


def test_ix_cone_function():
    model = load_model(read_fixture("ix_cone.json"))
    fn = ix_function(model.fibered)
    one = rf(1)
    m = RF_M
    assert fn.value("X_off_D") == one
    assert fn.value("D1_off") == one / (one + m)
    assert fn.value("v") == (rf(2) + m) / ((one + m) * (one + m))
    assert fn.value("v").evaluate(Fraction(0)) == 2


def test_ix_with_selection():
    model = load_model(read_fixture("ix_cone.json"))
    sel = StratumSelection.empty(model.fibered.names)
    fn = ix_function(model.fibered, sel)
    assert all(fn.value(label).is_zero() for label in fn.labels())
    with pytest.raises(UniverseMismatch):
        ix_function(model.fibered, StratumSelection.whole(("X",)))


def test_ix_identity_example():
    model = load_model(read_fixture("idsex.json"))
    fn = ix_function(model.fibered)
    assert fn.value("X_off_D") == rf(1)
    assert fn.value("D") == rf(1) / (rf(1) + RF_M)
    total = fn.paired_total({"X_off_D": 1, "D": 2})
    assert total == parse_rf("(3 + m)/(1 + m)")


def test_ix_subvariety_example():
    model = load_model(read_fixture("ids_subvariety.json"))
    # restricted to the exceptional locus the function is the identity
    # of the collapsed subvariety: 2/(1 + 1) = 1 on its image point
    fn = ix_function(model.fibered, model.selection)
    assert fn.value("X_off_pt").is_zero()
    assert fn.value("pt") == rf(1)
    # the fixture's own selection is the closed exceptional locus, so
    # the default agrees with passing it explicitly
    assert ix_function(model.fibered) == fn
    full = ix_function(
        model.fibered, StratumSelection.whole(model.fibered.names)
    )
    assert full.value("X_off_pt") == rf(1)
    assert full.value("pt") == rf(1)


def test_constructible_function_api():
    fn = ConstructibleFunction([("a", rf(1)), ("b", RF_M)])
    assert fn.labels() == ("a", "b")
    assert fn.render() == "a: 1\nb: m"
    assert fn == ConstructibleFunction([("b", RF_M), ("a", rf(1))])
    with pytest.raises(SchemaError):
        ConstructibleFunction([("a", rf(1)), ("a", rf(2))])
    with pytest.raises(SchemaError):
        fn.value("missing")
    with pytest.raises(SchemaError):
        fn.paired_total({"a": 1})


STRINGY_GRID = [
    # (d, k, Omega coefficient, omega coefficient)
    (2, 2, Fraction(0), Fraction(1)),
    (3, 2, Fraction(1, 3), Fraction(1)),
    (3, 3, Fraction(2), Fraction(8)),
    (4, 2, Fraction(0), Fraction(1, 3)),
    (4, 3, Fraction(-5, 2), Fraction(-4)),
    (4, 4, Fraction(-15), Fraction(-57)),
]


@pytest.mark.parametrize("d,k,big,small", STRINGY_GRID)
def test_stringy_hypersurface_grid(d, k, big, small):
    csm_x = P2.basis_class("h")
    c_b = P2.basis_class("h^2")
    got = stringy_hypersurface(5, d, k, csm_x, c_b, "Omega")
    assert got == csm_x + c_b.scale(rf(big))
    got = stringy_hypersurface(5, d, k, csm_x, c_b, "omega")
    assert got == csm_x + c_b.scale(rf(small))


def test_stringy_hypersurface_smooth_multiplicity():
    csm_x = P2.basis_class("h")
    c_b = P2.basis_class("h^2")
    for flavor in ("Omega", "omega"):
        got = stringy_hypersurface(4, 3, 1, csm_x, c_b, flavor)
        assert got == csm_x


def test_stringy_hypersurface_boundary():
    csm_x = P2.basis_class("h")
    c_b = P2.basis_class("h^2")
    # the Omega flavor tolerates k = d+1, the omega flavor does not
    got = stringy_hypersurface(5, 2, 3, csm_x, c_b, "Omega")
    assert got == csm_x + c_b.scale(rf(-1))
    with pytest.raises(NotLogTerminal):
        stringy_hypersurface(5, 2, 3, csm_x, c_b, "omega")
    with pytest.raises(SchemaError):
        stringy_hypersurface(5, 2, 2, csm_x, c_b, "Other")
    with pytest.raises(PreconditionViolated):
        stringy_hypersurface(5, 0, 2, csm_x, c_b, "Omega")
    with pytest.raises(PreconditionViolated):
        stringy_hypersurface(2, 3, 2, csm_x, c_b, "Omega")
    with pytest.raises(RingMismatch):
        stringy_hypersurface(5, 2, 2, csm_x, ring_projective(2).one(), "Omega")


def test_divisor_action():
    h = P2.basis_class("h")
    assert divisor_action(h, P2.one() + h) == h + h * h
    with pytest.raises(NotADivisor):
        divisor_action(P2.one(), h)
    with pytest.raises(RingMismatch):
        divisor_action(h, ring_projective(3).one())


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from([
    frozenset(), frozenset({"D"}), frozenset({"E1"}),
    frozenset({"D", "E1"}),
])))
def test_selection_linearity_random(strata):
    model = load_model(read_fixture("p2_line.json"))
    config = model.config
    # extend by a second component to get a four-subset universe
    ring = config.ring
    comps = list(config.components) + [
        Component("E1", RF_M + rf(1), parse_class("h", ring)),
    ]
    config = NCConfig(ring, comps)
    sel = StratumSelection.from_strata(("D", "E1"), strata)
    total = integrate_class(config, sel)
    split = ring.zero()
    for s in strata:
        split = split + integrate_class(
            config, StratumSelection.from_strata(("D", "E1"), [s])
        )
    assert total == split


# -- factored selections against the plain subset sum -----------------------

P3 = ring_projective(3)
BLOWN_UP_P2 = ring_blowup_point(P2)[0]
MULTS = (rf(0), rf(Fraction(1, 2)), rf(3), RF_M, rf(2) * RF_M + rf(1),
         RF_M / (rf(2) + RF_M), rf(Fraction(1, 3)) * RF_M + rf(10**18))


def all_subsets(names):
    return [
        frozenset(c) for r in range(len(names) + 1)
        for c in combinations(names, r)
    ]


def reciprocal_weight(index, mults):
    weight = rf(1)
    for name in index:
        weight = weight / (rf(1) + mults[name])
    return weight


def reference_class(config, strata):
    """log_chern times the sum over strata of prod E_i/(1+m_i)."""
    ring = config.ring
    mults = {c.name: c.mult for c in config.components}
    total = ring.zero()
    for index in strata:
        term = ring.one()
        for name in index:
            term = term * config.divisor_of(name)
        total = total + term.scale(reciprocal_weight(index, mults))
    return log_chern(config) * total


def reference_chi_open(table, index):
    return sum(
        (Fraction(-1) ** (len(key) - len(index)) * value
         for key, value in table.items() if index <= key),
        Fraction(0),
    )


@st.composite
def selection_pairs(draw):
    """A universe of at most 8 names with multiplicities, and two
    selections on it, each with its set of strata built by hand."""
    names = tuple(f"E{i}" for i in range(draw(st.integers(0, 8))))
    mults = {name: draw(st.sampled_from(MULTS)) for name in names}
    subsets = all_subsets(names)

    def one():
        kind = draw(st.sampled_from(("whole", "empty", "closed", "explicit")))
        if kind == "whole":
            return StratumSelection.whole(names), set(subsets)
        if kind == "closed" and names:
            core = draw(st.one_of(
                st.just(frozenset(names)),
                st.frozensets(st.sampled_from(names), min_size=1),
            ))
            return (StratumSelection.from_closed(names, core),
                    {s for s in subsets if s & core})
        if kind == "empty":
            return StratumSelection.empty(names), set()
        listed = draw(st.sets(st.sampled_from(subsets), max_size=12))
        return StratumSelection.from_strata(names, listed), listed

    return names, mults, one(), one()


def selection_results(first, second, subsets):
    """Each selection and each result of the set operations, paired with
    the strata it must hold."""
    (a, ra), (b, rb) = first, second
    return [
        (a, ra), (b, rb),
        (a.union(b), ra | rb),
        (a.intersect(b), ra & rb),
        (a.difference(b), ra - rb),
        (a.complement(), set(subsets) - ra),
    ]


def check_canonical(sel, strata, names):
    assert sel.strata == strata
    listed = StratumSelection.from_strata(names, strata)
    assert listed == sel and hash(listed) == hash(sel)
    assert listed.describe() == sel.describe()


@settings(max_examples=20, deadline=None)
@given(selection_pairs(), st.sampled_from((P2, P3, BLOWN_UP_P2)), st.data())
def test_integrate_class_matches_subset_sum(case, ring, data):
    names, mults, first, second = case
    divisors = [ring.basis_class(b) for b in ring.basis[1]]
    divisors += [d.scale(rf(2)) for d in divisors]
    config = NCConfig(ring, [
        Component(name, mults[name], data.draw(st.sampled_from(divisors)))
        for name in names
    ])
    for sel, strata in selection_results(first, second, all_subsets(names)):
        check_canonical(sel, strata, names)
        assert integrate_class(config, sel) == reference_class(config, strata)


@settings(max_examples=25, deadline=None)
@given(selection_pairs(), st.data())
def test_degree_and_ix_match_subset_sum(case, data):
    names, mults, first, second = case
    subsets = all_subsets(names)
    values = st.integers(-3, 5)
    table = {frozenset(): Fraction(data.draw(values))}
    for key in data.draw(st.lists(st.sampled_from(subsets), max_size=6)):
        table[key] = Fraction(data.draw(values))
    degree = DegreeConfig(names, mults, table)
    fiber = {
        (label, key): Fraction(data.draw(values))
        for label in ("p", "q")
        for key in data.draw(st.lists(st.sampled_from(subsets), max_size=6))
    }
    fibered = FiberedConfig(
        names, mults, StratumSelection.whole(names), {"p": 1, "q": 2}, fiber
    )
    terms = {"degree": {}, "p": {}, "q": {}}
    for s in subsets:
        chi = reference_chi_open(table, s)
        coefficients = (("degree", chi), ("p", fiber.get(("p", s), 0)),
                        ("q", fiber.get(("q", s), 0)))
        for column, c in coefficients:
            if c:
                terms[column][s] = rf(c) * reciprocal_weight(s, mults)

    def expected(column, strata):
        return sum((v for s, v in terms[column].items() if s in strata), rf(0))

    for sel, strata in selection_results(first, second, subsets):
        check_canonical(sel, strata, names)
        assert integrate_degree(degree, sel) == expected("degree", strata)
        fn = ix_function(fibered, sel)
        assert fn.value("p") == expected("p", strata)
        assert fn.value("q") == expected("q", strata)


@pytest.mark.parametrize("core", [("A",), ("A", "C"), ("A", "B", "C")])
def test_explicit_list_of_a_closed_selection_is_canonical(core):
    names = ("A", "B", "C")
    closed = StratumSelection.from_closed(names, core)
    listed = StratumSelection.from_strata(
        names, [s for s in all_subsets(names) if s & frozenset(core)]
    )
    assert listed.kind == "closed" and listed.core == frozenset(core)
    assert listed == closed and hash(listed) == hash(closed)
    assert listed.describe() == closed.describe() == "closed: " + ",".join(core)
    whole = StratumSelection.from_strata(names, all_subsets(names))
    assert whole.kind == "whole" and whole == StratumSelection.whole(names)
    assert hash(whole) == hash(StratumSelection.whole(names))
    assert whole.describe() == "whole"


def test_explicit_selection_with_large_multiplicities_is_fast():
    # P^2 with 12 components of class h and 19-digit k: dividing each
    # listed set's weight out in Q(m) took about 5 s of CPU
    h = P2.basis_class("h")
    names = tuple(f"E{i}" for i in range(12))
    mults = {name: rf(1 + i % 3) * RF_M + rf(10**18 + i)
             for i, name in enumerate(names)}
    config = NCConfig(P2, [Component(name, mults[name], h) for name in names])
    listed = [s for s in all_subsets(names) if len(s) <= 2][:-1]
    selection = StratumSelection.from_strata(names, listed)
    assert selection.kind == "explicit"
    start = time.process_time()
    with time_limit(5):
        value = integrate_class(config, selection)
    assert time.process_time() - start < 2
    at = Fraction(29, 7)
    special = NCConfig(P2, [Component(name, rf(mults[name].evaluate(at)), h)
                            for name in names])
    assert value.evaluate(at) == integrate_class(special, selection)


def test_constant_multiplicities_never_enter_q_m(monkeypatch):
    # P^2, four components with constant multiplicities: whole, closed
    # and explicit selections integrate and render in integer-form
    # classes and Fractions only
    h = P2.basis_class("h")
    names = ("A", "B", "C", "D")
    mults = (rf(0), rf(Fraction(1, 2)), rf(2), rf(Fraction(-1, 3)))
    config = NCConfig(P2, [
        Component(name, mult, h.scale(rf(1 + i % 2)))
        for i, (name, mult) in enumerate(zip(names, mults))
    ])
    selections = [
        StratumSelection.whole(names),
        StratumSelection.from_closed(names, ("A", "C")),
        StratumSelection.from_strata(
            names, [(), ("A",), ("B", "D"), ("A", "B", "C")]),
    ]
    calls = {}
    for owner, attr in ((Polynomial, "__mul__"), (Polynomial, "__add__"),
                        (RationalFunction, "__init__")):
        key = f"{owner.__name__}.{attr}"
        calls[key] = 0

        def counted(*args, _real=getattr(owner, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    rendered = [integrate_class(config, sel).render() for sel in selections]
    assert calls == dict.fromkeys(calls, 0)
    assert rendered == ["[V] + (8/3)*h + (10/9)*h^2", "(4/3)*h + (19/9)*h^2",
                        "[V] - 2*h + 9*h^2"]


def truncated_product(factors, dim):
    """Product of polynomials in h given as coefficient lists, cut at h^dim."""
    out = [rf(1)] + [rf(0)] * dim
    for f in factors:
        out = [
            sum((out[i] * f[k - i] for i in range(k + 1) if k - i < len(f)), rf(0))
            for k in range(dim + 1)
        ]
    return out


def geometric(d, dim):
    return [rf(-d) ** k for k in range(dim + 1)]


def test_whole_and_closed_selections_never_enumerate(monkeypatch):
    real = model._all_subsets

    def guarded(names):
        names = tuple(names)
        if len(names) > 4:
            raise AssertionError(f"enumerated the subsets of {len(names)} names")
        return real(names)

    monkeypatch.setattr(model, "_all_subsets", guarded)
    monkeypatch.setattr(celestial, "_all_subsets", guarded, raising=False)
    weights = (rf(0), rf(Fraction(1, 2)), RF_M, rf(2))
    for dim, count in ((2, 24), (4, 16)):
        ring = ring_projective(dim)
        h = ring.basis_class("h")
        names = tuple(f"E{i}" for i in range(count))
        degrees = {name: 1 + i % 3 for i, name in enumerate(names)}
        mults = {name: weights[i % 4] for i, name in enumerate(names)}
        config = NCConfig(ring, [
            Component(name, mults[name], h.scale(rf(degrees[name])))
            for name in names
        ])
        # c(TP^n) / prod (1 + d_i h), as a polynomial in h
        log_part = truncated_product(
            [[rf(1), rf(1)]] * (dim + 1)
            + [geometric(degrees[n], dim) for n in names], dim,
        )

        def factor(name):
            return [rf(1), rf(degrees[name]) / (rf(1) + mults[name])]

        core = names[:3]
        whole = truncated_product([log_part] + [factor(n) for n in names], dim)
        inside = truncated_product([factor(n) for n in core], dim)
        inside[0] = inside[0] - rf(1)
        closed = truncated_product(
            [log_part, inside] + [factor(n) for n in names if n not in core], dim
        )
        for sel, series in (
            (StratumSelection.whole(names), whole),
            (StratumSelection.from_closed(names, core), closed),
        ):
            cls = integrate_class(config, sel)
            assert [cls.coefficient(n) for n in ring.all_names] == series

    names = tuple(f"E{i}" for i in range(30))
    mults = {name: weights[i % 4] for i, name in enumerate(names)}
    table = {frozenset(): Fraction(7)}
    for i, name in enumerate(names):
        table[frozenset({name})] = Fraction(2 - i % 3)
        if i % 5 == 0:
            table[frozenset({name, names[i - 1]})] = Fraction(1)
    config = DegreeConfig(names, mults, table, dim=2)
    # the sum over open strata collapses to
    # sum over keys K of chi(K) * prod_{i in K} (1/(1+m_i) - 1)
    expected = rf(0)
    for key, chi in table.items():
        term = rf(chi)
        for name in key:
            term = term * (rf(1) / (rf(1) + mults[name]) - rf(1))
        expected = expected + term
    assert integrate_degree(config, StratumSelection.whole(names)) == expected
    assert integrate_degree(config) == expected
