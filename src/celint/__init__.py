"""Exact intersection-theoretic integrals on normal-crossing resolution data."""

from .errors import (
    CelintError,
    DivisionByZero,
    IndeterminateError,
    MissingDecomposition,
    MissingTangentClass,
    NormalCrossingViolation,
    NotADivisor,
    NotLogTerminal,
    ParseError,
    PoleError,
    PreconditionViolated,
    PresentationError,
    RegimeWarning,
    RingMismatch,
    SchemaError,
    UndefinedMultiplicity,
    UniverseMismatch,
    UnsupportedCatalog,
    ZeroDenominator,
)
from .exactnum import (
    PoleReport,
    Polynomial,
    RationalFunction,
    evaluate,
    make_rational_function,
    rational_poles,
    rf,
)
from .exprparse import parse_expression, parse_rf
from .chow import (
    ChowClass,
    ChowRing,
    PushForwardMap,
    degree_of_class,
    identity_map,
    parse_class,
    proper_transform,
    ring_blowup_point,
    ring_literal,
    ring_point,
    ring_product,
    ring_projective,
)
from .model import (
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
    load_model,
    load_ring,
    load_selection,
)
from .celestial import (
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
    selection_class,
    stringy_class,
    stringy_hypersurface,
    zeta,
    zeta_class,
    zeta_degree,
)
from .verify import CheckReport, SUITES, check_altexp, check_can_degree, \
    check_cov, check_denloe, check_key, check_necfacts, check_spell_elgen, \
    run_all, run_suite

__version__ = "0.1.0"
