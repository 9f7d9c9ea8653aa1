"""The paper's fixed-input corollaries, as test oracles.

Change of variables with a relative canonical class, the spell/elgen
identity, canonical degrees, the stringy hypersurface closed form,
proper transforms under a point blow-up and the pairing of a
stratumwise function with Euler characteristics. No verb or `verify` suite
needs them; the tests check the program's answers against them. The
checkers report in the form of `celint.verify`'s own checkers.

`reference_inverse` is the geometric series of a class inverse in plain
class products, so references that invert a class do not reuse the
`ChowClass.inverse` kernel they check.
"""

from fractions import Fraction

from celint.celestial import ConstructibleFunction, integrate_class, manifest
from celint.chow import ChowClass, PushForwardMap
from celint.errors import (
    NotADivisor,
    NotLogTerminal,
    PreconditionViolated,
    RingMismatch,
    SchemaError,
)
from celint.exactnum import RationalFunction, as_fraction, rf
from celint.model import NCConfig
from celint.verify import CheckReport, _compare, _describe_config


def reference_inverse(x: ChowClass) -> ChowClass:
    """The inverse of x as sum_k (-1)^k n^k / c0^(k+1), with c0 the
    codimension-0 coefficient of x and n its positive part."""
    ring = x.ring
    c0 = x.coefficient(ring.fundamental)
    n = x.positive_part()
    result = ring.one().scale(rf(1) / c0)
    power = ring.one()
    for k in range(1, ring.dim + 1):
        power = power * n
        if power.is_zero():
            break
        result = result + power.scale(rf((-1) ** k) / c0 ** (k + 1))
    return result


def total_divisor_class(config: NCConfig) -> ChowClass:
    """The multiplicity-weighted sum of the component classes."""
    out = config.ring.zero()
    for comp in config.components:
        out = out + comp.divisor.scale(comp.mult)
    return out


def _constant_span_coeffs(target: ChowClass, classes):
    """Solve target = sum r_i * classes[i] with rational constants.

    Returns the coefficient list, or None when the system has no
    solution. Works over the codimension-1 basis coordinates.
    """
    ring = target.ring
    names = [n for n in ring.all_names if ring.codim_of[n] == 1]
    rows = len(names)
    cols = len(classes)
    matrix = [[Fraction(0)] * (cols + 1) for _ in range(rows)]
    for j, cls in enumerate(classes):
        for i, name in enumerate(names):
            c = cls.coeffs.get(name)
            matrix[i][j] = c.as_fraction() if c is not None else Fraction(0)
    for i, name in enumerate(names):
        c = target.coeffs.get(name)
        matrix[i][cols] = c.as_fraction() if c is not None else Fraction(0)
    pivots = []
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        lead = matrix[row][col]
        matrix[row] = [x / lead for x in matrix[row]]
        for r in range(rows):
            if r != row and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row])]
        pivots.append(col)
        row += 1
    for r in range(row, rows):
        if matrix[r][cols] != 0:
            return None
    coeffs = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        coeffs[col] = matrix[r][cols]
    return coeffs


def check_cov(config_x: NCConfig, config_y: NCConfig, krho: ChowClass = None,
              chain_x=None, chain_y=None) -> CheckReport:
    """Change of variables: the integral of a divisor with the source
    bookkeeping equals the integral of the divisor corrected by the
    relative canonical class with the dominated bookkeeping, once both
    are manifested at a common stage.

    config_x and config_y may live on different rings; chain_x and
    chain_y, lists of maps, must then manifest both integrals into the
    same target.
    krho, when given, is the relative canonical class on config_y's
    ring; it must decompose over config_y's component classes with
    rational constant coefficients. When the two configurations share
    one ring, components with the same name must carry equal total
    multiplicities, since the correction moves orders between the
    divisor and the discrepancy columns without changing totals.
    """
    if krho is not None:
        if krho.ring is not config_y.ring:
            raise RingMismatch("krho must live on the dominated-side ring")
        if not (krho.is_zero() or krho.is_pure_codim(1)):
            raise PreconditionViolated("krho must be a divisor class")
        spans = _constant_span_coeffs(
            krho, [c.divisor for c in config_y.components]
        )
        if spans is None:
            raise PreconditionViolated(
                "krho is not supported on the dominated-side components"
            )
    if config_x.ring is config_y.ring:
        for name in config_x.names:
            if name in config_y.by_name:
                if config_x.by_name[name].mult != config_y.by_name[name].mult:
                    raise PreconditionViolated(
                        f"component {name!r} has mismatched total multiplicities"
                    )
    lhs = manifest(integrate_class(config_x, None), chain_x)
    rhs = manifest(integrate_class(config_y, None), chain_y)
    if lhs.ring is not rhs.ring:
        raise RingMismatch("the two manifestations land in different rings")
    context = f"source {_describe_config(config_x)} | dominated {_describe_config(config_y)}"
    return _compare("cov", lhs, rhs, context)


def check_spell_elgen(data_x, data_y, i: int) -> CheckReport:
    """Two divisors with one multiplicity table integrate identically,
    and the twisted first-Chern actions agree to the i-th power.

    Each side is (config at the common ring, pulled divisor class,
    relative canonical class).
    """
    config_x, div_x, k_x = data_x
    config_y, div_y, k_y = data_y
    ring = config_x.ring
    if config_y.ring is not ring or div_x.ring is not ring or div_y.ring is not ring \
            or k_x.ring is not ring or k_y.ring is not ring:
        raise RingMismatch("spell/elgen data must live at one common ring")
    if i < 0:
        raise PreconditionViolated("the action exponent must be >= 0")
    if k_x + div_x != k_y + div_y:
        raise PreconditionViolated(
            "K + D must agree for the two sides at the common ring"
        )
    for config, div, k in ((config_x, div_x, k_x), (config_y, div_y, k_y)):
        if total_divisor_class(config) != k + div:
            raise PreconditionViolated(
                "multiplicity-weighted component sum must equal K + D"
            )
    int_x = integrate_class(config_x, None)
    int_y = integrate_class(config_y, None)
    c1 = ring.require_tangent_chern()._select(lambda k: k == 1)
    elgen_x = c1 + k_x - div_y
    elgen_y = c1 + k_y - div_x
    acted_x = (elgen_x ** i) * int_x
    acted_y = (elgen_y ** i) * int_y
    lhs = f"integral={int_x.render()}; action^{i}={acted_x.render()}"
    rhs = f"integral={int_y.render()}; action^{i}={acted_y.render()}"
    passed = int_x == int_y and acted_x == acted_y
    context = (
        f"{_describe_config(config_x)}; deg lhs {acted_x.degree().render()}, "
        f"deg rhs {acted_y.degree().render()}"
    )
    return CheckReport("spell_elgen", passed, lhs, rhs, context)


def check_can_degree(configs, expected=None) -> CheckReport:
    """Degrees of the integrals of canonical representatives across
    birational models; the set must be a single value (equal to the
    expected one when given)."""
    configs = list(configs)
    degrees = []
    for config in configs:
        value = integrate_class(config, None).degree()
        degrees.append(value.render())
    observed = sorted(set(degrees))
    lhs = "{" + ", ".join(observed) + "}"
    if expected is not None:
        if not isinstance(expected, RationalFunction):
            expected = rf(Fraction(expected))
        rhs = "{" + expected.render() + "}"
    else:
        rhs = lhs if len(observed) <= 1 else "{" + observed[0] + "}"
    return CheckReport(
        "can_degree", lhs == rhs, lhs, rhs,
        f"{len(configs)} canonical model(s)",
    )


def stringy_hypersurface(n: int, d: int, k: int, csm_x: ChowClass,
                         c_b: ChowClass, flavor: str) -> ChowClass:
    """Closed form for a degree-d hypersurface with multiplicity-k
    singular locus B: the CSM class plus a flavor-dependent rational
    multiple of the class of B."""
    if flavor not in ("Omega", "omega"):
        raise SchemaError('flavor must be "Omega" or "omega"')
    if not (isinstance(d, int) and d >= 1 and isinstance(k, int) and k >= 1):
        raise PreconditionViolated("d and k must be integers >= 1")
    if not (isinstance(n, int) and n >= d):
        raise PreconditionViolated("the ambient dimension n must be >= d")
    if csm_x.ring is not c_b.ring:
        raise RingMismatch("csm_x and c_b must live in the same ring")
    core = (Fraction((1 - k) ** (d + 1) - 1, k))
    if flavor == "Omega":
        coeff = (core + 1) / d
    else:
        if k >= d + 1:
            raise NotLogTerminal(
                f"omega flavor needs k < d+1; got k={k}, d={d}"
            )
        coeff = (core + k) / (d + 1 - k)
    return csm_x + c_b.scale(rf(coeff))


def proper_transform(f: PushForwardMap, e: ChowClass, divisor: ChowClass,
                     center_multiplicity) -> ChowClass:
    """Pull back a divisor class through the blow-down f and subtract
    the center multiplicity on its exceptional class e, as returned by
    `ring_blowup_point`."""
    if divisor.ring is not f.target:
        raise RingMismatch("divisor class does not live in the blow-down target")
    if not divisor.is_pure_codim(1):
        raise NotADivisor("proper transform applies to codimension-1 classes only")
    return f.pull(divisor) - e.scale(rf(center_multiplicity))


def paired_total(fn: ConstructibleFunction, chis: dict) -> RationalFunction:
    """Sum of value * Euler characteristic over the strata of fn."""
    total = rf(0)
    for name, v in fn.entries:
        if name not in chis:
            raise SchemaError(f"no Euler characteristic given for {name!r}")
        total = total + v * rf(as_fraction(chis[name]))
    return total
