"""Exponent and constant formulas for unimodular multilinear forms.

Covers the Hardy-Littlewood summability exponents, the sharp unimodular
exponent with its admissible / non-admissible / unknown bands, the
Kahane-Salem-Zygmund norm exponent, the l_r blow-up rates, the Haagerup
constant f(p), the Gamma/harmonic-sum closed form of the
Bohnenblust-Hille-type asymptotic constant, and the 1.3 * m**0.365 working
constant.

Exponents are exact: ``p`` and ``r`` may be int, Fraction, float, or
math.inf. Finite inputs are canonicalized to Fraction and every exponent
formula is evaluated in rational arithmetic, so classification never flips
on float error at boundaries such as p = 2m/(m+1). Infinity is treated as
the closed-form limit, never as a large float.

Note on f(p): the normalization here divides by Gamma(3/2), which is the
choice that makes f(2) = 1 and f(1) = sqrt(pi/2) and reproduces the
asymptotic constant table computed by ``bh_asymptotic_constant``.

Log-Gamma uses the Lanczos approximation (g = 7, 9 coefficients), accurate
to better than 1e-13 relative over [0.5, 2000]. ``math.lgamma`` differs
from it in the last bits, which would change the printed constants.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InvalidExponent

Exponent = Union[int, float, Fraction]

INF = math.inf

EULER_GAMMA = 0.5772156649015328606

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: Exponent of m in the exact form of the working constant: (2 - ln 2 - gamma)/2.
KM_EXPONENT_LIMIT = (2.0 - math.log(2.0) - EULER_GAMMA) / 2.0


def as_exponent(p: Exponent, *, name: str = "p") -> Union[Fraction, float]:
    """Canonicalize to Fraction (finite) or math.inf."""
    if isinstance(p, bool):
        raise InvalidExponent(f"{name} must be a number, got bool")
    if isinstance(p, (int, Fraction)):
        return Fraction(p)
    if isinstance(p, float):
        if math.isinf(p) and p > 0:
            return INF
        if math.isnan(p) or math.isinf(p):
            raise InvalidExponent(f"{name} must be a positive real or inf, got {p}")
        return Fraction(p)
    raise InvalidExponent(f"{name} must be int, float, Fraction, or inf, got {type(p).__name__}")


def _check_degree(m: int, minimum: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int) or m < minimum:
        raise InvalidExponent(f"degree m must be an integer >= {minimum}, got {m!r}")


def _unimodular_threshold(m: int) -> Fraction:
    return Fraction(2 * m, m + 1)


def hl_exponent(m: int, p: Exponent) -> Fraction:
    """Summability exponent of the Hardy-Littlewood inequalities.

    p/(p-m) on m < p <= 2m, 2mp/(mp+p-2m) on p >= 2m (the two agree at
    p = 2m), and the limit 2m/(m+1) at p = inf.
    """
    _check_degree(m, 2)
    pc = as_exponent(p)
    if pc == INF:
        return Fraction(2 * m, m + 1)
    if pc <= m:
        raise InvalidExponent(f"hl_exponent requires p > m, got p={pc}, m={m}")
    if pc <= 2 * m:
        return pc / (pc - m)
    return 2 * m * pc / (m * pc + pc - 2 * m)


def ksz_exponent(m: int, p: Exponent) -> Fraction:
    """Norm exponent of the random-signs (Kahane-Salem-Zygmund) tensor.

    max{1/2 + m(1/2 - 1/p), 1 - 1/p}; equals (m+1)/2 at p = inf.
    """
    _check_degree(m, 1)
    pc = as_exponent(p)
    if pc == INF:
        return Fraction(m + 1, 2)
    if pc < 1:
        raise InvalidExponent(f"ksz_exponent requires p >= 1, got {pc}")
    first = Fraction(1, 2) + m * (Fraction(1, 2) - 1 / pc)
    second = 1 - 1 / pc
    return max(first, second)


class RegionKind(enum.Enum):
    ADMISSIBLE = "admissible"
    NON_ADMISSIBLE = "non-admissible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RegionVerdict:
    """Classification of the optimal summability exponent at a given (m, p).

    ADMISSIBLE carries the proven sharp exponent; UNKNOWN carries the
    interval [lower, upper] the optimal exponent is known to lie in
    (upper may be math.inf).
    """

    kind: RegionKind
    sharp_exponent: Optional[Fraction] = None
    interval: Optional[tuple] = None


def unimodular_sharp_exponent(m: int, p: Exponent) -> RegionVerdict:
    """Sharp exponent status for unimodular m-linear forms on (lp^n)^m.

    p >= 2: sharp exponent 2mp/(mp+p-2m) (proven two-sided).
    2m/(m+1) < p < 2: optimal exponent in [mp/(p-1), 2mp/(mp+p-2m)].
    1 < p <= 2m/(m+1): optimal exponent in [mp/(p-1), inf).
    """
    _check_degree(m, 2)
    pc = as_exponent(p)
    if pc == INF:
        return RegionVerdict(RegionKind.ADMISSIBLE, sharp_exponent=Fraction(2 * m, m + 1))
    if pc <= 1:
        raise InvalidExponent(f"unimodular_sharp_exponent requires p > 1, got {pc}")
    if pc >= 2:
        sharp = 2 * m * pc / (m * pc + pc - 2 * m)
        return RegionVerdict(RegionKind.ADMISSIBLE, sharp_exponent=sharp)
    lower = m * pc / (pc - 1)
    if pc > _unimodular_threshold(m):
        upper = 2 * m * pc / (m * pc + pc - 2 * m)
        return RegionVerdict(RegionKind.UNKNOWN, interval=(lower, upper))
    return RegionVerdict(RegionKind.UNKNOWN, interval=(lower, INF))


def classify_point(m: int, p: Exponent, r: Exponent) -> RegionKind:
    """Band of a candidate summability exponent r at (m, p).

    The lr norms shrink as r grows, so everything at or above a proven
    exponent is admissible and everything below a proven lower bound is
    non-admissible; the gap, where it exists, is unknown.
    """
    rc = as_exponent(r, name="r")
    if rc != INF and rc <= 0:
        raise InvalidExponent(f"r must be > 0, got {rc}")
    verdict = unimodular_sharp_exponent(m, p)
    if verdict.kind is RegionKind.ADMISSIBLE:
        return RegionKind.ADMISSIBLE if rc >= verdict.sharp_exponent else RegionKind.NON_ADMISSIBLE
    lower, upper = verdict.interval
    if rc >= upper:
        return RegionKind.ADMISSIBLE
    if rc < lower:
        return RegionKind.NON_ADMISSIBLE
    return RegionKind.UNKNOWN


def blowup_exponent(m: int, p: Exponent, r: Exponent) -> Fraction:
    """Power of n needed when the sharp lr norm is replaced by a smaller r.

    max{(2mr + 2mp - mpr - pr)/(2pr), 0}; at p = inf the limit
    max{(2m - (m+1)r)/(2r), 0}. Zero exactly from r = 2mp/(mp+p-2m) on.
    """
    _check_degree(m, 1)
    rc = as_exponent(r, name="r")
    pc = as_exponent(p)
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"blow-up exponent requires finite r > 0, got {rc}")
    if pc != INF and pc <= _unimodular_threshold(m):
        raise InvalidExponent(f"blow-up exponent requires p > 2m/(m+1) = {_unimodular_threshold(m)}, got {pc}")
    if pc == INF:
        value = (2 * m - (m + 1) * rc) / (2 * rc)
    else:
        value = (2 * m * rc + 2 * m * pc - m * pc * rc - pc * rc) / (2 * pc * rc)
    return max(value, Fraction(0))


def blowup_lower_exponent(m: int, p: Exponent, r: Exponent) -> Fraction:
    """Companion lower-region rate max{(mp + r - pr)/(pr), 0}.

    This is the proven lower bound on the blow-up power in the
    2m/(m+1) < p < 2 gap (limit max{m/r - 1, 0} at p = inf).
    """
    _check_degree(m, 1)
    rc = as_exponent(r, name="r")
    pc = as_exponent(p)
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"blow-up exponent requires finite r > 0, got {rc}")
    if pc != INF and pc <= _unimodular_threshold(m):
        raise InvalidExponent(f"blow-up exponent requires p > 2m/(m+1) = {_unimodular_threshold(m)}, got {pc}")
    if pc == INF:
        value = Fraction(m, 1) / rc - 1
    else:
        value = (m * pc + rc - pc * rc) / (pc * rc)
    return max(value, Fraction(0))


def conjecture_exponent(m: int, p: Exponent, r: Optional[Exponent] = None):
    """Conjectured (UNVERIFIED) exponents outside the proven range.

    Without r: the conjectured optimal summability exponent, mp/(p-1) for
    1 <= p <= 2 (infinite at p = 1) and 2mp/(mp+p-2m) for p >= 2.
    With r: the conjectured blow-up power, max{(mp+r-pr)/(pr), 0} for
    1 < p <= 2 and the proven max{(2mr+2mp-mpr-pr)/(2pr), 0} for p >= 2.

    Values carry no verification; harness output tags them UNVERIFIED.
    """
    _check_degree(m, 2)
    pc = as_exponent(p)
    if r is None:
        if pc == INF:
            return Fraction(2 * m, m + 1)
        if pc < 1:
            raise InvalidExponent(f"conjectured exponent requires p >= 1, got {pc}")
        if pc >= 2:
            return 2 * m * pc / (m * pc + pc - 2 * m)
        if pc == 1:
            return INF
        return m * pc / (pc - 1)
    rc = as_exponent(r, name="r")
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"r must be finite and > 0, got {rc}")
    if pc == INF or pc >= 2:
        if pc == INF:
            return max((2 * m - (m + 1) * rc) / (2 * rc), Fraction(0))
        return max((2 * m * rc + 2 * m * pc - m * pc * rc - pc * rc) / (2 * pc * rc), Fraction(0))
    if pc <= 1:
        raise InvalidExponent(f"conjectured blow-up requires p > 1, got {pc}")
    return max((m * pc + rc - pc * rc) / (pc * rc), Fraction(0))


# --- constants ---------------------------------------------------------------


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if math.isnan(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos sum well conditioned near 0
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def harmonic(n: int) -> float:
    """H_n = sum_{k=1}^n 1/k, compensated summation."""
    if n < 0:
        raise ValueError("harmonic requires n >= 0")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def haagerup_f(p: Exponent) -> float:
    """f(p) = (2**((p-2)/2) * Gamma((p+1)/2) / Gamma(3/2))**(-1) on 1 <= p <= 2."""
    pc = as_exponent(p)
    if pc == INF or not 1 <= pc <= 2:
        raise InvalidExponent(f"haagerup_f requires 1 <= p <= 2, got {pc}")
    pf = float(pc)
    log_f = -((pf - 2.0) / 2.0) * math.log(2.0) - log_gamma((pf + 1.0) / 2.0) + log_gamma(1.5)
    return math.exp(log_f)


def bh_asymptotic_constant(m: int) -> float:
    """Asymptotic constant prod_{k=2}^m f(2(k-1)/k) of the degree-m inequality.

    Evaluated as 2**(H_m - 1) * prod_{k=2}^m Gamma(3/2)/Gamma((3k-2)/(2k)),
    where the harmonic number H_m equals psi(m+1) + gamma.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    lg32 = log_gamma(1.5)
    gamma_terms = [lg32 - log_gamma((3 * k - 2) / (2 * k)) for k in range(2, m + 1)]
    return math.exp(math.fsum(gamma_terms) + (harmonic(m) - 1.0) * math.log(2.0))


def km_constant(m: int) -> float:
    """Working constant 1.3 * m**0.365 of the lower bounds.

    The 0.365 power is the standard rounding of the exact exponent
    (2 - ln 2 - gamma)/2, exposed as KM_EXPONENT_LIMIT.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    return 1.3 * m ** 0.365
