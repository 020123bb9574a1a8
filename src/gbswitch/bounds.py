"""Exponent and constant formulas for unimodular multilinear forms.

Covers the Hardy-Littlewood summability exponents, the sharp unimodular
exponent with its admissible / non-admissible / unknown bands, the
Kahane-Salem-Zygmund norm exponent, the l_r blow-up rates, the Haagerup
constant f(p), the Gamma/harmonic-sum closed form of the
Bohnenblust-Hille-type asymptotic constant, the 1.3 * m**0.365 working
constant, and the proven lower bound on the game value.

Exponents are exact: ``p`` and ``r`` may be int, Fraction, float, or
math.inf. Finite inputs are canonicalized to Fraction and every exponent
formula is evaluated in rational arithmetic, so classification never flips
on float error at boundaries such as p = 2m/(m+1). Each formula is written
once, in t = 1/p (and s = 1/r), so p = inf is the closed-form limit t = 0,
never a large float: inf enters only through ``as_exponent`` and the 1/p
map ``_inverse``; domain checks compare it as a float.

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


def as_float(x, message: str) -> float:
    """float(x) of an exact value, or InvalidExponent(message) where it overflows a float."""
    try:
        return float(x)
    except OverflowError:
        raise InvalidExponent(message) from None


def as_text(x) -> str:
    """An exact value as messages show it: its text up to 40 characters, else sign and power of ten ("about 1e-400")."""
    if len(str(x)) <= 40:  # only an int or a Fraction is longer, and math.log10 takes big ints
        return str(x)
    return f"about {'-' if x < 0 else ''}1e{round(math.log10(abs(x.numerator)) - math.log10(x.denominator))}"


def _check_degree(m: int, minimum: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int) or m < minimum:
        raise InvalidExponent(f"degree m must be an integer >= {minimum}, got {m!r}")


def _inverse(p) -> Fraction:
    """t = 1/p of a canonical exponent; the one place p = inf becomes t = 0."""
    return Fraction(0) if p == INF else 1 / p


def _sharp(m: int, t: Fraction) -> Fraction:
    """2mp/(mp+p-2m) = 2m/(m+1-2mt); 2m/(m+1) at p = inf."""
    return 2 * m / (m + 1 - 2 * m * t)


def _lower(m: int, t: Fraction) -> Fraction:
    """mp/(p-1) = m/(1-t)."""
    return m / (1 - t)


def _blowup(m: int, t: Fraction, s: Fraction) -> Fraction:
    """max{(2mr + 2mp - mpr - pr)/(2pr), 0} = max{(2m(t+s) - m - 1)/2, 0} with s = 1/r."""
    return max((2 * m * (t + s) - m - 1) / 2, Fraction(0))


def _blowup_lower(m: int, t: Fraction, s: Fraction) -> Fraction:
    """max{(mp + r - pr)/(pr), 0} = max{ms + t - 1, 0} with s = 1/r."""
    return max(m * s + t - 1, Fraction(0))


def _unimodular_threshold(m: int) -> Fraction:
    """2m/(m+1): the pole of the sharp exponent in p, equal to its value at p = inf."""
    return _sharp(m, Fraction(0))


def _above_threshold(m: int, pc, what: str) -> Fraction:
    """t = 1/p of a canonical p > 2m/(m+1), else InvalidExponent; a threshold over 40 characters is not shown."""
    threshold = _unimodular_threshold(m)
    if pc <= threshold:
        shown = f" = {threshold}" if len(str(threshold)) <= 40 else ""
        raise InvalidExponent(f"{what} > 2m/(m+1){shown}, got {as_text(pc)}")
    return _inverse(pc)


def hl_exponent(m: int, p: Exponent) -> Fraction:
    """Summability exponent of the Hardy-Littlewood inequalities.

    p/(p-m) on m < p <= 2m, 2mp/(mp+p-2m) on p >= 2m (the two agree at
    p = 2m), and the limit 2m/(m+1) at p = inf.
    """
    _check_degree(m, 2)
    pc = as_exponent(p)
    if pc <= m:
        raise InvalidExponent(f"hl_exponent requires p > m, got p={as_text(pc)}, m={m}")
    return pc / (pc - m) if pc <= 2 * m else _sharp(m, _inverse(pc))


def ksz_exponent(m: int, p: Exponent) -> Fraction:
    """Norm exponent of the random-signs (Kahane-Salem-Zygmund) tensor.

    max{1/2 + m(1/2 - 1/p), 1 - 1/p}; equals (m+1)/2 at p = inf.
    """
    _check_degree(m, 1)
    pc = as_exponent(p)
    if pc < 1:
        raise InvalidExponent(f"ksz_exponent requires p >= 1, got {as_text(pc)}")
    t = _inverse(pc)
    return max(Fraction(1, 2) + m * (Fraction(1, 2) - t), 1 - t)


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
    if pc <= 1:
        raise InvalidExponent(f"unimodular_sharp_exponent requires p > 1, got {as_text(pc)}")
    t = _inverse(pc)
    if pc >= 2:
        return RegionVerdict(RegionKind.ADMISSIBLE, sharp_exponent=_sharp(m, t))
    upper = _sharp(m, t) if pc > _unimodular_threshold(m) else INF
    return RegionVerdict(RegionKind.UNKNOWN, interval=(_lower(m, t), upper))


def classify_point(m: int, p: Exponent, r: Exponent) -> RegionKind:
    """Band of a candidate summability exponent r at (m, p).

    The lr norms shrink as r grows, so everything at or above a proven
    exponent is admissible and everything below a proven lower bound is
    non-admissible; the gap, where it exists, is unknown.
    """
    rc = as_exponent(r, name="r")
    if rc <= 0:
        raise InvalidExponent(f"r must be > 0, got {as_text(rc)}")
    verdict = unimodular_sharp_exponent(m, p)
    if verdict.kind is RegionKind.ADMISSIBLE:
        return RegionKind.ADMISSIBLE if rc >= verdict.sharp_exponent else RegionKind.NON_ADMISSIBLE
    lower, upper = verdict.interval
    if rc >= upper:
        return RegionKind.ADMISSIBLE
    if rc < lower:
        return RegionKind.NON_ADMISSIBLE
    return RegionKind.UNKNOWN


def _blowup_args(m: int, p: Exponent, r: Exponent) -> tuple[Fraction, Fraction]:
    """(1/p, 1/r) for the blow-up rates, which need finite r > 0 and p > 2m/(m+1)."""
    _check_degree(m, 1)
    rc = as_exponent(r, name="r")
    pc = as_exponent(p)
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"blow-up exponent requires finite r > 0, got {as_text(rc)}")
    return _above_threshold(m, pc, "blow-up exponent requires p"), 1 / rc


def blowup_exponent(m: int, p: Exponent, r: Exponent) -> Fraction:
    """Power of n needed when the sharp lr norm is replaced by a smaller r.

    max{(2mr + 2mp - mpr - pr)/(2pr), 0}; at p = inf the limit
    max{(2m - (m+1)r)/(2r), 0}. Zero exactly from r = 2mp/(mp+p-2m) on.
    """
    return _blowup(m, *_blowup_args(m, p, r))


def blowup_lower_exponent(m: int, p: Exponent, r: Exponent) -> Fraction:
    """Companion lower-region rate max{(mp + r - pr)/(pr), 0}.

    This is the proven lower bound on the blow-up power in the
    2m/(m+1) < p < 2 gap (limit max{m/r - 1, 0} at p = inf).
    """
    return _blowup_lower(m, *_blowup_args(m, p, r))


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
        if pc < 1:
            raise InvalidExponent(f"conjectured exponent requires p >= 1, got {as_text(pc)}")
        if pc == 1:
            return INF
        return (_sharp if pc >= 2 else _lower)(m, _inverse(pc))
    rc = as_exponent(r, name="r")
    if rc == INF or rc <= 0:
        raise InvalidExponent(f"r must be finite and > 0, got {as_text(rc)}")
    if pc <= 1:
        raise InvalidExponent(f"conjectured blow-up requires p > 1, got {as_text(pc)}")
    return (_blowup if pc >= 2 else _blowup_lower)(m, _inverse(pc), 1 / rc)


# --- constants ---------------------------------------------------------------


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x >= 0.5, where the Lanczos sum is accurate (its callers pass 1 <= x <= 3/2)."""
    if not x >= 0.5:  # NaN fails the comparison
        raise ValueError(f"log_gamma requires x >= 0.5, got {x}")
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
    if not 1 <= pc <= 2:
        raise InvalidExponent(f"haagerup_f requires 1 <= p <= 2, got {as_text(pc)}")
    pf = float(pc)
    log_f = -((pf - 2.0) / 2.0) * math.log(2.0) - log_gamma((pf + 1.0) / 2.0) + log_gamma(1.5)
    return math.exp(log_f)


def bh_asymptotic_constant(m: int) -> float:
    """Asymptotic constant prod_{k=2}^m f(2(k-1)/k) of the degree-m inequality.

    Evaluated as 2**(H_m - 1) * prod_{k=2}^m Gamma(3/2)/Gamma((3k-2)/(2k)),
    where the harmonic number H_m equals psi(m+1) + gamma. The cost is m
    Log-Gamma terms, so m above 10**6 (about 2.5 s) is refused.
    """
    _check_degree(m, 1)
    if m > 10 ** 6:
        raise InvalidExponent(f"degree m must be <= 10**6 for the m-term constant, got {m}")
    lg32 = log_gamma(1.5)
    gamma_terms = [lg32 - log_gamma((3 * k - 2) / (2 * k)) for k in range(2, m + 1)]
    return math.exp(math.fsum(gamma_terms) + (harmonic(m) - 1.0) * math.log(2.0))


def km_constant(m: int) -> float:
    """Working constant 1.3 * m**0.365 of the lower bounds.

    The 0.365 power is the standard rounding of the exact exponent
    (2 - ln 2 - gamma)/2, exposed as KM_EXPONENT_LIMIT.
    """
    _check_degree(m, 1)
    return 1.3 * m ** 0.365


def g_lower_bound_formula(m: int, n: int, p) -> float:
    """Proven lower bound n**((mp+p-2m)/(2p)) / (1.3 m**0.365) on the lp game value.

    Valid for p > 2m/(m+1); the exponent is m over the sharp exponent, the
    limit (m+1)/2 at p = inf.
    """
    _check_degree(m, 1)
    t = _above_threshold(m, as_exponent(p), "lower bound requires p")
    return float(n) ** float(m / _sharp(m, t)) / km_constant(m)


def weak_l1_norm(n: int, p) -> float:
    """sup of sum|phi_j| over the unit ball of the dual exponent, n**(1/p).

    Equals lp.dual_update(all-ones, p/(p-1)).value; the p = inf case is 1.
    """
    pc = as_exponent(p)
    if pc <= 1:
        raise InvalidExponent(f"weak_l1_norm requires p > 1, got {as_text(pc)}")
    return float(n) ** float(_inverse(pc))
