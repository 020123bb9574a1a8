import math
import struct
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from gbswitch import (
    InvalidExponent,
    KM_EXPONENT_LIMIT,
    RegionKind,
    bh_asymptotic_constant,
    blowup_exponent,
    blowup_lower_exponent,
    classify_point,
    conjecture_exponent,
    g_lower_bound_formula,
    haagerup_f,
    hl_exponent,
    km_constant,
    ksz_exponent,
    unimodular_sharp_exponent,
    weak_l1_norm,
)
from gbswitch.bounds import EULER_GAMMA, RegionVerdict, as_exponent, as_float, harmonic, log_gamma

INF = math.inf


# --- log-Gamma ---------------------------------------------------------------


def test_log_gamma_against_stdlib():
    xs = [0.5, 0.6, 1.0, 1.5, 2.0, 3.25, 7.5, 10.0, 55.5, 171.5, 500.0, 1234.5, 2000.0]
    for x in xs:
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)


def test_log_gamma_rejects_nonpositive():
    # below 0.5 the Lanczos sum loses accuracy, so x < 0.5 is refused with x <= 0 and nan
    for x in (0.25, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=rf"^log_gamma requires x >= 0.5, got {x}$"):
            log_gamma(x)


# --- summability exponents ---------------------------------------------------


def test_hl_exponent_examples():
    assert hl_exponent(2, 4) == Fraction(2)
    assert hl_exponent(2, INF) == Fraction(4, 3)
    # continuity at p = 2m: both printed formulas give the same value
    m, p = 2, Fraction(4)
    assert p / (p - m) == 2 * m * p / (m * p + p - 2 * m) == hl_exponent(m, p)


def test_hl_exponent_continuity_at_2m_exact():
    for m in range(2, 7):
        p = Fraction(2 * m)
        assert hl_exponent(m, p) == p / (p - m)
        assert hl_exponent(m, p) == 2 * m * p / (m * p + p - 2 * m)


def test_hl_exponent_domain():
    with pytest.raises(InvalidExponent):
        hl_exponent(2, 2)
    with pytest.raises(InvalidExponent):
        hl_exponent(2, Fraction(3, 2))
    with pytest.raises(InvalidExponent):
        hl_exponent(1, 4)


def test_unimodular_sharp_exponent_regions():
    v = unimodular_sharp_exponent(2, 2)
    assert v.kind is RegionKind.ADMISSIBLE and v.sharp_exponent == Fraction(4)

    v = unimodular_sharp_exponent(2, INF)
    assert v.kind is RegionKind.ADMISSIBLE and v.sharp_exponent == Fraction(4, 3)

    v = unimodular_sharp_exponent(2, Fraction(4, 3))
    assert v.kind is RegionKind.UNKNOWN
    assert v.interval == (Fraction(8), INF)

    v = unimodular_sharp_exponent(2, Fraction(3, 2))
    assert v.kind is RegionKind.UNKNOWN
    # lower mp/(p-1) = 6, upper 2mp/(mp+p-2m) = 6/(1/2) = 12
    assert v.interval == (Fraction(6), Fraction(12))

    with pytest.raises(InvalidExponent):
        unimodular_sharp_exponent(2, 1)


def test_interval_endpoints_coincide_at_p2():
    for m in range(2, 7):
        p = Fraction(2)
        assert m * p / (p - 1) == Fraction(2 * m)
        assert 2 * m * p / (m * p + p - 2 * m) == Fraction(2 * m)


def test_classify_point_bands():
    assert classify_point(2, 4, 2) is RegionKind.ADMISSIBLE
    assert classify_point(2, 4, Fraction(19, 10)) is RegionKind.NON_ADMISSIBLE
    assert classify_point(2, Fraction(3, 2), 6) is RegionKind.UNKNOWN
    assert classify_point(2, Fraction(3, 2), 12) is RegionKind.ADMISSIBLE
    assert classify_point(2, Fraction(3, 2), Fraction(119, 10)) is RegionKind.UNKNOWN
    assert classify_point(2, Fraction(3, 2), 5) is RegionKind.NON_ADMISSIBLE
    assert classify_point(2, Fraction(5, 4), 9) is RegionKind.NON_ADMISSIBLE
    assert classify_point(2, Fraction(5, 4), 10) is RegionKind.UNKNOWN
    assert classify_point(2, Fraction(5, 4), 1000) is RegionKind.UNKNOWN
    with pytest.raises(InvalidExponent):
        classify_point(2, 4, 0)


def test_boundary_rational_vs_float():
    # exact rational arithmetic: at the boundary p = 4/3 the lower endpoint
    # is exactly 8; the nearest double to 4/3 is a different rational and
    # gives a different endpoint, so boundary queries need exact input
    exact = unimodular_sharp_exponent(2, Fraction(4, 3))
    assert exact.interval == (Fraction(8), INF)
    nearest = unimodular_sharp_exponent(2, 4 / 3)
    assert nearest.interval[0] != Fraction(8)


def test_ksz_exponent_examples():
    assert ksz_exponent(2, INF) == Fraction(3, 2)
    assert ksz_exponent(5, 2) == Fraction(1, 2)
    assert ksz_exponent(3, 1) == Fraction(0)
    assert ksz_exponent(2, 4) == Fraction(1)  # 1/2 + 2(1/2 - 1/4) = 1 beats 3/4
    with pytest.raises(InvalidExponent):
        ksz_exponent(2, Fraction(1, 2))


def test_ksz_exponent_below_degree():
    grid = [Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(7), INF]
    for m in range(2, 7):
        for p in grid:
            assert ksz_exponent(m, p) < m


def test_ksz_dual_identity_exact():
    # m / (2mp/(mp+p-2m)) = (mp+p-2m)/(2p) as exact rationals
    for m in range(2, 7):
        for num in range(1, 40):
            p = Fraction(num, 3)
            if p <= Fraction(2 * m, m + 1):
                continue
            sharp = 2 * m * p / (m * p + p - 2 * m)
            assert Fraction(m, 1) / sharp == (m * p + p - 2 * m) / (2 * p)


def test_blowup_exponent_examples():
    m = 2
    for p in (Fraction(2), Fraction(3), Fraction(8)):
        r = 2 * m * p / (m * p + p - 2 * m)
        assert blowup_exponent(m, p, r) == 0
    assert blowup_exponent(2, INF, 1) == Fraction(1, 2)
    assert blowup_exponent(2, INF, 2) == 0
    assert blowup_exponent(2, INF, Fraction(4, 3)) == 0
    assert blowup_exponent(2, 4, 1) == Fraction(1)  # (4+16-8-4)/8
    with pytest.raises(InvalidExponent):
        blowup_exponent(2, INF, 0)
    with pytest.raises(InvalidExponent):
        blowup_exponent(2, Fraction(4, 3), 1)
    # 2m/(m+1) has 62 characters at m = 10**30, so the message leaves its value out
    assert blowup_exponent(10 ** 30, 2, 2 * 10 ** 30) == 0
    with pytest.raises(InvalidExponent, match=r"^blow-up exponent requires p > 2m/\(m\+1\), got 1$"):
        blowup_exponent(10 ** 30, 1, 2)


def test_blowup_lower_exponent():
    # (mp + r - pr)/(pr) at m=2, p=3/2, r=1: (3 + 1 - 3/2)/(3/2) = 5/3
    assert blowup_lower_exponent(2, Fraction(3, 2), 1) == Fraction(5, 3)
    assert blowup_lower_exponent(2, INF, 1) == Fraction(1)
    assert blowup_lower_exponent(2, INF, 4) == 0


def test_blowup_zero_from_sharp_on(rng=None):
    for m in (2, 3):
        for p in (Fraction(2), Fraction(5, 2), INF):
            sharp = Fraction(2 * m, m + 1) if p == INF else 2 * m * p / (m * p + p - 2 * m)
            for extra in (Fraction(0), Fraction(1, 7), Fraction(3)):
                assert blowup_exponent(m, p, sharp + extra) == 0
            assert blowup_exponent(m, p, sharp - Fraction(1, 100)) > 0


def _canonical(x):
    """A comparable form: floats by their bytes, Fractions and INF by type and value."""
    if isinstance(x, RegionVerdict):
        return x.kind, _canonical(x.sharp_exponent), tuple(map(_canonical, x.interval or ()))
    if isinstance(x, float):
        return float, struct.pack("<d", x)
    return type(x), x


def _outcome(f, *args):
    try:
        return _canonical(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


def test_formulas_in_inverse_p_match_the_p_form_oracle():
    # every (m, p, r) of the grid: the same Fraction or INF, the same float
    # bytes, or the same exception class and message as the p-form formulas
    for m in range(9):  # m = 0 checks that a bad degree fails the same way
        threshold = Fraction(2 * m, m + 1)
        ps = [INF, Fraction(1), threshold, Fraction(2), Fraction(2 * m)] + [Fraction(k, 6) for k in range(-6, 91)]
        rs = [INF, Fraction(1), Fraction(4, 3), Fraction(2), threshold, Fraction(9, 2), Fraction(0), Fraction(-1)]
        for p in ps:
            pairs = [
                (hl_exponent, conftest.oracle_hl_exponent, (m, p)),
                (ksz_exponent, conftest.oracle_ksz_exponent, (m, p)),
                (unimodular_sharp_exponent, conftest.oracle_unimodular_sharp_exponent, (m, p)),
                (conjecture_exponent, conftest.oracle_conjecture_exponent, (m, p)),
            ]
            for n in (1, m, 10):
                pairs.append((g_lower_bound_formula, conftest.oracle_g_lower_bound_formula, (m, n, p)))
                pairs.append((weak_l1_norm, conftest.oracle_weak_l1_norm, (n, p)))
            for r in rs:
                pairs.append((blowup_exponent, conftest.oracle_blowup_exponent, (m, p, r)))
                pairs.append((blowup_lower_exponent, conftest.oracle_blowup_lower_exponent, (m, p, r)))
                pairs.append((conjecture_exponent, conftest.oracle_conjecture_exponent, (m, p, r)))
            for f, oracle, args in pairs:
                assert _outcome(f, *args) == _outcome(oracle, *args), (f.__name__, args)


# --- constants ---------------------------------------------------------------


def test_haagerup_f_values():
    assert haagerup_f(1) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert haagerup_f(2) == pytest.approx(1.0, rel=1e-13)
    # frozen from the high-precision oracle below
    assert haagerup_f(Fraction(4, 3)) == pytest.approx(1.203570862312996, rel=1e-12)
    oracle = 1.0 / (2 ** (-1 / 3) * math.gamma(7 / 6) / math.gamma(1.5))
    assert haagerup_f(Fraction(4, 3)) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(InvalidExponent):
        haagerup_f(0.5)
    with pytest.raises(InvalidExponent):
        haagerup_f(2.5)


def test_harmonic():
    assert harmonic(0) == 0.0
    assert harmonic(4) == 25 / 12
    with pytest.raises(ValueError, match=r"^harmonic requires n >= 0$"):
        harmonic(-1)


def test_bh_constant_table():
    table = {2: 1.2533, 5: 1.9895, 10: 3.0555, 100: 15.2457, 1000: 81.1974}
    for m, expected in table.items():
        assert bh_asymptotic_constant(m) == pytest.approx(expected, abs=1e-3)
    assert bh_asymptotic_constant(2) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-10)


def test_bh_constant_equals_f_product():
    for m in (2, 3, 7, 25):
        prod = 1.0
        for k in range(2, m + 1):
            prod *= haagerup_f(Fraction(2 * (k - 1), k))
        assert bh_asymptotic_constant(m) == pytest.approx(prod, rel=1e-10)


def test_bh_constant_refuses_huge_degree_at_once():
    assert bh_asymptotic_constant(1) == 1.0
    for m in (10 ** 6 + 1, 10 ** 30):
        t0 = time.perf_counter()
        with pytest.raises(InvalidExponent, match=r"m must be <= 10\*\*6"):
            bh_asymptotic_constant(m)
        assert time.perf_counter() - t0 < 0.1


def test_bh_constant_strictly_increasing():
    values = [bh_asymptotic_constant(m) for m in range(2, 120)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bh_constant_matches_lgamma_oracle():
    # an oracle on math.lgamma, independent of the Lanczos log_gamma
    terms = [math.lgamma(1.5) - math.lgamma((3 * k - 2) / (2 * k)) for k in range(2, 2001)]
    for m in range(1, 2001):
        h = math.fsum(1.0 / k for k in range(1, m + 1))
        oracle = math.exp(math.fsum(terms[: m - 1]) + (h - 1.0) * math.log(2.0))
        assert bh_asymptotic_constant(m) == pytest.approx(oracle, rel=1e-10)


def test_km_constant():
    assert km_constant(1) == pytest.approx(1.3, rel=0, abs=0)
    assert km_constant(2) == pytest.approx(1.674246118362773, rel=1e-12)
    assert KM_EXPONENT_LIMIT == pytest.approx(0.36481857726926087, rel=1e-12)
    assert KM_EXPONENT_LIMIT == (2 - math.log(2) - EULER_GAMMA) / 2


def test_as_exponent():
    assert as_exponent(3) == Fraction(3) and as_exponent(0.5) == Fraction(1, 2) and as_exponent(INF) == INF
    for bad, message in ((True, "p must be a number, got bool"),
                         (math.nan, "p must be a positive real or inf, got nan"),
                         (-INF, "p must be a positive real or inf, got -inf"),
                         ("2", "p must be int, float, Fraction, or inf, got str")):
        with pytest.raises(InvalidExponent, match=rf"^{message}$"):
            as_exponent(bad)
    with pytest.raises(InvalidExponent, match=r"^r must be a number, got bool$"):
        as_exponent(False, name="r")


def test_as_float():
    for x in (Fraction(4, 3), Fraction(-7), 5, INF, Fraction(1, 10 ** 400)):
        assert as_float(x, "unused") == float(x)
    with pytest.raises(InvalidExponent, match=r"^x is beyond a float\.$"):
        as_float(Fraction(10 ** 400), "x is beyond a float.")


def test_conjecture_exponent():
    # agrees with the proven sharp exponent at p = 2
    assert conjecture_exponent(2, 2) == Fraction(4)
    assert conjecture_exponent(3, 2) == Fraction(6)
    # pole at p = 1
    assert conjecture_exponent(2, 1) == INF
    assert conjecture_exponent(2, INF) == Fraction(4, 3)
    # blow-up branch vanishes at the conjectured sharp point r = mp/(p-1)
    m, p = 2, Fraction(3, 2)
    r = m * p / (p - 1)
    assert conjecture_exponent(m, p, r) == 0
    assert conjecture_exponent(2, 2, 1) == blowup_exponent(2, 2, 1)
    with pytest.raises(InvalidExponent):
        conjecture_exponent(2, Fraction(1, 2))
    with pytest.raises(InvalidExponent):
        conjecture_exponent(2, 1, 2)


@given(st.integers(2, 6), st.fractions(min_value=Fraction(1, 8), max_value=8))
@settings(max_examples=300, deadline=None)
def test_classify_matches_verdict_everywhere(m, r):
    # any p in the admissible region classifies r consistently with the verdict
    for p in (Fraction(2), Fraction(7, 3), Fraction(11, 2), INF):
        v = unimodular_sharp_exponent(m, p)
        kind = classify_point(m, p, r) if r > 0 else None
        if r <= 0:
            return
        assert (kind is RegionKind.ADMISSIBLE) == (r >= v.sharp_exponent)
